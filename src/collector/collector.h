// Collector facade: the RDMA service plus the frame-ingest loop.
//
// The collector CPU never touches incoming report frames — the NIC model
// executes verbs straight into registered memory (that is the point of
// the paper). This class is the *host-side* object: it owns the service,
// feeds inbound frames to the NIC, surfaces ACK/NAK feedback for the
// translator, and exposes the query stores and immediate-completion
// events to applications. dta::Fabric (the wire-fidelity topology) is
// its only host; the sharded runtime's CollectorShard owns its
// RdmaService directly.
#pragma once

#include <functional>
#include <optional>

#include "collector/rdma_service.h"
#include "net/packet.h"

namespace dta::collector {

struct CollectorStats {
  std::uint64_t frames_in = 0;
  std::uint64_t verbs_executed = 0;
  std::uint64_t naks = 0;
};

class Collector {
 public:
  using AckSink =
      std::function<void(const rdma::Aeth&, std::uint32_t expected_psn)>;

  explicit Collector(rdma::NicParams nic_params = {})
      : service_(nic_params) {}

  RdmaService& service() { return service_; }

  void set_ack_sink(AckSink sink) { ack_sink_ = std::move(sink); }

  // NIC ingest path for one inbound frame.
  void ingest(const net::Packet& frame);

  // Immediate-data completions ("push notifications", §7): returns the
  // next pending immediate event, if any.
  std::optional<rdma::Completion> poll_event();

  const CollectorStats& stats() const { return stats_; }

 private:
  RdmaService service_;
  AckSink ack_sink_;
  CollectorStats stats_;
};

}  // namespace dta::collector
