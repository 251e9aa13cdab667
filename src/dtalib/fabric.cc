#include "dtalib/fabric.h"

namespace dta {

Fabric::Fabric(FabricConfig config) : config_(std::move(config)) {
  collector_ = std::make_unique<collector::Collector>(config_.nic);
  auto& service = collector_->service();
  if (config_.keywrite) service.enable_keywrite(*config_.keywrite);
  if (config_.postcarding) service.enable_postcarding(*config_.postcarding);
  if (config_.append) service.enable_append(*config_.append);
  if (config_.keyincrement) service.enable_keyincrement(*config_.keyincrement);

  // CM handshake: the translator's control plane connects to the
  // collector service and learns the region layout.
  rdma::ConnectRequest request;
  request.requester_qpn = 0x70;
  request.start_psn = 0x1000;
  const rdma::ConnectAccept accept = service.accept(request);

  translator_ = std::make_unique<translator::Translator>(
      config_.translator, accept.responder_qpn, accept.start_psn, accept);

  // Wire: the translator's RoCE frames ride the RDMA link...
  rdma_link_ = std::make_unique<net::Link>(config_.rdma_link);
  translator_->set_rdma_sink([this](net::Packet&& pkt) {
    rdma_link_->transmit(std::move(pkt), clock_.now());
  });
  // ...which delivers into the collector NIC. (The fabric clock is NOT
  // ratcheted to the arrival time: propagation delay is pipelined
  // latency, not occupancy, and must not gate the send rate.)
  rdma_link_->set_sink([this](net::Packet&& pkt) {
    collector_->ingest(pkt);
    ++verbs_total_;
  });
  // ACK/NAK feedback resynchronizes the translator's PSN tracker.
  collector_->set_ack_sink(
      [this](const rdma::Aeth& aeth, std::uint32_t expected) {
        translator_->handle_ack(aeth, expected);
      });
  // Congestion NACKs route back to the reporter they were addressed to,
  // where they surface as typed backpressure (take_backpressure()).
  // Previously the sink was left unwired and sheds were silent.
  translator_->set_nack_sink([this](net::Packet&& pkt) {
    auto udp = net::parse_udp_frame(pkt.span());
    if (!udp) return;
    auto parsed = proto::decode_dta_payload(
        pkt.span().subspan(udp->payload_offset, udp->payload_length));
    if (!parsed) return;
    const auto* nack = std::get_if<proto::NackReport>(&parsed->report);
    if (!nack) return;
    const std::uint32_t idx = udp->ip.dst_ip - 0x0A000001;
    if (idx < reporters_.size()) reporters_[idx]->handle_nack(*nack);
  });

  // Each reporter's uplink delivers into the translator; seeds differ so
  // lossy uplinks drop independently.
  for (std::uint32_t i = 0; i < config_.num_reporters; ++i) {
    reporter::ReporterConfig rc;
    rc.ip = 0x0A000001 + i;
    rc.src_port = static_cast<std::uint16_t>(51000 + i);
    reporters_.push_back(std::make_unique<reporter::Reporter>(rc));

    net::LinkParams lp = config_.reporter_link;
    lp.seed += i;
    auto uplink = std::make_unique<net::Link>(lp);
    uplink->set_sink([this](net::Packet&& pkt) {
      translator_->ingest(std::move(pkt), pkt.arrival_ns);
    });
    uplinks_.push_back(std::move(uplink));
  }
}

Fabric::~Fabric() = default;

void Fabric::report(const proto::Report& report, std::uint32_t reporter_idx,
                    bool immediate) {
  net::Packet frame = reporters_[reporter_idx]->make_frame(report, immediate);
  net::Link& uplink = *uplinks_[reporter_idx];
  uplink.transmit(std::move(frame), clock_.now());
  // The next report cannot start serializing before this one left the
  // reporter's wire: advance the clock to the uplink's busy horizon (its
  // serializer only — propagation is pipelined).
  clock_.advance_to(uplink.busy_until());
}

void Fabric::report_direct(const proto::ParsedDta& parsed) {
  translator_->ingest_report(parsed, clock_.now());
}

void Fabric::flush() { translator_->flush(clock_.now()); }

double Fabric::modeled_verbs_per_sec() const {
  return collector_->service().nic().modeled_verbs_per_sec(verbs_total_);
}

}  // namespace dta
