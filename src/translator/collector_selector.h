// Multi-collector support (paper §7 "Supporting Multiple Collectors").
//
// "It is beneficial to enable collection at multiple servers for
// scalability or resiliency. DTA can be deployed alongside multiple
// collectors and permit easy partitioning of reports based on the IP
// and DTA headers."
//
// The selector is the translator-side partitioning function. Three
// policies cover the deployment patterns the paper sketches:
//   * kByDestinationIp — the reporter already addressed a specific
//     collector (per-primitive collector IPs, §5.1's controller tables);
//   * kByKeyHash — key-partitioned scale-out: every collector owns a
//     shard of the key space, so queries know where to look;
//   * kReplicate — resiliency: every report goes to all collectors
//     (redundant collection survives a collector failure).
// Append reports partition by list id so each list stays contiguous on
// one collector.
//
// Two-level routing: when each collector host itself runs a sharded
// CollectorRuntime, route() decides only the host tier, and the host's
// runtime places the report on a shard by key CRC
// (common/shard_math.h). The stat-free probes below answer both tiers
// for the query path. Every policy composes with intra-host sharding,
// and every report is hashed once per tier.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dta/wire.h"
#include "translator/crc_unit.h"

namespace dta::translator {

enum class PartitionPolicy : std::uint8_t {
  kByDestinationIp,
  kByKeyHash,
  kReplicate,
};

struct SelectorStats {
  std::uint64_t routed = 0;
  std::uint64_t replicated_copies = 0;
  std::vector<std::uint64_t> per_collector;
};

class CollectorSelector {
 public:
  CollectorSelector(PartitionPolicy policy, std::uint32_t num_collectors,
                    std::uint32_t shards_per_host = 1);

  // Returns the collector indexes the report must reach (size 1 except
  // under kReplicate). `dst_ip` is the report's IP destination, used by
  // kByDestinationIp (maps IPs round-robin onto the collector set).
  std::vector<std::uint32_t> route(const proto::Report& report,
                                   std::uint32_t dst_ip);

  // --- stat-free probes for the query path ----------------------------------
  // The host that owns a key/list, when the policy determines one
  // (kByKeyHash); nullopt when ownership is not derivable from the
  // report alone (kReplicate: any live host; kByDestinationIp: the
  // reporter's addressing, not the key, chose the host).
  std::optional<std::uint32_t> owner_host(const proto::TelemetryKey& key) const;
  std::optional<std::uint32_t> owner_host_of_list(std::uint32_t list_id) const;

  // Intra-host placement (always key/list-determined).
  std::uint32_t shard_within_host(const proto::TelemetryKey& key) const;
  std::uint32_t shard_within_host_of_list(std::uint32_t host_local_list) const;

  // The host-local id of a global Append list: folded by the host count
  // under kByKeyHash (lists partition across hosts), unchanged otherwise
  // (every host holds the full list space).
  std::uint32_t host_local_list(std::uint32_t list_id) const;

  PartitionPolicy policy() const { return policy_; }
  std::uint32_t num_collectors() const { return num_collectors_; }
  std::uint32_t shards_per_host() const { return shards_per_host_; }
  const SelectorStats& stats() const { return stats_; }

 private:
  std::uint32_t host_hash(const proto::TelemetryKey& key) const;

  PartitionPolicy policy_;
  std::uint32_t num_collectors_;
  std::uint32_t shards_per_host_;
  SelectorStats stats_;
};

}  // namespace dta::translator
