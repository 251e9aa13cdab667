// CollectorSelector tests: all three partition policies, Append list
// contiguity, SelectorStats accounting, and determinism of the
// two-level (host, shard) mapping.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <tuple>

#include "common/shard_math.h"
#include "translator/collector_selector.h"

namespace dta::translator {
namespace {

using common::ByteSpan;
using common::Bytes;
using proto::TelemetryKey;

TelemetryKey key_of(std::uint64_t id) {
  std::uint64_t z = id * 0x9E3779B97F4A7C15ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z ^= z >> 31;
  Bytes b;
  common::put_u64(b, z);
  return TelemetryKey::from(ByteSpan(b));
}

proto::Report keywrite(std::uint64_t id) {
  proto::KeyWriteReport r;
  r.key = key_of(id);
  r.redundancy = 2;
  common::put_u32(r.data, static_cast<std::uint32_t>(id));
  return r;
}

proto::Report append(std::uint32_t list) {
  proto::AppendReport r;
  r.list_id = list;
  r.entry_size = 4;
  Bytes e;
  common::put_u32(e, list);
  r.entries.push_back(std::move(e));
  return r;
}

// ------------------------------------------------------------- policies

TEST(CollectorSelector, ByDestinationIpMapsIpsRoundRobin) {
  CollectorSelector selector(PartitionPolicy::kByDestinationIp, 3);
  for (std::uint32_t ip = 0; ip < 30; ++ip) {
    const auto route = selector.route(keywrite(7), ip);
    ASSERT_EQ(route.size(), 1u);
    EXPECT_EQ(route[0], ip % 3);
  }
}

TEST(CollectorSelector, ByKeyHashIsStableAndSpreads) {
  CollectorSelector selector(PartitionPolicy::kByKeyHash, 4);
  std::set<std::uint32_t> seen;
  for (std::uint64_t id = 0; id < 400; ++id) {
    const auto first = selector.route(keywrite(id), 0);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(selector.route(keywrite(id), 0), first) << "key " << id;
    seen.insert(first[0]);
  }
  EXPECT_EQ(seen.size(), 4u);  // every collector owns part of the key space
}

TEST(CollectorSelector, ByKeyHashIgnoresDestinationIp) {
  CollectorSelector selector(PartitionPolicy::kByKeyHash, 4);
  const auto a = selector.route(keywrite(42), 0x0A000001);
  const auto b = selector.route(keywrite(42), 0x0A0000FF);
  EXPECT_EQ(a, b);
}

TEST(CollectorSelector, ReplicateReachesEveryCollector) {
  CollectorSelector selector(PartitionPolicy::kReplicate, 3);
  const auto route = selector.route(keywrite(1), 0);
  EXPECT_EQ(route, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(selector.stats().replicated_copies, 2u);
}

// ------------------------------------------------- Append contiguity

TEST(CollectorSelector, AppendListsStayContiguousPerCollector) {
  // Every entry of one list must land on one collector, and the
  // host-local ids of the lists a collector owns must be dense
  // (0, 1, 2, ...) so its store capacity divides evenly.
  CollectorSelector selector(PartitionPolicy::kByKeyHash, 3);
  std::map<std::uint32_t, std::set<std::uint32_t>> local_ids_per_host;
  for (std::uint32_t list = 0; list < 30; ++list) {
    std::set<std::uint32_t> hosts;
    for (int rep = 0; rep < 5; ++rep) {
      const auto route = selector.route(append(list), 0);
      ASSERT_EQ(route.size(), 1u);
      hosts.insert(route[0]);
    }
    EXPECT_EQ(hosts.size(), 1u) << "list " << list << " split across hosts";
    EXPECT_EQ(*hosts.begin(), list % 3);
    local_ids_per_host[*hosts.begin()].insert(
        selector.host_local_list(list));
  }
  for (const auto& [host, locals] : local_ids_per_host) {
    EXPECT_EQ(locals.size(), 10u) << "host " << host;
    EXPECT_EQ(*locals.begin(), 0u) << "host " << host;
    EXPECT_EQ(*locals.rbegin(), 9u)
        << "host " << host << ": local ids not contiguous";
  }
}

TEST(CollectorSelector, HostLocalListFoldsOnlyUnderKeyHash) {
  CollectorSelector hash(PartitionPolicy::kByKeyHash, 2);
  CollectorSelector repl(PartitionPolicy::kReplicate, 2);
  EXPECT_EQ(hash.host_local_list(6), 3u);
  // Replication leaves every host with the full list space; folding
  // would alias lists 6 and 7 onto one local id.
  EXPECT_EQ(repl.host_local_list(6), 6u);
}

// ------------------------------------------------------ SelectorStats

TEST(CollectorSelector, StatsCountPerCollector) {
  CollectorSelector selector(PartitionPolicy::kByKeyHash, 4);
  for (std::uint64_t id = 0; id < 1000; ++id) selector.route(keywrite(id), 0);
  const SelectorStats& stats = selector.stats();
  EXPECT_EQ(stats.routed, 1000u);
  EXPECT_EQ(stats.replicated_copies, 0u);
  ASSERT_EQ(stats.per_collector.size(), 4u);
  std::uint64_t total = 0;
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_GT(stats.per_collector[c], 150u) << "collector " << c;
    total += stats.per_collector[c];
  }
  EXPECT_EQ(total, 1000u);
}

TEST(CollectorSelector, ReplicateStatsCountEveryCopy) {
  CollectorSelector selector(PartitionPolicy::kReplicate, 3);
  for (std::uint64_t id = 0; id < 100; ++id) selector.route(keywrite(id), 0);
  EXPECT_EQ(selector.stats().routed, 100u);
  EXPECT_EQ(selector.stats().replicated_copies, 200u);
  for (std::uint32_t c = 0; c < 3; ++c) {
    EXPECT_EQ(selector.stats().per_collector[c], 100u);
  }
}

// ------------------------------------------------- two-level mapping
// route() decides the host tier; the host runtime places the report on
// a shard with the same function the query tier probes with
// (shard_within_host / shard_within_host_of_list, common/shard_math.h).

TEST(CollectorSelector, TwoLevelMappingIsDeterministic) {
  // The (host, shard) decision must be a pure function of the report:
  // identical across calls and across selector instances (the query
  // tier rebuilds the route independently of the ingest path).
  CollectorSelector a(PartitionPolicy::kByKeyHash, 4, 4);
  CollectorSelector b(PartitionPolicy::kByKeyHash, 4, 4);
  for (std::uint64_t id = 0; id < 300; ++id) {
    const auto ra = a.route(keywrite(id), 0);
    const auto rb = b.route(keywrite(id), 0);
    ASSERT_EQ(ra.size(), 1u);
    EXPECT_EQ(ra, rb) << "key " << id;
    EXPECT_EQ(ra, a.route(keywrite(id), 0)) << "key " << id;
    EXPECT_LT(ra[0], 4u);
    const std::uint32_t shard = a.shard_within_host(key_of(id));
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, b.shard_within_host(key_of(id))) << "key " << id;
    // The probes used by the query tier agree with the ingest side:
    // the owner is the routed host, the shard is the host runtime's.
    EXPECT_EQ(*a.owner_host(key_of(id)), ra[0]);
    EXPECT_EQ(shard, common::shard_of_key(key_of(id).span(), 4));
  }
}

TEST(CollectorSelector, TwoLevelTiersAreUncorrelated) {
  // Keys pinned to one host must still spread over that host's shards:
  // the host hash and the shard hash use distinct CRC engines.
  CollectorSelector selector(PartitionPolicy::kByKeyHash, 4, 4);
  std::array<std::set<std::uint32_t>, 4> shards_per_host;
  for (std::uint64_t id = 0; id < 2000; ++id) {
    const auto route = selector.route(keywrite(id), 0);
    ASSERT_EQ(route.size(), 1u);
    shards_per_host[route[0]].insert(selector.shard_within_host(key_of(id)));
  }
  for (std::uint32_t h = 0; h < 4; ++h) {
    EXPECT_EQ(shards_per_host[h].size(), 4u)
        << "host " << h << " does not use all its shards";
  }
}

TEST(CollectorSelector, ReplicateCopiesShareTheShardIndex) {
  // The shard tier only sees the key, so every replica host places the
  // copy on the same shard index — queries probe one shard per host.
  // Each host's runtime is a one-host deployment of the same geometry:
  // its shard placement must equal the replicated selector's single
  // probe, whatever host or address the copy was routed by.
  CollectorSelector selector(PartitionPolicy::kReplicate, 3, 4);
  const CollectorSelector host_runtime(PartitionPolicy::kByKeyHash, 1, 4);
  for (std::uint64_t id = 0; id < 100; ++id) {
    const auto route =
        selector.route(keywrite(id), static_cast<std::uint32_t>(id));
    EXPECT_EQ(route, (std::vector<std::uint32_t>{0, 1, 2}));
    const std::uint32_t probe = selector.shard_within_host(key_of(id));
    EXPECT_EQ(probe, host_runtime.shard_within_host(key_of(id)))
        << "key " << id;
    EXPECT_EQ(probe, common::shard_of_key(key_of(id).span(), 4))
        << "key " << id;
  }
}

TEST(CollectorSelector, TwoLevelAppendMappingIsDense) {
  // Global list -> (host, host-local, shard, shard-local): the double
  // fold keeps ids dense at both levels and never aliases two lists.
  const std::uint32_t hosts = 2, shards = 2;
  CollectorSelector selector(PartitionPolicy::kByKeyHash, hosts, shards);
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> placed;
  for (std::uint32_t list = 0; list < 16; ++list) {
    const auto route = selector.route(append(list), 0);
    ASSERT_EQ(route.size(), 1u);
    EXPECT_EQ(*selector.owner_host_of_list(list), route[0]);
    const std::uint32_t local = selector.host_local_list(list);
    // The host runtime's shard tier over the host-local id.
    const std::uint32_t shard = common::list_partition(local, shards);
    EXPECT_EQ(shard, selector.shard_within_host_of_list(local));
    const std::uint32_t shard_local = common::list_local_id(local, shards);
    const auto placement = std::make_tuple(route[0], shard, shard_local);
    EXPECT_TRUE(placed.insert(placement).second)
        << "list " << list << " aliases another list's slot";
    EXPECT_LT(shard_local, 16u / (hosts * shards));
  }
}

}  // namespace
}  // namespace dta::translator
