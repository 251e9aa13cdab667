// Fabric-scale deployment tests (§1, Figure 1): many reporter switches,
// each on its own uplink, feeding one translator and one collector
// through Fabric with num_reporters = N.
#include <gtest/gtest.h>

#include "dtalib/fabric.h"
#include "telemetry/records.h"

namespace dta {
namespace {

using common::ByteSpan;
using common::Bytes;
using proto::TelemetryKey;

TelemetryKey key_of(std::uint32_t id) {
  Bytes b;
  common::put_u32(b, id);
  return TelemetryKey::from(ByteSpan(b));
}

FabricConfig reporters_config(std::uint32_t reporters) {
  FabricConfig config;
  config.num_reporters = reporters;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 16;
  kw.value_bytes = 4;
  config.keywrite = kw;

  collector::PostcardingSetup pc;
  pc.num_chunks = 1 << 14;
  pc.hops = 5;
  for (std::uint32_t v = 0; v < 1024; ++v) pc.value_space.push_back(v);
  config.postcarding = pc;

  collector::KeyIncrementSetup ki;
  ki.num_slots = 1 << 12;
  config.keyincrement = ki;
  return config;
}

TEST(Deployment, ManyReportersAllCollected) {
  Fabric fabric(reporters_config(32));
  for (std::uint32_t sw = 0; sw < 32; ++sw) {
    for (std::uint32_t i = 0; i < 10; ++i) {
      proto::KeyWriteReport r;
      r.key = key_of(sw * 100 + i);
      r.redundancy = 2;
      common::put_u32(r.data, sw * 100 + i);
      fabric.report(r, sw);
    }
  }
  fabric.flush();

  int hits = 0;
  for (std::uint32_t sw = 0; sw < 32; ++sw) {
    for (std::uint32_t i = 0; i < 10; ++i) {
      const auto result = fabric.collector().service().keywrite()->query(
          key_of(sw * 100 + i), 2);
      if (result.status == collector::QueryStatus::kHit) ++hits;
    }
  }
  EXPECT_EQ(hits, 320);
  EXPECT_EQ(fabric.translator().stats().dta_reports_in, 320u);
}

TEST(Deployment, InterleavedPostcardsFromDifferentSwitches) {
  // Each switch on a flow's path reports its own postcard — the cross-
  // switch aggregation case: hop i arrives from reporter i.
  Fabric fabric(reporters_config(5));
  for (std::uint32_t flow = 0; flow < 50; ++flow) {
    for (std::uint8_t hop = 0; hop < 5; ++hop) {
      proto::PostcardReport r;
      r.key = key_of(flow);
      r.hop = hop;
      r.path_len = 5;
      r.redundancy = 1;
      r.value = (flow + hop) % 1024;
      fabric.report(r, hop);  // reporter per hop
    }
  }
  fabric.flush();

  int found = 0;
  for (std::uint32_t flow = 0; flow < 50; ++flow) {
    const auto result =
        fabric.collector().service().postcarding()->query(key_of(flow),
                                                          1);
    if (result.found && result.hop_values.size() == 5) ++found;
  }
  EXPECT_GE(found, 49);
}

TEST(Deployment, CountersAggregateAcrossSwitches) {
  // Network-wide aggregation: every switch increments the same key
  // (Key-Increment's raison d'être).
  Fabric fabric(reporters_config(8));
  for (std::uint32_t sw = 0; sw < 8; ++sw) {
    proto::KeyIncrementReport r;
    r.key = key_of(7);
    r.redundancy = 2;
    r.counter = 5;
    fabric.report(r, sw);
  }
  fabric.flush();
  EXPECT_EQ(
      fabric.collector().service().keyincrement()->query(key_of(7), 2),
      40u);
}

TEST(Deployment, LossyUplinksIndependent) {
  FabricConfig config = reporters_config(4);
  config.reporter_link.loss_rate = 0.5;
  config.reporter_link.seed = 77;
  Fabric fabric(config);

  for (std::uint32_t sw = 0; sw < 4; ++sw) {
    for (std::uint32_t i = 0; i < 200; ++i) {
      proto::KeyWriteReport r;
      r.key = key_of(sw * 1000 + i);
      r.redundancy = 1;
      common::put_u32(r.data, i);
      fabric.report(r, sw);
    }
  }
  fabric.flush();

  // Each uplink loses ~50% independently; the translator received the
  // survivors from every reporter.
  std::uint64_t delivered = 0;
  bool counts_differ = false;
  for (std::uint32_t sw = 0; sw < 4; ++sw) {
    const std::uint64_t d = fabric.uplink(sw).delivered();
    EXPECT_GT(d, 60u) << "uplink " << sw;
    EXPECT_LT(d, 140u) << "uplink " << sw;
    delivered += d;
    counts_differ |= d != fabric.uplink(0).delivered();
  }
  EXPECT_EQ(fabric.translator().stats().dta_reports_in, delivered);
  // Identically seeded uplinks would drop the same reports.
  EXPECT_TRUE(counts_differ);
}

TEST(Deployment, AlternatingReportersShareThePostcardCache) {
  // Two reporters emit alternately into one translator, whose postcard
  // cache serves both: with a single-row cache, each reporter's flow
  // evicts the other's resident flow, so nearly every postcard forces
  // an early emission.
  FabricConfig config = reporters_config(2);
  config.translator.postcard_cache_slots = 1;
  Fabric fabric(config);

  for (int round = 0; round < 10; ++round) {
    for (std::uint32_t sw = 0; sw < 2; ++sw) {
      proto::PostcardReport r;
      r.key = key_of(sw);  // flow per reporter -> 1-row collision
      r.hop = static_cast<std::uint8_t>(round % 5);
      r.path_len = 5;
      r.redundancy = 1;
      r.value = 1;
      fabric.report(r, sw);
    }
  }
  fabric.flush();
  EXPECT_GE(fabric.translator().postcarding()->stats().early_emissions, 10u);
}

TEST(Deployment, NackReachesOnlyTheShedReporter) {
  // Fabric's own NACK sink maps the NACK's destination IP back to the
  // reporter that sent the shed report.
  constexpr std::uint32_t kReporter1Ip = 0x0A000002;  // 10.0.0.2
  constexpr TenantId kTinyTenant = 7;
  FabricConfig config = reporters_config(2);
  config.translator.rate_limiting_enabled = true;
  config.translator.tenant_of_reporter = [](std::uint32_t ip) {
    return ip == kReporter1Ip ? kTinyTenant : kDefaultTenant;
  };
  translator::RateLimiterParams tiny;
  tiny.ops_per_second = 1;
  tiny.burst = 2;
  config.translator.tenant_rate_limits = {{kTinyTenant, tiny}};
  Fabric fabric(config);
  ASSERT_EQ(fabric.reporter(1).config().ip, kReporter1Ip);

  for (std::uint32_t i = 0; i < 20; ++i) {
    for (std::uint32_t sw = 0; sw < 2; ++sw) {
      proto::KeyWriteReport r;
      r.key = key_of(sw * 100 + i);
      r.redundancy = 1;
      common::put_u32(r.data, i);
      fabric.report(r, sw);
    }
  }
  EXPECT_GT(fabric.translator().stats().nacks_sent, 0u);
  EXPECT_GT(fabric.reporter(1).stats().nacks_received, 0u);
  EXPECT_EQ(fabric.reporter(0).stats().nacks_received, 0u);
}

}  // namespace
}  // namespace dta
