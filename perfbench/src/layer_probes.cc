#include "layer_probes.h"

#include <algorithm>
#include <vector>

#include "collector/shard.h"
#include "collector/shard_index.h"
#include "common/crc.h"
#include "dtalib/client.h"
#include "rdma/roce.h"
#include "spans.h"
#include "translator/append_engine.h"
#include "translator/keyincrement_engine.h"
#include "translator/keywrite_engine.h"
#include "translator/postcard_cache.h"

namespace perfbench {

namespace {

constexpr std::size_t kSampleReports = 32768;
constexpr int kPasses = 5;
// One delivered op batch (CollectorRuntimeConfig::op_batch_size) and the
// defer-publish window (index_publish_batch) of the live runtime.
constexpr std::size_t kDeltaKeys = 16;
constexpr std::size_t kPublishEvery = 64;

// Keeps the compiler from discarding probe results.
volatile std::uint64_t g_sink = 0;

// Median over passes of the ns one pass of `fn` takes.
template <typename Fn>
double median_pass_ns(Fn&& fn) {
  std::vector<double> passes;
  for (int p = 0; p < kPasses; ++p) {
    const std::uint64_t t0 = now_ns();
    fn();
    passes.push_back(static_cast<double>(now_ns() - t0));
  }
  std::sort(passes.begin(), passes.end());
  return passes[passes.size() / 2];
}

const dta::proto::TelemetryKey* report_key(const dta::proto::ParsedDta& p) {
  if (const auto* kw = std::get_if<dta::proto::KeyWriteReport>(&p.report)) {
    return &kw->key;
  }
  if (const auto* ki =
          std::get_if<dta::proto::KeyIncrementReport>(&p.report)) {
    return &ki->key;
  }
  if (const auto* pc = std::get_if<dta::proto::PostcardReport>(&p.report)) {
    return &pc->key;
  }
  return nullptr;
}

std::uint8_t index_bits(const dta::proto::ParsedDta& p) {
  if (std::holds_alternative<dta::proto::KeyWriteReport>(p.report)) {
    return dta::collector::kIndexKeyWrite;
  }
  if (std::holds_alternative<dta::proto::KeyIncrementReport>(p.report)) {
    return dta::collector::kIndexKeyIncrement;
  }
  return dta::collector::kIndexPostcarding;
}

}  // namespace

LayerProbeResults run_layer_probes(const WorkloadSpec& spec,
                                   std::uint64_t seed) {
  LayerProbeResults out;
  ReportStream stream(spec, seed);
  std::vector<Item> items;
  stream.next_batch(kSampleReports, items);
  const double n = static_cast<double>(items.size());
  const dta::collector::CollectorRuntimeConfig config = host_config(spec);

  // dtalib: the validation gate every backend runs first.
  out.validate_ns_per_report =
      median_pass_ns([&] {
        std::uint64_t ok = 0;
        for (const Item& it : items) {
          ok += dta::validate_report(it.parsed, config, spec.lists).ok();
        }
        g_sink = g_sink + ok;
      }) /
      n;

  // common: batched CRC shard routing of every keyed report.
  std::vector<dta::common::ByteSpan> spans;
  std::vector<dta::collector::IndexEntry> entries;
  for (const Item& it : items) {
    if (const auto* key = report_key(it.parsed)) {
      spans.push_back(key->span());
      entries.push_back({*key, index_bits(it.parsed)});
    }
  }
  std::vector<std::uint32_t> shard_out(spans.size());
  out.route_ns_per_report =
      median_pass_ns([&] {
        dta::common::shard_of_batch(spans.data(), spans.size(), spec.shards,
                                    shard_out.data());
        g_sink = g_sink + shard_out.back();
      }) /
      static_cast<double>(spans.size());

  // translator: the per-primitive engines over one shard's geometry.
  const std::uint64_t per_shard = spec.shards;
  dta::translator::KeyWriteEngine kw_engine(
      {0x1000, 1, spec.keywrite_slots / per_shard, 4, 32});
  dta::translator::KeyIncrementEngine ki_engine(
      {0x2000, 2, spec.keyincrement_slots / per_shard});
  dta::translator::AppendEngine ap_engine(
      {0x3000, 3, spec.lists, spec.entries_per_list, 4}, 16);
  dta::translator::PostcardingGeometry pc_geometry;
  pc_geometry.base_va = 0x4000;
  pc_geometry.rkey = 4;
  pc_geometry.num_chunks = spec.postcard_chunks / per_shard;
  pc_geometry.hops = kHops;
  dta::translator::PostcardCache pc_cache(pc_geometry, 32768);
  std::vector<dta::translator::RdmaOp> ops;
  std::vector<dta::translator::RdmaOp> all_ops;
  bool keep_ops = true;
  out.translate_ns_per_report =
      median_pass_ns([&] {
        for (const Item& it : items) {
          ops.clear();
          const auto& r = it.parsed.report;
          if (const auto* kw = std::get_if<dta::proto::KeyWriteReport>(&r)) {
            kw_engine.translate(*kw, false, ops);
          } else if (const auto* ki =
                         std::get_if<dta::proto::KeyIncrementReport>(&r)) {
            ki_engine.translate(*ki, ops);
          } else if (const auto* ap =
                         std::get_if<dta::proto::AppendReport>(&r)) {
            ap_engine.ingest(*ap, false, ops);
          } else if (const auto* pc =
                         std::get_if<dta::proto::PostcardReport>(&r)) {
            pc_cache.ingest(*pc, ops);
          }
          g_sink = g_sink + ops.size();
          if (keep_ops) {
            all_ops.insert(all_ops.end(), ops.begin(), ops.end());
          }
        }
        keep_ops = false;
      }) /
      n;

  // collector.index: delivery-sized deltas into a builder that already
  // holds the shard's key population, publishing every defer window.
  std::vector<dta::collector::IndexEntry> population;
  for (std::uint32_t f = 0; f < spec.num_flows; ++f) {
    if (dta::collector::shard_for_key(stream.key(f), spec.shards) == 0) {
      population.push_back({stream.key(f), dta::collector::kIndexKeyWrite});
    }
  }
  std::vector<double> apply_ns, copies;
  for (int p = 0; p < kPasses; ++p) {
    dta::collector::ShardIndexBuilder builder(128);
    dta::collector::IndexDelta seed_delta;
    seed_delta.generation = 1;
    seed_delta.keys = population;
    builder.apply(seed_delta);
    const std::uint64_t copies_before = builder.leaf_copies();
    std::uint64_t deltas = 0;
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < entries.size(); i += kDeltaKeys) {
      dta::collector::IndexDelta delta;
      delta.generation = 2 + deltas;
      const std::size_t end = std::min(entries.size(), i + kDeltaKeys);
      delta.keys = std::vector<dta::collector::IndexEntry>(
          entries.begin() + static_cast<std::ptrdiff_t>(i),
          entries.begin() + static_cast<std::ptrdiff_t>(end));
      builder.apply(delta);
      if (++deltas % kPublishEvery == 0) {
        g_sink = g_sink + builder.publish()->key_count();
      }
    }
    g_sink = g_sink + builder.publish()->key_count();
    apply_ns.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(entries.size()));
    copies.push_back(static_cast<double>(builder.leaf_copies() - copies_before) /
                     static_cast<double>(deltas));
  }
  std::sort(apply_ns.begin(), apply_ns.end());
  out.index_apply_ns_per_key = apply_ns[apply_ns.size() / 2];
  out.index_leaf_copies_per_delta = copies.front();

  std::vector<double> fold_us;
  {
    dta::collector::ShardIndexBuilder builder(128);
    dta::collector::IndexDelta seed_delta;
    seed_delta.generation = 1;
    seed_delta.keys = population;
    builder.apply(seed_delta);
    const std::size_t per_round =
        std::max<std::size_t>(1, entries.size() * spec.batch / items.size());
    for (std::size_t i = 0; i + per_round <= entries.size(); i += per_round) {
      dta::collector::IndexDelta delta;
      delta.generation = 2 + fold_us.size();
      delta.keys = std::vector<dta::collector::IndexEntry>(
          entries.begin() + static_cast<std::ptrdiff_t>(i),
          entries.begin() + static_cast<std::ptrdiff_t>(i + per_round));
      const std::uint64_t t0 = now_ns();
      builder.apply(delta);
      g_sink = g_sink + builder.publish()->key_count();
      fold_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
  std::sort(fold_us.begin(), fold_us.end());
  out.index_fold_us_per_round = fold_us.empty() ? 0 : fold_us[fold_us.size() / 2];

  // dta.wire: the reporter-side DTA payload encode and its decode.
  std::vector<dta::common::Bytes> payloads(items.size());
  out.wire_encode_ns_per_report =
      median_pass_ns([&] {
        for (std::size_t i = 0; i < items.size(); ++i) {
          payloads[i] = dta::proto::encode_dta_payload(items[i].parsed.header,
                                                       items[i].parsed.report);
        }
        g_sink = g_sink + payloads.back().size();
      }) /
      n;
  out.wire_decode_ns_per_report =
      median_pass_ns([&] {
        std::uint64_t ok = 0;
        for (const auto& payload : payloads) {
          ok += dta::proto::decode_dta_payload(dta::common::ByteSpan(payload))
                    .has_value();
        }
        g_sink = g_sink + ok;
      }) /
      n;

  // rdma.roce: one crafted datagram per verb, then its parse.
  out.rdma_frame_ns_per_verb =
      median_pass_ns([&] {
        std::uint32_t psn = 0;
        std::uint64_t ok = 0;
        for (const auto& op : all_ops) {
          dta::rdma::Bth bth;
          bth.dest_qpn = 0x11;
          bth.psn = psn++ & 0xFFFFFF;
          dta::common::Bytes datagram;
          if (op.kind == dta::translator::RdmaOp::Kind::kFetchAdd) {
            bth.opcode = dta::rdma::Opcode::kFetchAdd;
            dta::rdma::AtomicEth eth;
            eth.virtual_addr = op.remote_va;
            eth.rkey = op.rkey;
            eth.swap_add = op.add_value;
            datagram = dta::rdma::build_roce_datagram(bth, nullptr, &eth,
                                                      nullptr, nullptr, {});
          } else {
            bth.opcode = dta::rdma::Opcode::kWriteOnly;
            dta::rdma::Reth reth;
            reth.virtual_addr = op.remote_va;
            reth.rkey = op.rkey;
            reth.dma_length = static_cast<std::uint32_t>(op.payload.size());
            datagram = dta::rdma::build_roce_datagram(
                bth, &reth, nullptr, nullptr, nullptr,
                dta::common::ByteSpan(op.payload));
          }
          const auto parsed =
              dta::rdma::parse_roce_datagram(dta::common::ByteSpan(datagram));
          ok += parsed.has_value() && parsed->icrc_ok;
        }
        g_sink = g_sink + ok;
      }) /
      static_cast<double>(std::max<std::size_t>(1, all_ops.size()));
  return out;
}

}  // namespace perfbench
