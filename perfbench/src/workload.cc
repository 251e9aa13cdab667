#include "workload.h"

#include <cstring>

#include "dta/report_builders.h"

namespace perfbench {

namespace {

// The benchmark workloads. Geometry is sized per workload:
//  - query_mix: a large key population (50K flows against 64-entry
//    pages) so open-ended range pages pay for every key past the cursor;
//  - wire_mix: one collector (the fabric is single-shard) whose
//    per-query snapshot rebuild copies every store, amortized over a
//    large batch; its Key-Write table holds 2^17 slots for 50K flows at
//    N=2, so it runs well below full query success and kw_query_success
//    moves with placement changes.
// Append rings hold 256 entries per list, so every ring wraps during the
// warm stream and keeps wrapping through the measured loop: the steady
// state of a long-running collector, where each list overwrites its
// oldest entries. Between two polls of a list fewer than 256 entries
// arrive, so an events poll drops none. Each round is a whole number of
// mix cycles holding a whole number of Append blocks (query_mix: 40
// cycles of 12 reports with two Appends each; wire_mix: 144 cycles of 14
// with one).
const WorkloadSpec kWorkloads[] = {
    {"query_mix", BackendKind::kLocalThreaded, 2, 50000, 1u << 20, 1u << 16,
     1u << 15, 8, 256, Mix{3, 2, 2, 1}, 480, RangeMode::kOpenPaged, 4, 0,
     200000},
    {"wire_mix", BackendKind::kFabric, 1, 50000, 1u << 17, 1u << 14, 1u << 14,
     4, 256, Mix{4, 4, 1, 1}, 2016, RangeMode::kBoundedWindow, 0, 128,
     200000},
};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Smooth weighted round-robin over the mix: every kind appears its
// weight's share of each cycle, spread evenly rather than in runs.
std::vector<ItemKind> build_cycle(const Mix& mix) {
  const std::uint32_t weights[4] = {mix.keywrite, mix.keyincrement, mix.append,
                                    mix.postcard};
  const ItemKind kinds[4] = {ItemKind::kKeyWrite, ItemKind::kKeyIncrement,
                             ItemKind::kAppend, ItemKind::kPostcard};
  std::uint32_t total = 0;
  for (std::uint32_t w : weights) total += w;
  std::int64_t current[4] = {0, 0, 0, 0};
  std::vector<ItemKind> cycle;
  for (std::uint32_t i = 0; i < total; ++i) {
    int best = -1;
    for (int k = 0; k < 4; ++k) {
      current[k] += weights[k];
      if (weights[k] != 0 && (best < 0 || current[k] > current[best])) best = k;
    }
    current[best] -= total;
    cycle.push_back(kinds[best]);
  }
  return cycle;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

dta::collector::CollectorRuntimeConfig host_config(const WorkloadSpec& spec) {
  dta::collector::CollectorRuntimeConfig config;
  config.num_shards = spec.shards;
  config.append_batch_size = kAppendBlock;
  config.thread_mode = spec.backend == BackendKind::kLocalThreaded
                           ? dta::collector::ThreadMode::kThreaded
                           : dta::collector::ThreadMode::kInline;
  dta::collector::KeyWriteSetup kw;
  kw.num_slots = spec.keywrite_slots;
  kw.value_bytes = 4;
  config.keywrite = kw;
  dta::collector::KeyIncrementSetup ki;
  ki.num_slots = spec.keyincrement_slots;
  config.keyincrement = ki;
  dta::collector::AppendSetup ap;
  ap.num_lists = spec.lists;
  ap.entries_per_list = spec.entries_per_list;
  ap.entry_bytes = 4;
  config.append = ap;
  dta::collector::PostcardingSetup pc;
  pc.num_chunks = spec.postcard_chunks;
  pc.hops = kHops;
  for (std::uint32_t v = 0; v < kPostcardValueSpace; ++v) {
    pc.value_space.push_back(v);
  }
  config.postcarding = pc;
  return config;
}

std::uint32_t mix32(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return static_cast<std::uint32_t>(
      splitmix(splitmix(seed ^ (a * 0x100000001B3ull)) + b) >> 16);
}

ReportStream::ReportStream(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec),
      seed_(seed),
      gen_([&] {
        dta::telemetry::TraceConfig tc;
        tc.seed = seed;
        tc.num_flows = spec.num_flows;
        tc.zipf_skew = 1.05;
        return tc;
      }()),
      cycle_(build_cycle(spec.mix)) {
  keys_.reserve(spec.num_flows);
  for (std::uint32_t f = 0; f < spec.num_flows; ++f) {
    const auto bytes = gen_.flow_at(f).to_bytes();
    keys_.push_back(dta::proto::TelemetryKey::from(
        dta::common::ByteSpan(bytes.data(), bytes.size())));
  }
}

void ReportStream::next_packet() {
  const dta::telemetry::TracePacket pkt = gen_.next();
  const std::uint64_t seq = packet_seq_++;
  const ItemKind kind = cycle_[cycle_pos_];
  cycle_pos_ = (cycle_pos_ + 1) % cycle_.size();
  const std::uint32_t flow = pkt.flow_index;
  const dta::proto::TelemetryKey& key = keys_[flow];

  Item item;
  item.kind = kind;
  item.flow = flow;
  switch (kind) {
    case ItemKind::kKeyWrite:
      item.value = mix32(seed_, seq, 1);
      item.parsed = dta::reports::keywrite_u32(key, item.value, kRedundancy);
      pending_.push_back(std::move(item));
      break;
    case ItemKind::kKeyIncrement:
      item.value = pkt.size_bytes;
      item.parsed = dta::reports::keyincrement(key, item.value, kRedundancy);
      pending_.push_back(std::move(item));
      break;
    case ItemKind::kAppend:
      item.list = static_cast<std::uint32_t>(appends_++ / kAppendBlock) %
                  spec_.lists;
      item.value = mix32(seed_, seq, 3);
      item.parsed = dta::reports::append_u32(item.list, item.value);
      pending_.push_back(std::move(item));
      break;
    case ItemKind::kPostcard:
      for (std::uint8_t hop = 0; hop < kHops; ++hop) {
        Item pc;
        pc.kind = ItemKind::kPostcard;
        pc.flow = flow;
        pc.hop = hop;
        pc.value = postcard_value(flow, hop);
        pc.parsed = dta::reports::postcard(key, hop, kHops, pc.value, 1);
        pending_.push_back(std::move(pc));
      }
      break;
  }
}

// A batch ends on a whole Append block: between two flushes each list
// receives a multiple of B entries, so the translator emits only full
// batches and a list's ring head stays on the batch grid. A flush of a
// part-full batch moves the head off that grid, and a later full batch
// then crosses the ring end: AppendEngine::flush_all emits part-full
// batches, and the benchmark flushes every round, so an unaligned stream
// would measure that defect instead of the collector's ingest.
void ReportStream::next_batch(std::size_t n, std::vector<Item>& out) {
  out.clear();
  while (out.size() < n || appends_ % kAppendBlock != 0) {
    if (pending_.empty()) next_packet();
    out.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
}

Model::Model(const WorkloadSpec& spec)
    : kw_last(spec.num_flows, 0),
      ki_true(spec.num_flows, 0),
      pc_mask(spec.num_flows, 0),
      lists(spec.lists) {}

void Model::apply(const Item& item) {
  switch (item.kind) {
    case ItemKind::kKeyWrite:
      kw_last[item.flow] = item.value;
      break;
    case ItemKind::kKeyIncrement:
      ki_true[item.flow] += item.value;
      break;
    case ItemKind::kAppend:
      lists[item.list].push_back(item.value);
      break;
    case ItemKind::kPostcard:
      pc_mask[item.flow] |= static_cast<std::uint8_t>(1u << item.hop);
      break;
  }
}

}  // namespace perfbench
