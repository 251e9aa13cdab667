// Workload definitions, the seeded report stream and the model
// of what was submitted that the benchmark checks every answer against.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "collector/runtime.h"
#include "dta/wire.h"
#include "telemetry/trace.h"

namespace perfbench {

enum class BackendKind { kLocalThreaded, kFabric };

// Packets per mix cycle that become each report kind. A postcard packet
// yields one report per hop (the whole INT path of that packet).
struct Mix {
  std::uint32_t keywrite = 0;
  std::uint32_t keyincrement = 0;
  std::uint32_t append = 0;
  std::uint32_t postcard = 0;
};

enum class RangeMode {
  // .from(k).to(k').limit(64) over a window of known keys: the indexed
  // path, O(log n + window).
  kBoundedWindow,
  // .from(k).limit(64), then .after(cursor) pages: open-ended, so the
  // candidate set is every key past the cursor.
  kOpenPaged,
};

struct WorkloadSpec {
  const char* name;
  BackendKind backend;
  std::uint32_t shards;
  std::uint32_t num_flows;  // key population (TraceGenerator flows)
  std::uint64_t keywrite_slots;
  std::uint64_t keyincrement_slots;
  std::uint64_t postcard_chunks;
  std::uint32_t lists;
  std::uint64_t entries_per_list;
  Mix mix;
  std::uint32_t batch;  // reports per closed-loop round (whole mix cycles)
  RangeMode range_mode;
  std::uint32_t pages_per_scan;  // kOpenPaged: pages before a new start key
  std::uint32_t window_keys;     // kBoundedWindow: keys one window spans
  std::uint32_t warm_reports;    // stream reports before the quality probes
};

const WorkloadSpec* find_workload(const std::string& name);

constexpr std::uint8_t kHops = 5;
constexpr std::uint32_t kPostcardValueSpace = 4096;
constexpr std::uint8_t kRedundancy = 2;
constexpr std::uint32_t kPageLimit = 64;
// The translator's Append batch size B, set in host_config. The stream
// hands each list its Append entries in whole blocks of B, so every
// flush finds only full batches (see ReportStream::next_batch).
constexpr std::uint32_t kAppendBlock = 16;

// The store geometry of a workload as the per-host runtime config.
dta::collector::CollectorRuntimeConfig host_config(const WorkloadSpec& spec);

// Deterministic 32-bit mix of (seed, a, b).
std::uint32_t mix32(std::uint64_t seed, std::uint64_t a, std::uint64_t b);

// The value hop `hop` of flow `flow` reports (fixed per flow and hop, so
// every postcard of a flow describes the same path).
inline std::uint32_t postcard_value(std::uint32_t flow, std::uint8_t hop) {
  return mix32(0x9057CA4Du, flow, hop) % kPostcardValueSpace;
}

enum class ItemKind : std::uint8_t { kKeyWrite, kKeyIncrement, kAppend, kPostcard };

// One generated report plus what the model needs to know about it.
struct Item {
  dta::proto::ParsedDta parsed;
  ItemKind kind = ItemKind::kKeyWrite;
  std::uint32_t flow = 0;
  std::uint32_t value = 0;  // KW value, KI delta, Append entry
  std::uint32_t list = 0;
  std::uint8_t hop = 0;
};

// The seeded report stream: TraceGenerator packets (Zipf 1.05 flow
// popularity) turned into reports by the workload's mix.
class ReportStream {
 public:
  ReportStream(const WorkloadSpec& spec, std::uint64_t seed);

  // Replaces `out` with the next `n` reports, and more if needed to
  // end on a whole Append block.
  void next_batch(std::size_t n, std::vector<Item>& out);

  const dta::proto::TelemetryKey& key(std::uint32_t flow) const {
    return keys_[flow];
  }
  const std::vector<dta::proto::TelemetryKey>& keys() const { return keys_; }

 private:
  void next_packet();

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  dta::telemetry::TraceGenerator gen_;
  std::vector<ItemKind> cycle_;
  std::size_t cycle_pos_ = 0;
  std::uint64_t packet_seq_ = 0;
  std::uint64_t appends_ = 0;  // Append reports generated so far
  std::deque<Item> pending_;
  std::vector<dta::proto::TelemetryKey> keys_;
};

// What the benchmark submitted, per flow and per list.
struct Model {
  explicit Model(const WorkloadSpec& spec);

  void apply(const Item& item);

  std::vector<std::uint32_t> kw_last;
  std::vector<std::uint64_t> ki_true;
  std::vector<std::uint8_t> pc_mask;  // bit h = hop h reported
  std::vector<std::vector<std::uint32_t>> lists;
};

}  // namespace perfbench
