// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call from the benchmark into a layer's public
// function: name, start, end, parent span and the id of the operation
// (round or query) it belongs to. Spans nest on a stack, so each span's
// self time (its duration minus the time its children cover) is folded
// into per-name totals as it closes. The first `keep_limit` spans are
// also kept verbatim and written out at exit; the totals cover all of
// them. A disabled recorder does nothing, so the untraced run pays one
// branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class SpanName : std::uint8_t {
  kRound,          // one closed-loop round (batch + query round)
  kSubmit,         // Backend::submit
  kFlush,          // Client::flush
  kGetOp,          // one point-get operation
  kRangeOp,        // one range-page operation
  kEventsOp,       // one events-poll operation
  kSnapshotShard,  // CollectorRuntime::snapshot_shard
  kKeySnapshots,   // Backend::key_snapshots (the fabric's snapshot rebuild)
  kIndexShard,     // CollectorRuntime::index_shard
  kGetServe,       // KeyWriteTable::get
  kRangeServe,     // RangeQuery::run
  kEventsServe,    // EventQuery::run
  kCount,
};

const char* span_name(SpanName name);
// The module a span's self time is charged to.
const char* span_layer(SpanName name);

struct SpanRecord {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = 0;  // kept index + 1 of the parent; 0 = root
  std::uint32_t op_id = 0;
  SpanName name = SpanName::kRound;
};

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder(bool enabled, std::size_t keep_limit);

  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open one.
  void begin(SpanName name, std::uint32_t op_id);
  // Closes the innermost open span; returns its duration in ns.
  std::uint64_t end();

  const SpanTotals& totals(SpanName name) const {
    return totals_[static_cast<std::size_t>(name)];
  }
  std::size_t kept() const { return kept_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  // Writes the kept spans as tab-separated lines:
  // index, name, parent index (0 = root), op id, start ns, end ns.
  bool write_tsv(const std::string& path) const;

 private:
  struct Open {
    SpanName name;
    std::uint32_t op_id;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::uint32_t slot;  // kept index + 1; 0 = not kept
  };

  bool enabled_;
  std::size_t keep_limit_;
  std::vector<Open> stack_;
  std::vector<SpanRecord> kept_;
  std::uint64_t dropped_ = 0;
  SpanTotals totals_[static_cast<std::size_t>(SpanName::kCount)];
};

// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, SpanName name, std::uint32_t op_id)
      : recorder_(recorder) {
    if (recorder_.enabled()) recorder_.begin(name, op_id);
  }
  ~ScopedSpan() {
    if (recorder_.enabled()) recorder_.end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
};

}  // namespace perfbench
