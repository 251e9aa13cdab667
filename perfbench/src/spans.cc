#include "spans.h"

#include <cstdio>

namespace perfbench {

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kRound: return "round";
    case SpanName::kSubmit: return "Backend::submit";
    case SpanName::kFlush: return "Client::flush";
    case SpanName::kGetOp: return "op.point_get";
    case SpanName::kRangeOp: return "op.range_page";
    case SpanName::kEventsOp: return "op.events_poll";
    case SpanName::kSnapshotShard: return "CollectorRuntime::snapshot_shard";
    case SpanName::kKeySnapshots: return "Backend::key_snapshots";
    case SpanName::kIndexShard: return "CollectorRuntime::index_shard";
    case SpanName::kGetServe: return "KeyWriteTable::get";
    case SpanName::kRangeServe: return "RangeQuery::run";
    case SpanName::kEventsServe: return "EventQuery::run";
    case SpanName::kCount: break;
  }
  return "?";
}

const char* span_layer(SpanName name) {
  switch (name) {
    case SpanName::kRound:
    case SpanName::kGetOp:
    case SpanName::kRangeOp:
    case SpanName::kEventsOp: return "bench";
    case SpanName::kSubmit:
    case SpanName::kFlush: return "dtalib.client";
    case SpanName::kSnapshotShard:
    case SpanName::kKeySnapshots: return "collector.snapshot";
    case SpanName::kIndexShard: return "collector.index";
    case SpanName::kGetServe:
    case SpanName::kRangeServe:
    case SpanName::kEventsServe: return "dtalib.query_core";
    case SpanName::kCount: break;
  }
  return "?";
}

SpanRecorder::SpanRecorder(bool enabled, std::size_t keep_limit)
    : enabled_(enabled), keep_limit_(keep_limit) {
  if (enabled_) {
    stack_.reserve(16);
    kept_.reserve(keep_limit_);
  }
}

void SpanRecorder::begin(SpanName name, std::uint32_t op_id) {
  std::uint32_t slot = 0;
  if (kept_.size() < keep_limit_) {
    SpanRecord rec;
    rec.name = name;
    rec.op_id = op_id;
    rec.parent = stack_.empty() ? 0 : stack_.back().slot;
    kept_.push_back(rec);
    slot = static_cast<std::uint32_t>(kept_.size());
  } else {
    ++dropped_;
  }
  stack_.push_back({name, op_id, now_ns(), 0, slot});
}

std::uint64_t SpanRecorder::end() {
  const std::uint64_t end_ns = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t duration = end_ns - open.start_ns;
  SpanTotals& t = totals_[static_cast<std::size_t>(open.name)];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration > open.child_ns ? duration - open.child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.slot != 0) {
    SpanRecord& rec = kept_[open.slot - 1];
    rec.start_ns = open.start_ns;
    rec.end_ns = end_ns;
  }
  return duration;
}

bool SpanRecorder::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index\tname\tparent\top_id\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const SpanRecord& r = kept_[i];
    std::fprintf(f, "%zu\t%s\t%u\t%u\t%llu\t%llu\n", i + 1, span_name(r.name),
                 r.parent, r.op_id,
                 static_cast<unsigned long long>(r.start_ns),
                 static_cast<unsigned long long>(r.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
