#include "runner.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "collector/shard.h"
#include "collector/shard_index.h"
#include "common/bytes.h"
#include "dta/report_builders.h"
#include "dtalib/client.h"
#include "dtalib/fabric_backend.h"
#include "dtalib/query_core.h"
#include "layer_probes.h"
#include "spans.h"

namespace perfbench {

namespace {

using dta::StatusCode;
using dta::proto::TelemetryKey;

constexpr int kSetupRepeats = 15;
constexpr std::size_t kKwProbes = 20000;
constexpr std::size_t kPathProbes = 2000;
constexpr std::size_t kCounterProbes = 2000;
constexpr std::size_t kMinSamples = 1000;
// The timing metrics are taken over the least disturbed part of the run.
// On a shared host the same rounds run up to a third slower for
// stretches of seconds, and a run may spend most of its time in one, so
// a median over the whole run moves with the host. The measured loop is
// cut into segments of kSegmentRounds rounds, and ingest_rps and each
// p50 are taken over the kSegmentShare of segments in which that
// metric's own median was lowest (run.py applies the selection; the
// p99s it prints are over the whole run). A segment holds 16 scans of
// the open-ended range pages, spread over the key space, so segments do
// the same work.
constexpr std::size_t kSegmentRounds = 64;
constexpr double kSegmentShare = 0.125;
constexpr std::size_t kKeptSpans = 200000;
constexpr std::size_t kMaxViolationsKept = 8;
constexpr double kGolden = 0.6180339887498949;

// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::uint32_t load_u32(const dta::common::Bytes& b) {
  return b.size() >= 4 ? dta::common::load_u32(b.data()) : 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// Monotonic counters read off the client, diffed across the measured
// loop (Local backends fill everything; the fabric fills what its
// stats() surface carries).
struct Counters {
  double reports_in = 0;
  double batch_flushes = 0;
  double verbs_executed = 0;
  double verbs_failed = 0;
  double translated_reports = 0;
  double writes = 0;
  double append_entries_in = 0;
  double append_writes = 0;
  double backpressure_waits = 0;
  double quiesces = 0;
  double dirty_bytes_marked = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double full_refreshes = 0;
  double incremental_refreshes = 0;
  double cow_clones = 0;
  double quiesce_bytes_copied = 0;
  double index_publishes = 0;
  double index_catchups = 0;
  double tenant_shed = 0;

  Counters operator-(const Counters& o) const {
    Counters d = *this;
    d.reports_in -= o.reports_in;
    d.batch_flushes -= o.batch_flushes;
    d.verbs_executed -= o.verbs_executed;
    d.verbs_failed -= o.verbs_failed;
    d.translated_reports -= o.translated_reports;
    d.writes -= o.writes;
    d.append_entries_in -= o.append_entries_in;
    d.append_writes -= o.append_writes;
    d.backpressure_waits -= o.backpressure_waits;
    d.quiesces -= o.quiesces;
    d.dirty_bytes_marked -= o.dirty_bytes_marked;
    d.cache_hits -= o.cache_hits;
    d.cache_misses -= o.cache_misses;
    d.full_refreshes -= o.full_refreshes;
    d.incremental_refreshes -= o.incremental_refreshes;
    d.cow_clones -= o.cow_clones;
    d.quiesce_bytes_copied -= o.quiesce_bytes_copied;
    d.index_publishes -= o.index_publishes;
    d.index_catchups -= o.index_catchups;
    d.tenant_shed -= o.tenant_shed;
    return d;
  }
};

class JsonOut {
 public:
  explicit JsonOut(std::FILE* f) : f_(f) { std::fputc('{', f_); }
  void num(const char* key, double v) {
    sep(key);
    if (std::isfinite(v)) {
      std::fprintf(f_, "%.17g", v);
    } else {
      std::fputs("null", f_);
    }
  }
  void str(const char* key, const std::string& v) {
    sep(key);
    quoted(v);
  }
  void boolean(const char* key, bool v) {
    sep(key);
    std::fputs(v ? "true" : "false", f_);
  }
  void array(const char* key, const std::vector<double>& v) {
    sep(key);
    std::fputc('[', f_);
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::fprintf(f_, i ? ",%.9g" : "%.9g", v[i]);
    }
    std::fputc(']', f_);
  }
  void strings(const char* key, const std::vector<std::string>& v) {
    sep(key);
    std::fputc('[', f_);
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) std::fputc(',', f_);
      quoted(v[i]);
    }
    std::fputc(']', f_);
  }
  void open(const char* key) {
    sep(key);
    std::fputc('{', f_);
    first_ = true;
  }
  void close() {
    std::fputc('}', f_);
    first_ = false;
  }

 private:
  void sep(const char* key) {
    if (!first_) std::fputc(',', f_);
    first_ = false;
    quoted(key);
    std::fputc(':', f_);
  }
  void quoted(const std::string& s) {
    std::fputc('"', f_);
    for (char c : s) {
      if (c == '"' || c == '\\') {
        std::fputc('\\', f_);
        std::fputc(c, f_);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        std::fputc(' ', f_);
      } else {
        std::fputc(c, f_);
      }
    }
    std::fputc('"', f_);
  }

  std::FILE* f_;
  bool first_ = true;
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const RunOptions& opts)
      : spec_(spec),
        opts_(opts),
        config_(host_config(spec)),
        stream_(spec, opts.seed),
        model_(spec),
        spans_(opts.trace, kKeptSpans) {
    order_.resize(spec.num_flows);
    for (std::uint32_t f = 0; f < spec.num_flows; ++f) order_[f] = f;
    std::sort(order_.begin(), order_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return dta::collector::index_key_less(stream_.key(a),
                                                      stream_.key(b));
              });
    rank_of_.resize(spec.num_flows);
    for (std::uint32_t r = 0; r < spec.num_flows; ++r) rank_of_[order_[r]] = r;
  }

  ~Runner() {
    if (client_) client_->stop();
  }

  void run();
  void write(std::FILE* out);

 private:
  std::unique_ptr<dta::Client> make_client() const;
  dta::collector::CollectorRuntime* runtime() {
    return client_->local_runtime();
  }

  // --- bookkeeping -----------------------------------------------------------
  void violation(const std::string& what) {
    ++failed_;
    if (violations_.size() < kMaxViolationsKept) violations_.push_back(what);
  }
  // A query outcome other than OK / kNotFound is a failed op.
  bool query_failed(const dta::Status& status, const char* what) {
    if (status.ok() || status.code() == StatusCode::kNotFound) return false;
    violation(std::string(what) + ": " + status.to_string());
    return true;
  }
  void must_ok(const dta::Status& status, const char* what) {
    ++attempted_;
    if (!status.ok()) violation(std::string(what) + ": " + status.to_string());
  }
  std::uint32_t flow_of(const TelemetryKey& key) const;
  Counters read_counters();

  // --- phases ----------------------------------------------------------------
  void setup();
  double setup_once();  // one timed set-up; returns its seconds
  double setup_in_child();
  void submit_items(std::vector<Item>& items);
  void warm();
  void quality_probes();
  void loop();
  void final_probes();

  // --- closed-loop queries ---------------------------------------------------
  // Each runs one query, records the time the call took, and checks it.
  void timed_point_get(const Item& item);
  void timed_range_page();
  void timed_events_poll();
  // Explicit refresh under its own span; `ns` receives the span's time.
  std::shared_ptr<const dta::collector::StoreSnapshot> traced_snapshot(
      std::uint32_t shard, std::uint32_t op, std::uint64_t* ns = nullptr);
  std::shared_ptr<const dta::collector::ShardIndexVersion> traced_index(
      std::uint32_t shard, std::uint64_t generation, std::uint32_t op);
  // The fabric keeps its index private; this one holds the same keys
  // (every flow is Key-Written by the prefill).
  std::shared_ptr<const dta::collector::ShardIndexVersion> mirror_index();
  // Every model key of rank in [lo, hi) must not resolve (the range
  // skipped it, so a point get must miss it too).
  void check_skipped(std::uint32_t lo, std::uint32_t hi, const char* what);

  const WorkloadSpec& spec_;
  const RunOptions opts_;
  const dta::collector::CollectorRuntimeConfig config_;
  ReportStream stream_;
  Model model_;
  SpanRecorder spans_;
  std::unique_ptr<dta::Client> client_;
  std::vector<std::uint32_t> order_;    // flows in index key order
  std::vector<std::uint32_t> rank_of_;  // flow -> position in order_

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> violations_;
  std::vector<Item> batch_;
  std::vector<std::uint8_t> batch_ok_;
  std::uint32_t next_op_ = 1;

  // results
  std::vector<double> setup_s_;
  // per round of the measured loop: ingest time (submit + flush) and
  // reports submitted
  std::vector<double> round_ingest_us_, round_reports_;
  std::uint64_t loop_reports_ = 0;
  std::uint64_t loop_rounds_ = 0;
  double loop_timed_s_ = 0;
  double loop_wall_s_ = 0;
  // one sample per round each (a round without a point get has -1)
  std::vector<double> get_us_, range_us_, events_us_;
  std::uint64_t gets_ = 0;
  std::uint64_t kw_probes_ = 0, kw_hits_ = 0;
  std::uint64_t path_probes_ = 0, path_hits_ = 0;
  double range_candidates_ = 0, range_results_ = 0;
  Counters loop_counters_;

  // range-page state
  std::uint64_t scans_ = 0;
  std::uint32_t scan_pages_ = 0;
  std::optional<dta::RangeCursor> cursor_;
  std::uint32_t scan_from_rank_ = 0;
  std::uint64_t windows_ = 0;
  // events-poll state
  std::vector<std::uint64_t> event_cursor_;
  std::uint64_t polls_ = 0;

  // traced-run timings (us)
  std::vector<double> refresh_us_, catchup_us_, get_serve_us_,
      range_serve_us_, events_serve_us_, get_accounted_us_;
  std::vector<double> flush_us_;
  std::shared_ptr<const dta::collector::ShardIndexVersion> mirror_index_;
  LayerProbeResults probes_;
};

std::unique_ptr<dta::Client> Runner::make_client() const {
  if (spec_.backend == BackendKind::kFabric) {
    return std::make_unique<dta::Client>(std::make_unique<dta::FabricBackend>(
        dta::FabricBackend::fabric_config_from(config_)));
  }
  return std::make_unique<dta::Client>(dta::Client::local(config_));
}

std::uint32_t Runner::flow_of(const TelemetryKey& key) const {
  const auto it = std::lower_bound(
      order_.begin(), order_.end(), key,
      [&](std::uint32_t f, const TelemetryKey& k) {
        return dta::collector::index_key_less(stream_.key(f), k);
      });
  if (it == order_.end() || !(stream_.key(*it) == key)) return UINT32_MAX;
  return *it;
}

Counters Runner::read_counters() {
  Counters c;
  const dta::ClientStats stats = client_->stats();
  c.reports_in = static_cast<double>(stats.ingest.reports_in);
  c.batch_flushes = static_cast<double>(stats.ingest.batch_flushes);
  c.verbs_executed = static_cast<double>(stats.ingest.verbs_executed);
  c.verbs_failed = static_cast<double>(stats.ingest.verbs_failed);
  const auto& t = stats.translation;
  c.translated_reports = static_cast<double>(
      t.keywrite_reports + t.keyincrement_reports + t.postcards_in +
      t.append_entries_in);
  c.writes = static_cast<double>(t.keywrite_writes + t.fetch_adds +
                                 t.postcard_writes + t.append_writes);
  c.append_entries_in = static_cast<double>(t.append_entries_in);
  c.append_writes = static_cast<double>(t.append_writes);
  for (const auto& row : stats.per_tenant) {
    c.tenant_shed += static_cast<double>(row.counters.submits_shed +
                                         row.counters.queries_shed);
  }
  if (auto* rt = runtime()) {
    c.backpressure_waits =
        static_cast<double>(rt->pipeline().stats().backpressure_waits);
    for (std::uint32_t i = 0; i < rt->num_shards(); ++i) {
      c.quiesces += static_cast<double>(rt->pipeline().quiesces(i));
      c.dirty_bytes_marked +=
          static_cast<double>(rt->shard(i).dirty_tracker().stats().bytes_marked);
    }
    const auto cache = rt->snapshot_cache().stats();
    c.cache_hits = static_cast<double>(cache.hits);
    c.cache_misses = static_cast<double>(cache.misses);
    c.full_refreshes = static_cast<double>(cache.full_refreshes);
    c.incremental_refreshes = static_cast<double>(cache.incremental_refreshes);
    c.cow_clones = static_cast<double>(cache.cow_clones);
    c.quiesce_bytes_copied = static_cast<double>(cache.quiesce_bytes_copied);
    const auto index = rt->index_publisher().stats();
    c.index_publishes = static_cast<double>(index.publishes);
    c.index_catchups = static_cast<double>(index.reader_catchups);
  }
  return c;
}

// --- set-up: construction, allocation, prefill, first snapshots -------------

double Runner::setup_once() {
  model_ = Model(spec_);
  const std::uint64_t t0 = now_ns();
  client_ = make_client();
  // Prefill: every flow's Key-Write once, so the key population (and
  // every index leaf) exists before anything is measured.
  dta::Backend& backend = client_->backend();
  for (std::uint32_t f = 0; f < spec_.num_flows; ++f) {
    Item item;
    item.kind = ItemKind::kKeyWrite;
    item.flow = f;
    item.value = mix32(opts_.seed, f, 7);
    const dta::Status st = backend.submit(
        dta::reports::keywrite_u32(stream_.key(f), item.value, kRedundancy),
        {});
    must_ok(st, "prefill submit");
    if (st.ok()) model_.apply(item);
  }
  must_ok(client_->flush(), "prefill flush");
  // First snapshot of every shard and index catch-up: first-touches
  // the snapshot memory the measured queries will reuse.
  auto first = client_->range(client_->keywrite()).limit(1).run();
  ++attempted_;
  query_failed(first.status(), "setup range");
  return static_cast<double>(now_ns() - t0) / 1e9;
}

double Runner::setup_in_child() {
  int fds[2];
  if (pipe(fds) != 0) {
    violation("set-up: pipe failed");
    return 0;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const std::uint64_t failed_before = failed_;
    const double msg[2] = {setup_once(),
                           static_cast<double>(failed_ - failed_before)};
    const bool sent = ::write(fds[1], msg, sizeof msg) ==
                      static_cast<ssize_t>(sizeof msg);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double msg[2] = {0, 0};
  std::size_t got = 0;
  while (pid > 0 && got < sizeof msg) {
    const ssize_t n =
        ::read(fds[0], reinterpret_cast<char*>(msg) + got, sizeof msg - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  const bool exited = pid > 0 && waitpid(pid, &status, 0) == pid &&
                      WIFEXITED(status) && WEXITSTATUS(status) == 0;
  ++attempted_;
  if (!exited || got != sizeof msg) {
    violation("set-up: the child process failed");
    return 0;
  }
  if (msg[1] > 0) violation("set-up: an op failed in the child process");
  return msg[0];
}

void Runner::setup() {
  // All but the last set-up run in child processes, so each starts from
  // a fresh address space as the first one does: repeated in one
  // process, a set-up reuses the memory the previous one freed and skips
  // the page faults that are part of set-up cost.
  for (int rep = 1; rep < kSetupRepeats; ++rep) {
    setup_s_.push_back(setup_in_child());
  }
  setup_s_.push_back(setup_once());
  event_cursor_.assign(spec_.lists, 0);
}

void Runner::submit_items(std::vector<Item>& items) {
  dta::Backend& backend = client_->backend();
  for (Item& item : items) {
    const dta::Status st = backend.submit(std::move(item.parsed), {});
    must_ok(st, "submit");
    if (st.ok()) model_.apply(item);
  }
}

void Runner::warm() {
  std::uint32_t left = spec_.warm_reports;
  while (left > 0) {
    const std::uint32_t n = std::min(left, spec_.batch);
    stream_.next_batch(n, batch_);
    submit_items(batch_);
    left -= n;
  }
  must_ok(client_->flush(), "warm flush");
  // The event consumers catch up once, untimed, so every timed poll reads
  // only what arrived since that list's previous poll.
  for (std::uint32_t list = 0; list < spec_.lists; ++list) {
    ++attempted_;
    auto batch = client_->events(list).since(0).run();
    if (!query_failed(batch.status(), "warm events poll") && batch.ok()) {
      event_cursor_[list] = batch->next.position;
    }
  }
}

// --- quality probes at a fixed point of the stream --------------------------

void Runner::quality_probes() {
  // kw_query_success: a seeded sample of the whole key population.
  std::vector<std::uint32_t> flows(spec_.num_flows);
  for (std::uint32_t f = 0; f < spec_.num_flows; ++f) flows[f] = f;
  for (std::size_t i = flows.size() - 1; i > 0; --i) {
    std::swap(flows[i], flows[mix32(opts_.seed, i, 11) % (i + 1)]);
  }
  auto table = client_->keywrite();
  for (std::size_t i = 0; i < std::min(kKwProbes, flows.size()); ++i) {
    const std::uint32_t f = flows[i];
    ++attempted_;
    ++kw_probes_;
    auto got = table.get_u32(stream_.key(f));
    if (query_failed(got.status(), "kw probe") || !got.ok()) continue;
    if (*got == model_.kw_last[f]) {
      ++kw_hits_;
    } else {
      violation("kw probe: flow " + std::to_string(f) + " returned a value " +
                "that is not the last one written");
    }
  }

  // path_query_success: a seeded sample of the flows whose whole path
  // was reported.
  const std::uint8_t full = static_cast<std::uint8_t>((1u << kHops) - 1);
  std::vector<std::uint32_t> complete;
  for (std::uint32_t f : flows) {
    if (model_.pc_mask[f] == full) complete.push_back(f);
  }
  auto postcards = client_->postcards();
  for (std::size_t i = 0; i < std::min(kPathProbes, complete.size()); ++i) {
    const std::uint32_t f = complete[i];
    ++attempted_;
    ++path_probes_;
    auto path = postcards.path_of(stream_.key(f));
    if (query_failed(path.status(), "path probe") || !path.ok()) continue;
    bool match = path->size() == kHops;
    for (std::uint8_t h = 0; match && h < kHops; ++h) {
      match = (*path)[h] == postcard_value(f, h);
    }
    if (match) {
      ++path_hits_;
    } else {
      violation("path probe: flow " + std::to_string(f) +
                " decoded hops that were not reported");
    }
  }
}

// --- the measured closed loop ------------------------------------------------

std::shared_ptr<const dta::collector::StoreSnapshot> Runner::traced_snapshot(
    std::uint32_t shard, std::uint32_t op, std::uint64_t* ns) {
  auto* rt = runtime();
  const std::uint64_t misses = rt->snapshot_cache().stats().misses;
  spans_.begin(SpanName::kSnapshotShard, op);
  auto snap = rt->snapshot_shard(shard);
  const std::uint64_t took = spans_.end();
  if (rt->snapshot_cache().stats().misses != misses) {
    refresh_us_.push_back(static_cast<double>(took) / 1e3);
  }
  if (ns != nullptr) *ns = took;
  return snap;
}

std::shared_ptr<const dta::collector::ShardIndexVersion> Runner::traced_index(
    std::uint32_t shard, std::uint64_t generation, std::uint32_t op) {
  auto* rt = runtime();
  const std::uint64_t catchups = rt->index_publisher().stats().reader_catchups;
  spans_.begin(SpanName::kIndexShard, op);
  auto version = rt->index_shard(shard, generation);
  const std::uint64_t ns = spans_.end();
  if (rt->index_publisher().stats().reader_catchups != catchups) {
    catchup_us_.push_back(static_cast<double>(ns) / 1e3);
  }
  if (version->generation() < generation) {
    violation("index_shard returned a version older than its snapshot");
  }
  return version;
}

std::shared_ptr<const dta::collector::ShardIndexVersion> Runner::mirror_index() {
  if (!mirror_index_) {
    dta::collector::ShardIndexBuilder builder;
    dta::collector::IndexDelta delta;
    delta.generation = 1;
    for (std::uint32_t f = 0; f < spec_.num_flows; ++f) {
      delta.keys.push_back({stream_.key(f), dta::collector::kIndexKeyWrite});
    }
    builder.apply(delta);
    mirror_index_ = builder.publish();
  }
  return mirror_index_;
}

void Runner::timed_point_get(const Item& item) {
  const std::uint32_t op = next_op_++;
  const TelemetryKey& key = stream_.key(item.flow);
  ++attempted_;
  const bool traced = spans_.enabled();
  const std::uint64_t t0 = now_ns();
  std::uint64_t refresh_ns = 0, serve_ns = 0;
  if (traced) spans_.begin(SpanName::kGetOp, op);
  if (traced && runtime()) {
    traced_snapshot(dta::collector::shard_for_key(key, spec_.shards), op,
                    &refresh_ns);
  } else if (traced) {
    // The fabric has no runtime: its refresh is the snapshot rebuild
    // (fabric flush, index fold, full copy) behind key_snapshots.
    spans_.begin(SpanName::kKeySnapshots, op);
    auto snaps = client_->backend().key_snapshots(key, {});
    refresh_ns = spans_.end();
    refresh_us_.push_back(static_cast<double>(refresh_ns) / 1e3);
    query_failed(snaps.status(), "key_snapshots");
  }
  if (traced) spans_.begin(SpanName::kGetServe, op);
  auto got = client_->keywrite().get_u32(key);
  if (traced) serve_ns = spans_.end();
  if (traced) spans_.end();
  const std::uint64_t took = now_ns() - t0;
  get_us_.push_back(static_cast<double>(took) / 1e3);
  ++gets_;
  if (traced) {
    get_serve_us_.push_back(static_cast<double>(serve_ns) / 1e3);
    get_accounted_us_.push_back(static_cast<double>(refresh_ns + serve_ns) /
                                1e3);
  }

  if (query_failed(got.status(), "point get") || !got.ok()) return;
  if (*got != item.value) {
    violation("point get: a just-written key returned a stale value");
  }
}

void Runner::check_skipped(std::uint32_t lo, std::uint32_t hi,
                           const char* what) {
  auto table = client_->keywrite();
  for (std::uint32_t r = lo; r < hi; ++r) {
    auto got = table.get_u32(stream_.key(order_[r]));
    if (got.ok()) {
      violation(std::string(what) + ": skipped a key that resolves");
      return;
    }
    if (query_failed(got.status(), what)) return;
  }
}

void Runner::timed_range_page() {
  const std::uint32_t op = next_op_++;
  const std::uint32_t n = spec_.num_flows;
  dta::RangeQuery query = client_->range(client_->keywrite());
  std::uint32_t lo_rank = 0;  // first rank the page may return
  std::uint32_t hi_rank = n;  // one past the last rank it may return
  const bool resumed = spec_.range_mode == RangeMode::kOpenPaged && cursor_ &&
                       scan_pages_ < spec_.pages_per_scan;
  if (spec_.range_mode == RangeMode::kOpenPaged) {
    if (!resumed) {
      scan_from_rank_ = static_cast<std::uint32_t>(
          std::fmod(static_cast<double>(scans_++) * kGolden, 1.0) * n);
      scan_pages_ = 0;
      cursor_.reset();
    }
    query.from(stream_.key(order_[scan_from_rank_])).limit(kPageLimit);
    lo_rank = scan_from_rank_;
    if (resumed) {
      query.after(*cursor_);
      const std::uint32_t f = flow_of(cursor_->last);
      lo_rank = f == UINT32_MAX ? n : rank_of_[f] + 1;
    }
  } else {
    const std::uint32_t span = std::min(spec_.window_keys, n);
    lo_rank = static_cast<std::uint32_t>(
        std::fmod(static_cast<double>(windows_++) * kGolden, 1.0) *
        (n - span + 1));
    hi_rank = lo_rank + span;
    query.from(stream_.key(order_[lo_rank]))
        .to(stream_.key(order_[hi_rank - 1]))
        .limit(kPageLimit);
  }

  ++attempted_;
  const bool traced = spans_.enabled();
  const std::uint64_t t0 = now_ns();
  std::vector<std::shared_ptr<const dta::collector::ShardIndexVersion>> indexes;
  if (traced) spans_.begin(SpanName::kRangeOp, op);
  if (traced && runtime()) {
    for (std::uint32_t s = 0; s < spec_.shards; ++s) {
      auto snap = traced_snapshot(s, op);
      indexes.push_back(traced_index(s, snap->generation(), op));
    }
  }
  if (traced) spans_.begin(SpanName::kRangeServe, op);
  auto page = query.run();
  if (traced) range_serve_us_.push_back(static_cast<double>(spans_.end()) / 1e3);
  if (traced) spans_.end();
  const std::uint64_t took = now_ns() - t0;
  range_us_.push_back(static_cast<double>(took) / 1e3);

  ++scan_pages_;
  if (query_failed(page.status(), "range page") || !page.ok()) {
    cursor_.reset();
    return;
  }
  if (traced) {
    // The candidate set the page's query collects from the same index
    // versions (untimed: outside every span).
    if (indexes.empty()) indexes.push_back(mirror_index());
    range_candidates_ += static_cast<double>(
        dta::internal::collect_range_candidates(indexes, query.spec()).size());
    range_results_ += static_cast<double>(page->entries.size());
  }

  // Ascending, inside the bounds, resuming exactly after the cursor, and
  // equal to a point get of each key (no ingest ran since the page).
  auto table = client_->keywrite();
  std::uint32_t prev_rank = lo_rank;
  bool first = true;
  for (const dta::RangeEntry& entry : page->entries) {
    const std::uint32_t f = flow_of(entry.key);
    if (f == UINT32_MAX) {
      violation("range page: returned a key that was never written");
      return;
    }
    const std::uint32_t r = rank_of_[f];
    if (r < prev_rank || (!first && r == prev_rank) || r >= hi_rank) {
      violation("range page: entries out of order or outside the bounds");
      return;
    }
    check_skipped(first ? lo_rank : prev_rank + 1, r, "range page");
    auto got = table.get_u32(entry.key);
    if (!got.ok() || *got != load_u32(entry.value) ||
        *got != model_.kw_last[f]) {
      violation("range page: entry differs from a point get of its key");
      return;
    }
    prev_rank = r;
    first = false;
  }
  if (page->truncated) {
    if (!page->next || page->entries.empty() ||
        !(page->next->last == page->entries.back().key)) {
      violation("range page: truncated page without a cursor at its end");
    }
    cursor_ = page->next;
  } else {
    // Nothing resolvable may sit between the last entry and the bound.
    if (spec_.range_mode == RangeMode::kBoundedWindow) {
      check_skipped(first ? lo_rank : prev_rank + 1, hi_rank, "range tail");
    }
    cursor_.reset();
  }
}

void Runner::timed_events_poll() {
  const std::uint32_t op = next_op_++;
  const std::uint32_t list = static_cast<std::uint32_t>(polls_++ % spec_.lists);
  const std::uint64_t since = event_cursor_[list];
  ++attempted_;
  const bool traced = spans_.enabled();
  const std::uint64_t t0 = now_ns();
  if (traced) spans_.begin(SpanName::kEventsOp, op);
  if (traced && runtime()) {
    traced_snapshot(dta::collector::shard_for_list(list, spec_.shards), op);
  }
  if (traced) spans_.begin(SpanName::kEventsServe, op);
  auto batch = client_->events(list).since(since).run();
  if (traced) events_serve_us_.push_back(static_cast<double>(spans_.end()) / 1e3);
  if (traced) spans_.end();
  const std::uint64_t took = now_ns() - t0;
  events_us_.push_back(static_cast<double>(took) / 1e3);

  if (query_failed(batch.status(), "events poll") || !batch.ok()) return;
  // The consumer moves on whatever the checks below find.
  event_cursor_[list] = batch->next.position;
  const auto& appended = model_.lists[list];
  if (batch->next.position !=
      since + batch->entries.size() + batch->dropped) {
    violation("events poll: next != since + entries + dropped");
    return;
  }
  if (batch->next.position != appended.size() || batch->remaining != 0) {
    violation("events poll: an exact-freshness poll missed appended entries");
    return;
  }
  const std::uint64_t start = since + batch->dropped;
  for (std::size_t i = 0; i < batch->entries.size(); ++i) {
    if (load_u32(batch->entries[i]) != appended[start + i]) {
      violation("events poll: entry differs from what was appended");
      return;
    }
  }
}

void Runner::loop() {
  const std::uint64_t wall_target_ns =
      static_cast<std::uint64_t>(opts_.seconds * 1e9);
  const Counters before = read_counters();
  std::uint64_t timed_ns = 0;
  const std::uint64_t wall0 = now_ns();
  // Runs for --seconds, then on (up to half as long again) until every
  // query type has kMinSamples samples, so p99 has ten beyond it.
  auto enough = [&] {
    const std::uint64_t wall = now_ns() - wall0;
    if (wall >= wall_target_ns + wall_target_ns / 2) return true;
    return wall >= wall_target_ns && loop_rounds_ >= kMinSamples;
  };
  dta::Backend& backend = client_->backend();
  while (!enough()) {
    stream_.next_batch(spec_.batch, batch_);
    batch_ok_.assign(batch_.size(), 0);
    const Item* probe = nullptr;
    for (auto it = batch_.rbegin(); it != batch_.rend(); ++it) {
      if (it->kind == ItemKind::kKeyWrite) {
        probe = &*it;
        break;
      }
    }
    // Ingest: the batch, then Client::flush, so everything submitted is
    // delivered before the round's queries and the work each query does
    // is fixed by the workload, not by how far the shard workers got.
    const std::uint32_t round = static_cast<std::uint32_t>(loop_rounds_++);
    const std::uint64_t t0 = now_ns();
    {
      ScopedSpan round_span(spans_, SpanName::kRound, round);
      for (std::size_t i = 0; i < batch_.size(); ++i) {
        dta::Status st;
        {
          ScopedSpan submit_span(spans_, SpanName::kSubmit, round);
          st = backend.submit(std::move(batch_[i].parsed), {});
        }
        batch_ok_[i] = st.ok();
        if (!st.ok()) violation("submit: " + st.to_string());
      }
      const std::uint64_t f0 = now_ns();
      ScopedSpan flush_span(spans_, SpanName::kFlush, round);
      must_ok(client_->flush(), "flush");
      flush_us_.push_back(static_cast<double>(now_ns() - f0) / 1e3);
    }
    const std::uint64_t ingest_ns = now_ns() - t0;
    attempted_ += batch_.size();
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      if (batch_ok_[i]) model_.apply(batch_[i]);
    }
    // Queries run after the model has the batch, so their checks see
    // exactly what was submitted. Only submit + flush count as ingest.
    if (probe != nullptr) {
      timed_point_get(*probe);
    } else {
      get_us_.push_back(-1);
    }
    timed_range_page();
    timed_events_poll();

    round_ingest_us_.push_back(static_cast<double>(ingest_ns) / 1e3);
    round_reports_.push_back(static_cast<double>(batch_.size()));
    loop_reports_ += batch_.size();
    timed_ns += ingest_ns;
  }
  loop_timed_s_ = static_cast<double>(timed_ns) / 1e9;
  loop_wall_s_ = static_cast<double>(now_ns() - wall0) / 1e9;
  loop_counters_ = read_counters() - before;
}

// --- final correctness probes -----------------------------------------------

void Runner::final_probes() {
  std::vector<std::uint32_t> counted;
  std::vector<std::uint32_t> pathed;
  for (std::uint32_t f = 0; f < spec_.num_flows; ++f) {
    if (model_.ki_true[f] > 0) counted.push_back(f);
    if (model_.pc_mask[f] != 0) pathed.push_back(f);
  }
  // Key-Increment estimates never fall below the true count.
  auto counters = client_->counters();
  const std::size_t step_ki =
      std::max<std::size_t>(1, counted.size() / kCounterProbes);
  for (std::size_t i = 0; i < counted.size(); i += step_ki) {
    const std::uint32_t f = counted[i];
    ++attempted_;
    auto est = counters.get(stream_.key(f));
    if (!est.ok()) {
      violation("counter probe: " + est.status().to_string());
    } else if (*est < model_.ki_true[f]) {
      violation("counter probe: estimate below the true count");
    }
  }
  // path_of matches the reported hops wherever it returns OK.
  auto postcards = client_->postcards();
  const std::size_t step_pc =
      std::max<std::size_t>(1, pathed.size() / kPathProbes);
  for (std::size_t i = 0; i < pathed.size(); i += step_pc) {
    const std::uint32_t f = pathed[i];
    ++attempted_;
    auto path = postcards.path_of(stream_.key(f));
    if (query_failed(path.status(), "path check") || !path.ok()) continue;
    for (std::uint8_t h = 0; h < kHops && h < path->size(); ++h) {
      if ((model_.pc_mask[f] >> h & 1u) && (*path)[h] != postcard_value(f, h)) {
        violation("path check: a decoded hop differs from the reported one");
        break;
      }
    }
  }
  // Point gets that answer return the last value written.
  auto table = client_->keywrite();
  for (std::uint32_t f = 0; f < spec_.num_flows; f += 7) {
    ++attempted_;
    auto got = table.get_u32(stream_.key(f));
    if (query_failed(got.status(), "kw check") || !got.ok()) continue;
    if (*got != model_.kw_last[f]) {
      violation("kw check: returned a value that is not the last written");
    }
  }
}

void Runner::run() {
  setup();
  warm();
  quality_probes();
  loop();
  final_probes();
  if (opts_.trace) {
    probes_ = run_layer_probes(spec_, opts_.seed);
    if (!opts_.trace_out.empty() && !spans_.write_tsv(opts_.trace_out)) {
      violation("could not write the span file " + opts_.trace_out);
    }
  }
}

void Runner::write(std::FILE* out) {
  JsonOut j(out);
  j.str("workload", spec_.name);
  j.num("seed", static_cast<double>(opts_.seed));
  j.boolean("trace", opts_.trace);
  j.num("attempted", static_cast<double>(attempted_));
  j.num("failed", static_cast<double>(failed_));
  j.strings("violations", violations_);
  j.array("setup_s", setup_s_);
  j.num("segment_rounds", static_cast<double>(kSegmentRounds));
  j.num("segment_share", kSegmentShare);
  j.array("round_ingest_us", round_ingest_us_);
  j.array("round_reports", round_reports_);
  j.num("loop_reports", static_cast<double>(loop_reports_));
  j.num("loop_rounds", static_cast<double>(loop_rounds_));
  j.num("loop_timed_s", loop_timed_s_);
  j.num("loop_wall_s", loop_wall_s_);
  j.num("peak_rss_mb", peak_rss_mb());
  j.num("kw_probes", static_cast<double>(kw_probes_));
  j.num("kw_hits", static_cast<double>(kw_hits_));
  j.num("path_probes", static_cast<double>(path_probes_));
  j.num("path_hits", static_cast<double>(path_hits_));
  j.array("point_get_us", get_us_);
  j.array("range_page_us", range_us_);
  j.array("events_poll_us", events_us_);

  const Counters& c = loop_counters_;
  const double reports = static_cast<double>(loop_reports_);
  const double queries = static_cast<double>(
      gets_ + range_us_.size() + events_us_.size());
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  j.open("counters");
  j.num("dtalib.tenant_shed", c.tenant_shed);
  j.num("translator.writes_per_report", ratio(c.writes, c.translated_reports));
  j.num("translator.append_entries_per_write",
        ratio(c.append_entries_in, c.append_writes));
  j.num("collector.verbs_per_report", ratio(c.verbs_executed, reports));
  j.num("collector.reports_per_doorbell",
        ratio(c.reports_in, c.batch_flushes));
  j.num("collector.verbs_failed", c.verbs_failed);
  j.num("pipeline.backpressure_waits", c.backpressure_waits);
  j.num("pipeline.quiesces_per_query", ratio(c.quiesces, queries));
  j.num("dirty.bytes_marked_per_report", ratio(c.dirty_bytes_marked, reports));
  j.num("snapshot.hit_ratio",
        ratio(c.cache_hits, c.cache_hits + c.cache_misses));
  j.num("snapshot.bytes_copied_per_refresh",
        ratio(c.quiesce_bytes_copied, c.cache_misses));
  j.num("snapshot.full_refresh_share",
        ratio(c.full_refreshes, c.full_refreshes + c.incremental_refreshes));
  j.num("snapshot.cow_clones", c.cow_clones);
  j.num("index.publishes", c.index_publishes);
  j.num("index.reader_catchups", c.index_catchups);
  j.close();

  if (opts_.trace) {
    j.open("timings");
    const SpanTotals& submit = spans_.totals(SpanName::kSubmit);
    j.num("dtalib.submit_ns_per_report",
          ratio(static_cast<double>(submit.total_ns),
                static_cast<double>(submit.count)));
    j.num("dtalib.validate_ns_per_report", probes_.validate_ns_per_report);
    j.num("dtalib.get_serve_us", median(get_serve_us_));
    j.num("dtalib.range_serve_us", median(range_serve_us_));
    j.num("dtalib.range_candidates_per_result",
          ratio(range_candidates_, range_results_));
    j.num("dtalib.events_serve_us", median(events_serve_us_));
    j.num("common.route_ns_per_report", probes_.route_ns_per_report);
    j.num("translator.translate_ns_per_report",
          probes_.translate_ns_per_report);
    j.num("collector.flush_us", median(flush_us_));
    j.num("snapshot.refresh_us", median(refresh_us_));
    j.num("index.apply_ns_per_key", probes_.index_apply_ns_per_key);
    j.num("index.leaf_copies_per_delta", probes_.index_leaf_copies_per_delta);
    // Without a runtime there is no catch-up call: the fabric folds the
    // staged keys into its index at every rebuild, which the replay
    // probe times instead.
    j.num("index.catchup_us", runtime() ? median(catchup_us_)
                                        : probes_.index_fold_us_per_round);
    j.num("wire.encode_ns_per_report", probes_.wire_encode_ns_per_report);
    j.num("wire.decode_ns_per_report", probes_.wire_decode_ns_per_report);
    j.num("rdma.frame_ns_per_verb", probes_.rdma_frame_ns_per_verb);
    j.close();
    j.array("get_accounted_us", get_accounted_us_);
    j.open("spans");
    for (std::size_t i = 0; i < static_cast<std::size_t>(SpanName::kCount);
         ++i) {
      const auto name = static_cast<SpanName>(i);
      const SpanTotals& t = spans_.totals(name);
      j.open(span_name(name));
      j.str("layer", span_layer(name));
      j.num("count", static_cast<double>(t.count));
      j.num("total_us", static_cast<double>(t.total_ns) / 1e3);
      j.num("self_us", static_cast<double>(t.self_ns) / 1e3);
      j.close();
    }
    j.close();
    j.num("spans_kept", static_cast<double>(spans_.kept()));
    j.num("spans_dropped", static_cast<double>(spans_.dropped()));
    j.str("span_file", opts_.trace_out);
  }
  j.close();
  std::fputc('\n', out);
}

}  // namespace

void run_workload(const WorkloadSpec& spec, const RunOptions& opts,
                  std::FILE* out) {
  Runner runner(spec, opts);
  runner.run();
  runner.write(out);
}

}  // namespace perfbench
