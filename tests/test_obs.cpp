// The self-telemetry layer: metrics registry determinism and summation,
// histogram bucketing, tracer ring wraparound, trace_event JSON
// well-formedness (validated by an in-test JSON parser), analyzer
// pipeline spans, legacy-stats coverage of the metrics snapshot, and the
// load-bearing invariant that telemetry never changes profile bytes.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "core/profiler.h"
#include "obs/overhead.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "rt/exec.h"
#include "rt/sim_array.h"
#include "workloads/harness.h"

namespace dcprof {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  TempDir() {
    path = fs::temp_directory_path() /
           ("dcprof-obs-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
  static int counter;
};
int TempDir::counter = 0;

/// Restores the global telemetry switches (tests must not leak state).
struct TelemetryOff {
  ~TelemetryOff() {
    obs::set_metrics_enabled(false);
    obs::Tracer::set_enabled(false);
  }
};

// --- minimal JSON parser (syntax validation for emitted documents) ----

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- registry ---------------------------------------------------------

TEST(Registry, SnapshotIsDeterministicAndSortsLabels) {
  obs::Registry reg;
  // Same series, labels given in different orders.
  obs::Counter a = reg.counter("m.x", {{"b", "2"}, {"a", "1"}});
  obs::Counter b = reg.counter("m.x", {{"a", "1"}, {"b", "2"}});
  a.add(3);
  b.add(4);
  obs::Counter c = reg.counter("m.a");
  c.inc();
  const obs::Snapshot s1 = reg.snapshot();
  const obs::Snapshot s2 = reg.snapshot();
  ASSERT_EQ(s1.entries.size(), 2u);
  // Sorted by key; labels canonicalized, handles summed.
  EXPECT_EQ(s1.entries[0].key(), "m.a");
  EXPECT_EQ(s1.entries[1].key(), "m.x{a=1,b=2}");
  EXPECT_EQ(s1.value("m.x{a=1,b=2}"), 7u);
  ASSERT_EQ(s2.entries.size(), s1.entries.size());
  for (std::size_t i = 0; i < s1.entries.size(); ++i) {
    EXPECT_EQ(s1.entries[i].key(), s2.entries[i].key());
    EXPECT_EQ(s1.entries[i].value, s2.entries[i].value);
  }
  EXPECT_EQ(obs::to_json(s1), obs::to_json(s2));
}

TEST(Registry, GaugeTracksHighWater) {
  obs::Registry reg;
  obs::Gauge g = reg.gauge("m.queue");
  g.add(1);
  g.add(1);
  g.add(1);
  g.add(-2);
  EXPECT_EQ(g.value(), 1u);
  EXPECT_EQ(g.max(), 3u);
  const obs::Snapshot snap = reg.snapshot();
  const obs::SnapshotEntry* e = snap.find("m.queue");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 1u);
  EXPECT_EQ(e->max, 3u);
}

TEST(Registry, HistogramUsesPowerOfTwoBuckets) {
  // bucket i holds v with bit_width(v) == i: [2^(i-1), 2^i).
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(obs::Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(obs::Histogram::bucket_of(~0ull),
            obs::detail::kHistBuckets - 1);

  obs::Registry reg;
  obs::Histogram h = reg.histogram("m.lat");
  for (const std::uint64_t v : {0ull, 1ull, 3ull, 3ull, 1024ull}) {
    h.record(v);
  }
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1031u);
  const obs::Snapshot snap = reg.snapshot();
  const obs::SnapshotEntry* e = snap.find("m.lat");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 5u);
  EXPECT_EQ(e->sum, 1031u);
  // Snapshots list only non-empty buckets, as (exclusive limit, count).
  std::uint64_t bucketed = 0;
  for (const auto& [le, n] : e->buckets) bucketed += n;
  EXPECT_EQ(bucketed, 5u);
  using Bucket = std::pair<std::uint64_t, std::uint64_t>;
  const std::vector<Bucket> expected = {
      {1, 1},     // the 0
      {2, 1},     // the 1
      {4, 2},     // the two 3s
      {2048, 1},  // the 1024 (bucket 11)
  };
  EXPECT_EQ(e->buckets, expected);
}

TEST(Registry, HistogramExtremeValuesLandInDefinedBuckets) {
  // Edge cases of the power-of-two bucketing: 0, the largest value of
  // the last finite bucket, and values beyond the top power-of-2 bucket
  // (up to ~0) must land in well-defined buckets, never be dropped, and
  // never overflow a shift.
  const std::size_t last = obs::detail::kHistBuckets - 1;
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_limit(0), 1u);  // 0 is the only value
  const std::uint64_t top = 1ull << (last - 1);    // first clamped value
  EXPECT_EQ(obs::Histogram::bucket_of(top - 1), last - 1);
  EXPECT_EQ(obs::Histogram::bucket_of(top), last);
  EXPECT_EQ(obs::Histogram::bucket_of(~0ull), last);
  EXPECT_EQ(obs::Histogram::bucket_limit(last), ~0ull);

  obs::Registry reg;
  obs::Histogram h = reg.histogram("m.edge");
  h.record(0);
  h.record(top);
  h.record(~0ull);
  EXPECT_EQ(h.count(), 3u);
  const obs::Snapshot snap = reg.snapshot();
  const obs::SnapshotEntry* e = snap.find("m.edge");
  ASSERT_NE(e, nullptr);
  std::uint64_t bucketed = 0;
  for (const auto& [le, n] : e->buckets) bucketed += n;
  EXPECT_EQ(bucketed, 3u);  // nothing silently dropped
  ASSERT_EQ(e->buckets.size(), 2u);
  EXPECT_EQ(e->buckets.front(), (std::pair<std::uint64_t, std::uint64_t>{
                                    1, 1}));  // the 0
  EXPECT_EQ(e->buckets.back(), (std::pair<std::uint64_t, std::uint64_t>{
                                   ~0ull, 2}));  // both clamped values
}

TEST(Registry, ToJsonNeverEmitsInfOrNan) {
  obs::Registry reg;
  obs::Histogram h = reg.histogram("m.extreme");
  h.record(0);
  h.record(~0ull);  // sum wraps modulo 2^64 — still an integer
  h.record(~0ull);
  obs::Gauge g = reg.gauge("m.peak");
  g.set(~0ull);
  const std::string json = obs::to_json(reg.snapshot());
  EXPECT_TRUE(JsonParser(json).parse()) << json;
  for (const char* bad : {"inf", "Inf", "nan", "NaN", "e+", "E+"}) {
    EXPECT_EQ(json.find(bad), std::string::npos) << bad << " in " << json;
  }
}

TEST(Registry, ScopedNsIsGatedOnMetricsEnabled) {
  TelemetryOff restore;
  obs::Registry reg;
  obs::Counter ns = reg.counter("m.ns");
  obs::set_metrics_enabled(false);
  { obs::ScopedNs t(ns); }
  EXPECT_EQ(ns.value(), 0u);
  obs::set_metrics_enabled(true);
  { obs::ScopedNs t(ns); }
  EXPECT_GT(ns.value(), 0u);
}

TEST(Registry, MetricsJsonParsesAndContainsSections) {
  obs::Registry reg;
  obs::Counter c = reg.counter("m.count", {{"k", "v"}});
  c.add(9);
  obs::Gauge g = reg.gauge("m.gauge");
  g.set(5);
  obs::Histogram h = reg.histogram("m.hist");
  h.record(7);
  const std::string json = obs::to_json(reg.snapshot());
  EXPECT_TRUE(JsonParser(json).parse()) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"m.count{k=v}\":9"), std::string::npos);
}

// --- tracer -----------------------------------------------------------

TEST(Tracer, RingWrapsNewestWinsAndCountsDropped) {
  TelemetryOff restore;
  obs::Tracer tracer;
  tracer.set_capacity_per_thread(8);
  obs::Tracer::set_enabled(true);
  for (int i = 0; i < 20; ++i) {
    tracer.record_instant("tick", "i", static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.dropped(), 12u);
  std::ostringstream out;
  tracer.write_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonParser(json).parse()) << json;
  // Newest events survive; the wrapped-over oldest are gone.
  EXPECT_NE(json.find("\"i\":19"), std::string::npos);
  EXPECT_EQ(json.find("\"i\":3,"), std::string::npos);
}

TEST(Tracer, SpansEmitValidTraceEventJson) {
  TelemetryOff restore;
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.reset();
  obs::Tracer::set_enabled(true);
  tracer.set_thread_name("main-test");
  {
    OBS_SPAN("outer");
    OBS_SPAN_V("inner", "n", 42);
  }
  OBS_INSTANT("mark");
  obs::Tracer::set_enabled(false);
  std::ostringstream out;
  tracer.write_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonParser(json).parse()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mark\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("main-test"), std::string::npos);
  EXPECT_NE(json.find("\"n\":42"), std::string::npos);
  tracer.reset();
}

TEST(Tracer, DisabledSitesRecordNothing) {
  TelemetryOff restore;
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.reset();
  obs::Tracer::set_enabled(false);
  {
    OBS_SPAN("never");
    OBS_INSTANT("nor-this");
  }
  EXPECT_EQ(tracer.size(), 0u);
}

// --- end-to-end: measurement-side telemetry ---------------------------

/// Runs a deterministic profiled kernel; returns its serialized profile
/// bytes and (out param) the process context for stats inspection.
std::string run_kernel(bool telemetry, const fs::path* write_dir = nullptr) {
  TelemetryOff restore;
  obs::set_metrics_enabled(telemetry);
  obs::Tracer::set_enabled(telemetry);
  wl::ProcessCtx proc(wl::node_config(), 4, "obs-kernel");
  binfmt::LoadModule& exe = proc.exe();
  const auto f = exe.add_function("main", "app.c");
  const sim::Addr ip_alloc = exe.add_instr(f, 1);
  const sim::Addr ip_load = exe.add_instr(f, 2);
  proc.enable_profiling(wl::ibs_config(64));
  rt::SimArray<double> a;
  proc.team().single([&](rt::ThreadCtx& t) {
    // A calling context so the tracker has frames to unwind.
    t.push_frame(ip_alloc);
    a = rt::SimArray<double>::calloc_in(proc.alloc(), t, 20'000, ip_alloc);
    t.pop_frame();
  });
  proc.team().parallel_for(0, 20'000, [&](rt::ThreadCtx& t, std::int64_t i) {
    // Sequential walk (L1 hits) under a one-frame context (exercises
    // the memoized unwind on repeated samples).
    t.push_frame(ip_load);
    a.get(t, static_cast<std::uint64_t>(i), ip_load);
    t.pop_frame();
  });
  if (write_dir != nullptr) {
    proc.write_measurements(write_dir->string());
    return {};
  }
  std::ostringstream os;
  for (const auto& p : proc.take_profiles()) p.write(os);
  return os.str();
}

TEST(Telemetry, ProfilesAreByteIdenticalWithTelemetryOnOrOff) {
  const std::string off = run_kernel(false);
  const std::string on = run_kernel(true);
  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off, on);
}

TEST(Telemetry, SnapshotCoversEveryLegacyStatsStruct) {
  obs::Registry::global().reset_for_testing();
  obs::Tracer::global().reset();
  run_kernel(true);
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  // ProfilerStats.
  EXPECT_GT(snap.value("profiler.samples{outcome=handled}"), 0u);
  ASSERT_NE(snap.find("profiler.samples{outcome=dropped}"), nullptr);
  EXPECT_GT(snap.value("profiler.class_samples{class=heap}"), 0u);
  ASSERT_NE(snap.find("profiler.class_samples{class=static}"), nullptr);
  ASSERT_NE(snap.find("profiler.class_samples{class=stack}"), nullptr);
  ASSERT_NE(snap.find("profiler.class_samples{class=unknown}"), nullptr);
  ASSERT_NE(snap.find("profiler.class_samples{class=nomem}"), nullptr);
  EXPECT_GT(snap.value("profiler.memo_frames{kind=reused}") +
                snap.value("profiler.memo_frames{kind=walked}"),
            0u);
  // TrackerStats.
  EXPECT_GT(snap.value("tracker.allocations{outcome=tracked}"), 0u);
  ASSERT_NE(snap.find("tracker.allocations{outcome=skipped}"), nullptr);
  ASSERT_NE(snap.find("tracker.frees"), nullptr);
  EXPECT_GT(snap.value("tracker.frames{kind=unwound}"), 0u);
  // VarMapStats.
  EXPECT_GT(snap.value("varmap.lookups{outcome=mru_hit}") +
                snap.value("varmap.lookups{outcome=tree_probe}"),
            0u);
  // MemLevelStats.
  EXPECT_GT(snap.value("sim.accesses{level=l1}"), 0u);
  ASSERT_NE(snap.find("sim.tlb_misses"), nullptr);
  ASSERT_NE(snap.find("sim.prefetched"), nullptr);
  // PMU.
  EXPECT_GT(snap.value("pmu.samples"), 0u);
  EXPECT_GT(snap.value("pmu.events{event=IBS_OP}"), 0u);
  // New-in-this-layer metrics (metrics_enabled was on).
  EXPECT_GT(snap.value("profiler.sample_ns"), 0u);
  const obs::SnapshotEntry* hist = snap.find("profiler.sample_ns_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_GT(hist->count, 0u);
  EXPECT_GT(snap.value("profiler.cct_nodes"), 0u);
}

// profiler.sample_ns_hist gets one entry per sample on every backend;
// the concurrent backends' deferred-ingest flushes are timed separately
// in profiler.flush_ns_hist.
TEST(Telemetry, SampleLatencyHistogramCountsSamplesOnEveryBackend) {
  TelemetryOff restore;
  for (const rt::BackendKind kind :
       {rt::BackendKind::kDeterministic, rt::BackendKind::kThreaded,
        rt::BackendKind::kSharded}) {
    SCOPED_TRACE(rt::to_string(kind));
    obs::Registry::global().reset_for_testing();
    obs::set_metrics_enabled(true);
    {
      rt::ExecConfig exec;
      exec.backend = kind;
      wl::ProcessCtx proc(wl::node_config(), 4, "hist-kernel", exec);
      binfmt::LoadModule& exe = proc.exe();
      const auto f = exe.add_function("main", "app.c");
      const sim::Addr ip = exe.add_instr(f, 1);
      proc.enable_profiling(wl::ibs_config(64));
      rt::SimArray<double> a;
      proc.team().single([&](rt::ThreadCtx& t) {
        a = rt::SimArray<double>::calloc_in(proc.alloc(), t, 20'000, ip);
      });
      proc.team().parallel_for(0, 20'000,
                               [&](rt::ThreadCtx& t, std::int64_t i) {
                                 a.get(t, static_cast<std::uint64_t>(i), ip);
                               });
      proc.take_profiles();
    }
    obs::set_metrics_enabled(false);
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    const obs::SnapshotEntry* hist = snap.find("profiler.sample_ns_hist");
    const obs::SnapshotEntry* flush = snap.find("profiler.flush_ns_hist");
    ASSERT_NE(hist, nullptr);
    ASSERT_NE(flush, nullptr);
    EXPECT_GT(hist->count, 0u);
    EXPECT_EQ(hist->count, snap.value("pmu.samples"));
    if (kind == rt::BackendKind::kDeterministic) {
      EXPECT_EQ(flush->count, 0u);
    } else {
      EXPECT_GT(flush->count, 0u);
    }
  }
}

TEST(Telemetry, StatsAccessorsMatchRegistrySeries) {
  obs::Registry::global().reset_for_testing();
  TelemetryOff restore;
  obs::set_metrics_enabled(true);
  wl::ProcessCtx proc(wl::node_config(), 2, "view-kernel");
  binfmt::LoadModule& exe = proc.exe();
  const auto f = exe.add_function("main", "app.c");
  const sim::Addr ip = exe.add_instr(f, 1);
  proc.enable_profiling(wl::ibs_config(64));
  rt::SimArray<double> a;
  proc.team().single([&](rt::ThreadCtx& t) {
    a = rt::SimArray<double>::calloc_in(proc.alloc(), t, 4'096, ip);
  });
  proc.team().parallel_for(0, 4'096, [&](rt::ThreadCtx& t, std::int64_t i) {
    a.get(t, static_cast<std::uint64_t>(i), ip);
  });
  const core::ProfilerStats s = proc.profiler()->stats();
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  // One profiler in a fresh registry: the struct view equals the series.
  EXPECT_EQ(s.samples_handled,
            snap.value("profiler.samples{outcome=handled}"));
  EXPECT_EQ(s.heap_samples, snap.value("profiler.class_samples{class=heap}"));
  EXPECT_EQ(s.memo_frames_reused,
            snap.value("profiler.memo_frames{kind=reused}"));
  const core::TrackerStats ts = proc.profiler()->tracker_stats();
  EXPECT_EQ(ts.allocations_tracked,
            snap.value("tracker.allocations{outcome=tracked}"));
}

TEST(Telemetry, OverheadAccountantReadsWellKnownSeries) {
  obs::Registry::global().reset_for_testing();
  run_kernel(true);
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const obs::OverheadReport r = obs::account_overhead(snap, 1000.0);
  EXPECT_EQ(r.total_wall_ms, 1000.0);
  EXPECT_GT(r.samples, 0u);
  EXPECT_GT(r.sample_handling_ms, 0.0);
  EXPECT_GE(r.profiler_ms(), r.sample_handling_ms);
  EXPECT_LE(r.workload_ms(), r.total_wall_ms);
  const std::string table = r.to_table("kernel");
  EXPECT_NE(table.find("runtime dilation"), std::string::npos);
  EXPECT_NE(table.find("kernel"), std::string::npos);
}

// --- end-to-end: analyzer pipeline spans ------------------------------

TEST(Telemetry, AnalyzerEmitsSpansPerStageAndPerWorker) {
  TelemetryOff restore;
  TempDir dir;
  run_kernel(false, &dir.path);

  obs::Registry::global().reset_for_testing();
  obs::Tracer::global().reset();
  obs::Tracer::set_enabled(true);
  analysis::Analyzer::Options opts;
  opts.workers = 2;
  opts.views |= analysis::kViewOverhead;
  std::atomic<std::size_t> beats{0};
  opts.progress = [&beats](std::size_t, std::size_t) { ++beats; };
  const analysis::AnalysisResult r = analysis::Analyzer(opts).run(dir.path);
  obs::Tracer::set_enabled(false);

  EXPECT_EQ(beats.load(), r.files_read + r.files_skipped);
  ASSERT_EQ(r.shards.size(), 2u);
  EXPECT_EQ(r.shards[0].files + r.shards[1].files, r.files_read);
  EXPECT_FALSE(r.overhead_report.empty());
  EXPECT_NE(r.overhead_report.find("stream"), std::string::npos);

  std::ostringstream out;
  obs::Tracer::global().write_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonParser(json).parse()) << json;
  for (const char* span : {"analyze.run", "analyze.discover",
                           "analyze.stream", "analyze.combine",
                           "analyze.views", "analyze.shard",
                           "analyze.file"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + span + "\""),
              std::string::npos)
        << "missing span " << span;
  }
  // One track (thread) per stream worker, named for Perfetto.
  EXPECT_NE(json.find("analyze-worker-0"), std::string::npos);
  EXPECT_NE(json.find("analyze-worker-1"), std::string::npos);

  // Stage counters and the residency gauge landed in the registry.
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  ASSERT_NE(snap.find("analyze.stage_us{stage=stream}"), nullptr);
  ASSERT_NE(snap.find("analyze.shard_merge_us{shard=0}"), nullptr);
  ASSERT_NE(snap.find("analyze.shard_merge_us{shard=1}"), nullptr);
  const obs::SnapshotEntry* gauge = snap.find("analyze.resident_profiles");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->max, r.peak_resident_profiles);
  obs::Tracer::global().reset();
}

TEST(Telemetry, AnalyzerMergeIsIdenticalWithTelemetryOnOrOff) {
  TelemetryOff restore;
  TempDir dir;
  run_kernel(false, &dir.path);
  analysis::Analyzer::Options opts;
  opts.workers = 2;
  const analysis::AnalysisResult plain = analysis::Analyzer(opts).run(dir.path);
  obs::set_metrics_enabled(true);
  obs::Tracer::set_enabled(true);
  const analysis::AnalysisResult traced =
      analysis::Analyzer(opts).run(dir.path);
  obs::Tracer::set_enabled(false);
  std::ostringstream a;
  std::ostringstream b;
  plain.merged.write(a);
  traced.merged.write(b);
  EXPECT_EQ(a.str(), b.str());
  obs::Tracer::global().reset();
}

}  // namespace
}  // namespace dcprof
