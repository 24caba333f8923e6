// Multicore measurement and the deferred-ingest path. Covers
//  * backend parsing and the deterministic backend's documented schedule;
//  * deferred vs synchronous ingest on the deterministic backend: per-
//    thread profiles byte-identical, merged profiles canonically equal,
//    checksums identical, every PMU sample handled;
//  * the epoch-sharded backend against its serial twin, on raw execution
//    state and end to end on the case-study workloads;
//  * exact per-access telemetry: the per-core counter cells sum to the
//    same registry totals on the sharded backend as on its twin;
//  * the PMU sample gate against per-event delivery on every backend.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/merge.h"
#include "core/profiler.h"
#include "obs/registry.h"
#include "pmu/pmu.h"
#include "rt/exec.h"
#include "rt/sim_array.h"
#include "rt/team.h"
#include "verify/invariants.h"
#include "workloads/amg.h"
#include "workloads/harness.h"
#include "workloads/lulesh.h"
#include "workloads/streamcluster.h"

namespace dcprof {
namespace {

using wl::node_config;
using wl::ProcessCtx;

constexpr int kThreads = 8;

// ------------------------------------------------ Team-level equivalence --

TEST(ExecBackend, ParseAndNames) {
  EXPECT_EQ(rt::parse_backend("det"), rt::BackendKind::kDeterministic);
  EXPECT_EQ(rt::parse_backend("deterministic"),
            rt::BackendKind::kDeterministic);
  EXPECT_EQ(rt::parse_backend("sockets"), rt::BackendKind::kSharded);
  EXPECT_EQ(rt::parse_backend("sharded"), rt::BackendKind::kSharded);
  EXPECT_FALSE(rt::parse_backend("threads").has_value());
  EXPECT_FALSE(rt::parse_backend("threaded").has_value());
  EXPECT_FALSE(rt::parse_backend("gpu").has_value());
  EXPECT_STREQ(rt::to_string(rt::BackendKind::kDeterministic), "det");
  EXPECT_STREQ(rt::to_string(rt::BackendKind::kSharded), "sockets");
}

// The deterministic backend runs exactly its documented schedule: a block
// partition, one chunk per thread per round, threads in tid order, a
// barrier on both sides of each construct. The same accesses issued by
// hand in that order must leave the same thread clocks and machine
// counters.
TEST(ExecBackend, TeamStateMatchesDeterministicTwin) {
  constexpr std::int64_t kN = 1 << 14;
  constexpr std::int64_t kChunk = 64;
  static_assert(kN % (kThreads * kChunk) == 0);
  const auto run = [](bool by_hand) {
    sim::Machine machine(node_config());
    rt::Team team(machine, kThreads);
    rt::Allocator alloc(machine);
    rt::SimArray<double> a = rt::SimArray<double>::malloc_in(
        alloc, team.master(), kN, 0x42);
    const auto body = [&](rt::ThreadCtx& t, std::int64_t i) {
      const auto u = static_cast<std::uint64_t>(i);
      a.set(t, u, a.get(t, u, 0x50) + 1.0, 0x51);
    };
    const auto region = [](rt::ThreadCtx& t) { t.compute(10, 0x99); };
    for (int rep = 0; rep < 3; ++rep) {
      if (!by_hand) {
        team.parallel_for(0, kN, body, kChunk);
        team.parallel_region(region);
        continue;
      }
      constexpr std::int64_t kPer = kN / kThreads;
      team.barrier();
      for (std::int64_t lo = 0; lo < kPer; lo += kChunk) {
        for (int t = 0; t < kThreads; ++t) {
          for (std::int64_t i = lo; i < lo + kChunk; ++i) {
            body(team.thread(t), t * kPer + i);
          }
        }
      }
      team.barrier();
      team.barrier();
      for (int t = 0; t < kThreads; ++t) region(team.thread(t));
      team.barrier();
    }
    std::vector<sim::Cycles> clocks;
    for (int t = 0; t < team.size(); ++t) {
      clocks.push_back(team.thread(t).clock());
    }
    return std::tuple{clocks, machine.instructions_retired(),
                      machine.memory_accesses()};
  };
  EXPECT_EQ(run(false), run(true));
}

// -------------------------------------------- workload-level equivalence --

struct BackendRun {
  std::vector<std::string> bytes;  // serialized per-thread profiles
  core::ThreadProfile merged;
  std::uint64_t samples_handled = 0;  // profiler stats
  std::uint64_t samples_taken = 0;    // PMU
  double checksum = 0;
};

/// One profiled run; `deferred` switches the profiler to deferred ingest
/// regardless of backend (the sharded backend always defers).
template <typename Body>
BackendRun run_backend_cfg(rt::ExecConfig exec, const std::string& exe,
                           Body&& body, core::ProfilerConfig pcfg = {},
                           bool deferred = false) {
  ProcessCtx proc(node_config(), kThreads, exe, exec);
  proc.enable_profiling(wl::ibs_config(512), pcfg);
  if (deferred) proc.profiler()->enable_deferred_ingest();
  BackendRun out;
  out.checksum = body(proc);
  auto profiles = proc.take_profiles();
  out.samples_handled = proc.profiler()->stats().samples_handled;
  out.samples_taken = proc.pmu()->samples_taken();
  for (auto& p : profiles) {
    std::ostringstream ss;
    p.write(ss);
    out.bytes.push_back(std::move(ss).str());
  }
  out.merged = analysis::reduce(std::move(profiles));
  return out;
}

void expect_runs_equal(const BackendRun& ref, const BackendRun& got) {
  EXPECT_EQ(ref.checksum, got.checksum);
  // Sample conservation: every sample the PMU took was handled.
  EXPECT_GT(got.samples_taken, 0u);
  EXPECT_EQ(ref.samples_handled, ref.samples_taken);
  EXPECT_EQ(got.samples_handled, got.samples_taken);
  // Stronger than the gate: each thread's profile is byte-identical.
  ASSERT_EQ(ref.bytes.size(), got.bytes.size());
  for (std::size_t i = 0; i < ref.bytes.size(); ++i) {
    EXPECT_EQ(ref.bytes[i], got.bytes[i]) << "thread profile " << i;
  }
  // The gate: merged profiles canonically equal.
  std::string why;
  EXPECT_TRUE(verify::canonical_equal(ref.merged, got.merged, &why)) << why;
}

/// The deferred-ingest gate: on the deterministic backend, buffering
/// attribution per thread (drained when a buffer fills and at the end)
/// must produce exactly the profiles synchronous attribution does.
template <typename Body>
void expect_deferred_equivalence(const std::string& exe, Body&& body,
                                 core::ProfilerConfig pcfg = {}) {
  const rt::ExecConfig det;
  const BackendRun sync = run_backend_cfg(det, exe, body, pcfg, false);
  const BackendRun deferred = run_backend_cfg(det, exe, body, pcfg, true);
  expect_runs_equal(sync, deferred);
}

/// The sharded backend's gate: the sockets-parallel run must be
/// byte-identical to its serial twin — the same epoch-sharded semantics
/// executed on one host thread. (Sharded latencies legitimately differ
/// from the det backend: deferred accesses observe barrier-time DRAM
/// backlogs, so the twin is sharded-serial, not det.)
template <typename Body>
void expect_sharded_equivalence(const std::string& exe, Body&& body,
                                core::ProfilerConfig pcfg = {},
                                std::uint32_t epoch_rounds = 8) {
  rt::ExecConfig serial;
  serial.backend = rt::BackendKind::kSharded;
  serial.sharded_serial = true;
  serial.epoch_rounds = epoch_rounds;
  rt::ExecConfig parallel = serial;
  parallel.sharded_serial = false;
  const BackendRun twin = run_backend_cfg(serial, exe, body, pcfg);
  const BackendRun par = run_backend_cfg(parallel, exe, body, pcfg);
  expect_runs_equal(twin, par);
}

wl::AmgParams small_amg() {
  wl::AmgParams prm;
  prm.rows = 20'000;
  prm.iters = 2;
  prm.small_allocs = 100;
  prm.workspace_doubles = 200'000;
  prm.symbolic_cycles_per_row = 200;
  return prm;
}

TEST(BackendEquivalence, Amg) {
  expect_deferred_equivalence("amg", [](ProcessCtx& proc) {
    wl::Amg amg(proc, small_amg());
    return amg.run().checksum;
  });
}

TEST(BackendEquivalence, Lulesh) {
  wl::LuleshParams prm;
  prm.nelem = 8'000;
  prm.iters = 2;
  expect_deferred_equivalence("lulesh", [prm](ProcessCtx& proc) {
    wl::Lulesh lulesh(proc, prm);
    return lulesh.run().checksum;
  });
}

TEST(BackendEquivalence, Streamcluster) {
  wl::StreamclusterParams prm;
  prm.npoints = 8'000;
  prm.dim = 8;
  prm.iters = 2;
  expect_deferred_equivalence("streamcluster", [prm](ProcessCtx& proc) {
    wl::Streamcluster sc(proc, prm);
    return sc.run().checksum;
  });
}

// Tiny buffers force drains in the middle of a chunk; the output must
// not change.
TEST(BackendEquivalence, SurvivesTinyIngestBuffers) {
  core::ProfilerConfig pcfg;
  pcfg.ingest.buffer_capacity = 4;
  wl::StreamclusterParams prm;
  prm.npoints = 4'000;
  prm.dim = 8;
  prm.iters = 2;
  expect_deferred_equivalence(
      "streamcluster",
      [prm](ProcessCtx& proc) {
        wl::Streamcluster sc(proc, prm);
        return sc.run().checksum;
      },
      pcfg);
}

// Memoization must stay a pure optimization in deferred mode too.
TEST(BackendEquivalence, MemoizationOffIsStillIdentical) {
  core::ProfilerConfig pcfg;
  pcfg.memoized_attribution = false;
  wl::AmgParams prm = small_amg();
  prm.rows = 10'000;
  expect_deferred_equivalence(
      "amg",
      [prm](ProcessCtx& proc) {
        wl::Amg amg(proc, prm);
        return amg.run().checksum;
      },
      pcfg);
}

// --------------------------------------------- epoch-sharded equivalence --

// Raw execution state: the sockets-parallel run and its serial twin
// must agree on every thread clock and machine counter.
TEST(ShardedBackend, TeamStateMatchesSerialTwin) {
  const auto run = [](bool serial) {
    sim::Machine machine(node_config());
    rt::ExecConfig exec;
    exec.backend = rt::BackendKind::kSharded;
    exec.sharded_serial = serial;
    exec.epoch_rounds = 4;
    rt::Team team(machine, kThreads, exec);
    rt::Allocator alloc(machine);
    rt::SimArray<double> a = rt::SimArray<double>::malloc_in(
        alloc, team.master(), 1 << 14, 0x42);
    for (int rep = 0; rep < 3; ++rep) {
      team.parallel_for(
          0, 1 << 14,
          [&](rt::ThreadCtx& t, std::int64_t i) {
            const auto u = static_cast<std::uint64_t>(i);
            a.set(t, u, a.get(t, u, 0x50) + 1.0, 0x51);
          },
          64);
      team.parallel_region([&](rt::ThreadCtx& t) { t.compute(10, 0x99); });
    }
    std::vector<sim::Cycles> clocks;
    for (int t = 0; t < team.size(); ++t) {
      clocks.push_back(team.thread(t).clock());
    }
    return std::tuple{clocks, machine.instructions_retired(),
                      machine.memory_accesses()};
  };
  EXPECT_EQ(run(true), run(false));
}

// Exceptions thrown inside a sharded parallel_for propagate to the
// caller; the epoch barrier chain must not deadlock, queued deferred
// accesses are discarded, and the pool stays usable.
TEST(ShardedBackend, PropagatesBodyExceptions) {
  sim::Machine machine(node_config());
  rt::ExecConfig exec;
  exec.backend = rt::BackendKind::kSharded;
  rt::Team team(machine, kThreads, exec);
  EXPECT_THROW(
      team.parallel_for(0, 1000,
                        [&](rt::ThreadCtx&, std::int64_t i) {
                          if (i == 500) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  std::atomic<std::int64_t> n{0};
  team.parallel_for(0, 100, [&](rt::ThreadCtx&, std::int64_t) { ++n; });
  EXPECT_EQ(n.load(), 100);
}

// Allocation moves shared page-table policy state, which only the epoch
// resolver may touch: the allocator must refuse it inside a sharded
// parallel construct (workloads allocate in setup / Team::single).
TEST(ShardedBackend, AllocationInsideConstructThrows) {
  sim::Machine machine(node_config());
  rt::ExecConfig exec;
  exec.backend = rt::BackendKind::kSharded;
  rt::Team team(machine, kThreads, exec);
  rt::Allocator alloc(machine);
  EXPECT_THROW(team.parallel_for(0, 8,
                                 [&](rt::ThreadCtx& t, std::int64_t) {
                                   alloc.malloc(t, 64, 0x77);
                                 }),
               std::logic_error);
  // Quiescent again: allocation works.
  EXPECT_NE(alloc.malloc(team.master(), 64, 0x77), 0u);
}

TEST(ShardedEquivalence, Amg) {
  expect_sharded_equivalence("amg", [](ProcessCtx& proc) {
    wl::Amg amg(proc, small_amg());
    return amg.run().checksum;
  });
}

TEST(ShardedEquivalence, Lulesh) {
  wl::LuleshParams prm;
  prm.nelem = 8'000;
  prm.iters = 2;
  expect_sharded_equivalence("lulesh", [prm](ProcessCtx& proc) {
    wl::Lulesh lulesh(proc, prm);
    return lulesh.run().checksum;
  });
}

TEST(ShardedEquivalence, Streamcluster) {
  wl::StreamclusterParams prm;
  prm.npoints = 8'000;
  prm.dim = 8;
  prm.iters = 2;
  expect_sharded_equivalence("streamcluster", [prm](ProcessCtx& proc) {
    wl::Streamcluster sc(proc, prm);
    return sc.run().checksum;
  });
}

// Epoch length is a tuning knob, not a semantics knob *within* one
// configuration: parallel and twin must agree at any epoch_rounds, and
// single-round epochs maximize barrier traffic (the stress case).
TEST(ShardedEquivalence, SingleRoundEpochs) {
  wl::StreamclusterParams prm;
  prm.npoints = 4'000;
  prm.dim = 8;
  prm.iters = 2;
  expect_sharded_equivalence(
      "streamcluster",
      [prm](ProcessCtx& proc) {
        wl::Streamcluster sc(proc, prm);
        return sc.run().checksum;
      },
      {}, /*epoch_rounds=*/1);
}

// Memoization stays a pure optimization under replayed (snapshot-stack)
// samples too: deferred-access samples bypass the memo, everything else
// still uses it, and the output must not change.
TEST(ShardedEquivalence, MemoizationOffIsStillIdentical) {
  core::ProfilerConfig pcfg;
  pcfg.memoized_attribution = false;
  wl::AmgParams prm = small_amg();
  prm.rows = 10'000;
  expect_sharded_equivalence(
      "amg",
      [prm](ProcessCtx& proc) {
        wl::Amg amg(proc, prm);
        return amg.run().checksum;
      },
      pcfg);
}

// ------------------------------------------------ telemetry exactness --

// The counters bumped per access or per deferral live in per-core cells
// written without atomic RMWs. Whatever host threads drive the cores,
// their registry totals must match the twin's exactly, and the summing
// accessors must agree with the registry.
struct TelemetryRun {
  std::map<std::string, std::uint64_t> delta;  // series key -> increase
  sim::MemLevelStats stats;
  std::uint64_t pmu_events = 0;
  std::uint64_t pmu_samples = 0;
};

bool is_per_access_series(const obs::SnapshotEntry& e) {
  return e.kind == obs::MetricKind::kCounter &&
         (e.name == "sim.accesses" || e.name == "sim.tlb_misses" ||
          e.name == "sim.prefetched" || e.name == "pmu.events" ||
          e.name == "pmu.samples" || e.name == "rt.sharded.deferred");
}

template <typename Body>
TelemetryRun run_telemetry(rt::ExecConfig exec, const std::string& exe,
                           Body&& body) {
  const obs::Snapshot before = obs::Registry::global().snapshot();
  TelemetryRun out;
  {
    ProcessCtx proc(node_config(), kThreads, exe, exec);
    proc.enable_profiling(wl::ibs_config(512));
    body(proc);
    out.stats = proc.machine().memory().stats();
    const pmu::PmuSet& pmu = *proc.pmu();
    for (std::size_t i = 0; i < pmu.configs().size(); ++i) {
      out.pmu_events += pmu.events_counted(i);
    }
    out.pmu_samples = pmu.samples_taken();
  }
  for (const obs::SnapshotEntry& e :
       obs::Registry::global().snapshot().entries) {
    if (is_per_access_series(e)) {
      out.delta[e.key()] = e.value - before.value(e.key());
    }
  }
  return out;
}

void expect_accessors_match_registry(const TelemetryRun& r) {
  const auto d = [&r](const std::string& key) {
    const auto it = r.delta.find(key);
    return it == r.delta.end() ? 0 : it->second;
  };
  EXPECT_EQ(r.stats.l1_hits, d("sim.accesses{level=l1}"));
  EXPECT_EQ(r.stats.l2_hits, d("sim.accesses{level=l2}"));
  EXPECT_EQ(r.stats.l3_hits, d("sim.accesses{level=l3}"));
  EXPECT_EQ(r.stats.local_dram, d("sim.accesses{level=local_dram}"));
  EXPECT_EQ(r.stats.remote_dram, d("sim.accesses{level=remote_dram}"));
  EXPECT_EQ(r.stats.tlb_misses, d("sim.tlb_misses"));
  EXPECT_EQ(r.stats.prefetched, d("sim.prefetched"));
  EXPECT_EQ(r.pmu_events, d("pmu.events{event=IBS_OP}"));
  EXPECT_EQ(r.pmu_samples, d("pmu.samples"));
  EXPECT_GT(r.stats.l1_hits, 0u);
  EXPECT_GT(r.stats.local_dram + r.stats.remote_dram, 0u);
  EXPECT_GT(r.stats.tlb_misses, 0u);
  EXPECT_GT(r.pmu_samples, 0u);
}

/// Runs `body` on both backends and returns the concurrent run.
template <typename Body>
TelemetryRun expect_telemetry_equal(rt::ExecConfig twin,
                                    rt::ExecConfig concurrent, Body&& body) {
  const TelemetryRun ref = run_telemetry(twin, "telemetry", body);
  TelemetryRun got = run_telemetry(concurrent, "telemetry", body);
  expect_accessors_match_registry(ref);
  expect_accessors_match_registry(got);
  EXPECT_EQ(ref.delta, got.delta);
  return got;
}

rt::ExecConfig exec_of(rt::BackendKind kind, bool sharded_serial = false) {
  rt::ExecConfig exec;
  exec.backend = kind;
  exec.sharded_serial = sharded_serial;
  return exec;
}

double run_small_amg(ProcessCtx& proc) {
  wl::Amg amg(proc, small_amg());
  return amg.run().checksum;
}

double run_small_streamcluster(ProcessCtx& proc) {
  wl::StreamclusterParams prm;
  prm.npoints = 8'000;
  prm.dim = 8;
  prm.iters = 2;
  wl::Streamcluster sc(proc, prm);
  return sc.run().checksum;
}

TEST(TelemetryExactness, ShardedMatchesSerialTwin) {
  const rt::ExecConfig twin = exec_of(rt::BackendKind::kSharded, true);
  const rt::ExecConfig par = exec_of(rt::BackendKind::kSharded);
  for (const auto body : {run_small_amg, run_small_streamcluster}) {
    TelemetryRun got = expect_telemetry_equal(twin, par, body);
    EXPECT_GT(got.delta["rt.sharded.deferred{kind=first_touch}"] +
                  got.delta["rt.sharded.deferred{kind=remote}"],
              0u);
  }
}

// ------------------------------------------------------ PMU sample gate --

// Attached directly, a PmuSet opts into the machine's sample gate and is
// called only when a sample may be due (or a marked event's access
// arrives); behind a wrapper that does not opt in, it sees every event.
// Both must take exactly the same samples and count the same events, on
// every backend, through throttling and enable/disable.

/// Every sample's fields, comparable as one value.
auto sample_fields(const pmu::Sample& s) {
  return std::make_tuple(s.tid, s.core, s.precise_ip, s.signal_ip,
                         s.is_memory, s.eaddr, s.size, s.is_store,
                         s.latency, s.source, s.tlb_miss, s.event, s.at);
}
using SampleFields = decltype(sample_fields(pmu::Sample{}));

/// Samples per core, in delivery order (the order within one core is
/// deterministic on every backend; across cores it is not).
struct SampleLog {
  std::mutex mu;
  std::vector<std::vector<SampleFields>> by_core;
  explicit SampleLog(int cores) : by_core(static_cast<std::size_t>(cores)) {}
  void add(const pmu::Sample& s) {
    std::lock_guard lock(mu);
    by_core[static_cast<std::size_t>(s.core)].push_back(sample_fields(s));
  }
  std::size_t count(sim::CoreId core) {
    std::lock_guard lock(mu);
    return by_core[static_cast<std::size_t>(core)].size();
  }
};

/// A PmuSet that counts its calls that neither took a sample nor carried
/// a marked event's access: with a tight gate there are none.
class CountingPmu final : public pmu::PmuSet {
 public:
  CountingPmu(const sim::MachineConfig& cfg, std::vector<pmu::PmuConfig> c,
              SampleLog& log)
      : PmuSet(cfg, std::move(c)), log_(log) {}
  void on_access(const sim::MemAccess& a) override {
    const std::size_t n0 = log_.count(a.core);
    PmuSet::on_access(a);
    if (log_.count(a.core) == n0 && !marked(a)) ++wasted_;
  }
  void on_compute(sim::ThreadId tid, sim::CoreId core, std::uint64_t instrs,
                  sim::Addr ip, sim::Cycles now) override {
    const std::size_t n0 = log_.count(core);
    PmuSet::on_compute(tid, core, instrs, ip, now);
    if (log_.count(core) == n0) ++wasted_;
  }
  std::uint64_t wasted() const { return wasted_.load(); }

 private:
  bool marked(const sim::MemAccess& a) const {
    for (const pmu::PmuConfig& c : configs()) {
      const sim::MemLevel l = a.result.level;
      switch (c.event) {
        case pmu::EventKind::kIbsOp: break;
        case pmu::EventKind::kMarkedDataFromRMem:
          if (l == sim::MemLevel::kRemoteDram) return true;
          break;
        case pmu::EventKind::kMarkedDataFromLMem:
          if (l == sim::MemLevel::kLocalDram) return true;
          break;
        case pmu::EventKind::kMarkedDataFromL3:
          if (l == sim::MemLevel::kL3) return true;
          break;
        case pmu::EventKind::kMarkedTlbMiss:
          if (a.result.tlb_miss) return true;
          break;
      }
    }
    return false;
  }
  SampleLog& log_;
  std::atomic<std::uint64_t> wasted_{0};
};

/// Forwards every event without opting into the gate.
class PassThrough final : public sim::AccessObserver {
 public:
  explicit PassThrough(sim::AccessObserver& inner) : inner_(inner) {}
  void on_access(const sim::MemAccess& a) override { inner_.on_access(a); }
  void on_compute(sim::ThreadId tid, sim::CoreId core, std::uint64_t instrs,
                  sim::Addr ip, sim::Cycles now) override {
    inner_.on_compute(tid, core, instrs, ip, now);
  }

 private:
  sim::AccessObserver& inner_;
};

struct GateRun {
  std::vector<std::vector<SampleFields>> samples;  // by core
  std::vector<std::uint64_t> events;               // events_counted(i)
  std::uint64_t samples_taken = 0;
  std::uint64_t wasted = 0;
  std::map<std::string, std::uint64_t> delta;      // per-access series
};

/// A kernel with every kind of event: first touch on one socket, then
/// remote and local DRAM fills, page-strided reads (TLB misses), stores
/// and compute batches of up to ~1000 ops; throttled and disabled for a
/// phase each, at quiescent points.
GateRun run_gated(rt::ExecConfig exec, std::vector<pmu::PmuConfig> cfgs,
                  bool wrapped) {
  const obs::Snapshot before = obs::Registry::global().snapshot();
  GateRun out;
  {
    ProcessCtx proc(node_config(), kThreads, "pmu-gate", exec);
    const sim::MachineConfig& mc = proc.machine().config();
    SampleLog log(mc.num_cores());
    CountingPmu pmu(mc, cfgs, log);
    pmu.set_handler([&log](const pmu::Sample& s) { log.add(s); });
    PassThrough wrapper(pmu);
    if (wrapped) {
      proc.machine().set_observer(&wrapper);
    } else {
      proc.machine().set_observer(&pmu);
    }
    binfmt::LoadModule& exe = proc.exe();
    const auto f = exe.add_function("kernel", "gate.c");
    const sim::Addr ip_init = exe.add_instr(f, 1);
    const sim::Addr ip_read = exe.add_instr(f, 2);
    const sim::Addr ip_work = exe.add_instr(f, 3);
    constexpr std::int64_t kN = 24'000;
    rt::SimArray<double> a;
    rt::SimArray<double> b;
    proc.team().single([&](rt::ThreadCtx& t) {
      a = rt::SimArray<double>::malloc_in(proc.alloc(), t, kN, ip_init);
      b = rt::SimArray<double>::malloc_in(proc.alloc(), t, kN, ip_init);
      for (std::int64_t i = 0; i < kN; ++i) {
        a.set(t, static_cast<std::uint64_t>(i), 1.0, ip_init);
      }
    });
    const auto sweep = [&](std::int64_t stride) {
      proc.team().parallel_for(0, kN, [&](rt::ThreadCtx& t, std::int64_t i) {
        const auto j = static_cast<std::uint64_t>((i * stride) % kN);
        const double v = a.get(t, j, ip_read);
        if (i % 3 == 0) b.set(t, j, v, ip_work);
        if (i % 5 == 0) t.compute(static_cast<std::uint64_t>(i % 997), ip_work);
      });
    };
    sweep(1);
    pmu.set_period_scale(2);
    sweep(513);  // one element per page: TLB misses
    pmu.set_enabled(false);
    sweep(7);
    pmu.set_enabled(true);
    sweep(1);
    for (std::size_t i = 0; i < pmu.configs().size(); ++i) {
      out.events.push_back(pmu.events_counted(i));
    }
    proc.machine().set_observer(nullptr);
    out.samples_taken = pmu.samples_taken();
    out.wasted = pmu.wasted();
    out.samples = std::move(log.by_core);
  }
  for (const obs::SnapshotEntry& e :
       obs::Registry::global().snapshot().entries) {
    if (is_per_access_series(e)) {
      out.delta[e.key()] = e.value - before.value(e.key());
    }
  }
  return out;
}

/// Runs the kernel gated and wrapped on det, sockets and the sockets
/// backend's serial twin; every pair must match exactly.
void expect_gate_exact(const std::vector<pmu::PmuConfig>& cfgs) {
  const rt::ExecConfig backends[] = {
      exec_of(rt::BackendKind::kDeterministic),
      exec_of(rt::BackendKind::kSharded),
      exec_of(rt::BackendKind::kSharded, true)};
  for (const rt::ExecConfig& exec : backends) {
    SCOPED_TRACE(std::string(rt::to_string(exec.backend)) +
                 (exec.sharded_serial ? " (serial)" : ""));
    const GateRun gated = run_gated(exec, cfgs, false);
    const GateRun per_event = run_gated(exec, cfgs, true);
    EXPECT_EQ(gated.samples, per_event.samples);
    EXPECT_EQ(gated.events, per_event.events);
    EXPECT_EQ(gated.samples_taken, per_event.samples_taken);
    EXPECT_EQ(gated.delta, per_event.delta);
    EXPECT_EQ(gated.wasted, 0u) << "the gate called the PMU early";
    std::uint64_t total = 0;
    for (const auto& core : gated.samples) total += core.size();
    EXPECT_EQ(total, gated.samples_taken);
    EXPECT_GT(total, 0u);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      EXPECT_GT(gated.events[i], 0u) << "cfg " << i;
    }
  }
}

pmu::PmuConfig gate_cfg(pmu::EventKind kind, std::uint64_t period,
                        std::uint64_t jitter = 0) {
  return pmu::PmuConfig{kind, period, 2, jitter};
}

TEST(PmuGate, IbsWithJitterPeriod64) {
  expect_gate_exact({gate_cfg(pmu::EventKind::kIbsOp, 64, 8)});
}

TEST(PmuGate, IbsWithJitterPeriod1024) {
  expect_gate_exact({gate_cfg(pmu::EventKind::kIbsOp, 1024, 128)});
}

TEST(PmuGate, TwoIbsConfigsWithDifferentPeriods) {
  expect_gate_exact({gate_cfg(pmu::EventKind::kIbsOp, 100),
                     gate_cfg(pmu::EventKind::kIbsOp, 257, 16)});
}

TEST(PmuGate, IbsPlusMarkedRemoteDram) {
  expect_gate_exact({gate_cfg(pmu::EventKind::kIbsOp, 512, 64),
                     gate_cfg(pmu::EventKind::kMarkedDataFromRMem, 3)});
}

TEST(PmuGate, MarkedOnly) {
  expect_gate_exact({gate_cfg(pmu::EventKind::kMarkedDataFromRMem, 2),
                     gate_cfg(pmu::EventKind::kMarkedDataFromLMem, 3, 1),
                     gate_cfg(pmu::EventKind::kMarkedDataFromL3, 5)});
}

TEST(PmuGate, MarkedTlbMiss) {
  expect_gate_exact({gate_cfg(pmu::EventKind::kMarkedTlbMiss, 4, 1)});
}

}  // namespace
}  // namespace dcprof
