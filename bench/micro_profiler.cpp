// Microbenchmarks (google-benchmark) for the profiler's hot paths: CCT
// insertion, heap interval-map lookup, end-to-end sample attribution,
// memoized vs. full unwinds, and the underlying machine model.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/alloc_tracker.h"
#include "core/cct.h"
#include "core/profiler.h"
#include "core/var_map.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "pmu/pmu.h"
#include "rt/team.h"
#include "sim/address_space.h"
#include "sim/machine.h"
#include "workloads/harness.h"

using namespace dcprof;

namespace {

std::vector<sim::Addr> make_path(int depth, sim::Addr seed) {
  std::vector<sim::Addr> path;
  path.reserve(static_cast<std::size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    path.push_back(0x400000 + seed * 1000 + static_cast<sim::Addr>(i) * 4);
  }
  return path;
}

void BM_CctInsertPath(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  core::Cct cct;
  std::uint64_t i = 0;
  // 64 distinct paths of the given depth, repeatedly re-inserted
  // (the common case: hot contexts recur).
  std::vector<std::vector<sim::Addr>> paths;
  for (int p = 0; p < 64; ++p) paths.push_back(make_path(depth, p));
  for (auto _ : state) {
    const auto& path = paths[i++ % paths.size()];
    benchmark::DoNotOptimize(cct.insert_path(
        core::Cct::kRootId, path, core::NodeKind::kLeafInstr, 0x999));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CctInsertPath)->Arg(4)->Arg(16)->Arg(64);

void BM_HeapMapLookup(benchmark::State& state) {
  const auto blocks = static_cast<std::uint64_t>(state.range(0));
  core::HeapVarMap map;
  core::AllocPathSet paths;
  auto path = paths.intern(core::AllocPath{make_path(8, 1), 0x1234});
  for (std::uint64_t b = 0; b < blocks; ++b) {
    map.insert(0x7f0000000000ull + b * 4096, 2048, path);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    const sim::Addr addr = 0x7f0000000000ull + (i++ % blocks) * 4096 + 512;
    benchmark::DoNotOptimize(map.find(addr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapMapLookup)->Arg(64)->Arg(4096)->Arg(262144);

void BM_AttributeHeapSample(benchmark::State& state) {
  sim::MachineConfig cfg = wl::node_config();
  sim::Machine machine(cfg);
  rt::Team team(machine, 1);
  binfmt::ModuleRegistry modules;
  binfmt::LoadModule exe("bench", machine.aspace());
  modules.load(&exe);
  const auto f = exe.add_function("f", "f.c");
  const sim::Addr ip = exe.add_instr(f, 1);
  core::Profiler profiler(modules);
  profiler.register_team(team);
  // One tracked block.
  rt::ThreadCtx& t = team.master();
  t.push_frame(ip);
  profiler.tracker().on_alloc(t, 0x7f0000000000ull, 1 << 20, ip);
  pmu::Sample sample;
  sample.tid = 0;
  sample.is_memory = true;
  sample.precise_ip = ip;
  sample.eaddr = 0x7f0000000100ull;
  sample.latency = 200;
  sample.source = sim::MemLevel::kRemoteDram;
  for (auto _ : state) {
    profiler.handle_sample(sample);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttributeHeapSample);

void BM_Unwind(benchmark::State& state) {
  const bool memoized = state.range(0) != 0;
  const int depth = static_cast<int>(state.range(1));
  sim::MachineConfig cfg = wl::node_config();
  sim::Machine machine(cfg);
  rt::Team team(machine, 1);
  rt::ThreadCtx& t = team.master();
  for (int i = 0; i < depth; ++i) t.push_frame(0x400000 + i * 4ull);
  core::HeapVarMap map;
  core::AllocPathSet paths;
  core::TrackerConfig tc;
  tc.track_all = true;
  tc.memoized_unwind = memoized;
  core::AllocTracker tracker(map, paths, tc);
  sim::Addr base = 0x7f0000000000ull;
  for (auto _ : state) {
    tracker.on_alloc(t, base, 8192, 0x500000);
    tracker.on_free(t, base, 8192);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Unwind)
    ->ArgsProduct({{0, 1}, {8, 32}})
    ->ArgNames({"memoized", "depth"});

// --- Attribution-throughput suite -----------------------------------
// End-to-end handle_sample cost for the three storage classes, under the
// access patterns that dominate real runs: the same hot context sampled
// repeatedly, two contexts alternating (partial prefix reuse), and a
// heap/static/stack mix. `fast` toggles the attribution caches so the
// memoized path can be compared against the uncached walk in one binary.
struct AttrFixture {
  AttrFixture(int depth, bool fast, bool patterns = true)
      : machine(wl::node_config()), team(machine, 2) {
    exe = std::make_unique<binfmt::LoadModule>("bench", machine.aspace());
    modules.load(exe.get());
    const auto f = exe->add_function("f", "f.c");
    ip = exe->add_instr(f, 1);
    static_base = exe->add_static_var("g_table", 1 << 20);
    core::ProfilerConfig cfg;
    cfg.memoized_attribution = fast;
    cfg.var_map_mru = fast;
    cfg.access_patterns = patterns;
    profiler = std::make_unique<core::Profiler>(modules, cfg);
    profiler->register_team(team);
    rt::ThreadCtx& t = team.master();
    for (int i = 0; i < depth; ++i) {
      t.push_frame(0x400000 + static_cast<sim::Addr>(i) * 4);
    }
    profiler->tracker().on_alloc(t, kHeapBase, 1 << 20, ip);
  }

  pmu::Sample sample(sim::Addr eaddr) const {
    pmu::Sample s;
    s.tid = 0;
    s.is_memory = true;
    s.precise_ip = ip;
    s.signal_ip = ip;
    s.eaddr = eaddr;
    s.latency = 200;
    s.source = sim::MemLevel::kRemoteDram;
    return s;
  }

  static constexpr sim::Addr kHeapBase = 0x7f0000000000ull;

  sim::Machine machine;
  rt::Team team;
  binfmt::ModuleRegistry modules;
  std::unique_ptr<binfmt::LoadModule> exe;
  std::unique_ptr<core::Profiler> profiler;
  sim::Addr ip = 0;
  sim::Addr static_base = 0;
};

void BM_AttributeHotRepeated(benchmark::State& state) {
  AttrFixture f(static_cast<int>(state.range(1)), state.range(0) != 0);
  const pmu::Sample s = f.sample(AttrFixture::kHeapBase + 0x100);
  for (auto _ : state) {
    f.profiler->handle_sample(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttributeHotRepeated)
    ->ArgsProduct({{0, 1}, {8, 32}})
    ->ArgNames({"fast", "depth"});

void BM_AttributeAlternating(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(1));
  AttrFixture f(depth, state.range(0) != 0);
  const pmu::Sample s = f.sample(AttrFixture::kHeapBase + 0x100);
  rt::ThreadCtx& t = f.team.master();
  const int tail = depth / 2;
  sim::Addr variant = 0x600000;
  for (auto _ : state) {
    // Swap out the innermost half of the context between samples.
    for (int i = 0; i < tail; ++i) t.pop_frame();
    for (int i = 0; i < tail; ++i) {
      t.push_frame(variant + static_cast<sim::Addr>(i) * 4);
    }
    variant ^= 0x100000;  // two alternating calling contexts
    f.profiler->handle_sample(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttributeAlternating)
    ->ArgsProduct({{0, 1}, {8, 32}})
    ->ArgNames({"fast", "depth"});

void BM_AttributeMixedClasses(benchmark::State& state) {
  AttrFixture f(static_cast<int>(state.range(1)), state.range(0) != 0);
  const pmu::Sample samples[3] = {
      f.sample(AttrFixture::kHeapBase + 0x100),         // heap block
      f.sample(f.static_base + 64),                     // static variable
      f.sample(sim::kStackBase + 0x100),                // stack segment
  };
  std::uint64_t i = 0;
  for (auto _ : state) {
    f.profiler->handle_sample(samples[i++ % 3]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttributeMixedClasses)
    ->ArgsProduct({{0, 1}, {8, 32}})
    ->ArgNames({"fast", "depth"});

// End-to-end handle_sample with the self-telemetry layer in its three
// states: 0 = everything off (the default; must stay within noise of
// the pre-telemetry hot path — tools/run_bench.sh asserts it against
// BM_AttributeHotRepeated/fast:1/depth:32), 1 = metrics registry on
// (two clock reads + histogram records per sample), 2 = metrics plus
// event tracing (one ring-buffer span per sample).
void BM_SampleHandler(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  obs::set_metrics_enabled(mode >= 1);
  obs::Tracer::set_enabled(mode >= 2);
  AttrFixture f(32, true);
  const pmu::Sample s = f.sample(AttrFixture::kHeapBase + 0x100);
  for (auto _ : state) {
    f.profiler->handle_sample(s);
  }
  state.SetItemsProcessed(state.iterations());
  obs::set_metrics_enabled(false);
  obs::Tracer::set_enabled(false);
}
BENCHMARK(BM_SampleHandler)->Arg(0)->Arg(1)->Arg(2)->ArgNames({"telemetry"});

// v4 access-pattern recording cost on the canonical BM_SampleHandler
// workload: the same hot sample with the per-variable pattern tables
// off (0) vs on (1) — one level/channel, reuse-distance, and stride
// update per memory sample when on.
// tools/run_bench.sh gates the on/off ratio at <= 5%.
void BM_SampleHandlerPatterns(benchmark::State& state) {
  AttrFixture f(32, true, state.range(0) != 0);
  const pmu::Sample s = f.sample(AttrFixture::kHeapBase + 0x100);
  for (auto _ : state) {
    f.profiler->handle_sample(s);
  }
  state.SetItemsProcessed(state.iterations());
}
// Repetitions + median aggregates so the run_bench.sh gate compares a
// stable statistic; pass --benchmark_enable_random_interleaving so the
// on/off repetitions sample the same thermal window.
BENCHMARK(BM_SampleHandlerPatterns)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"patterns"})
    ->Repetitions(9)
    ->ReportAggregatesOnly(true);

// Worst-case pattern-recording cost: every sample lands on a new cache
// line, so each record misses the same-line memo and probes (or grows)
// the per-variable line table. Reported for visibility, not gated —
// real sample streams cluster on hot lines.
void BM_SampleHandlerPatternsStride(benchmark::State& state) {
  AttrFixture f(32, true, state.range(0) != 0);
  pmu::Sample samples[64];
  for (int i = 0; i < 64; ++i) {
    samples[i] =
        f.sample(AttrFixture::kHeapBase + static_cast<sim::Addr>(i) * 64);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    f.profiler->handle_sample(samples[i++ & 63]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampleHandlerPatternsStride)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"patterns"});

void BM_MachineAccessL1Hit(benchmark::State& state) {
  sim::Machine machine(wl::node_config());
  sim::Cycles clock = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        machine.access(0, 0, 0x400000, 0x10000000, 8, false, clock));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MachineAccessL1Hit);

void BM_MachineAccessStream(benchmark::State& state) {
  sim::Machine machine(wl::node_config());
  sim::Cycles clock = 0;
  sim::Addr addr = 0x10000000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        machine.access(0, 0, 0x400000, addr, 8, false, clock));
    addr += 8;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MachineAccessStream);

/// Forwards every event to `inner` without opting into the sample gate.
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

/// A streaming walk over 4 MiB under an IBS-1024 PmuSet, attached
/// directly (wrapped:0, gated: called only when a sample is due) or
/// behind a pass-through wrapper (wrapped:1, called on every access).
void BM_MachineAccessObserved(benchmark::State& state) {
  const sim::MachineConfig cfg = wl::node_config();
  sim::Machine machine(cfg);
  pmu::PmuSet pmu(cfg, wl::ibs_config(1024));
  std::uint64_t samples = 0;
  pmu.set_handler([&samples](const pmu::Sample&) { ++samples; });
  PassThrough wrapper(pmu);
  if (state.range(0) == 0) {
    machine.set_observer(&pmu);
  } else {
    machine.set_observer(&wrapper);
  }
  sim::Cycles clock = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    const sim::Addr addr = 0x10000000 + (i++ * 8) % (4u << 20);
    benchmark::DoNotOptimize(
        machine.access(0, 0, 0x400000, addr, 8, false, clock));
  }
  machine.set_observer(nullptr);
  benchmark::DoNotOptimize(samples);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MachineAccessObserved)->Arg(0)->Arg(1)->ArgNames({"wrapped"});

void BM_PmuObserve(benchmark::State& state) {
  sim::MachineConfig cfg = wl::node_config();
  pmu::PmuSet pmu(cfg, wl::rmem_config(64));
  sim::MemAccess access;
  access.result.level = sim::MemLevel::kL1;
  for (auto _ : state) {
    pmu.on_access(access);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PmuObserve);

void BM_ProfileSerialize(benchmark::State& state) {
  core::ThreadProfile profile;
  auto& cct = profile.cct(core::StorageClass::kHeap);
  for (int p = 0; p < 512; ++p) {
    const auto path = make_path(12, p);
    const auto leaf = cct.insert_path(core::Cct::kRootId, path,
                                      core::NodeKind::kLeafInstr, p);
    core::MetricVec m;
    m[core::Metric::kSamples] = 1;
    cct.add_metrics(leaf, m);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile.serialized_bytes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileSerialize);

}  // namespace

BENCHMARK_MAIN();
