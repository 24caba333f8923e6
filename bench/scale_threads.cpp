// BM_MeasureWall — end-to-end measurement wall-clock per execution
// backend: a full profiled workload run (ProcessCtx + PMU + profiler),
// which is simulation-bound, so it measures what the epoch-sharded
// backend's socket overlap buys over the deterministic one.
//
// tools/run_bench.sh records the suite to BENCH_scale.json and prints the
// det/sockets wall-clock ratio.
#include <benchmark/benchmark.h>

#include "rt/exec.h"
#include "workloads/harness.h"
#include "workloads/streamcluster.h"

using namespace dcprof;

namespace {

// End-to-end wall clock of one profiled measurement run per backend
// (arg: the rt::BackendKind value, 0 = det, 1 = sockets). The workload is
// dominated by *simulation*, not sample handling — on the det backend
// every simulated access is globally serialized, so this is the series
// the sharded backend's socket overlap shows up in.
void BM_MeasureWall(benchmark::State& state) {
  rt::ExecConfig exec;
  exec.backend = static_cast<rt::BackendKind>(state.range(0));
  wl::StreamclusterParams prm;
  prm.npoints = 20'000;
  prm.dim = 16;
  prm.iters = 2;
  double checksum = 0;
  for (auto _ : state) {
    wl::ProcessCtx proc(wl::node_config(), 16, "streamcluster", exec);
    proc.enable_profiling(wl::ibs_config(4096), {});
    wl::Streamcluster sc(proc, prm);
    checksum = sc.run().checksum;
    benchmark::DoNotOptimize(checksum);
    auto profiles = proc.take_profiles();
    benchmark::DoNotOptimize(profiles.size());
  }
  state.counters["checksum"] = benchmark::Counter(checksum);
}
BENCHMARK(BM_MeasureWall)
    ->Arg(static_cast<int>(rt::BackendKind::kDeterministic))
    ->Arg(static_cast<int>(rt::BackendKind::kSharded))
    ->ArgNames({"backend"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
