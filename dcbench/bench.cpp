// dcbench — the dcprof end-to-end benchmark program (see README.md).
//
//   dcbench --workload NAME --seed N --seconds S --trace 0|1
//           --work DIR [--trace-out FILE]
//
// Runs one workload through dcprof's public APIs for S seconds, checks
// every output, and prints as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer ledger with --trace 1. The line before
// it is a JSON object with the host/build context and per-op samples.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "ledger.h"
#include "obs/registry.h"
#include "rt/cluster.h"
#include "rt/exec.h"
#include "workloads/amg.h"
#include "workloads/harness.h"
#include "workloads/lulesh.h"
#include "workloads/nw.h"
#include "workloads/streamcluster.h"
#include "workloads/sweep3d.h"

#ifndef DCBENCH_BUILD_TYPE
#define DCBENCH_BUILD_TYPE "unknown"
#endif
#ifndef DCBENCH_CXX
#define DCBENCH_CXX "unknown"
#endif

using namespace dcprof;
using namespace dcbench;
namespace fs = std::filesystem;

namespace {

// --- run configuration ------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path work;
  fs::path trace_out;
};

constexpr int kSetupRepeats = 3;
constexpr std::uint64_t kIbsPeriod = 1024;  // dcprof_measure's default
constexpr int kTeamThreads = 16;            // dcprof_measure's default
constexpr int kSweepRanks = 8;              // dcprof_measure's sweep3d job

/// The five case studies with their reference checksums: every run of a
/// study, profiled or not and on any backend, must reproduce these
/// values exactly (the simulator models time, never values).
struct Study {
  const char* name;
  double checksum;
};
constexpr Study kStudies[] = {
    {"amg", 23358190.630678598},
    {"lulesh", 88899.087079614386},
    {"streamcluster", 15510956.2793661},
    {"nw", 772},
    {"sweep3d", 2305236.2334958706},
};

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// CPU seconds this process has used so far, over all its threads.
double process_cpu_s() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string loadavg() {
  std::ifstream in("/proc/loadavg");
  double a = 0, b = 0, c = 0;
  in >> a >> b >> c;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[%.2f, %.2f, %.2f]", a, b, c);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A double with all its digits.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// FNV-1a over the names and bytes of every .dcpf file under `dir`.
std::uint64_t dcpf_digest(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".dcpf") {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto feed = [&h](const char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ static_cast<unsigned char>(p[i])) * 0x100000001b3ull;
    }
  };
  for (const fs::path& f : files) {
    const std::string rel = fs::relative(f, dir).string();
    feed(rel.data(), rel.size() + 1);
    std::ifstream in(f, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    feed(bytes.data(), bytes.size());
  }
  return h;
}

/// Sum over every registry series named `name` (all label sets).
std::uint64_t series_sum(const obs::Snapshot& snap, const std::string& name) {
  std::uint64_t v = 0;
  for (const auto& e : snap.entries) {
    if (e.name == name) v += e.value;
  }
  return v;
}

std::uint64_t series_value(const obs::Snapshot& snap, const std::string& name,
                           const std::string& label_value) {
  std::uint64_t v = 0;
  for (const auto& e : snap.entries) {
    if (e.name == name && !e.labels.empty() &&
        e.labels.front().second == label_value) {
      v += e.value;
    }
  }
  return v;
}

// --- results ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Failed checks of one op; an op with any failed check is a failed op.
struct Checks {
  std::vector<std::string> why;
  void expect(bool ok, const std::string& what) {
    if (!ok) why.push_back(what);
  }
};

/// Counts read from the simulator, the PMU and the runtime.
struct Counts {
  std::uint64_t accesses = 0, instructions = 0;
  std::uint64_t l1 = 0, l2 = 0, l3 = 0, dram_local = 0, dram_remote = 0;
  std::uint64_t tlb_misses = 0, dram_wait = 0;
  std::uint64_t pmu_events = 0, pmu_samples = 0;
  std::uint64_t epochs = 0, deferred = 0, barrier_wait_ns = 0;

  /// Equal in every exact count (barrier wait is a time, not a count).
  bool same_counts(const Counts& o) const {
    Counts a = *this, b = o;
    a.barrier_wait_ns = b.barrier_wait_ns = 0;
    return std::memcmp(&a, &b, sizeof(Counts)) == 0;
  }

  /// The registry-visible part: the difference between two snapshots.
  void add_registry(const obs::Snapshot& a, const obs::Snapshot& b) {
    const auto d = [&](const char* n, const char* lv) {
      return series_value(b, n, lv) - series_value(a, n, lv);
    };
    const auto s = [&](const char* n) {
      return series_sum(b, n) - series_sum(a, n);
    };
    l1 += d("sim.accesses", "l1");
    l2 += d("sim.accesses", "l2");
    l3 += d("sim.accesses", "l3");
    dram_local += d("sim.accesses", "local_dram");
    dram_remote += d("sim.accesses", "remote_dram");
    tlb_misses += s("sim.tlb_misses");
    pmu_events += s("pmu.events");
    pmu_samples += s("pmu.samples");
    epochs += s("rt.sharded.epochs");
    deferred += s("rt.sharded.deferred");
    barrier_wait_ns += s("rt.sharded.barrier_wait_ns");
  }

  /// The machine-only part (instructions, accesses, DRAM queueing).
  void add_machine(const sim::Machine& m) {
    accesses += m.memory_accesses();
    instructions += m.instructions_retired();
    for (int n = 0; n < m.config().num_nodes(); ++n) {
      dram_wait += m.memory().controller(n).total_wait();
    }
  }
};

// --- measure / measure-sockets ---------------------------------------

enum class PassMode { kPlain, kTraced, kUnprofiled };

struct PassStats {
  double wall_s = 0;
  double construct_s = 0, run_s = 0, write_s = 0, analyze_dir_s = 0;
  double run_cpu_s = 0;  ///< CPU seconds (all host threads) of the runs
  std::uint64_t bytes = 0;
  std::uint64_t memo_reused = 0, memo_walked = 0;
  std::uint64_t mru_hits = 0, mru_misses = 0;
  Counts counts;
  HookTotals hooks;
  std::uint64_t digest = 0;
};

/// One workload object behind a uniform run().
using RunFn = std::function<wl::RunResult()>;

template <typename W, typename P>
RunFn make_run(wl::ProcessCtx& proc) {
  auto w = std::make_shared<W>(proc, P{});
  return [w] { return w->run(); };
}

RunFn construct_study(const std::string& name, wl::ProcessCtx& proc) {
  if (name == "amg") return make_run<wl::Amg, wl::AmgParams>(proc);
  if (name == "lulesh") return make_run<wl::Lulesh, wl::LuleshParams>(proc);
  if (name == "streamcluster") {
    return make_run<wl::Streamcluster, wl::StreamclusterParams>(proc);
  }
  if (name == "nw") return make_run<wl::Nw, wl::NwParams>(proc);
  throw std::logic_error("unknown case study " + name);
}

/// Per-process profiler cache statistics (read before write-out).
void add_profiler_stats(core::Profiler& prof, PassStats& st) {
  const core::ProfilerStats s = prof.stats();
  st.memo_reused += s.memo_frames_reused;
  st.memo_walked += s.memo_frames_walked;
  const core::VarMapStats v = prof.heap_map().stats();
  st.mru_hits += v.mru_hits;
  st.mru_misses += v.mru_misses;
}

/// Runs one single-process case study the way dcprof_measure does.
void run_threaded_study(const std::string& name, rt::BackendKind backend,
                        PassMode mode, const fs::path& dir, PassStats& st,
                        Checks& checks, double reference) {
  const bool profiled = mode != PassMode::kUnprofiled;
  Timer construct("workloads.construct:" + name, &st.construct_s);
  rt::ExecConfig exec;
  exec.backend = backend;
  wl::ProcessCtx proc(wl::node_config(), kTeamThreads, name, exec);
  RunFn run = construct_study(name, proc);
  if (profiled) proc.enable_profiling(wl::ibs_config(kIbsPeriod));
  std::optional<Interposer> hooks;
  if (mode == PassMode::kTraced) hooks.emplace(proc);
  construct.stop();

  wl::RunResult r;
  {
    const double cpu0 = process_cpu_s();
    Timer t("workloads.run:" + name, &st.run_s);
    r = run();
    st.run_cpu_s += process_cpu_s() - cpu0;
  }
  checks.expect(r.checksum == reference,
                name + ": checksum " + num(r.checksum) + " != reference");
  st.counts.add_machine(proc.machine());
  if (!profiled) return;
  add_profiler_stats(*proc.profiler(), st);
  Timer t("core.write:" + name, &st.write_s);
  st.bytes += proc.write_measurements(dir.string());
}

/// Sweep3D: the pure-MPI job, one rank per host thread, every rank
/// writing its own profiles into the shared directory. Phase times are
/// the slowest rank's.
void run_sweep3d(rt::BackendKind backend, PassMode mode, const fs::path& dir,
                 PassStats& st, Checks& checks, double reference) {
  const bool profiled = mode != PassMode::kUnprofiled;
  rt::ExecConfig exec;
  exec.backend = backend;
  rt::Cluster cluster(kSweepRanks, wl::rank_config(), 1, exec);
  wl::Sweep3dParams prm;
  std::mutex mu;
  std::vector<double> checksums(kSweepRanks, 0);
  double construct_s = 0, run_s = 0, write_s = 0;
  const double cpu0 = process_cpu_s();
  cluster.run([&](rt::Rank& rank) {
    double c = 0, r = 0, w = 0;
    Timer construct("workloads.construct:sweep3d", &c);
    wl::ProcessCtx proc(rank, "sweep3d");
    if (profiled) {
      proc.enable_profiling(wl::ibs_config(kIbsPeriod), {}, rank.id());
    }
    std::optional<Interposer> hooks;
    if (mode == PassMode::kTraced) hooks.emplace(proc);
    wl::Sweep3dRank work(proc, prm, &rank);
    construct.stop();
    wl::RunResult res;
    {
      Timer t("workloads.run:sweep3d", &r);
      res = work.run();
    }
    PassStats local;
    local.counts.add_machine(proc.machine());
    if (profiled) {
      add_profiler_stats(*proc.profiler(), local);
      Timer t("core.write:sweep3d", &w);
      local.bytes = proc.write_measurements(dir.string());
    }
    std::lock_guard lock(mu);
    checksums[static_cast<std::size_t>(rank.id())] = res.checksum;
    construct_s = std::max(construct_s, c);
    run_s = std::max(run_s, r);
    write_s = std::max(write_s, w);
    st.bytes += local.bytes;
    st.memo_reused += local.memo_reused;
    st.memo_walked += local.memo_walked;
    st.mru_hits += local.mru_hits;
    st.mru_misses += local.mru_misses;
    const Counts& k = local.counts;
    st.counts.accesses += k.accesses;
    st.counts.instructions += k.instructions;
    st.counts.dram_wait += k.dram_wait;
  });
  st.run_cpu_s += process_cpu_s() - cpu0;
  double sum = 0;
  for (const double c : checksums) sum += c;
  checks.expect(sum == reference,
                "sweep3d: checksum " + num(sum) + " != reference");
  st.construct_s += construct_s;
  st.run_s += run_s;
  st.write_s += write_s;
}

/// One profiling pass over the five case studies into `out`.
PassStats measure_pass(rt::BackendKind backend, PassMode mode,
                       const fs::path& out, Checks& checks) {
  fs::remove_all(out);
  fs::create_directories(out);
  PassStats st;
  Ledger::global().reset();
  const obs::Snapshot before = obs::Registry::global().snapshot();
  {
    Timer pass("measure.pass", &st.wall_s);
    for (const Study& s : kStudies) {
      const fs::path dir = out / s.name;
      if (std::string(s.name) == "sweep3d") {
        run_sweep3d(backend, mode, dir, st, checks, s.checksum);
      } else {
        run_threaded_study(s.name, backend, mode, dir, st, checks,
                           s.checksum);
      }
      if (mode == PassMode::kTraced) {
        // Time to first view of the just-written directory; not part of
        // the pass the user waits for, so it is taken out of the wall.
        Timer t(std::string("analysis.dir:") + s.name, &st.analyze_dir_s);
        analysis::Analyzer().run(dir);
      }
      // dcprof_measure runs each study in a process of its own; handing
      // the freed heap back keeps peak_rss_mb the largest study's peak.
      malloc_trim(0);
    }
  }
  st.wall_s -= st.analyze_dir_s;
  const obs::Snapshot after = obs::Registry::global().snapshot();
  st.counts.add_registry(before, after);
  st.hooks = Ledger::global().totals();
  if (mode != PassMode::kUnprofiled) st.digest = dcpf_digest(out);
  return st;
}

// --- the benchmark run --------------------------------------------------

struct Run {
  explicit Run(const Args& a) : args(a) {}
  const Args& args;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> op_samples;        ///< untraced op walls
  std::vector<double> setup_samples;
  std::map<std::string, std::string> facts;  ///< digests etc. (context)

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }

  /// Runs one op, which records its checks in `c`. The op fails when a
  /// check failed or it threw.
  void attempt(const std::function<void(Checks&)>& op) {
    Checks c;
    try {
      op(c);
    } catch (const std::exception& e) {
      c.why.push_back(std::string("exception: ") + e.what());
    }
    ++attempted;
    if (c.why.empty()) return;
    ++failed;
    for (const auto& w : c.why) {
      if (failures.size() < 20) failures.push_back(w);
    }
  }

  /// True while one more op, as long as the mean op since `since_ns`,
  /// would still end within --seconds of it. Ops run back to back from
  /// `since_ns`, so a run measures at most --seconds (and one op at
  /// least) instead of overshooting by up to one op.
  bool time_for_another(std::uint64_t since_ns) const {
    const double spent = static_cast<double>(now_ns() - since_ns) * 1e-9;
    const double ops = static_cast<double>(std::max<std::uint64_t>(attempted, 1));
    return spent + spent / ops <= args.seconds;
  }

  /// Times kSetupRepeats set-ups; setup_s is their median.
  void setup(const std::function<void()>& once) {
    for (int i = 0; i < kSetupRepeats; ++i) {
      double s = 0;
      {
        Timer t("setup", &s);
        once();
      }
      setup_samples.push_back(s);
    }
  }

  void put_end_to_end(double profile_bytes) {
    put("setup_s", median(setup_samples), "s");
    put("op_s", median(op_samples), "s");
    put("profile_bytes", profile_bytes, "bytes");
    put("peak_rss_mb", peak_rss_mb(), "MB");
  }
};

/// Every per-layer metric, in one fixed order; a workload fills the ones
/// it exercises and the rest read 0 (that layer did no work).
struct Layers {
  std::map<std::string, double> v;
  static const std::vector<std::pair<std::string, std::string>>& names() {
    static const std::vector<std::pair<std::string, std::string>> n = {
        {"workloads.construct_s", "s"},   {"workloads.run_s", "s"},
        {"sim.self_s", "s"},              {"sim.ns_per_access", "ns"},
        {"sim.unprofiled_s", "s"},        {"sim.self_vs_unprofiled_frac", "frac"},
        {"sim.accesses", "count"},        {"sim.instructions", "count"},
        {"sim.l1_hits", "count"},         {"sim.l2_hits", "count"},
        {"sim.l3_hits", "count"},         {"sim.dram_local", "count"},
        {"sim.dram_remote", "count"},     {"sim.tlb_misses", "count"},
        {"sim.dram_wait_cycles", "cycles"},
        {"pmu.observe_s", "s"},           {"pmu.events", "count"},
        {"pmu.samples", "count"},         {"pmu.ns_per_event", "ns"},
        {"core.sample_s", "s"},           {"core.ns_per_sample", "ns"},
        {"core.memo_hit_frac", "frac"},   {"core.varmap_mru_hit_frac", "frac"},
        {"core.deferred_attr_s", "s"},    {"core.quiescent_drain_s", "s"},
        {"core.write_s", "s"},            {"core.write_bytes", "bytes"},
        {"core.dilation_frac", "frac"},
        {"rt.sharded.epochs", "count"},   {"rt.sharded.deferred", "count"},
        {"rt.sharded.barrier_wait_s", "s"},
        {"analysis.dir_s", "s"},
        {"obs.trace_overhead_frac", "frac"},
        {"obs.unattributed_frac", "frac"},
    };
    return n;
  }
  void set(const std::string& name, double value) {
    for (const auto& known : names()) {
      if (known.first == name) {
        v[name] = value;
        return;
      }
    }
    throw std::logic_error("unknown layer metric " + name);
  }
  void emit(Run& run) const {
    for (const auto& [n, unit] : names()) {
      const auto it = v.find(n);
      run.put(n, it == v.end() ? 0.0 : it->second, unit);
    }
  }
  void set_counts(const Counts& c) {
    set("sim.accesses", static_cast<double>(c.accesses));
    set("sim.instructions", static_cast<double>(c.instructions));
    set("sim.l1_hits", static_cast<double>(c.l1));
    set("sim.l2_hits", static_cast<double>(c.l2));
    set("sim.l3_hits", static_cast<double>(c.l3));
    set("sim.dram_local", static_cast<double>(c.dram_local));
    set("sim.dram_remote", static_cast<double>(c.dram_remote));
    set("sim.tlb_misses", static_cast<double>(c.tlb_misses));
    set("sim.dram_wait_cycles", static_cast<double>(c.dram_wait));
    set("pmu.events", static_cast<double>(c.pmu_events));
    set("pmu.samples", static_cast<double>(c.pmu_samples));
    set("rt.sharded.epochs", static_cast<double>(c.epochs));
    set("rt.sharded.deferred", static_cast<double>(c.deferred));
    set("rt.sharded.barrier_wait_s",
        static_cast<double>(c.barrier_wait_ns) * 1e-9);
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void measure_workload(Run& run, rt::BackendKind backend) {
  const Args& a = run.args;
  const fs::path out = a.work / "measure";

  // Set-up is warm-up: one profiled NW run on this backend.
  run.setup([&] {
    const fs::path warm = a.work / "warm";
    fs::remove_all(warm);
    PassStats st;
    Checks c;
    run_threaded_study("nw", backend, PassMode::kPlain, warm, st, c,
                       kStudies[3].checksum);
    if (!c.why.empty()) throw std::runtime_error(c.why.front());
  });

  std::optional<std::uint64_t> digest;
  std::uint64_t bytes = 0;
  const auto pass = [&](PassMode mode, Checks& c) {
    PassStats st = measure_pass(backend, mode, out, c);
    if (mode != PassMode::kUnprofiled) {
      if (!digest) digest = st.digest;
      c.expect(st.digest == *digest, ".dcpf digest differs between passes");
      if (bytes == 0) bytes = st.bytes;
      c.expect(st.bytes == bytes, "profile bytes differ between passes");
    }
    return st;
  };

  const std::uint64_t t0 = now_ns();
  if (!a.trace) {
    do {
      run.attempt([&](Checks& c) {
        run.op_samples.push_back(pass(PassMode::kPlain, c).wall_s);
      });
    } while (run.time_for_another(t0));
    run.facts["dcpf_digest"] = hex(digest.value_or(0));
    run.put_end_to_end(static_cast<double>(bytes));
    return;
  }

  // Traced run: one plain pass (the overhead baseline), traced passes
  // while time remains, then one unprofiled pass (the cross-check).
  run.attempt([&](Checks& c) {
    run.op_samples.push_back(pass(PassMode::kPlain, c).wall_s);
  });
  std::vector<PassStats> traced;
  do {
    run.attempt([&](Checks& c) {
      traced.push_back(pass(PassMode::kTraced, c));
      c.expect(traced.back().counts.same_counts(traced.front().counts),
               "exact counts differ between traced passes");
    });
  } while (run.time_for_another(t0));
  double unprofiled_s = 0;
  run.attempt([&](Checks& c) {
    unprofiled_s = pass(PassMode::kUnprofiled, c).run_s;
  });
  if (traced.empty()) return;

  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const PassStats& p : traced) v.push_back(field(p));
    return median(v);
  };
  const PassStats& first = traced.front();
  const double wall = med([](const PassStats& p) { return p.wall_s; });
  const double run_s = med([](const PassStats& p) { return p.run_s; });
  const double observe_s =
      med([](const PassStats& p) { return p.hooks.observe_self_s; });
  const double sample_s = med([](const PassStats& p) {
    return p.hooks.sample_s + p.hooks.slice_s + p.hooks.quiescent_s;
  });
  const double write_s = med([](const PassStats& p) { return p.write_s; });
  const double construct_s =
      med([](const PassStats& p) { return p.construct_s; });
  // Hook times are summed over host threads. The simulator's share of
  // the run wall is the share of the run's CPU time (all threads) spent
  // outside the hooks and the epoch-barrier spin.
  const double cpu_s = med([](const PassStats& p) { return p.run_cpu_s; });
  const double barrier_s = static_cast<double>(first.counts.barrier_wait_ns) * 1e-9;
  const double self_s =
      run_s * ratio(cpu_s - observe_s - sample_s - barrier_s, cpu_s);

  Layers L;
  L.set_counts(first.counts);
  L.set("workloads.construct_s", construct_s);
  L.set("workloads.run_s", run_s);
  L.set("sim.self_s", self_s);
  L.set("sim.ns_per_access",
        1e9 * ratio(self_s, static_cast<double>(first.counts.accesses)));
  L.set("sim.unprofiled_s", unprofiled_s);
  L.set("sim.self_vs_unprofiled_frac",
        ratio(self_s - unprofiled_s, unprofiled_s));
  L.set("pmu.observe_s", observe_s);
  L.set("pmu.ns_per_event",
        1e9 * ratio(observe_s, static_cast<double>(first.counts.pmu_events)));
  L.set("core.sample_s", sample_s);
  L.set("core.ns_per_sample",
        1e9 * ratio(sample_s, static_cast<double>(first.counts.pmu_samples)));
  L.set("core.memo_hit_frac",
        ratio(static_cast<double>(first.memo_reused),
              static_cast<double>(first.memo_reused + first.memo_walked)));
  L.set("core.varmap_mru_hit_frac",
        ratio(static_cast<double>(first.mru_hits),
              static_cast<double>(first.mru_hits + first.mru_misses)));
  L.set("core.deferred_attr_s",
        med([](const PassStats& p) { return p.hooks.slice_s; }));
  L.set("core.quiescent_drain_s",
        med([](const PassStats& p) { return p.hooks.quiescent_s; }));
  L.set("core.write_s", write_s);
  L.set("core.write_bytes", static_cast<double>(first.bytes));
  // Hook thread-seconds as a share of the run wall, as for sim.self_s.
  const double hooks_wall = run_s * ratio(observe_s + sample_s, cpu_s);
  L.set("core.dilation_frac", ratio(hooks_wall + write_s, wall));
  L.set("analysis.dir_s",
        med([](const PassStats& p) { return p.analyze_dir_s; }));
  L.set("obs.trace_overhead_frac",
        ratio(wall - run.op_samples.front(), run.op_samples.front()));
  L.set("obs.unattributed_frac",
        ratio(wall - construct_s - run_s - write_s, wall));
  L.emit(run);
  run.facts["dcpf_digest"] = hex(digest.value_or(0));
}

// --- output and main -------------------------------------------------------

void print_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out << '\\' << ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out << ' ';
    } else {
      out << ch;
    }
  }
  out << '"';
}

void print_context(const Run& run, const std::string& load_before) {
  std::ostringstream out;
  out << "{\"context\": {\"workload\": ";
  print_json_string(out, run.args.workload);
  out << ", \"seed\": " << run.args.seed
      << ", \"seconds\": " << num(run.args.seconds)
      << ", \"trace\": " << (run.args.trace ? 1 : 0)
      << ", \"build_type\": \"" << DCBENCH_BUILD_TYPE << "\""
      << ", \"compiler\": \"" << DCBENCH_CXX << "\""
      << ", \"nproc\": " << host_cpus()
      << ", \"loadavg_before\": " << load_before
      << ", \"loadavg_after\": " << loadavg() << ", \"op_s_samples\": [";
  for (std::size_t i = 0; i < run.op_samples.size(); ++i) {
    out << (i ? ", " : "") << num(run.op_samples[i]);
  }
  out << "], \"setup_s_samples\": [";
  for (std::size_t i = 0; i < run.setup_samples.size(); ++i) {
    out << (i ? ", " : "") << num(run.setup_samples[i]);
  }
  out << "]";
  for (const auto& [k, v] : run.facts) {
    out << ", ";
    print_json_string(out, k);
    out << ": ";
    print_json_string(out, v);
  }
  out << ", \"failures\": [";
  for (std::size_t i = 0; i < run.failures.size(); ++i) {
    if (i) out << ", ";
    print_json_string(out, run.failures[i]);
  }
  out << "]}}";
  std::printf("%s\n", out.str().c_str());
}

void print_result(const Run& run) {
  std::ostringstream out;
  out << "{\"correct\": " << (run.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& m = run.metrics[i];
    if (i) out << ", ";
    print_json_string(out, m.name);
    out << ": {\"value\": " << num(m.value) << ", \"unit\": ";
    print_json_string(out, m.unit);
    out << "}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "dcbench: %s\nusage: dcbench --workload "
               "measure|measure-sockets "
               "--seed N --seconds S --trace 0|1 --work DIR "
               "[--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--work") {
      a.work = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return usage(("unknown option " + k).c_str());
    }
  }
  if (a.work.empty()) return usage("--work is required");
  if (!(a.seconds > 0)) return usage("--seconds must be positive");

  // A fixed mmap threshold turns off glibc's adaptive one, which moves
  // with the allocation history and made peak_rss_mb vary from run to
  // run: large blocks always go back to the OS.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const std::string load_before = loadavg();
  // Calibrate the ledger's clock before anything is timed.
  seconds_per_tick();
  tick_overhead();
  observe_bias_s();
  Run run(a);
  fs::create_directories(a.work);
  SpanLog::global().set_enabled(a.trace);
  try {
    if (a.workload == "measure") {
      measure_workload(run, rt::BackendKind::kDeterministic);
    } else if (a.workload == "measure-sockets") {
      measure_workload(run, rt::BackendKind::kSharded);
    } else {
      return usage(("unknown workload " + a.workload).c_str());
    }
  } catch (const std::exception& e) {
    // A set-up failure: nothing was measured, so no result line.
    std::fprintf(stderr, "dcbench: %s: set-up failed: %s\n",
                 a.workload.c_str(), e.what());
    return 1;
  }
  if (a.trace && !a.trace_out.empty() &&
      !SpanLog::global().write_json(a.trace_out.string())) {
    std::fprintf(stderr, "dcbench: cannot write %s\n",
                 a.trace_out.string().c_str());
  }
  print_context(run, load_before);
  print_result(run);
  return 0;
}
