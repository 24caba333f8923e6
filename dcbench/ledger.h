// Outside-in per-layer ledger for the dcprof benchmark.
//
// Everything here times calls into dcprof's public API from the
// benchmark's side; nothing inside src/ is instrumented. The interposer
// wraps the three hooks a profiled process already exposes:
//
//   sim::Machine::set_observer   -> TimedObserver around the pmu::PmuSet
//   pmu::PmuSet::set_handler     -> a lambda around Profiler::handle_sample
//   rt::Team::set_exec_observer  -> TimedExec around the profiler's
//                                   on_slice_retired / on_quiescent
//
// Hook time is kept per host thread (one Tally per thread per ledger
// generation), so the same figure means the same thing on the det,
// threads and sockets backends. Observer calls are far too frequent to
// time each one, so a random ~1/32 of them is timed and scaled up; sample
// handling and the exec hooks are timed on every call.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/profiler.h"
#include "pmu/pmu.h"
#include "rt/exec.h"
#include "sim/machine.h"
#include "workloads/harness.h"

namespace dcbench {

/// Cheap monotonic tick source (TSC) and its calibration to seconds.
std::uint64_t ticks();
double seconds_per_tick();
/// Ticks a back-to-back pair of ticks() reads costs (taken off every
/// timed interval).
std::uint64_t tick_overhead();
/// Seconds the timed observer path reports per call around an empty
/// observer (taken off the observer estimate per call).
double observe_bias_s();

/// Hook time and call counts of one host thread. Single writer (the
/// owning thread); read at quiescent points.
struct Tally {
  std::atomic<std::uint64_t> observe_calls{0};
  std::atomic<std::uint64_t> observe_timed{0};
  std::atomic<std::uint64_t> observe_self_ticks{0};  ///< timed calls only
  std::atomic<std::uint64_t> sample_ticks{0};
  std::atomic<std::uint64_t> slice_ticks{0};
  std::atomic<std::uint64_t> quiescent_ticks{0};
};

/// Sum of every thread's tally, in seconds (observer time scaled up from
/// its timed calls).
struct HookTotals {
  double observe_self_s = 0;  ///< PmuSet work, sample handling excluded
  double sample_s = 0;        ///< Profiler::handle_sample
  double slice_s = 0;         ///< Profiler::on_slice_retired
  double quiescent_s = 0;     ///< Profiler::on_quiescent
};

/// Process-wide set of per-thread tallies. reset() starts a new
/// generation; call it and totals() only at quiescent points.
class Ledger {
 public:
  static Ledger& global();
  Tally& local();
  void reset();
  HookTotals totals() const;

 private:
  friend double observe_bias_s();
  mutable std::mutex mu_;
  std::deque<Tally> tallies_;
  std::atomic<std::uint64_t> generation_{1};
};

class TimedObserver final : public dcprof::sim::AccessObserver {
 public:
  explicit TimedObserver(dcprof::sim::AccessObserver& inner)
      : inner_(inner) {}
  void on_access(const dcprof::sim::MemAccess& access) override;
  void on_compute(dcprof::sim::ThreadId tid, dcprof::sim::CoreId core,
                  std::uint64_t instrs, dcprof::sim::Addr ip,
                  dcprof::sim::Cycles now) override;

 private:
  dcprof::sim::AccessObserver& inner_;
};

class TimedExec final : public dcprof::rt::ExecObserver {
 public:
  explicit TimedExec(dcprof::rt::ExecObserver& inner) : inner_(inner) {}
  void on_slice_retired(dcprof::rt::ThreadCtx& ctx) override;
  void on_quiescent(dcprof::rt::Team& team) override;

 private:
  dcprof::rt::ExecObserver& inner_;
};

/// Installs the timing wrappers on a profiled process (call after
/// enable_profiling) and puts the original hooks back on destruction.
class Interposer {
 public:
  explicit Interposer(dcprof::wl::ProcessCtx& proc);
  ~Interposer();
  Interposer(const Interposer&) = delete;
  Interposer& operator=(const Interposer&) = delete;

 private:
  dcprof::wl::ProcessCtx& proc_;
  TimedObserver observer_;
  TimedExec exec_;
};

/// Benchmark-side spans, written as Chrome trace_event JSON (Perfetto).
class SpanLog {
 public:
  static SpanLog& global();
  void set_enabled(bool on) { enabled_ = on; }
  void record(const std::string& name, std::uint64_t t0_ns,
              std::uint64_t t1_ns);
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t tid = 0;
    std::uint64_t t0_ns = 0;
    std::uint64_t t1_ns = 0;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  bool enabled_ = false;
};

/// steady_clock now, in ns.
std::uint64_t now_ns();

/// Times a scope; adds its seconds to `*acc` (if non-null) and records a
/// span named `name` when the span log is enabled.
class Timer {
 public:
  explicit Timer(std::string name, double* acc = nullptr)
      : name_(std::move(name)), acc_(acc), t0_(now_ns()) {}
  ~Timer() { stop(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  /// Ends the scope early; returns its seconds.
  double stop();

 private:
  std::string name_;
  double* acc_;
  std::uint64_t t0_;
  bool done_ = false;
  double s_ = 0;
};

}  // namespace dcbench
