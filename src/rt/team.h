// An OpenMP-like team of virtual threads. Parallel constructs execute
// through a pluggable ExecBackend (rt/exec.h): the default deterministic
// backend interleaves one chunk per thread per round on the calling host
// thread — which is what lets the simulation reproduce shared-L3 and
// DRAM-controller contention between worker threads — while the sharded
// backend runs each simulated socket's threads on its own std::thread and
// resolves cross-socket accesses at deterministic epoch barriers.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "rt/exec.h"
#include "rt/thread.h"
#include "sim/machine.h"

namespace dcprof::rt {

class Team {
 public:
  /// Creates `nthreads` virtual threads on `machine`, assigned to cores
  /// round-robin (SMT-style oversubscription allowed, as on POWER7).
  /// `exec` picks the execution backend (deterministic by default).
  Team(sim::Machine& machine, int nthreads, ExecConfig exec = {});
  ~Team();
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }
  ThreadCtx& thread(int t) { return *threads_[static_cast<std::size_t>(t)]; }
  ThreadCtx& master() { return *threads_[0]; }

  const ExecConfig& exec_config() const { return exec_cfg_; }
  /// True when team threads run on real host threads.
  bool concurrent() const { return exec_->concurrent(); }

  /// At most one observer (the profiler's deferred-ingest hooks); only
  /// consulted by concurrent backends. Set before running constructs.
  void set_exec_observer(ExecObserver* observer) { observer_ = observer; }
  ExecObserver* exec_observer() const { return observer_; }

  /// Synchronizes all thread clocks to the team maximum (a barrier).
  void barrier();

  /// Team wall-clock: the maximum thread clock.
  Cycles now() const;

  /// OpenMP-style static-scheduled parallel for over [begin, end).
  /// Each thread owns a contiguous block; execution interleaves one
  /// `chunk`-iteration slice per thread, round-robin, and ends with a
  /// barrier. `body(ThreadCtx&, i)` runs each iteration.
  template <typename Body>
  void parallel_for(std::int64_t begin, std::int64_t end, Body&& body,
                    std::int64_t chunk = 16) {
    using B = std::remove_reference_t<Body>;
    ForBodyRef ref{const_cast<void*>(static_cast<const void*>(&body)),
                   [](void* obj, ThreadCtx& ctx, std::int64_t i) {
                     (*static_cast<B*>(obj))(ctx, i);
                   }};
    exec_->run_for(*this, begin, end, chunk, ref);
  }

  /// Runs `body(ThreadCtx&)` once per thread (like an OpenMP parallel
  /// region with thread-id dispatch); threads execute their body to
  /// completion in tid order, then barrier.
  template <typename Body>
  void parallel_region(Body&& body) {
    using B = std::remove_reference_t<Body>;
    RegionBodyRef ref{const_cast<void*>(static_cast<const void*>(&body)),
                      [](void* obj, ThreadCtx& ctx) {
                        (*static_cast<B*>(obj))(ctx);
                      }};
    exec_->run_region(*this, ref);
  }

  /// Runs `body` on the master thread only (like `#pragma omp master`
  /// followed by a barrier). An epoch boundary for deferred ingest: the
  /// observer's quiescent hook fires so master-side samples flush.
  template <typename Body>
  void single(Body&& body) {
    barrier();
    body(master());
    quiesce();
    barrier();
  }

  /// Fires the observer's quiescent hook when a concurrent backend is
  /// active (workers are parked between constructs, so the calling
  /// thread may flush every per-thread buffer). No-op otherwise.
  void quiesce() {
    if (observer_ != nullptr && exec_->concurrent()) {
      observer_->on_quiescent(*this);
    }
  }

 private:
  std::vector<std::unique_ptr<ThreadCtx>> threads_;
  ExecConfig exec_cfg_;
  std::unique_ptr<ExecBackend> exec_;
  ExecObserver* observer_ = nullptr;
};

/// RAII frame pushed on *every* team thread: models workers executing an
/// outlined parallel-region function within the enclosing calling context
/// (so worker samples carry the full call path, as in the paper's GUI).
class TeamScope {
 public:
  TeamScope(Team& team, Addr call_site_ip) : team_(&team) {
    for (int t = 0; t < team_->size(); ++t) {
      team_->thread(t).push_frame(call_site_ip);
    }
  }
  ~TeamScope() {
    for (int t = 0; t < team_->size(); ++t) {
      team_->thread(t).pop_frame();
    }
  }
  TeamScope(const TeamScope&) = delete;
  TeamScope& operator=(const TeamScope&) = delete;

 private:
  Team* team_;
};

}  // namespace dcprof::rt
