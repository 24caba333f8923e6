// The simulated machine: ties memory system + address space together and
// publishes every executed instruction / memory access to an observer
// (the PMU attaches here).
//
// Concurrency contract (the threaded rt backend): core-private state —
// L1/L2/TLB/prefetcher and the per-core instruction/access shards below —
// is safe for concurrent callers on *distinct* cores. Shared structures
// (per-socket L3 content, DRAM controller queues, the first-touch page
// table) are deliberately left unsynchronized: their *results* depend on
// access order, so callers must serialize accesses into a deterministic
// global order anyway (rt's turn token does this, with release/acquire
// hand-off providing the happens-before chain). Telemetry written per
// access is per-core (level counts, PMU cells) or per-controller (DRAM
// queue totals) and single-writer under that same serialization, so it
// is bumped without atomic RMWs and stays exact across the hand-off.
//
// Epoch-sharded contract (rt's sharded backend): while a DeferSink is
// installed, sockets run concurrently against socket-private state and
// every access that would touch cross-socket shared state is routed to
// the sink instead of being served; the backend replays the queued
// accesses through resolve_deferred() at its epoch barriers, in one
// canonical order, with every worker parked. Allocation (which moves
// page-table policy state) is forbidden while a sink is installed —
// rt::Allocator enforces this.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/address_space.h"
#include "sim/config.h"
#include "sim/memory_system.h"
#include "sim/types.h"

namespace dcprof::sim {

/// Hook the PMU implements. The machine is observer-agnostic so `sim`
/// stays independent of `pmu`.
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  /// Called after each memory access has been resolved.
  virtual void on_access(const MemAccess& access) = 0;
  /// Called for non-memory work (`instrs` retired instructions). `ip`
  /// identifies the code region (representative instruction pointer).
  virtual void on_compute(ThreadId tid, CoreId core, std::uint64_t instrs,
                          Addr ip, Cycles now) = 0;
};

/// Hook the epoch-sharded execution backend implements: receives every
/// access whose DRAM resolution was postponed to an epoch barrier.
/// Called on the issuing thread's host thread, mid-slice.
class DeferSink {
 public:
  virtual ~DeferSink() = default;
  virtual void on_deferred(const DeferredAccess& d) = 0;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& cfg);

  const MachineConfig& config() const { return cfg_; }
  MemorySystem& memory() { return memory_; }
  const MemorySystem& memory() const { return memory_; }
  AddressSpace& aspace() { return aspace_; }
  const AddressSpace& aspace() const { return aspace_; }

  /// What-if placement/latency override table (sim/override.h): the
  /// causal advisor patches a variable's page ranges here before a
  /// re-run. Mutate only at quiescent points (no construct in flight).
  OverrideMap& overrides() { return memory_.overrides(); }
  const OverrideMap& overrides() const { return memory_.overrides(); }

  /// At most one observer (the PMU set); null detaches. Attach/detach at
  /// quiescent points only (no constructs in flight).
  void set_observer(AccessObserver* observer) { observer_ = observer; }
  AccessObserver* observer() const { return observer_; }

  /// Issues one memory access on `core` at instruction `ip`, advancing
  /// the caller's thread clock by the observed latency.
  AccessResult access(ThreadId tid, CoreId core, Addr ip, Addr addr,
                      std::uint32_t size, bool is_store, Cycles& clock);

  /// Retires `instrs` non-memory instructions (1 cycle each) attributed
  /// to code at `ip`.
  void compute(ThreadId tid, CoreId core, std::uint64_t instrs, Addr ip,
               Cycles& clock);

  /// Flips the machine into epoch-sharded mode (sink != nullptr): every
  /// cross-socket access is routed to `sink` instead of being served, and
  /// socket shards may call access() concurrently (distinct sockets
  /// only). Install/remove at quiescent points — rt's sharded backend
  /// brackets each parallel construct, with its dispatch handshake
  /// providing the happens-before edge to the workers.
  void set_defer_sink(DeferSink* sink) { defer_sink_ = sink; }
  /// True while a shard construct is in flight (deferral active).
  bool deferring() const { return defer_sink_ != nullptr; }

  /// Replays one deferred access at an epoch barrier: resolves it in the
  /// memory system (first-touch binding + controller queueing at the
  /// access's *issue* time) and publishes the now-complete MemAccess to
  /// the observer, stamped `at = issued_at`. Single-threaded canonical
  /// order; all shard workers must be parked.
  AccessResult resolve_deferred(const DeferredAccess& d);

  /// Total retired instructions / memory accesses, summed over the
  /// per-core shards.
  ///
  /// Quiescent-point contract: the per-core cells are written by
  /// whichever host thread is driving that core, so the sum is *exact*
  /// only at quiescent points (no parallel construct in flight — between
  /// Team constructs, inside Team::single, after a run). Read mid-
  /// construct the cells are individually torn-free (relaxed atomics, so
  /// never UB) but the total is a racy snapshot that can mix per-core
  /// values from different instants. The debug assertion below catches
  /// the sharded-backend misuse (reads while an epoch construct is in
  /// flight); the turn-token backend has no equivalent flag, so the
  /// contract is documentation there.
  std::uint64_t instructions_retired() const;
  std::uint64_t memory_accesses() const;

 private:
  /// Retirement counters sharded per core (cache-line padded) so
  /// concurrent callers on distinct cores never contend or race. The
  /// fields are single-writer relaxed atomics (obs::add_owned:
  /// load+add+store, not RMW): free on the hot path, and cross-thread
  /// readers get values instead of undefined behaviour — exactness is
  /// still only guaranteed at quiescent points (see
  /// instructions_retired()).
  struct alignas(64) CoreCounters {
    std::atomic<std::uint64_t> instructions{0};
    std::atomic<std::uint64_t> mem_accesses{0};
  };

  MachineConfig cfg_;
  MemorySystem memory_;
  AddressSpace aspace_;
  AccessObserver* observer_ = nullptr;
  DeferSink* defer_sink_ = nullptr;
  std::vector<CoreCounters> counts_;  // per core
};

}  // namespace dcprof::sim
