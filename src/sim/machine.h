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

#include "obs/registry.h"
#include "sim/address_space.h"
#include "sim/config.h"
#include "sim/memory_system.h"
#include "sim/types.h"

namespace dcprof::sim {

class Machine;

/// Accesses a gated observer sees whatever its gate says: one bit per
/// MemLevel that served the access (gate_level), plus kGateTlbMiss.
using GateFilter = std::uint32_t;
constexpr GateFilter gate_level(MemLevel level) {
  return GateFilter{1} << static_cast<unsigned>(level);
}
inline constexpr GateFilter kGateTlbMiss = GateFilter{1} << 5;

/// Hook the PMU implements. The machine is observer-agnostic so `sim`
/// stays independent of `pmu`.
///
/// Sample gate (opt-in, like a hardware PMU's overflow interrupt): by
/// default an observer gets every event. One that opts in from
/// on_attach() is called only when its core's gate expires — the
/// machine counts retired ops down in the gate the observer armed
/// (Machine::arm_gate) — or when an access matches the filter it
/// declared. Ops the machine skips are reported by
/// Machine::gate_skipped() at the next call; the observer catches up on
/// them and re-arms.
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  /// Called after each memory access has been resolved.
  virtual void on_access(const MemAccess& access) = 0;
  /// Called for non-memory work (`instrs` retired instructions). `ip`
  /// identifies the code region (representative instruction pointer).
  virtual void on_compute(ThreadId tid, CoreId core, std::uint64_t instrs,
                          Addr ip, Cycles now) = 0;
  /// Called by Machine::set_observer when this observer is attached.
  /// Returning true opts into the sample gate with `*filter` as the set
  /// of accesses always delivered; the observer must have armed every
  /// core's gate by then, and must be detached before it is destroyed
  /// (the machine calls on_detach() when it lets go). The default opts
  /// out.
  virtual bool on_attach(Machine& /*machine*/, GateFilter* /*filter*/) {
    return false;
  }
  /// Called when a gated observer is replaced or detached: the last
  /// point at which it may read its gates.
  virtual void on_detach() {}
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
  /// Detaches the observer (a gated one gets on_detach()).
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

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
  /// quiescent points only (no constructs in flight). A gated observer
  /// being replaced gets on_detach() first; the new one is offered the
  /// gate through on_attach().
  void set_observer(AccessObserver* observer);
  AccessObserver* observer() const { return observer_; }

  /// Sample gate of `core` (see AccessObserver): the gated observer is
  /// called again no later than the op that would take the count below
  /// one. `ops` >= 1; arming also resets gate_skipped() to zero. Written
  /// by the observer from inside its calls, or at quiescent points.
  void arm_gate(CoreId core, std::uint64_t ops) {
    CoreCounters& cc = counts_[static_cast<std::size_t>(core)];
    cc.gate.store(ops, std::memory_order_relaxed);
    cc.gate_armed.store(ops, std::memory_order_relaxed);
  }
  /// Ops `core` retired since its gate was last armed that the gated
  /// observer was not called for.
  std::uint64_t gate_skipped(CoreId core) const {
    const CoreCounters& cc = counts_[static_cast<std::size_t>(core)];
    return cc.gate_armed.load(std::memory_order_relaxed) -
           cc.gate.load(std::memory_order_relaxed);
  }

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
  ///
  /// The same line holds the core's sample gate: `gate` ops left before
  /// the gated observer must be called (0 = call on every event, the
  /// ungated state) and the value it was armed with. Its writers are the
  /// core's own: the thread driving the core, the gated observer inside
  /// its calls, and the epoch resolver with every worker parked.
  struct alignas(64) CoreCounters {
    std::atomic<std::uint64_t> instructions{0};
    std::atomic<std::uint64_t> mem_accesses{0};
    std::atomic<std::uint64_t> gate{0};
    std::atomic<std::uint64_t> gate_armed{0};
  };

  /// Gate check for one access served as `r` on `cc`'s core: true when
  /// the observer must be called; otherwise the op is counted down.
  bool gate_access(CoreCounters& cc, const AccessResult& r) {
    const std::uint64_t g = cc.gate.load(std::memory_order_relaxed);
    const GateFilter hit =
        gate_level(r.level) | (r.tlb_miss ? kGateTlbMiss : 0);
    if (g <= 1 || (hit & gate_filter_) != 0) return true;
    cc.gate.store(g - 1, std::memory_order_relaxed);
    return false;
  }
  /// Gate check for `instrs` compute ops (never filtered).
  static bool gate_compute(CoreCounters& cc, std::uint64_t instrs) {
    const std::uint64_t g = cc.gate.load(std::memory_order_relaxed);
    if (instrs >= g) return true;
    cc.gate.store(g - instrs, std::memory_order_relaxed);
    return false;
  }
  /// access() while a DeferSink is installed; out of line, as only the
  /// epoch-sharded backend takes it.
  AccessResult access_deferring(CoreCounters& cc, ThreadId tid, CoreId core,
                                Addr ip, Addr addr, std::uint32_t size,
                                bool is_store, Cycles& clock);

  MachineConfig cfg_;
  MemorySystem memory_;
  AddressSpace aspace_;
  AccessObserver* observer_ = nullptr;
  bool gated_ = false;          // observer_ opted into the sample gate
  GateFilter gate_filter_ = 0;  // accesses a gated observer_ always sees
  DeferSink* defer_sink_ = nullptr;
  std::vector<CoreCounters> counts_;  // per core
};

inline AccessResult Machine::access(ThreadId tid, CoreId core, Addr ip,
                                   Addr addr, std::uint32_t size,
                                   bool is_store, Cycles& clock) {
  CoreCounters& cc = counts_[static_cast<std::size_t>(core)];
  obs::add_owned(cc.instructions, 1);
  obs::add_owned(cc.mem_accesses, 1);
  if (defer_sink_ != nullptr) {
    return access_deferring(cc, tid, core, ip, addr, size, is_store, clock);
  }
  const AccessResult result = memory_.access(core, addr, is_store, clock);
  const Cycles at = clock;
  clock += result.latency;
  if (observer_ != nullptr && gate_access(cc, result)) {
    observer_->on_access(MemAccess{tid, core, ip, addr, size, is_store,
                                   result, at});
  }
  return result;
}

inline void Machine::compute(ThreadId tid, CoreId core, std::uint64_t instrs,
                             Addr ip, Cycles& clock) {
  CoreCounters& cc = counts_[static_cast<std::size_t>(core)];
  obs::add_owned(cc.instructions, instrs);
  clock += instrs;
  if (observer_ != nullptr && gate_compute(cc, instrs)) {
    observer_->on_compute(tid, core, instrs, ip, clock);
  }
}

}  // namespace dcprof::sim
