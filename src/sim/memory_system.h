// The memory hierarchy: per-core L1/L2 + TLB, per-socket L3, per-node DRAM
// controllers with bandwidth (queueing) contention, NUMA page placement.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/registry.h"
#include "sim/cache.h"
#include "sim/config.h"
#include "sim/override.h"
#include "sim/page_table.h"
#include "sim/types.h"

namespace dcprof::sim {

/// A NUMA node's memory controller: a leaky-bucket (processor-sharing)
/// queue. Each access deposits `service` cycles of work; the controller
/// drains `banks` cycles of work per cycle of forward time. The queueing
/// delay an access observes is the current backlog divided by the drain
/// rate — so every access issued into the same congestion sees a similar
/// delay. (A strict FIFO single-server model instead makes the *first*
/// miss after a barrier absorb the entire backlog while co-scheduled
/// misses ride free — an in-order artifact that misattributes latency
/// between arrays; out-of-order cores with miss-level parallelism show
/// IBS comparable delays on every queued miss.)
class alignas(64) DramController {
 public:
  DramController(Cycles service, unsigned banks)
      : service_(service), banks_(banks) {}
  /// Moves happen only during machine construction (vector growth),
  /// before any concurrent access.
  DramController(DramController&& o) noexcept
      : service_(o.service_), banks_(o.banks_), backlog_(o.backlog_),
        last_(o.last_), accesses_(o.accesses()),
        total_wait_(o.total_wait()) {}

  /// Serves one access issued at thread-local time `now`; returns the
  /// queueing delay it observes. Queue state (backlog/last) is shared
  /// across the node's cores and order-dependent, so callers serialize
  /// accesses (rt's turn token, or the epoch barrier for another
  /// socket's controller); that contract also makes the controller's
  /// totals single-writer, so they take a plain load+add+store. They are
  /// relaxed atomics only so readers on other threads get torn-free
  /// values (exact at quiescent points).
  Cycles serve(Cycles now) {
    if (now > last_) {
      const Cycles drained = (now - last_) * banks_;
      backlog_ = backlog_ > drained ? backlog_ - drained : 0;
      last_ = now;
    }
    const Cycles wait = backlog_ / banks_;
    backlog_ += service_;
    obs::add_owned(accesses_, 1);
    obs::add_owned(total_wait_, wait);
    return wait;
  }

  std::uint64_t accesses() const {
    return accesses_.load(std::memory_order_relaxed);
  }
  Cycles total_wait() const {
    return total_wait_.load(std::memory_order_relaxed);
  }
  Cycles backlog() const { return backlog_; }

 private:
  Cycles service_;
  Cycles banks_;
  Cycles backlog_ = 0;  ///< queued work, in bank-cycles
  Cycles last_ = 0;     ///< latest access time seen
  std::atomic<std::uint64_t> accesses_{0};
  std::atomic<Cycles> total_wait_{0};
};

/// Per-core hardware stream prefetcher: tracks up to kStreams ascending
/// line streams; a fill whose line extends a tracked stream (within one
/// page — prefetchers do not cross 4 KB boundaries) is considered
/// prefetched. Strided or irregular access defeats it.
class StreamPrefetcher {
 public:
  /// Observes a DRAM fill of `line`; returns true if it was prefetched.
  bool access(Addr line, unsigned lines_per_page) {
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      if (streams_[i] + 1 == line) {
        streams_[i] = line;
        // Move to MRU.
        std::rotate(streams_.begin(), streams_.begin() + i,
                    streams_.begin() + i + 1);
        // A stream re-arms (pays full latency) at each page boundary.
        return line % lines_per_page != 0;
      }
    }
    // New stream displaces the LRU tracker.
    std::rotate(streams_.begin(), streams_.end() - 1, streams_.end());
    streams_[0] = line;
    return false;
  }

 private:
  std::array<Addr, 8> streams_{};
};

/// Aggregate hit counts per level, for machine-wide reporting. A
/// point-in-time view summed over this machine's per-core registry
/// cells (`sim.accesses{level=...}`, `sim.tlb_misses`, `sim.prefetched`);
/// exact at quiescent points.
struct MemLevelStats {
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l3_hits = 0;
  std::uint64_t local_dram = 0;
  std::uint64_t remote_dram = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t prefetched = 0;
  std::uint64_t total() const {
    return l1_hits + l2_hits + l3_hits + local_dram + remote_dram;
  }
};

class MemorySystem {
 public:
  explicit MemorySystem(const MachineConfig& cfg);

  /// Resolves one access by `core` at thread-local time `now`. The
  /// cache walk is inline; DRAM fills leave it through fill_dram().
  AccessResult access(CoreId core, Addr addr, bool is_store, Cycles now) {
    AccessResult r;
    const OverrideEntry* ov = override_of(addr);
    if (walk_caches(core, addr, is_store, r, skips_tlb(ov))) return r;
    fill_dram(core, addr, now, r, ov);
    return r;
  }

  /// Epoch-sharded variant of access() (rt's sharded backend): the cache
  /// walk, prefetcher consult, and *same-socket* DRAM fills resolve
  /// immediately against socket-private state; an access whose page is
  /// homed on another socket — or not homed at all (first touch must bind
  /// in one global order) — returns `result.deferred == true` with `*out`
  /// filled for later resolve_deferred(). Deferred accesses charge no
  /// latency at issue; the full latency is computed at the barrier.
  /// Concurrency: callers on cores of *distinct sockets* may overlap; the
  /// page table is only read (no first touches happen mid-epoch).
  AccessResult access_sharded(CoreId core, Addr addr, bool is_store,
                              Cycles now, DeferredAccess* out) {
    AccessResult r;
    // Overridden addresses always defer (see fill_sharded).
    const OverrideEntry* ov = override_of(addr);
    if (walk_caches(core, addr, is_store, r, skips_tlb(ov))) return r;
    fill_sharded(core, addr, is_store, now, r, ov, out);
    return r;
  }

  /// Resolves one deferred access at an epoch barrier: binds the page
  /// (first touch), pays the home DRAM controller at the access's issue
  /// time, and returns the full AccessResult (TLB walk included, as the
  /// immediate path charges it). Callers present accesses in canonical
  /// (socket, thread, issue) order, single-threaded — that order *is*
  /// the reproducible global order of shared state.
  AccessResult resolve_deferred(const DeferredAccess& d);

  PageTable& page_table() { return page_table_; }
  const PageTable& page_table() const { return page_table_; }

  /// What-if override table (empty in normal runs). Entries patch the
  /// covered pages' placement at first touch and their DRAM cost at the
  /// home lookup; see sim/override.h. Mutate at quiescent points only —
  /// under the epoch-sharded backend every overridden access defers to
  /// the barrier, so the table itself is read-only mid-epoch.
  OverrideMap& overrides() { return overrides_; }
  const OverrideMap& overrides() const { return overrides_; }
  MemLevelStats stats() const;
  const DramController& controller(NodeId node) const {
    return controllers_[static_cast<std::size_t>(node)];
  }

  /// Drops all cached state (not page placements). Useful between phases.
  void flush_caches();

 private:
  /// The what-if override covering `addr`; null in normal runs (empty
  /// table), which pay one branch here.
  const OverrideEntry* override_of(Addr addr) const {
    return overrides_.empty() ? nullptr : overrides_.lookup(addr);
  }
  /// Latency-overridden accesses bypass the TLB (see walk_caches).
  static bool skips_tlb(const OverrideEntry* ov) {
    return ov != nullptr && ov->latency != LatencyOverride::kNone;
  }
  /// TLB + L1/L2/L3 walk shared by access() and access_sharded(); fills
  /// caches on miss. Returns true when a cache satisfied the access (`r`
  /// is complete); false when it falls through to DRAM (`r` carries the
  /// TLB outcome and walk latency so far). With `skip_tlb` the TLB is
  /// bypassed entirely — not consulted, not charged, not filled — used
  /// for latency-overridden accesses, whose modeled fix shrinks the
  /// variable's translation footprint to nothing (so other variables'
  /// entries survive instead of being thrashed).
  bool walk_caches(CoreId core, Addr addr, bool is_store, AccessResult& r,
                   bool skip_tlb);
  /// access()'s DRAM leg: binds the page (first touch), consults the
  /// prefetcher and pays the home controller.
  void fill_dram(CoreId core, Addr addr, Cycles now, AccessResult& r,
                 const OverrideEntry* ov);
  /// access_sharded()'s DRAM leg: serves a same-socket fill now, or
  /// fills `*out` and marks `r` deferred.
  void fill_sharded(CoreId core, Addr addr, bool is_store, Cycles now,
                    AccessResult& r, const OverrideEntry* ov,
                    DeferredAccess* out);
  /// Consults (and trains) `core`'s stream prefetcher for a DRAM fill of
  /// `addr`. Config-gated; called once per fill, in issue order.
  bool consult_prefetcher(CoreId core, Addr addr);
  /// The DRAM leg: pays the home controller at `now`, applies the
  /// latency formula for `prefetched`, sets level + `core`'s telemetry.
  /// `ov` (may be null) is the what-if override covering this address,
  /// applied before any cost is charged.
  void finish_dram(CoreId core, NodeId home, NodeId toucher, bool prefetched,
                   Cycles now, AccessResult& r, const OverrideEntry* ov);
  /// Binds the page of `addr` honouring a placement override's forced
  /// interleaving; plain first-touch semantics when `ov` is null.
  NodeId touch_page(Addr addr, NodeId toucher, const OverrideEntry* ov);

  /// Registry-backed level counts of one core (`sim.accesses{level=...}`,
  /// `sim.tlb_misses`, `sim.prefetched`): each handle is this core's own
  /// padded cell, bumped single-writer (obs::Counter::add_owned) by
  /// whichever thread drives the core — or by the epoch resolver, which
  /// runs with every worker parked. stats() and the registry sum the
  /// cells.
  struct Telemetry {
    explicit Telemetry(obs::Registry& reg);
    obs::Counter l1, l2, l3, local_dram, remote_dram, tlb_misses, prefetched;
  };
  /// Everything one core writes per access, on cache lines of its own.
  struct alignas(64) CoreState {
    CoreState(const MachineConfig& cfg, obs::Registry& reg);
    SetAssocCache l1;
    SetAssocCache l2;
    Tlb tlb;
    StreamPrefetcher prefetcher;
    Telemetry tm;
  };

  MachineConfig cfg_;
  std::vector<CoreState> cores_;
  std::vector<SetAssocCache> l3_;            // per socket
  std::vector<DramController> controllers_;  // per NUMA node
  PageTable page_table_;
  OverrideMap overrides_;
};

inline bool MemorySystem::walk_caches(CoreId core, Addr addr, bool is_store,
                                      AccessResult& r, bool skip_tlb) {
  CoreState& cs = cores_[static_cast<std::size_t>(core)];
  if (!skip_tlb) {
    const bool tlb_hit = cs.tlb.access(addr);
    r.tlb_miss = !tlb_hit;
    if (r.tlb_miss) {
      r.latency += cfg_.lat.tlb_walk;
      cs.tm.tlb_misses.inc_owned();
    }
  }

  if (cs.l1.access(addr)) {
    // Store hits drain through the store buffer without a stall.
    r.latency += is_store ? cfg_.lat.store_hit : cfg_.lat.l1;
    r.level = MemLevel::kL1;
    cs.tm.l1.inc_owned();
    return true;
  }
  if (cs.l2.access(addr)) {
    r.latency += cfg_.lat.l2;
    r.level = MemLevel::kL2;
    cs.tm.l2.inc_owned();
    return true;
  }
  const auto si = static_cast<std::size_t>(cfg_.socket_of(core));
  if (l3_[si].access(addr)) {
    r.latency += cfg_.lat.l3;
    r.level = MemLevel::kL3;
    cs.tm.l3.inc_owned();
    return true;
  }
  return false;
}

}  // namespace dcprof::sim
