#include "sim/memory_system.h"

namespace dcprof::sim {

MemorySystem::Telemetry::Telemetry(obs::Registry& reg)
    : l1(reg.counter("sim.accesses", {{"level", "l1"}})),
      l2(reg.counter("sim.accesses", {{"level", "l2"}})),
      l3(reg.counter("sim.accesses", {{"level", "l3"}})),
      local_dram(reg.counter("sim.accesses", {{"level", "local_dram"}})),
      remote_dram(reg.counter("sim.accesses", {{"level", "remote_dram"}})),
      tlb_misses(reg.counter("sim.tlb_misses")),
      prefetched(reg.counter("sim.prefetched")) {}

MemorySystem::CoreState::CoreState(const MachineConfig& cfg,
                                   obs::Registry& reg)
    : l1(cfg.l1), l2(cfg.l2), tlb(cfg.tlb_entries, cfg.page_bytes), tm(reg) {}

MemorySystem::MemorySystem(const MachineConfig& cfg)
    : cfg_(cfg), page_table_(cfg.page_bytes, cfg.num_nodes()),
      overrides_(cfg.page_bytes) {
  obs::Registry& reg = obs::Registry::global();
  cores_.reserve(static_cast<std::size_t>(cfg_.num_cores()));
  for (int c = 0; c < cfg_.num_cores(); ++c) cores_.emplace_back(cfg_, reg);
  for (int s = 0; s < cfg_.sockets; ++s) l3_.emplace_back(cfg_.l3);
  for (int n = 0; n < cfg_.num_nodes(); ++n) {
    controllers_.emplace_back(cfg_.lat.dram_service, cfg_.lat.dram_banks);
  }
}

bool MemorySystem::consult_prefetcher(CoreId core, Addr addr) {
  if (!cfg_.lat.prefetch_enabled) return false;
  const Addr line = addr / cfg_.l1.line_bytes;
  const auto lines_per_page =
      static_cast<unsigned>(cfg_.page_bytes / cfg_.l1.line_bytes);
  return cores_[static_cast<std::size_t>(core)].prefetcher.access(
      line, lines_per_page);
}

NodeId MemorySystem::touch_page(Addr addr, NodeId toucher,
                                const OverrideEntry* ov) {
  if (ov != nullptr && ov->placement == PlacementOverride::kInterleave) {
    const PlacementPolicy forced = PlacementPolicy::kInterleave;
    return page_table_.touch(addr, toucher, &forced);
  }
  return page_table_.touch(addr, toucher);
}

void MemorySystem::finish_dram(CoreId core, NodeId home, NodeId toucher,
                               bool prefetched, Cycles now, AccessResult& r,
                               const OverrideEntry* ov) {
  Telemetry& tm = cores_[static_cast<std::size_t>(core)].tm;
  if (ov != nullptr) {
    if (ov->latency == LatencyOverride::kZero) {
      // Oracle bound: the fill costs nothing — no DRAM time, no
      // controller bandwidth (the TLB was bypassed in walk_caches).
      r.latency = 0;
      r.prefetched = false;
      r.home = home;
      r.level = MemLevel::kL3;
      tm.l3.inc_owned();
      return;
    }
    if (ov->placement == PlacementOverride::kLocal) {
      // Perfect placement: the fill is served by the toucher's own
      // controller regardless of where first touch bound the page.
      home = toucher;
    }
    if (ov->latency == LatencyOverride::kNextLevel) {
      if (home == toucher) {
        // Local DRAM promoted to an L3 hit. (The TLB walk was never
        // charged: a layout fix that achieves this also restores
        // translation locality, so walk_caches bypassed the TLB.)
        r.latency += cfg_.lat.l3;
        r.prefetched = false;
        r.home = home;
        r.level = MemLevel::kL3;
        tm.l3.inc_owned();
        return;
      }
      // Remote DRAM promoted one level: costs a local fill, served by
      // the toucher's controller.
      home = toucher;
    }
  }
  r.home = home;
  const bool remote = home != toucher;
  r.queue_wait = controllers_[static_cast<std::size_t>(home)].serve(now);
  r.prefetched = prefetched;
  if (prefetched) {
    // The stream prefetcher hid most of the fill; the access still
    // consumed controller bandwidth (the serve() above).
    r.latency += cfg_.lat.prefetch_hit + r.queue_wait +
                 (remote ? cfg_.lat.prefetch_remote_extra : 0);
    tm.prefetched.inc_owned();
  } else {
    r.latency += cfg_.lat.l3 + cfg_.lat.dram + r.queue_wait +
                 (remote ? cfg_.lat.remote_extra : 0);
  }
  if (remote) {
    r.level = MemLevel::kRemoteDram;
    tm.remote_dram.inc_owned();
  } else {
    r.level = MemLevel::kLocalDram;
    tm.local_dram.inc_owned();
  }
}

void MemorySystem::fill_dram(CoreId core, Addr addr, Cycles now,
                             AccessResult& r, const OverrideEntry* ov) {
  const NodeId toucher = cfg_.node_of(core);
  const NodeId home = touch_page(addr, toucher, ov);
  const bool prefetched = consult_prefetcher(core, addr);
  finish_dram(core, home, toucher, prefetched, now, r, ov);
}

void MemorySystem::fill_sharded(CoreId core, Addr addr, bool is_store,
                                Cycles now, AccessResult& r,
                                const OverrideEntry* ov,
                                DeferredAccess* out) {
  // The prefetcher is core-private: consult it now, in issue order, so
  // its training sequence is identical whether the fill resolves
  // immediately or at the barrier.
  const bool prefetched = consult_prefetcher(core, addr);
  const NodeId toucher = cfg_.node_of(core);
  // Read-only probe: no page may be bound mid-epoch (first touch is
  // order-dependent shared state), so concurrent socket shards can all
  // read the table safely.
  const NodeId home = page_table_.node_of(addr);
  // Overridden addresses always defer: a placement override may
  // redirect the fill to another socket's controller, so the only safe
  // point to apply it is the barrier's canonical order.
  const bool overridden = ov != nullptr;
  if (!overridden && home != kNoNode &&
      cfg_.socket_of_node(home) == cfg_.socket_of(core)) {
    // The home controller belongs to this core's socket: socket-private
    // during the epoch, serve immediately (remote_extra still applies if
    // the socket spans multiple NUMA nodes).
    finish_dram(core, home, toucher, prefetched, now, r, nullptr);
    return;
  }
  // Cross-socket (or unhomed) fill: queue for the epoch barrier. No
  // latency is charged at issue; resolve_deferred computes all of it
  // (TLB walk included) so one clock bump per thread settles the epoch.
  out->core = core;
  out->addr = addr;
  out->is_store = is_store;
  out->tlb_miss = r.tlb_miss;
  out->prefetched = prefetched;
  out->first_touch = home == kNoNode;
  out->issued_at = now;
  r.latency = 0;
  r.deferred = true;
}

AccessResult MemorySystem::resolve_deferred(const DeferredAccess& d) {
  AccessResult r;
  r.tlb_miss = d.tlb_miss;
  if (d.tlb_miss) r.latency += cfg_.lat.tlb_walk;
  const NodeId toucher = cfg_.node_of(d.core);
  const OverrideEntry* ov = override_of(d.addr);
  const NodeId home = touch_page(d.addr, toucher, ov);
  finish_dram(d.core, home, toucher, d.prefetched, d.issued_at, r, ov);
  return r;
}

MemLevelStats MemorySystem::stats() const {
  MemLevelStats s;
  for (const CoreState& cs : cores_) {
    s.l1_hits += cs.tm.l1.value();
    s.l2_hits += cs.tm.l2.value();
    s.l3_hits += cs.tm.l3.value();
    s.local_dram += cs.tm.local_dram.value();
    s.remote_dram += cs.tm.remote_dram.value();
    s.tlb_misses += cs.tm.tlb_misses.value();
    s.prefetched += cs.tm.prefetched.value();
  }
  return s;
}

void MemorySystem::flush_caches() {
  for (CoreState& cs : cores_) {
    cs.l1.clear();
    cs.l2.clear();
    cs.tlb.clear();
  }
  for (auto& c : l3_) c.clear();
}

}  // namespace dcprof::sim
