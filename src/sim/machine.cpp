#include "sim/machine.h"

namespace dcprof::sim {

Machine::Machine(const MachineConfig& cfg)
    : cfg_(cfg), memory_(cfg),
      counts_(static_cast<std::size_t>(cfg.num_cores())) {}

Machine::~Machine() { set_observer(nullptr); }

void Machine::set_observer(AccessObserver* observer) {
  if (gated_) observer_->on_detach();
  // Ungated until the new observer opts in: every event reaches it.
  for (CoreCounters& cc : counts_) {
    cc.gate.store(0, std::memory_order_relaxed);
    cc.gate_armed.store(0, std::memory_order_relaxed);
  }
  observer_ = nullptr;
  gated_ = false;
  GateFilter filter = 0;
  const bool gated = observer != nullptr && observer->on_attach(*this, &filter);
  observer_ = observer;
  gated_ = gated;
  gate_filter_ = filter;
}

AccessResult Machine::access_deferring(CoreCounters& cc, ThreadId tid,
                                       CoreId core, Addr ip, Addr addr,
                                       std::uint32_t size, bool is_store,
                                       Cycles& clock) {
  DeferredAccess d;
  const AccessResult result =
      memory_.access_sharded(core, addr, is_store, clock, &d);
  const Cycles at = clock;
  clock += result.latency;  // zero when deferred
  if (result.deferred) {
    d.tid = tid;
    d.ip = ip;
    d.size = size;
    defer_sink_->on_deferred(d);
    return result;
  }
  if (observer_ != nullptr && gate_access(cc, result)) {
    observer_->on_access(MemAccess{tid, core, ip, addr, size, is_store,
                                   result, at});
  }
  return result;
}

AccessResult Machine::resolve_deferred(const DeferredAccess& d) {
  const AccessResult result = memory_.resolve_deferred(d);
  if (observer_ != nullptr &&
      gate_access(counts_[static_cast<std::size_t>(d.core)], result)) {
    observer_->on_access(MemAccess{d.tid, d.core, d.ip, d.addr, d.size,
                                   d.is_store, result, d.issued_at});
  }
  return result;
}

std::uint64_t Machine::instructions_retired() const {
  assert(!deferring() && "counter sums are exact only at quiescent points");
  std::uint64_t sum = 0;
  for (const CoreCounters& cc : counts_) {
    sum += cc.instructions.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t Machine::memory_accesses() const {
  assert(!deferring() && "counter sums are exact only at quiescent points");
  std::uint64_t sum = 0;
  for (const CoreCounters& cc : counts_) {
    sum += cc.mem_accesses.load(std::memory_order_relaxed);
  }
  return sum;
}

}  // namespace dcprof::sim
