#include "sim/machine.h"

namespace dcprof::sim {

Machine::Machine(const MachineConfig& cfg)
    : cfg_(cfg), memory_(cfg),
      counts_(static_cast<std::size_t>(cfg.num_cores())) {}

AccessResult Machine::access(ThreadId tid, CoreId core, Addr ip, Addr addr,
                             std::uint32_t size, bool is_store,
                             Cycles& clock) {
  CoreCounters& cc = counts_[static_cast<std::size_t>(core)];
  obs::add_owned(cc.instructions, 1);
  obs::add_owned(cc.mem_accesses, 1);
  if (defer_sink_ != nullptr) {
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
    if (observer_ != nullptr) {
      observer_->on_access(MemAccess{tid, core, ip, addr, size, is_store,
                                     result, at});
    }
    return result;
  }
  const AccessResult result = memory_.access(core, addr, is_store, clock);
  const Cycles at = clock;
  clock += result.latency;
  if (observer_ != nullptr) {
    observer_->on_access(MemAccess{tid, core, ip, addr, size, is_store,
                                   result, at});
  }
  return result;
}

AccessResult Machine::resolve_deferred(const DeferredAccess& d) {
  const AccessResult result = memory_.resolve_deferred(d);
  if (observer_ != nullptr) {
    observer_->on_access(MemAccess{d.tid, d.core, d.ip, d.addr, d.size,
                                   d.is_store, result, d.issued_at});
  }
  return result;
}

void Machine::compute(ThreadId tid, CoreId core, std::uint64_t instrs,
                      Addr ip, Cycles& clock) {
  obs::add_owned(counts_[static_cast<std::size_t>(core)].instructions,
                 instrs);
  clock += instrs;
  if (observer_ != nullptr) {
    observer_->on_compute(tid, core, instrs, ip, clock);
  }
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
