#include "pmu/pmu.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace dcprof::pmu {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kIbsOp: return "IBS_OP";
    case EventKind::kMarkedDataFromRMem: return "PM_MRK_DATA_FROM_RMEM";
    case EventKind::kMarkedDataFromLMem: return "PM_MRK_DATA_FROM_LMEM";
    case EventKind::kMarkedDataFromL3: return "PM_MRK_DATA_FROM_L3";
    case EventKind::kMarkedTlbMiss: return "PM_MRK_TLB_MISS";
  }
  return "?";
}

PmuSet::PmuSet(const sim::MachineConfig& machine_cfg,
               std::vector<PmuConfig> cfgs)
    : configs_(std::move(cfgs)) {
  cores_ = static_cast<std::size_t>(machine_cfg.num_cores());
  obs::Registry& reg = obs::Registry::global();
  slots_.reserve(configs_.size() * cores_);
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    const auto& cfg = configs_[i];
    if (cfg.period == 0) throw std::invalid_argument("PMU period must be > 0");
    if (cfg.jitter >= cfg.period) {
      throw std::invalid_argument("PMU jitter must be < period");
    }
    for (std::size_t c = 0; c < cores_; ++c) {
      Slot& s = slots_.emplace_back();
      s.countdown = cfg.period;
      s.rng = 0x9e3779b97f4a7c15ull * (c + 1) + 0x7f4a7c15ull * i;
      s.events = reg.counter("pmu.events", {{"event", to_string(cfg.event)}});
      s.samples = reg.counter("pmu.samples");
    }
  }
}

PmuSet::~PmuSet() {
  if (gated_by_ != nullptr) gated_by_->set_observer(nullptr);
}

std::uint64_t PmuSet::events_counted(std::size_t cfg_index) const {
  if (cfg_index >= configs_.size()) {
    throw std::out_of_range("PmuSet::events_counted: no such cfg");
  }
  const bool pending = gated_by_ != nullptr && enabled_ &&
                       configs_[cfg_index].event == EventKind::kIbsOp;
  std::uint64_t sum = 0;
  for (std::size_t c = 0; c < cores_; ++c) {
    sum += slots_[cfg_index * cores_ + c].events.value();
    if (pending) sum += gated_by_->gate_skipped(static_cast<sim::CoreId>(c));
  }
  return sum;
}

std::uint64_t PmuSet::samples_taken() const {
  std::uint64_t sum = 0;
  for (const Slot& s : slots_) sum += s.samples.value();
  return sum;
}

bool PmuSet::on_attach(sim::Machine& machine, sim::GateFilter* filter) {
  if (static_cast<std::size_t>(machine.config().num_cores()) != cores_) {
    throw std::invalid_argument("PmuSet: machine core count differs");
  }
  if (gated_by_ != nullptr) {
    throw std::logic_error("PmuSet: already attached to a machine");
  }
  sim::GateFilter f = 0;
  for (const PmuConfig& cfg : configs_) {
    switch (cfg.event) {
      case EventKind::kIbsOp: break;  // the countdown covers it
      case EventKind::kMarkedDataFromRMem:
        f |= sim::gate_level(sim::MemLevel::kRemoteDram);
        break;
      case EventKind::kMarkedDataFromLMem:
        f |= sim::gate_level(sim::MemLevel::kLocalDram);
        break;
      case EventKind::kMarkedDataFromL3:
        f |= sim::gate_level(sim::MemLevel::kL3);
        break;
      case EventKind::kMarkedTlbMiss: f |= sim::kGateTlbMiss; break;
    }
  }
  *filter = f;
  gated_by_ = &machine;
  for (std::size_t c = 0; c < cores_; ++c) arm(static_cast<sim::CoreId>(c));
  return true;
}

void PmuSet::on_detach() {
  sync();
  gated_by_ = nullptr;
}

void PmuSet::sync() {
  if (gated_by_ == nullptr) return;
  for (std::size_t c = 0; c < cores_; ++c) {
    const auto core = static_cast<sim::CoreId>(c);
    catch_up(core);
    arm(core);
  }
}

void PmuSet::set_enabled(bool enabled) {
  sync();  // fold what the old setting counted
  enabled_ = enabled;
  for (std::size_t c = 0; c < cores_; ++c) arm(static_cast<sim::CoreId>(c));
}

void PmuSet::catch_up(sim::CoreId core) {
  if (gated_by_ == nullptr || !enabled_) return;
  const std::uint64_t skipped = gated_by_->gate_skipped(core);
  if (skipped == 0) return;
  // Every skipped op left each IBS countdown >= 1 (the gate is their
  // minimum), so per-event processing would only have counted them.
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    if (configs_[i].event != EventKind::kIbsOp) continue;
    Slot& sl = slot(i, core);
    sl.countdown -= skipped;
    sl.events.add_owned(skipped);
  }
}

void PmuSet::arm(sim::CoreId core) {
  if (gated_by_ == nullptr) return;
  std::uint64_t ops = std::numeric_limits<std::uint64_t>::max();
  if (enabled_) {
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      if (configs_[i].event == EventKind::kIbsOp) {
        ops = std::min(ops, slot(i, core).countdown);
      }
    }
  }
  gated_by_->arm_gate(core, ops);
}

void PmuSet::set_period_scale(std::uint64_t scale) {
  if (scale == 0) throw std::invalid_argument("PMU period scale must be > 0");
  period_scale_.store(scale, std::memory_order_relaxed);
}

std::uint64_t PmuSet::effective_period(std::size_t cfg_index) const {
  return configs_.at(cfg_index).period * period_scale();
}

bool PmuSet::event_matches(const PmuConfig& cfg,
                           const sim::MemAccess& a) const {
  switch (cfg.event) {
    case EventKind::kIbsOp:
      return true;  // every retired op counts
    case EventKind::kMarkedDataFromRMem:
      return a.result.level == sim::MemLevel::kRemoteDram;
    case EventKind::kMarkedDataFromLMem:
      return a.result.level == sim::MemLevel::kLocalDram;
    case EventKind::kMarkedDataFromL3:
      return a.result.level == sim::MemLevel::kL3;
    case EventKind::kMarkedTlbMiss:
      return a.result.tlb_miss;
  }
  return false;
}

void PmuSet::emit(Slot& slot, const Sample& sample) {
  slot.samples.inc_owned();
  if (handler_) handler_(sample);
}

std::uint64_t PmuSet::next_period(const PmuConfig& cfg, Slot& slot) {
  if (cfg.jitter == 0) return cfg.period * period_scale();
  // xorshift64*: deterministic, per-(cfg, core) stream. The throttle
  // scale multiplies the jittered value, so the relative randomization
  // window is preserved while the mean period grows.
  std::uint64_t& s = slot.rng;
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  const std::uint64_t r = s * 0x2545f4914f6cdd1dull;
  return (cfg.period - cfg.jitter + r % (2 * cfg.jitter + 1)) * period_scale();
}

void PmuSet::on_access(const sim::MemAccess& a) {
  if (!enabled_) return;
  catch_up(a.core);
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    const PmuConfig& cfg = configs_[i];
    if (!event_matches(cfg, a)) continue;
    Slot& sl = slot(i, a.core);
    sl.events.inc_owned();
    if (--sl.countdown > 0) continue;
    sl.countdown = next_period(cfg, sl);
    Sample s;
    s.tid = a.tid;
    s.core = a.core;
    s.precise_ip = a.ip;
    s.signal_ip = a.ip + cfg.skid_instrs * 4;  // out-of-order skid
    s.is_memory = true;
    s.eaddr = a.addr;
    s.size = a.size;
    s.is_store = a.is_store;
    s.latency = a.result.latency;
    s.source = a.result.level;
    s.tlb_miss = a.result.tlb_miss;
    s.event = cfg.event;
    s.at = a.at;
    emit(sl, s);
  }
  arm(a.core);
}

void PmuSet::on_compute(sim::ThreadId tid, sim::CoreId core,
                        std::uint64_t instrs, sim::Addr ip, sim::Cycles now) {
  if (!enabled_) return;
  catch_up(core);
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    const PmuConfig& cfg = configs_[i];
    if (cfg.event != EventKind::kIbsOp) continue;  // only IBS counts ops
    Slot& sl = slot(i, core);
    sl.events.add_owned(instrs);
    std::uint64_t remaining = instrs;
    while (remaining >= sl.countdown) {
      remaining -= sl.countdown;
      sl.countdown = next_period(cfg, sl);
      Sample s;
      s.tid = tid;
      s.core = core;
      s.precise_ip = ip;
      s.signal_ip = ip + cfg.skid_instrs * 4;
      s.is_memory = false;
      s.event = cfg.event;
      s.at = now;
      emit(sl, s);
    }
    sl.countdown -= remaining;
  }
  arm(core);
}

}  // namespace dcprof::pmu
