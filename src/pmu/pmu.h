// Software performance-monitoring unit: instruction-based sampling (the
// AMD IBS analog) and marked-event sampling (the POWER7 SIAR/SDAR analog).
// Attaches to the simulated machine as its AccessObserver and delivers
// samples — precise IP, effective address, latency, data source — to a
// handler, exactly the tuple the paper's hardware provides.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "sim/config.h"
#include "sim/machine.h"
#include "sim/types.h"

namespace dcprof::pmu {

/// The sampling events the paper uses (and close relatives).
enum class EventKind : std::uint8_t {
  kIbsOp,                ///< sample every Nth retired op (AMD IBS)
  kMarkedDataFromRMem,   ///< PM_MRK_DATA_FROM_RMEM: remote-DRAM fills
  kMarkedDataFromLMem,   ///< PM_MRK_DATA_FROM_LMEM: local-DRAM fills
  kMarkedDataFromL3,     ///< PM_MRK_DATA_FROM_L3: L3 fills
  kMarkedTlbMiss,        ///< marked TLB misses
};

const char* to_string(EventKind kind);

/// One PMU sample. `precise_ip` is what IBS/SIAR report; `signal_ip` is
/// where the overflow signal lands after out-of-order skid (profilers
/// that unwind from the signal context naively attribute there).
struct Sample {
  sim::ThreadId tid = 0;
  sim::CoreId core = 0;
  sim::Addr precise_ip = 0;
  sim::Addr signal_ip = 0;
  bool is_memory = false;
  sim::Addr eaddr = 0;            ///< effective data address (SDAR)
  std::uint32_t size = 0;
  bool is_store = false;
  sim::Cycles latency = 0;
  sim::MemLevel source = sim::MemLevel::kL1;
  bool tlb_miss = false;
  EventKind event = EventKind::kIbsOp;
  sim::Cycles at = 0;
};

using SampleHandler = std::function<void(const Sample&)>;

/// One sampling configuration: which event, and the period between samples.
struct PmuConfig {
  EventKind event = EventKind::kIbsOp;
  std::uint64_t period = 4096;
  /// Instructions of skid applied to signal_ip (0 = no skid).
  std::uint64_t skid_instrs = 2;
  /// Randomization range applied to each period (+/- jitter), mirroring
  /// IBS's counter randomization; prevents the sample stream aliasing
  /// with loop structure. 0 = strictly periodic.
  std::uint64_t jitter = 0;
};

/// The machine-wide set of per-core PMUs. Each core has an independent
/// countdown per configured event, mirroring per-core PMU hardware.
///
/// Attached directly to a machine, the set opts into the machine's
/// sample gate, the way hardware counts ops in a register and only
/// interrupts on overflow: each core's gate is armed with that core's
/// smallest IBS countdown, and marked events are declared as the gate
/// filter, so the machine calls the set only when a sample may be due.
/// Each call first catches up on the ops the gate skipped (subtracted
/// from every IBS countdown, added to `pmu.events`), then runs the
/// per-event logic and re-arms. Called by a wrapper instead (or directly,
/// as the tests do), the set sees every event and skips nothing; both
/// ways take the same samples.
class PmuSet : public sim::AccessObserver {
 public:
  PmuSet(const sim::MachineConfig& machine_cfg, std::vector<PmuConfig> cfgs);
  /// Detaches from the machine it is gated by, if any.
  ~PmuSet() override;
  PmuSet(const PmuSet&) = delete;
  PmuSet& operator=(const PmuSet&) = delete;

  void set_handler(SampleHandler handler) { handler_ = std::move(handler); }

  /// Enables/disables sample delivery without detaching from the machine.
  /// A disabled set counts nothing. Call at quiescent points.
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_; }

  /// Graceful-degradation hook: multiplies every configured period by
  /// `scale` (>= 1) the next time a countdown is re-armed. The sample
  /// handler raises this when it falls behind its latency budget, so an
  /// overloaded run degrades resolution instead of growing CCTs without
  /// bound. Recorded in the profile header for post-mortem rescaling.
  void set_period_scale(std::uint64_t scale);
  std::uint64_t period_scale() const {
    return period_scale_.load(std::memory_order_relaxed);
  }
  /// `configs()[cfg_index].period * period_scale()` — the period new
  /// samples are actually taken at.
  std::uint64_t effective_period(std::size_t cfg_index) const;

  // sim::AccessObserver:
  void on_access(const sim::MemAccess& access) override;
  void on_compute(sim::ThreadId tid, sim::CoreId core, std::uint64_t instrs,
                  sim::Addr ip, sim::Cycles now) override;
  /// Opts into the gate (one machine at a time; its core count must
  /// match the set's).
  bool on_attach(sim::Machine& machine, sim::GateFilter* filter) override;
  void on_detach() override;

  /// Folds the ops the gate has skipped so far into the countdowns and
  /// the `pmu.events` cells, so registry readers see every event. Call
  /// at quiescent points; set_enabled() and detaching call it.
  void sync();

  std::uint64_t samples_taken() const;
  /// Events `cfg_index` has counted, including ops the gate skipped but
  /// sync() has not folded yet. Exact at quiescent points.
  std::uint64_t events_counted(std::size_t cfg_index) const;
  const std::vector<PmuConfig>& configs() const { return configs_; }

 private:
  /// Everything one (cfg, core) pair writes per event, on a cache line
  /// of its own: the countdown, its jitter generator, and this pair's
  /// registry cells of `pmu.events{event=...}` and `pmu.samples`. The
  /// cells are single-writer (obs::Counter::add_owned) under the
  /// machine's per-core contract, and the accessors sum them — so
  /// events_counted(i) stays per-cfg even when two cfgs sample the same
  /// event kind.
  struct alignas(64) Slot {
    std::uint64_t countdown = 0;
    std::uint64_t rng = 0;
    obs::Counter events;
    obs::Counter samples;
  };

  /// Catches `core`'s IBS slots up on the ops its gate skipped (none
  /// when ungated or disabled).
  void catch_up(sim::CoreId core);
  /// Arms `core`'s gate with its smallest IBS countdown (or never, when
  /// disabled or no IBS event is configured).
  void arm(sim::CoreId core);
  bool event_matches(const PmuConfig& cfg, const sim::MemAccess& a) const;
  void emit(Slot& slot, const Sample& sample);
  /// Next countdown value for `slot` of `cfg`: period +/- jitter from the
  /// slot's deterministic generator.
  std::uint64_t next_period(const PmuConfig& cfg, Slot& slot);
  Slot& slot(std::size_t cfg_index, sim::CoreId core) {
    return slots_[cfg_index * cores_ + static_cast<std::size_t>(core)];
  }

  std::vector<PmuConfig> configs_;
  std::size_t cores_ = 0;
  std::vector<Slot> slots_;  // [cfg * cores_ + core]
  SampleHandler handler_;
  bool enabled_ = true;
  sim::Machine* gated_by_ = nullptr;  // machine whose gate this set arms
  // Written by the overload-throttle path, read by stats readers on
  // other threads — atomic (relaxed: the value is advisory, no ordering
  // with other state is implied).
  std::atomic<std::uint64_t> period_scale_{1};
};

}  // namespace dcprof::pmu
