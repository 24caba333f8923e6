#include "sim/machine.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "obs/registry.h"
#include "pmu/pmu.h"

namespace dcprof::sim {
namespace {

MachineConfig tiny() {
  MachineConfig cfg;
  cfg.sockets = 2;
  cfg.cores_per_socket = 2;
  cfg.l1 = CacheConfig{1024, 2, 64};
  cfg.l2 = CacheConfig{4096, 4, 64};
  cfg.l3 = CacheConfig{16384, 8, 64};
  return cfg;
}

class RecordingObserver : public AccessObserver {
 public:
  void on_access(const MemAccess& access) override {
    accesses.push_back(access);
  }
  void on_compute(ThreadId tid, CoreId core, std::uint64_t instrs, Addr ip,
                  Cycles now) override {
    computes.push_back({tid, core, instrs, ip, now});
  }
  struct ComputeEvent {
    ThreadId tid;
    CoreId core;
    std::uint64_t instrs;
    Addr ip;
    Cycles now;
  };
  std::vector<MemAccess> accesses;
  std::vector<ComputeEvent> computes;
};

TEST(Machine, AccessAdvancesClockByLatency) {
  Machine machine(tiny());
  Cycles clock = 100;
  const auto r = machine.access(0, 0, 0x400000, 0x10000000, 8, false, clock);
  EXPECT_EQ(clock, 100 + r.latency);
}

TEST(Machine, ComputeAdvancesClockOneCyclePerInstr) {
  Machine machine(tiny());
  Cycles clock = 0;
  machine.compute(0, 0, 250, 0x400000, clock);
  EXPECT_EQ(clock, 250u);
}

TEST(Machine, CountsInstructionsAndAccesses) {
  Machine machine(tiny());
  Cycles clock = 0;
  machine.access(0, 0, 0x400000, 0x10000000, 8, false, clock);
  machine.access(0, 0, 0x400000, 0x10000000, 8, true, clock);
  machine.compute(0, 0, 10, 0x400000, clock);
  EXPECT_EQ(machine.memory_accesses(), 2u);
  EXPECT_EQ(machine.instructions_retired(), 12u);
}

TEST(Machine, ObserverSeesResolvedAccesses) {
  Machine machine(tiny());
  RecordingObserver obs;
  machine.set_observer(&obs);
  Cycles clock = 42;
  machine.access(3, 1, 0xabc, 0x10000000, 4, true, clock);
  ASSERT_EQ(obs.accesses.size(), 1u);
  const MemAccess& a = obs.accesses[0];
  EXPECT_EQ(a.tid, 3);
  EXPECT_EQ(a.core, 1);
  EXPECT_EQ(a.ip, 0xabcu);
  EXPECT_EQ(a.addr, 0x10000000u);
  EXPECT_EQ(a.size, 4u);
  EXPECT_TRUE(a.is_store);
  EXPECT_EQ(a.at, 42u);  // issue time, before latency
  EXPECT_GT(a.result.latency, 0u);
}

TEST(Machine, ObserverSeesComputeWithIp) {
  Machine machine(tiny());
  RecordingObserver obs;
  machine.set_observer(&obs);
  Cycles clock = 0;
  machine.compute(1, 2, 99, 0x500000, clock);
  ASSERT_EQ(obs.computes.size(), 1u);
  EXPECT_EQ(obs.computes[0].tid, 1);
  EXPECT_EQ(obs.computes[0].core, 2);
  EXPECT_EQ(obs.computes[0].instrs, 99u);
  EXPECT_EQ(obs.computes[0].ip, 0x500000u);
}

TEST(Machine, DetachingObserverStopsCallbacks) {
  Machine machine(tiny());
  RecordingObserver obs;
  machine.set_observer(&obs);
  Cycles clock = 0;
  machine.access(0, 0, 0, 0x10000000, 8, false, clock);
  machine.set_observer(nullptr);
  machine.access(0, 0, 0, 0x10000000, 8, false, clock);
  EXPECT_EQ(obs.accesses.size(), 1u);
}

// ---------------------------------------------------------- sample gate --

/// Opts into the gate with a fixed arm value and filter; records the ops
/// skipped before each call and re-arms.
class GateProbe : public AccessObserver {
 public:
  GateProbe(std::uint64_t arm, GateFilter filter)
      : arm_(arm), filter_(filter) {}
  ~GateProbe() override {
    if (machine_ != nullptr) machine_->set_observer(nullptr);
  }
  bool on_attach(Machine& machine, GateFilter* filter) override {
    machine_ = &machine;
    *filter = filter_;
    for (int c = 0; c < machine.config().num_cores(); ++c) {
      machine.arm_gate(c, arm_);
    }
    return true;
  }
  void on_detach() override { machine_ = nullptr; }
  void on_access(const MemAccess& a) override { called(a.core); }
  void on_compute(ThreadId, CoreId core, std::uint64_t, Addr,
                  Cycles) override {
    called(core);
  }
  std::vector<std::uint64_t> skipped;  // per call
  Machine* machine_ = nullptr;

 private:
  void called(CoreId core) {
    skipped.push_back(machine_->gate_skipped(core));
    machine_->arm_gate(core, arm_);
  }
  std::uint64_t arm_;
  GateFilter filter_;
};

std::uint64_t ibs_events_in_registry() {
  return obs::Registry::global().snapshot().value("pmu.events{event=IBS_OP}");
}

TEST(SampleGate, AccessLandingExactlyOnExpiryIsDelivered) {
  Machine machine(tiny());
  GateProbe probe(3, 0);
  machine.set_observer(&probe);
  Cycles clock = 0;
  machine.access(0, 0, 0, 0x10000000, 8, false, clock);
  machine.access(0, 0, 0, 0x10000000, 8, false, clock);
  EXPECT_TRUE(probe.skipped.empty());
  EXPECT_EQ(machine.gate_skipped(0), 2u);
  EXPECT_EQ(machine.gate_skipped(1), 0u);  // per core
  machine.access(0, 0, 0, 0x10000000, 8, false, clock);
  ASSERT_EQ(probe.skipped.size(), 1u);
  EXPECT_EQ(probe.skipped[0], 2u);
  EXPECT_EQ(machine.gate_skipped(0), 0u);
  // Compute ops count down the same gate: 2 ops skip, the next expires.
  machine.compute(0, 0, 2, 0, clock);
  EXPECT_EQ(probe.skipped.size(), 1u);
  machine.compute(0, 0, 1, 0, clock);
  ASSERT_EQ(probe.skipped.size(), 2u);
  EXPECT_EQ(probe.skipped[1], 2u);
  EXPECT_EQ(machine.instructions_retired(), 6u);  // counted either way
}

TEST(SampleGate, FilteredAccessesAreDeliveredWhateverTheGate) {
  Machine machine(tiny());
  GateProbe probe(1'000'000, kGateTlbMiss | gate_level(MemLevel::kL2));
  machine.set_observer(&probe);
  Cycles clock = 0;
  machine.access(0, 0, 0, 0x10000000, 8, false, clock);  // TLB miss
  ASSERT_EQ(probe.skipped.size(), 1u);
  machine.access(0, 0, 0, 0x10000000, 8, false, clock);  // L1 + TLB hit
  EXPECT_EQ(probe.skipped.size(), 1u);
  EXPECT_EQ(machine.gate_skipped(0), 1u);
}

TEST(SampleGate, ComputeBatchSpanningSeveralPeriods) {
  Machine machine(tiny());
  pmu::PmuSet gated(tiny(), {pmu::PmuConfig{pmu::EventKind::kIbsOp, 10, 0, 0}});
  pmu::PmuSet direct(tiny(), {pmu::PmuConfig{pmu::EventKind::kIbsOp, 10, 0, 0}});
  std::vector<pmu::Sample> got, want;
  gated.set_handler([&](const pmu::Sample& s) { got.push_back(s); });
  direct.set_handler([&](const pmu::Sample& s) { want.push_back(s); });
  machine.set_observer(&gated);
  Cycles clock = 0;
  for (const std::uint64_t instrs : {25u, 4u, 1u, 3u, 47u, 0u, 9u}) {
    machine.compute(0, 1, instrs, 0x500000, clock);
    direct.on_compute(0, 1, instrs, 0x500000, clock);
    EXPECT_EQ(gated.events_counted(0), direct.events_counted(0));
  }
  // 25 -> 2 samples; 4 skipped; 1 lands on expiry; 3 + 47 -> 5; 9 skipped.
  ASSERT_EQ(got.size(), 8u);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].at, want[i].at);
    EXPECT_EQ(got[i].core, 1);
    EXPECT_FALSE(got[i].is_memory);
  }
  EXPECT_EQ(gated.events_counted(0), 89u);
}

TEST(SampleGate, PmuSampleLandsOnTheExpiringAccess) {
  Machine machine(tiny());
  pmu::PmuSet pmu(tiny(), {pmu::PmuConfig{pmu::EventKind::kIbsOp, 4, 0, 0}});
  std::vector<pmu::Sample> samples;
  pmu.set_handler([&](const pmu::Sample& s) { samples.push_back(s); });
  machine.set_observer(&pmu);
  Cycles clock = 0;
  for (Addr i = 0; i < 8; ++i) {
    machine.access(0, 2, 0x400000 + i, 0x10000000 + i * 64, 8, false, clock);
    EXPECT_EQ(samples.size(), (i + 1) / 4);
  }
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].eaddr, 0x10000000u + 3 * 64);
  EXPECT_EQ(samples[1].precise_ip, 0x400000u + 7);
}

TEST(SampleGate, SwappingOrNullingTheObserverFoldsPendingEvents) {
  Machine machine(tiny());
  pmu::PmuSet pmu(tiny(),
                  {pmu::PmuConfig{pmu::EventKind::kIbsOp, 100, 0, 0}});
  std::vector<pmu::Sample> samples;
  pmu.set_handler([&](const pmu::Sample& s) { samples.push_back(s); });
  const std::uint64_t base = ibs_events_in_registry();
  machine.set_observer(&pmu);
  Cycles clock = 0;
  for (int i = 0; i < 50; ++i) {
    machine.access(0, 0, 0, 0x10000000, 8, false, clock);
  }
  EXPECT_EQ(pmu.events_counted(0), 50u);
  // Swap in an ungated observer: the PMU's pending ops are folded, and
  // the new observer sees every access — no stale gate survives.
  RecordingObserver rec;
  machine.set_observer(&rec);
  EXPECT_EQ(ibs_events_in_registry() - base, 50u);
  for (int i = 0; i < 3; ++i) {
    machine.access(0, 0, 0, 0x10000000, 8, false, clock);
  }
  machine.compute(0, 0, 0, 0, clock);
  EXPECT_EQ(rec.accesses.size(), 3u);
  EXPECT_EQ(rec.computes.size(), 1u);
  // Back to the PMU: its countdown resumes where it stopped (50 left).
  machine.set_observer(&pmu);
  for (int i = 0; i < 49; ++i) {
    machine.access(0, 0, 0, 0x10000000, 8, false, clock);
  }
  EXPECT_TRUE(samples.empty());
  machine.access(0, 0, 0, 0x10000000, 8, false, clock);
  EXPECT_EQ(samples.size(), 1u);
  for (int i = 0; i < 10; ++i) {
    machine.access(0, 0, 0, 0x10000000, 8, false, clock);
  }
  // Nulling folds too.
  machine.set_observer(nullptr);
  EXPECT_EQ(ibs_events_in_registry() - base, 110u);
  EXPECT_EQ(pmu.events_counted(0), 110u);
  machine.access(0, 0, 0, 0x10000000, 8, false, clock);
  EXPECT_EQ(pmu.events_counted(0), 110u);
}

TEST(SampleGate, DisabledPmuCountsNothingAndResumesItsCountdown) {
  Machine machine(tiny());
  pmu::PmuSet pmu(tiny(), {pmu::PmuConfig{pmu::EventKind::kIbsOp, 5, 0, 0}});
  std::vector<pmu::Sample> samples;
  pmu.set_handler([&](const pmu::Sample& s) { samples.push_back(s); });
  machine.set_observer(&pmu);
  Cycles clock = 0;
  machine.compute(0, 0, 2, 0, clock);
  pmu.set_enabled(false);
  machine.compute(0, 0, 20, 0, clock);
  for (int i = 0; i < 20; ++i) {
    machine.access(0, 0, 0, 0x10000000, 8, false, clock);
  }
  EXPECT_TRUE(samples.empty());
  EXPECT_EQ(pmu.events_counted(0), 2u);
  pmu.set_enabled(true);
  machine.compute(0, 0, 2, 0, clock);
  EXPECT_TRUE(samples.empty());
  machine.access(0, 0, 0, 0x10000000, 8, false, clock);
  EXPECT_EQ(samples.size(), 1u);
  EXPECT_EQ(pmu.events_counted(0), 5u);
}

TEST(SampleGate, EitherSideMayBeDestroyedFirst) {
  auto machine = std::make_unique<Machine>(tiny());
  pmu::PmuSet pmu(tiny(), {pmu::PmuConfig{pmu::EventKind::kIbsOp, 8, 0, 0}});
  machine->set_observer(&pmu);
  Cycles clock = 0;
  machine->compute(0, 0, 3, 0, clock);
  machine.reset();  // detaches, folding the 3 pending ops
  EXPECT_EQ(pmu.events_counted(0), 3u);
  Machine other(tiny());
  {
    pmu::PmuSet scoped(tiny(), {pmu::PmuConfig{pmu::EventKind::kIbsOp, 8, 0, 0}});
    other.set_observer(&scoped);
  }
  EXPECT_EQ(other.observer(), nullptr);
  other.access(0, 0, 0, 0x10000000, 8, false, clock);
}

TEST(SampleGate, PmuRejectsAMachineOfAnotherShape) {
  Machine machine(tiny());
  MachineConfig bigger = tiny();
  bigger.sockets = 4;
  pmu::PmuSet pmu(bigger, {pmu::PmuConfig{pmu::EventKind::kIbsOp, 8, 0, 0}});
  EXPECT_THROW(machine.set_observer(&pmu), std::invalid_argument);
  EXPECT_EQ(machine.observer(), nullptr);
}

TEST(MachineConfig, CoreToNodeMapping) {
  MachineConfig cfg;
  cfg.sockets = 2;
  cfg.cores_per_socket = 4;
  cfg.numa_nodes_per_socket = 2;
  EXPECT_EQ(cfg.num_cores(), 8);
  EXPECT_EQ(cfg.num_nodes(), 4);
  EXPECT_EQ(cfg.socket_of(0), 0);
  EXPECT_EQ(cfg.socket_of(7), 1);
  // Cores 0,1 -> node 0; cores 2,3 -> node 1; cores 4,5 -> node 2; ...
  EXPECT_EQ(cfg.node_of(0), 0);
  EXPECT_EQ(cfg.node_of(1), 0);
  EXPECT_EQ(cfg.node_of(2), 1);
  EXPECT_EQ(cfg.node_of(4), 2);
  EXPECT_EQ(cfg.node_of(7), 3);
}

TEST(Machine, DeterministicAcrossRuns) {
  const auto run = [] {
    Machine machine(tiny());
    Cycles clock = 0;
    for (int i = 0; i < 1000; ++i) {
      machine.access(0, i % 4, 0x400000,
                     0x10000000 + static_cast<Addr>(i * 328), 8, i % 2 == 0,
                     clock);
    }
    return clock;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace dcprof::sim
