#include "ledger.h"

#include <x86intrin.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

namespace dcbench {

using namespace dcprof;

std::uint64_t ticks() {
  // Fenced so a timed interval neither starts before the work issued
  // ahead of it has finished nor ends before its own work has.
  _mm_lfence();
  const std::uint64_t t = __rdtsc();
  _mm_lfence();
  return t;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_per_tick() {
  // Calibrated once against steady_clock over ~50 ms.
  static const double spt = [] {
    const std::uint64_t n0 = now_ns();
    const std::uint64_t t0 = ticks();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::uint64_t n1 = now_ns();
    const std::uint64_t t1 = ticks();
    return static_cast<double>(n1 - n0) * 1e-9 /
           static_cast<double>(t1 - t0);
  }();
  return spt;
}

std::uint64_t tick_overhead() {
  // Cost of the tick pair itself, taken off every timed interval: the
  // median of many back-to-back readings.
  static const std::uint64_t cost = [] {
    std::vector<std::uint64_t> d(4001);
    for (auto& x : d) {
      const std::uint64_t t0 = ticks();
      x = ticks() - t0;
    }
    std::nth_element(d.begin(), d.begin() + 2000, d.end());
    return d[2000];
  }();
  return cost;
}

namespace {

/// Ticks since `t0`, less the cost of reading the clock.
std::uint64_t elapsed(std::uint64_t t0) {
  const std::uint64_t dt = ticks() - t0;
  const std::uint64_t cost = tick_overhead();
  return dt > cost ? dt - cost : 0;
}

void bump(std::atomic<std::uint64_t>& c, std::uint64_t n) {
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

thread_local Tally* t_tally = nullptr;
thread_local std::uint64_t t_generation = 0;
/// Observer calls left until this thread times one. Kept outside the
/// tally so an untimed call costs one thread-local decrement.
thread_local std::uint32_t t_countdown = 1;
thread_local std::uint32_t t_gap = 1;  ///< length of the current gap
thread_local std::uint64_t t_rng = 0;

/// Next gap between timed observer calls: uniform in [1, 63] (mean 32),
/// random so the timed calls do not alias with loop structure.
std::uint32_t next_gap() {
  if (t_rng == 0) {
    t_rng = std::hash<std::thread::id>{}(std::this_thread::get_id()) | 1;
  }
  t_rng = t_rng * 6364136223846793005ull + 1442695040888963407ull;
  return 1 + static_cast<std::uint32_t>((t_rng >> 33) % 63);
}

/// Times one observer call: the last of a gap of t_gap calls, so it
/// stands for all of them.
template <typename Fn>
[[gnu::noinline]] void timed_observe(Fn&& fn) {
  Tally& t = Ledger::global().local();
  bump(t.observe_calls, t_gap);
  t_gap = t_countdown = next_gap();
  const std::uint64_t sample0 = t.sample_ticks.load(std::memory_order_relaxed);
  const std::uint64_t t0 = ticks();
  fn();
  const std::uint64_t dt = elapsed(t0);
  const std::uint64_t nested =
      t.sample_ticks.load(std::memory_order_relaxed) - sample0;
  bump(t.observe_timed, 1);
  bump(t.observe_self_ticks, dt > nested ? dt - nested : 0);
}

/// Runs `fn` as one observer call, timing it when its turn comes.
template <typename Fn>
void observe(Fn&& fn) {
  if (--t_countdown != 0) {
    fn();
    return;
  }
  timed_observe(fn);
}

double secs(std::uint64_t ticks_) {
  return static_cast<double>(ticks_) * seconds_per_tick();
}

}  // namespace

double observe_bias_s() {
  // What the timed path reports for an observer that does nothing: the
  // virtual dispatch and pipeline cost the tick pair adds around a call,
  // beyond the clock reads themselves. Measured once, on a ledger
  // generation of its own.
  static const double bias = [] {
    struct Null final : sim::AccessObserver {
      void on_access(const sim::MemAccess&) override {}
      void on_compute(sim::ThreadId, sim::CoreId, std::uint64_t, sim::Addr,
                      sim::Cycles) override {}
    };
    Null null;
    TimedObserver timed(null);
    sim::AccessObserver* volatile observer = &timed;
    Ledger& ledger = Ledger::global();
    ledger.reset();
    const sim::MemAccess access{};
    constexpr int kCalls = 1 << 22;
    for (int i = 0; i < kCalls; ++i) observer->on_access(access);
    double self = 0;
    std::uint64_t calls = 0;
    {
      std::lock_guard lock(ledger.mu_);
      for (const Tally& t : ledger.tallies_) {
        const auto timed_calls = t.observe_timed.load(std::memory_order_relaxed);
        calls += timed_calls;
        self += secs(t.observe_self_ticks.load(std::memory_order_relaxed));
      }
    }
    ledger.reset();
    return calls > 0 ? self / static_cast<double>(calls) : 0.0;
  }();
  return bias;
}

Ledger& Ledger::global() {
  static Ledger ledger;
  return ledger;
}

Tally& Ledger::local() {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (t_tally == nullptr || t_generation != gen) {
    std::lock_guard lock(mu_);
    t_tally = &tallies_.emplace_back();
    t_generation = gen;
  }
  return *t_tally;
}

void Ledger::reset() {
  std::lock_guard lock(mu_);
  tallies_.clear();
  generation_.fetch_add(1, std::memory_order_release);
}

HookTotals Ledger::totals() const {
  std::lock_guard lock(mu_);
  HookTotals h;
  for (const Tally& t : tallies_) {
    const auto calls = t.observe_calls.load(std::memory_order_relaxed);
    const auto timed = t.observe_timed.load(std::memory_order_relaxed);
    if (timed > 0) {
      const double self =
          secs(t.observe_self_ticks.load(std::memory_order_relaxed)) *
          static_cast<double>(calls) / static_cast<double>(timed);
      h.observe_self_s +=
          std::max(0.0, self - observe_bias_s() * static_cast<double>(calls));
    }
    h.sample_s += secs(t.sample_ticks.load(std::memory_order_relaxed));
    h.slice_s += secs(t.slice_ticks.load(std::memory_order_relaxed));
    h.quiescent_s += secs(t.quiescent_ticks.load(std::memory_order_relaxed));
  }
  return h;
}

void TimedObserver::on_access(const sim::MemAccess& access) {
  observe([&] { inner_.on_access(access); });
}

void TimedObserver::on_compute(sim::ThreadId tid, sim::CoreId core,
                               std::uint64_t instrs, sim::Addr ip,
                               sim::Cycles now) {
  observe([&] { inner_.on_compute(tid, core, instrs, ip, now); });
}

void TimedExec::on_slice_retired(rt::ThreadCtx& ctx) {
  const std::uint64_t t0 = ticks();
  inner_.on_slice_retired(ctx);
  bump(Ledger::global().local().slice_ticks, elapsed(t0));
}

void TimedExec::on_quiescent(rt::Team& team) {
  const std::uint64_t t0 = ticks();
  inner_.on_quiescent(team);
  bump(Ledger::global().local().quiescent_ticks, elapsed(t0));
}

Interposer::Interposer(wl::ProcessCtx& proc)
    : proc_(proc), observer_(*proc.pmu()), exec_(*proc.profiler()) {
  core::Profiler* prof = proc.profiler();
  proc.pmu()->set_handler([prof](const pmu::Sample& s) {
    const std::uint64_t t0 = ticks();
    prof->handle_sample(s);
    const std::uint64_t dt = elapsed(t0);
    bump(Ledger::global().local().sample_ticks, dt);
  });
  proc.machine().set_observer(&observer_);
  if (proc.team().exec_observer() == prof) {
    proc.team().set_exec_observer(&exec_);
  }
}

Interposer::~Interposer() {
  // Hand the hooks back so ProcessCtx's own teardown finds its objects.
  if (proc_.machine().observer() == &observer_) {
    proc_.machine().set_observer(proc_.pmu());
  }
  if (proc_.team().exec_observer() == &exec_) {
    proc_.team().set_exec_observer(proc_.profiler());
  }
  core::Profiler* prof = proc_.profiler();
  proc_.pmu()->set_handler(
      [prof](const pmu::Sample& s) { prof->handle_sample(s); });
}

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

void SpanLog::record(const std::string& name, std::uint64_t t0_ns,
                     std::uint64_t t1_ns) {
  if (!enabled_) return;
  const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
  std::lock_guard lock(mu_);
  spans_.push_back(Span{name, tid, t0_ns, t1_ns});
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard lock(mu_);
  std::uint64_t base = UINT64_MAX;
  for (const Span& s : spans_) base = std::min(base, s.t0_ns);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                  "\"dur\":%.3f}",
                  static_cast<unsigned long long>(s.tid),
                  static_cast<double>(s.t0_ns - base) / 1e3,
                  static_cast<double>(s.t1_ns - s.t0_ns) / 1e3);
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name << "\","
        << buf;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

double Timer::stop() {
  if (!done_) {
    done_ = true;
    const std::uint64_t t1 = now_ns();
    s_ = static_cast<double>(t1 - t0_) * 1e-9;
    if (acc_ != nullptr) *acc_ += s_;
    SpanLog::global().record(name_, t0_, t1);
  }
  return s_;
}

}  // namespace dcbench
