#include "rt/exec.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "rt/team.h"

namespace dcprof::rt {

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kDeterministic: return "det";
    case BackendKind::kSharded: return "sockets";
  }
  return "?";
}

std::optional<BackendKind> parse_backend(std::string_view name) {
  if (name == "det" || name == "deterministic") {
    return BackendKind::kDeterministic;
  }
  if (name == "sockets" || name == "sharded") return BackendKind::kSharded;
  return std::nullopt;
}

namespace {

/// Static block partition of [begin, end) over nt threads: thread t owns
/// [begin + t*per, min(begin + (t+1)*per, end)). Shared by both backends
/// so they hand every thread the same iterations.
struct Partition {
  std::int64_t per = 0;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  Partition(std::int64_t b, std::int64_t e, std::int64_t nt)
      : per((e - b + nt - 1) / nt), begin(b), end(e) {}
  std::int64_t lo(std::int64_t t) const { return begin + t * per; }
  std::int64_t hi(std::int64_t t) const {
    const std::int64_t h = lo(t) + per;
    const std::int64_t clamped = h < end ? h : end;
    return clamped > lo(t) ? clamped : lo(t);
  }
};

/// The single-host-thread policy: one chunk per thread per round, threads
/// in tid order. Samples are attributed synchronously inside the access
/// that raised them, so this backend never calls the ExecObserver.
class DeterministicBackend final : public ExecBackend {
 public:
  bool concurrent() const override { return false; }

  void run_for(Team& team, std::int64_t begin, std::int64_t end,
               std::int64_t chunk, ForBodyRef body) override {
    team.barrier();
    const std::int64_t len = end - begin;
    if (len <= 0) return;
    const auto nt = static_cast<std::int64_t>(team.size());
    const Partition part(begin, end, nt);
    struct Range {
      std::int64_t next;
      std::int64_t end;
    };
    std::vector<Range> ranges;
    ranges.reserve(static_cast<std::size_t>(nt));
    for (std::int64_t t = 0; t < nt; ++t) {
      ranges.push_back(Range{part.lo(t), part.hi(t)});
    }
    bool any = true;
    while (any) {
      any = false;
      for (std::int64_t t = 0; t < nt; ++t) {
        auto& r = ranges[static_cast<std::size_t>(t)];
        if (r.next >= r.end) continue;
        any = true;
        ThreadCtx& ctx = team.thread(static_cast<int>(t));
        const std::int64_t stop =
            r.next + chunk < r.end ? r.next + chunk : r.end;
        for (std::int64_t i = r.next; i < stop; ++i) body(ctx, i);
        r.next = stop;
      }
    }
    team.barrier();
  }

  void run_region(Team& team, RegionBodyRef body) override {
    team.barrier();
    for (int t = 0; t < team.size(); ++t) body(team.thread(t));
    team.barrier();
  }
};

/// Epoch-sharded backend: one persistent host worker per simulated
/// *socket group* (the team threads whose cores share a socket). Within
/// an epoch the groups run truly concurrently — no turn token — because
/// every machine structure they touch is core- or socket-private; the
/// accesses that are not (remote-homed pages, first touches) arrive here
/// through sim::DeferSink and queue per thread. At each epoch barrier
/// the last-arriving worker replays every queue through
/// Machine::resolve_deferred in canonical (socket, thread, issue) order
/// while the rest spin parked, so shared state (first-touch bindings,
/// DRAM controller backlogs) still evolves in ONE reproducible global
/// order. `sharded_serial` runs the identical epoch schedule inline on
/// the calling thread: the verification twin every parallel run is
/// byte-compared against.
///
/// Memory-ordering sketch: workers arriving at the barrier fetch_add the
/// arrival counter with acq_rel; the release sequence on that counter
/// publishes all their epoch writes (queues, caches, clocks) to the
/// last arriver, which resolves and then bumps the generation with a
/// release store that the spinners' acquire loads pair with — publishing
/// the resolver's mutations (clock bumps, sample buffer appends) back.
class ShardedBackend final : public ExecBackend, public sim::DeferSink {
 public:
  explicit ShardedBackend(const ExecConfig& cfg)
      : serial_(cfg.sharded_serial),
        epoch_rounds_(cfg.epoch_rounds > 0 ? cfg.epoch_rounds : 1) {
    obs::Registry& reg = obs::Registry::global();
    epochs_ = reg.counter("rt.sharded.epochs");
    deferred_remote_ = reg.counter("rt.sharded.deferred", {{"kind", "remote"}});
    deferred_first_touch_ =
        reg.counter("rt.sharded.deferred", {{"kind", "first_touch"}});
    deferred_cycles_ = reg.counter("rt.sharded.deferred_cycles");
    barrier_wait_ns_ = reg.counter("rt.sharded.barrier_wait_ns");
  }

  ~ShardedBackend() override {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  /// True in BOTH modes (parallel and serial twin): the profiler must
  /// take the identical deferred-ingest path for profiles to match.
  bool concurrent() const override { return true; }

  void run_for(Team& team, std::int64_t begin, std::int64_t end,
               std::int64_t chunk, ForBodyRef body) override {
    team.barrier();
    const std::int64_t len = end - begin;
    if (len <= 0) return;
    Task t;
    t.is_for = true;
    t.begin = begin;
    t.end = end;
    t.chunk = chunk > 0 ? chunk : 1;
    const auto nt = static_cast<std::int64_t>(team.size());
    t.per = (len + nt - 1) / nt;
    t.rounds = static_cast<std::uint64_t>((t.per + t.chunk - 1) / t.chunk);
    t.for_body = body;
    execute(team, t);
    team.barrier();
  }

  void run_region(Team& team, RegionBodyRef body) override {
    team.barrier();
    Task t;
    t.is_for = false;
    t.rounds = 1;
    t.region_body = body;
    execute(team, t);
    team.barrier();
  }

  /// sim::DeferSink — called mid-epoch on the host thread driving
  /// `d.tid`'s group (queues are per thread, so never contended). The
  /// shadow stack is snapshotted NOW: whether this access gets sampled is
  /// only known at resolve time, and by then the live stack has moved on.
  void on_deferred(const sim::DeferredAccess& d) override {
    Queue& q = queues_[static_cast<std::size_t>(d.tid)];
    const std::span<const Addr> stack =
        team_->thread(static_cast<int>(d.tid)).call_stack();
    DeferredRec rec;
    rec.d = d;
    rec.stack_off = static_cast<std::uint32_t>(q.arena.size());
    rec.stack_len = static_cast<std::uint32_t>(stack.size());
    q.arena.insert(q.arena.end(), stack.begin(), stack.end());
    q.recs.push_back(rec);
  }

 private:
  struct Task {
    bool is_for = false;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::int64_t per = 0;
    std::int64_t chunk = 0;
    std::uint64_t rounds = 0;
    ForBodyRef for_body{};
    RegionBodyRef region_body{};
  };

  struct DeferredRec {
    sim::DeferredAccess d;
    std::uint32_t stack_off = 0;  ///< into Queue::arena
    std::uint32_t stack_len = 0;
  };

  /// One issuing thread's epoch queue: records in issue order plus a
  /// flat arena holding their stack snapshots back to back.
  struct Queue {
    std::vector<DeferredRec> recs;
    std::vector<Addr> arena;
  };

  /// Partitions the team's threads into socket groups (ascending tids;
  /// sockets with no threads dropped). Fixed for the team's lifetime —
  /// a Team owns its backend, so `team` never changes across calls.
  void ensure_groups(Team& team) {
    if (grouped_) return;
    team_ = &team;
    machine_ = &team.master().machine();
    const sim::MachineConfig& cfg = machine_->config();
    std::vector<std::vector<int>> by_socket(
        static_cast<std::size_t>(cfg.sockets));
    for (int t = 0; t < team.size(); ++t) {
      const int s = cfg.socket_of(team.thread(t).core());
      by_socket[static_cast<std::size_t>(s)].push_back(t);
    }
    for (auto& g : by_socket) {
      if (!g.empty()) groups_.push_back(std::move(g));
    }
    queues_.resize(static_cast<std::size_t>(team.size()));
    grouped_ = true;
  }

  void execute(Team& team, const Task& t) {
    ensure_groups(team);
    aborted_.store(false, std::memory_order_relaxed);
    machine_->set_defer_sink(this);
    if (serial_ || groups_.size() == 1) {
      run_serial(t);
    } else {
      dispatch(t);
    }
    machine_->set_defer_sink(nullptr);
    std::exception_ptr err;
    {
      std::lock_guard lock(mu_);
      err = std::exchange(error_, nullptr);
    }
    if (err) std::rethrow_exception(err);
    if (ExecObserver* obs = team.exec_observer()) obs->on_quiescent(team);
  }

  /// The verification twin: identical epoch schedule, one host thread.
  /// Socket groups run back to back within each epoch — legal because
  /// their intra-epoch state is disjoint by construction, so sequential
  /// and concurrent execution produce the same machine state.
  void run_serial(const Task& t) {
    for (std::uint64_t r0 = 0; r0 < t.rounds; r0 += epoch_rounds_) {
      const std::uint64_t r1 =
          r0 + epoch_rounds_ < t.rounds ? r0 + epoch_rounds_ : t.rounds;
      for (std::size_t g = 0; g < groups_.size(); ++g) {
        run_group_rounds(g, t, r0, r1);
      }
      finish_epoch();
    }
  }

  void start() {
    if (!workers_.empty()) return;
    const std::size_t ng = groups_.size();
    workers_.reserve(ng);
    for (std::size_t g = 0; g < ng; ++g) {
      workers_.emplace_back([this, g] { worker_loop(g); });
    }
  }

  /// Publishes one task to the socket workers and waits for completion.
  /// The mutex handoff on both edges makes the master's pre-dispatch
  /// writes (clock sync, TeamScope frames, the defer-sink install)
  /// visible to workers and their results visible back.
  void dispatch(const Task& t) {
    start();
    {
      std::lock_guard lock(mu_);
      task_ = t;
      active_ = static_cast<int>(workers_.size());
      ++task_gen_;
    }
    cv_.notify_all();
    {
      std::unique_lock lock(mu_);
      done_cv_.wait(lock, [&] { return active_ == 0; });
    }
  }

  void worker_loop(std::size_t g) {
    std::uint64_t seen = 0;
    for (;;) {
      Task t;
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [&] { return stop_ || task_gen_ != seen; });
        if (stop_) return;
        seen = task_gen_;
        t = task_;
      }
      for (std::uint64_t r0 = 0; r0 < t.rounds; r0 += epoch_rounds_) {
        const std::uint64_t r1 =
            r0 + epoch_rounds_ < t.rounds ? r0 + epoch_rounds_ : t.rounds;
        run_group_rounds(g, t, r0, r1);
        epoch_barrier();
      }
      {
        std::lock_guard lock(mu_);
        if (--active_ == 0) done_cv_.notify_all();
      }
    }
  }

  /// Runs rounds [r0, r1) of group `g`: one chunk per group thread per
  /// round, threads in ascending tid order — the deterministic schedule
  /// restricted to this socket. After each chunk the worker drains that
  /// thread's sample buffer on its own host thread, so CCT attribution
  /// overlaps across sockets along with the simulation.
  void run_group_rounds(std::size_t g, const Task& t, std::uint64_t r0,
                        std::uint64_t r1) {
    ExecObserver* const obs = team_->exec_observer();
    for (const int w : groups_[g]) {
      ThreadCtx& ctx = team_->thread(w);
      if (t.is_for) {
        const Partition part(t.begin, t.end,
                             static_cast<std::int64_t>(team_->size()));
        const std::int64_t lo = part.lo(w);
        const std::int64_t hi = part.hi(w);
        for (std::uint64_t r = r0; r < r1; ++r) {
          const std::int64_t next =
              lo + static_cast<std::int64_t>(r) * t.chunk;
          if (next >= hi) continue;
          const std::int64_t stop =
              next + t.chunk < hi ? next + t.chunk : hi;
          if (!aborted_.load(std::memory_order_relaxed)) {
            try {
              for (std::int64_t i = next; i < stop; ++i) t.for_body(ctx, i);
            } catch (...) {
              record_error();
            }
          }
          if (obs != nullptr && !aborted_.load(std::memory_order_relaxed)) {
            obs->on_slice_retired(ctx);
          }
        }
      } else {
        if (!aborted_.load(std::memory_order_relaxed)) {
          try {
            t.region_body(ctx);
          } catch (...) {
            record_error();
          }
        }
        if (obs != nullptr && !aborted_.load(std::memory_order_relaxed)) {
          obs->on_slice_retired(ctx);
        }
      }
    }
  }

  /// Sense-reversing barrier over the socket workers. The last arriver
  /// resolves the epoch while everyone else spins on the generation;
  /// see the class comment for the release/acquire pairing.
  void epoch_barrier() {
    const std::uint64_t my_gen = gen_.load(std::memory_order_acquire);
    const auto before =
        arrived_.fetch_add(1, std::memory_order_acq_rel);
    if (before + 1 == static_cast<std::uint32_t>(groups_.size())) {
      arrived_.store(0, std::memory_order_relaxed);
      finish_epoch();
      gen_.store(my_gen + 1, std::memory_order_release);
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    while (gen_.load(std::memory_order_acquire) == my_gen) {
      std::this_thread::yield();
    }
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    barrier_wait_ns_.add(static_cast<std::uint64_t>(ns));
  }

  /// Replays every queued access in canonical (socket, thread, issue)
  /// order — the epoch's one global serialization point for shared
  /// state. Runs single-threaded (last arriver, or the serial twin's
  /// only thread) with every worker parked, so it may freely touch any
  /// thread's clock and sample buffer. The accumulated resolved latency
  /// lands on the issuing thread's clock as one bump (issue time charged
  /// nothing), and the stack snapshot is presented via replay so sampled
  /// deferred accesses attribute to the calling context they issued in.
  void finish_epoch() {
    epochs_.inc();
    count_deferred();
    if (aborted_.load(std::memory_order_relaxed)) {
      clear_queues();
      return;
    }
    try {
      for (const std::vector<int>& group : groups_) {
        for (const int w : group) {
          Queue& q = queues_[static_cast<std::size_t>(w)];
          if (q.recs.empty()) continue;
          ThreadCtx& ctx = team_->thread(w);
          Cycles extra = 0;
          for (const DeferredRec& rec : q.recs) {
            ctx.begin_stack_replay(std::span<const Addr>(
                q.arena.data() + rec.stack_off, rec.stack_len));
            const sim::AccessResult r = machine_->resolve_deferred(rec.d);
            extra += r.latency;
          }
          ctx.end_stack_replay();
          ctx.set_clock(ctx.clock() + extra);
          deferred_cycles_.add(extra);
          q.recs.clear();
          q.arena.clear();
        }
      }
    } catch (...) {
      record_error();
      clear_queues();
    }
  }

  /// Tallies the epoch's queued accesses by kind into
  /// `rt.sharded.deferred{kind}` — once per epoch here, rather than a
  /// shared-counter bump per on_deferred on every worker.
  void count_deferred() {
    std::uint64_t first_touch = 0, total = 0;
    for (const Queue& q : queues_) {
      total += q.recs.size();
      for (const DeferredRec& rec : q.recs) first_touch += rec.d.first_touch;
    }
    deferred_first_touch_.add(first_touch);
    deferred_remote_.add(total - first_touch);
  }

  void clear_queues() {
    for (Queue& q : queues_) {
      q.recs.clear();
      q.arena.clear();
    }
  }

  void record_error() {
    std::lock_guard lock(mu_);
    if (!error_) error_ = std::current_exception();
    aborted_.store(true, std::memory_order_relaxed);
  }

  bool serial_ = false;
  std::uint32_t epoch_rounds_ = 8;
  bool grouped_ = false;
  Team* team_ = nullptr;
  sim::Machine* machine_ = nullptr;
  std::vector<std::vector<int>> groups_;  ///< socket -> ascending tids
  std::vector<Queue> queues_;             ///< per team thread

  std::vector<std::thread> workers_;  ///< one per socket group
  std::mutex mu_;
  std::condition_variable cv_;       ///< task published / stop
  std::condition_variable done_cv_;  ///< all workers finished a task
  std::uint64_t task_gen_ = 0;       ///< task generation (guarded by mu_)
  int active_ = 0;                   ///< workers still on the task
  bool stop_ = false;
  Task task_;
  std::exception_ptr error_;  ///< first body exception (guarded by mu_)
  std::atomic<bool> aborted_{false};

  std::atomic<std::uint32_t> arrived_{0};  ///< epoch-barrier arrivals
  std::atomic<std::uint64_t> gen_{0};      ///< epoch generation

  obs::Counter epochs_;
  obs::Counter deferred_remote_;
  obs::Counter deferred_first_touch_;
  obs::Counter deferred_cycles_;
  obs::Counter barrier_wait_ns_;
};

}  // namespace

std::unique_ptr<ExecBackend> make_backend(const ExecConfig& cfg) {
  if (cfg.backend == BackendKind::kSharded) {
    return std::make_unique<ShardedBackend>(cfg);
  }
  return std::make_unique<DeterministicBackend>();
}

}  // namespace dcprof::rt
