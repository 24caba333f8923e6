// Execution backends: how a Team's parallel constructs actually run.
//
// The scheduling *policy* is chosen via ExecConfig instead of being baked
// into Team::parallel_for. Two backends exist:
//
// DeterministicBackend runs every team thread round-robin on the calling
// host thread: one chunk per thread per round, threads in tid order. The
// simulated machine (shared L3 content, DRAM queue backlogs, first-touch
// page homes) evolves in that one global order, and the profiler
// attributes each sample synchronously, inside the access that raised it.
//
// ShardedBackend overlaps the *simulation* itself: one host worker per
// simulated socket runs that socket's threads against socket-private
// machine state (L1/L2/TLB/prefetcher, the socket's L3, its locally-homed
// DRAM controllers). Accesses that would touch cross-socket shared state
// — pages homed on another socket, or not yet homed (first touch) — are
// deferred into per-thread queues and replayed at deterministic epoch
// barriers in canonical (socket, thread, issue) order, every
// `epoch_rounds` chunk rounds. Samples are buffered per thread and
// attributed on the owning worker after each chunk (see ExecObserver and
// core::Profiler's deferred ingest). Its verification twin is the same
// backend with `sharded_serial = true`: the identical epoch schedule run
// on one host thread, byte-identical profiles by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace dcprof::rt {

class Team;
class ThreadCtx;

enum class BackendKind : std::uint8_t {
  kDeterministic,  ///< round-robin virtual threads on the calling thread
  kSharded,        ///< one std::thread per socket, epoch-barrier resolved
};

const char* to_string(BackendKind kind);
/// Parses "det" / "sockets" (or their long forms "deterministic" /
/// "sharded"); nullopt on anything else.
std::optional<BackendKind> parse_backend(std::string_view name);

/// How a Team executes its parallel constructs.
struct ExecConfig {
  BackendKind backend = BackendKind::kDeterministic;
  /// kSharded: chunk rounds per epoch. Longer epochs amortize barriers;
  /// shorter ones bound how stale deferred remote accesses get.
  std::uint32_t epoch_rounds = 8;
  /// kSharded: run the identical epoch schedule on the calling host
  /// thread instead of socket workers — the backend's verification twin
  /// (profiles must match the parallel run byte for byte).
  bool sharded_serial = false;
};

/// Non-owning type-erased loop body: `fn(obj, ctx, i)` runs iteration i.
/// (A function-ref, not std::function — no allocation, the body outlives
/// the call by construction.)
struct ForBodyRef {
  void* obj = nullptr;
  void (*fn)(void*, ThreadCtx&, std::int64_t) = nullptr;
  void operator()(ThreadCtx& ctx, std::int64_t i) const { fn(obj, ctx, i); }
};

/// Non-owning type-erased parallel-region body: `fn(obj, ctx)`.
struct RegionBodyRef {
  void* obj = nullptr;
  void (*fn)(void*, ThreadCtx&) = nullptr;
  void operator()(ThreadCtx& ctx) const { fn(obj, ctx); }
};

/// Hooks a sample consumer (the profiler) implements to learn about safe
/// drain points in the *concurrent* (sharded) backend. Never invoked by
/// the deterministic backend (samples are attributed synchronously there).
class ExecObserver {
 public:
  virtual ~ExecObserver() = default;
  /// Called on the socket worker driving `ctx` right after one of its
  /// chunks (or its region body) ran: draining ITS OWN per-thread sample
  /// buffer here overlaps with the other sockets' simulation, and
  /// samples that the previous epoch barrier replayed for this thread
  /// attribute on their owner's worker too.
  virtual void on_slice_retired(ThreadCtx& ctx) = 0;
  /// Called on the controlling thread once all workers are parked (end
  /// of a parallel construct): flush every remaining buffer and fold the
  /// per-thread tallies.
  virtual void on_quiescent(Team& team) = 0;
};

class ExecBackend {
 public:
  virtual ~ExecBackend() = default;
  /// True when team threads run on real host threads (samples must be
  /// buffered per thread and drained at the observer's hook points).
  virtual bool concurrent() const = 0;
  virtual void run_for(Team& team, std::int64_t begin, std::int64_t end,
                       std::int64_t chunk, ForBodyRef body) = 0;
  virtual void run_region(Team& team, RegionBodyRef body) = 0;
};

std::unique_ptr<ExecBackend> make_backend(const ExecConfig& cfg);

}  // namespace dcprof::rt
