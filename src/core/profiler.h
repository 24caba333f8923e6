// The online data-centric call-path profiler. Wires the PMU's samples and
// the allocator's hooks to per-thread profiles:
//  * each sample is attributed to the variable owning its effective
//    address (heap block -> allocation call path; static range -> symbol;
//    otherwise unknown) and to the sample's full calling context;
//  * heap samples get the allocation path *prepended* to the access path,
//    under a dummy "data accesses" node, so same-variable accesses from
//    any thread merge;
//  * per-thread CCTs mean no synchronization on the hot path;
//  * sample attribution is trampoline-memoized: each thread remembers the
//    CCT node path of its previous sample per storage class, and a sample
//    whose calling context shares a prefix with it (validated by the
//    ThreadCtx stack watermark, not a frame-by-frame compare) resumes the
//    walk at the divergence point. The caches only skip find-or-create
//    steps whose outcome is already known, so profiles are byte-identical
//    with memoization on or off;
//  * each sample goes through the same two steps on every backend:
//    `classify` (storage class, heap path, interned variable name — the
//    order-sensitive part, run when the sample is raised) and
//    `attribute` (CCT insertion and pattern recording, touching only the
//    owning thread's profile). The deterministic backend runs both at
//    once. Under the sharded rt backend the profiler runs in
//    deferred-ingest mode (it implements rt::ExecObserver): attribution
//    is buffered per thread and drained on the owning thread's socket
//    worker after each chunk, so drains of different sockets overlap.
//    Each drain replays its thread's samples in order, so a thread's
//    profile is byte-identical whether or not ingest was deferred.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "binfmt/load_module.h"
#include "core/alloc_tracker.h"
#include "core/profile.h"
#include "core/var_map.h"
#include "obs/registry.h"
#include "pmu/pmu.h"
#include "rt/alloc.h"
#include "rt/exec.h"
#include "rt/team.h"
#include "rt/thread.h"

namespace dcprof::core {

/// Graceful degradation under overload: when the mean sample-handling
/// latency over a window exceeds `budget_ns`, the PMU sampling period is
/// doubled (up to `max_scale`x the configured period) instead of letting
/// an overloaded handler grow CCTs without bound. The final period is
/// recorded in the profile header so the analyzer can rescale
/// sample-derived metrics. Disabled (budget_ns == 0) by default; the
/// disabled cost on the hot path is a single branch.
struct ThrottleConfig {
  std::uint64_t budget_ns = 0;   ///< mean ns/sample budget; 0 = off
  std::uint64_t window = 1024;   ///< samples per evaluation window
  std::uint64_t max_scale = 64;  ///< cap on the cumulative period factor
};

/// Deferred-ingest tuning: each thread buffers classified samples and
/// attributes them when its buffer drains (a full buffer drains in place).
struct IngestConfig {
  std::size_t buffer_capacity = 512;  ///< pending samples per thread
};

struct ProfilerConfig {
  TrackerConfig tracker;
  ThrottleConfig throttle;
  IngestConfig ingest;
  /// Attribute to the PMU's precise IP (true, the paper's approach) or to
  /// the skidded signal IP (false; the ablation baseline).
  bool use_precise_ip = true;
  /// Attribute stack-segment addresses to per-thread stack variables
  /// (the paper's future-work extension). When false, stack accesses
  /// fall through to unknown data, as in the paper.
  bool attribute_stack = true;
  /// Trampoline-memoized sample attribution: resume the CCT walk of the
  /// previous sample's calling context at the divergence point. Off =
  /// every sample walks all frames from its anchor (ablation baseline;
  /// output profiles are byte-identical either way).
  bool memoized_attribution = true;
  /// MRU cache in front of the heap interval map (see HeapVarMap).
  bool var_map_mru = true;
  /// Per-variable access-pattern analytics (memory-level/channel matrix,
  /// reuse-distance and stride histograms), recorded at attribution time
  /// into the owning thread's profile. Off leaves the v4 pattern table
  /// empty; profiles are otherwise unchanged.
  bool access_patterns = true;
};

/// Point-in-time view of a profiler's registry counters
/// (`profiler.samples{outcome=...}`, `profiler.class_samples{class=...}`,
/// `profiler.memo_frames{kind=reused|walked}`).
struct ProfilerStats {
  std::uint64_t samples_handled = 0;
  std::uint64_t samples_dropped = 0;  ///< unregistered thread
  std::uint64_t heap_samples = 0;
  std::uint64_t static_samples = 0;
  std::uint64_t stack_samples = 0;
  std::uint64_t unknown_samples = 0;
  std::uint64_t nomem_samples = 0;
  // Attribution-memo effectiveness, in frames (the unit of saved work):
  // a fully repeated context re-walks 0 frames and reuses all of them.
  std::uint64_t memo_frames_reused = 0;  ///< resumed from the cached path
  std::uint64_t memo_frames_walked = 0;  ///< walked through the CCT index
  // Overload degradation (ThrottleConfig).
  std::uint64_t throttle_events = 0;  ///< times the period was doubled
  std::uint64_t period_scale = 1;     ///< current cumulative period factor
};

class Profiler : public rt::ExecObserver {
 public:
  explicit Profiler(binfmt::ModuleRegistry& modules,
                    ProfilerConfig cfg = {}, std::int32_t rank = 0);

  /// Installs this profiler as the PMU's sample handler.
  void attach_pmu(pmu::PmuSet& pmu);
  /// Installs allocation-tracking hooks on the allocator.
  void attach_allocator(rt::Allocator& alloc);

  /// Registers a thread so samples carrying its tid can be unwound.
  void register_thread(rt::ThreadCtx& ctx);
  /// Registers every thread of a team.
  void register_team(rt::Team& team);

  /// Sample entry point (also callable directly by tests).
  void handle_sample(const pmu::Sample& sample);

  ThreadProfile& profile(sim::ThreadId tid);
  /// Moves out all per-thread profiles (ends measurement). Drains any
  /// deferred-ingest buffers first.
  std::vector<ThreadProfile> take_profiles();

  /// Switches to deferred ingest (see the class comment): samples are
  /// classified when raised and attributed when their thread's buffer
  /// drains. Heap lookups then skip the shared MRU cache
  /// (HeapVarMap::find_no_mru: same result, tree probe only), because
  /// the sharded backend classifies on several host threads at once.
  /// Call before measurement starts; under the sharded backend also
  /// install this profiler as the team's ExecObserver so buffers drain
  /// after each chunk. Idempotent.
  void enable_deferred_ingest();
  bool deferred_ingest() const { return deferred_; }

  // rt::ExecObserver — called by the sharded backend.
  /// Drains the calling thread's own pending buffer (runs concurrently
  /// with other sockets' simulation and drains).
  void on_slice_retired(rt::ThreadCtx& ctx) override;
  /// Quiescent point: drains every buffer, folds telemetry tallies and
  /// the drains' cost into the throttle window.
  void on_quiescent(rt::Team& team) override;

  /// Drains all buffers and folds their tallies now (quiescent callers
  /// only — on_quiescent, take_profiles, tests).
  void drain_ingest();

  ProfilerStats stats() const;
  TrackerStats tracker_stats() const { return tracker_.stats(); }
  HeapVarMap& heap_map() { return var_map_; }
  AllocTracker& tracker() { return tracker_; }

 private:
  /// Memoized state for one (thread, storage class): the CCT node after
  /// each frame of the last inserted calling context, hanging under
  /// `anchor` (root, or the variable's dummy node). `valid` counts the
  /// leading frames still trusted, min-reduced by every sample's stack
  /// watermark.
  struct ClassMemo {
    Cct::NodeId anchor = Cct::kRootId;
    bool anchor_known = false;
    std::vector<Cct::NodeId> nodes;
    std::size_t valid = 0;
  };

  /// Per-thread attribution caches. All cached ids are local to the
  /// thread's current ThreadProfile, so take_profiles resets this state.
  struct ThreadAttrState {
    ClassMemo memo[kNumStorageClasses];
    // Last heap sample's allocation path -> its kVarData anchor node
    // (AllocPaths are interned for the profiler's lifetime, so pointer
    // identity is stable).
    const AllocPath* last_heap_path = nullptr;
    Cct::NodeId heap_anchor = Cct::kRootId;
    // Interned-name caches: static symbol base address / stack owner ->
    // StringId in this thread's table. Steady-state samples intern and
    // allocate nothing.
    std::unordered_map<sim::Addr, StringId> static_names;
    std::unordered_map<std::uint64_t, StringId> stack_names;
    // Deferred-ingest memo tallies: drains run concurrently, so hot
    // counters accumulate here in plain per-thread memory and fold into
    // the registry cells at quiescent points (drain_ingest).
    std::uint64_t memo_reused_tally = 0;
    std::uint64_t memo_walked_tally = 0;
  };

  /// What classification resolves about one sample: everything
  /// order-sensitive (heap-map lookup, module registry, string interning)
  /// happens here, so attribution only touches the owning thread's
  /// profile and may run later on that thread.
  struct Classified {
    StorageClass cls = StorageClass::kUnknown;
    const AllocPath* heap_path = nullptr;  ///< kHeap: interned, stable
    /// Access-pattern key: kHeap -> the path's pattern id, kStatic/kStack
    /// -> the interned variable name, otherwise 0.
    std::uint64_t var_id = 0;
  };

  /// One classified-but-not-yet-attributed sample (deferred ingest).
  struct PendingSample {
    pmu::Sample sample;
    Classified c;
    std::uint32_t stack_off = 0;  ///< into ThreadIngest::stack_arena
    std::uint32_t stack_len = 0;
    std::size_t watermark = 0;    ///< stack watermark taken at sample time
    bool replayed = false;        ///< see attribute()
  };

  /// Per-thread deferred-ingest state, touched only by the owning thread
  /// except at quiescent points (drain_ingest). Cache-line aligned so
  /// that socket workers bumping their own threads' buffers and tallies
  /// never write to a line another worker's thread uses.
  struct alignas(64) ThreadIngest {
    explicit ThreadIngest(const IngestConfig& cfg) {
      arena_limit = cfg.buffer_capacity * 16;
      pending.reserve(cfg.buffer_capacity);
      stack_arena.reserve(arena_limit);
    }
    std::vector<PendingSample> pending;
    std::vector<sim::Addr> stack_arena;  ///< flattened per-sample stacks
    std::size_t arena_limit = 0;
    // Per-thread tallies, folded at quiescent points (drain_ingest).
    std::uint64_t handled = 0;
    std::uint64_t class_counts[kNumStorageClasses] = {};
    std::uint64_t attributed = 0;  ///< samples drained since the last fold
    std::uint64_t attr_ns = 0;     ///< wall time those drains took
  };

  ThreadAttrState& attr_state(std::size_t tid);

  /// Pre-sizes every by-tid vector for `tid` so concurrent ingest/drain
  /// paths never resize them, and creates the thread's ingest state.
  void ensure_ingest(std::size_t tid);
  /// Synchronous sample entry: classify and attribute now.
  void ingest_now(const pmu::Sample& sample, rt::ThreadCtx& ctx,
                  ThreadProfile& tp, ThreadAttrState& as);
  /// Deferred-mode sample entry: classify now, buffer the attribution.
  void ingest_deferred(const pmu::Sample& sample, rt::ThreadCtx& ctx);
  /// Attributes and clears `tid`'s pending buffer (owning thread only).
  void drain_thread(std::size_t tid);
  /// Folds per-thread tallies into the registry cells and the drains'
  /// cost into the throttle window (quiescent only).
  void fold_tallies();

  /// Resolves the sample's storage class and variable (see Classified).
  Classified classify(const pmu::Sample& sample, ThreadProfile& tp,
                      ThreadAttrState& as);
  /// Inserts one classified sample into the owning thread's profile:
  /// variable anchor, calling context `stack`, pattern record. Samples
  /// reach it in thread order on either ingest path. `replayed` marks a
  /// sample taken during an epoch-barrier replay of a deferred access:
  /// its stack is a snapshot of the issue-time stack, unrelated to the
  /// live stack the memo tracks, so it bypasses the memo entirely (no
  /// read, no update, no watermark min-reduction).
  void attribute(const pmu::Sample& sample, const Classified& c,
                 std::span<const sim::Addr> stack, std::size_t watermark,
                 bool replayed, ThreadProfile& tp, ThreadAttrState& as);

  /// Inserts the calling context under `anchor` in the class's CCT,
  /// resuming from the memoized path where the watermark allows, then
  /// adds `m` to the (leaf_kind-free) kLeafInstr leaf at `leaf_ip`.
  /// `use_memo = false` (replayed snapshot stacks) walks every frame and
  /// leaves the memo untouched — the memo describes the live stack only.
  void attribute_context(ThreadProfile& tp, StorageClass sc,
                         ThreadAttrState& as, Cct::NodeId anchor,
                         std::span<const sim::Addr> stack,
                         sim::Addr leaf_ip, const MetricVec& m,
                         bool use_memo);

  /// Evaluates one throttle window: doubles the PMU period when the mean
  /// handling latency exceeded the budget (cold path, once per window).
  void maybe_throttle();

  binfmt::ModuleRegistry* modules_;
  ProfilerConfig cfg_;
  std::int32_t rank_;
  pmu::PmuSet* pmu_ = nullptr;  ///< set by attach_pmu; throttle target
  // Throttle window accumulators: fed per sample by handle_sample on the
  // synchronous path (one host thread), or per thread at quiescent
  // points under deferred ingest (fold_tallies).
  std::uint64_t throttle_window_ns_ = 0;
  std::uint64_t throttle_window_n_ = 0;
  std::uint64_t throttle_scale_ = 1;
  std::uint64_t throttle_events_ = 0;
  HeapVarMap var_map_;
  AllocPathSet paths_;
  AllocTracker tracker_;
  std::vector<rt::ThreadCtx*> threads_;                 // by tid
  std::vector<std::unique_ptr<ThreadProfile>> profiles_;  // by tid
  std::vector<std::unique_ptr<ThreadAttrState>> attr_;    // by tid
  // Deferred ingest (the sharded backend).
  bool deferred_ = false;
  std::vector<std::unique_ptr<ThreadIngest>> ingest_;  // by tid

  // Registry-backed telemetry (this profiler's private cells). Counter
  // bumps are unconditional (plain add); wall-clock reads feeding the
  // latency histogram and depth/growth metrics are metrics_enabled-gated.
  struct Telemetry {
    obs::Counter handled, dropped;
    obs::Counter class_samples[kNumStorageClasses];
    obs::Counter memo_reused, memo_walked;
    obs::Counter sample_ns;       ///< total handling time (overhead report)
    obs::Counter cct_nodes;       ///< CCT growth, nodes
    obs::Counter cct_bytes;       ///< CCT growth, approx bytes
    obs::Counter throttle_events; ///< overload-degradation period raises
    obs::Histogram sample_ns_hist;  ///< per sample, on every backend
    obs::Histogram flush_ns_hist;   ///< per deferred-ingest flush
    obs::Histogram attr_depth[kNumStorageClasses];
    Telemetry();
  };
  Telemetry tm_;
};

}  // namespace dcprof::core
