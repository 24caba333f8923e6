#include "core/profiler.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "obs/tracer.h"
#include "sim/address_space.h"

namespace dcprof::core {

namespace {
// Index-aligned with StorageClass; used for metric labels.
constexpr const char* kClassNames[kNumStorageClasses] = {
    "nomem", "static", "heap", "stack", "unknown"};

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One access-pattern table update, keyed per patterns.h (heap -> the
/// variable-identifying allocation-path IP, static/stack -> interned
/// name, unknown -> 0). Runs on the owning thread at attribution time,
/// so per-thread recording order matches the deterministic backend
/// exactly.
void record_pattern(ThreadProfile& tp, StorageClass cls, std::uint64_t id,
                    const pmu::Sample& s) {
  tp.patterns.record(static_cast<std::uint8_t>(cls), id, s.eaddr, s.is_store,
                     static_cast<std::uint8_t>(s.source));
}

}  // namespace

Profiler::Telemetry::Telemetry() {
  obs::Registry& reg = obs::Registry::global();
  handled = reg.counter("profiler.samples", {{"outcome", "handled"}});
  dropped = reg.counter("profiler.samples", {{"outcome", "dropped"}});
  for (std::size_t c = 0; c < kNumStorageClasses; ++c) {
    class_samples[c] =
        reg.counter("profiler.class_samples", {{"class", kClassNames[c]}});
    attr_depth[c] =
        reg.histogram("profiler.attr_depth", {{"class", kClassNames[c]}});
  }
  memo_reused = reg.counter("profiler.memo_frames", {{"kind", "reused"}});
  memo_walked = reg.counter("profiler.memo_frames", {{"kind", "walked"}});
  sample_ns = reg.counter("profiler.sample_ns");
  cct_nodes = reg.counter("profiler.cct_nodes");
  cct_bytes = reg.counter("profiler.cct_bytes");
  throttle_events = reg.counter("profiler.throttle_events");
  sample_ns_hist = reg.histogram("profiler.sample_ns_hist");
  flush_ns_hist = reg.histogram("profiler.flush_ns_hist");
}

Profiler::Profiler(binfmt::ModuleRegistry& modules, ProfilerConfig cfg,
                   std::int32_t rank)
    : modules_(&modules), cfg_(cfg), rank_(rank),
      tracker_(var_map_, paths_, cfg.tracker) {
  var_map_.set_mru_enabled(cfg_.var_map_mru);
}

ProfilerStats Profiler::stats() const {
  ProfilerStats s;
  s.samples_handled = tm_.handled.value();
  s.samples_dropped = tm_.dropped.value();
  s.nomem_samples =
      tm_.class_samples[static_cast<std::size_t>(StorageClass::kNoMem)]
          .value();
  s.static_samples =
      tm_.class_samples[static_cast<std::size_t>(StorageClass::kStatic)]
          .value();
  s.heap_samples =
      tm_.class_samples[static_cast<std::size_t>(StorageClass::kHeap)]
          .value();
  s.stack_samples =
      tm_.class_samples[static_cast<std::size_t>(StorageClass::kStack)]
          .value();
  s.unknown_samples =
      tm_.class_samples[static_cast<std::size_t>(StorageClass::kUnknown)]
          .value();
  s.memo_frames_reused = tm_.memo_reused.value();
  s.memo_frames_walked = tm_.memo_walked.value();
  // Deferred-ingest tallies not yet folded into the cells (callers read
  // stats at quiescent points, but don't force a fold here: stats() is
  // const and should stay side-effect free).
  for (const auto& ip : ingest_) {
    if (!ip) continue;
    s.samples_handled += ip->handled;
    s.nomem_samples +=
        ip->class_counts[static_cast<std::size_t>(StorageClass::kNoMem)];
    s.static_samples +=
        ip->class_counts[static_cast<std::size_t>(StorageClass::kStatic)];
    s.heap_samples +=
        ip->class_counts[static_cast<std::size_t>(StorageClass::kHeap)];
    s.stack_samples +=
        ip->class_counts[static_cast<std::size_t>(StorageClass::kStack)];
    s.unknown_samples +=
        ip->class_counts[static_cast<std::size_t>(StorageClass::kUnknown)];
  }
  for (const auto& ap : attr_) {
    if (!ap) continue;
    s.memo_frames_reused += ap->memo_reused_tally;
    s.memo_frames_walked += ap->memo_walked_tally;
  }
  s.throttle_events = throttle_events_;
  s.period_scale = throttle_scale_;
  return s;
}

void Profiler::attach_pmu(pmu::PmuSet& pmu) {
  pmu_ = &pmu;
  pmu.set_handler([this](const pmu::Sample& s) { handle_sample(s); });
}

void Profiler::attach_allocator(rt::Allocator& alloc) {
  alloc.set_hooks(rt::AllocHooks{
      [this](rt::ThreadCtx& ctx, sim::Addr base, std::uint64_t size,
             sim::Addr ip) { tracker_.on_alloc(ctx, base, size, ip); },
      [this](rt::ThreadCtx& ctx, sim::Addr base, std::uint64_t size) {
        tracker_.on_free(ctx, base, size);
      }});
}

void Profiler::register_thread(rt::ThreadCtx& ctx) {
  const auto tid = static_cast<std::size_t>(ctx.tid());
  if (threads_.size() <= tid) threads_.resize(tid + 1, nullptr);
  threads_[tid] = &ctx;
  if (deferred_) ensure_ingest(tid);
}

void Profiler::register_team(rt::Team& team) {
  for (int t = 0; t < team.size(); ++t) register_thread(team.thread(t));
}

ThreadProfile& Profiler::profile(sim::ThreadId tid) {
  const auto i = static_cast<std::size_t>(tid);
  if (profiles_.size() <= i) profiles_.resize(i + 1);
  if (!profiles_[i]) {
    profiles_[i] = std::make_unique<ThreadProfile>();
    profiles_[i]->rank = rank_;
    profiles_[i]->tid = tid;
  }
  return *profiles_[i];
}

Profiler::ThreadAttrState& Profiler::attr_state(std::size_t tid) {
  if (attr_.size() <= tid) attr_.resize(tid + 1);
  if (!attr_[tid]) attr_[tid] = std::make_unique<ThreadAttrState>();
  return *attr_[tid];
}

void Profiler::attribute_context(ThreadProfile& tp, StorageClass sc,
                                 ThreadAttrState& as, Cct::NodeId anchor,
                                 std::span<const sim::Addr> stack,
                                 sim::Addr leaf_ip, const MetricVec& m,
                                 bool use_memo) {
  Cct& cct = tp.cct(sc);
  ClassMemo& memo = as.memo[static_cast<std::size_t>(sc)];
  const bool memoize = cfg_.memoized_attribution && use_memo;
  // Resume at the divergence point: the first `valid` frames are
  // unchanged since the memoized walk (watermark-guaranteed), so their
  // find-or-create results are already known.
  std::size_t k = 0;
  if (memoize && memo.anchor_known && memo.anchor == anchor) {
    k = std::min({memo.valid, memo.nodes.size(), stack.size()});
  }
  if (deferred_) {
    // Drains of different threads run concurrently; tally in plain
    // per-thread memory, folded into the cells at quiescent points.
    as.memo_reused_tally += k;
    as.memo_walked_tally += stack.size() - k;
  } else {
    tm_.memo_reused.add(k);
    tm_.memo_walked.add(stack.size() - k);
  }
  if (obs::metrics_enabled()) {
    tm_.attr_depth[static_cast<std::size_t>(sc)].record(stack.size());
  }
  Cct::NodeId cur = k == 0 ? anchor : memo.nodes[k - 1];
  if (memoize) {
    memo.nodes.resize(stack.size());
    for (std::size_t i = k; i < stack.size(); ++i) {
      cur = cct.child(cur, NodeKind::kCallSite, stack[i]);
      memo.nodes[i] = cur;
    }
    memo.anchor = anchor;
    memo.anchor_known = true;
    memo.valid = stack.size();
  } else {
    for (std::size_t i = k; i < stack.size(); ++i) {
      cur = cct.child(cur, NodeKind::kCallSite, stack[i]);
    }
  }
  cct.add_metrics(cct.child(cur, NodeKind::kLeafInstr, leaf_ip), m);
}

void Profiler::handle_sample(const pmu::Sample& sample) {
  const auto tid = static_cast<std::size_t>(sample.tid);
  if (tid >= threads_.size() || threads_[tid] == nullptr) {
    tm_.dropped.inc();  // atomic: safe from any backend's threads
    return;
  }
  if (deferred_) {
    // Concurrent backend: do the order-sensitive classification now
    // (we hold the turn), defer CCT attribution to the owning thread's
    // buffer, drained after the turn token moves on.
    ingest_deferred(sample, *threads_[tid]);
    return;
  }
  OBS_SPAN("profiler.handle_sample");
  rt::ThreadCtx& ctx = *threads_[tid];
  ThreadProfile& tp = profile(sample.tid);
  ThreadAttrState& as = attr_state(tid);
  tm_.handled.inc();
  const bool metrics = obs::metrics_enabled();
  const bool throttling = cfg_.throttle.budget_ns != 0 && pmu_ != nullptr;
  if (!metrics && !throttling) {
    attribute_sample(sample, ctx, tp, as);
    return;
  }
  // Metrics on: time the handler and account CCT growth across every
  // class (anchor nodes included). Throttling needs the same wall-clock
  // reads even with metrics off, so both share one timed path.
  std::size_t nodes0 = 0;
  if (metrics) {
    for (std::size_t c = 0; c < kNumStorageClasses; ++c) {
      nodes0 += tp.cct(static_cast<StorageClass>(c)).size();
    }
  }
  const std::uint64_t t0 = steady_ns();
  attribute_sample(sample, ctx, tp, as);
  const std::uint64_t dt = steady_ns() - t0;
  if (metrics) {
    tm_.sample_ns.add(dt);
    tm_.sample_ns_hist.record(dt);
    std::size_t nodes1 = 0;
    for (std::size_t c = 0; c < kNumStorageClasses; ++c) {
      nodes1 += tp.cct(static_cast<StorageClass>(c)).size();
    }
    if (nodes1 > nodes0) {
      tm_.cct_nodes.add(nodes1 - nodes0);
      tm_.cct_bytes.add((nodes1 - nodes0) * sizeof(Cct::Node));
    }
  }
  if (throttling) {
    throttle_window_ns_ += dt;
    if (++throttle_window_n_ >= cfg_.throttle.window) maybe_throttle();
  }
}

void Profiler::maybe_throttle() {
  const std::uint64_t mean = throttle_window_ns_ / throttle_window_n_;
  throttle_window_ns_ = 0;
  throttle_window_n_ = 0;
  if (mean <= cfg_.throttle.budget_ns) return;
  if (throttle_scale_ >= cfg_.throttle.max_scale) return;
  throttle_scale_ = std::min<std::uint64_t>(throttle_scale_ * 2,
                                            cfg_.throttle.max_scale);
  pmu_->set_period_scale(throttle_scale_);
  ++throttle_events_;
  tm_.throttle_events.inc();
}

void Profiler::attribute_sample(const pmu::Sample& sample, rt::ThreadCtx& ctx,
                                ThreadProfile& tp, ThreadAttrState& as) {
  // One watermark take per sample: every class's trusted prefix shrinks
  // to how far the stack has unwound since the previous sample. A sample
  // taken during an epoch-barrier replay sees a snapshot stack instead —
  // the memo (which describes the live stack) is bypassed untouched.
  const bool use_memo = !ctx.stack_replay_active();
  const std::size_t watermark = ctx.take_stack_watermark();
  if (use_memo) {
    for (auto& memo : as.memo) memo.valid = std::min(memo.valid, watermark);
  }
  const MetricVec m = MetricVec::from_sample(sample);
  // The unwind from the signal context ends at the skidded IP; the paper
  // swaps in the precise IP recorded by the PMU.
  const sim::Addr leaf_ip =
      cfg_.use_precise_ip ? sample.precise_ip : sample.signal_ip;

  if (!sample.is_memory) {
    tm_.class_samples[static_cast<std::size_t>(StorageClass::kNoMem)].inc();
    attribute_context(tp, StorageClass::kNoMem, as, Cct::kRootId,
                      ctx.call_stack(), leaf_ip, m, use_memo);
    return;
  }

  if (const HeapBlock* block = var_map_.find(sample.eaddr)) {
    tm_.class_samples[static_cast<std::size_t>(StorageClass::kHeap)].inc();
    if (cfg_.access_patterns) {
      record_pattern(tp, StorageClass::kHeap, block->pattern_id, sample);
    }
    // Prepend the variable's allocation path (possibly unwound in another
    // thread; AllocPaths are immutable so this copy is lock-free), then
    // the dummy data node, then this sample's own calling context.
    // Consecutive samples into the same variable reuse the dummy node.
    Cct& cct = tp.cct(StorageClass::kHeap);
    Cct::NodeId anchor;
    if (cfg_.memoized_attribution &&
        as.last_heap_path == block->path.get()) {
      anchor = as.heap_anchor;
    } else {
      Cct::NodeId cur = Cct::kRootId;
      for (const sim::Addr frame : block->path->frames) {
        cur = cct.child(cur, NodeKind::kCallSite, frame);
      }
      cur = cct.child(cur, NodeKind::kAllocPoint, block->path->alloc_ip);
      anchor = cct.child(cur, NodeKind::kVarData, 0);
      as.last_heap_path = block->path.get();
      as.heap_anchor = anchor;
    }
    attribute_context(tp, StorageClass::kHeap, as, anchor, ctx.call_stack(),
                      leaf_ip, m, use_memo);
    return;
  }

  if (auto hit = modules_->resolve_static(sample.eaddr)) {
    tm_.class_samples[static_cast<std::size_t>(StorageClass::kStatic)].inc();
    StringId name;
    if (auto it = as.static_names.find(hit->sym->lo);
        it != as.static_names.end()) {
      name = it->second;
    } else {
      name = tp.strings.intern(hit->sym->name);
      as.static_names.emplace(hit->sym->lo, name);
    }
    if (cfg_.access_patterns) {
      record_pattern(tp, StorageClass::kStatic, name, sample);
    }
    Cct& cct = tp.cct(StorageClass::kStatic);
    const Cct::NodeId dummy =
        cct.child(Cct::kRootId, NodeKind::kVarStatic, name);
    attribute_context(tp, StorageClass::kStatic, as, dummy, ctx.call_stack(),
                      leaf_ip, m, use_memo);
    return;
  }

  if (cfg_.attribute_stack && sample.eaddr >= sim::kStackBase) {
    tm_.class_samples[static_cast<std::size_t>(StorageClass::kStack)].inc();
    const std::uint64_t owner = (sample.eaddr - sim::kStackBase) >> 20;
    StringId name;
    if (auto it = as.stack_names.find(owner); it != as.stack_names.end()) {
      name = it->second;
    } else {
      name = tp.strings.intern(
          "stack (thread " + std::to_string(static_cast<long>(owner)) + ")");
      as.stack_names.emplace(owner, name);
    }
    if (cfg_.access_patterns) {
      record_pattern(tp, StorageClass::kStack, name, sample);
    }
    Cct& cct = tp.cct(StorageClass::kStack);
    const Cct::NodeId dummy =
        cct.child(Cct::kRootId, NodeKind::kVarStatic, name);
    attribute_context(tp, StorageClass::kStack, as, dummy, ctx.call_stack(),
                      leaf_ip, m, use_memo);
    return;
  }

  tm_.class_samples[static_cast<std::size_t>(StorageClass::kUnknown)].inc();
  if (cfg_.access_patterns) {
    record_pattern(tp, StorageClass::kUnknown, 0, sample);
  }
  attribute_context(tp, StorageClass::kUnknown, as, Cct::kRootId,
                    ctx.call_stack(), leaf_ip, m, use_memo);
}

void Profiler::enable_deferred_ingest() {
  deferred_ = true;
  for (std::size_t tid = 0; tid < threads_.size(); ++tid) {
    if (threads_[tid] != nullptr) ensure_ingest(tid);
  }
}

void Profiler::ensure_ingest(std::size_t tid) {
  // Pre-size every by-tid vector at registration time so no concurrent
  // ingest or drain path ever resizes them. ThreadProfile /
  // ThreadAttrState objects are still created lazily on the owning
  // thread (profile()/attr_state() find the slots already big enough),
  // preserving the deterministic backend's "only sampled threads emit
  // profiles" behaviour.
  if (ingest_.size() <= tid) ingest_.resize(tid + 1);
  if (profiles_.size() <= tid) profiles_.resize(tid + 1);
  if (attr_.size() <= tid) attr_.resize(tid + 1);
  if (hand_expected_.size() <= tid) hand_expected_.resize(tid + 1, 0);
  if (!ingest_[tid]) {
    ingest_[tid] = std::make_unique<ThreadIngest>(cfg_.ingest);
  }
}

void Profiler::ingest_deferred(const pmu::Sample& sample,
                               rt::ThreadCtx& ctx) {
  const auto tid = static_cast<std::size_t>(sample.tid);
  ThreadIngest& ti = *ingest_[tid];
  ThreadProfile& tp = profile(sample.tid);
  ThreadAttrState& as = attr_state(tid);
  ++ti.handled;

  PendingSample rec;
  rec.sample = sample;
  // A sample taken while the epoch resolver replays a deferred access
  // carries the issue-time stack snapshot; it must not touch the live
  // stack's memo (take_stack_watermark reports 0 without re-arming).
  rec.replayed = ctx.stack_replay_active();
  // Same per-sample watermark take as the synchronous path — samples are
  // in thread order either way, so the values match exactly.
  rec.watermark = ctx.take_stack_watermark();
  // Classify against order-sensitive shared state (heap map, module
  // registry) while the turn still serializes us. Variable names are
  // interned here, in sample order, so each thread's string table is
  // byte-identical to the deterministic backend's. Under the sharded
  // backend classification runs concurrently across sockets, so the heap
  // lookup must not mutate the shared MRU cache.
  if (!sample.is_memory) {
    rec.cls = StorageClass::kNoMem;
  } else if (const HeapBlock* block = concurrent_classify_
                 ? var_map_.find_no_mru(sample.eaddr)
                 : var_map_.find(sample.eaddr)) {
    rec.cls = StorageClass::kHeap;
    rec.heap_path = block->path.get();
  } else if (auto hit = modules_->resolve_static(sample.eaddr)) {
    rec.cls = StorageClass::kStatic;
    if (auto it = as.static_names.find(hit->sym->lo);
        it != as.static_names.end()) {
      rec.var_name = it->second;
    } else {
      rec.var_name = tp.strings.intern(hit->sym->name);
      as.static_names.emplace(hit->sym->lo, rec.var_name);
    }
  } else if (cfg_.attribute_stack && sample.eaddr >= sim::kStackBase) {
    rec.cls = StorageClass::kStack;
    const std::uint64_t owner = (sample.eaddr - sim::kStackBase) >> 20;
    if (auto it = as.stack_names.find(owner); it != as.stack_names.end()) {
      rec.var_name = it->second;
    } else {
      rec.var_name = tp.strings.intern(
          "stack (thread " + std::to_string(static_cast<long>(owner)) + ")");
      as.stack_names.emplace(owner, rec.var_name);
    }
  } else {
    rec.cls = StorageClass::kUnknown;
  }
  ++ti.class_counts[static_cast<std::size_t>(rec.cls)];

  const std::span<const sim::Addr> stack = ctx.call_stack();
  if (ti.pending.size() >= cfg_.ingest.buffer_capacity ||
      ti.stack_arena.size() + stack.size() > ti.arena_limit) {
    // Buffer full mid-turn: flush in place. Still correct, just not
    // overlapped with other threads' turns (the normal flush point is
    // on_slice_retired, after the token has been passed on).
    drain_thread(tid);
  }
  rec.stack_off = static_cast<std::uint32_t>(ti.stack_arena.size());
  rec.stack_len = static_cast<std::uint32_t>(stack.size());
  ti.stack_arena.insert(ti.stack_arena.end(), stack.begin(), stack.end());
  ti.pending.push_back(rec);
}

void Profiler::attribute_pending(const PendingSample& rec, ThreadIngest& ti,
                                 ThreadProfile& tp, ThreadAttrState& as) {
  if (!rec.replayed) {
    for (auto& memo : as.memo) {
      memo.valid = std::min(memo.valid, rec.watermark);
    }
  }
  const MetricVec m = MetricVec::from_sample(rec.sample);
  const sim::Addr leaf_ip =
      cfg_.use_precise_ip ? rec.sample.precise_ip : rec.sample.signal_ip;
  const std::span<const sim::Addr> stack(ti.stack_arena.data() + rec.stack_off,
                                         rec.stack_len);
  const bool use_memo = !rec.replayed;
  // Same per-class pattern updates as the synchronous path, replayed in
  // sample order by the owning thread's drain — the recorded sequence
  // (and so the serialized table) is byte-identical across backends.
  switch (rec.cls) {
    case StorageClass::kNoMem:
    case StorageClass::kUnknown:
      if (cfg_.access_patterns && rec.cls == StorageClass::kUnknown) {
        record_pattern(tp, StorageClass::kUnknown, 0, rec.sample);
      }
      attribute_context(tp, rec.cls, as, Cct::kRootId, stack, leaf_ip, m,
                        use_memo);
      break;
    case StorageClass::kHeap: {
      if (cfg_.access_patterns) {
        record_pattern(tp, StorageClass::kHeap, rec.heap_path->pattern_id,
                       rec.sample);
      }
      Cct& cct = tp.cct(StorageClass::kHeap);
      Cct::NodeId anchor;
      // The heap-anchor memo keys on the interned path pointer, not the
      // stack, so replayed samples use (and refresh) it like any other.
      if (cfg_.memoized_attribution && as.last_heap_path == rec.heap_path) {
        anchor = as.heap_anchor;
      } else {
        Cct::NodeId cur = Cct::kRootId;
        for (const sim::Addr frame : rec.heap_path->frames) {
          cur = cct.child(cur, NodeKind::kCallSite, frame);
        }
        cur = cct.child(cur, NodeKind::kAllocPoint, rec.heap_path->alloc_ip);
        anchor = cct.child(cur, NodeKind::kVarData, 0);
        as.last_heap_path = rec.heap_path;
        as.heap_anchor = anchor;
      }
      attribute_context(tp, StorageClass::kHeap, as, anchor, stack, leaf_ip,
                        m, use_memo);
      break;
    }
    case StorageClass::kStatic:
    case StorageClass::kStack: {
      if (cfg_.access_patterns) {
        record_pattern(tp, rec.cls, rec.var_name, rec.sample);
      }
      Cct& cct = tp.cct(rec.cls);
      const Cct::NodeId dummy =
          cct.child(Cct::kRootId, NodeKind::kVarStatic, rec.var_name);
      attribute_context(tp, rec.cls, as, dummy, stack, leaf_ip, m, use_memo);
      break;
    }
  }
}

void Profiler::drain_thread(std::size_t tid) {
  ThreadIngest& ti = *ingest_[tid];
  if (ti.pending.empty()) return;
  OBS_SPAN_V("profiler.drain", "samples", ti.pending.size());
  ThreadProfile& tp = profile(static_cast<sim::ThreadId>(tid));
  ThreadAttrState& as = attr_state(tid);
  const bool metrics = obs::metrics_enabled();
  std::size_t nodes0 = 0;
  if (metrics) {
    for (std::size_t c = 0; c < kNumStorageClasses; ++c) {
      nodes0 += tp.cct(static_cast<StorageClass>(c)).size();
    }
  }
  const std::uint64_t t0 = steady_ns();
  if (metrics) {
    // Per-sample latency, as handle_sample records it on det: one clock
    // read per sample, chained.
    std::uint64_t prev = t0;
    for (const PendingSample& rec : ti.pending) {
      attribute_pending(rec, ti, tp, as);
      const std::uint64_t now = steady_ns();
      tm_.sample_ns_hist.record(now - prev);
      prev = now;
    }
  } else {
    for (const PendingSample& rec : ti.pending) {
      attribute_pending(rec, ti, tp, as);
    }
  }
  const std::uint64_t dt = steady_ns() - t0;
  if (metrics) {
    tm_.sample_ns.add(dt);
    tm_.flush_ns_hist.record(dt);
    std::size_t nodes1 = 0;
    for (std::size_t c = 0; c < kNumStorageClasses; ++c) {
      nodes1 += tp.cct(static_cast<StorageClass>(c)).size();
    }
    if (nodes1 > nodes0) {
      tm_.cct_nodes.add(nodes1 - nodes0);
      tm_.cct_bytes.add((nodes1 - nodes0) * sizeof(Cct::Node));
    }
  }
  FlushSummary s;
  s.first_seq = ti.flushed;
  s.count = static_cast<std::uint32_t>(ti.pending.size());
  s.attr_ns = dt;
  ti.flushed += s.count;
  ti.pending.clear();
  ti.stack_arena.clear();
  if (ti.has_carry) {
    // The previous flush found the ring full. Drains are in order, so
    // the two sequence ranges are contiguous: coalesce and retry.
    ti.carry.count += s.count;
    ti.carry.attr_ns += s.attr_ns;
    s = ti.carry;
    ti.has_carry = false;
  }
  if (!ti.ring.push(s)) {
    ti.carry = s;
    ti.has_carry = true;
  }
}

void Profiler::on_slice_retired(rt::ThreadCtx& ctx) {
  const auto tid = static_cast<std::size_t>(ctx.tid());
  if (tid < ingest_.size() && ingest_[tid]) drain_thread(tid);
}

void Profiler::on_quiescent(rt::Team&) { drain_ingest(); }

void Profiler::drain_ingest() {
  if (!deferred_) return;
  for (std::size_t tid = 0; tid < ingest_.size(); ++tid) {
    if (ingest_[tid]) drain_thread(tid);
  }
  poll_handoff();
  // Summaries the rings could not take are consumed directly — we are at
  // a quiescent point, so producer-side state is safe to touch (and the
  // ring contents, all older, were just consumed above).
  for (std::size_t tid = 0; tid < ingest_.size(); ++tid) {
    if (ingest_[tid] && ingest_[tid]->has_carry) {
      consume_summary(tid, ingest_[tid]->carry);
      ingest_[tid]->has_carry = false;
    }
  }
  fold_tallies();
}

void Profiler::poll_handoff() {
  FlushSummary s;
  for (std::size_t tid = 0; tid < ingest_.size(); ++tid) {
    if (!ingest_[tid]) continue;
    while (ingest_[tid]->ring.pop(s)) consume_summary(tid, s);
  }
}

void Profiler::consume_summary(std::size_t tid, const FlushSummary& s) {
  if (hand_expected_.size() <= tid) hand_expected_.resize(tid + 1, 0);
  if (s.first_seq != hand_expected_[tid]) ++handoff_gaps_;
  hand_expected_[tid] = s.first_seq + s.count;
  ++handoff_flushes_;
  handoff_samples_ += s.count;
  if (cfg_.throttle.budget_ns != 0 && pmu_ != nullptr) {
    throttle_window_ns_ += s.attr_ns;
    throttle_window_n_ += s.count;
    if (throttle_window_n_ >= cfg_.throttle.window) maybe_throttle();
  }
}

void Profiler::fold_tallies() {
  for (auto& ip : ingest_) {
    if (!ip) continue;
    if (ip->handled != 0) {
      tm_.handled.add(ip->handled);
      ip->handled = 0;
    }
    for (std::size_t c = 0; c < kNumStorageClasses; ++c) {
      if (ip->class_counts[c] != 0) {
        tm_.class_samples[c].add(ip->class_counts[c]);
        ip->class_counts[c] = 0;
      }
    }
  }
  for (auto& ap : attr_) {
    if (!ap) continue;
    if (ap->memo_reused_tally != 0) {
      tm_.memo_reused.add(ap->memo_reused_tally);
      ap->memo_reused_tally = 0;
    }
    if (ap->memo_walked_tally != 0) {
      tm_.memo_walked.add(ap->memo_walked_tally);
      ap->memo_walked_tally = 0;
    }
  }
}

std::vector<ThreadProfile> Profiler::take_profiles() {
  drain_ingest();  // no-op unless deferred; flushes every buffered sample
  // Stamp the sampling rate the profile was actually taken at, so the
  // analyzer can rescale sample-derived metrics after degradation.
  std::uint64_t base_period = 0, eff_period = 0;
  if (pmu_ != nullptr && !pmu_->configs().empty()) {
    base_period = pmu_->configs()[0].period;
    eff_period = pmu_->effective_period(0);
  }
  std::vector<ThreadProfile> out;
  for (auto& p : profiles_) {
    if (p) {
      p->sampling_period = base_period;
      p->effective_period = eff_period;
      out.push_back(std::move(*p));
    }
  }
  profiles_.clear();
  // Every cached NodeId and StringId referred to the profiles just moved
  // out; a new measurement phase starts cold. Sequence numbers restart
  // with it (handoff_stats totals stay cumulative).
  attr_.clear();
  for (auto& ip : ingest_) {
    if (ip) ip = std::make_unique<ThreadIngest>(cfg_.ingest);
  }
  std::fill(hand_expected_.begin(), hand_expected_.end(), 0);
  return out;
}

}  // namespace dcprof::core
