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
    ingest_now(sample, ctx, tp, as);
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
  ingest_now(sample, ctx, tp, as);
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

Profiler::Classified Profiler::classify(const pmu::Sample& sample,
                                        ThreadProfile& tp,
                                        ThreadAttrState& as) {
  Classified c;
  if (!sample.is_memory) {
    c.cls = StorageClass::kNoMem;
    return c;
  }
  // Deferred ingest classifies on several host threads at once under the
  // sharded backend, so the heap lookup must not move the shared MRU.
  if (const HeapBlock* block = deferred_ ? var_map_.find_no_mru(sample.eaddr)
                                         : var_map_.find(sample.eaddr)) {
    c.cls = StorageClass::kHeap;
    c.heap_path = block->path.get();
    c.var_id = block->pattern_id;
    return c;
  }
  // Variable names are interned here, in sample order, so each thread's
  // string table is the same whichever path attributes the sample.
  if (auto hit = modules_->resolve_static(sample.eaddr)) {
    c.cls = StorageClass::kStatic;
    if (auto it = as.static_names.find(hit->sym->lo);
        it != as.static_names.end()) {
      c.var_id = it->second;
    } else {
      c.var_id = tp.strings.intern(hit->sym->name);
      as.static_names.emplace(hit->sym->lo, c.var_id);
    }
    return c;
  }
  if (cfg_.attribute_stack && sample.eaddr >= sim::kStackBase) {
    c.cls = StorageClass::kStack;
    const std::uint64_t owner = (sample.eaddr - sim::kStackBase) >> 20;
    if (auto it = as.stack_names.find(owner); it != as.stack_names.end()) {
      c.var_id = it->second;
    } else {
      c.var_id = tp.strings.intern(
          "stack (thread " + std::to_string(static_cast<long>(owner)) + ")");
      as.stack_names.emplace(owner, c.var_id);
    }
    return c;
  }
  c.cls = StorageClass::kUnknown;
  return c;
}

void Profiler::attribute(const pmu::Sample& sample, const Classified& c,
                         std::span<const sim::Addr> stack,
                         std::size_t watermark, bool replayed,
                         ThreadProfile& tp, ThreadAttrState& as) {
  // One watermark per sample: every class's trusted prefix shrinks to how
  // far the stack has unwound since the previous sample.
  const bool use_memo = !replayed;
  if (use_memo) {
    for (auto& memo : as.memo) memo.valid = std::min(memo.valid, watermark);
  }
  if (cfg_.access_patterns && c.cls != StorageClass::kNoMem) {
    tp.patterns.record(static_cast<std::uint8_t>(c.cls), c.var_id,
                       sample.eaddr, sample.is_store,
                       static_cast<std::uint8_t>(sample.source));
  }
  Cct& cct = tp.cct(c.cls);
  Cct::NodeId anchor = Cct::kRootId;
  if (c.cls == StorageClass::kHeap) {
    // Prepend the variable's allocation path (possibly unwound in another
    // thread; AllocPaths are immutable so this copy is lock-free), then
    // the dummy data node, then this sample's own calling context.
    // Consecutive samples into the same variable reuse the dummy node;
    // that memo keys on the interned path, not the stack, so replayed
    // samples use (and refresh) it like any other.
    if (cfg_.memoized_attribution && as.last_heap_path == c.heap_path) {
      anchor = as.heap_anchor;
    } else {
      Cct::NodeId cur = Cct::kRootId;
      for (const sim::Addr frame : c.heap_path->frames) {
        cur = cct.child(cur, NodeKind::kCallSite, frame);
      }
      cur = cct.child(cur, NodeKind::kAllocPoint, c.heap_path->alloc_ip);
      anchor = cct.child(cur, NodeKind::kVarData, 0);
      as.last_heap_path = c.heap_path;
      as.heap_anchor = anchor;
    }
  } else if (c.cls == StorageClass::kStatic ||
             c.cls == StorageClass::kStack) {
    anchor = cct.child(Cct::kRootId, NodeKind::kVarStatic, c.var_id);
  }
  // The unwind from the signal context ends at the skidded IP; the paper
  // swaps in the precise IP recorded by the PMU.
  const sim::Addr leaf_ip =
      cfg_.use_precise_ip ? sample.precise_ip : sample.signal_ip;
  attribute_context(tp, c.cls, as, anchor, stack, leaf_ip,
                    MetricVec::from_sample(sample), use_memo);
}

void Profiler::ingest_now(const pmu::Sample& sample, rt::ThreadCtx& ctx,
                          ThreadProfile& tp, ThreadAttrState& as) {
  const bool replayed = ctx.stack_replay_active();
  const std::size_t watermark = ctx.take_stack_watermark();
  const Classified c = classify(sample, tp, as);
  tm_.class_samples[static_cast<std::size_t>(c.cls)].inc();
  attribute(sample, c, ctx.call_stack(), watermark, replayed, tp, as);
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
  // preserving the synchronous path's "only sampled threads emit
  // profiles" behaviour.
  if (ingest_.size() <= tid) ingest_.resize(tid + 1);
  if (profiles_.size() <= tid) profiles_.resize(tid + 1);
  if (attr_.size() <= tid) attr_.resize(tid + 1);
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
  // The stack state is read now, exactly as ingest_now reads it; only
  // attribution waits for the drain.
  rec.replayed = ctx.stack_replay_active();
  rec.watermark = ctx.take_stack_watermark();
  rec.c = classify(sample, tp, as);
  ++ti.class_counts[static_cast<std::size_t>(rec.c.cls)];

  const std::span<const sim::Addr> stack = ctx.call_stack();
  if (ti.pending.size() >= cfg_.ingest.buffer_capacity ||
      ti.stack_arena.size() + stack.size() > ti.arena_limit) {
    // Buffer full mid-chunk: drain in place. Still correct, just not
    // overlapped (the normal drain point is on_slice_retired).
    drain_thread(tid);
  }
  rec.stack_off = static_cast<std::uint32_t>(ti.stack_arena.size());
  rec.stack_len = static_cast<std::uint32_t>(stack.size());
  ti.stack_arena.insert(ti.stack_arena.end(), stack.begin(), stack.end());
  ti.pending.push_back(rec);
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
  const auto attribute_pending = [&](const PendingSample& rec) {
    attribute(rec.sample, rec.c,
              std::span<const sim::Addr>(
                  ti.stack_arena.data() + rec.stack_off, rec.stack_len),
              rec.watermark, rec.replayed, tp, as);
  };
  const std::uint64_t t0 = steady_ns();
  if (metrics) {
    // Per-sample latency, as handle_sample records it synchronously: one
    // clock read per sample, chained.
    std::uint64_t prev = t0;
    for (const PendingSample& rec : ti.pending) {
      attribute_pending(rec);
      const std::uint64_t now = steady_ns();
      tm_.sample_ns_hist.record(now - prev);
      prev = now;
    }
  } else {
    for (const PendingSample& rec : ti.pending) attribute_pending(rec);
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
  ti.attributed += ti.pending.size();
  ti.attr_ns += dt;
  ti.pending.clear();
  ti.stack_arena.clear();
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
  fold_tallies();
}

void Profiler::fold_tallies() {
  const bool throttling = cfg_.throttle.budget_ns != 0 && pmu_ != nullptr;
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
    if (throttling && ip->attributed != 0) {
      throttle_window_ns_ += ip->attr_ns;
      throttle_window_n_ += ip->attributed;
      if (throttle_window_n_ >= cfg_.throttle.window) maybe_throttle();
    }
    ip->attributed = 0;
    ip->attr_ns = 0;
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
  // out; a new measurement phase starts cold.
  attr_.clear();
  return out;
}

}  // namespace dcprof::core
