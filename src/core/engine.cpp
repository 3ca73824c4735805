#include "core/engine.hpp"

#include <algorithm>

#include "core/precedence_kernels.hpp"
#include "util/check.hpp"

namespace ct {

namespace {

std::size_t encoded_projection_width(const ClusterEngineConfig& config) {
  return config.encoded_cluster_width != 0 ? config.encoded_cluster_width
                                           : config.max_cluster_size;
}

/// Out-of-line failure path of the query entry points, so the message
/// formatting stays out of their fast path.
[[noreturn, gnu::cold, gnu::noinline]] void fail_unobserved(EventId e) {
  CT_CHECK_MSG(false, "event " << e << " has not been observed");
}

}  // namespace

ClusterTimestampEngine::ClusterTimestampEngine(
    std::size_t process_count, ClusterEngineConfig config,
    std::unique_ptr<MergePolicy> policy)
    : config_(config),
      fm_(process_count),
      clusters_(process_count),
      policy_(std::move(policy)),
      ts_(process_count),
      cluster_receives_(process_count) {
  CT_CHECK_MSG(policy_ != nullptr, "merge policy required");
  CT_CHECK_MSG(config_.max_cluster_size >= 1, "maxCS must be >= 1");
  CT_CHECK_MSG(process_count <= config_.fm_vector_width,
               "fm_vector_width " << config_.fm_vector_width
                                  << " cannot encode " << process_count
                                  << " processes");
  init_snapshot(process_count);
}

ClusterTimestampEngine::~ClusterTimestampEngine() {
  // No readers may hold the engine at destruction (ownership contract);
  // only snapshots already retired to the epoch domain can outlive us, and
  // those own their own storage.
  delete snap_.load(std::memory_order_acquire);
}

ClusterTimestampEngine::ClusterTimestampEngine(
    std::size_t process_count, ClusterEngineConfig config,
    const std::vector<std::vector<ProcessId>>& partition)
    : ClusterTimestampEngine(process_count, config, partition,
                             make_never_merge()) {}

ClusterTimestampEngine::ClusterTimestampEngine(
    std::size_t process_count, ClusterEngineConfig config,
    const std::vector<std::vector<ProcessId>>& partition,
    std::unique_ptr<MergePolicy> policy)
    : config_(config),
      fm_(process_count),
      clusters_(process_count, partition),
      policy_(std::move(policy)),
      ts_(process_count),
      cluster_receives_(process_count) {
  CT_CHECK_MSG(policy_ != nullptr, "merge policy required");
  CT_CHECK_MSG(config_.max_cluster_size >= 1, "maxCS must be >= 1");
  CT_CHECK_MSG(process_count <= config_.fm_vector_width,
               "fm_vector_width " << config_.fm_vector_width
                                  << " cannot encode " << process_count
                                  << " processes");
  const std::size_t width = encoded_projection_width(config_);
  CT_CHECK_MSG(clusters_.max_cluster_size() <= width,
               "partition has a cluster of "
                   << clusters_.max_cluster_size()
                   << " processes, larger than the encoding width " << width);
  init_snapshot(process_count);
}

void ClusterTimestampEngine::init_snapshot(std::size_t process_count) {
  // Interning stays OFF: repair clones overwrite rows in place, and sync
  // halves (identical vectors) would otherwise alias.
  snap_.store(new ArenaSnapshot(process_count,
                                TsArena::Options{.intern = false}),
              std::memory_order_release);
  row_handles_.resize(process_count);
  receive_rows_.resize(process_count);
}

bool ClusterTimestampEngine::classify_cluster_receive(
    const Event& e, ProcessId q, std::uint64_t occurrences) {
  const ClusterId a = clusters_.cluster_of(e.id.process);
  const ClusterId b = clusters_.cluster_of(q);
  if (a == b) return false;  // intra-cluster communication
  const std::size_t size_a = clusters_.size(a);
  const std::size_t size_b = clusters_.size(b);
  if (size_a + size_b > config_.max_cluster_size) {
    // Non-mergeable by the size bound (Fig. 3 line 7's analogue); the
    // strategy is not consulted — the pair can never merge later, since
    // cluster sizes only grow.
    return true;
  }
  if (!policy_->should_merge(a, size_a, b, size_b, occurrences)) return true;
  const ClusterId into = clusters_.merge(a, b);
  policy_->on_merge(into, into == a ? b : a);
  ++merges_;
  return false;  // merged: the event is no longer a cluster receive
}

std::uint32_t ClusterTimestampEngine::covered_set_id(
    ArenaSnapshot& snap,
    const std::shared_ptr<const std::vector<ProcessId>>& covered) {
  // Keyed by members-pointer identity: ClusterSet hands out one immutable
  // snapshot per (cluster, merge-epoch), so identity captures content.
  const auto [it, inserted] = covered_ids_.try_emplace(
      covered.get(), static_cast<std::uint32_t>(snap.covered_sets.size()));
  if (inserted) {
    CoveredSet cs;
    cs.procs = covered;
    cs.pos.assign(ts_.size(), -1);
    const auto& procs = *covered;
    for (std::size_t i = 0; i < procs.size(); ++i) {
      cs.pos[procs[i]] = static_cast<std::int32_t>(i);
    }
    snap.covered_sets.push_back(std::move(cs));
  }
  return it->second;
}

std::uint32_t ClusterTimestampEngine::resolve_probe(
    const ArenaSnapshot& snap, ProcessId q, EventIndex bound) const {
  const auto& receives = cluster_receives_[q];
  const std::size_t k =
      kernels::count_leq(receives.data(), receives.size(), bound);
  return k == 0 ? kNoProbe : snap.arena.offset_of(receive_rows_[q][k - 1]);
}

void ClusterTimestampEngine::refresh_probes(ArenaSnapshot& snap, EventId id) {
  const RowRef& ref = snap.row_refs[id.process][id.index - 1];
  if (ref.aux == kFullRowAux) return;  // full rows carry no probes
  const auto& procs = *snap.covered_sets[ref.aux].procs;
  const EventIndex* row = snap.arena.pool_data() + ref.offset;
  std::uint32_t* probes = snap.probe_pool[id.process].data() + ref.probe_off;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    probes[i] = resolve_probe(snap, procs[i], row[i]);
  }
}

void ClusterTimestampEngine::publish_snapshot(
    std::unique_ptr<ArenaSnapshot> next) {
  // seq_cst swap: the store-buffer argument in util/epoch.hpp needs the
  // pointer swap ordered before the grace bump that retire() performs.
  ArenaSnapshot* old = snap_.exchange(next.release());
  util::EpochDomain::global().retire([old] { delete old; });
}

const ClusterTimestamp& ClusterTimestampEngine::store(const Event& e,
                                                      ClusterTimestamp ts) {
  auto& list = ts_[e.id.process];
  CT_CHECK_MSG(list.size() + 1 == e.id.index,
               "event " << e.id << " stored out of order");
  ++events_;
  if (ts.cluster_receive) {
    ++cluster_receive_count_;
    cluster_receives_[e.id.process].push_back(e.id.index);
    encoded_words_ += config_.fm_vector_width;
  } else {
    const std::size_t width = encoded_projection_width(config_);
    CT_CHECK_MSG(ts.values.size() <= width,
                 "projection wider than the encoding width");
    encoded_words_ += width;
  }
  exact_words_ += ts.values.size();

  // Ingestion is the single-writer phase: appends go straight into the
  // published snapshot (no readers may run concurrently with observe(), per
  // the TsArena invalidation contract).
  ArenaSnapshot& snap = *snap_.load(std::memory_order_relaxed);
  const ProcessId p = e.id.process;
  const TsArena::RowHandle h =
      snap.arena.append(p, ts.values.data(), ts.values.size());
  row_handles_[p].push_back(h);
  RowRef ref{snap.arena.offset_of(h), kFullRowAux,
             static_cast<std::uint32_t>(snap.probe_pool[p].size())};
  if (ts.cluster_receive) {
    receive_rows_[p].push_back(h);
  } else {
    ref.aux = covered_set_id(snap, ts.covered);
    // Resolve the greatest-cluster-receive probe per covered slot NOW, once
    // per stored row instead of once per query (the resolved set is final —
    // see resolve_probe).
    const auto& procs = *ts.covered;
    for (std::size_t i = 0; i < procs.size(); ++i) {
      snap.probe_pool[p].push_back(
          resolve_probe(snap, procs[i], ts.values[i]));
    }
  }
  snap.row_refs[p].push_back(ref);

  list.push_back(std::move(ts));
  return list.back();
}

const ClusterTimestamp& ClusterTimestampEngine::observe(const Event& e) {
  const FmClock& fm = fm_.observe(e);
  const ProcessId p = e.id.process;

  bool is_cluster_receive = false;
  switch (e.kind) {
    case EventKind::kUnary:
    case EventKind::kSend:
      break;
    case EventKind::kReceive:
      is_cluster_receive = classify_cluster_receive(e, e.partner.process, 1);
      break;
    case EventKind::kSync:
      if (sync_decided_.erase(e.id) == 1) {
        // The pair's merge decision was taken when the partner half was
        // observed; just classify against the (possibly merged) clusters.
        is_cluster_receive = clusters_.cluster_of(p) !=
                             clusters_.cluster_of(e.partner.process);
      } else {
        // A synchronous pair counts as TWO communication occurrences
        // (§3.1): merging would eliminate two cluster-receive events.
        is_cluster_receive =
            classify_cluster_receive(e, e.partner.process, 2);
        sync_decided_.insert(e.partner);
      }
      break;
  }

  ClusterTimestamp ts;
  ts.cluster_receive = is_cluster_receive;
  if (is_cluster_receive) {
    // Full Fidge/Mattern vector; this event becomes the greatest cluster
    // receive of its process so far.
    ts.values = fm;
  } else {
    ts.covered = clusters_.members(clusters_.cluster_of(p));
    ts.values.reserve(ts.covered->size());
    for (const ProcessId q : *ts.covered) ts.values.push_back(fm[q]);
  }
  return store(e, std::move(ts));
}

void ClusterTimestampEngine::observe_trace(const Trace& trace) {
  CT_CHECK_MSG(trace.process_count() == ts_.size(),
               "trace has " << trace.process_count()
                            << " processes, engine built for " << ts_.size());
  // The trace knows its totals, so the arena pool is sized once.
  // Projections are bounded by maxCS, full vectors by the process count; the
  // sum overshoots but caps at one allocation.
  const std::size_t n = trace.delivery_order().size();
  snap_.load(std::memory_order_relaxed)
      ->arena.reserve(n, n * std::min(ts_.size(), config_.max_cluster_size) +
                             trace.process_count());
  for (const EventId id : trace.delivery_order()) observe(trace.event(id));
}

const ClusterTimestamp& ClusterTimestampEngine::timestamp(EventId e) const {
  CT_CHECK_MSG(e.process < ts_.size() && e.index >= 1 &&
                   e.index <= ts_[e.process].size(),
               "event " << e << " has not been observed");
  return ts_[e.process][e.index - 1];
}

bool ClusterTimestampEngine::precedes(const Event& ev_e,
                                      const Event& ev_f) const {
  QueryCost unlimited;
  const auto answer = precedes_metered(ev_e, ev_f, unlimited);
  comparisons_.fetch_add(unlimited.ticks, std::memory_order_relaxed);
  return *answer;
}

std::optional<bool> ClusterTimestampEngine::precedes_metered(
    const Event& ev_e, const Event& ev_f, QueryCost& cost) const {
  const EventId e = ev_e.id;
  const EventId f = ev_f.id;
  if (e == f) return false;
  if (ev_e.kind == EventKind::kSync && ev_e.partner == f) return false;

  // One snapshot load per query: every pointer below derives from it, so a
  // concurrent repair publishing a newer snapshot cannot mix states.
  const ArenaSnapshot& snap = *snapshot();
  if (!snap.observed(f)) [[unlikely]] fail_unobserved(f);
  const RowRef& ref = snap.row_refs[f.process][f.index - 1];
  const EventIndex* pool = snap.arena.pool_data();
  const EventIndex* row = pool + ref.offset;

  // Tick accounting: one charge for the direct test, one per
  // greatest-cluster-receive probe.
  if (!cost.charge(1)) return std::nullopt;
  if (ref.aux == kFullRowAux) return e.index <= row[e.process];
  const CoveredSet& cs = snap.covered_sets[ref.aux];
  if (const std::int32_t slot = cs.pos[e.process]; slot >= 0) {
    return e.index <= row[static_cast<std::size_t>(slot)];
  }

  const std::uint32_t* probes =
      snap.probe_pool[f.process].data() + ref.probe_off;
  const std::size_t width = cs.procs->size();
  for (std::size_t i = 0; i < width; ++i) {
    const std::uint32_t off = probes[i];
    if (off == kNoProbe) continue;
    if (!cost.charge(1)) return std::nullopt;
    if (e.index <= pool[off + e.process]) return true;
  }
  return false;
}

std::size_t ClusterTimestampEngine::precedes_batch_metered(
    std::span<const std::pair<const Event*, const Event*>> pairs,
    QueryCost& cost, std::optional<bool>* out) const {
  // The transpose fast path needs the whole batch to be answerable (no
  // mid-batch budget exhaustion), so budget-limited calls take the
  // sequential loop — which is also the tick-accounting oracle the fast
  // path must match: answers AND ticks are bit-identical by construction.
  if (cost.budget != 0) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto answer = precedes_metered(*pairs[i].first, *pairs[i].second,
                                           cost);
      if (!answer.has_value()) return i;
      out[i] = answer;
    }
    return pairs.size();
  }

  // Batch transpose: one resolve pass decodes each pair's arena row ONCE
  // and gathers the direct-test operands (bound, component) contiguously;
  // the active dispatch tier then streams the comparisons 2-16 pairs per
  // instruction. Pairs the direct test cannot decide (uncovered process:
  // the probe walk) are answered scalar inline, charging exactly the ticks
  // the sequential loop would.
  const ArenaSnapshot& snap = *snapshot();
  const EventIndex* pool = snap.arena.pool_data();
  const std::size_t n = pairs.size();
  std::vector<EventIndex> bounds;
  std::vector<EventIndex> comps;
  std::vector<std::uint32_t> direct;  // pair index per gathered operand
  bounds.reserve(n);
  comps.reserve(n);
  direct.reserve(n);
  std::uint64_t ticks = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const Event& ev_e = *pairs[i].first;
    const Event& ev_f = *pairs[i].second;
    const EventId e = ev_e.id;
    const EventId f = ev_f.id;
    if (e == f || (ev_e.kind == EventKind::kSync && ev_e.partner == f)) {
      out[i] = false;  // decided before any charge, like the scalar path
      continue;
    }
    if (!snap.observed(f)) [[unlikely]] fail_unobserved(f);
    const RowRef& ref = snap.row_refs[f.process][f.index - 1];
    const EventIndex* row = pool + ref.offset;
    ++ticks;  // the direct test
    if (ref.aux == kFullRowAux) {
      bounds.push_back(e.index);
      comps.push_back(row[e.process]);
      direct.push_back(static_cast<std::uint32_t>(i));
      continue;
    }
    const CoveredSet& cs = snap.covered_sets[ref.aux];
    if (const std::int32_t slot = cs.pos[e.process]; slot >= 0) {
      bounds.push_back(e.index);
      comps.push_back(row[static_cast<std::size_t>(slot)]);
      direct.push_back(static_cast<std::uint32_t>(i));
      continue;
    }
    const std::uint32_t* probes =
        snap.probe_pool[f.process].data() + ref.probe_off;
    const std::size_t width = cs.procs->size();
    bool answer = false;
    for (std::size_t k = 0; k < width; ++k) {
      const std::uint32_t off = probes[k];
      if (off == kNoProbe) continue;
      ++ticks;
      if (e.index <= pool[off + e.process]) {
        answer = true;
        break;
      }
    }
    out[i] = answer;
  }

  std::vector<std::uint8_t> flags(direct.size());
  kernels::batch_leq(bounds.data(), comps.data(), direct.size(),
                     flags.data());
  for (std::size_t j = 0; j < direct.size(); ++j) {
    out[direct[j]] = flags[j] != 0;
  }
  cost.charge(ticks);  // unlimited budget: never fails
  return n;
}

ClusterTimestampEngine::PrecedenceCursor::PrecedenceCursor(
    const ClusterTimestampEngine& engine, const Event& anchor)
    : engine_(engine),
      guard_(util::EpochDomain::global().pin()),
      anchor_(anchor.id),
      anchor_partner_(kNoEvent) {
  CT_CHECK_MSG(anchor_.process < engine_.ts_.size() && anchor_.index >= 1 &&
                   anchor_.index <= engine_.ts_[anchor_.process].size(),
               "event " << anchor_ << " has not been observed");
  if (anchor.kind == EventKind::kSync) anchor_partner_ = anchor.partner;

  // The epoch pin (taken above, before this load) keeps this snapshot —
  // and every raw pointer resolved from it — alive for the cursor's whole
  // lifetime, even if a repair publishes a newer one.
  snap_ = engine_.snapshot();
  const EventIndex* pool = snap_->arena.pool_data();
  const RowRef& ref = snap_->row_refs[anchor_.process][anchor_.index - 1];
  row_ = pool + ref.offset;
  if (ref.aux == kFullRowAux) return;  // pos_ stays null: full-vector anchor

  const CoveredSet& cs = snap_->covered_sets[ref.aux];
  pos_ = cs.pos.data();
  // Materialize the anchor's store-time-resolved probe rows as direct
  // pointers; precedes_anchor then reads components with no offset hops.
  const std::size_t width = cs.procs->size();
  const std::uint32_t* probes =
      snap_->probe_pool[anchor_.process].data() + ref.probe_off;
  receive_rows_.resize(width, nullptr);
  for (std::size_t i = 0; i < width; ++i) {
    if (probes[i] != kNoProbe) receive_rows_[i] = pool + probes[i];
  }
}

bool ClusterTimestampEngine::PrecedenceCursor::anchor_precedes(
    const Event& ev_x) const {
  const EventId x = ev_x.id;
  if (x == anchor_) return false;
  if (x == anchor_partner_) return false;  // sync halves are concurrent

  const RowRef& ref = snap_->row_refs[x.process][x.index - 1];
  const EventIndex* pool = snap_->arena.pool_data();
  const EventIndex* row = pool + ref.offset;

  engine_.comparisons_.fetch_add(1, std::memory_order_relaxed);
  if (ref.aux == kFullRowAux) return anchor_.index <= row[anchor_.process];
  const CoveredSet& cs = snap_->covered_sets[ref.aux];
  if (const std::int32_t slot = cs.pos[anchor_.process]; slot >= 0) {
    return anchor_.index <= row[static_cast<std::size_t>(slot)];
  }

  const std::uint32_t* probes =
      snap_->probe_pool[x.process].data() + ref.probe_off;
  const std::size_t width = cs.procs->size();
  for (std::size_t i = 0; i < width; ++i) {
    const std::uint32_t off = probes[i];
    if (off == kNoProbe) continue;
    engine_.comparisons_.fetch_add(1, std::memory_order_relaxed);
    if (anchor_.index <= pool[off + anchor_.process]) return true;
  }
  return false;
}

bool ClusterTimestampEngine::PrecedenceCursor::precedes_anchor(
    const Event& ev_x) const {
  const EventId x = ev_x.id;
  if (x == anchor_) return false;
  if (ev_x.kind == EventKind::kSync && ev_x.partner == anchor_) return false;

  engine_.comparisons_.fetch_add(1, std::memory_order_relaxed);
  if (pos_ == nullptr) return x.index <= row_[x.process];  // full anchor
  if (const std::int32_t slot = pos_[x.process]; slot >= 0) {
    return x.index <= row_[static_cast<std::size_t>(slot)];
  }
  for (const EventIndex* rr : receive_rows_) {
    if (rr == nullptr) continue;
    engine_.comparisons_.fetch_add(1, std::memory_order_relaxed);
    if (x.index <= rr[x.process]) return true;
  }
  return false;
}

void ClusterTimestampEngine::PrecedenceCursor::anchor_precedes_batch(
    std::span<const Event* const> xs, std::uint8_t* out) const {
  const std::size_t n = xs.size();
  const EventIndex* pool = snap_->arena.pool_data();
  std::vector<EventIndex> bounds;
  std::vector<EventIndex> comps;
  std::vector<std::uint32_t> direct;
  bounds.reserve(n);
  comps.reserve(n);
  direct.reserve(n);

  for (std::size_t i = 0; i < n; ++i) {
    const EventId x = xs[i]->id;
    if (x == anchor_ || x == anchor_partner_) {
      out[i] = 0;
      continue;
    }
    const RowRef& ref = snap_->row_refs[x.process][x.index - 1];
    const EventIndex* row = pool + ref.offset;
    engine_.comparisons_.fetch_add(1, std::memory_order_relaxed);
    if (ref.aux == kFullRowAux) {
      bounds.push_back(anchor_.index);
      comps.push_back(row[anchor_.process]);
      direct.push_back(static_cast<std::uint32_t>(i));
      continue;
    }
    const CoveredSet& cs = snap_->covered_sets[ref.aux];
    if (const std::int32_t slot = cs.pos[anchor_.process]; slot >= 0) {
      bounds.push_back(anchor_.index);
      comps.push_back(row[static_cast<std::size_t>(slot)]);
      direct.push_back(static_cast<std::uint32_t>(i));
      continue;
    }
    const std::uint32_t* probes =
        snap_->probe_pool[x.process].data() + ref.probe_off;
    const std::size_t width = cs.procs->size();
    std::uint8_t answer = 0;
    for (std::size_t k = 0; k < width; ++k) {
      const std::uint32_t off = probes[k];
      if (off == kNoProbe) continue;
      engine_.comparisons_.fetch_add(1, std::memory_order_relaxed);
      if (anchor_.index <= pool[off + anchor_.process]) {
        answer = 1;
        break;
      }
    }
    out[i] = answer;
  }

  std::vector<std::uint8_t> flags(direct.size());
  kernels::batch_leq(bounds.data(), comps.data(), direct.size(),
                     flags.data());
  for (std::size_t j = 0; j < direct.size(); ++j) {
    out[direct[j]] = flags[j];
  }
}

void ClusterTimestampEngine::PrecedenceCursor::precedes_anchor_batch(
    std::span<const Event* const> xs, std::uint8_t* out) const {
  const std::size_t n = xs.size();
  std::vector<EventIndex> bounds;
  std::vector<EventIndex> comps;
  std::vector<std::uint32_t> direct;
  bounds.reserve(n);
  comps.reserve(n);
  direct.reserve(n);

  for (std::size_t i = 0; i < n; ++i) {
    const Event& ev_x = *xs[i];
    const EventId x = ev_x.id;
    if (x == anchor_ ||
        (ev_x.kind == EventKind::kSync && ev_x.partner == anchor_)) {
      out[i] = 0;
      continue;
    }
    engine_.comparisons_.fetch_add(1, std::memory_order_relaxed);
    if (pos_ == nullptr) {  // full-vector anchor: always covered
      bounds.push_back(x.index);
      comps.push_back(row_[x.process]);
      direct.push_back(static_cast<std::uint32_t>(i));
      continue;
    }
    if (const std::int32_t slot = pos_[x.process]; slot >= 0) {
      bounds.push_back(x.index);
      comps.push_back(row_[static_cast<std::size_t>(slot)]);
      direct.push_back(static_cast<std::uint32_t>(i));
      continue;
    }
    std::uint8_t answer = 0;
    for (const EventIndex* rr : receive_rows_) {
      if (rr == nullptr) continue;
      engine_.comparisons_.fetch_add(1, std::memory_order_relaxed);
      if (x.index <= rr[x.process]) {
        answer = 1;
        break;
      }
    }
    out[i] = answer;
  }

  std::vector<std::uint8_t> flags(direct.size());
  kernels::batch_leq(bounds.data(), comps.data(), direct.size(),
                     flags.data());
  for (std::size_t j = 0; j < direct.size(); ++j) {
    out[direct[j]] = flags[j];
  }
}

ClusterTimestampEngine::PrecedenceCursor ClusterTimestampEngine::cursor(
    const Event& anchor) const {
  return PrecedenceCursor(*this, anchor);
}

ClusterEngineStats ClusterTimestampEngine::stats() const {
  ClusterEngineStats s;
  s.process_count = ts_.size();
  s.events = events_;
  s.cluster_receives = cluster_receive_count_;
  s.merges = merges_;
  s.final_clusters = clusters_.cluster_count();
  s.largest_cluster = clusters_.max_cluster_size();
  s.encoded_words = encoded_words_;
  s.exact_words = exact_words_;
  return s;
}

std::uint64_t ClusterTimestampEngine::cluster_digest(ClusterId c) const {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (i * 8)) & 0xff)) * kPrime;
    }
  };
  for (const ProcessId p : *clusters_.members(c)) {
    mix(p);
    mix(ts_[p].size());
    for (const ClusterTimestamp& ts : ts_[p]) {
      mix(ts.cluster_receive ? 1 : 0);
      mix(ts.values.size());
      for (const EventIndex v : ts.values) mix(v);
    }
  }
  return h;
}

void ClusterTimestampEngine::inject_corruption(EventId e, std::size_t slot,
                                               EventIndex value) {
  CT_CHECK_MSG(e.process < ts_.size() && e.index >= 1 &&
                   e.index <= ts_[e.process].size(),
               "event " << e << " has not been observed");
  auto& values = ts_[e.process][e.index - 1].values;
  CT_CHECK_MSG(!values.empty(), "timestamp of " << e << " has no components");
  values[slot % values.size()] = value;
  // Queries read the arena, so it must carry the corrupted value too. A
  // mutated projection component also shifts its greatest-cluster-receive
  // bound — re-resolve the row's probes against it. The mutation happens on
  // a writer-private clone published with one atomic swap, so in-flight
  // readers keep a coherent (pre-corruption) snapshot.
  std::lock_guard<std::mutex> writer(snap_writer_mu_);
  auto next =
      std::make_unique<ArenaSnapshot>(*snap_.load(std::memory_order_acquire));
  next->arena.overwrite_component(row_handles_[e.process][e.index - 1],
                                  slot % values.size(), value);
  refresh_probes(*next, e);
  publish_snapshot(std::move(next));
}

std::uint64_t ClusterTimestampEngine::rebuild_cluster(
    ClusterId c, std::span<const EventId> log,
    const std::function<const Event&(EventId)>& event_of) {
  const auto members = clusters_.members(c);
  std::vector<bool> in_cluster(ts_.size(), false);
  for (const ProcessId p : *members) in_cluster[p] = true;

  // One clone for the whole repair: every row rewrite and probe refresh
  // lands on the writer-private snapshot, then ONE atomic swap publishes
  // the repaired state. Readers never see a half-rebuilt cluster and are
  // never blocked — the old snapshot stays valid until its grace period
  // ends (util/epoch.hpp).
  std::lock_guard<std::mutex> writer(snap_writer_mu_);
  auto next =
      std::make_unique<ArenaSnapshot>(*snap_.load(std::memory_order_acquire));

  FmEngine scratch(ts_.size());
  std::uint64_t elements_written = 0;
  for (const EventId id : log) {
    const Event& e = event_of(id);
    const FmClock& fm = scratch.observe(e);
    if (!in_cluster[e.id.process]) continue;
    ClusterTimestamp& ts = ts_[e.id.process][e.id.index - 1];
    if (ts.is_full()) {
      ts.values.assign(fm.begin(), fm.end());
    } else {
      // Historical covered set: projection shape is part of the retained
      // structure, only the component values are restored.
      const auto& procs = *ts.covered;
      ts.values.resize(procs.size());
      for (std::size_t i = 0; i < procs.size(); ++i) {
        ts.values[i] = fm[procs[i]];
      }
    }
    next->arena.overwrite_row(row_handles_[e.id.process][e.id.index - 1],
                              ts.values.data(), ts.values.size());
    refresh_probes(*next, e.id);
    elements_written += ts.values.size();
  }
  publish_snapshot(std::move(next));
  return elements_written;
}

std::size_t ClusterTimestampEngine::arena_words() const {
  return snapshot()->arena.pool_words();
}

void ClusterTimestampEngine::export_arena(ArenaExportSink& sink) const {
  static_assert(kExportFullRow == kFullRowAux &&
                kExportNoProbe == kNoProbe);
  const ArenaSnapshot& snap = *snapshot();
  sink.pool(snap.arena.pool_data(), snap.arena.pool_words());
  for (std::size_t id = 0; id < snap.covered_sets.size(); ++id) {
    sink.covered_set(static_cast<std::uint32_t>(id),
                     std::span<const ProcessId>(*snap.covered_sets[id].procs));
  }
  for (ProcessId p = 0; p < snap.row_refs.size(); ++p) {
    for (std::size_t i = 0; i < snap.row_refs[p].size(); ++i) {
      const RowRef& ref = snap.row_refs[p][i];
      sink.row(p, ref.offset, ref.aux, ref.probe_off,
               snap.arena.width(row_handles_[p][i]));
    }
    sink.probes(p, snap.probe_pool[p].data(), snap.probe_pool[p].size());
  }
}

std::uint64_t ClusterTimestampEngine::state_digest() const {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (i * 8)) & 0xff)) * kPrime;
    }
  };
  mix(events_);
  mix(cluster_receive_count_);
  mix(merges_);
  mix(encoded_words_);
  mix(exact_words_);
  for (const ClusterId c : clusters_.clusters()) {
    for (const ProcessId p : *clusters_.members(c)) mix(p);
    mix(~std::uint64_t{0});  // cluster boundary marker
  }
  for (const auto& receives : cluster_receives_) {
    mix(receives.size());
    for (const EventIndex i : receives) mix(i);
  }
  return h;
}

}  // namespace ct
