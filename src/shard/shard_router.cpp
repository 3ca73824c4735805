#include "shard/shard_router.hpp"

#include <algorithm>
#include <span>

#include "store/snapshot_store.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace ct {

namespace {

/// Fallbacks past the shard's primary path make an answer degraded at the
/// router grain (exact, but the shard had to reach past its own backend).
bool degraded_backend(ServingBackend b) {
  return b == ServingBackend::kDifferential || b == ServingBackend::kOnDemandFm;
}

ServingBackend worse(ServingBackend a, ServingBackend b) {
  return static_cast<std::uint8_t>(a) >= static_cast<std::uint8_t>(b) ? a : b;
}

/// Coherence digest of one replica: the delivered-state digest folded with
/// every cluster's stored-timestamp digest. state_digest() alone covers the
/// delivery log and frontier but not the mutable timestamp store, so a
/// bit-flipped stored component (FAULT_MODEL §6) would slip past it.
std::uint64_t replica_digest(const MonitoringEntity& m) {
  std::uint64_t d = m.state_digest();
  std::vector<ClusterId> ids = m.cluster_ids();
  std::sort(ids.begin(), ids.end());
  for (const ClusterId c : ids) {
    d = d * 0x9e3779b97f4a7c15ULL + m.cluster_digest(c);
  }
  return d;
}

}  // namespace

const char* to_string(RouterOutcome o) {
  switch (o) {
    case RouterOutcome::kAnswered: return "answered";
    case RouterOutcome::kDegraded: return "degraded";
    case RouterOutcome::kUnknown: return "unknown";
    case RouterOutcome::kShed: return "shed";
  }
  return "?";
}

ShardRouter::ShardRouter(RouterOptions options)
    : options_(options),
      pool_(options.pool_threads == 0 ? 1 : options.pool_threads) {}

ShardRouter::~ShardRouter() {
  // Drain every broker while the pool is still alive (pool_ is declared
  // first, so it is destroyed last).
  for (auto& ten : tenants_) {
    for (auto& sh : ten->shards) sh.broker.reset();
  }
}

ShardRouter::Tenant& ShardRouter::tenant(TenantId t) {
  CT_CHECK_MSG(t < tenants_.size(), "tenant " << t << " not registered");
  return *tenants_[t];
}

const ShardRouter::Tenant& ShardRouter::tenant(TenantId t) const {
  CT_CHECK_MSG(t < tenants_.size(), "tenant " << t << " not registered");
  return *tenants_[t];
}

TenantId ShardRouter::add_tenant(const TenantConfig& config) {
  CT_CHECK_MSG(!serving_, "add_tenant during a serving epoch");
  CT_CHECK_MSG(config.process_count > 0, "tenant needs processes");
  CT_CHECK_MSG(config.shards > 0, "tenant needs at least one shard");
  auto ten = std::make_unique<Tenant>();
  ten->config = config;
  ten->shards.resize(config.shards);
  for (auto& sh : ten->shards) {
    sh.monitor = std::make_unique<MonitoringEntity>(config.process_count,
                                                    config.monitor);
  }
  tenants_.push_back(std::move(ten));
  return static_cast<TenantId>(tenants_.size() - 1);
}

std::size_t ShardRouter::shard_count(TenantId t) const {
  return tenant(t).shards.size();
}

IngestResult ShardRouter::ingest(TenantId t, const Event& e) {
  CT_CHECK_MSG(!serving_, "ingest during a serving epoch");
  Tenant& ten = tenant(t);
  std::optional<IngestResult> first;
  for (auto& sh : ten.shards) {
    if (sh.retired) continue;
    try {
      IngestResult r = sh.monitor->ingest(e);
      if (!first) first = r;  // replicas are deterministic: results agree
    } catch (const CheckFailure&) {
      // A replica whose ingest path trips an invariant is lost; the
      // fan-out absorbs it and the surviving replicas keep serving.
      sh.retired = true;
      ++ten.health.shards_retired;
    }
  }
  CT_CHECK_MSG(first.has_value(),
               "tenant " << t << " lost every replica to ingest faults");
  return *first;
}

void ShardRouter::attach_wal(TenantId t, StorageBackend& storage,
                             WalOptions options) {
  Tenant& ten = tenant(t);
  CT_CHECK_MSG(!ten.wal, "tenant " << t << " already has a WAL");
  CT_CHECK_MSG(!ten.shards[0].retired, "durability leader (shard 0) is gone");
  options.ns = wal::tenant_namespace(t);
  MonitoringEntity& leader = *ten.shards[0].monitor;
  ten.wal = std::make_unique<DurableLog>(storage, options,
                                         leader.delivery_log().size());
  DurableLog* log = ten.wal.get();
  leader.set_delivery_tap([log](const Event& e) { log->append(e); });
}

void ShardRouter::checkpoint_tenant(TenantId t) {
  Tenant& ten = tenant(t);
  CT_CHECK_MSG(ten.wal != nullptr, "checkpoint_tenant without attach_wal");
  CT_CHECK_MSG(!ten.shards[0].retired, "durability leader (shard 0) is gone");
  checkpoint(*ten.wal, *ten.shards[0].monitor);
}

DurableLog* ShardRouter::wal(TenantId t) { return tenant(t).wal.get(); }

// --- online re-clustering --------------------------------------------------

ShardRouter::TenantMigrationResult ShardRouter::migrate_tenant(
    TenantId t, const MigrationConfig& config, MigrationFault fault) {
  CT_CHECK_MSG(!serving_, "migrate_tenant during a serving epoch");
  Tenant& ten = tenant(t);
  CT_CHECK_MSG(!ten.shards[0].retired, "durability leader (shard 0) is gone");
  MonitoringEntity& leader = *ten.shards[0].monitor;
  if (!ten.migrator) {
    ten.migrator = std::make_unique<MigrationCoordinator>(leader, config);
    ten.migrator->attach_wal(ten.wal.get());
  }

  // Digest the leader BEFORE it adopts the new partition: replicas that
  // already disagree are quarantine-bound and must not adopt a migration
  // planned against state they do not hold.
  const std::uint64_t leader_digest = replica_digest(leader);

  TenantMigrationResult out;
  out.outcome = ten.migrator->run_cycle(fault);
  out.migration_epoch = leader.migration_epoch();
  if (out.outcome == MigrationOutcome::kRolledBack) {
    ++ten.health.migrations_rolled_back;
  }
  if (out.outcome != MigrationOutcome::kCommitted) return out;
  ++ten.health.migrations_committed;
  ++out.replicas_applied;  // the leader itself

  for (ShardId s = 1; s < ten.shards.size(); ++s) {
    Shard& sh = ten.shards[s];
    if (sh.retired || replica_digest(*sh.monitor) != leader_digest) {
      // Skipped replicas reconcile through the §8 machinery: the partition
      // folds into the replica digest, so the next open_epoch quarantines
      // them until reconcile_replica() re-aligns.
      ++out.replicas_skipped;
      ++ten.health.replicas_skipped_migration;
      continue;
    }
    try {
      sh.monitor->apply_migration(leader.preset_partition(),
                                  leader.migration_epoch());
      ++out.replicas_applied;
    } catch (const CheckFailure&) {
      sh.retired = true;
      ++ten.health.shards_retired;
    }
  }
  return out;
}

void ShardRouter::reconcile_replica(TenantId t, ShardId s) {
  CT_CHECK_MSG(!serving_, "reconcile_replica during a serving epoch");
  Tenant& ten = tenant(t);
  CT_CHECK_MSG(s < ten.shards.size(), "no shard " << s);
  Shard& sh = ten.shards[s];
  CT_CHECK_MSG(!sh.retired, "shard " << s << " is retired");
  const MonitoringEntity& leader = *ten.shards[0].monitor;
  if (sh.monitor->migration_epoch() >= leader.migration_epoch()) return;
  sh.monitor->apply_migration(leader.preset_partition(),
                              leader.migration_epoch());
}

std::uint64_t ShardRouter::tenant_migration_epoch(TenantId t) const {
  return tenant(t).shards[0].monitor->migration_epoch();
}

// --- serving epochs --------------------------------------------------------

void ShardRouter::open_epoch() {
  CT_CHECK_MSG(!serving_, "open_epoch while already serving");
  ++epoch_;
  for (TenantId t = 0; t < tenants_.size(); ++t) {
    Tenant& ten = *tenants_[t];

    // 1. Replica coherence: quarantine any replica whose delivered-state
    //    digest disagrees with the majority (lowest shard wins a tie). A
    //    diverged replica cannot serve exact answers, so it sits the epoch
    //    out — the bulkhead against serving from silently-wrong state.
    std::vector<std::pair<ShardId, std::uint64_t>> digests;
    for (ShardId s = 0; s < ten.shards.size(); ++s) {
      ten.shards[s].divergent = false;
      if (!ten.shards[s].retired) {
        digests.emplace_back(s, replica_digest(*ten.shards[s].monitor));
      }
    }
    if (digests.size() >= 2) {
      std::uint64_t majority = digests[0].second;
      std::size_t best = 0;
      for (const auto& [s, d] : digests) {
        const std::size_t votes = static_cast<std::size_t>(
            std::count_if(digests.begin(), digests.end(),
                          [&](const auto& x) { return x.second == d; }));
        if (votes > best) { best = votes; majority = d; }
      }
      for (const auto& [s, d] : digests) {
        if (d != majority) {
          ten.shards[s].divergent = true;
          ++ten.health.divergent_replicas;
        }
      }
    }

    // 2. Draw this epoch's faults from the seeded plan.
    for (ShardId s = 0; s < ten.shards.size(); ++s) {
      Shard& sh = ten.shards[s];
      sh.fault = ShardFault::kNone;
      sh.corrupted = false;
      if (sh.retired || sh.divergent) continue;
      ShardFault f = draw_shard_fault(options_.faults, t, s, epoch_);
      if (f == ShardFault::kCorruptCluster &&
          (!sh.monitor->cluster_stats().has_value() ||
           sh.monitor->delivery_log().empty())) {
        f = ShardFault::kNone;  // the corrupt fault targets the cluster store
      }
      sh.fault = f;
      if (f != ShardFault::kNone) ++ten.fault_stats.faults_drawn;
      switch (f) {
        case ShardFault::kSlow: ++ten.fault_stats.slow; break;
        case ShardFault::kStalled: ++ten.fault_stats.stalled; break;
        case ShardFault::kDead: ++ten.fault_stats.dead; break;
        case ShardFault::kCorruptCluster: ++ten.fault_stats.corrupted; break;
        case ShardFault::kNone: break;
      }
    }

    // 3. Ownership rotation over the shards that can actually answer.
    build_ownership(ten);

    // 4. A broker per live shard (dead-drawn shards keep one too — a fault
    //    injected or lifted mid-epoch must not leave them broker-less).
    for (ShardId s = 0; s < ten.shards.size(); ++s) {
      Shard& sh = ten.shards[s];
      if (sh.retired || sh.divergent) continue;
      sh.broker = std::make_unique<QueryBroker>(*sh.monitor, pool_,
                                                ten.config.broker);
      if (sh.fault == ShardFault::kCorruptCluster) {
        apply_corruption(t, ten, s);
      }
    }
  }
  serving_ = true;
}

void ShardRouter::apply_corruption(TenantId t, Tenant& ten, ShardId s) {
  Shard& sh = ten.shards[s];
  // The §6 kill-switch protocol, applied by the router: plant one wrong
  // stored component, then trip that shard's cluster backend so the shard
  // serves exact answers through its fallback chain. Deterministic victim
  // choice keeps epochs replayable.
  std::uint64_t cell = options_.faults.seed;
  cell = cell * 0x9e3779b97f4a7c15ULL + t;
  cell = cell * 0x9e3779b97f4a7c15ULL + s;
  cell = cell * 0x9e3779b97f4a7c15ULL + epoch_;
  Prng prng(cell ^ 0xc0ffee);
  const auto log = sh.monitor->delivery_log();
  const EventId victim = log[prng.index(log.size())];
  sh.monitor->inject_timestamp_corruption(
      victim, 0, static_cast<EventIndex>(victim.index ^ 0x2bad));
  sh.broker->trip_backend(ServingBackend::kCluster);
  sh.corrupted = true;
}

void ShardRouter::close_epoch() {
  CT_CHECK_MSG(serving_, "close_epoch without an open epoch");
  for (auto& tptr : tenants_) {
    Tenant& ten = *tptr;
    for (auto& sh : ten.shards) {
      sh.broker.reset();  // drains
      if (sh.corrupted) {
        // Repair from the delivery log so the replica rejoins the
        // coherent set next epoch (same mechanism the integrity audit
        // uses).
        for (const ClusterId c : sh.monitor->cluster_ids()) {
          sh.monitor->rebuild_cluster(c);
        }
        sh.corrupted = false;
      }
      sh.fault = ShardFault::kNone;
      sh.divergent = false;
    }
  }
  serving_ = false;
}

void ShardRouter::build_ownership(Tenant& ten) {
  ten.eligible.clear();
  for (ShardId s = 0; s < ten.shards.size(); ++s) {
    const Shard& sh = ten.shards[s];
    if (!sh.retired && !sh.divergent && sh.fault != ShardFault::kDead) {
      ten.eligible.push_back(s);
    }
  }
  const std::size_t p_count = ten.config.process_count;
  ten.owner_of_process.assign(p_count, 0);
  if (ten.eligible.empty()) return;  // unserveable epoch: everything unknown

  const MonitoringEntity& ref = *ten.shards[ten.eligible[0]].monitor;
  std::vector<ClusterId> ids = ref.cluster_ids();
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (ProcessId p = 0; p < p_count; ++p) {
    const auto c = ref.cluster_of(p);
    std::size_t rank;
    if (c.has_value()) {
      // Per-cluster ownership: every process of a cluster maps to the same
      // shard, so one shard serves a cluster's whole query surface.
      rank = static_cast<std::size_t>(
          std::lower_bound(ids.begin(), ids.end(), *c) - ids.begin());
    } else {
      rank = p;  // FM backend: no clusters; stripe by process
    }
    ten.owner_of_process[p] = ten.eligible[rank % ten.eligible.size()];
  }
}

ShardId ShardRouter::owner_of(const Tenant& ten, ProcessId p) const {
  CT_CHECK_MSG(p < ten.owner_of_process.size(),
               "process " << p << " out of tenant range");
  return ten.owner_of_process[p];
}

ShardId ShardRouter::owner_shard(TenantId t, ProcessId p) const {
  CT_CHECK_MSG(serving_, "ownership is an epoch property");
  return owner_of(tenant(t), p);
}

ShardFault ShardRouter::shard_fault(TenantId t, ShardId s) const {
  const Tenant& ten = tenant(t);
  CT_CHECK_MSG(s < ten.shards.size(), "shard " << s << " out of range");
  return ten.shards[s].fault;
}

void ShardRouter::inject_shard_fault(TenantId t, ShardId s, ShardFault f) {
  CT_CHECK_MSG(serving_, "faults are epoch-scoped; open an epoch first");
  Tenant& ten = tenant(t);
  CT_CHECK_MSG(s < ten.shards.size(), "shard " << s << " out of range");
  Shard& sh = ten.shards[s];
  CT_CHECK_MSG(!sh.retired && !sh.divergent,
               "shard " << s << " is not serving this epoch");
  sh.fault = f;
  switch (f) {
    case ShardFault::kSlow: ++ten.fault_stats.slow; break;
    case ShardFault::kStalled: ++ten.fault_stats.stalled; break;
    case ShardFault::kDead: ++ten.fault_stats.dead; break;
    case ShardFault::kCorruptCluster: break;  // counted below
    case ShardFault::kNone: return;
  }
  ++ten.fault_stats.faults_drawn;
  if (f == ShardFault::kCorruptCluster) {
    CT_CHECK_MSG(sh.monitor->cluster_stats().has_value() &&
                     !sh.monitor->delivery_log().empty(),
                 "corrupt-cluster fault needs a non-empty cluster backend");
    ++ten.fault_stats.corrupted;
    apply_corruption(t, ten, s);
  }
}

void ShardRouter::trip_tenant(TenantId t) {
  Tenant& ten = tenant(t);
  std::lock_guard lock(ten.mu);
  if (!ten.breaker.open) {
    ten.breaker.open = true;
    ++ten.health.breaker_trips;
  }
}

void ShardRouter::readmit_tenant(TenantId t) {
  Tenant& ten = tenant(t);
  std::lock_guard lock(ten.mu);
  if (ten.breaker.open) {
    ten.breaker.open = false;
    ten.breaker.consecutive_unknown = 0;
    ten.breaker.submissions_while_open = 0;
    ++ten.health.readmissions;
  }
}

bool ShardRouter::tenant_open(TenantId t) const {
  const Tenant& ten = tenant(t);
  std::lock_guard lock(ten.mu);
  return !ten.breaker.open;
}

// --- query path ------------------------------------------------------------

std::optional<RouterQueryResult> ShardRouter::admit(Tenant& ten) {
  std::lock_guard lock(ten.mu);
  ++ten.health.submitted;
  if (ten.breaker.open) {
    ++ten.breaker.submissions_while_open;
    const std::size_t stride = ten.config.breaker_probe_stride;
    const bool probe =
        stride != 0 && ten.breaker.submissions_while_open % stride == 0;
    if (!probe) {
      // Fast-fail: the tenant's own repeated unknowns tripped its breaker;
      // don't burn serving time on a fan-out that will not answer.
      ++ten.health.breaker_fastfails;
      ++ten.health.unknown;
      RouterQueryResult r;
      r.outcome = RouterOutcome::kUnknown;
      r.breaker_fastfail = true;
      return r;
    }
  }
  if (ten.config.max_in_flight != 0 &&
      ten.health.in_flight >= ten.config.max_in_flight) {
    // The admission bulkhead: this tenant already holds its share of the
    // serving threads; shedding here is what keeps a noisy tenant from
    // queueing the whole deployment behind it.
    ++ten.health.quota_rejections;
    ++ten.health.shed;
    RouterQueryResult r;
    r.outcome = RouterOutcome::kShed;
    return r;
  }
  ++ten.health.in_flight;
  return std::nullopt;
}

void ShardRouter::finish(Tenant& ten, RouterQueryResult& r,
                         const AttemptTally& tally) {
  std::lock_guard lock(ten.mu);
  --ten.health.in_flight;
  switch (r.outcome) {
    case RouterOutcome::kAnswered: ++ten.health.answered; break;
    case RouterOutcome::kDegraded: ++ten.health.degraded; break;
    case RouterOutcome::kUnknown: ++ten.health.unknown; break;
    case RouterOutcome::kShed: ++ten.health.shed; break;  // unreachable
  }
  ten.health.total_ticks += r.cost;
  ten.health.retries += tally.retries;
  ten.health.hedges += tally.hedges;
  ten.fault_stats.dead_attempts += tally.dead;
  ten.fault_stats.stalled_attempts += tally.stalled;
  ten.fault_stats.slowed_attempts += tally.slowed;
  for (const RouterOutcome po : r.batch_outcome) {
    switch (po) {
      case RouterOutcome::kAnswered: ++ten.health.pairs_answered; break;
      case RouterOutcome::kDegraded: ++ten.health.pairs_degraded; break;
      default: ++ten.health.pairs_unknown; break;
    }
  }
  // The tenant breaker feeds on the tenant's OWN outcomes only — a sibling
  // tenant's unknowns never trip it (the bulkhead property).
  if (r.outcome == RouterOutcome::kUnknown) {
    ++ten.breaker.consecutive_unknown;
    if (!ten.breaker.open && ten.config.breaker_failure_threshold != 0 &&
        ten.breaker.consecutive_unknown >=
            ten.config.breaker_failure_threshold) {
      ten.breaker.open = true;
      ++ten.health.breaker_trips;
    }
  } else {
    ten.breaker.consecutive_unknown = 0;
    if (ten.breaker.open) {
      // A successful probe: the fan-out answers again; re-admit.
      ten.breaker.open = false;
      ten.breaker.submissions_while_open = 0;
      ++ten.health.readmissions;
    }
  }
}

std::vector<ShardId> ShardRouter::attempt_ladder(const Tenant& ten,
                                                 ShardId owner) const {
  std::vector<ShardId> ladder;
  if (ten.eligible.empty()) return ladder;
  for (std::size_t k = 0; k <= options_.retry_limit; ++k) {
    ladder.push_back(owner);
  }
  const auto it =
      std::find(ten.eligible.begin(), ten.eligible.end(), owner);
  const std::size_t pos =
      static_cast<std::size_t>(it - ten.eligible.begin());
  for (std::size_t i = 1;
       i < ten.eligible.size() && ladder.size() <= options_.retry_limit +
                                                      options_.hedge_limit;
       ++i) {
    ladder.push_back(ten.eligible[(pos + i) % ten.eligible.size()]);
  }
  return ladder;
}

ShardRouter::ShardAttempt ShardRouter::try_shard(Shard& sh, QueryKind kind,
                                                 EventId e, EventId f,
                                                 std::uint64_t budget,
                                                 AttemptTally& tally) {
  ShardAttempt a;
  if (sh.retired || sh.divergent) {
    a.refused = true;
    return a;
  }
  // The broker serves on this thread: no pool task, no future.
  auto submit = [&](std::uint64_t ticks) {
    return kind == QueryKind::kPrecedence ? sh.broker->precedence(e, f, ticks)
                                          : sh.broker->frontier(e, ticks);
  };
  switch (sh.fault) {
    case ShardFault::kDead:
      // Connection refused: instant, free, and answerless — the cheap
      // failure the retry ladder skips past.
      ++tally.dead;
      a.refused = true;
      return a;
    case ShardFault::kStalled:
      // A wedged replica accepts the query and burns the entire budget
      // producing nothing. Under an unlimited budget it would hang
      // forever, which the deterministic model renders as a refusal.
      ++tally.stalled;
      if (budget == 0) {
        a.refused = true;
        return a;
      }
      a.cost = budget;
      a.result.outcome = QueryOutcome::kDeadlineExpired;
      return a;
    case ShardFault::kSlow: {
      // The shard answers, but every tick costs slow_factor real ticks:
      // its effective budget shrinks and the router pays the inflated
      // bill. Answers that still fit are exact.
      ++tally.slowed;
      const std::uint64_t factor =
          options_.faults.slow_factor == 0 ? 1 : options_.faults.slow_factor;
      const std::uint64_t eff =
          budget == 0 ? 0 : std::max<std::uint64_t>(1, budget / factor);
      a.result = submit(eff);
      a.cost = a.result.cost * factor;
      return a;
    }
    case ShardFault::kCorruptCluster:
    case ShardFault::kNone:
      a.result = submit(budget);
      a.cost = a.result.cost;
      return a;
  }
  return a;
}

RouterQueryResult ShardRouter::run_single(Tenant& ten, QueryKind kind,
                                          EventId e, EventId f,
                                          std::uint64_t base,
                                          AttemptTally& tally) {
  RouterQueryResult out;
  const ProcessId key =
      kind == QueryKind::kPrecedence ? f.process : e.process;
  if (key >= ten.owner_of_process.size()) {
    // Malformed query (unknown process): explicit unknown, not a throw —
    // the accounting must absorb it like any other unanswerable query.
    out.outcome = RouterOutcome::kUnknown;
    return out;
  }
  const std::vector<ShardId> ladder = attempt_ladder(ten, owner_of(ten, key));
  const ShardId owner = ladder.empty() ? 0 : ladder.front();
  std::uint64_t budget = base;
  for (std::size_t k = 0; k < ladder.size(); ++k) {
    const ShardId s = ladder[k];
    if (k > 0) {
      budget = base == 0 ? 0 : budget * options_.backoff_factor;
      if (s == owner) {
        ++tally.retries;
        out.retried = true;
      } else {
        ++tally.hedges;
        out.hedged = true;
      }
    }
    ShardAttempt a = try_shard(ten.shards[s], kind, e, f, budget, tally);
    out.cost += a.cost;
    ++out.attempts;
    if (!a.refused && a.result.outcome == QueryOutcome::kAnswered) {
      out.answer = a.result.answer;
      out.frontiers = std::move(a.result.frontiers);
      out.backend_used = a.result.backend_used;
      out.shard = s;
      // A shard under the corruption kill-switch stays flagged degraded
      // for the whole epoch, whatever backend served: its broker's audit
      // may repair and re-admit the cluster backend mid-epoch, but the
      // router only re-certifies the replica at the next epoch's coherence
      // check.
      const bool killswitched = ten.shards[s].corrupted;
      out.outcome =
          (k > 0 || killswitched || degraded_backend(out.backend_used))
              ? RouterOutcome::kDegraded
              : RouterOutcome::kAnswered;
      return out;
    }
    // kUnknown / kDeadlineExpired / kFailed / refused: next rung. Every
    // grade of shard failure funnels into the same ladder, so a partial
    // deployment failure costs retries and hedges, never a wrong answer.
  }
  out.outcome = RouterOutcome::kUnknown;
  return out;
}

RouterQueryResult ShardRouter::run_batch(
    Tenant& ten, std::vector<std::pair<EventId, EventId>> pairs,
    std::uint64_t base, AttemptTally& tally) {
  RouterQueryResult out;
  const std::size_t n = pairs.size();
  out.batch.assign(n, std::nullopt);
  out.batch_outcome.assign(n, RouterOutcome::kUnknown);
  if (n == 0) {
    out.outcome = RouterOutcome::kAnswered;
    return out;
  }

  // Phase 1: one slice per owner shard, each under a proportional cut of
  // the per-shard budget, served in shard order on this thread (an inline
  // slice costs less than a pool hop would save).
  std::vector<std::vector<std::size_t>> groups(ten.shards.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (ten.eligible.empty()) break;
    if (pairs[i].second.process >= ten.owner_of_process.size()) continue;
    groups[owner_of(ten, pairs[i].second.process)].push_back(i);
  }
  std::vector<std::pair<EventId, EventId>> owned;
  for (ShardId s = 0; s < groups.size(); ++s) {
    const auto& group = groups[s];
    if (group.empty()) continue;
    Shard& sh = ten.shards[s];
    const std::uint64_t slice =
        base == 0 ? 0
                  : std::max<std::uint64_t>(1, base * group.size() / n);
    ++out.attempts;
    if (sh.retired || sh.divergent || sh.fault == ShardFault::kDead) {
      if (sh.fault == ShardFault::kDead) ++tally.dead;
      continue;  // the whole slice falls through to phase 2
    }
    if (sh.fault == ShardFault::kStalled) {
      ++tally.stalled;
      out.cost += slice;  // burned producing nothing
      continue;
    }
    std::uint64_t eff = slice, factor = 1;
    if (sh.fault == ShardFault::kSlow) {
      ++tally.slowed;
      factor = options_.faults.slow_factor == 0 ? 1
                                                : options_.faults.slow_factor;
      eff = slice == 0 ? 0 : std::max<std::uint64_t>(1, slice / factor);
    }
    owned.clear();
    for (const std::size_t i : group) owned.push_back(pairs[i]);
    const QueryResult r = sh.broker->batch(owned, eff);
    out.cost += r.cost * factor;
    if (r.outcome == QueryOutcome::kFailed ||
        r.outcome == QueryOutcome::kShed) {
      continue;  // nothing trustworthy came back; phase 2 retries the slice
    }
    const bool degraded = degraded_backend(r.backend_used) || sh.corrupted;
    out.backend_used = worse(out.backend_used, r.backend_used);
    for (std::size_t j = 0; j < group.size(); ++j) {
      const std::size_t idx = group[j];
      if (j < r.batch.size() && r.batch[j].has_value()) {
        out.batch[idx] = r.batch[j];
        out.batch_outcome[idx] =
            degraded ? RouterOutcome::kDegraded : RouterOutcome::kAnswered;
      }
    }
  }

  // Phase 2: every pair the fan-out left unanswered gets the single-pair
  // ladder (owner retries with backoff, then hedges). Anything recovered
  // here is degraded by construction.
  const std::uint64_t pair_base =
      base == 0 ? 0 : std::max<std::uint64_t>(1, base / n);
  for (std::size_t i = 0; i < n; ++i) {
    if (out.batch[i].has_value()) continue;
    RouterQueryResult sub = run_single(ten, QueryKind::kPrecedence,
                                       pairs[i].first, pairs[i].second,
                                       pair_base, tally);
    out.cost += sub.cost;
    out.attempts += sub.attempts;
    out.retried |= sub.retried;
    out.hedged |= sub.hedged;
    if (sub.answer.has_value()) {
      out.batch[i] = sub.answer;
      out.batch_outcome[i] = RouterOutcome::kDegraded;
      out.backend_used = worse(out.backend_used, sub.backend_used);
    }
  }

  // A batch degrades per pair: all exact-first-try → answered; any answer
  // at all → degraded partial answer; nothing → unknown.
  std::size_t answered = 0, with_answer = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (out.batch[i].has_value()) ++with_answer;
    if (out.batch_outcome[i] == RouterOutcome::kAnswered) ++answered;
  }
  if (answered == n) {
    out.outcome = RouterOutcome::kAnswered;
  } else if (with_answer > 0) {
    out.outcome = RouterOutcome::kDegraded;
  } else {
    out.outcome = RouterOutcome::kUnknown;
  }
  return out;
}

RouterQueryResult ShardRouter::precedence(
    TenantId t, EventId e, EventId f,
    std::optional<std::uint64_t> deadline) {
  CT_CHECK_MSG(serving_, "queries require an open epoch");
  Tenant& ten = tenant(t);
  if (auto early = admit(ten)) return *early;
  AttemptTally tally;
  RouterQueryResult r =
      run_single(ten, QueryKind::kPrecedence, e, f,
                 deadline.value_or(options_.default_deadline), tally);
  finish(ten, r, tally);
  return r;
}

RouterQueryResult ShardRouter::frontier(TenantId t, EventId e,
                                        std::optional<std::uint64_t> deadline) {
  CT_CHECK_MSG(serving_, "queries require an open epoch");
  Tenant& ten = tenant(t);
  if (auto early = admit(ten)) return *early;
  AttemptTally tally;
  RouterQueryResult r =
      run_single(ten, QueryKind::kFrontier, e, EventId{},
                 deadline.value_or(options_.default_deadline), tally);
  finish(ten, r, tally);
  return r;
}

RouterQueryResult ShardRouter::batch(
    TenantId t, std::vector<std::pair<EventId, EventId>> pairs,
    std::optional<std::uint64_t> deadline) {
  CT_CHECK_MSG(serving_, "queries require an open epoch");
  Tenant& ten = tenant(t);
  if (auto early = admit(ten)) return *early;
  AttemptTally tally;
  RouterQueryResult r =
      run_batch(ten, std::move(pairs),
                deadline.value_or(options_.default_deadline), tally);
  finish(ten, r, tally);
  return r;
}

// --- observability ---------------------------------------------------------

TenantHealth ShardRouter::tenant_health(TenantId t) const {
  const Tenant& ten = tenant(t);
  std::lock_guard lock(ten.mu);
  return ten.health;
}

RouterHealth ShardRouter::health() const {
  RouterHealth out;
  out.tenants = tenants_.size();
  out.epochs = epoch_;
  for (const auto& tptr : tenants_) {
    const Tenant& ten = *tptr;
    std::lock_guard lock(ten.mu);
    const TenantHealth& h = ten.health;
    out.totals.submitted += h.submitted;
    out.totals.answered += h.answered;
    out.totals.degraded += h.degraded;
    out.totals.unknown += h.unknown;
    out.totals.shed += h.shed;
    out.totals.in_flight += h.in_flight;
    out.totals.retries += h.retries;
    out.totals.hedges += h.hedges;
    out.totals.quota_rejections += h.quota_rejections;
    out.totals.breaker_fastfails += h.breaker_fastfails;
    out.totals.breaker_trips += h.breaker_trips;
    out.totals.readmissions += h.readmissions;
    out.totals.pairs_answered += h.pairs_answered;
    out.totals.pairs_degraded += h.pairs_degraded;
    out.totals.pairs_unknown += h.pairs_unknown;
    out.totals.shards_retired += h.shards_retired;
    out.totals.divergent_replicas += h.divergent_replicas;
    out.totals.migrations_committed += h.migrations_committed;
    out.totals.migrations_rolled_back += h.migrations_rolled_back;
    out.totals.replicas_skipped_migration += h.replicas_skipped_migration;
    out.totals.total_ticks += h.total_ticks;
    out.faults.faults_drawn += ten.fault_stats.faults_drawn;
    out.faults.slow += ten.fault_stats.slow;
    out.faults.stalled += ten.fault_stats.stalled;
    out.faults.dead += ten.fault_stats.dead;
    out.faults.corrupted += ten.fault_stats.corrupted;
    out.faults.dead_attempts += ten.fault_stats.dead_attempts;
    out.faults.stalled_attempts += ten.fault_stats.stalled_attempts;
    out.faults.slowed_attempts += ten.fault_stats.slowed_attempts;
  }
  return out;
}

const MonitoringEntity& ShardRouter::shard_monitor(TenantId t,
                                                   ShardId s) const {
  const Tenant& ten = tenant(t);
  CT_CHECK_MSG(s < ten.shards.size(), "shard " << s << " out of range");
  return *ten.shards[s].monitor;
}

MonitoringEntity& ShardRouter::mutable_shard_monitor(TenantId t, ShardId s) {
  Tenant& ten = tenant(t);
  CT_CHECK_MSG(s < ten.shards.size(), "shard " << s << " out of range");
  return *ten.shards[s].monitor;
}

}  // namespace ct
