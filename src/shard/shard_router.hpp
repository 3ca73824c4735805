// Sharded multi-tenant serving: bulkhead isolation plus
// partial-failure-tolerant fan-out (docs/FAULT_MODEL.md §8).
//
// One monitoring deployment rarely serves one trace. The ROADMAP's target
// is a fleet: many tenants (independent traced systems), each monitored by
// a set of shard replicas, all sharing one process. The ShardRouter owns
// that fleet and adds the two properties a shared deployment needs:
//
//  * BULKHEADS — no tenant can hurt another. Each tenant gets its own
//    monitors, brokers, admission quota (a cap on concurrently executing
//    queries), circuit breaker (tripped only by that tenant's own repeated
//    unknowns), and WAL namespace (wal.hpp; recovery of one tenant never
//    reads a sibling's segments). The only shared resource is the serving
//    threads, and the quota bounds how many of them one tenant can hold
//    (bench/table_shard_isolation measures the effect).
//
//  * PARTIAL-FAILURE-TOLERANT FAN-OUT — a query is answered as long as ANY
//    responsible replica can answer it. Each shard of a tenant holds a full
//    replica of the delivered state (the ingest stream fans out to all of
//    them), but serving responsibility is partitioned per cluster: the
//    shard that OWNS a cluster serves queries about its processes first.
//    The router retries the owner with a backoff-scaled work-tick budget,
//    then hedges to sibling replicas; because siblings are replicas,
//    hedged answers are exact — just flagged kDegraded. Batch queries split
//    per owner shard with proportional budget slices and come back as
//    per-pair answered / degraded / unknown accounting — a degraded
//    PARTIAL answer instead of an all-or-nothing failure. This mirrors the
//    QueryBroker's fallback-chain semantics one level up: answers degrade
//    to slower-but-exact or explicit unknown, never to wrong.
//
// Replication-for-serving is deliberate: it is what makes hedging sound
// and what lets the sharded deployment answer bit-identically to a
// single-shard one (tests/shard_driver.cpp demands exactly that on every
// fault-free schedule). Partitioning the STORAGE across shards is the
// complementary axis and stays on the ROADMAP.
//
// Epochs: brokers freeze delivered state at construction, so the router
// serves in epochs — open_epoch() builds a broker per live shard (after a
// replica-coherence digest check; a divergent replica is quarantined for
// the epoch), draws this epoch's shard faults from the seeded plan, and
// computes cluster ownership; close_epoch() drains the brokers, repairs
// injected corruption, and re-enables ingest. Queries are thread-safe
// within an epoch; epoch transitions, ingest, and fault injection must be
// externally quiesced (same contract as the broker's serving epoch).
//
// Serving threads: a query runs on the thread that calls precedence() /
// frontier() / batch(). Every shard attempt, batch slice included, calls
// the shard broker's synchronous entry point, so a routed query hands no
// task to a pool and waits on no future (pool().submitted() stays flat;
// perf_smoke gates it). The pool exists for brokers' async submit_*() API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "durability/wal.hpp"
#include "model/event.hpp"
#include "model/ids.hpp"
#include "monitor/monitor.hpp"
#include "monitor/queries.hpp"
#include "monitor/query_broker.hpp"
#include "recluster/coordinator.hpp"
#include "shard/shard_fault.hpp"
#include "util/thread_pool.hpp"

namespace ct {

using TenantId = std::uint32_t;
using ShardId = std::uint32_t;

/// Per-tenant deployment shape and bulkhead limits.
struct TenantConfig {
  std::size_t process_count = 0;
  MonitorOptions monitor;
  /// Replicas in this tenant's shard set.
  std::size_t shards = 3;
  /// Broker configuration applied to every shard broker.
  BrokerOptions broker;
  /// Admission quota: queries of this tenant executing concurrently; one
  /// more is shed (outcome kShed). 0 = unbounded (no bulkhead).
  std::size_t max_in_flight = 0;
  /// Consecutive kUnknown query outcomes that trip the tenant breaker.
  std::size_t breaker_failure_threshold = 4;
  /// While the tenant breaker is open, every Nth submission probes the
  /// fan-out path; a probe that produces an answer closes the breaker.
  /// 0 = never probe (the breaker stays open until readmit_tenant()).
  std::size_t breaker_probe_stride = 16;
};

struct RouterOptions {
  /// Per-shard work-tick budget of one attempt when the submit call does
  /// not name one (0 = unlimited). Deadlines are work ticks, not wall
  /// clocks, so fan-out scheduling is deterministic.
  std::uint64_t default_deadline = 0;
  /// Re-issues to the owner shard after a failed first attempt.
  std::size_t retry_limit = 1;
  /// Budget multiplier per successive attempt (retry-with-backoff:
  /// slower but surer).
  std::uint64_t backoff_factor = 2;
  /// Sibling replicas tried after the owner's attempts are exhausted
  /// (hedged re-issue; a straggling owner costs its budget, then a
  /// sibling answers).
  std::size_t hedge_limit = 2;
  /// Threads of the pool behind the shard brokers' async submit_*() API
  /// (routed queries never use it).
  std::size_t pool_threads = 4;
  /// Seeded per-epoch shard faults (all-zero = fault-free).
  ShardFaultPlan faults;
};

/// Resolution grade of one routed query. Mirrors the broker's degradation
/// ladder one level up; answers are exact or absent, never wrong.
enum class RouterOutcome : std::uint8_t {
  kAnswered,  ///< exact, first attempt on the owner, primary backend
  kDegraded,  ///< exact (or partially answered) via retry, hedge, or a
              ///< shard's fallback backend — flagged so callers know
  kUnknown,   ///< no responsible replica could answer
  kShed,      ///< bounced by the tenant's admission quota
};

const char* to_string(RouterOutcome o);

struct RouterQueryResult {
  RouterOutcome outcome = RouterOutcome::kUnknown;
  /// Work ticks across every attempt, wasted ones included.
  std::uint64_t cost = 0;
  /// Shard attempts issued (1 = clean first try).
  std::uint32_t attempts = 0;
  /// Shard that produced the final answer (meaningful when answered).
  ShardId shard = 0;
  /// Most degraded backend the answering shard consulted.
  ServingBackend backend_used = ServingBackend::kNone;
  bool retried = false;  ///< owner was re-issued
  bool hedged = false;   ///< a sibling replica was consulted
  /// The tenant breaker was open and this query fast-failed (kUnknown
  /// without touching a shard).
  bool breaker_fastfail = false;

  /// Precedence: the answer.
  std::optional<bool> answer;
  /// Frontier queries.
  std::optional<CausalFrontiers> frontiers;
  /// Batch queries: per-pair answers (nullopt = unknown) and grades.
  std::vector<std::optional<bool>> batch;
  std::vector<RouterOutcome> batch_outcome;
};

/// Per-tenant accounting. Invariant (checked by tests):
///   submitted == answered + degraded + unknown + shed + in_flight
struct TenantHealth {
  std::uint64_t submitted = 0;
  std::uint64_t answered = 0;
  std::uint64_t degraded = 0;
  std::uint64_t unknown = 0;
  std::uint64_t shed = 0;
  std::uint64_t in_flight = 0;

  // Breakdown / informational (not part of the invariant).
  std::uint64_t retries = 0;            ///< owner re-issues
  std::uint64_t hedges = 0;             ///< sibling attempts
  std::uint64_t quota_rejections = 0;   ///< shed by the admission quota
  std::uint64_t breaker_fastfails = 0;  ///< unknowns from an open breaker
  std::uint64_t breaker_trips = 0;
  std::uint64_t readmissions = 0;
  std::uint64_t pairs_answered = 0;     ///< batch pairs, exact first-class
  std::uint64_t pairs_degraded = 0;     ///< batch pairs via retry/fallback
  std::uint64_t pairs_unknown = 0;
  std::uint64_t shards_retired = 0;     ///< replicas lost to ingest faults
  std::uint64_t divergent_replicas = 0; ///< quarantined by the digest check
  std::uint64_t migrations_committed = 0;   ///< migrate_tenant commits
  std::uint64_t migrations_rolled_back = 0; ///< migrate_tenant rollbacks
  /// Replicas that skipped a committed migration (retired or already
  /// quarantine-bound) and owe a reconcile_replica().
  std::uint64_t replicas_skipped_migration = 0;
  std::uint64_t total_ticks = 0;

  bool accounted() const {
    return submitted == answered + degraded + unknown + shed + in_flight;
  }
};

/// Fleet-wide aggregate.
struct RouterHealth {
  TenantHealth totals;
  ShardFaultStats faults;
  std::uint64_t tenants = 0;
  std::uint64_t epochs = 0;
};

class ShardRouter {
 public:
  explicit ShardRouter(RouterOptions options = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Registers a tenant; returns its id (dense, starting at 0). Must not
  /// be called while serving.
  TenantId add_tenant(const TenantConfig& config);
  std::size_t tenant_count() const { return tenants_.size(); }
  std::size_t shard_count(TenantId t) const;

  /// Fans one record out to every live replica of tenant `t` and returns
  /// the (replica-identical) ingest result. A replica that throws
  /// CheckFailure is retired — the fan-out absorbs the loss and the
  /// remaining replicas keep the tenant serving. Must not be called while
  /// serving (brokers freeze delivered state).
  IngestResult ingest(TenantId t, const Event& e);

  /// Installs a write-ahead log for tenant `t` over `storage`, namespaced
  /// as wal::tenant_namespace(t) — many tenants can share one
  /// StorageBackend and stay recoverable independently. Records the
  /// delivery stream of the tenant's durability leader (shard 0; replicas
  /// deliver identically). `options.ns` is overwritten with the tenant
  /// namespace.
  void attach_wal(TenantId t, StorageBackend& storage,
                  WalOptions options = {});
  /// Checkpoints tenant `t` (store/snapshot_store.hpp checkpoint(): a CTC1
  /// generation in the tenant namespace + WAL prune); requires attach_wal.
  void checkpoint_tenant(TenantId t);
  DurableLog* wal(TenantId t);

  // --- serving epochs ------------------------------------------------------

  /// Freezes delivered state and starts serving: digest-checks replica
  /// coherence (divergent replicas are quarantined for the epoch), draws
  /// this epoch's shard faults from options().faults, builds a broker per
  /// live shard, computes per-cluster ownership, and applies the §6
  /// kill-switch protocol to corrupt-drawn shards.
  void open_epoch();
  /// Drains every broker, repairs injected corruption (rebuild from the
  /// delivery log), clears epoch faults, and re-enables ingest.
  void close_epoch();
  bool serving() const { return serving_; }
  std::uint64_t epoch() const { return epoch_; }

  // --- queries (serving epoch only; thread-safe) ---------------------------

  RouterQueryResult precedence(TenantId t, EventId e, EventId f,
                               std::optional<std::uint64_t> deadline = {});
  RouterQueryResult frontier(TenantId t, EventId e,
                             std::optional<std::uint64_t> deadline = {});
  /// `deadline` is the whole-batch per-shard budget; each owner shard's
  /// slice is proportional to the pairs it owns.
  RouterQueryResult batch(TenantId t,
                          std::vector<std::pair<EventId, EventId>> pairs,
                          std::optional<std::uint64_t> deadline = {});

  // --- online re-clustering (rides the serving-epoch boundary) -------------

  /// One migrate_tenant call, summarized.
  struct TenantMigrationResult {
    MigrationOutcome outcome = MigrationOutcome::kNoPlan;
    std::uint64_t migration_epoch = 0;  ///< committed epoch (0 = none yet)
    std::size_t replicas_applied = 0;   ///< adopted the new partition
    std::size_t replicas_skipped = 0;   ///< retired / quarantine-bound
  };

  /// Runs one crash-safe re-clustering cycle for tenant `t` at the epoch
  /// boundary (same quiesce contract as ingest: no open serving epoch).
  /// The durability leader (shard 0) runs the full plan → prepare →
  /// commit/rollback protocol (recluster/coordinator.hpp) against the
  /// tenant's namespaced WAL when one is attached, so a crash recovers the
  /// tenant pre- or post-migration, never hybrid. On commit the partition
  /// fans out to every coherent live replica via apply_migration; a replica
  /// whose state digest already disagrees with the leader's (quarantine-
  /// bound) skips the migration — the next open_epoch digest check
  /// quarantines it (the partition folds into the replica digest) until
  /// reconcile_replica() re-aligns it. A kill-switched shard is repaired at
  /// close_epoch before this can run, so it migrates normally.
  /// The per-tenant coordinator (decay matrix, cooldown state) is created
  /// lazily from `config` on the first call and persists across calls.
  TenantMigrationResult migrate_tenant(
      TenantId t, const MigrationConfig& config = {},
      MigrationFault fault = MigrationFault::kNone);
  /// Re-aligns one replica that skipped a committed migration: adopts the
  /// leader's partition at the leader's epoch by replaying the replica's
  /// own delivery log. No-op when already aligned.
  void reconcile_replica(TenantId t, ShardId s);
  /// The leader's committed migration epoch for tenant `t`.
  std::uint64_t tenant_migration_epoch(TenantId t) const;

  // --- topology, faults, operations ----------------------------------------

  /// Owner shard of queries about process `p` this epoch (all processes of
  /// one cluster map to one shard).
  ShardId owner_shard(TenantId t, ProcessId p) const;
  ShardFault shard_fault(TenantId t, ShardId s) const;
  /// Injects a fault into one serving shard (tests / operations). Must be
  /// quiesced against concurrent queries. kCorruptCluster applies the
  /// kill-switch protocol immediately (corrupt one stored timestamp, trip
  /// that shard broker's cluster backend).
  void inject_shard_fault(TenantId t, ShardId s, ShardFault f);
  /// Manual tenant breaker control (operational kill switch / re-enable).
  void trip_tenant(TenantId t);
  void readmit_tenant(TenantId t);
  bool tenant_open(TenantId t) const;

  TenantHealth tenant_health(TenantId t) const;
  RouterHealth health() const;
  const RouterOptions& options() const { return options_; }
  const ThreadPool& pool() const { return pool_; }
  const MonitoringEntity& shard_monitor(TenantId t, ShardId s) const;
  /// Test hook (corruption injection before an epoch opens).
  MonitoringEntity& mutable_shard_monitor(TenantId t, ShardId s);

 private:
  struct Shard {
    std::unique_ptr<MonitoringEntity> monitor;
    std::unique_ptr<QueryBroker> broker;  ///< live only within an epoch
    ShardFault fault = ShardFault::kNone; ///< this epoch's fault
    bool corrupted = false;  ///< kCorruptCluster applied; repair on close
    bool divergent = false;  ///< quarantined by this epoch's digest check
    bool retired = false;    ///< permanently lost (ingest-path fault)
  };

  struct TenantBreaker {
    bool open = false;
    std::uint64_t consecutive_unknown = 0;
    std::uint64_t submissions_while_open = 0;
  };

  struct Tenant {
    TenantConfig config;
    std::vector<Shard> shards;
    std::vector<ShardId> owner_of_process;  ///< epoch ownership map
    std::vector<ShardId> eligible;          ///< owner rotation this epoch
    std::unique_ptr<DurableLog> wal;
    /// Lazily created by migrate_tenant; bound to the leader (shard 0).
    std::unique_ptr<MigrationCoordinator> migrator;
    mutable std::mutex mu;  ///< health, breaker, fault attempt counters
    TenantHealth health;
    TenantBreaker breaker;
    ShardFaultStats fault_stats;
  };

  /// Result of one attempt against one shard.
  struct ShardAttempt {
    bool refused = false;  ///< dead/retired/divergent: no work done
    QueryResult result;
    std::uint64_t cost = 0;  ///< ticks charged (slow shards charge more)
  };

  /// Per-query tally folded into TenantHealth under the tenant mutex.
  struct AttemptTally {
    std::uint64_t retries = 0, hedges = 0;
    std::uint64_t dead = 0, stalled = 0, slowed = 0;
  };

  enum class QueryKind : std::uint8_t { kPrecedence, kFrontier };

  Tenant& tenant(TenantId t);
  const Tenant& tenant(TenantId t) const;
  /// Admission: quota + breaker. Returns a terminal result (shed /
  /// breaker fast-fail) or nullopt = admitted (in_flight incremented).
  std::optional<RouterQueryResult> admit(Tenant& ten);
  /// Accounting epilogue: buckets the outcome, folds the tally, feeds the
  /// breaker.
  void finish(Tenant& ten, RouterQueryResult& r, const AttemptTally& tally);
  /// The attempt ladder: owner (+retries), then hedge siblings.
  std::vector<ShardId> attempt_ladder(const Tenant& ten, ShardId owner) const;
  RouterQueryResult run_single(Tenant& ten, QueryKind kind, EventId e,
                               EventId f, std::uint64_t base,
                               AttemptTally& tally);
  RouterQueryResult run_batch(Tenant& ten,
                              std::vector<std::pair<EventId, EventId>> pairs,
                              std::uint64_t base, AttemptTally& tally);
  ShardAttempt try_shard(Shard& sh, QueryKind kind, EventId e, EventId f,
                         std::uint64_t budget, AttemptTally& tally);
  ShardId owner_of(const Tenant& ten, ProcessId p) const;
  void build_ownership(Tenant& ten);
  void apply_corruption(TenantId t, Tenant& ten, ShardId s);

  RouterOptions options_;
  ThreadPool pool_;  ///< declared before tenants_: brokers drain into it
  std::vector<std::unique_ptr<Tenant>> tenants_;
  bool serving_ = false;
  std::uint64_t epoch_ = 0;
};

}  // namespace ct
