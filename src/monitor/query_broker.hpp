// Resilient concurrent query serving over the monitoring entity.
//
// The ROADMAP's target is query traffic from many concurrent visualization
// clients, which the bare MonitoringEntity cannot absorb: one slow
// on-demand recomputation (§1.1's minutes-long elementary operations) or
// one corrupted cluster-timestamp structure stalls or poisons every caller.
// The QueryBroker closes that gap with four mechanisms, all deterministic
// (no wall clocks — docs/FAULT_MODEL.md §6):
//
//  * deadlines — every query carries a work-tick budget (QueryCost);
//    exhaustion resolves the query as kDeadlineExpired instead of blocking;
//  * admission control — a bounded queue with a configurable shedding
//    policy (reject-newest / reject-oldest) and a BrokerHealth accounting
//    in which every submitted query lands in exactly one bucket;
//  * a fallback chain with per-backend circuit breakers — the links named
//    by BrokerOptions::chain (default: cluster backend → differential
//    store → on-demand FM), then explicit unknown.
//    Links are built through the BackendRegistry (timestamp/
//    causality_backend.hpp; docs/BACKENDS.md), so new backends — tree
//    clocks being the first — plug in without broker surgery. A tripped or
//    corrupted backend degrades answers to slower-but-exact or unknown,
//    never wrong;
//  * an online integrity audit (integrity_auditor.hpp) run between
//    queries: sampled cross-checks and per-cluster digests detect state
//    corruption, trip the cluster breaker, trigger an incremental rebuild
//    from the delivery log, and re-admit the backend only after a
//    configurable number of clean audit steps. Repairs never block reads:
//    every query pins util::EpochDomain::global() and reads the engine's
//    published snapshot, which a repair replaces with one atomic swap
//    (core/engine.hpp).
//
// Serving threads: precedence() / frontier() / batch() run a query on the
// caller's thread (the shard router's path); submit_*() queue it for the
// pool. Both take the same admission decision, run the same execute()
// under one epoch pin and account identically. The breaker state is read
// once per query: while kCluster heads the chain with a closed breaker, a
// query skips the per-test chain walk — precedence goes straight to the
// monitor, a frontier through one PrecedenceCursor, a batch through the
// kernel batch entry — charging exactly the ticks the chain would.
//
// Serving epoch: the broker freezes the monitor's delivered state at
// construction (it reconstructs the delivered trace for its fallback
// backends). Ingesting into the monitor while a broker serves it is
// undefined; drain() / destroy the broker first, then re-ingest.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "model/ids.hpp"
#include "model/trace.hpp"
#include "monitor/integrity_auditor.hpp"
#include "monitor/monitor.hpp"
#include "monitor/queries.hpp"
#include "timestamp/causality_backend.hpp"
#include "timestamp/query_cost.hpp"
#include "util/thread_pool.hpp"

namespace ct {

// ServingBackend (who produced a query's answer) now lives with the
// backend registry in timestamp/causality_backend.hpp. A multi-test query
// reports the *most degraded* source it consulted — its chain position.

enum class QueryOutcome : std::uint8_t {
  kAnswered,         ///< exact answer produced
  kUnknown,          ///< every backend tripped/skipped — explicit unknown
  kDeadlineExpired,  ///< work-tick budget exhausted mid-query
  kShed,             ///< rejected by admission control
  kFailed,           ///< a backend fault (CheckFailure) with no fallback left
};

const char* to_string(QueryOutcome o);

/// What to drop when the admission queue is full.
enum class ShedPolicy : std::uint8_t {
  kRejectNewest,  ///< bounce the incoming query (caller sees kShed)
  kRejectOldest,  ///< bounce the queue head, admit the incoming query
};

/// Structured resolution of one query. Exactly one of the payload fields is
/// populated, matching the submit call (answer / frontiers / batch).
struct QueryResult {
  QueryOutcome outcome = QueryOutcome::kAnswered;
  ServingBackend backend_used = ServingBackend::kNone;
  /// Work ticks spent (including wasted work of an expired deadline).
  std::uint64_t cost = 0;

  /// Precedence queries: the answer.
  std::optional<bool> answer;
  /// Frontier queries: both causal frontiers of the queried event.
  std::optional<CausalFrontiers> frontiers;
  /// Batch queries: per-pair answers; nullopt for pairs not answered
  /// before the budget expired.
  std::vector<std::optional<bool>> batch;
};

/// Serving-path accounting. Invariant (checked by tests):
///   submitted == completed + deadline_expired + shed + failed + in_flight
struct BrokerHealth {
  std::uint64_t submitted = 0;        ///< queries handed to submit_*()
  std::uint64_t completed = 0;        ///< resolved kAnswered or kUnknown
  std::uint64_t deadline_expired = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t in_flight = 0;        ///< admitted, not yet resolved

  // Breakdown / informational (not part of the invariant).
  std::uint64_t answered = 0;         ///< completed with an exact answer
  std::uint64_t unknown = 0;          ///< completed as explicit unknown
  /// Retired with the answer cache (always 0); kept so existing readers
  /// of the health block still compile.
  std::uint64_t cache_hits = 0;
  std::uint64_t fallback_answers = 0; ///< queries answered past the primary
  std::uint64_t breaker_trips = 0;
  std::uint64_t readmissions = 0;
  std::uint64_t audit_steps = 0;
  std::uint64_t audit_mismatches = 0; ///< corrupted clusters detected
  std::uint64_t rebuilds = 0;
  std::uint64_t rebuild_ticks = 0;    ///< elements rewritten by repairs
  std::uint64_t total_ticks = 0;      ///< work ticks across resolved queries
  std::uint64_t max_queue_depth = 0;  ///< peak admission-queue occupancy

  bool accounted() const {
    return submitted ==
           completed + deadline_expired + shed + failed + in_flight;
  }
};

/// The pre-registry hard-coded chain: cluster → differential → on-demand
/// FM. (push_back instead of an initializer list: GCC 12's
/// -Wmaybe-uninitialized misfires on initializer_list NSDMIs once inlined.)
inline std::vector<ServingBackend> default_broker_chain() {
  std::vector<ServingBackend> chain;
  chain.reserve(3);
  chain.push_back(ServingBackend::kCluster);
  chain.push_back(ServingBackend::kDifferential);
  chain.push_back(ServingBackend::kOnDemandFm);
  return chain;
}

struct BrokerOptions {
  /// Cap on *queued* (admitted, not yet executing) queries; 0 = unbounded.
  std::size_t max_queue = 64;
  ShedPolicy shed_policy = ShedPolicy::kRejectNewest;
  /// Work-tick budget applied when a submit call does not name one;
  /// 0 = unlimited.
  std::uint64_t default_deadline = 0;
  /// Checkpoint interval of the differential fallback backend.
  std::size_t differential_interval = 16;
  /// LRU capacity of the on-demand FM fallback backend.
  std::size_t ondemand_cache_capacity = 256;
  /// Consecutive backend faults (CheckFailure) that trip its breaker.
  std::size_t breaker_failure_threshold = 3;
  /// While a non-audited backend's breaker is open, every Nth bypassing
  /// query probes it; a successful probe closes the breaker. 0 = never.
  std::size_t breaker_probe_stride = 32;
  /// Run one audit step after every N resolved queries; 0 = only when
  /// audit_step() is called explicitly.
  std::size_t audit_stride = 0;
  AuditOptions audit;
  /// The fallback chain, walked front to back. Every
  /// entry must name a registered CausalityBackend (no duplicates, no
  /// kNone/kCache). The default reproduces the pre-registry hard-coded
  /// chain exactly; see docs/BACKENDS.md for extending it.
  std::vector<ServingBackend> chain = default_broker_chain();
};

class QueryBroker {
 public:
  /// `monitor` and `pool` must outlive the broker; the pool must not be
  /// shut down before the broker is drained or destroyed.
  QueryBroker(MonitoringEntity& monitor, ThreadPool& pool,
              BrokerOptions options = {});

  /// Drains every admitted query (and any trailing audit) before
  /// returning.
  ~QueryBroker();

  QueryBroker(const QueryBroker&) = delete;
  QueryBroker& operator=(const QueryBroker&) = delete;

  /// Precedence of delivered events e, f. `deadline` in work ticks
  /// (nullopt = options().default_deadline, 0 = unlimited).
  std::future<QueryResult> submit_precedence(
      EventId e, EventId f, std::optional<std::uint64_t> deadline = {});

  /// Both causal frontiers of `e` (queries.hpp); one budget covers every
  /// internal precedence test.
  std::future<QueryResult> submit_frontier(
      EventId e, std::optional<std::uint64_t> deadline = {});

  /// Batch of precedence pairs under one shared budget; pairs past the
  /// expiry resolve as unanswered.
  std::future<QueryResult> submit_batch(
      std::vector<std::pair<EventId, EventId>> pairs,
      std::optional<std::uint64_t> deadline = {});

  /// Synchronous twins of submit_*(): the query runs on the calling thread
  /// (no pool task, no promise) after the same admission decision a queued
  /// job gets, and returns the result the future would have carried. A
  /// stride audit that falls due also runs on the calling thread.
  QueryResult precedence(EventId e, EventId f,
                         std::optional<std::uint64_t> deadline = {});
  QueryResult frontier(EventId e, std::optional<std::uint64_t> deadline = {});
  QueryResult batch(std::span<const std::pair<EventId, EventId>> pairs,
                    std::optional<std::uint64_t> deadline = {});

  /// Blocks until every admitted query (and trailing stride audit) has
  /// resolved. The queue may be refilled afterwards.
  void drain();

  /// Runs one integrity-audit step inline: sample, cross-check, and on a
  /// finding trip the cluster breaker and rebuild the corrupted clusters
  /// from the delivery log. Returns true when the step found the state
  /// clean. Runs automatically every options().audit_stride resolved
  /// queries.
  bool audit_step();

  /// Manual breaker control (operational kill switch / re-enable).
  void trip_backend(ServingBackend b);
  void readmit_backend(ServingBackend b);
  bool backend_open(ServingBackend b) const;

  BrokerHealth health() const;
  AuditStats audit_stats() const;
  const BrokerOptions& options() const { return options_; }
  /// The frozen delivered state this broker serves.
  const Trace& delivered() const { return trace_; }

  /// The constructed fallback chain (registry-built; options().chain order).
  std::size_t chain_length() const { return chain_.size(); }
  /// Link i, built on first use (a fallback link is materialized only
  /// when a query first reaches it).
  const CausalityBackend& link(std::size_t i) const { return built(i); }

 private:
  enum class ChainStatus : std::uint8_t { kOk, kDeadline, kUnknown, kFailed };

  struct Query {
    enum class Kind : std::uint8_t { kPrecedence, kFrontier, kBatch };
    Kind kind = Kind::kPrecedence;
    EventId e = kNoEvent, f = kNoEvent;
    std::span<const std::pair<EventId, EventId>> pairs;
    std::uint64_t deadline = 0;
    /// kCluster heads the chain with a closed breaker; read under mu_ once,
    /// right before execution.
    bool primary_healthy = false;
  };

  /// A queued query: owns its pairs and the promise its future reads.
  struct Job {
    explicit Job(Query q) : query(q) {}
    Query query;
    std::vector<std::pair<EventId, EventId>> pairs;
    std::promise<QueryResult> promise;
  };

  /// One chain link. kCluster (a hook into the monitor) is built with the
  /// broker, every other link on first use: a broker whose primary stays
  /// healthy never builds, or holds, its fallback state.
  struct Link {
    ServingBackend id = ServingBackend::kNone;
    mutable std::once_flag once;
    mutable std::unique_ptr<CausalityBackend> backend;
  };

  struct Breaker {
    bool open = false;
    std::uint64_t consecutive_failures = 0;
    std::uint64_t bypasses = 0;  ///< queries that skipped past while open
    std::uint64_t clean_streak = 0;
  };

  /// Link i, built on first use (thread-safe; a failed build throws and is
  /// retried by the next use).
  CausalityBackend& built(std::size_t i) const;
  /// Chain position of a link id; CT_CHECKs membership.
  std::size_t slot(ServingBackend b) const;
  /// Degradation rank for "most degraded source consulted" reporting:
  /// kNone < chain position.
  ServingBackend worse(ServingBackend a, ServingBackend b) const;

  Query make_query(Query::Kind kind, EventId e, EventId f,
                   std::optional<std::uint64_t> deadline) const;
  std::future<QueryResult> enqueue(std::unique_ptr<Job> job);
  /// Admission under mu_ for a query about to join the queue: counts the
  /// submission and applies the shedding policy. Returns the queued job a
  /// kRejectOldest shed bounced (the caller resolves it outside the lock).
  std::unique_ptr<Job> admit_locked(bool& admitted);
  bool primary_healthy_locked() const {
    return cluster_slot_ == std::size_t{0} && !breakers_[0].open;
  }
  void run_one();
  QueryResult run_inline(Query query);
  /// Sets `primary_served` when the primary fast path answered a test.
  QueryResult execute(const Query& query, bool& primary_served);
  /// Books a resolved query into health_ (and, when the primary served it,
  /// resets the primary's failure streak once); true = a stride audit is
  /// due.
  bool resolve(const QueryResult& result, bool primary_served);
  /// One precedence test through the fallback chain, from link `first` on.
  ChainStatus chain_precedes(EventId e, EventId f, QueryCost& cost,
                             bool* answer, ServingBackend* used,
                             std::size_t first = 0);
  /// One test on the healthy primary, straight into the monitor; a fault
  /// is noted against the primary and the test walks the rest of the chain.
  ChainStatus primary_precedes(EventId e, EventId f, QueryCost& cost,
                               bool* answer, ServingBackend* used,
                               bool& primary_served);
  static ChainStatus worse_of_failures(ChainStatus a, ChainStatus b);
  void note_failure(std::size_t slot);
  bool validate(const Query& query) const;

  MonitoringEntity& monitor_;
  ThreadPool& pool_;
  BrokerOptions options_;

  Trace trace_;  ///< delivered prefix, frozen at construction
  /// What the registry builds links from (kept for the lazy builds).
  BackendContext context_;
  /// The fallback links, built from options_.chain via the BackendRegistry.
  /// The kCluster link reaches the monitor through a hook that runs under
  /// the query's epoch pin; the rest own their state over trace_.
  std::vector<Link> chain_;
  /// Chain position of kCluster, when present (audit readmission and the
  /// primary fast paths are cluster-specific).
  std::optional<std::size_t> cluster_slot_;
  std::unique_ptr<IntegrityAuditor> auditor_;

  /// Serializes audit steps (the auditor is single-threaded).
  mutable std::mutex audit_mu_;

  mutable std::mutex mu_;  ///< queue, health, breakers
  std::condition_variable cv_drained_;
  std::deque<std::unique_ptr<Job>> queue_;
  std::size_t scheduled_ = 0;  ///< pool tasks submitted, not yet finished
  std::uint64_t resolved_since_audit_ = 0;
  BrokerHealth health_;
  std::vector<Breaker> breakers_;  ///< one per chain link, same order
};

}  // namespace ct
