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
//  * a fallback chain with per-backend circuit breakers — answer cache,
//    then the links named by BrokerOptions::chain (default: cluster
//    backend → differential store → on-demand FM), then explicit unknown.
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
#include <utility>
#include <vector>

#include "model/ids.hpp"
#include "model/trace.hpp"
#include "monitor/integrity_auditor.hpp"
#include "monitor/monitor.hpp"
#include "monitor/queries.hpp"
#include "timestamp/causality_backend.hpp"
#include "timestamp/query_cost.hpp"
#include "util/synchronized_lru.hpp"
#include "util/thread_pool.hpp"

namespace ct {

// ServingBackend (who produced a query's answer) now lives with the
// backend registry in timestamp/causality_backend.hpp. A multi-test query
// reports the *most degraded* source it consulted — chain position, with
// the cache in front.

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
  std::uint64_t cache_hits = 0;       ///< precedence tests served from cache
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
  /// Precedence-answer cache entries; 0 disables the cache.
  std::size_t answer_cache_capacity = 4096;
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
  /// The fallback chain, walked front to back after the answer cache. Every
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

  /// Blocks until every admitted query (and trailing stride audit) has
  /// resolved. The queue may be refilled afterwards.
  void drain();

  /// Runs one integrity-audit step inline: sample, cross-check, and on a
  /// finding trip the cluster breaker, rebuild the corrupted clusters from
  /// the delivery log, and flush the answer cache. Returns true when the
  /// step found the state clean. Runs automatically every
  /// options().audit_stride resolved queries.
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
  const CausalityBackend& link(std::size_t i) const { return *chain_[i]; }

 private:
  enum class ChainStatus : std::uint8_t { kOk, kDeadline, kUnknown, kFailed };

  struct Job {
    enum class Kind : std::uint8_t { kPrecedence, kFrontier, kBatch } kind;
    EventId e, f;
    std::vector<std::pair<EventId, EventId>> pairs;
    std::uint64_t deadline = 0;
    std::promise<QueryResult> promise;
  };

  struct Breaker {
    bool open = false;
    std::uint64_t consecutive_failures = 0;
    std::uint64_t bypasses = 0;  ///< queries that skipped past while open
    std::uint64_t clean_streak = 0;
  };

  /// Chain position of a link id; CT_CHECKs membership.
  std::size_t slot(ServingBackend b) const;
  /// Degradation rank for "most degraded source consulted" reporting:
  /// kNone < kCache < chain position.
  ServingBackend worse(ServingBackend a, ServingBackend b) const;

  using PairKey = std::pair<std::uint64_t, std::uint64_t>;
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const noexcept {
      std::uint64_t h = k.first * 0x9e3779b97f4a7c15ULL;
      h ^= k.second + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };

  std::future<QueryResult> enqueue(std::unique_ptr<Job> job);
  void run_one();
  QueryResult execute(const Job& job);
  /// One precedence test through cache + fallback chain.
  ChainStatus chain_precedes(EventId e, EventId f, QueryCost& cost,
                             bool* answer, ServingBackend* used);
  static ChainStatus worse_of_failures(ChainStatus a, ChainStatus b);
  void note_failure(std::size_t slot);
  bool validate(const Job& job) const;

  MonitoringEntity& monitor_;
  ThreadPool& pool_;
  BrokerOptions options_;

  Trace trace_;  ///< delivered prefix, frozen at construction
  /// The fallback links, built from options_.chain via the BackendRegistry.
  /// The kCluster link reaches the monitor through a hook that pins the
  /// epoch domain; the rest own their state over trace_.
  std::vector<std::unique_ptr<CausalityBackend>> chain_;
  /// Chain position of kCluster, when present (audit readmission and the
  /// batch bulk fast path are cluster-specific).
  std::optional<std::size_t> cluster_slot_;
  std::unique_ptr<SynchronizedLruCache<PairKey, bool, PairKeyHash>>
      answer_cache_;
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
