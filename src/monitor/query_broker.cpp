#include "monitor/query_broker.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/epoch.hpp"

namespace ct {

namespace {

QueryResult shed_result() {
  QueryResult shed;
  shed.outcome = QueryOutcome::kShed;
  return shed;
}

}  // namespace

const char* to_string(QueryOutcome o) {
  switch (o) {
    case QueryOutcome::kAnswered:
      return "answered";
    case QueryOutcome::kUnknown:
      return "unknown";
    case QueryOutcome::kDeadlineExpired:
      return "deadline-expired";
    case QueryOutcome::kShed:
      return "shed";
    case QueryOutcome::kFailed:
      return "failed";
  }
  return "?";
}

CausalityBackend& QueryBroker::built(std::size_t i) const {
  const Link& link = chain_[i];
  std::call_once(link.once, [&] {
    auto backend = BackendRegistry::instance().make(link.id, context_);
    CT_CHECK_MSG(backend->capabilities().supports_frontier,
                 "chain link " << to_string(link.id)
                               << " cannot serve frontier queries");
    link.backend = std::move(backend);
  });
  return *link.backend;
}

std::size_t QueryBroker::slot(ServingBackend b) const {
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    if (chain_[i].id == b) return i;
  }
  CT_CHECK_MSG(false, "not a chain link of this broker: " << to_string(b));
  return 0;
}

ServingBackend QueryBroker::worse(ServingBackend a, ServingBackend b) const {
  const auto rank = [this](ServingBackend x) -> std::size_t {
    if (x == ServingBackend::kNone) return 0;
    for (std::size_t i = 0; i < chain_.size(); ++i) {
      if (chain_[i].id == x) return 1 + i;
    }
    return 1 + chain_.size();  // unreachable for answers this broker made
  };
  return rank(a) >= rank(b) ? a : b;
}

QueryBroker::QueryBroker(MonitoringEntity& monitor, ThreadPool& pool,
                         BrokerOptions options)
    : monitor_(monitor),
      pool_(pool),
      options_(std::move(options)),
      trace_(monitor.delivered_trace()),
      chain_(options_.chain.size()) {
  CT_CHECK_MSG(!options_.chain.empty(), "broker chain must not be empty");

  context_.trace = &trace_;
  context_.differential_interval = options_.differential_interval;
  context_.ondemand_cache_capacity = options_.ondemand_cache_capacity;
  // The kCluster link serves from the monitor under the query's epoch pin
  // (execute() holds it): audit repairs publish fresh engine snapshots and
  // retire the old ones to the epoch domain, so a reader never blocks on a
  // rebuild.
  context_.monitor_precedes = [this](EventId e, EventId f,
                                     QueryCost& cost) -> std::optional<bool> {
    return monitor_.precedes_metered(e, f, cost);
  };

  for (std::size_t i = 0; i < chain_.size(); ++i) {
    const ServingBackend b = options_.chain[i];
    for (std::size_t j = 0; j < i; ++j) {
      CT_CHECK_MSG(chain_[j].id != b,
                   "duplicate chain link: " << to_string(b));
    }
    CT_CHECK_MSG(BackendRegistry::instance().registered(b),
                 "chain link " << to_string(b) << " is not registered");
    chain_[i].id = b;
    if (b == ServingBackend::kCluster) {
      cluster_slot_ = i;
      (void)built(i);  // the primary: a hook, nothing to materialize
    }
  }
  breakers_.resize(chain_.size());
  auditor_ =
      std::make_unique<IntegrityAuditor>(monitor_, trace_, options_.audit);
}

QueryBroker::~QueryBroker() { drain(); }

std::future<QueryResult> QueryBroker::submit_precedence(
    EventId e, EventId f, std::optional<std::uint64_t> deadline) {
  return enqueue(std::make_unique<Job>(
      make_query(Query::Kind::kPrecedence, e, f, deadline)));
}

std::future<QueryResult> QueryBroker::submit_frontier(
    EventId e, std::optional<std::uint64_t> deadline) {
  return enqueue(std::make_unique<Job>(
      make_query(Query::Kind::kFrontier, e, kNoEvent, deadline)));
}

std::future<QueryResult> QueryBroker::submit_batch(
    std::vector<std::pair<EventId, EventId>> pairs,
    std::optional<std::uint64_t> deadline) {
  auto job = std::make_unique<Job>(
      make_query(Query::Kind::kBatch, kNoEvent, kNoEvent, deadline));
  job->pairs = std::move(pairs);
  job->query.pairs = job->pairs;
  return enqueue(std::move(job));
}

QueryResult QueryBroker::precedence(EventId e, EventId f,
                                    std::optional<std::uint64_t> deadline) {
  return run_inline(make_query(Query::Kind::kPrecedence, e, f, deadline));
}

QueryResult QueryBroker::frontier(EventId e,
                                  std::optional<std::uint64_t> deadline) {
  return run_inline(
      make_query(Query::Kind::kFrontier, e, kNoEvent, deadline));
}

QueryResult QueryBroker::batch(
    std::span<const std::pair<EventId, EventId>> pairs,
    std::optional<std::uint64_t> deadline) {
  Query query = make_query(Query::Kind::kBatch, kNoEvent, kNoEvent, deadline);
  query.pairs = pairs;
  return run_inline(query);
}

QueryBroker::Query QueryBroker::make_query(
    Query::Kind kind, EventId e, EventId f,
    std::optional<std::uint64_t> deadline) const {
  return {kind, e, f, {}, deadline.value_or(options_.default_deadline), false};
}

std::unique_ptr<QueryBroker::Job> QueryBroker::admit_locked(bool& admitted) {
  ++health_.submitted;
  admitted = true;
  if (options_.max_queue == 0 || queue_.size() < options_.max_queue) {
    ++health_.in_flight;
    return nullptr;
  }
  ++health_.shed;
  if (options_.shed_policy == ShedPolicy::kRejectNewest) {
    admitted = false;  // the incoming query is never admitted
    return nullptr;
  }
  // Bounce the head: it moves from in_flight to shed; the incoming query
  // takes its place (a queued one also takes its pending pool task).
  std::unique_ptr<Job> bounced = std::move(queue_.front());
  queue_.pop_front();
  return bounced;
}

std::future<QueryResult> QueryBroker::enqueue(std::unique_ptr<Job> job) {
  std::future<QueryResult> future = job->promise.get_future();
  std::unique_ptr<Job> bounced;  // resolved outside the lock
  bool admitted = false;
  bool schedule = false;
  {
    std::lock_guard lock(mu_);
    bounced = admit_locked(admitted);
    if (admitted) {
      queue_.push_back(std::move(job));
      // Every queued job has a pool task; a kRejectOldest newcomer
      // inherits the one its bounced head left behind.
      schedule = bounced == nullptr;
      if (schedule) ++scheduled_;
    }
    health_.max_queue_depth =
        std::max<std::uint64_t>(health_.max_queue_depth, queue_.size());
  }
  if (bounced) bounced->promise.set_value(shed_result());
  if (!admitted) job->promise.set_value(shed_result());
  if (schedule) pool_.submit([this] { run_one(); });
  return future;
}

QueryResult QueryBroker::run_inline(Query query) {
  std::unique_ptr<Job> bounced;
  bool admitted = false;
  {
    std::lock_guard lock(mu_);
    bounced = admit_locked(admitted);
    // An admitted caller joins the queue's tail and dequeues itself at
    // once: it peaks the depth like a queued job but never holds a slot.
    health_.max_queue_depth = std::max<std::uint64_t>(
        health_.max_queue_depth, queue_.size() + (admitted ? 1 : 0));
    query.primary_healthy = primary_healthy_locked();
  }
  if (bounced) bounced->promise.set_value(shed_result());
  if (!admitted) return shed_result();
  bool primary_served = false;
  QueryResult result = execute(query, primary_served);
  if (resolve(result, primary_served)) audit_step();
  return result;
}

void QueryBroker::run_one() {
  std::unique_ptr<Job> job;
  {
    std::lock_guard lock(mu_);
    if (!queue_.empty()) {
      job = std::move(queue_.front());
      queue_.pop_front();
      job->query.primary_healthy = primary_healthy_locked();
    }
  }
  if (job) {
    bool primary_served = false;
    QueryResult result = execute(job->query, primary_served);
    const bool audit_due = resolve(result, primary_served);
    job->promise.set_value(std::move(result));
    if (audit_due) audit_step();
  }
  std::lock_guard lock(mu_);
  --scheduled_;
  if (scheduled_ == 0) cv_drained_.notify_all();
}

bool QueryBroker::resolve(const QueryResult& result, bool primary_served) {
  std::lock_guard lock(mu_);
  // The chain resets a link's failure streak after every test it serves;
  // the primary fast paths fold that into one reset per query.
  if (primary_served) breakers_[0].consecutive_failures = 0;
  switch (result.outcome) {
    case QueryOutcome::kAnswered: {
      ++health_.completed;
      ++health_.answered;
      // "Past the primary": any chain link after position 0 answered.
      for (std::size_t i = 1; i < chain_.size(); ++i) {
        if (chain_[i].id == result.backend_used) {
          ++health_.fallback_answers;
          break;
        }
      }
      break;
    }
    case QueryOutcome::kUnknown:
      ++health_.completed;
      ++health_.unknown;
      break;
    case QueryOutcome::kDeadlineExpired:
      ++health_.deadline_expired;
      break;
    case QueryOutcome::kFailed:
      ++health_.failed;
      break;
    case QueryOutcome::kShed:
      CT_CHECK_MSG(false, "executed queries are never shed");
  }
  --health_.in_flight;
  health_.total_ticks += result.cost;
  if (options_.audit_stride > 0 &&
      ++resolved_since_audit_ >= options_.audit_stride) {
    resolved_since_audit_ = 0;
    return true;
  }
  return false;
}

bool QueryBroker::validate(const Query& query) const {
  const auto known = [&](EventId id) {
    return id.process < trace_.process_count() && id.index >= 1 &&
           id.index <= trace_.process_size(id.process);
  };
  switch (query.kind) {
    case Query::Kind::kPrecedence:
      return known(query.e) && known(query.f);
    case Query::Kind::kFrontier:
      return known(query.e);
    case Query::Kind::kBatch:
      return std::all_of(query.pairs.begin(), query.pairs.end(),
                         [&](const auto& p) {
                           return known(p.first) && known(p.second);
                         });
  }
  return false;
}

QueryResult QueryBroker::execute(const Query& query, bool& primary_served) {
  QueryResult result;
  QueryCost cost;
  cost.budget = query.deadline;

  // Queries naming undelivered events fail up front: they are caller
  // errors, not backend faults, and must not feed the breakers.
  if (!validate(query)) {
    result.outcome = QueryOutcome::kFailed;
    return result;
  }

  // One pin for the whole query: every engine snapshot a test reads stays
  // alive until the result is built, and no test pays a pin of its own.
  const util::EpochDomain::Guard pin = util::EpochDomain::global().pin();

  const auto finish_status = [&](ChainStatus status) {
    switch (status) {
      case ChainStatus::kOk:
        result.outcome = QueryOutcome::kAnswered;
        break;
      case ChainStatus::kDeadline:
        result.outcome = QueryOutcome::kDeadlineExpired;
        break;
      case ChainStatus::kUnknown:
        result.outcome = QueryOutcome::kUnknown;
        break;
      case ChainStatus::kFailed:
        result.outcome = QueryOutcome::kFailed;
        break;
    }
  };
  // One test: the healthy primary directly, else the chain walk.
  const auto test = [&](EventId e, EventId f, bool* answer,
                        ServingBackend* used) {
    return query.primary_healthy
               ? primary_precedes(e, f, cost, answer, used, primary_served)
               : chain_precedes(e, f, cost, answer, used);
  };

  switch (query.kind) {
    case Query::Kind::kPrecedence: {
      bool answer = false;
      ServingBackend used = ServingBackend::kNone;
      const ChainStatus status = test(query.e, query.f, &answer, &used);
      finish_status(status);
      if (status == ChainStatus::kOk) {
        result.answer = answer;
        result.backend_used = used;
      }
      break;
    }
    case Query::Kind::kFrontier: {
      // A healthy cluster primary serves every test through one cursor
      // anchored at e (nullopt on a precomputed-FM monitor).
      const auto cursor =
          [&]() -> std::optional<ClusterTimestampEngine::PrecedenceCursor> {
        if (!query.primary_healthy) return std::nullopt;
        return monitor_.cursor(query.e);
      }();
      ServingBackend worst = ServingBackend::kNone;
      ChainStatus failure = ChainStatus::kOk;
      const auto precedes = [&](EventId a, EventId b) {
        if (failure != ChainStatus::kOk) return false;  // unwinding
        if (cursor) {
          const std::optional<bool> got =
              a == query.e ? cursor->anchor_precedes(trace_.event(b), cost)
                           : cursor->precedes_anchor(trace_.event(a), cost);
          if (!got) {
            failure = ChainStatus::kDeadline;
            return false;
          }
          primary_served = true;
          worst = ServingBackend::kCluster;
          return *got;
        }
        bool answer = false;
        ServingBackend used = ServingBackend::kNone;
        const ChainStatus status = test(a, b, &answer, &used);
        if (status != ChainStatus::kOk) {
          failure = status;
          return false;
        }
        worst = worse(worst, used);
        return answer;
      };
      CausalFrontiers frontiers = compute_frontiers_with(
          trace_.process_count(), query.e, precedes, [&](ProcessId q) {
            return trace_.process_size(q);
          });
      finish_status(failure);
      if (failure == ChainStatus::kOk) {
        result.frontiers = std::move(frontiers);
        result.backend_used = worst;
      }
      break;
    }
    case Query::Kind::kBatch: {
      ServingBackend worst = ServingBackend::kNone;
      ChainStatus failure = ChainStatus::kOk;
      result.batch.assign(query.pairs.size(), std::nullopt);
      std::size_t start = 0;
      // Bulk fast path: a healthy primary answers the whole batch through
      // the monitor's kernel-backed batch entry — tick accounting and
      // answers are identical to the per-pair chain below, which on a
      // healthy primary is exactly "cluster backend per pair". Any
      // mid-batch backend failure falls back to the chain from the failing
      // pair on.
      if (query.primary_healthy) {
        std::size_t done = 0;
        bool bulk_failed = false;
        try {
          done = monitor_.precedes_batch_metered(query.pairs, cost,
                                                 result.batch.data());
        } catch (const CheckFailure&) {
          bulk_failed = true;
          while (done < query.pairs.size() &&
                 result.batch[done].has_value()) {
            ++done;  // the answered prefix stands; retry the rest
          }
        }
        if (done > 0) {
          primary_served = true;
          worst = worse(worst, ServingBackend::kCluster);
        }
        if (bulk_failed) {
          start = done;  // the failing pair re-runs through the full chain
        } else {
          if (done < query.pairs.size()) failure = ChainStatus::kDeadline;
          start = query.pairs.size();
        }
      }
      for (std::size_t i = start; i < query.pairs.size(); ++i) {
        bool answer = false;
        ServingBackend used = ServingBackend::kNone;
        const ChainStatus status = chain_precedes(
            query.pairs[i].first, query.pairs[i].second, cost, &answer, &used);
        if (status == ChainStatus::kDeadline) {
          failure = status;  // budget gone; later pairs cannot be served
          break;
        }
        if (status != ChainStatus::kOk) {
          failure = worse_of_failures(failure, status);
          continue;  // this pair is unknown/failed; try the rest
        }
        result.batch[i] = answer;
        worst = worse(worst, used);
      }
      finish_status(failure);
      result.backend_used = worst;
      break;
    }
  }
  result.cost = cost.ticks;
  return result;
}

QueryBroker::ChainStatus QueryBroker::worse_of_failures(ChainStatus a,
                                                        ChainStatus b) {
  if (a == ChainStatus::kFailed || b == ChainStatus::kFailed) {
    return ChainStatus::kFailed;
  }
  return a == ChainStatus::kOk ? b : a;
}

QueryBroker::ChainStatus QueryBroker::primary_precedes(EventId e, EventId f,
                                                       QueryCost& cost,
                                                       bool* answer,
                                                       ServingBackend* used,
                                                       bool& primary_served) {
  try {
    const std::optional<bool> result = monitor_.precedes_metered(e, f, cost);
    if (!result) return ChainStatus::kDeadline;
    primary_served = true;
    *answer = *result;
    *used = ServingBackend::kCluster;
    return ChainStatus::kOk;
  } catch (const CheckFailure&) {
    note_failure(0);
    // The primary already failed this test: a chain that answers nothing
    // past it reports a failure, not an unknown.
    const ChainStatus rest = chain_precedes(e, f, cost, answer, used, 1);
    return rest == ChainStatus::kUnknown ? ChainStatus::kFailed : rest;
  }
}

QueryBroker::ChainStatus QueryBroker::chain_precedes(EventId e, EventId f,
                                                     QueryCost& cost,
                                                     bool* answer,
                                                     ServingBackend* used,
                                                     std::size_t first) {
  bool any_failure = false;
  for (std::size_t i = first; i < chain_.size(); ++i) {
    const bool audited = cluster_slot_ == i;
    {
      std::lock_guard lock(mu_);
      Breaker& breaker = breakers_[i];
      if (breaker.open) {
        // Failure-tripped fallback backends accept a probe every Nth
        // bypass; the audited cluster backend is re-admitted only by
        // clean audit steps.
        const bool probe = !audited && options_.breaker_probe_stride > 0 &&
                           ++breaker.bypasses %
                                   options_.breaker_probe_stride ==
                               0;
        if (!probe) continue;
      }
    }
    try {
      // A link that cannot be built faults like one that throws.
      const std::optional<bool> result = built(i).precedes_metered(e, f, cost);
      if (!result) return ChainStatus::kDeadline;
      {
        std::lock_guard lock(mu_);
        Breaker& breaker = breakers_[i];
        breaker.consecutive_failures = 0;
        if (breaker.open && !audited) {
          breaker.open = false;  // successful probe re-admits
          ++health_.readmissions;
        }
      }
      *answer = *result;
      *used = chain_[i].id;
      return ChainStatus::kOk;
    } catch (const CheckFailure&) {
      any_failure = true;
      note_failure(i);
    }
  }
  return any_failure ? ChainStatus::kFailed : ChainStatus::kUnknown;
}

void QueryBroker::note_failure(std::size_t slot) {
  std::lock_guard lock(mu_);
  Breaker& breaker = breakers_[slot];
  if (breaker.open) return;
  if (++breaker.consecutive_failures >= options_.breaker_failure_threshold) {
    breaker.open = true;
    breaker.consecutive_failures = 0;
    breaker.bypasses = 0;
    ++health_.breaker_trips;
  }
}

bool QueryBroker::audit_step() {
  std::lock_guard audit_lock(audit_mu_);
  // Detection reads cluster state; repairs are excluded by audit_mu_ and
  // query readers only ever read, so no further lock is needed here.
  const AuditFinding finding = auditor_->step();
  {
    std::lock_guard lock(mu_);
    ++health_.audit_steps;
  }
  if (finding.clean()) {
    if (!cluster_slot_) return true;  // no cluster link to re-admit
    std::lock_guard lock(mu_);
    Breaker& breaker = breakers_[*cluster_slot_];
    if (breaker.open &&
        ++breaker.clean_streak >= options_.audit.clean_steps_to_readmit) {
      breaker.open = false;
      breaker.clean_streak = 0;
      ++health_.readmissions;
    }
    return true;
  }

  {
    std::lock_guard lock(mu_);
    health_.audit_mismatches += finding.corrupted.size();
    if (cluster_slot_) {
      Breaker& breaker = breakers_[*cluster_slot_];
      if (!breaker.open) {
        breaker.open = true;
        ++health_.breaker_trips;
      }
      breaker.clean_streak = 0;
    }
  }
  for (const ClusterId c : finding.corrupted) {
    // The engine rebuilds a writer-private snapshot and publishes it with
    // one atomic swap: in-flight readers keep the pre-repair snapshot and
    // are never blocked.
    const std::uint64_t ticks = monitor_.rebuild_cluster(c);
    auditor_->rebaseline(c);
    std::lock_guard lock(mu_);
    ++health_.rebuilds;
    health_.rebuild_ticks += ticks;
  }
  return false;
}

void QueryBroker::trip_backend(ServingBackend b) {
  const std::size_t i = slot(b);
  std::lock_guard lock(mu_);
  Breaker& breaker = breakers_[i];
  if (!breaker.open) {
    breaker.open = true;
    breaker.clean_streak = 0;
    breaker.bypasses = 0;
    ++health_.breaker_trips;
  }
}

void QueryBroker::readmit_backend(ServingBackend b) {
  const std::size_t i = slot(b);
  std::lock_guard lock(mu_);
  Breaker& breaker = breakers_[i];
  if (breaker.open) {
    breaker.open = false;
    breaker.consecutive_failures = 0;
    breaker.clean_streak = 0;
    ++health_.readmissions;
  }
}

bool QueryBroker::backend_open(ServingBackend b) const {
  const std::size_t i = slot(b);
  std::lock_guard lock(mu_);
  return breakers_[i].open;
}

void QueryBroker::drain() {
  std::unique_lock lock(mu_);
  cv_drained_.wait(lock, [this] { return scheduled_ == 0; });
}

BrokerHealth QueryBroker::health() const {
  std::lock_guard lock(mu_);
  return health_;
}

AuditStats QueryBroker::audit_stats() const {
  std::lock_guard audit_lock(audit_mu_);
  return auditor_->stats();
}

}  // namespace ct
