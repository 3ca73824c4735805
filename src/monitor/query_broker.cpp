#include "monitor/query_broker.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/epoch.hpp"

namespace ct {

namespace {

inline std::uint64_t pack(EventId id) {
  return (static_cast<std::uint64_t>(id.process) << 32) | id.index;
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

std::size_t QueryBroker::slot(ServingBackend b) const {
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    if (chain_[i]->id() == b) return i;
  }
  CT_CHECK_MSG(false, "not a chain link of this broker: " << to_string(b));
  return 0;
}

ServingBackend QueryBroker::worse(ServingBackend a, ServingBackend b) const {
  const auto rank = [this](ServingBackend x) -> std::size_t {
    if (x == ServingBackend::kNone) return 0;
    if (x == ServingBackend::kCache) return 1;
    for (std::size_t i = 0; i < chain_.size(); ++i) {
      if (chain_[i]->id() == x) return 2 + i;
    }
    return 2 + chain_.size();  // unreachable for answers this broker made
  };
  return rank(a) >= rank(b) ? a : b;
}

QueryBroker::QueryBroker(MonitoringEntity& monitor, ThreadPool& pool,
                         BrokerOptions options)
    : monitor_(monitor),
      pool_(pool),
      options_(std::move(options)),
      trace_(monitor.delivered_trace()) {
  CT_CHECK_MSG(!options_.chain.empty(), "broker chain must not be empty");

  BackendContext ctx;
  ctx.trace = &trace_;
  ctx.differential_interval = options_.differential_interval;
  ctx.ondemand_cache_capacity = options_.ondemand_cache_capacity;
  // The kCluster link serves from the monitor under an epoch pin: audit
  // repairs publish fresh engine snapshots and retire the old ones to the
  // epoch domain, so a reader never blocks on a rebuild.
  ctx.monitor_precedes = [this](EventId e, EventId f,
                                QueryCost& cost) -> std::optional<bool> {
    const util::EpochDomain::Guard pin = util::EpochDomain::global().pin();
    return monitor_.precedes_metered(e, f, cost);
  };

  const BackendRegistry& registry = BackendRegistry::instance();
  chain_.reserve(options_.chain.size());
  for (const ServingBackend b : options_.chain) {
    for (const auto& built : chain_) {
      CT_CHECK_MSG(built->id() != b,
                   "duplicate chain link: " << to_string(b));
    }
    chain_.push_back(registry.make(b, ctx));
    CT_CHECK_MSG(chain_.back()->capabilities().supports_frontier,
                 "chain link " << to_string(b)
                               << " cannot serve frontier queries");
    if (b == ServingBackend::kCluster) cluster_slot_ = chain_.size() - 1;
  }
  breakers_.resize(chain_.size());

  if (options_.answer_cache_capacity > 0) {
    answer_cache_ = std::make_unique<
        SynchronizedLruCache<PairKey, bool, PairKeyHash>>(
        options_.answer_cache_capacity);
  }
  auditor_ =
      std::make_unique<IntegrityAuditor>(monitor_, trace_, options_.audit);
}

QueryBroker::~QueryBroker() { drain(); }

std::future<QueryResult> QueryBroker::submit_precedence(
    EventId e, EventId f, std::optional<std::uint64_t> deadline) {
  auto job = std::make_unique<Job>();
  job->kind = Job::Kind::kPrecedence;
  job->e = e;
  job->f = f;
  job->deadline = deadline.value_or(options_.default_deadline);
  return enqueue(std::move(job));
}

std::future<QueryResult> QueryBroker::submit_frontier(
    EventId e, std::optional<std::uint64_t> deadline) {
  auto job = std::make_unique<Job>();
  job->kind = Job::Kind::kFrontier;
  job->e = e;
  job->deadline = deadline.value_or(options_.default_deadline);
  return enqueue(std::move(job));
}

std::future<QueryResult> QueryBroker::submit_batch(
    std::vector<std::pair<EventId, EventId>> pairs,
    std::optional<std::uint64_t> deadline) {
  auto job = std::make_unique<Job>();
  job->kind = Job::Kind::kBatch;
  job->pairs = std::move(pairs);
  job->deadline = deadline.value_or(options_.default_deadline);
  return enqueue(std::move(job));
}

std::future<QueryResult> QueryBroker::enqueue(std::unique_ptr<Job> job) {
  std::future<QueryResult> future = job->promise.get_future();
  std::unique_ptr<Job> bounced;  // resolved outside the lock
  bool schedule = false;
  {
    std::lock_guard lock(mu_);
    ++health_.submitted;
    if (options_.max_queue > 0 && queue_.size() >= options_.max_queue) {
      ++health_.shed;
      if (options_.shed_policy == ShedPolicy::kRejectNewest) {
        bounced = std::move(job);  // the incoming query is never admitted
      } else {
        // Bounce the head: it moves from in_flight to shed; the incoming
        // query takes its place (and, later, its already-submitted pool
        // task — queue size and pending tasks stay in lockstep).
        bounced = std::move(queue_.front());
        queue_.pop_front();
        --health_.in_flight;
        queue_.push_back(std::move(job));
        ++health_.in_flight;
      }
    } else {
      queue_.push_back(std::move(job));
      ++health_.in_flight;
      ++scheduled_;
      schedule = true;
    }
    health_.max_queue_depth =
        std::max<std::uint64_t>(health_.max_queue_depth, queue_.size());
  }
  if (bounced) {
    QueryResult shed;
    shed.outcome = QueryOutcome::kShed;
    bounced->promise.set_value(std::move(shed));
  }
  if (schedule) pool_.submit([this] { run_one(); });
  return future;
}

void QueryBroker::run_one() {
  std::unique_ptr<Job> job;
  {
    std::lock_guard lock(mu_);
    if (!queue_.empty()) {
      job = std::move(queue_.front());
      queue_.pop_front();
    }
  }
  bool audit_due = false;
  if (job) {
    QueryResult result = execute(*job);
    {
      std::lock_guard lock(mu_);
      switch (result.outcome) {
        case QueryOutcome::kAnswered: {
          ++health_.completed;
          ++health_.answered;
          // "Past the primary": any chain link after position 0 answered.
          for (std::size_t i = 1; i < chain_.size(); ++i) {
            if (chain_[i]->id() == result.backend_used) {
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
        audit_due = true;
      }
    }
    job->promise.set_value(std::move(result));
  }
  if (audit_due) audit_step();
  {
    std::lock_guard lock(mu_);
    --scheduled_;
    if (scheduled_ == 0) cv_drained_.notify_all();
  }
}

bool QueryBroker::validate(const Job& job) const {
  const auto known = [&](EventId id) {
    return id.process < trace_.process_count() && id.index >= 1 &&
           id.index <= trace_.process_size(id.process);
  };
  switch (job.kind) {
    case Job::Kind::kPrecedence:
      return known(job.e) && known(job.f);
    case Job::Kind::kFrontier:
      return known(job.e);
    case Job::Kind::kBatch:
      return std::all_of(job.pairs.begin(), job.pairs.end(),
                         [&](const auto& p) {
                           return known(p.first) && known(p.second);
                         });
  }
  return false;
}

QueryResult QueryBroker::execute(const Job& job) {
  QueryResult result;
  QueryCost cost;
  cost.budget = job.deadline;

  // Queries naming undelivered events fail up front: they are caller
  // errors, not backend faults, and must not feed the breakers.
  if (!validate(job)) {
    result.outcome = QueryOutcome::kFailed;
    return result;
  }

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

  switch (job.kind) {
    case Job::Kind::kPrecedence: {
      bool answer = false;
      ServingBackend used = ServingBackend::kNone;
      const ChainStatus status =
          chain_precedes(job.e, job.f, cost, &answer, &used);
      finish_status(status);
      if (status == ChainStatus::kOk) {
        result.answer = answer;
        result.backend_used = used;
      }
      break;
    }
    case Job::Kind::kFrontier: {
      ServingBackend worst = ServingBackend::kNone;
      ChainStatus failure = ChainStatus::kOk;
      const auto precedes = [&](EventId a, EventId b) {
        if (failure != ChainStatus::kOk) return false;  // unwinding
        bool answer = false;
        ServingBackend used = ServingBackend::kNone;
        const ChainStatus status = chain_precedes(a, b, cost, &answer, &used);
        if (status != ChainStatus::kOk) {
          failure = status;
          return false;
        }
        worst = worse(worst, used);
        return answer;
      };
      CausalFrontiers frontiers = compute_frontiers_with(
          trace_.process_count(), job.e, precedes, [&](ProcessId q) {
            return trace_.process_size(q);
          });
      finish_status(failure);
      if (failure == ChainStatus::kOk) {
        result.frontiers = std::move(frontiers);
        result.backend_used = worst;
      }
      break;
    }
    case Job::Kind::kBatch: {
      ServingBackend worst = ServingBackend::kNone;
      ChainStatus failure = ChainStatus::kOk;
      result.batch.assign(job.pairs.size(), std::nullopt);
      std::size_t start = 0;
      // Bulk fast path: with no answer cache and a healthy cluster link at
      // the FRONT of the chain, the whole batch runs through the monitor's
      // kernel-backed batch entry under ONE reader lock — tick accounting
      // and answers are identical to the per-pair chain below (which, with
      // the cache off, is exactly "cluster backend per pair"). Any
      // mid-batch backend failure falls back to the chain from the failing
      // pair on.
      if (!answer_cache_ && cluster_slot_ == std::size_t{0} &&
          !backend_open(ServingBackend::kCluster)) {
        std::size_t done = 0;
        bool bulk_failed = false;
        {
          // Pin the epoch once for the whole batch (zero locks).
          const util::EpochDomain::Guard pin =
              util::EpochDomain::global().pin();
          try {
            done = monitor_.precedes_batch_metered(job.pairs, cost,
                                                   result.batch.data());
          } catch (const CheckFailure&) {
            bulk_failed = true;
            while (done < job.pairs.size() &&
                   result.batch[done].has_value()) {
              ++done;  // the answered prefix stands; retry the rest
            }
          }
        }
        if (done > 0) {
          // The chain resets the failure streak after every served pair.
          std::lock_guard lock(mu_);
          breakers_[*cluster_slot_].consecutive_failures = 0;
          worst = worse(worst, ServingBackend::kCluster);
        }
        if (bulk_failed) {
          start = done;  // the failing pair re-runs through the full chain
        } else {
          if (done < job.pairs.size()) failure = ChainStatus::kDeadline;
          start = job.pairs.size();
        }
      }
      for (std::size_t i = start; i < job.pairs.size(); ++i) {
        bool answer = false;
        ServingBackend used = ServingBackend::kNone;
        const ChainStatus status = chain_precedes(
            job.pairs[i].first, job.pairs[i].second, cost, &answer, &used);
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

QueryBroker::ChainStatus QueryBroker::chain_precedes(EventId e, EventId f,
                                                     QueryCost& cost,
                                                     bool* answer,
                                                     ServingBackend* used) {
  if (answer_cache_) {
    if (!cost.charge(1)) return ChainStatus::kDeadline;
    if (const auto hit = answer_cache_->get({pack(e), pack(f)})) {
      {
        std::lock_guard lock(mu_);
        ++health_.cache_hits;
      }
      *answer = *hit;
      *used = ServingBackend::kCache;
      return ChainStatus::kOk;
    }
  }

  bool any_failure = false;
  for (std::size_t i = 0; i < chain_.size(); ++i) {
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
      const std::optional<bool> result =
          chain_[i]->precedes_metered(e, f, cost);
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
      if (answer_cache_) answer_cache_->put({pack(e), pack(f)}, *result);
      *answer = *result;
      *used = chain_[i]->id();
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
  // Answers cached before the trip may be poisoned; drop them all.
  if (answer_cache_) answer_cache_->clear();
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
