// Tests for the sharded multi-tenant router: replica fan-out, per-cluster
// ownership, retry/backoff + hedged re-issue, tenant bulkheads (quota +
// breaker), shard-level fault injection, and the sharded-vs-single-shard
// answer-identity check (docs/FAULT_MODEL.md §8).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "durability/storage.hpp"
#include "model/oracle.hpp"
#include "shard/shard_check.hpp"
#include "shard/shard_fault.hpp"
#include "shard/shard_router.hpp"
#include "simcheck/generator.hpp"
#include "store/recovery_ladder.hpp"
#include "trace/generators.hpp"
#include "util/prng.hpp"

namespace ct {
namespace {

Trace small_trace() {
  return generate_rpc_business({.groups = 2,
                                .clients_per_group = 2,
                                .servers_per_group = 2,
                                .calls = 40,
                                .seed = 51});
}

TenantConfig small_tenant(const Trace& t, std::size_t shards = 3) {
  TenantConfig tc;
  tc.process_count = t.process_count();
  tc.monitor.backend = TimestampBackend::kClusterDynamic;
  tc.monitor.cluster.max_cluster_size = 4;
  tc.monitor.cluster.fm_vector_width = t.process_count();
  tc.shards = shards;
  return tc;
}

void feed(ShardRouter& router, TenantId t, const Trace& trace) {
  for (const EventId id : trace.delivery_order()) {
    router.ingest(t, trace.event(id));
  }
}

std::vector<EventId> all_events(const Trace& t) {
  return {t.delivery_order().begin(), t.delivery_order().end()};
}

TEST(ShardRouter, AnswersMatchOracleAndOwnershipIsPerCluster) {
  const Trace t = small_trace();
  ShardRouter router;
  const TenantId ten = router.add_tenant(small_tenant(t));
  feed(router, ten, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  router.open_epoch();
  // Per-cluster ownership: two processes of the same cluster share an
  // owner shard.
  const MonitoringEntity& m = router.shard_monitor(ten, 0);
  for (ProcessId p = 0; p < t.process_count(); ++p) {
    for (ProcessId q = 0; q < t.process_count(); ++q) {
      if (m.cluster_of(p) == m.cluster_of(q)) {
        EXPECT_EQ(router.owner_shard(ten, p), router.owner_shard(ten, q));
      }
    }
  }

  Prng rng(7);
  for (int i = 0; i < 150; ++i) {
    const EventId e = rng.pick(events);
    const EventId f = rng.pick(events);
    const RouterQueryResult r = router.precedence(ten, e, f);
    ASSERT_EQ(r.outcome, RouterOutcome::kAnswered);
    ASSERT_TRUE(r.answer.has_value());
    EXPECT_EQ(*r.answer, oracle.happened_before(e, f));
    EXPECT_EQ(r.shard, router.owner_shard(ten, f.process));
    EXPECT_FALSE(r.retried);
    EXPECT_FALSE(r.hedged);
  }
  // Routed queries run on the caller's thread: no pool task per query.
  EXPECT_EQ(router.pool().submitted(), 0u);
  router.close_epoch();

  const TenantHealth h = router.tenant_health(ten);
  EXPECT_TRUE(h.accounted());
  EXPECT_EQ(h.answered, 150u);
  EXPECT_EQ(h.degraded + h.unknown + h.shed, 0u);
}

TEST(ShardRouter, DeadOwnerIsHedgedToSiblingExactly) {
  const Trace t = small_trace();
  ShardRouter router;
  const TenantId ten = router.add_tenant(small_tenant(t));
  feed(router, ten, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  router.open_epoch();
  const EventId f = events.back();
  const ShardId owner = router.owner_shard(ten, f.process);
  router.inject_shard_fault(ten, owner, ShardFault::kDead);

  Prng rng(11);
  int hedged = 0;
  for (int i = 0; i < 60; ++i) {
    const EventId e = rng.pick(events);
    const RouterQueryResult r = router.precedence(ten, e, f);
    // The owner refuses instantly; a sibling replica answers — exact, but
    // flagged degraded.
    ASSERT_TRUE(r.answer.has_value());
    EXPECT_EQ(*r.answer, oracle.happened_before(e, f));
    EXPECT_EQ(r.outcome, RouterOutcome::kDegraded);
    EXPECT_NE(r.shard, owner);
    hedged += r.hedged ? 1 : 0;
  }
  EXPECT_EQ(hedged, 60);
  router.close_epoch();

  const TenantHealth h = router.tenant_health(ten);
  EXPECT_TRUE(h.accounted());
  EXPECT_EQ(h.degraded, 60u);
  EXPECT_GT(h.hedges, 0u);
  const RouterHealth rh = router.health();
  EXPECT_GT(rh.faults.dead_attempts, 0u);
}

TEST(ShardRouter, StalledOwnerBurnsBudgetThenSiblingAnswers) {
  const Trace t = small_trace();
  ShardRouter router;
  const TenantId ten = router.add_tenant(small_tenant(t));
  feed(router, ten, t);
  const auto events = all_events(t);

  router.open_epoch();
  const EventId f = events.back();
  const ShardId owner = router.owner_shard(ten, f.process);
  router.inject_shard_fault(ten, owner, ShardFault::kStalled);

  const std::uint64_t budget = 50'000;
  const RouterQueryResult r =
      router.precedence(ten, events.front(), f, budget);
  // The stalled owner consumed its whole budget (and the backoff-scaled
  // retry budget) producing nothing before a sibling answered.
  ASSERT_TRUE(r.answer.has_value());
  EXPECT_EQ(r.outcome, RouterOutcome::kDegraded);
  EXPECT_TRUE(r.hedged);
  EXPECT_GE(r.cost, budget * (1 + router.options().backoff_factor));
  router.close_epoch();
  EXPECT_GT(router.health().faults.stalled_attempts, 0u);
}

TEST(ShardRouter, SlowShardStillAnswersExactlyAtInflatedCost) {
  const Trace t = small_trace();
  ShardRouter router;
  const TenantId ten = router.add_tenant(small_tenant(t));
  feed(router, ten, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  router.open_epoch();
  const EventId e = events.front(), f = events.back();
  const RouterQueryResult clean = router.precedence(ten, e, f);
  ASSERT_EQ(clean.outcome, RouterOutcome::kAnswered);

  const ShardId owner = router.owner_shard(ten, f.process);
  router.inject_shard_fault(ten, owner, ShardFault::kSlow);
  const RouterQueryResult slow = router.precedence(ten, e, f);
  ASSERT_TRUE(slow.answer.has_value());
  EXPECT_EQ(*slow.answer, oracle.happened_before(e, f));
  // Unlimited budget: the slow owner still answers on the first attempt
  // (not degraded), but every tick costs slow_factor real ticks.
  EXPECT_EQ(slow.outcome, RouterOutcome::kAnswered);
  EXPECT_GE(slow.cost, clean.cost);
  router.close_epoch();
  EXPECT_GT(router.health().faults.slowed_attempts, 0u);
}

TEST(ShardRouter, CorruptClusterShardServesExactViaFallbacksFlaggedDegraded) {
  const Trace t = small_trace();
  ShardRouter router;
  const TenantId ten = router.add_tenant(small_tenant(t));
  feed(router, ten, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  router.open_epoch();
  const EventId f = events.back();
  const ShardId owner = router.owner_shard(ten, f.process);
  router.inject_shard_fault(ten, owner, ShardFault::kCorruptCluster);

  Prng rng(13);
  for (int i = 0; i < 60; ++i) {
    const EventId e = rng.pick(events);
    const RouterQueryResult r = router.precedence(ten, e, f);
    // The kill-switch protocol: the corrupt shard's cluster backend is
    // tripped, its fallback chain serves — exact answers, flagged
    // degraded, never wrong.
    ASSERT_TRUE(r.answer.has_value());
    EXPECT_EQ(*r.answer, oracle.happened_before(e, f));
    EXPECT_EQ(r.outcome, RouterOutcome::kDegraded);
    EXPECT_EQ(r.shard, owner);
  }
  router.close_epoch();

  // close_epoch repaired the corruption from the delivery log: the next
  // epoch's coherence check finds nothing to quarantine and the shard is
  // exact-primary again.
  router.open_epoch();
  const RouterQueryResult clean = router.precedence(ten, events.front(), f);
  EXPECT_EQ(clean.outcome, RouterOutcome::kAnswered);
  router.close_epoch();
  EXPECT_EQ(router.tenant_health(ten).divergent_replicas, 0u);
}

TEST(ShardRouter, ExternallyDivergedReplicaIsQuarantinedByDigestCheck) {
  const Trace t = small_trace();
  ShardRouter router;
  const TenantId ten = router.add_tenant(small_tenant(t));
  feed(router, ten, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  // Corrupt shard 1's replica OUTSIDE any epoch protocol — the coherence
  // check at open_epoch must spot the digest mismatch and bench it.
  router.mutable_shard_monitor(ten, 1).inject_timestamp_corruption(
      events.back(), 0, 0x7777);
  router.open_epoch();
  EXPECT_EQ(router.tenant_health(ten).divergent_replicas, 1u);
  Prng rng(17);
  for (int i = 0; i < 40; ++i) {
    const EventId e = rng.pick(events);
    const EventId f = rng.pick(events);
    const RouterQueryResult r = router.precedence(ten, e, f);
    ASSERT_TRUE(r.answer.has_value());
    EXPECT_EQ(*r.answer, oracle.happened_before(e, f));
    EXPECT_NE(r.shard, 1u);  // the quarantined replica never serves
  }
  router.close_epoch();
  EXPECT_TRUE(router.tenant_health(ten).accounted());
}

TEST(ShardRouter, TenantBreakerTripsOnOwnUnknownsOnlyAndProbesClosed) {
  const Trace t = small_trace();
  ShardRouter router;
  TenantConfig tc = small_tenant(t);
  tc.breaker_failure_threshold = 3;
  tc.breaker_probe_stride = 4;
  const TenantId sick = router.add_tenant(tc);
  const TenantId healthy = router.add_tenant(tc);
  feed(router, sick, t);
  feed(router, healthy, t);
  const auto events = all_events(t);

  router.open_epoch();
  // Kill every replica of the sick tenant: its queries go unknown.
  for (ShardId s = 0; s < 3; ++s) {
    router.inject_shard_fault(sick, s, ShardFault::kDead);
  }
  const EventId e = events.front(), f = events.back();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(router.precedence(sick, e, f).outcome, RouterOutcome::kUnknown);
  }
  EXPECT_FALSE(router.tenant_open(sick));
  EXPECT_EQ(router.tenant_health(sick).breaker_trips, 1u);

  // Open breaker: fast-fail without touching a shard; every 4th submission
  // probes (and stays unknown — the shards are still dead).
  for (int i = 0; i < 8; ++i) {
    const RouterQueryResult r = router.precedence(sick, e, f);
    EXPECT_EQ(r.outcome, RouterOutcome::kUnknown);
  }
  EXPECT_GT(router.tenant_health(sick).breaker_fastfails, 0u);
  EXPECT_FALSE(router.tenant_open(sick));

  // The sibling tenant never notices: its breaker is fed by its own
  // outcomes only (the bulkhead).
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(router.precedence(healthy, e, f).outcome,
              RouterOutcome::kAnswered);
  }
  EXPECT_TRUE(router.tenant_open(healthy));
  router.close_epoch();

  // Next epoch the shards are clean again; the first probe submission
  // closes the breaker.
  router.open_epoch();
  RouterOutcome last = RouterOutcome::kUnknown;
  for (int i = 0; i < 4; ++i) {
    last = router.precedence(sick, e, f).outcome;
  }
  EXPECT_EQ(last, RouterOutcome::kAnswered);
  EXPECT_TRUE(router.tenant_open(sick));
  EXPECT_GE(router.tenant_health(sick).readmissions, 1u);
  router.close_epoch();
  EXPECT_TRUE(router.tenant_health(sick).accounted());
  EXPECT_TRUE(router.tenant_health(healthy).accounted());
}

TEST(ShardRouter, AdmissionQuotaShedsConcurrentOverload) {
  const Trace t = small_trace();
  ShardRouter router;
  TenantConfig tc = small_tenant(t);
  tc.max_in_flight = 1;
  const TenantId ten = router.add_tenant(tc);
  feed(router, ten, t);
  const auto events = all_events(t);

  router.open_epoch();
  // 8 racing callers against a 1-permit quota: overload must shed, never
  // queue unboundedly, and the accounting must absorb every submission.
  std::vector<std::thread> callers;
  for (int c = 0; c < 8; ++c) {
    callers.emplace_back([&, c] {
      Prng rng(static_cast<std::uint64_t>(c) + 1);
      for (int i = 0; i < 200; ++i) {
        const EventId e = rng.pick(events);
        const EventId f = rng.pick(events);
        const RouterQueryResult r = router.precedence(ten, e, f);
        ASSERT_TRUE(r.outcome == RouterOutcome::kAnswered ||
                    r.outcome == RouterOutcome::kShed);
      }
    });
  }
  for (auto& th : callers) th.join();
  router.close_epoch();

  const TenantHealth h = router.tenant_health(ten);
  EXPECT_TRUE(h.accounted());
  EXPECT_EQ(h.submitted, 1600u);
  EXPECT_EQ(h.in_flight, 0u);
  EXPECT_EQ(h.shed, h.quota_rejections);
  EXPECT_GT(h.quota_rejections, 0u);  // 8 threads vs 1 permit must collide
}

TEST(ShardRouter, BatchDegradesPerPairNeverSilentlyWrong) {
  const Trace t = small_trace();
  ShardRouter router;
  const TenantId ten = router.add_tenant(small_tenant(t));
  feed(router, ten, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  router.open_epoch();
  const ShardId dead = router.owner_shard(ten, events.back().process);
  router.inject_shard_fault(ten, dead, ShardFault::kDead);

  Prng rng(23);
  std::vector<std::pair<EventId, EventId>> pairs;
  for (int i = 0; i < 64; ++i) {
    pairs.emplace_back(rng.pick(events), rng.pick(events));
  }
  const RouterQueryResult r = router.batch(ten, pairs);
  ASSERT_EQ(r.batch.size(), pairs.size());
  ASSERT_EQ(r.batch_outcome.size(), pairs.size());
  bool any_degraded = false;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    // Every pair is answered (siblings are full replicas) and every
    // answer is exact; pairs owned by the dead shard come back flagged.
    ASSERT_TRUE(r.batch[i].has_value()) << "pair " << i;
    EXPECT_EQ(*r.batch[i],
              oracle.happened_before(pairs[i].first, pairs[i].second));
    const ShardId owner = router.owner_shard(ten, pairs[i].second.process);
    if (owner == dead) {
      EXPECT_EQ(r.batch_outcome[i], RouterOutcome::kDegraded);
      any_degraded = true;
    } else {
      EXPECT_EQ(r.batch_outcome[i], RouterOutcome::kAnswered);
    }
  }
  EXPECT_TRUE(any_degraded);
  EXPECT_EQ(r.outcome, RouterOutcome::kDegraded);
  router.close_epoch();

  const TenantHealth h = router.tenant_health(ten);
  EXPECT_TRUE(h.accounted());
  EXPECT_EQ(h.pairs_answered + h.pairs_degraded + h.pairs_unknown, 64u);
  EXPECT_EQ(h.pairs_unknown, 0u);
}

TEST(ShardRouter, FrontiersMatchAcrossDeployments) {
  const Trace t = small_trace();
  ShardRouter sharded;
  const TenantId ten = sharded.add_tenant(small_tenant(t));
  feed(sharded, ten, t);
  ShardRouter single;
  const TenantId solo = single.add_tenant(small_tenant(t, 1));
  feed(single, solo, t);
  const auto events = all_events(t);

  sharded.open_epoch();
  single.open_epoch();
  Prng rng(29);
  for (int i = 0; i < 12; ++i) {
    const EventId e = rng.pick(events);
    const RouterQueryResult a = sharded.frontier(ten, e);
    const RouterQueryResult b = single.frontier(solo, e);
    ASSERT_TRUE(a.frontiers.has_value());
    ASSERT_TRUE(b.frontiers.has_value());
    EXPECT_EQ(a.frontiers->greatest_predecessor,
              b.frontiers->greatest_predecessor);
    EXPECT_EQ(a.frontiers->greatest_concurrent,
              b.frontiers->greatest_concurrent);
  }
  sharded.close_epoch();
  single.close_epoch();
}

TEST(ShardRouter, PerTenantWalNamespacesRecoverIndependently) {
  const Trace t = small_trace();
  SimulatedStorage storage;
  {
    ShardRouter router;
    const TenantId a = router.add_tenant(small_tenant(t, 2));
    const TenantId b = router.add_tenant(small_tenant(t, 2));
    router.attach_wal(a, storage);
    router.attach_wal(b, storage);
    feed(router, a, t);
    feed(router, b, t);
    router.checkpoint_tenant(a);
    router.wal(b)->sync();
  }
  // Both tenants share one StorageBackend; each recovers from its own
  // namespace alone.
  for (TenantId t_id = 0; t_id < 2; ++t_id) {
    MonitorOptions mo;
    mo.cluster.max_cluster_size = 4;
    mo.cluster.fm_vector_width = t.process_count();
    const LadderRecovery rec =
        recover_with_ladder(storage, t.process_count(), mo,
                            wal::tenant_namespace(t_id));
    // Tenant a checkpointed (a CTC1 generation); tenant b only synced.
    EXPECT_EQ(rec.rung, t_id == 0 ? RecoveryRung::kMapped
                                  : RecoveryRung::kWalReplay)
        << to_string(rec.rung);
    EXPECT_EQ(rec.monitor->delivery_log().size(),
              t.delivery_order().size());
  }
}

TEST(ShardCheck, FaultFreeShardedDeploymentIsBitIdentical) {
  const SimSchedule schedule = generate_schedule(101);
  ShardCheckOptions options;
  options.shards = 3;
  options.tenants = 2;
  const ShardCheckReport report = run_shard_check(schedule, options);
  EXPECT_TRUE(report.ok()) << report.divergence->detail;
  EXPECT_GT(report.pairs_checked, 0u);
}

TEST(ShardCheck, InjectedFaultsDegradeLoudlyNeverWrong) {
  const SimSchedule schedule = generate_schedule(202);
  ShardCheckOptions options;
  options.shards = 3;
  options.tenants = 1;
  options.faults.seed = 202;
  options.faults.slow_rate = 0.25;
  options.faults.stall_rate = 0.2;
  options.faults.dead_rate = 0.2;
  options.faults.corrupt_rate = 0.15;
  const ShardCheckReport report = run_shard_check(schedule, options);
  EXPECT_TRUE(report.ok()) << report.divergence->detail;
}

TEST(ShardCheck, FaultsConfinedToOneTenantLeaveSiblingsExact) {
  const SimSchedule schedule = generate_schedule(303);
  ShardCheckOptions options;
  options.shards = 3;
  options.tenants = 3;
  options.fault_first_tenant_only = true;
  options.faults.seed = 303;
  options.faults.dead_rate = 0.4;
  options.faults.stall_rate = 0.3;
  options.faults.corrupt_rate = 0.2;
  const ShardCheckReport report = run_shard_check(schedule, options);
  EXPECT_TRUE(report.ok()) << report.divergence->detail;
  EXPECT_GT(report.faults_injected, 0u);
}

// Routed queries serve on their callers' threads while, on the same
// replica, a side broker takes async submits on its pool and an audit loop
// corrupts and repairs the cluster store (clone-and-publish writers racing
// the pinned readers). Under TSan this is the data-race check on the
// synchronous serving path; on any build it checks that accounting stays
// exact and that service is exact again once the storm is over. Answers
// during a corruption window are unspecified, as in the broker storms.
TEST(SyncServingStorm, RouterQueriesRaceAsyncSubmitsAndAuditRepairs) {
  const Trace t = small_trace();
  ShardRouter router;
  const TenantId ten = router.add_tenant(small_tenant(t, 1));
  feed(router, ten, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  router.open_epoch();
  MonitoringEntity& replica = router.mutable_shard_monitor(ten, 0);
  ThreadPool side_pool(2);
  BrokerOptions side_options;
  side_options.max_queue = 0;
  side_options.audit.pairs_per_step = 2;
  side_options.audit.clean_steps_to_readmit = 1;
  QueryBroker side(replica, side_pool, side_options);

  std::atomic<bool> stop{false};
  std::atomic<int> submit_rounds{0}, repairs{0};
  std::thread submitter([&] {
    Prng rng(301);
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<std::future<QueryResult>> futures;
      for (int i = 0; i < 8; ++i) {
        futures.push_back(
            i % 4 == 0
                ? side.submit_frontier(rng.pick(events))
                : side.submit_precedence(rng.pick(events), rng.pick(events)));
      }
      for (auto& f : futures) EXPECT_NE(f.get().outcome, QueryOutcome::kFailed);
      submit_rounds.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread repairer([&] {
    Prng rng(302);
    while (!stop.load(std::memory_order_relaxed)) {
      replica.inject_timestamp_corruption(rng.pick(events), 0, 0xdeadu);
      while (!side.audit_step()) {
      }
      repairs.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Prng rng(310 + static_cast<std::uint64_t>(c));
      // At least 60 queries, and on until the storm has done real work.
      for (int i = 0;
           i < 60 || (i < 20000 && (submit_rounds.load() < 8 ||
                                     repairs.load() < 8));
           ++i) {
        RouterQueryResult r;
        if (i % 10 == 0) {
          r = router.frontier(ten, rng.pick(events));
        } else if (i % 10 == 5) {
          std::vector<std::pair<EventId, EventId>> pairs;
          for (int k = 0; k < 8; ++k) {
            pairs.emplace_back(rng.pick(events), rng.pick(events));
          }
          r = router.batch(ten, std::move(pairs));
        } else {
          r = router.precedence(ten, rng.pick(events), rng.pick(events));
        }
        EXPECT_NE(r.outcome, RouterOutcome::kShed);
      }
    });
  }
  for (auto& th : clients) th.join();
  stop.store(true);
  submitter.join();
  repairer.join();
  side.drain();

  EXPECT_TRUE(router.tenant_health(ten).accounted());
  EXPECT_EQ(router.tenant_health(ten).in_flight, 0u);
  EXPECT_TRUE(side.health().accounted());
  EXPECT_EQ(router.pool().submitted(), 0u);

  // Quiesced and repaired: routed service is exact again.
  while (!side.audit_step()) {
  }
  Prng rng(303);
  for (int i = 0; i < 40; ++i) {
    const EventId e = rng.pick(events);
    const EventId f = rng.pick(events);
    const RouterQueryResult r = router.precedence(ten, e, f);
    ASSERT_TRUE(r.answer.has_value());
    EXPECT_EQ(*r.answer, oracle.happened_before(e, f)) << e << " -> " << f;
  }
  router.close_epoch();
}

}  // namespace
}  // namespace ct
