// Tests for the pluggable causality-backend registry
// (timestamp/causality_backend.hpp) and the registry-built broker chain:
// built-in factories and capability descriptors, chain enumeration through
// QueryBroker::link(), BrokerHealth accounting identical between the
// default chain and the same chain named explicitly (the pre-refactor
// hard-coded behaviour), and the tree-clock link serving real answers when
// spliced into an extended chain.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "model/oracle.hpp"
#include "monitor/monitor.hpp"
#include "monitor/query_broker.hpp"
#include "timestamp/causality_backend.hpp"
#include "timestamp/query_cost.hpp"
#include "trace/generators.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace ct {
namespace {

Trace registry_trace() {
  return generate_tiered_service({.clients = 6,
                                  .frontends = 2,
                                  .app_servers = 2,
                                  .databases = 2,
                                  .requests = 40,
                                  .seed = 77});
}

MonitorOptions monitor_options(const Trace& t) {
  MonitorOptions options;
  options.backend = TimestampBackend::kClusterDynamic;
  options.cluster.max_cluster_size = 4;
  options.cluster.fm_vector_width = t.process_count();
  return options;
}

void feed(MonitoringEntity& monitor, const Trace& t) {
  for (const EventId id : t.delivery_order()) monitor.ingest(t.event(id));
}

TEST(BackendRegistry, BuiltInsAreRegisteredWithExpectedCapabilities) {
  BackendRegistry& reg = BackendRegistry::instance();
  const std::vector<ServingBackend> expected = {
      ServingBackend::kCluster, ServingBackend::kDifferential,
      ServingBackend::kOnDemandFm, ServingBackend::kTreeClock};
  for (const ServingBackend b : expected) {
    EXPECT_TRUE(reg.registered(b)) << to_string(b);
  }
  const std::vector<ServingBackend> ids = reg.registered_ids();
  EXPECT_EQ(ids, expected);  // ascending id order, nothing else registered

  const Trace t = registry_trace();
  BackendContext ctx;
  ctx.trace = &t;

  const auto differential = reg.make(ServingBackend::kDifferential, ctx);
  EXPECT_EQ(differential->id(), ServingBackend::kDifferential);
  EXPECT_TRUE(differential->capabilities().supports_frontier);
  EXPECT_FALSE(differential->capabilities().supports_batch);
  EXPECT_EQ(differential->capabilities().rebuild_cost,
            RebuildCost::kFullReplay);

  const auto ondemand = reg.make(ServingBackend::kOnDemandFm, ctx);
  EXPECT_EQ(ondemand->id(), ServingBackend::kOnDemandFm);
  EXPECT_TRUE(ondemand->capabilities().concurrent_reads);
  EXPECT_EQ(ondemand->capabilities().rebuild_cost, RebuildCost::kNone);

  const auto tree = reg.make(ServingBackend::kTreeClock, ctx);
  EXPECT_EQ(tree->id(), ServingBackend::kTreeClock);
  EXPECT_TRUE(tree->capabilities().supports_frontier);
  EXPECT_TRUE(tree->capabilities().concurrent_reads);
  EXPECT_EQ(tree->capabilities().rebuild_cost, RebuildCost::kFullReplay);

  // The cluster link is monitor-coupled: without the hook it cannot build.
  EXPECT_THROW((void)reg.make(ServingBackend::kCluster, ctx), CheckFailure);
  ctx.monitor_precedes = [](EventId, EventId,
                            QueryCost&) -> std::optional<bool> {
    return false;
  };
  const auto cluster = reg.make(ServingBackend::kCluster, ctx);
  EXPECT_EQ(cluster->id(), ServingBackend::kCluster);
  EXPECT_TRUE(cluster->capabilities().supports_batch);
  EXPECT_EQ(cluster->capabilities().rebuild_cost, RebuildCost::kIncremental);
}

TEST(BackendRegistry, RejectsNonChainIdsAndHonorsCustomFactories) {
  BackendRegistry& reg = BackendRegistry::instance();
  EXPECT_THROW(reg.register_backend(ServingBackend::kNone, nullptr),
               CheckFailure);
  EXPECT_THROW(reg.register_backend(ServingBackend::kCache, nullptr),
               CheckFailure);
  EXPECT_FALSE(reg.registered(ServingBackend::kNone));
  EXPECT_FALSE(reg.registered(ServingBackend::kCache));
}

TEST(QueryBroker, ChainIsEnumerableThroughTheRegistry) {
  const Trace t = registry_trace();
  MonitoringEntity monitor(t.process_count(), monitor_options(t));
  feed(monitor, t);
  ThreadPool pool(2);
  QueryBroker broker(monitor, pool);

  ASSERT_EQ(broker.chain_length(), broker.options().chain.size());
  for (std::size_t i = 0; i < broker.chain_length(); ++i) {
    const CausalityBackend& link = broker.link(i);
    EXPECT_EQ(link.id(), broker.options().chain[i]);
    EXPECT_TRUE(BackendRegistry::instance().registered(link.id()));
    EXPECT_TRUE(link.capabilities().supports_frontier)
        << link.name() << ": every chain link must serve frontiers";
  }
  // Default chain is the pre-refactor hard-coded order.
  ASSERT_EQ(broker.chain_length(), 3u);
  EXPECT_EQ(broker.link(0).id(), ServingBackend::kCluster);
  EXPECT_EQ(broker.link(1).id(), ServingBackend::kDifferential);
  EXPECT_EQ(broker.link(2).id(), ServingBackend::kOnDemandFm);
}

/// Runs one deterministic scripted load (sequential: drain after every
/// submit so scheduling noise cannot touch the counters) and returns the
/// final health block.
BrokerHealth run_scripted_load(QueryBroker& broker, const Trace& t) {
  const std::vector<EventId> events = {t.delivery_order().begin(),
                                       t.delivery_order().end()};
  Prng rng(99);
  auto one = [&](std::future<QueryResult> fut) {
    broker.drain();
    return fut.get();
  };
  for (int i = 0; i < 60; ++i) {
    const EventId e = rng.pick(events);
    const EventId f = rng.pick(events);
    (void)one(broker.submit_precedence(e, f));
    if (i % 3 == 0) (void)one(broker.submit_precedence(e, f));  // repeat
    if (i == 20) broker.trip_backend(ServingBackend::kCluster);
    if (i == 35) broker.trip_backend(ServingBackend::kDifferential);
    if (i == 45) {
      broker.readmit_backend(ServingBackend::kCluster);
      broker.readmit_backend(ServingBackend::kDifferential);
    }
    if (i % 10 == 0) (void)one(broker.submit_frontier(e));
    if (i % 15 == 0) {
      std::vector<std::pair<EventId, EventId>> pairs;
      for (int j = 0; j < 4; ++j) pairs.emplace_back(rng.pick(events), f);
      (void)one(broker.submit_batch(std::move(pairs)));
    }
    if (i % 7 == 0) (void)one(broker.submit_precedence(e, f, 3));  // deadline
  }
  broker.drain();
  return broker.health();
}

// Satellite 4: the registry-built default chain accounts EXACTLY like the
// pre-refactor hard-coded chain. The explicit chain below names the same
// links the old broker hard-coded; every BrokerHealth field must agree
// with the default-constructed chain under an identical scripted load,
// including trips, readmissions, repeats, and deadline expiries.
TEST(QueryBroker, ExplicitDefaultChainAccountsIdenticallyToDefault) {
  const Trace t = registry_trace();
  MonitoringEntity monitor_a(t.process_count(), monitor_options(t));
  MonitoringEntity monitor_b(t.process_count(), monitor_options(t));
  feed(monitor_a, t);
  feed(monitor_b, t);
  ThreadPool pool(1);

  BrokerOptions defaults;  // chain = default_broker_chain()
  BrokerOptions explicit_chain;
  explicit_chain.chain.clear();
  explicit_chain.chain.push_back(ServingBackend::kCluster);
  explicit_chain.chain.push_back(ServingBackend::kDifferential);
  explicit_chain.chain.push_back(ServingBackend::kOnDemandFm);

  QueryBroker a(monitor_a, pool, defaults);
  QueryBroker b(monitor_b, pool, explicit_chain);
  const BrokerHealth ha = run_scripted_load(a, t);
  const BrokerHealth hb = run_scripted_load(b, t);

  EXPECT_TRUE(ha.accounted());
  EXPECT_TRUE(hb.accounted());
  EXPECT_EQ(ha.submitted, hb.submitted);
  EXPECT_EQ(ha.completed, hb.completed);
  EXPECT_EQ(ha.deadline_expired, hb.deadline_expired);
  EXPECT_EQ(ha.shed, hb.shed);
  EXPECT_EQ(ha.failed, hb.failed);
  EXPECT_EQ(ha.in_flight, hb.in_flight);
  EXPECT_EQ(ha.answered, hb.answered);
  EXPECT_EQ(ha.unknown, hb.unknown);
  EXPECT_EQ(ha.fallback_answers, hb.fallback_answers);
  EXPECT_EQ(ha.breaker_trips, hb.breaker_trips);
  EXPECT_EQ(ha.readmissions, hb.readmissions);
  EXPECT_EQ(ha.total_ticks, hb.total_ticks);
  EXPECT_GT(ha.fallback_answers, 0u);  // the trips forced real fallbacks
}

// The tree-clock link, spliced in behind the cluster primary, serves exact
// answers once the primary trips — and the result is attributed to it.
TEST(QueryBroker, TreeClockLinkServesWhenPrimaryTripped) {
  const Trace t = registry_trace();
  MonitoringEntity monitor(t.process_count(), monitor_options(t));
  feed(monitor, t);
  const CausalityOracle oracle(t);
  ThreadPool pool(2);

  BrokerOptions options;
  options.chain.clear();
  options.chain.push_back(ServingBackend::kCluster);
  options.chain.push_back(ServingBackend::kTreeClock);
  options.chain.push_back(ServingBackend::kDifferential);
  options.chain.push_back(ServingBackend::kOnDemandFm);
  QueryBroker broker(monitor, pool, options);
  ASSERT_EQ(broker.chain_length(), 4u);
  EXPECT_EQ(broker.link(1).id(), ServingBackend::kTreeClock);

  broker.trip_backend(ServingBackend::kCluster);
  EXPECT_TRUE(broker.backend_open(ServingBackend::kCluster));
  EXPECT_FALSE(broker.backend_open(ServingBackend::kTreeClock));

  const std::vector<EventId> events = {t.delivery_order().begin(),
                                       t.delivery_order().end()};
  Prng rng(5);
  std::uint64_t tree_served = 0;
  for (int i = 0; i < 120; ++i) {
    const EventId e = rng.pick(events);
    const EventId f = rng.pick(events);
    auto fut = broker.submit_precedence(e, f);
    broker.drain();
    const QueryResult r = fut.get();
    ASSERT_EQ(r.outcome, QueryOutcome::kAnswered);
    ASSERT_TRUE(r.answer.has_value());
    ASSERT_EQ(*r.answer, oracle.happened_before(e, f));
    ASSERT_EQ(r.backend_used, ServingBackend::kTreeClock);
    ++tree_served;
  }
  const BrokerHealth h = broker.health();
  EXPECT_TRUE(h.accounted());
  EXPECT_EQ(h.fallback_answers, tree_served);

  // Frontier queries ride the same link.
  auto fut = broker.submit_frontier(events[events.size() / 2]);
  broker.drain();
  const QueryResult r = fut.get();
  ASSERT_EQ(r.outcome, QueryOutcome::kAnswered);
  EXPECT_EQ(r.backend_used, ServingBackend::kTreeClock);
  ASSERT_TRUE(r.frontiers.has_value());
}

TEST(QueryBroker, DuplicateOrEmptyChainIsRejected) {
  const Trace t = registry_trace();
  MonitoringEntity monitor(t.process_count(), monitor_options(t));
  feed(monitor, t);
  ThreadPool pool(1);

  BrokerOptions empty;
  empty.chain.clear();
  EXPECT_THROW((QueryBroker{monitor, pool, empty}), CheckFailure);

  BrokerOptions dup;
  dup.chain.clear();
  dup.chain.push_back(ServingBackend::kOnDemandFm);
  dup.chain.push_back(ServingBackend::kOnDemandFm);
  EXPECT_THROW((QueryBroker{monitor, pool, dup}), CheckFailure);
}

}  // namespace
}  // namespace ct
