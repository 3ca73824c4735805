// Tests for ct_core — the cluster-timestamp engine.
//
// The central property of the whole reproduction: for EVERY clustering
// strategy, EVERY maxCS, and every trace family, the cluster-timestamp
// precedence test must agree with the happened-before oracle on all event
// pairs. Space savings mean nothing if precedence answers change.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "cluster/comm_matrix.hpp"
#include "cluster/fixed_contiguous.hpp"
#include "cluster/kmedoid.hpp"
#include "cluster/static_greedy.hpp"
#include "core/batch_hybrid.hpp"
#include "core/engine.hpp"
#include "core/static_pipeline.hpp"
#include "model/oracle.hpp"
#include "model/trace_builder.hpp"
#include "timestamp/query_cost.hpp"
#include "trace/generators.hpp"
#include "util/check.hpp"

namespace ct {
namespace {

Trace property_trace(int which) {
  switch (which) {
    case 0:
      return generate_ring({.processes = 10, .iterations = 9, .seed = 142});
    case 1:
      return generate_scatter_gather(
          {.processes = 9, .rounds = 7, .seed = 143});
    case 2:
      return generate_web_server({.clients = 12,
                                  .servers = 3,
                                  .backends = 2,
                                  .requests = 55,
                                  .seed = 144});
    case 3:
      return generate_rpc_business({.groups = 3,
                                    .clients_per_group = 3,
                                    .servers_per_group = 2,
                                    .calls = 60,
                                    .seed = 145});
    case 4:
      return generate_uniform_random(
          {.processes = 12, .messages = 110, .seed = 146});
    case 5:
      return generate_locality_random({.processes = 18,
                                       .group_size = 6,
                                       .messages = 130,
                                       .seed = 147});
    case 6:
      return generate_pubsub({.publishers = 4,
                              .brokers = 2,
                              .subscribers = 8,
                              .topics = 4,
                              .subscribers_per_topic = 3,
                              .messages = 35,
                              .seed = 148});
    case 7:
      return generate_rpc_chain(
          {.services = 9, .chain_length = 4, .requests = 22, .seed = 149});
    default:
      CT_CHECK(false);
      return {};
  }
}

void expect_matches_oracle(const Trace& trace, const CausalityOracle& oracle,
                           ClusterTimestampEngine& engine,
                           const std::string& label) {
  engine.observe_trace(trace);
  for (const EventId e : trace.delivery_order()) {
    for (const EventId f : trace.delivery_order()) {
      const bool got = engine.precedes(trace.event(e), trace.event(f));
      const bool want = oracle.happened_before(e, f);
      ASSERT_EQ(got, want) << label << ": e=" << e << " f=" << f << " in "
                           << trace.name();
    }
  }
}

class EnginePrecedenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(EnginePrecedenceProperty, AllStrategiesAllSizesMatchOracle) {
  const Trace trace = property_trace(GetParam());
  const CausalityOracle oracle(trace);
  const std::size_t n = trace.process_count();

  for (const std::size_t max_cs : {std::size_t{1}, std::size_t{2},
                                   std::size_t{5}, std::size_t{13},
                                   std::size_t{64}}) {
    ClusterEngineConfig config;
    config.max_cluster_size = max_cs;
    config.fm_vector_width = 300;

    {
      ClusterTimestampEngine engine(n, config, make_merge_on_first());
      expect_matches_oracle(trace, oracle, engine,
                            "merge-on-1st maxCS=" + std::to_string(max_cs));
    }
    {
      ClusterTimestampEngine engine(n, config, make_merge_on_nth(0.5));
      expect_matches_oracle(trace, oracle, engine,
                            "Nth(0.5) maxCS=" + std::to_string(max_cs));
    }
    {
      ClusterTimestampEngine engine(n, config, make_merge_on_nth(3.0));
      expect_matches_oracle(trace, oracle, engine,
                            "Nth(3) maxCS=" + std::to_string(max_cs));
    }
    {
      const auto partition = static_greedy_clusters(
          CommMatrix(trace), {.max_cluster_size = max_cs});
      ClusterTimestampEngine engine(n, config, partition);
      expect_matches_oracle(trace, oracle, engine,
                            "static-greedy maxCS=" + std::to_string(max_cs));
    }
    {
      const auto partition = fixed_contiguous_clusters(n, max_cs);
      ClusterTimestampEngine engine(n, config, partition);
      expect_matches_oracle(trace, oracle, engine,
                            "fixed maxCS=" + std::to_string(max_cs));
    }
  }

  // Unbounded k-medoid partition (encoded at its largest cluster).
  {
    const auto partition = kmedoid_clusters(CommMatrix(trace), {.k = 4});
    std::size_t largest = 1;
    for (const auto& c : partition) largest = std::max(largest, c.size());
    ClusterEngineConfig config;
    config.max_cluster_size = largest;
    config.fm_vector_width = 300;
    config.encoded_cluster_width = largest;
    ClusterTimestampEngine engine(n, config, partition);
    expect_matches_oracle(trace, oracle, engine, "k-medoid");
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, EnginePrecedenceProperty,
                         ::testing::Range(0, 8));

// ------------------------------------------------------- unit-level behaviour

TEST(Engine, MergeOnFirstMergesImmediately) {
  TraceBuilder b;
  b.add_processes(3);
  b.message(0, 1);
  const Trace t = b.build("m1", TraceFamily::kControl);

  ClusterEngineConfig config{.max_cluster_size = 2, .fm_vector_width = 300};
  ClusterTimestampEngine engine(3, config, make_merge_on_first());
  engine.observe_trace(t);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.merges, 1u);
  EXPECT_EQ(stats.cluster_receives, 0u);  // the receive triggered the merge
  EXPECT_EQ(stats.final_clusters, 2u);
  // The receive's timestamp covers the merged cluster {0,1}.
  const auto& ts = engine.timestamp(EventId{1, 1});
  ASSERT_FALSE(ts.is_full());
  EXPECT_EQ(*ts.covered, (std::vector<ProcessId>{0, 1}));
}

TEST(Engine, SizeBoundBlocksMergeAndKeepsFullVector) {
  TraceBuilder b;
  b.add_processes(3);
  b.message(0, 1);  // merges {0,1} at maxCS=2
  b.message(2, 0);  // cannot merge {0,1}+{2} at maxCS=2 → cluster receive
  const Trace t = b.build("blocked", TraceFamily::kControl);

  ClusterEngineConfig config{.max_cluster_size = 2, .fm_vector_width = 300};
  ClusterTimestampEngine engine(3, config, make_merge_on_first());
  engine.observe_trace(t);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.merges, 1u);
  EXPECT_EQ(stats.cluster_receives, 1u);
  const auto& cr = engine.timestamp(EventId{0, 2});
  EXPECT_TRUE(cr.is_full());
  EXPECT_TRUE(cr.cluster_receive);
  EXPECT_EQ(cr.values.size(), 3u);
}

TEST(Engine, EncodedWordsFollowPaperConvention) {
  TraceBuilder b;
  b.add_processes(3);
  b.message(0, 1);  // 2 events, merge
  b.message(2, 0);  // send (1 event) + blocked cluster receive (1 event)
  const Trace t = b.build("words", TraceFamily::kControl);

  ClusterEngineConfig config{.max_cluster_size = 2, .fm_vector_width = 300};
  ClusterTimestampEngine engine(3, config, make_merge_on_first());
  engine.observe_trace(t);
  const auto stats = engine.stats();
  // 3 projection events at width maxCS=2, 1 cluster receive at width 300.
  EXPECT_EQ(stats.encoded_words, 3u * 2u + 300u);
  EXPECT_DOUBLE_EQ(stats.average_ratio(300), (3.0 * 2 + 300) / (4 * 300.0));
  // Exact words: send(0.1)=1 wait—projections: {0,1} events have covered
  // sizes; verify via exact_words consistency instead of hand-count.
  EXPECT_LE(stats.exact_words, stats.encoded_words);
}

TEST(Engine, IntraClusterCommunicationNeverClusterReceive) {
  TraceBuilder b;
  b.add_processes(4);
  for (int i = 0; i < 10; ++i) b.message(0, 1);
  const Trace t = b.build("intra", TraceFamily::kControl);
  ClusterEngineConfig config{.max_cluster_size = 4, .fm_vector_width = 300};
  ClusterTimestampEngine engine(4, config,
                                std::vector<std::vector<ProcessId>>{
                                    {0, 1}, {2}, {3}});
  engine.observe_trace(t);
  EXPECT_EQ(engine.stats().cluster_receives, 0u);
}

TEST(Engine, StaticPartitionNeverMerges) {
  TraceBuilder b;
  b.add_processes(2);
  for (int i = 0; i < 5; ++i) b.message(0, 1);
  const Trace t = b.build("static", TraceFamily::kControl);
  ClusterEngineConfig config{.max_cluster_size = 2, .fm_vector_width = 300};
  ClusterTimestampEngine engine(
      2, config, std::vector<std::vector<ProcessId>>{{0}, {1}});
  engine.observe_trace(t);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.merges, 0u);
  EXPECT_EQ(stats.cluster_receives, 5u);  // every receive crosses clusters
  EXPECT_EQ(stats.final_clusters, 2u);
}

TEST(Engine, SyncHalvesClassifiedConsistently) {
  TraceBuilder b;
  b.add_processes(4);
  b.sync(0, 1);  // mergeable at maxCS=2 → both halves projections
  b.sync(2, 3);  // merge {2,3}
  b.sync(1, 2);  // {0,1}+{2,3} exceeds maxCS=2 → BOTH halves cluster receives
  const Trace t = b.build("sync-cr", TraceFamily::kDce);

  ClusterEngineConfig config{.max_cluster_size = 2, .fm_vector_width = 300};
  ClusterTimestampEngine engine(4, config, make_merge_on_first());
  engine.observe_trace(t);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.merges, 2u);
  EXPECT_EQ(stats.cluster_receives, 2u);
  EXPECT_TRUE(engine.timestamp(EventId{1, 2}).cluster_receive);
  EXPECT_TRUE(engine.timestamp(EventId{2, 2}).cluster_receive);
  EXPECT_FALSE(engine.timestamp(EventId{0, 1}).cluster_receive);
  // Projection halves carry identical component values.
  EXPECT_EQ(engine.timestamp(EventId{1, 2}).values,
            engine.timestamp(EventId{2, 2}).values);
}

TEST(Engine, SyncPairCountsAsTwoOccurrencesForNth) {
  // Threshold 1 with singleton clusters (sizes 1+1): async needs 3 receives
  // (count > 2), sync needs 2 pairs (counts 2 then 4).
  TraceBuilder async_b;
  async_b.add_processes(2);
  async_b.message(0, 1);
  async_b.message(0, 1);
  const Trace async_t = async_b.build("async-nth", TraceFamily::kControl);
  ClusterEngineConfig config{.max_cluster_size = 2, .fm_vector_width = 300};
  {
    ClusterTimestampEngine engine(2, config, make_merge_on_nth(1.0));
    engine.observe_trace(async_t);
    EXPECT_EQ(engine.stats().merges, 0u);  // counts 1, 2 → ≤ 2, no merge
  }
  TraceBuilder sync_b;
  sync_b.add_processes(2);
  sync_b.sync(0, 1);
  sync_b.sync(0, 1);
  const Trace sync_t = sync_b.build("sync-nth", TraceFamily::kDce);
  {
    ClusterTimestampEngine engine(2, config, make_merge_on_nth(1.0));
    engine.observe_trace(sync_t);
    EXPECT_EQ(engine.stats().merges, 1u);  // counts 2 then 4 → merge
  }
}

TEST(Engine, RejectsBadConfigurations) {
  EXPECT_THROW(ClusterTimestampEngine(400,
                                      {.max_cluster_size = 5,
                                       .fm_vector_width = 300},
                                      make_merge_on_first()),
               CheckFailure);
  EXPECT_THROW(ClusterTimestampEngine(2,
                                      {.max_cluster_size = 0,
                                       .fm_vector_width = 300},
                                      make_merge_on_first()),
               CheckFailure);
  EXPECT_THROW(ClusterTimestampEngine(2,
                                      {.max_cluster_size = 2,
                                       .fm_vector_width = 300},
                                      std::unique_ptr<MergePolicy>{}),
               CheckFailure);
  // Partition with a cluster wider than the encoding width.
  EXPECT_THROW(ClusterTimestampEngine(
                   3, {.max_cluster_size = 2, .fm_vector_width = 300},
                   std::vector<std::vector<ProcessId>>{{0, 1, 2}}),
               CheckFailure);
}

TEST(Engine, RejectsQueriesAboutUnobservedEvents) {
  ClusterEngineConfig config{.max_cluster_size = 2, .fm_vector_width = 300};
  ClusterTimestampEngine engine(2, config, make_merge_on_first());
  EXPECT_THROW(engine.timestamp(EventId{0, 1}), CheckFailure);
}

// precedes() must bounds-check f in every build type, exactly like the
// metered path: an unobserved f throws instead of reading past the store.
TEST(Engine, PrecedesRejectsUnobservedTarget) {
  TraceBuilder b;
  b.add_processes(2);
  b.unary(0);
  b.unary(1);
  const Trace t = b.build("unobserved", TraceFamily::kControl);
  ClusterEngineConfig config{.max_cluster_size = 2, .fm_vector_width = 300};
  ClusterTimestampEngine engine(2, config, make_merge_on_first());
  engine.observe_trace(t);

  const Event& e = t.event(EventId{0, 1});
  for (const EventId ghost : {EventId{1, 2}, EventId{1, 4096}, EventId{5, 1}}) {
    const Event f{.id = ghost};
    EXPECT_THROW((void)engine.precedes(e, f), CheckFailure) << ghost;
    QueryCost cost;
    EXPECT_THROW((void)engine.precedes_metered(e, f, cost), CheckFailure)
        << ghost;
  }
}

TEST(Engine, ObserveTraceRejectsProcessMismatch) {
  TraceBuilder b;
  b.add_processes(3);
  b.unary(0);
  const Trace t = b.build("mismatch", TraceFamily::kControl);
  ClusterEngineConfig config{.max_cluster_size = 2, .fm_vector_width = 300};
  ClusterTimestampEngine engine(2, config, make_merge_on_first());
  EXPECT_THROW(engine.observe_trace(t), CheckFailure);
}

TEST(Engine, MaxCsOneEveryCrossReceiveIsFull) {
  const Trace t = generate_ring({.processes = 6, .iterations = 4, .seed = 3});
  ClusterEngineConfig config{.max_cluster_size = 1, .fm_vector_width = 300};
  ClusterTimestampEngine engine(6, config, make_merge_on_first());
  engine.observe_trace(t);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.merges, 0u);
  EXPECT_EQ(stats.cluster_receives, t.count(EventKind::kReceive));
}

TEST(Engine, RatioDecreasesWithGoodClustering) {
  // With planted locality, static greedy at the group size must beat maxCS=2.
  const Trace t = generate_locality_random({.processes = 36,
                                            .group_size = 6,
                                            .intra_rate = 0.95,
                                            .messages = 1500,
                                            .seed = 31});
  const double at_group = run_static(t, StaticStrategy::kGreedy, 6).ratio;
  const double tiny = run_static(t, StaticStrategy::kGreedy, 2).ratio;
  EXPECT_LT(at_group, tiny);
  EXPECT_LT(at_group, 0.5);  // order-of-magnitude-ish saving vs FM
}

TEST(Engine, ComparisonCounterAdvances) {
  const Trace t = property_trace(0);
  ClusterEngineConfig config{.max_cluster_size = 3, .fm_vector_width = 300};
  ClusterTimestampEngine engine(t.process_count(), config,
                                make_merge_on_first());
  engine.observe_trace(t);
  const auto order = t.delivery_order();
  (void)engine.precedes(t.event(order.front()), t.event(order.back()));
  EXPECT_GT(engine.comparisons(), 0u);
}

// -------------------------------------------------------------- batch hybrid

class BatchHybridProperty
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(BatchHybridProperty, PrecedenceMatchesOracleInBothPhases) {
  const auto [which, batch] = GetParam();
  const Trace trace = property_trace(which);
  const CausalityOracle oracle(trace);

  BatchHybridConfig config;
  config.batch_size = batch;
  config.engine.max_cluster_size = 6;
  config.engine.fm_vector_width = 300;
  BatchHybridEngine engine(trace.process_count(), config);

  // Interleave observation with queries over the already-observed prefix,
  // crossing the phase-1 → phase-2 boundary.
  std::vector<EventId> seen;
  std::size_t step = 0;
  for (const EventId id : trace.delivery_order()) {
    engine.observe(trace.event(id));
    seen.push_back(id);
    if (++step % 7 == 0) {
      const EventId e = seen[step % seen.size()];
      const EventId f = seen[(step * 13) % seen.size()];
      ASSERT_EQ(engine.precedes(trace.event(e), trace.event(f)),
                oracle.happened_before(e, f))
          << e << " vs " << f << " at step " << step;
    }
  }
  engine.finish();
  ASSERT_TRUE(engine.clustered());
  for (const EventId e : trace.delivery_order()) {
    for (const EventId f : trace.delivery_order()) {
      ASSERT_EQ(engine.precedes(trace.event(e), trace.event(f)),
                oracle.happened_before(e, f))
          << e << " vs " << f;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BatchHybridProperty,
    ::testing::Combine(::testing::Values(0, 2, 3, 5),
                       ::testing::Values(std::size_t{1}, std::size_t{50},
                                         std::size_t{100000})));

TEST(BatchHybrid, TracksInterimCost) {
  const Trace t = property_trace(1);
  BatchHybridConfig config;
  config.batch_size = 40;
  config.engine.max_cluster_size = 5;
  BatchHybridEngine engine(t.process_count(), config);
  engine.observe_trace(t);
  EXPECT_EQ(engine.peak_interim_words(),
            static_cast<std::uint64_t>(40 * t.process_count()));
  EXPECT_FALSE(engine.partition().empty());
  EXPECT_EQ(engine.stats().events, t.event_count());
}

TEST(BatchHybrid, StatsBeforeClusteringRejected) {
  BatchHybridConfig config;
  config.batch_size = 100;
  config.engine.max_cluster_size = 4;
  BatchHybridEngine engine(4, config);
  EXPECT_THROW(engine.stats(), CheckFailure);
}

}  // namespace
}  // namespace ct
