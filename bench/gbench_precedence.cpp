// §1.1 motivation (E9): precedence-query cost by timestamp scheme.
//
// The paper's scalability argument: pre-computed FM answers in O(1) but
// stores O(N) words per event (VM thrash at scale); compute-on-demand FM
// (POET/OLT) makes queries O(N) with a large caching-dependent constant;
// cluster timestamps answer from O(c)-word storage with a bounded number of
// comparisons. We measure query latency and recomputation volume across
// process counts on locality workloads, plus substrate throughput (B+-tree,
// FM engine, cluster engine).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "core/precedence_kernels.hpp"
#include "core/recursive_precedence.hpp"
#include "index/bplus_tree.hpp"
#include "monitor/monitor.hpp"
#include "timestamp/direct_dependency.hpp"
#include "timestamp/fm_store.hpp"
#include "timestamp/ondemand_fm.hpp"
#include "trace/generators.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace ct {
namespace {

const Trace& trace_for(std::size_t n) {
  static std::vector<std::unique_ptr<Trace>> cache(512);
  if (!cache[n]) {
    cache[n] = std::make_unique<Trace>(generate_locality_random(
        {.processes = n,
         .group_size = 10,
         .intra_rate = 0.85,
         .messages = n * 30,
         .seed = 1000 + n}));
  }
  return *cache[n];
}

std::vector<std::pair<EventId, EventId>> query_pairs(const Trace& t,
                                                     std::size_t count) {
  Prng rng(7);
  const auto order = t.delivery_order();
  std::vector<std::pair<EventId, EventId>> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(order[rng.index(order.size())],
                       order[rng.index(order.size())]);
  }
  return pairs;
}

void BM_Precedence_PrecomputedFm(benchmark::State& state) {
  const Trace& t = trace_for(static_cast<std::size_t>(state.range(0)));
  const FmStore store(t);
  const auto pairs = query_pairs(t, 1024);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [e, f] = pairs[i++ & 1023];
    benchmark::DoNotOptimize(store.precedes(e, f));
  }
  state.counters["stored_words_per_event"] =
      static_cast<double>(store.stored_elements()) /
      static_cast<double>(t.event_count());
}
BENCHMARK(BM_Precedence_PrecomputedFm)->Arg(50)->Arg(100)->Arg(200)->Arg(300);

void BM_Precedence_Cluster(benchmark::State& state) {
  const Trace& t = trace_for(static_cast<std::size_t>(state.range(0)));
  ClusterEngineConfig config{.max_cluster_size = 13, .fm_vector_width = 300};
  ClusterTimestampEngine engine(t.process_count(), config,
                                make_merge_on_nth(10));
  engine.observe_trace(t);
  const auto pairs = query_pairs(t, 1024);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [e, f] = pairs[i++ & 1023];
    benchmark::DoNotOptimize(engine.precedes(t.event(e), t.event(f)));
  }
  state.counters["stored_words_per_event"] =
      static_cast<double>(engine.stats().encoded_words) /
      static_cast<double>(t.event_count());
}
BENCHMARK(BM_Precedence_Cluster)->Arg(50)->Arg(100)->Arg(200)->Arg(300);

// The POET/OLT strategy: bounded cache, compute forward on miss. This is
// the configuration the paper blames for minutes-long scrolling at N≈1000;
// we keep N ≤ 300 and let the recomputation counter tell the story.
void BM_Precedence_OnDemandFm(benchmark::State& state) {
  const Trace& t = trace_for(static_cast<std::size_t>(state.range(0)));
  OnDemandFmEngine engine(t, /*cache_capacity=*/256);
  const auto pairs = query_pairs(t, 1024);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [e, f] = pairs[i++ & 1023];
    benchmark::DoNotOptimize(engine.precedes(e, f));
  }
  state.counters["recomputed_events_per_query"] =
      static_cast<double>(engine.counters().computed_events) /
      static_cast<double>(engine.counters().queries);
}
BENCHMARK(BM_Precedence_OnDemandFm)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(300)
    ->Unit(benchmark::kMicrosecond);

void BM_Precedence_DirectDependency(benchmark::State& state) {
  const Trace& t = trace_for(static_cast<std::size_t>(state.range(0)));
  const DirectDependencyStore ddv(t);
  const auto pairs = query_pairs(t, 1024);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [e, f] = pairs[i++ & 1023];
    benchmark::DoNotOptimize(ddv.precedes(e, f));
  }
  state.counters["edges_per_query"] =
      static_cast<double>(ddv.edges_traversed()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_Precedence_DirectDependency)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMicrosecond);

// The generalized recursive test (used by the migration/hierarchy engines)
// vs the fast two-level test on the same timestamps: the price of
// generality.
void BM_Precedence_Recursive(benchmark::State& state) {
  const Trace& t = trace_for(static_cast<std::size_t>(state.range(0)));
  ClusterEngineConfig config{.max_cluster_size = 13, .fm_vector_width = 300};
  ClusterTimestampEngine engine(t.process_count(), config,
                                make_merge_on_nth(10));
  engine.observe_trace(t);
  const TimestampLookup lookup = [&](EventId id) -> const ClusterTimestamp& {
    return engine.timestamp(id);
  };
  const auto pairs = query_pairs(t, 1024);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [e, f] = pairs[i++ & 1023];
    benchmark::DoNotOptimize(recursive_precedes(
        t.event(e), t.event(f), t.process_count(), lookup));
  }
}
BENCHMARK(BM_Precedence_Recursive)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(300)
    ->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------ substrate throughput

// Monitoring-entity ingestion rate: delivery manager + B+-tree index +
// cluster timestamps, the full §1 pipeline.
void BM_Monitor_Ingest(benchmark::State& state) {
  const Trace& t = trace_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    MonitorOptions options;
    options.cluster.max_cluster_size = 13;
    options.cluster.fm_vector_width = 300;
    MonitoringEntity monitor(t.process_count(), options);
    for (const EventId id : t.delivery_order()) {
      monitor.ingest(t.event(id));
    }
    benchmark::DoNotOptimize(monitor.stored());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.event_count()));
}
BENCHMARK(BM_Monitor_Ingest)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);

void BM_Build_FmStore(benchmark::State& state) {
  const Trace& t = trace_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    FmStore store(t);
    benchmark::DoNotOptimize(store.stored_elements());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.event_count()));
}
BENCHMARK(BM_Build_FmStore)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);

void BM_Build_ClusterEngine(benchmark::State& state) {
  const Trace& t = trace_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ClusterEngineConfig config{.max_cluster_size = 13,
                               .fm_vector_width = 300};
    ClusterTimestampEngine engine(t.process_count(), config,
                                  make_merge_on_nth(10));
    engine.observe_trace(t);
    benchmark::DoNotOptimize(engine.stats().encoded_words);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.event_count()));
}
BENCHMARK(BM_Build_ClusterEngine)
    ->Arg(100)
    ->Arg(300)
    ->Unit(benchmark::kMillisecond);

void BM_BPlusTree_InsertLookup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Prng rng(3);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng();
  for (auto _ : state) {
    BPlusTree<std::uint64_t, std::uint64_t> tree;
    for (const auto k : keys) tree.insert_or_assign(k, k);
    std::uint64_t found = 0;
    for (const auto k : keys) found += tree.find(k) != nullptr;
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_BPlusTree_InsertLookup)
    ->Arg(1000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------ exactness verification

/// Seconds (best of 3) to answer `pairs` through `engine`. The event
/// records are pre-resolved so the loop times the precedence path, not
/// the trace's bounds-checked event lookups.
double time_precedes(
    const ClusterTimestampEngine& engine,
    const std::vector<std::pair<const Event*, const Event*>>& pairs) {
  using clock = std::chrono::steady_clock;
  double best = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    std::size_t hits = 0;
    const auto start = clock::now();
    for (const auto& [e, f] : pairs) {
      hits += engine.precedes(*e, *f) ? 1U : 0U;
    }
    const double s =
        std::chrono::duration<double>(clock::now() - start).count();
    benchmark::DoNotOptimize(hits);
    best = std::min(best, s);
  }
  return best;
}

/// The acceptance gate run before every benchmark session: at the largest
/// standard size the engine must answer every query exactly like
/// pre-computed Fidge/Mattern (plain AND metered, with precedes() charging
/// the metered ticks) — only then are the timing numbers meaningful.
void verify_engine_exactness() {
  constexpr std::size_t kN = 300;
  const Trace& t = trace_for(kN);
  const ClusterEngineConfig config{.max_cluster_size = 13,
                                   .fm_vector_width = 300};
  ClusterTimestampEngine engine(t.process_count(), config,
                                make_merge_on_nth(10));
  engine.observe_trace(t);
  const FmStore fm(t);

  const auto pairs = query_pairs(t, 1 << 15);
  for (const auto& [e, f] : pairs) {
    CT_CHECK_MSG(engine.precedes(t.event(e), t.event(f)) == fm.precedes(e, f),
                 "engine/FM disagree on " << e << " -> " << f);
  }
  for (std::size_t i = 0; i < 4096; ++i) {
    const auto& [e, f] = pairs[i];
    QueryCost cost;
    const auto metered = engine.precedes_metered(t.event(e), t.event(f), cost);
    const std::uint64_t before = engine.comparisons();
    (void)engine.precedes(t.event(e), t.event(f));
    CT_CHECK_MSG(metered == fm.precedes(e, f) &&
                     engine.comparisons() - before == cost.ticks,
                 "metered engine diverges on " << e << " -> " << f);
  }

  std::vector<std::pair<const Event*, const Event*>> records;
  records.reserve(pairs.size());
  for (const auto& [e, f] : pairs) {
    records.emplace_back(&t.event(e), &t.event(f));
  }
  const double query_s = time_precedes(engine, records);
  const double per = 1e9 / static_cast<double>(pairs.size());
  std::printf(
      "[perf] N=%zu: %zu query pairs verified engine == FM (answers and "
      "ticks)\n[perf] engine precedence %.1f ns/query\n\n",
      kN, pairs.size(), query_s * per);
}

}  // namespace
}  // namespace ct

int main(int argc, char** argv) {
  ct::verify_engine_exactness();
  auto args = ct::bench::gbench_args(argc, argv, "gbench_precedence");
  benchmark::Initialize(&args.argc, args.argv.data());
  // Which dispatch tier served this run (CT_KERNEL_TIER-overridable);
  // lands in the --json context so recorded results are attributable.
  benchmark::AddCustomContext(
      "kernel_tier", ct::kernels::to_string(ct::kernels::active_tier()));
  if (benchmark::ReportUnrecognizedArguments(args.argc, args.argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
