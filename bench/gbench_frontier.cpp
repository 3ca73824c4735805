// §1.1's motivating operation, measured end to end (E9 companion).
//
// "to do something as simple as computing the greatest-concurrent elements
// of an event would require about 12,000 pages of virtual memory to be
// read, only to be discarded ... Elementary operations, such as
// partial-order scrolling, take several minutes as the vector size
// approaches 1000."
//
// A greatest-concurrent (frontier) query issues ~2·N·log(E/N) precedence
// tests, so the per-test cost of the timestamp scheme is multiplied by
// thousands. This bench runs the SAME frontier algorithm over three
// precedence backends: pre-computed FM, cluster timestamps, and POET/OLT's
// compute-on-demand FM.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "core/precedence_kernels.hpp"
#include "monitor/queries.hpp"
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
         .seed = 2000 + n}));
  }
  return *cache[n];
}

std::vector<EventId> probe_events(const Trace& t, std::size_t count) {
  Prng rng(3);
  const auto order = t.delivery_order();
  std::vector<EventId> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(order[rng.index(order.size())]);
  }
  return out;
}

template <typename PrecedesFn>
void run_frontiers(benchmark::State& state, const Trace& t,
                   PrecedesFn&& precedes) {
  const auto probes = probe_events(t, 64);
  std::size_t i = 0;
  std::size_t tests = 0;
  for (auto _ : state) {
    const EventId e = probes[i++ & 63];
    const auto frontiers = compute_frontiers_with(
        t.process_count(), e, precedes,
        [&](ProcessId q) { return t.process_size(q); });
    tests += frontiers.precedence_tests;
    benchmark::DoNotOptimize(frontiers.greatest_concurrent.data());
  }
  state.counters["precedence_tests_per_op"] =
      static_cast<double>(tests) / static_cast<double>(state.iterations());
}

void BM_Frontier_PrecomputedFm(benchmark::State& state) {
  const Trace& t = trace_for(static_cast<std::size_t>(state.range(0)));
  const FmStore store(t);
  run_frontiers(state, t,
                [&](EventId a, EventId b) { return store.precedes(a, b); });
}
BENCHMARK(BM_Frontier_PrecomputedFm)
    ->Arg(100)
    ->Arg(300)
    ->Unit(benchmark::kMicrosecond);

void BM_Frontier_Cluster(benchmark::State& state) {
  const Trace& t = trace_for(static_cast<std::size_t>(state.range(0)));
  ClusterEngineConfig config{.max_cluster_size = 13, .fm_vector_width = 300};
  ClusterTimestampEngine engine(t.process_count(), config,
                                make_merge_on_nth(10));
  engine.observe_trace(t);
  run_frontiers(state, t, [&](EventId a, EventId b) {
    return engine.precedes(t.event(a), t.event(b));
  });
}
BENCHMARK(BM_Frontier_Cluster)
    ->Arg(100)
    ->Arg(300)
    ->Unit(benchmark::kMicrosecond);

// The batched frontier kernel: a frontier query tests thousands of events
// against ONE fixed anchor, so the cursor resolves the anchor's row, dense
// covered-set index, and greatest-cluster-receive rows once per query
// instead of once per test.
void BM_Frontier_ClusterCursor(benchmark::State& state) {
  const Trace& t = trace_for(static_cast<std::size_t>(state.range(0)));
  ClusterEngineConfig config{.max_cluster_size = 13, .fm_vector_width = 300};
  ClusterTimestampEngine engine(t.process_count(), config,
                                make_merge_on_nth(10));
  engine.observe_trace(t);
  const auto probes = probe_events(t, 64);
  std::size_t i = 0;
  std::size_t tests = 0;
  for (auto _ : state) {
    const EventId e = probes[i++ & 63];
    const auto cur = engine.cursor(t.event(e));
    const auto frontiers = compute_frontiers_with(
        t.process_count(), e,
        [&](EventId a, EventId b) {
          return a == e ? cur.anchor_precedes(t.event(b))
                        : cur.precedes_anchor(t.event(a));
        },
        [&](ProcessId q) { return t.process_size(q); });
    tests += frontiers.precedence_tests;
    benchmark::DoNotOptimize(frontiers.greatest_concurrent.data());
  }
  state.counters["precedence_tests_per_op"] =
      static_cast<double>(tests) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_Frontier_ClusterCursor)
    ->Arg(100)
    ->Arg(300)
    ->Unit(benchmark::kMicrosecond);

// The paper's "several minutes" regime: each of the thousands of precedence
// tests may recompute vectors. Kept to N=100 and few iterations so the
// bench binary still finishes promptly — the gap is the point.
void BM_Frontier_OnDemandFm(benchmark::State& state) {
  const Trace& t = trace_for(static_cast<std::size_t>(state.range(0)));
  OnDemandFmEngine engine(t, /*cache_capacity=*/256);
  run_frontiers(state, t,
                [&](EventId a, EventId b) { return engine.precedes(a, b); });
}
BENCHMARK(BM_Frontier_OnDemandFm)
    ->Arg(100)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------ exactness verification

/// The acceptance gate run before every benchmark session: at the largest
/// standard size the cursor path must answer every single precedence test
/// of every frontier query exactly like pre-computed Fidge/Mattern —
/// verified inside the query (test-for-test), not just on the final
/// frontiers.
void verify_cursor_exactness() {
  constexpr std::size_t kN = 300;
  const Trace& t = trace_for(kN);
  const ClusterEngineConfig config{.max_cluster_size = 13,
                                   .fm_vector_width = 300};
  ClusterTimestampEngine engine(t.process_count(), config,
                                make_merge_on_nth(10));
  engine.observe_trace(t);
  const FmStore fm(t);

  const auto probes = probe_events(t, 64);
  const auto size_of = [&](ProcessId q) { return t.process_size(q); };
  const auto via_cursor = [&](EventId e, auto&& check) {
    const auto cur = engine.cursor(t.event(e));
    return compute_frontiers_with(
        t.process_count(), e,
        [&](EventId a, EventId b) {
          const bool answer = a == e ? cur.anchor_precedes(t.event(b))
                                     : cur.precedes_anchor(t.event(a));
          check(a, b, answer);
          return answer;
        },
        size_of);
  };
  std::size_t tests = 0;
  for (const EventId e : probes) {
    const auto got = via_cursor(e, [&](EventId a, EventId b, bool answer) {
      CT_CHECK_MSG(answer == fm.precedes(a, b),
                   "cursor/FM disagree on " << a << " -> " << b);
      ++tests;
    });
    const auto want = compute_frontiers_with(
        t.process_count(), e,
        [&](EventId a, EventId b) { return fm.precedes(a, b); }, size_of);
    CT_CHECK_MSG(got.greatest_predecessor == want.greatest_predecessor &&
                     got.greatest_concurrent == want.greatest_concurrent,
                 "frontiers diverge at probe " << e);
  }

  // Timing on the verified workload: full frontier queries, best of 3.
  using clock = std::chrono::steady_clock;
  double best = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    std::size_t total = 0;
    const auto start = clock::now();
    for (const EventId e : probes) {
      total += via_cursor(e, [](EventId, EventId, bool) {}).precedence_tests;
    }
    const double s =
        std::chrono::duration<double>(clock::now() - start).count();
    benchmark::DoNotOptimize(total);
    best = std::min(best, s);
  }
  const double per = 1e6 / static_cast<double>(probes.size());
  std::printf(
      "[perf] N=%zu: %zu frontier queries (%zu precedence tests) verified "
      "cursor == FM\n[perf] cursor frontier %.1f us/query\n\n",
      kN, probes.size(), tests, best * per);
}

}  // namespace
}  // namespace ct

int main(int argc, char** argv) {
  ct::verify_cursor_exactness();
  auto args = ct::bench::gbench_args(argc, argv, "gbench_frontier");
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
