// Perf-regression smoke (docs/PERF.md): reduced-size runs of the hot paths
// the performance layer accelerates, gated against a checked-in baseline.
//
// Gated metrics:
//   * speedup_*  — same-binary, same-run ratios (reference time / fast
//     path time), so the machine's absolute speed divides out. A >30%
//     drop vs. the baseline ratio fails the run.
//   * det_*      — deterministic counters (cluster counts, query answers,
//     test counts, arena footprint); any deviation from the baseline fails
//     — these only change when behaviour changes.
//   * ns_per_query_arena, us_per_frontier_cursor — absolute ceilings: the
//     baseline value x 1.3. The engine has one layout, so there is no
//     same-run slow path left to divide by.
// Other absolute ns_per_*/us_per_* metrics are recorded for humans but never
// gated; record_* keys in the baseline are frozen history (no longer
// measured, never gated).
//
// Usage:
//   perf_smoke --json                      write BENCH_perf_smoke.json
//   perf_smoke --json=PATH                 write PATH
//   perf_smoke --check=BASELINE.json       gate this run against a baseline
//
// Refreshing the baseline after an intentional perf change (carry the
// record_* keys over by hand; this binary no longer measures them):
//   ./build/bench/perf_smoke --json=bench/baselines/BENCH_perf_smoke.json
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "cluster/comm_matrix.hpp"
#include "cluster/static_greedy.hpp"
#include "core/engine.hpp"
#include "core/precedence_kernels.hpp"
#include "monitor/queries.hpp"
#include "timestamp/fm_store.hpp"
#include "trace/generators.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace ct {
namespace {

constexpr std::size_t kProcesses = 128;  // reduced size: CI-friendly

volatile std::size_t g_sink = 0;  // defeats dead-code elimination

using steady = std::chrono::steady_clock;

double best_of(int reps, const auto& body) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto start = steady::now();
    body();
    const double s =
        std::chrono::duration<double>(steady::now() - start).count();
    best = std::min(best, s);
  }
  return best;
}

Trace make_trace() {
  return generate_locality_random({.processes = kProcesses,
                                   .group_size = 10,
                                   .intra_rate = 0.85,
                                   .messages = kProcesses * 30,
                                   .seed = 1000 + kProcesses});
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

// ------------------------------------------------ precedence and frontier

void smoke_precedence(const Trace& t) {
  const ClusterEngineConfig config{.max_cluster_size = 13,
                                   .fm_vector_width = kProcesses};
  ClusterTimestampEngine engine(t.process_count(), config,
                                make_merge_on_nth(10));
  engine.observe_trace(t);
  const FmStore fm(t);

  const auto pairs = query_pairs(t, 1 << 15);
  std::size_t trues = 0;
  for (const auto& [e, f] : pairs) {
    const bool a = engine.precedes(t.event(e), t.event(f));
    CT_CHECK_MSG(a == fm.precedes(e, f),
                 "engine/FM disagree on " << e << " -> " << f);
    trues += a ? 1 : 0;
  }

  // Pre-resolved records: the sweep times the precedence path, not the
  // trace's bounds-checked event lookups.
  std::vector<std::pair<const Event*, const Event*>> records;
  records.reserve(pairs.size());
  for (const auto& [e, f] : pairs) {
    records.emplace_back(&t.event(e), &t.event(f));
  }
  const double query_s = best_of(5, [&] {
    std::size_t hits = 0;
    for (const auto& [e, f] : records) {
      hits += engine.precedes(*e, *f) ? 1U : 0U;
    }
    g_sink = hits;
  });

  const double per = 1e9 / static_cast<double>(pairs.size());
  bench::json_metric("det_precedence_true", static_cast<double>(trues));
  bench::json_metric("det_cluster_receives",
                     static_cast<double>(engine.stats().cluster_receives));
  bench::json_metric("det_arena_words",
                     static_cast<double>(engine.arena_words()));
  bench::json_metric("ns_per_query_arena", query_s * per);
  std::printf("precedence: %zu pairs, %.1f ns/query\n", pairs.size(),
              query_s * per);

  // ------------------------------------------------ frontier: cursor
  Prng rng(3);
  const auto order = t.delivery_order();
  std::vector<EventId> probes;
  for (std::size_t i = 0; i < 48; ++i) {
    probes.push_back(order[rng.index(order.size())]);
  }
  const auto size_of = [&](ProcessId q) { return t.process_size(q); };
  const auto via_cursor = [&](EventId e) {
    const auto cur = engine.cursor(t.event(e));
    return compute_frontiers_with(
        t.process_count(), e,
        [&](EventId a, EventId b) {
          return a == e ? cur.anchor_precedes(t.event(b))
                        : cur.precedes_anchor(t.event(a));
        },
        size_of);
  };
  std::size_t tests = 0;
  for (const EventId e : probes) {
    const auto got = via_cursor(e);
    const auto want = compute_frontiers_with(
        t.process_count(), e,
        [&](EventId a, EventId b) { return fm.precedes(a, b); }, size_of);
    CT_CHECK_MSG(got.greatest_predecessor == want.greatest_predecessor &&
                     got.greatest_concurrent == want.greatest_concurrent,
                 "frontiers diverge at probe " << e);
    tests += got.precedence_tests;
  }

  const double frontier_s = best_of(5, [&] {
    std::size_t total = 0;
    for (const EventId e : probes) total += via_cursor(e).precedence_tests;
    g_sink = total;
  });

  const double perq = 1e6 / static_cast<double>(probes.size());
  bench::json_metric("det_frontier_tests", static_cast<double>(tests));
  bench::json_metric("us_per_frontier_cursor", frontier_s * perq);
  std::printf("frontier:   %zu queries (%zu tests), %.1f us/query\n",
              probes.size(), tests, frontier_s * perq);
}

// ------------------------------------- batched precedence: dispatch tiers

void smoke_batch() {
  // Wide rows (N=300) are where the dispatch tier's lane width shows: the
  // batch-transpose path resolves arena rows once and streams the direct-
  // test operands contiguously through the widest kernel available. The
  // baseline is the pre-batch serving path: one SWAR-tier precedes_metered
  // call per pair.
  constexpr std::size_t kN = 300;
  const Trace t = generate_locality_random({.processes = kN,
                                            .group_size = 15,
                                            .intra_rate = 0.85,
                                            .messages = kN * 8,
                                            .seed = 1000 + kN});
  const ClusterEngineConfig config{.max_cluster_size = 13,
                                   .fm_vector_width = kN};
  ClusterTimestampEngine engine(t.process_count(), config,
                                make_merge_on_nth(10));
  engine.observe_trace(t);

  const auto pairs = query_pairs(t, 1 << 14);
  std::vector<std::pair<const Event*, const Event*>> records;
  records.reserve(pairs.size());
  for (const auto& [e, f] : pairs) {
    records.emplace_back(&t.event(e), &t.event(f));
  }

  const kernels::KernelTier active = kernels::active_tier();

  // Identity first: on EVERY tier this machine supports, the batch path
  // must match the sequential scalar-reference loop answer-for-answer and
  // tick-for-tick.
  std::vector<std::optional<bool>> expected(records.size());
  std::uint64_t expected_ticks = 0;
  std::size_t trues = 0;
  {
    kernels::set_kernel_tier(kernels::KernelTier::kScalar);
    QueryCost cost;
    for (std::size_t i = 0; i < records.size(); ++i) {
      expected[i] = engine.precedes_metered(*records[i].first,
                                            *records[i].second, cost);
      CT_CHECK(expected[i].has_value());
      trues += *expected[i] ? 1U : 0U;
    }
    expected_ticks = cost.ticks;
  }

  constexpr kernels::KernelTier kTiers[] = {
      kernels::KernelTier::kScalar, kernels::KernelTier::kSwar,
      kernels::KernelTier::kAvx2, kernels::KernelTier::kAvx512};
  for (const kernels::KernelTier tier : kTiers) {
    if (!kernels::tier_supported(tier)) continue;
    kernels::set_kernel_tier(tier);
    QueryCost cost;
    std::vector<std::optional<bool>> got(records.size());
    CT_CHECK_MSG(engine.precedes_batch_metered(records, cost, got.data()) ==
                     records.size(),
                 "batch run fell short on tier " << kernels::to_string(tier));
    CT_CHECK_MSG(got == expected, "batch answers diverge on tier "
                                      << kernels::to_string(tier));
    CT_CHECK_MSG(cost.ticks == expected_ticks,
                 "batch ticks diverge on tier " << kernels::to_string(tier)
                                                << ": " << cost.ticks
                                                << " != " << expected_ticks);
  }

  // Kernel-level sweeps at width N=300: the raw batched-precedence
  // primitives where the tier's lane count is the whole story. Two shapes:
  //   * batch_leq — the transpose path's streaming core (one comparison
  //     per gathered pair, no early exit);
  //   * batch_all_leq — whole-vector dominance of one query row against
  //     many stored rows (the audit/oracle sweep shape).
  // Both are gated per tier as a ratio over the SWAR tier measured in the
  // same run, so "avx512 is >=2x swar" is a machine-independent floor.
  {
    Prng rng(11);
    constexpr std::size_t kPairs = 1 << 15;
    std::vector<EventIndex> tr_bounds(kPairs), tr_comps(kPairs);
    for (std::size_t i = 0; i < kPairs; ++i) {
      tr_bounds[i] = static_cast<EventIndex>(rng.uniform(0, 1u << 20));
      tr_comps[i] = static_cast<EventIndex>(rng.uniform(0, 1u << 20));
    }
    std::vector<std::uint8_t> flags(kPairs);

    constexpr std::size_t kRows = 2048;
    std::vector<EventIndex> row_pool(kRows * kN);
    std::vector<const EventIndex*> rows(kRows);
    std::vector<EventIndex> query(kN);
    for (auto& x : query) x = static_cast<EventIndex>(rng.uniform(0, 64));
    for (std::size_t r = 0; r < kRows; ++r) {
      EventIndex* row = row_pool.data() + r * kN;
      for (std::size_t i = 0; i < kN; ++i) {
        row[i] = query[i] + static_cast<EventIndex>(rng.uniform(0, 64));
      }
      // A quarter of the rows fail dominance at a random component, so the
      // early-exit path stays exercised; the rest scan the full width.
      if (r % 4 == 0 && query[r % kN] > 0) {
        row[r % kN] = query[r % kN] - 1;
      }
      rows[r] = row;
    }
    std::vector<std::uint8_t> verdicts(kRows);

    double swar_leq = 0.0, swar_dom = 0.0;
    for (const kernels::KernelTier tier : kTiers) {
      if (!kernels::tier_supported(tier)) continue;
      const kernels::KernelOps& ops = kernels::ops_for_tier(tier);
      const double leq_s = best_of(7, [&] {
        ops.batch_leq(tr_bounds.data(), tr_comps.data(), kPairs,
                      flags.data());
        g_sink = flags[kPairs - 1];
      });
      const double dom_s = best_of(7, [&] {
        ops.batch_all_leq(query.data(), kN, rows.data(), kRows,
                          verdicts.data());
        g_sink = verdicts[kRows - 1];
      });
      if (tier == kernels::KernelTier::kSwar) {
        swar_leq = leq_s;
        swar_dom = dom_s;
      }
      const std::string name = kernels::to_string(tier);
      if (swar_leq > 0.0) {
        bench::json_metric("speedup_kernel_batch_" + name, swar_leq / leq_s);
        bench::json_metric("speedup_kernel_dominance_" + name,
                           swar_dom / dom_s);
        std::printf("kernels N=%zu: tier %-6s batch_leq %.2fx, "
                    "batch_all_leq %.2fx vs swar\n",
                    kN, name.c_str(), swar_leq / leq_s, swar_dom / dom_s);
      }
    }
    // The scalar tier ran before swar set the denominators; redo it so the
    // report is complete (tiers are ordered scalar < swar in kTiers).
    // Scalar is the correctness oracle, not a perf contract — at -O3 the
    // compiler may auto-vectorize it past hand-SWAR — so its ratios are
    // informational `ratio_` keys, not gated `speedup_` keys.
    if (kernels::tier_supported(kernels::KernelTier::kScalar)) {
      const kernels::KernelOps& ops =
          kernels::ops_for_tier(kernels::KernelTier::kScalar);
      const double leq_s = best_of(7, [&] {
        ops.batch_leq(tr_bounds.data(), tr_comps.data(), kPairs,
                      flags.data());
        g_sink = flags[kPairs - 1];
      });
      const double dom_s = best_of(7, [&] {
        ops.batch_all_leq(query.data(), kN, rows.data(), kRows,
                          verdicts.data());
        g_sink = verdicts[kRows - 1];
      });
      bench::json_metric("ratio_kernel_batch_scalar", swar_leq / leq_s);
      bench::json_metric("ratio_kernel_dominance_scalar", swar_dom / dom_s);
      std::printf("kernels N=%zu: tier scalar batch_leq %.2fx, "
                  "batch_all_leq %.2fx vs swar\n",
                  kN, swar_leq / leq_s, swar_dom / dom_s);
    }
  }

  // End-to-end canary: the engine's transpose path against the pre-batch
  // serving loop (sequential SWAR-tier precedes_metered). Random cross-
  // cluster pairs are probe-walk-bound, so this ratio hovers near 1 with
  // high run-to-run variance — reported as an informational `ratio_` key
  // (the exact det_batch_* identity gates and the kernel speedups above
  // are the stable contracts).
  kernels::set_kernel_tier(kernels::KernelTier::kSwar);
  const double seq_s = best_of(5, [&] {
    QueryCost cost;
    std::size_t hits = 0;
    for (const auto& [e, f] : records) {
      hits += *engine.precedes_metered(*e, *f, cost) ? 1U : 0U;
    }
    g_sink = hits;
  });

  const double per = 1e9 / static_cast<double>(records.size());
  std::vector<std::optional<bool>> out(records.size());
  for (const kernels::KernelTier tier : kTiers) {
    if (!kernels::tier_supported(tier)) continue;
    kernels::set_kernel_tier(tier);
    const double batch_s = best_of(5, [&] {
      QueryCost cost;
      g_sink = engine.precedes_batch_metered(records, cost, out.data());
    });
    const std::string name = kernels::to_string(tier);
    bench::json_metric("ratio_batch_engine_" + name, seq_s / batch_s);
    bench::json_metric("ns_per_batch_pair_" + name, batch_s * per);
    std::printf("batch N=%zu: tier %-6s engine speedup %.2fx vs sequential "
                "swar (%.1f -> %.1f ns/pair)\n",
                kN, name.c_str(), seq_s / batch_s, seq_s * per,
                batch_s * per);
  }
  kernels::set_kernel_tier(active);

  bench::json_metric("kernel_tier",
                     static_cast<double>(static_cast<int>(active)));
  bench::json_metric("det_batch_true", static_cast<double>(trues));
  bench::json_metric("det_batch_ticks", static_cast<double>(expected_ticks));
  std::printf("batch N=%zu: %zu pairs identical on every supported tier "
              "(active: %s)\n",
              kN, records.size(), kernels::to_string(active));
}

// ------------------------------------------------ greedy clustering A/B

void smoke_greedy(const Trace& t) {
  const CommMatrix comm(t);
  std::size_t clusters_at_13 = 0;
  for (const std::size_t max_cs : {2UL, 5UL, 13UL, 40UL}) {
    const StaticGreedyOptions options{.max_cluster_size = max_cs};
    const auto heap = static_greedy_clusters(comm, options);
    const auto reference = static_greedy_clusters_reference(comm, options);
    CT_CHECK_MSG(heap == reference,
                 "heap greedy diverges from reference at maxCS=" << max_cs);
    if (max_cs == 13) clusters_at_13 = heap.size();
  }

  const StaticGreedyOptions options{.max_cluster_size = 13};
  const double slow_s = best_of(3, [&] {
    g_sink = static_greedy_clusters_reference(comm, options).size();
  });
  const double fast_s = best_of(3, [&] {
    g_sink = static_greedy_clusters(comm, options).size();
  });

  bench::json_metric("speedup_greedy_heap", slow_s / fast_s);
  bench::json_metric("det_greedy_clusters",
                     static_cast<double>(clusters_at_13));
  bench::json_metric("ms_greedy_reference", slow_s * 1e3);
  bench::json_metric("ms_greedy_heap", fast_s * 1e3);
  std::printf("greedy:     C=%zu, heap speedup %.2fx (%.2f -> %.2f ms), "
              "partitions identical at maxCS {2,5,13,40}\n",
              comm.process_count(), slow_s / fast_s, slow_s * 1e3,
              fast_s * 1e3);
}

// ------------------------------------------------ baseline gate (--check)

/// Minimal parser for the flat BENCH json this binary writes: extracts
/// every `"key": number` pair inside the "metrics" object. No JSON
/// library in the container, none needed for this grammar.
std::vector<std::pair<std::string, double>> parse_baseline(
    const std::string& path) {
  std::ifstream in(path);
  CT_CHECK_MSG(in.good(), "cannot read baseline " << path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  std::vector<std::pair<std::string, double>> out;
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) break;
    const std::string key = text.substr(pos + 1, end - pos - 1);
    std::size_t after = end + 1;
    while (after < text.size() &&
           (text[after] == ':' || text[after] == ' ')) {
      ++after;
    }
    if (after < text.size() && text[after] != ':' && key != "bench" &&
        key != "metrics") {
      char* parsed_end = nullptr;
      const double value = std::strtod(text.c_str() + after, &parsed_end);
      if (parsed_end != text.c_str() + after) out.emplace_back(key, value);
    }
    pos = end + 1;
  }
  return out;
}

int check_against(const std::string& path) {
  const auto baseline = parse_baseline(path);
  const auto& measured = bench::json_sink().metrics;
  const auto lookup = [&](const std::string& key) -> const double* {
    for (const auto& [k, v] : measured) {
      if (k == key) return &v;
    }
    return nullptr;
  };

  // A baseline produced on a wide machine carries per-tier keys (suffix
  // _scalar/_swar/_avx2/_avx512) this runner may not support; skip the
  // tiers not measured in THIS run instead of failing on them.
  const auto tier_suffixed = [](const std::string& key) {
    for (const char* suffix : {"_scalar", "_swar", "_avx2", "_avx512"}) {
      const std::string s(suffix);
      if (key.size() >= s.size() &&
          key.compare(key.size() - s.size(), s.size(), s) == 0) {
        return true;
      }
    }
    return false;
  };

  // Absolute-time ceilings (baseline x 1.3 — the same 30% slide the retired
  // same-run ratio gates allowed).
  const auto is_ceiling = [](const std::string& key) {
    return key == "ns_per_query_arena" || key == "us_per_frontier_cursor";
  };

  int failures = 0;
  std::printf("\n-- baseline check vs %s --\n", path.c_str());
  for (const auto& [key, expected] : baseline) {
    if (key.rfind("record_", 0) == 0) continue;  // frozen history, ungated
    const double* got = lookup(key);
    if (got == nullptr) {
      if (key.rfind("verdicts_", 0) == 0) continue;  // sink bookkeeping
      if (tier_suffixed(key)) {
        std::printf("[skip] %-28s tier not available on this machine\n",
                    key.c_str());
        continue;
      }
      std::printf("[FAIL] %-28s missing from this run\n", key.c_str());
      ++failures;
      continue;
    }
    if (key.rfind("speedup_", 0) == 0) {
      // Ratio gate: tolerate noise, fail a >30% regression.
      const double floor = expected / 1.3;
      const bool ok = *got >= floor;
      std::printf("[%s] %-28s %.3f (baseline %.3f, floor %.3f)\n",
                  ok ? " ok " : "FAIL", key.c_str(), *got, expected, floor);
      failures += ok ? 0 : 1;
    } else if (key.rfind("det_", 0) == 0) {
      // Deterministic gate: exact or the behaviour changed.
      const bool ok = *got == expected;
      std::printf("[%s] %-28s %.0f (baseline %.0f)\n",
                  ok ? " ok " : "FAIL", key.c_str(), *got, expected);
      failures += ok ? 0 : 1;
    } else if (is_ceiling(key)) {
      const double ceiling = expected * 1.3;
      const bool ok = *got <= ceiling;
      std::printf("[%s] %-28s %.3f (baseline %.3f, ceiling %.3f)\n",
                  ok ? " ok " : "FAIL", key.c_str(), *got, expected, ceiling);
      failures += ok ? 0 : 1;
    }
    // Other absolute-time metrics: informational only, machine-dependent.
  }
  if (failures > 0) {
    std::printf("perf smoke FAILED: %d gated metric(s) regressed\n",
                failures);
    return 1;
  }
  std::printf("perf smoke passed: all gated metrics within tolerance\n");
  return 0;
}

}  // namespace
}  // namespace ct

int main(int argc, char** argv) {
  ct::bench::bench_init(argc, argv, "perf_smoke");
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--check=", 0) == 0) check_path = arg.substr(8);
  }

  ct::bench::header("perf_smoke", "perf-regression gate (docs/PERF.md)",
                    "Reduced-size runs of the engine precedence path, the "
                    "frontier cursor, the dispatch tiers, and the heap "
                    "greedy clustering; gated on same-run speedup ratios, "
                    "two absolute ceilings, and deterministic counters.");

  const ct::Trace t = ct::make_trace();
  std::printf("trace: %zu processes, %zu events\n", t.process_count(),
              t.event_count());
  std::printf("kernel tier: %s (widest supported: %s)\n\n",
              ct::kernels::to_string(ct::kernels::active_tier()),
              ct::kernels::to_string(ct::kernels::widest_supported_tier()));
  ct::smoke_precedence(t);
  ct::smoke_batch();
  ct::smoke_greedy(t);

  int exit_code = ct::bench::bench_finish();
  if (!check_path.empty()) {
    exit_code = std::max(exit_code, ct::check_against(check_path));
  }
  return exit_code;
}
