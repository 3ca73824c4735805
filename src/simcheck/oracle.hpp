// Cross-backend differential oracle.
//
// The paper's entire claim is answer-identity: every clustering strategy,
// storage layout, and serving path must answer `e → f` exactly as
// Fidge/Mattern would. This oracle replays one schedule through a live
// MonitoringEntity (cluster backend, faults and all) and, at every probe
// point, rebuilds the delivered prefix under a matrix of independent
// backend configurations — ClusterTimestampEngine, CompactTimestampStore
// decode + recursive test, the recursive test over engine rows, the
// batch-then-cluster hybrid, and the QueryBroker fallback chain, each
// crossed with clustering strategy × maxCS (× delta/absolute codec for the
// compact store) — and
// asserts bit-identical precedence answers and frontier sets against an
// on-demand Fidge/Mattern ground truth, plus the MonitorHealth /
// BrokerHealth accounting invariants.
//
// Any deviation — a wrong answer, a moved digest, a broken accounting
// identity, or a CheckFailure escaping a backend — is reported as a
// structured SimDivergence naming the op, the configuration, and the
// offending pair, which is exactly what the shrinker minimizes against.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "model/ids.hpp"
#include "simcheck/schedule.hpp"

namespace ct {

enum class SimBackend : std::uint8_t {
  kEngine,       ///< ClusterTimestampEngine::precedes
  kCompact,      ///< CompactTimestampStore decode + recursive test
  kRecursive,    ///< recursive_precedes over engine-stored rows
  kBatchHybrid,  ///< BatchHybridEngine (§5 variant 1)
  kBroker,       ///< QueryBroker fallback chain over a fresh monitor
  kTreeClock,    ///< TreeClockStore (Mathur/Tunç tree clocks)
};

enum class SimStrategy : std::uint8_t {
  kStaticGreedy,     ///< Figure-3 agglomerative clustering, preset
  kMergeFirst,       ///< merge-on-1st-communication
  kMergeNth,         ///< merge-on-Nth-communication
  kFixedContiguous,  ///< identifier-contiguous blocks, preset
};

const char* to_string(SimBackend b);
const char* to_string(SimStrategy s);

struct OracleConfig {
  SimBackend backend = SimBackend::kEngine;
  SimStrategy strategy = SimStrategy::kMergeFirst;
  std::uint32_t max_cluster_size = 8;
  /// kCompact only: the delta/cold-codec record grammar instead of
  /// absolute. Ignored by the other backends.
  bool delta = true;

  std::string label() const;
  friend bool operator==(const OracleConfig&, const OracleConfig&) = default;
};

/// The full verification matrix: every cluster backend × strategy × maxCS ∈
/// {4, 16, 64} (the compact rows at both codecs), plus one cluster-free
/// tree-clock row (strategy and maxCS do not apply). The broker rows are
/// restricted to the dynamic strategies (its monitor self-organizes; preset
/// partitions are covered by the direct engine rows).
std::vector<OracleConfig> full_matrix();

/// The backend-axis slice (`simcheck_driver --matrix=backend`): the
/// tree-clock row, a cluster-engine reference row, and broker rows whose
/// probes exercise the extended registry chain. Small enough that a
/// many-schedule sweep hits the new backend in every rotation window.
std::vector<OracleConfig> backend_matrix();

/// Test-only hooks. `mutate` may flip a backend's precedence answer before
/// the comparison — the planted "oracle bug" of the mutation check; a
/// correct differential harness must catch and shrink it.
struct SimHooks {
  std::function<bool(const OracleConfig& config, EventId e, EventId f,
                     bool answer)>
      mutate;
};

struct SimDivergence {
  std::size_t op_index = 0;   ///< index into SimSchedule::ops
  std::string config;         ///< OracleConfig label or invariant name
  std::string detail;         ///< human-readable description
  EventId e, f;               ///< offending pair (precedence divergences)
};

struct SimReport {
  std::size_t ops_run = 0;
  std::size_t probes = 0;
  std::size_t configs_checked = 0;  ///< config × probe combinations
  std::uint64_t checks = 0;         ///< individual comparisons performed
  std::optional<SimDivergence> divergence;  ///< first divergence, if any

  bool ok() const { return !divergence.has_value(); }
};

/// Replays `schedule` and differentially checks it against `configs`.
/// Stops at the first divergence. Never throws CheckFailure — a backend
/// fault surfaces as a divergence, so the shrinker can minimize crashes
/// and wrong answers alike.
SimReport run_schedule(const SimSchedule& schedule,
                       std::span<const OracleConfig> configs,
                       const SimHooks* hooks = nullptr);

}  // namespace ct
