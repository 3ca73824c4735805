// Tree-clock timestamp store: the first non-paper CausalityBackend.
//
// Replays a trace through per-process TreeClocks (tree_clock.hpp) instead
// of FmEngine's vector clocks, materializing each event's flattened clock
// so precedence stays the same one-component Fidge/Mattern test the rest of
// the codebase uses. Answers are bit-identical to FmStore by construction —
// a tree clock and a vector clock driven over the same delivery order hold
// the same mapping — which the simcheck differential oracle re-proves
// against on-demand FM ground truth on every probe. What differs is the
// ingestion cost: a receive's join touches only the entries the sender is
// ahead on (see JoinStats), not all N components.
//
// Storage layout matches FmStore's (docs/PERF.md): flattened rows are pooled
// in one interned TsArena — sync halves carry equal vectors and dedup to one
// row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "model/trace.hpp"
#include "timestamp/fm_clock.hpp"
#include "timestamp/query_cost.hpp"
#include "timestamp/tree_clock.hpp"
#include "timestamp/ts_arena.hpp"

namespace ct {

class TreeClockStore {
 public:
  /// Ingestion-side work accounting (the backend-matrix bench's join-cost
  /// column). `join` aggregates over every receive/sync; `snapshot_nodes`
  /// counts nodes deep-copied for in-flight send snapshots.
  struct Costs {
    TreeClock::JoinStats join;
    std::uint64_t snapshots = 0;
    std::uint64_t snapshot_nodes = 0;
  };

  /// Called after every observed event with the owner's updated clock
  /// (tests hook this to assert the monotone-copy invariant per receive).
  using EventHook = std::function<void(const Event&, const TreeClock&)>;

  explicit TreeClockStore(const Trace& trace);
  TreeClockStore(const Trace& trace, const EventHook& hook);

  const Trace& trace() const { return trace_; }

  /// The event's flattened clock, by value (same contract as FmStore).
  FmClock clock(EventId e) const;

  /// Precedence via the stored rows — the single-component FM test.
  bool precedes(EventId e, EventId f) const;

  /// Cost-instrumented precedence for the broker chain: one tick per
  /// decisive component read. Const and mutation-free — safe concurrently.
  std::optional<bool> precedes_metered(EventId e, EventId f,
                                       QueryCost& cost) const;

  bool concurrent(EventId e, EventId f) const {
    return e != f && !precedes(e, f) && !precedes(f, e);
  }

  /// Full-row domination (FM(e) <= FM(f) pointwise) through the
  /// kernel-dispatched all_leq — the flatten-to-lanes adapter.
  bool dominated_by(EventId e, EventId f) const;

  /// Final tree clock of process `p` after the whole trace (tests).
  const TreeClock& final_clock(ProcessId p) const { return cur_[p]; }

  /// Logical footprint (= event_count × process_count) and the elements
  /// physically resident after arena interning.
  std::size_t stored_elements() const;
  std::size_t resident_elements() const;

  const Costs& costs() const { return costs_; }

  /// Order-sensitive FNV-1a digest over every stored row plus the final
  /// tree shapes (tid, clk, aclk, parent per process). Covers logical rows,
  /// not the pool layout — the seed-stability goldens pin it.
  std::uint64_t state_digest() const;

 private:
  std::span<const EventIndex> row(EventId e) const;

  const Trace& trace_;
  std::vector<TreeClock> cur_;  ///< final per-process clocks
  TsArena arena_;
  Costs costs_;
};

}  // namespace ct
