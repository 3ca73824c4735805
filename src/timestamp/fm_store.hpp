// Pre-computed Fidge/Mattern timestamp store.
//
// The "store everything" strategy of §1.1: every event's full FM vector is
// materialized. This is the reference both for correctness (cluster
// timestamps must agree with it on every precedence query) and for the
// space/time comparisons of the motivation section.
//
// Layout (docs/PERF.md): all vectors live in one flat TsArena pool with
// content interning: the two halves of a synchronous pair carry identical
// vectors and dedup to one pooled row, and precedence reads a single pooled
// component instead of chasing a per-event heap vector.
#pragma once

#include <cstddef>
#include <vector>

#include "model/trace.hpp"
#include "timestamp/fm_clock.hpp"
#include "timestamp/ts_arena.hpp"

namespace ct {

class FmStore {
 public:
  /// Computes and stores FM(e) for every event of the trace.
  explicit FmStore(const Trace& trace);

  const Trace& trace() const { return trace_; }

  /// By value: the arena layout materializes on demand. Callers on the hot
  /// path use precedes(), which reads one pooled component instead.
  FmClock clock(EventId e) const;

  /// Precedence via the stored vectors (constant time).
  bool precedes(EventId e, EventId f) const;

  bool concurrent(EventId e, EventId f) const {
    return e != f && !precedes(e, f) && !precedes(f, e);
  }

  /// Total stored vector elements (= event_count × process_count); the raw
  /// footprint the paper's 4 GB thousand-process example is computed from.
  std::size_t stored_elements() const;

  /// Elements physically resident after interning (sync halves share pool
  /// rows).
  std::size_t resident_elements() const;

 private:
  const Trace& trace_;
  TsArena arena_;
};

}  // namespace ct
