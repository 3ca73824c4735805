// Generalized cluster-timestamp precedence test.
//
// The fast test in ClusterTimestampEngine::precedes relies on clusters that
// only ever grow (merge), which lets it consult just the greatest cluster
// receive per covered process. The engines for §5's future-work variants
// break that property: process migration reassigns cluster membership, and
// multi-level hierarchies store intermediate projections instead of full
// vectors. This recursive test is correct for ANY assignment of stored
// timestamps that satisfies two local rules:
//
//   R1. every event's stored timestamp covers the event's own process;
//   R2. a receive-like event whose partner process is outside its stored
//       snapshot does not exist — i.e. whenever an event receives from
//       process s, its stored timestamp covers s (by storing a wide-enough
//       projection or the full vector).
//
// Test: e → f holds iff f's timestamp covers p_e (then one exact comparison,
// since FM(e)[p_e] = index(e)), or recursively e → event(q, B_q) for some
// covered process q, where B_q = TS(f)[q] (and B_q = index(f) − 1 for f's own
// process). Soundness: every recursion step follows real causality.
// Completeness (induction on delivery position): a causal path from e into
// covered(f) last enters it at some r in process q* with index(r) ≤ TS(f)[q*]
// — or at f itself, in which case R2 puts p of the sender in covered(f) and
// the direct comparison decides. Monotone memoization (per-process max bound
// already explored) makes the walk terminate; pruned branches are subsumed
// because e → (q, b) implies e → (q, b') for any b' ≥ b.
#pragma once

#include <cstdint>
#include <functional>

#include "core/cluster_timestamp.hpp"
#include "model/event.hpp"

namespace ct {

/// Looks up the stored cluster timestamp of an observed event (by value:
/// the cluster engine materializes it from its arena row).
using TimestampLookup = std::function<ClusterTimestamp(EventId)>;

/// Returns whether `e` happened before `f` given stored timestamps obeying
/// rules R1/R2 above. `comparisons`, if non-null, accrues the number of
/// component comparisons performed (query-cost probe).
bool recursive_precedes(const Event& ev_e, const Event& ev_f,
                        std::size_t process_count,
                        const TimestampLookup& timestamp,
                        std::uint64_t* comparisons = nullptr);

}  // namespace ct
