// Standalone replay files for minimized schedules.
//
// A replay file is the complete, self-contained description of one schedule
// — configuration header plus one line per op — so a divergence found by a
// randomized sweep (possibly on another machine, under another seed regime)
// can be checked into tests/simcheck_corpus/ and re-run forever as an
// ordinary ctest case. The format is line-oriented text in the spirit of
// trace/trace_io.hpp: diffable, mergeable, and inspectable with a pager.
//
//   # ct-simcheck-replay v1
//   name <token>
//   seed <u64>
//   processes <u32>
//   engine maxcs=<u32> nth=<double>   (a retired arena=<0|1> is ignored)
//   e <proc> <idx> <kind> <partner-proc> <partner-idx>   (one emit)
//   k                                                    (checkpoint/restore)
//   b <a>                                                (rebuild)
//   x <a> <b> <c> <d>                                    (corrupt+repair)
//   q <a> <b> <c> <d>                                    (probe)
//
// Emits are stored verbatim — including corrupted records whose fields are
// arbitrary 32-bit values — so loading reproduces the channel byte stream
// exactly. The nth threshold round-trips through max_digits10 formatting.
#pragma once

#include <iosfwd>
#include <string>

#include "simcheck/schedule.hpp"

namespace ct {

void save_replay(std::ostream& out, const SimSchedule& schedule);

/// Parses a replay; throws CheckFailure on malformed input or version
/// mismatch.
SimSchedule load_replay(std::istream& in);

/// File-path conveniences; errors include the path.
void save_replay(const std::string& path, const SimSchedule& schedule);
SimSchedule load_replay(const std::string& path);

}  // namespace ct
