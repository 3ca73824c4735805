// Tests for the deterministic simulation checker (src/simcheck): schedule
// generation determinism, clean differential runs across the verification
// matrix, replay round-trips, and — the harness's own acceptance test — a
// planted oracle bug that must be caught and shrunk to a tiny replay.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "model/trace.hpp"
#include "simcheck/generator.hpp"
#include "simcheck/oracle.hpp"
#include "simcheck/replay_io.hpp"
#include "simcheck/schedule.hpp"
#include "simcheck/shrink.hpp"
#include "trace/generators.hpp"
#include "util/check.hpp"

namespace ct {
namespace {

/// Small deterministic config window covering every backend once.
std::vector<OracleConfig> small_window() {
  return {
      OracleConfig{SimBackend::kEngine, SimStrategy::kMergeFirst, 8},
      OracleConfig{SimBackend::kEngine, SimStrategy::kStaticGreedy, 4},
      OracleConfig{SimBackend::kCompact, SimStrategy::kMergeNth, 16},
      OracleConfig{SimBackend::kRecursive, SimStrategy::kFixedContiguous, 4},
      OracleConfig{SimBackend::kBatchHybrid, SimStrategy::kMergeNth, 8},
      OracleConfig{SimBackend::kBroker, SimStrategy::kMergeFirst, 8},
  };
}

TEST(ScheduleGenerator, DeterministicPerSeed) {
  const SimSchedule a = generate_schedule(42);
  const SimSchedule b = generate_schedule(42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.digest(), b.digest());

  const SimSchedule c = generate_schedule(43);
  EXPECT_NE(a.digest(), c.digest());
}

TEST(ScheduleGenerator, ProducesAllOpKinds) {
  // Across a handful of seeds every op kind must appear (each individual
  // schedule draws its aux-op counts randomly and may omit some).
  std::set<SimOp::Kind> seen;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const SimSchedule s = generate_schedule(seed);
    EXPECT_GT(s.emit_count(), 0u) << "seed " << seed;
    EXPECT_GE(s.probe_count(), 3u) << "seed " << seed;
    // The last op is always the final full probe.
    EXPECT_EQ(s.ops.back().kind, SimOp::Kind::kProbe);
    EXPECT_EQ(s.ops.back().c, 0u);
    for (const SimOp& op : s.ops) seen.insert(op.kind);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(AdversarialMotif, HasTheAdvertisedEdges) {
  AdversarialOptions o;
  o.processes = 12;
  o.groups = 3;
  o.messages = 300;
  o.seed = 9;
  const Trace t = generate_adversarial(o);
  EXPECT_EQ(t.process_count(), 12u);
  EXPECT_GT(t.count(EventKind::kSync), 0u);
  // Some sends stay permanently in flight (unreceived stragglers).
  EXPECT_GT(t.count(EventKind::kSend), t.count(EventKind::kReceive));
  // Self-messages: at least one receive partnered with its own process.
  bool self_message = false;
  for (ProcessId p = 0; p < t.process_count() && !self_message; ++p) {
    for (const Event& e : t.process_events(p)) {
      if (e.kind == EventKind::kReceive && e.partner.process == e.id.process) {
        self_message = true;
        break;
      }
    }
  }
  EXPECT_TRUE(self_message);
}

TEST(DifferentialOracle, CleanSeedsRunWithoutDivergence) {
  const auto window = small_window();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const SimSchedule s = generate_schedule(seed);
    const SimReport report = run_schedule(s, window);
    EXPECT_TRUE(report.ok())
        << "seed " << seed << " diverged at op "
        << report.divergence->op_index << " [" << report.divergence->config
        << "]: " << report.divergence->detail;
    EXPECT_EQ(report.ops_run, s.ops.size());
    EXPECT_GE(report.probes, 3u);
    EXPECT_GT(report.checks, 0u);
  }
}

TEST(DifferentialOracle, FullMatrixShape) {
  const auto matrix = full_matrix();
  // engine/recursive/batch-hybrid ×4×3 + compact ×4×3×2 codecs
  // + broker ×2×3 + tree
  EXPECT_EQ(matrix.size(), 67u);
  std::set<std::string> labels;
  for (const OracleConfig& cfg : matrix) labels.insert(cfg.label());
  EXPECT_EQ(labels.size(), matrix.size());  // labels are unique
}

TEST(ReplayIo, RoundTripsBitExactly) {
  const SimSchedule s = generate_schedule(77);
  std::stringstream buffer;
  save_replay(buffer, s);
  const SimSchedule loaded = load_replay(buffer);
  EXPECT_EQ(s, loaded);
  EXPECT_EQ(s.digest(), loaded.digest());
}

// Older replays carry the retired engine-layout token; it must still load
// (and be dropped on save, so a re-saved replay no longer mentions it).
TEST(ReplayIo, AcceptsAndDropsRetiredArenaToken) {
  std::stringstream old_format(
      "# ct-simcheck-replay v1\n"
      "name legacy\n"
      "seed 3\n"
      "processes 2\n"
      "engine maxcs=4 nth=2 arena=0\n"
      "e 0 1 0 0 0\n");
  const SimSchedule loaded = load_replay(old_format);
  EXPECT_EQ(loaded.max_cluster_size, 4u);
  EXPECT_EQ(loaded.nth_threshold, 2.0);
  ASSERT_EQ(loaded.ops.size(), 1u);

  std::stringstream saved;
  save_replay(saved, loaded);
  EXPECT_EQ(saved.str().find("arena"), std::string::npos);
  EXPECT_EQ(load_replay(saved), loaded);
}

TEST(ReplayIo, RejectsMalformedInput) {
  std::stringstream bad("not a replay\n");
  EXPECT_THROW(load_replay(bad), CheckFailure);
}

// The acceptance check of the whole harness: plant an "oracle bug" — a
// hook that flips the engine backend's answer for cross-process pairs that
// truly precede — and require the differential run to catch it and the
// shrinker to minimize the witness to a tiny standalone replay.
TEST(Shrinker, PlantedMutationIsCaughtAndShrunk) {
  SimHooks hooks;
  hooks.mutate = [](const OracleConfig& cfg, EventId e, EventId f,
                    bool answer) {
    if (cfg.backend == SimBackend::kEngine && e.process != f.process &&
        answer) {
      return false;  // the planted bug: deny true cross-process precedence
    }
    return answer;
  };
  const auto window = small_window();

  const SimSchedule schedule = generate_schedule(5);
  const SimReport mutated = run_schedule(schedule, window, &hooks);
  ASSERT_FALSE(mutated.ok()) << "planted mutation was not caught";

  const ShrinkResult shrunk = shrink_schedule(
      schedule, [&](const SimSchedule& candidate) {
        return !run_schedule(candidate, window, &hooks).ok();
      });

  // The witness must still fail under the mutation...
  EXPECT_FALSE(run_schedule(shrunk.schedule, window, &hooks).ok());
  // ...be clean under the real oracle (the bug is planted, not real)...
  const SimReport clean = run_schedule(shrunk.schedule, window);
  EXPECT_TRUE(clean.ok()) << clean.divergence->detail;
  // ...and be small: a cross-process happens-before needs only one message.
  EXPECT_LE(shrunk.schedule.emit_count(), 25u)
      << "shrinker left " << shrunk.schedule.emit_count() << " emits";
  EXPECT_LE(shrunk.schedule.probe_count(), 2u);

  // The minimized witness round-trips through the replay format.
  std::stringstream buffer;
  save_replay(buffer, shrunk.schedule);
  const SimSchedule loaded = load_replay(buffer);
  EXPECT_FALSE(run_schedule(loaded, window, &hooks).ok());
}

TEST(Shrinker, RequiresAFailingInput) {
  const auto window = small_window();
  const SimSchedule s = generate_schedule(3);
  EXPECT_THROW(
      shrink_schedule(s,
                      [](const SimSchedule&) { return false; }),
      CheckFailure);
}

}  // namespace
}  // namespace ct
