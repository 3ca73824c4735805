// Fault-tolerant ingestion tests (docs/FAULT_MODEL.md): the seeded fault
// injector, quarantine/eviction accounting under drop/dup/reorder/corrupt
// faults on every trace family of the standard suite. Checkpoint/restore
// round trips live in store_test.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "model/event.hpp"
#include "monitor/fault_injector.hpp"
#include "monitor/monitor.hpp"
#include "timestamp/fm_store.hpp"
#include "trace/generators.hpp"
#include "trace/suite.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace ct {
namespace {

/// Interleaves a trace's per-process streams into one arrival sequence:
/// per-process FIFO, cross-process schedule shuffled and bursty.
std::vector<Event> interleave(const Trace& t, std::uint64_t seed) {
  std::vector<std::vector<Event>> streams(t.process_count());
  for (const EventId id : t.delivery_order()) {
    streams[id.process].push_back(t.event(id));
  }
  std::vector<std::size_t> cursor(t.process_count(), 0);
  std::vector<Event> arrival;
  arrival.reserve(t.event_count());
  Prng rng(seed);
  std::size_t remaining = t.event_count();
  while (remaining > 0) {
    ProcessId p;
    do {
      p = static_cast<ProcessId>(rng.index(t.process_count()));
    } while (cursor[p] >= streams[p].size());
    const std::size_t burst = 1 + rng.index(4);
    for (std::size_t k = 0; k < burst && cursor[p] < streams[p].size(); ++k) {
      arrival.push_back(streams[p][cursor[p]++]);
      --remaining;
    }
  }
  return arrival;
}

const SuiteEntry& suite_entry(const std::string& id) {
  for (const SuiteEntry& entry : standard_suite()) {
    if (entry.id == id) return entry;
  }
  CT_CHECK_MSG(false, "suite entry '" << id << "' not found");
  return standard_suite().front();
}

// One moderate-size computation per trace family of src/trace/suite.cpp.
const char* kFamilyRepresentatives[] = {
    "pvm/wavefront-9x9",   // kPvm
    "java/pubsub-84",      // kJava
    "dce/chain-50",        // kDce (synchronous pairs)
    "ctl/local-60-tight",  // kControl
};

// --------------------------------------------------------- fault injector

TEST(FaultInjector, DeterministicForAGivenSeed) {
  const Trace t = suite_entry("pvm/wavefront-9x9").make();
  const auto arrival = interleave(t, 3);

  const auto run = [&](std::uint64_t seed) {
    std::vector<Event> emitted;
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_rate = 0.03;
    plan.dup_rate = 0.03;
    plan.reorder_rate = 0.05;
    plan.corrupt_rate = 0.02;
    FaultInjector injector(plan,
                           [&](const Event& e) { emitted.push_back(e); });
    for (const Event& e : arrival) injector.push(e);
    injector.flush();
    EXPECT_EQ(injector.stats().seen, arrival.size());
    return emitted;
  };

  const auto first = run(42);
  const auto second = run(42);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i], second[i]) << "divergence at " << i;
  }
}

TEST(FaultInjector, CleanPlanIsTransparent) {
  const Trace t = suite_entry("ctl/local-60-tight").make();
  const auto arrival = interleave(t, 5);
  std::vector<Event> emitted;
  FaultInjector injector(FaultPlan{.seed = 1},
                         [&](const Event& e) { emitted.push_back(e); });
  for (const Event& e : arrival) injector.push(e);
  injector.flush();
  ASSERT_EQ(emitted.size(), arrival.size());
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    ASSERT_EQ(emitted[i], arrival[i]);
  }
}

// ------------------------------------- degradation under drop/dup/reorder

// With seeded 1–5% drop/dup/reorder on a representative of every trace
// family, the monitor must absorb the stream without crashing, its health
// counters must account for every record, and precedence answers on pairs
// of fully-delivered events must agree with the Fidge/Mattern oracle.
TEST(FaultTolerance, EveryFamilySurvivesLossAndAgreesWithOracleOnDelivered) {
  for (const char* id : kFamilyRepresentatives) {
    const Trace t = suite_entry(id).make();
    const FmStore oracle(t);
    const auto arrival = interleave(t, 11);

    for (const double rate : {0.01, 0.05}) {
      MonitorOptions options;
      options.cluster.max_cluster_size = 8;
      options.cluster.fm_vector_width = 300;
      MonitoringEntity monitor(t.process_count(), options);

      FaultPlan plan;
      plan.seed = 1000 + static_cast<std::uint64_t>(rate * 100);
      plan.drop_rate = rate;
      plan.dup_rate = rate;
      plan.reorder_rate = rate;
      FaultInjector injector(plan,
                             [&](const Event& e) { monitor.ingest(e); });
      for (const Event& e : arrival) injector.push(e);
      injector.flush();

      const MonitorHealth health = monitor.health();
      ASSERT_TRUE(health.accounted())
          << id << " rate " << rate << ": ingested " << health.ingested
          << " != delivered " << health.delivered << " + dup "
          << health.duplicates << " + rejected " << health.rejected
          << " + evicted " << health.evicted << " + pending "
          << health.pending << " + quarantined " << health.quarantined;
      ASSERT_EQ(health.ingested, injector.stats().forwarded) << id;
      ASSERT_EQ(health.delivered, monitor.stored()) << id;
      // Losses really occurred and really cost deliveries.
      ASSERT_GT(injector.stats().dropped, 0u) << id;
      ASSERT_LT(monitor.stored(), t.event_count()) << id;

      // Delivered events of each process form a contiguous prefix; sampled
      // precedence answers on delivered pairs match the oracle exactly.
      // (Loss cascades through receives, so under heavy drop rates on
      // tightly coupled computations the delivered set can be small — we
      // sample from it directly.)
      std::vector<EventId> deliverable;
      for (ProcessId p = 0; p < t.process_count(); ++p) {
        for (EventIndex i = 1; i <= monitor.delivered_count(p); ++i) {
          deliverable.push_back(EventId{p, i});
        }
      }
      ASSERT_EQ(deliverable.size(), monitor.stored()) << id;
      ASSERT_GT(deliverable.size(), 1u) << id;
      Prng rng(17);
      for (int q = 0; q < 4000; ++q) {
        const EventId e = rng.pick(deliverable);
        const EventId f = rng.pick(deliverable);
        ASSERT_EQ(monitor.precedes(e, f), oracle.precedes(e, f))
            << id << " rate " << rate << ": " << e << " vs " << f;
      }
    }
  }
}

// Corruption on top, with bounded buffering: still no crash, still fully
// accounted. (Corrupted records may parse as plausible events, so oracle
// agreement is out of scope here — docs/FAULT_MODEL.md.)
TEST(FaultTolerance, CorruptionWithBoundedBufferStaysAccounted) {
  for (const char* id : kFamilyRepresentatives) {
    const Trace t = suite_entry(id).make();
    const auto arrival = interleave(t, 23);

    MonitorOptions options;
    options.cluster.max_cluster_size = 8;
    options.cluster.fm_vector_width = 300;
    options.delivery.max_buffered = 256;
    options.delivery.orphan_timeout = 2000;
    MonitoringEntity monitor(t.process_count(), options);

    FaultPlan plan;
    plan.seed = 99;
    plan.drop_rate = 0.02;
    plan.dup_rate = 0.02;
    plan.reorder_rate = 0.03;
    plan.corrupt_rate = 0.02;
    FaultInjector injector(plan,
                           [&](const Event& e) { monitor.ingest(e); });
    for (const Event& e : arrival) injector.push(e);
    injector.flush();

    const MonitorHealth health = monitor.health();
    ASSERT_TRUE(health.accounted()) << id;
    ASSERT_LE(health.pending + health.quarantined, 256u) << id;
    ASSERT_GT(injector.stats().corrupted, 0u) << id;
    // Corrupt kinds / out-of-range processes must have been caught.
    ASSERT_GT(health.rejected + health.quarantined + health.evicted, 0u)
        << id;
  }
}

// ------------------------------------------------- accounting property test

// Property: the MonitorHealth conservation law
//   ingested == delivered + duplicates + rejected + evicted
//            + pending + quarantined
// holds under combined drop+duplicate+reorder faults on EVERY computation
// of the frozen 54-entry suite, for both unbounded and bounded buffering.
TEST(FaultTolerance, HealthInvariantHoldsAcrossEntireSuite) {
  const std::vector<Trace> traces = generate_standard_suite();
  const auto& entries = standard_suite();
  ASSERT_EQ(traces.size(), entries.size());

  for (std::size_t i = 0; i < traces.size(); ++i) {
    const Trace& t = traces[i];
    const auto arrival = interleave(t, 41 + i);

    for (const bool bounded : {false, true}) {
      MonitorOptions options;
      options.cluster.max_cluster_size = 8;
      options.cluster.fm_vector_width = 300;
      if (bounded) {
        options.delivery.max_buffered = 128;
        options.delivery.orphan_timeout = 1000;
      }
      MonitoringEntity monitor(t.process_count(), options);

      FaultPlan plan;
      plan.seed = 7000 + i;
      plan.drop_rate = 0.02;
      plan.dup_rate = 0.04;
      plan.reorder_rate = 0.06;
      FaultInjector injector(plan,
                             [&](const Event& e) { monitor.ingest(e); });
      for (const Event& e : arrival) injector.push(e);
      injector.flush();

      const MonitorHealth health = monitor.health();
      ASSERT_TRUE(health.accounted())
          << entries[i].id << (bounded ? " (bounded)" : " (unbounded)")
          << ": ingested " << health.ingested << " != delivered "
          << health.delivered << " + dup " << health.duplicates
          << " + rejected " << health.rejected << " + evicted "
          << health.evicted << " + pending " << health.pending
          << " + quarantined " << health.quarantined;
      ASSERT_EQ(health.ingested, injector.stats().forwarded)
          << entries[i].id;
      ASSERT_EQ(health.delivered, monitor.stored()) << entries[i].id;
      if (bounded) {
        ASSERT_LE(health.pending + health.quarantined, 128u)
            << entries[i].id;
      }
    }
  }
}

}  // namespace
}  // namespace ct
