// Out-of-core columnar snapshot store tests (docs/FAULT_MODEL.md §10): CTC1
// encode/parse roundtrips, mapped-view answer identity against the live
// engine, the atomic-rename publication protocol under stale-rename crashes,
// the recovery ladder's rung-by-rung behavior and rejection accounting
// across clustering strategies, exhaustive footer bit-flip detection, the
// seeded whole-image corruption fuzz, checkpoint round trips through the
// ladder, exhaustive truncation and multi-byte corruption sweeps, and the
// columnar crash-sweep smoke.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "durability/recovery.hpp"
#include "durability/storage.hpp"
#include "durability/wal.hpp"
#include "model/event.hpp"
#include "monitor/monitor.hpp"
#include "simcheck/crash_sweep.hpp"
#include "simcheck/generator.hpp"
#include "simcheck/schedule.hpp"
#include "store/format.hpp"
#include "store/mapped_view.hpp"
#include "store/recovery_ladder.hpp"
#include "store/snapshot_store.hpp"
#include "trace/generators.hpp"
#include "trace/suite.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace ct {
namespace {

Event make(ProcessId p, EventIndex i, EventKind k,
           EventId partner = kNoEvent) {
  Event e;
  e.id = EventId{p, i};
  e.kind = k;
  e.partner = partner;
  return e;
}

/// A small causally ordered stream: rounds of unary events with a
/// send/receive between neighbors each round.
std::vector<Event> small_stream(std::size_t n, std::size_t rounds) {
  std::vector<Event> out;
  std::vector<EventIndex> next(n, 1);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (ProcessId p = 0; p < n; ++p) {
      out.push_back(make(p, next[p]++, EventKind::kUnary));
    }
    const ProcessId a = static_cast<ProcessId>(r % n);
    const ProcessId b = static_cast<ProcessId>((r + 1) % n);
    const EventIndex ai = next[a]++;
    const EventIndex bi = next[b]++;
    out.push_back(make(a, ai, EventKind::kSend, EventId{b, bi}));
    out.push_back(make(b, bi, EventKind::kReceive, EventId{a, ai}));
  }
  return out;
}

struct Strategy {
  const char* name;
  MonitorOptions options;
};

/// The four clustering strategies every durability property must hold for.
std::vector<Strategy> strategies(std::size_t process_count) {
  MonitorOptions base;
  base.backend = TimestampBackend::kClusterDynamic;
  base.cluster.max_cluster_size = 4;
  base.cluster.fm_vector_width = process_count;
  std::vector<Strategy> out;
  MonitorOptions fm;
  fm.backend = TimestampBackend::kPrecomputedFm;
  fm.cluster.fm_vector_width = process_count;
  out.push_back({"precomputed-fm", fm});
  MonitorOptions first = base;
  first.nth_threshold = -1.0;  // merge-on-1st
  out.push_back({"merge-1st", first});
  MonitorOptions nth = base;
  nth.nth_threshold = 4.0;
  out.push_back({"merge-nth/4", nth});
  MonitorOptions slow = base;
  slow.nth_threshold = 10.0;
  out.push_back({"merge-nth/10", slow});
  return out;
}

std::unique_ptr<MonitoringEntity> fed_monitor(const MonitorOptions& options,
                                              std::size_t process_count,
                                              const std::vector<Event>& s) {
  auto monitor = std::make_unique<MonitoringEntity>(process_count, options);
  for (const Event& e : s) monitor->ingest(e);
  return monitor;
}

// ---------------------------------------------------------------------------
// CTC1 format: encode/parse roundtrip
// ---------------------------------------------------------------------------

TEST(ColumnarFormat, RoundTripsManifestAcrossStrategies) {
  const std::vector<Event> stream = small_stream(5, 12);
  for (const Strategy& s : strategies(5)) {
    SCOPED_TRACE(s.name);
    const auto monitor = fed_monitor(s.options, 5, stream);
    const std::string image = encode_columnar(*monitor, 7);
    const ColumnarManifest m = parse_columnar_manifest(image);
    EXPECT_EQ(m.generation, 7u);
    EXPECT_EQ(m.process_count, 5u);
    EXPECT_EQ(m.event_count, monitor->delivery_log().size());
    EXPECT_EQ(m.wal_position, m.event_count);
    EXPECT_EQ(m.state_digest, monitor->state_digest());
    EXPECT_EQ(m.has_arena, monitor->can_export_arena());
    EXPECT_EQ(m.columns.size(),
              m.has_arena ? kColumnarColumnCount : kEventColumnCount);
    EXPECT_NO_THROW(verify_columnar_blocks(image, m));

    MappedSnapshot snap(ColdBytes::from_string(image));
    EXPECT_NO_THROW(snap.verify_structure());
    for (std::uint64_t i = 0; i < m.event_count; ++i) {
      const Event want = *monitor->find(monitor->delivery_log()[i]);
      EXPECT_EQ(snap.event(i), want) << "event " << i;
    }
  }
}

TEST(ColumnarFormat, MappedPrecedenceMatchesTheLiveEngine) {
  const std::vector<Event> stream = small_stream(6, 15);
  MonitorOptions mo = strategies(6)[2].options;  // merge-nth/4
  const auto monitor = fed_monitor(mo, 6, stream);
  ASSERT_TRUE(monitor->can_export_arena());

  MappedSnapshot snap(
      ColdBytes::from_string(encode_columnar(*monitor, 1)));
  ASSERT_TRUE(snap.has_arena());
  snap.verify_blocks();
  snap.verify_structure();
  const auto log = monitor->delivery_log();
  ASSERT_EQ(snap.event_count(), log.size());
  for (const EventId e : log) {
    EXPECT_EQ(snap.delivered_count(e.process),
              monitor->delivered_count(e.process));
    for (const EventId f : log) {
      const Event ee = *monitor->find(e);
      const Event ef = *monitor->find(f);
      EXPECT_EQ(snap.precedes(ee, ef), monitor->precedes(e, f))
          << e << " ?< " << f;
    }
  }
}

TEST(ColumnarFormat, NamingRoundTripsAndRejectsForeignNames) {
  EXPECT_EQ(columnar_object_name(12), "ctc-12.col");
  EXPECT_EQ(columnar_tmp_name(12, "tenant-3."), "tenant-3.ctc-12.col.tmp");
  EXPECT_EQ(parse_columnar_name("ctc-12.col").value_or(0), 12u);
  EXPECT_EQ(parse_columnar_name("tenant-3.ctc-9.col", "tenant-3.").value_or(0),
            9u);
  EXPECT_FALSE(parse_columnar_name("ctc-12.col.tmp").has_value());
  EXPECT_FALSE(parse_columnar_name("ctc-12.col", "tenant-3.").has_value());
  EXPECT_FALSE(parse_columnar_name("wal-12.log").has_value());
  EXPECT_FALSE(parse_columnar_name("ctc-.col").has_value());
  EXPECT_FALSE(parse_columnar_name("ctc-1x.col").has_value());
  EXPECT_TRUE(is_columnar_tmp_name("ctc-12.col.tmp"));
  EXPECT_FALSE(is_columnar_tmp_name("ctc-12.col"));
}

// ---------------------------------------------------------------------------
// Storage rename + stale-rename crash materialization
// ---------------------------------------------------------------------------

TEST(StorageRename, SimulatedRenameMovesDataAndReplacesTarget) {
  SimulatedStorage sim;
  sim.create("a");
  sim.append("a", "alpha");
  sim.create("b");
  sim.append("b", "beta");
  sim.rename("a", "b");
  EXPECT_FALSE(sim.exists("a"));
  EXPECT_EQ(sim.read("b"), "alpha");
  EXPECT_EQ(sim.rename_points().size(), 1u);
}

TEST(StorageRename, FileStorageRenames) {
  const std::string root =
      ::testing::TempDir() + "ct_store_rename_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  FileStorage files(root);
  files.create("x.tmp");
  files.append("x.tmp", "payload");
  files.sync("x.tmp");
  files.rename("x.tmp", "x");
  files.sync_dir();
  EXPECT_FALSE(files.exists("x.tmp"));
  EXPECT_EQ(files.read("x"), "payload");
  for (const std::string& name : files.list()) files.remove(name);
}

TEST(StorageRename, StaleRenameRevertsAnUnsyncedPublication) {
  SimulatedStorage sim;
  sim.create("g.tmp");
  sim.append("g.tmp", "image");
  sim.sync("g.tmp");
  sim.rename("g.tmp", "g");
  // No sync_dir: the rename is in the volatile directory only.
  {
    const auto img =
        sim.materialize({sim.op_count(), CrashFault::kStaleRename, 3});
    EXPECT_TRUE(img->exists("g.tmp"));
    EXPECT_FALSE(img->exists("g"));
    EXPECT_EQ(img->read("g.tmp"), "image");  // bytes survive, name reverts
  }
  sim.sync_dir();
  {
    const auto img =
        sim.materialize({sim.op_count(), CrashFault::kStaleRename, 3});
    EXPECT_TRUE(img->exists("g"));  // durable rename cannot revert
    EXPECT_FALSE(img->exists("g.tmp"));
  }
}

// ---------------------------------------------------------------------------
// Publication protocol
// ---------------------------------------------------------------------------

TEST(ColumnarPublish, PublishesPrunesAndQuarantinesTmps) {
  const std::vector<Event> stream = small_stream(4, 10);
  const auto monitor = fed_monitor(strategies(4)[2].options, 4, stream);
  SimulatedStorage sim;
  ColumnarPublishOptions copts;
  copts.retain_generations = 2;
  for (std::uint64_t g = 1; g <= 4; ++g) {
    const ColumnarPublishResult r =
        publish_columnar(sim, *monitor, g, copts);
    EXPECT_EQ(r.generation, g);
    EXPECT_EQ(r.object, columnar_object_name(g));
    EXPECT_EQ(r.wal_position, monitor->delivery_log().size());
  }
  const auto gens = list_columnar(sim);
  ASSERT_EQ(gens.size(), 2u);  // retention window
  EXPECT_EQ(gens[0].first, 3u);
  EXPECT_EQ(gens[1].first, 4u);
  EXPECT_TRUE(list_columnar_tmps(sim).empty());

  // A crash mid-publication (before the rename) leaves only a tmp, which
  // the ladder quarantines and the next publication sweeps away.
  sim.create(columnar_tmp_name(9));
  sim.append(columnar_tmp_name(9), "torn half-published image");
  EXPECT_EQ(list_columnar_tmps(sim).size(), 1u);
  const LadderRecovery rec = recover_with_ladder(sim, 4, MonitorOptions{});
  EXPECT_EQ(rec.health.tmp_quarantined, 1u);
  publish_columnar(sim, *monitor, 5, copts);
  EXPECT_TRUE(list_columnar_tmps(sim).empty());
}

// ---------------------------------------------------------------------------
// Recovery ladder: every rung, across strategies, with loud accounting
// ---------------------------------------------------------------------------

struct LadderRig {
  SimulatedStorage sim;
  std::unique_ptr<MonitoringEntity> reference;
  std::uint32_t process_count = 5;
};

/// Feeds `stream` through a WAL-attached monitor and publishes generations
/// 1 (mid-stream) and 2 (at the end). Plain publications never prune the
/// WAL, so every rung below the mapped ones stays reachable.
LadderRig run_rig(const MonitorOptions& options,
                  const std::vector<Event>& stream) {
  LadderRig rig;
  rig.reference = std::make_unique<MonitoringEntity>(rig.process_count,
                                                     options);
  WalOptions wo;
  wo.policy = SyncPolicy::kEveryN;
  wo.sync_every = 4;
  DurableLog log(rig.sim, wo);
  rig.reference->set_delivery_tap(
      [&log](const Event& e) { log.append(e); });
  for (std::size_t i = 0; i < stream.size(); ++i) {
    rig.reference->ingest(stream[i]);
    if (i == stream.size() / 2) {
      log.sync();
      publish_columnar(rig.sim, *rig.reference, 1);
    }
  }
  log.sync();
  publish_columnar(rig.sim, *rig.reference, 2);
  rig.reference->set_delivery_tap(nullptr);
  return rig;
}

void expect_identical(const MonitoringEntity& got,
                      const MonitoringEntity& want) {
  EXPECT_EQ(got.state_digest(), want.state_digest());
  const auto glog = got.delivery_log();
  const auto wlog = want.delivery_log();
  ASSERT_EQ(glog.size(), wlog.size());
  EXPECT_TRUE(std::equal(glog.begin(), glog.end(), wlog.begin()));
  // FM-oracle answer identity on sampled pairs.
  Prng prng(99);
  for (std::size_t k = 0; k < 64 && !wlog.empty(); ++k) {
    const EventId e = wlog[prng.index(wlog.size())];
    const EventId f = wlog[prng.index(wlog.size())];
    EXPECT_EQ(got.precedes(e, f), want.precedes(e, f)) << e << " ?< " << f;
  }
}

TEST(RecoveryLadder, EveryRungRecoversIdenticallyAcrossStrategies) {
  const std::vector<Event> stream = small_stream(5, 14);
  for (const Strategy& s : strategies(5)) {
    SCOPED_TRACE(s.name);

    // ---- rung 1: newest columnar generation ----
    LadderRig rig = run_rig(s.options, stream);
    {
      const LadderRecovery rec =
          recover_with_ladder(rig.sim, 5, s.options);
      EXPECT_EQ(rec.rung, RecoveryRung::kMapped) << to_string(rec.rung);
      EXPECT_EQ(rec.generation, 2u);
      EXPECT_EQ(rec.health.total_rejected(), 0u);
      expect_identical(*rec.monitor, *rig.reference);
      // Idempotence: recovering the same image twice is byte-identical.
      const LadderRecovery again =
          recover_with_ladder(rig.sim, 5, s.options);
      EXPECT_EQ(again.rung, rec.rung);
      EXPECT_EQ(again.monitor->state_digest(),
                rec.monitor->state_digest());
    }

    // ---- rung 2: newest generation corrupt → prior generation + tail ----
    {
      const std::string newest = columnar_object_name(2);
      std::string bytes = rig.sim.read(newest);
      bytes[bytes.size() / 2] =
          static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
      rig.sim.remove(newest);
      rig.sim.create(newest);
      rig.sim.append(newest, bytes);
      const LadderRecovery rec =
          recover_with_ladder(rig.sim, 5, s.options);
      EXPECT_EQ(rec.rung, RecoveryRung::kMappedPrior) << to_string(rec.rung);
      EXPECT_EQ(rec.generation, 1u);
      EXPECT_EQ(rec.health.total_rejected(), 1u);
      ASSERT_EQ(rec.health.details.size(), 1u);
      EXPECT_NE(rec.health.details[0].find(newest), std::string::npos);
      expect_identical(*rec.monitor, *rig.reference);
    }

    // ---- rung 3: no columnar generations → full WAL replay ----
    {
      for (const auto& [gen, name] : list_columnar(rig.sim)) {
        (void)gen;
        rig.sim.remove(name);
      }
      const LadderRecovery rec =
          recover_with_ladder(rig.sim, 5, s.options);
      EXPECT_EQ(rec.rung, RecoveryRung::kWalReplay) << to_string(rec.rung);
      EXPECT_EQ(rec.health.generations_seen, 0u);
      expect_identical(*rec.monitor, *rig.reference);
    }

    // ---- rung 4: nothing at all → scratch ----
    {
      SimulatedStorage empty;
      const LadderRecovery rec = recover_with_ladder(empty, 5, s.options);
      EXPECT_EQ(rec.rung, RecoveryRung::kScratch) << to_string(rec.rung);
      EXPECT_EQ(rec.monitor->delivery_log().size(), 0u);
    }
  }
}

TEST(RecoveryLadder, RejectionCausesAreCountedSeparately) {
  const std::vector<Event> stream = small_stream(5, 10);
  const MonitorOptions mo = strategies(5)[2].options;

  // Name mismatch: a generation renamed to impersonate another.
  {
    LadderRig rig = run_rig(mo, stream);
    rig.sim.rename(columnar_object_name(2), columnar_object_name(9));
    const LadderRecovery rec = recover_with_ladder(rig.sim, 5, mo);
    EXPECT_EQ(rec.health.rejected_name_mismatch, 1u);
    // Gen 1 is still usable, but it is not the newest *listed* generation
    // (the impostor is), so it counts as the prior-generation rung.
    EXPECT_EQ(rec.rung, RecoveryRung::kMappedPrior);
    EXPECT_EQ(rec.generation, 1u);
  }

  // Position past the durable log end: the image covers records the WAL of
  // THIS storage never reached (a foreign or mis-copied snapshot).
  {
    LadderRig rig = run_rig(mo, stream);
    const std::string image = rig.sim.read(columnar_object_name(2));
    SimulatedStorage other;
    WalOptions wo;
    DurableLog log(other, wo);
    MonitoringEntity shortmon(5, mo);
    shortmon.set_delivery_tap([&log](const Event& e) { log.append(e); });
    for (std::size_t i = 0; i < 6; ++i) shortmon.ingest(stream[i]);
    log.sync();
    other.create(columnar_object_name(2));
    other.append(columnar_object_name(2), image);
    const LadderRecovery rec = recover_with_ladder(other, 5, mo);
    EXPECT_EQ(rec.health.rejected_position, 1u);
    EXPECT_NE(rec.rung, RecoveryRung::kMapped);
    ASSERT_EQ(rec.health.details.size(), 1u);
    EXPECT_NE(rec.health.details[0].find("past the durable log end"),
              std::string::npos);
  }

  // Checksum: a flipped byte inside a column is caught by the block CRCs
  // and tagged with its byte offset.
  {
    LadderRig rig = run_rig(mo, stream);
    const std::string name = columnar_object_name(2);
    std::string bytes = rig.sim.read(name);
    const ColumnarManifest m = parse_columnar_manifest(bytes);
    const ColumnInfo* pool = m.column(ColumnId::kPool);
    ASSERT_NE(pool, nullptr);
    ASSERT_GT(pool->bytes, 0u);
    const std::size_t victim = static_cast<std::size_t>(pool->offset) + 2;
    bytes[victim] = static_cast<char>(bytes[victim] ^ 1);
    rig.sim.remove(name);
    rig.sim.create(name);
    rig.sim.append(name, bytes);
    const LadderRecovery rec = recover_with_ladder(rig.sim, 5, mo);
    EXPECT_EQ(rec.health.rejected_checksum, 1u);
    EXPECT_EQ(rec.health.rejected_structural, 0u);
    EXPECT_EQ(rec.rung, RecoveryRung::kMappedPrior);
    ASSERT_EQ(rec.health.details.size(), 1u);
    EXPECT_NE(rec.health.details[0].find("byte offset"), std::string::npos);
  }
}

TEST(Recovery, WalGapAttestationAcceptsSnapshotAtPrunedLogHead) {
  // After checkpoint pruning, the newest segment may be empty: its header's
  // first_record_seq attests the log reached the checkpoint's position, so
  // the generation must NOT be rejected for a position gap.
  const std::vector<Event> stream = small_stream(4, 12);
  const MonitorOptions mo = strategies(4)[2].options;
  SimulatedStorage sim;
  WalOptions wo;
  wo.policy = SyncPolicy::kEveryRecord;
  wo.segment_bytes = 512;  // force rotation so pruning has prey
  MonitoringEntity monitor(4, mo);
  DurableLog log(sim, wo);
  monitor.set_delivery_tap([&log](const Event& e) { log.append(e); });
  for (const Event& e : stream) monitor.ingest(e);
  ColumnarPublishOptions copts;
  copts.retain_generations = 1;
  checkpoint(log, monitor, copts);  // prunes covered segments
  EXPECT_GT(log.stats().segments_pruned, 0u);
  const LadderRecovery rec = recover_with_ladder(sim, 4, mo);
  EXPECT_EQ(rec.health.rejected_position, 0u);
  EXPECT_EQ(rec.health.total_rejected(), 0u);
  EXPECT_EQ(rec.rung, RecoveryRung::kMapped) << to_string(rec.rung);
  EXPECT_EQ(rec.report.snapshot_object,
            columnar_object_name(stream.size()));
  EXPECT_EQ(rec.monitor->state_digest(), monitor.state_digest());
}

// ---------------------------------------------------------------------------
// Corruption detection: exhaustive footer flips + seeded whole-image fuzz
// ---------------------------------------------------------------------------

/// Detected = some verification tier throws; the full tier stack a ladder
/// rung runs before trusting an image.
bool detects(const std::string& image) {
  try {
    MappedSnapshot snap(ColdBytes::from_string(image));
    snap.verify_blocks();
    snap.verify_digests();
    snap.verify_structure();
    return false;
  } catch (const CheckFailure&) {
    return true;
  }
}

TEST(ColumnarCorruption, EveryFooterByteFlipIsDetected) {
  const std::vector<Event> stream = small_stream(4, 8);
  const auto monitor = fed_monitor(strategies(4)[2].options, 4, stream);
  const std::string image = encode_columnar(*monitor, 3);
  const ColumnarManifest m = parse_columnar_manifest(image);
  // Every byte of the footer manifest AND the 16-byte trailer.
  for (std::size_t at = static_cast<std::size_t>(m.footer_offset);
       at < image.size(); ++at) {
    for (const unsigned mask : {0x01u, 0x80u}) {
      std::string flipped = image;
      flipped[at] = static_cast<char>(
          static_cast<unsigned char>(flipped[at]) ^ mask);
      EXPECT_TRUE(detects(flipped))
          << "undetected flip of footer byte " << at << " mask " << mask;
    }
  }
}

TEST(ColumnarCorruption, EveryBlockCrcCoversItsBlock) {
  const std::vector<Event> stream = small_stream(4, 8);
  const auto monitor = fed_monitor(strategies(4)[2].options, 4, stream);
  const std::string image = encode_columnar(*monitor, 3, /*block_bytes=*/64);
  const ColumnarManifest m = parse_columnar_manifest(image);
  // One flip inside every CRC block of every column must be detected.
  for (const ColumnInfo& c : m.columns) {
    for (std::size_t b = 0; b < c.block_crcs.size(); ++b) {
      const std::size_t at = static_cast<std::size_t>(c.offset) + b * 64;
      std::string flipped = image;
      flipped[at] = static_cast<char>(
          static_cast<unsigned char>(flipped[at]) ^ 0x10);
      EXPECT_TRUE(detects(flipped))
          << "undetected flip in " << to_string(c.id) << " block " << b;
    }
  }
}

TEST(ColumnarCorruption, SeededFuzzEveryFlipDetectedOrAnswerIdentical) {
  const std::vector<Event> stream = small_stream(5, 10);
  const auto monitor = fed_monitor(strategies(5)[2].options, 5, stream);
  const std::string image = encode_columnar(*monitor, 1, /*block_bytes=*/256);
  const std::uint64_t want_digest = monitor->state_digest();

  Prng prng(20260809);
  std::size_t detected = 0;
  for (int round = 0; round < 300; ++round) {
    std::string fuzzed = image;
    const std::size_t at = prng.index(fuzzed.size());
    fuzzed[at] = static_cast<char>(static_cast<unsigned char>(fuzzed[at]) ^
                                   (1u << prng.index(8)));
    try {
      MappedSnapshot snap(ColdBytes::from_string(fuzzed));
      snap.verify_blocks();
      snap.verify_digests();
      snap.verify_structure();
      // Undetected: the flip must be semantically inert (alignment
      // padding). The restored state must be bit-identical.
      ASSERT_EQ(snap.manifest().state_digest, want_digest)
          << "round " << round << " byte " << at;
      const LadderRecovery check = [&] {
        SimulatedStorage sim;
        sim.create(columnar_object_name(1));
        sim.append(columnar_object_name(1), fuzzed);
        return recover_with_ladder(sim, 5, MonitorOptions{});
      }();
      ASSERT_EQ(check.rung, RecoveryRung::kMapped)
          << "round " << round << " byte " << at;
      ASSERT_EQ(check.monitor->state_digest(), want_digest)
          << "round " << round << " byte " << at;
    } catch (const CheckFailure&) {
      ++detected;  // loudly rejected: exactly what the ladder would do
    }
  }
  // Nearly every byte is checksummed; only pad bytes may slip through
  // (and those proved answer-identical above).
  EXPECT_GT(detected, 250u);
}

// ---------------------------------------------------------------------------
// Checkpoint round trips through the ladder
// ---------------------------------------------------------------------------

const SuiteEntry& suite_entry(const std::string& id) {
  for (const SuiteEntry& entry : standard_suite()) {
    if (entry.id == id) return entry;
  }
  CT_CHECK_MSG(false, "suite entry '" << id << "' not found");
  return standard_suite().front();
}

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

/// Checkpoints mid-stream (records still buffered), recovers on the mapped
/// rung, re-feeds the stream with overlap, and checks the restarted monitor
/// converges on the original bit for bit.
void round_trip_backend(TimestampBackend backend) {
  const Trace t = suite_entry("java/pubsub-84").make();
  const auto arrival = interleave(t, 31);
  const std::size_t cut = arrival.size() * 3 / 5;

  MonitorOptions options;
  options.backend = backend;
  options.cluster.max_cluster_size = 8;
  options.cluster.fm_vector_width = 300;
  MonitoringEntity original(t.process_count(), options);
  SimulatedStorage sim;
  {
    DurableLog log(sim, {});
    original.set_delivery_tap([&log](const Event& e) { log.append(e); });
    for (std::size_t i = 0; i < cut; ++i) original.ingest(arrival[i]);
    checkpoint(log, original);
    original.set_delivery_tap(nullptr);
  }
  ASSERT_GT(original.pending(), 0u)
      << "cut landed on a quiescent point; pick another seed";

  LadderRecovery rec = recover_with_ladder(sim, t.process_count(), options);
  ASSERT_EQ(rec.rung, RecoveryRung::kMapped) << to_string(rec.rung);
  EXPECT_EQ(rec.report.replayed, 0u);
  MonitoringEntity& restored = *rec.monitor;
  ASSERT_EQ(restored.stored(), original.stored());
  ASSERT_EQ(restored.state_digest(), original.state_digest());
  ASSERT_EQ(restored.timestamp_words(), original.timestamp_words());

  // Buffered-at-cut records are not in the checkpoint: replay the stream
  // with overlap — already-delivered records drop as duplicates — then the
  // tail.
  for (std::size_t i = 0; i < cut; ++i) restored.ingest(arrival[i]);
  for (std::size_t i = cut; i < arrival.size(); ++i) {
    original.ingest(arrival[i]);
    restored.ingest(arrival[i]);
  }
  ASSERT_EQ(original.stored(), t.event_count());
  ASSERT_EQ(restored.stored(), t.event_count());
  ASSERT_GT(restored.health().duplicates, 0u);
  ASSERT_TRUE(restored.health().accounted());

  // Identical precedence answers and identical storage accounting.
  ASSERT_EQ(restored.state_digest(), original.state_digest());
  ASSERT_EQ(restored.timestamp_words(), original.timestamp_words());
  Prng rng(37);
  const auto order = t.delivery_order();
  for (int q = 0; q < 4000; ++q) {
    const EventId e = order[rng.index(order.size())];
    const EventId f = order[rng.index(order.size())];
    ASSERT_EQ(restored.precedes(e, f), original.precedes(e, f))
        << e << " vs " << f;
  }
}

TEST(Snapshot, RoundTripMidStreamClusterBackend) {
  round_trip_backend(TimestampBackend::kClusterDynamic);
}

TEST(Snapshot, RoundTripMidStreamFmBackend) {
  round_trip_backend(TimestampBackend::kPrecomputedFm);
}

TEST(Snapshot, FileRoundTripAndPathInErrors) {
  const Trace t = suite_entry("ctl/local-60-tight").make();
  MonitorOptions options;
  options.cluster.max_cluster_size = 6;
  options.cluster.fm_vector_width = 300;
  MonitoringEntity monitor(t.process_count(), options);
  const std::string root =
      ::testing::TempDir() + "ct_store_checkpoint_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  FileStorage files(root);
  {
    DurableLog log(files, {});
    monitor.set_delivery_tap([&log](const Event& e) { log.append(e); });
    for (const EventId id : t.delivery_order()) monitor.ingest(t.event(id));
    const ColumnarPublishResult r = checkpoint(log, monitor);
    EXPECT_EQ(r.object, columnar_object_name(t.event_count()));
    monitor.set_delivery_tap(nullptr);
  }
  const LadderRecovery rec =
      recover_with_ladder(files, t.process_count(), options);
  EXPECT_EQ(rec.rung, RecoveryRung::kMapped) << to_string(rec.rung);
  EXPECT_EQ(rec.monitor->state_digest(), monitor.state_digest());

  try {
    (void)read_cold(files, "does-not-exist.col");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& f) {
    EXPECT_NE(std::string(f.what()).find("does-not-exist.col"),
              std::string::npos);
  }

  // A damaged generation on disk is rejected under its object name; the
  // WAL (one unpruned segment here) still recovers the monitor exactly.
  const std::string name = columnar_object_name(t.event_count());
  std::string bytes = files.read(name);
  bytes.back() = static_cast<char>(bytes.back() ^ 1);  // trailer magic
  files.remove(name);
  files.create(name);
  files.append(name, bytes);
  files.sync(name);
  const LadderRecovery bad =
      recover_with_ladder(files, t.process_count(), options);
  EXPECT_EQ(bad.rung, RecoveryRung::kWalReplay) << to_string(bad.rung);
  ASSERT_EQ(bad.health.details.size(), 1u);
  EXPECT_EQ(bad.health.details[0].rfind(name + ": ", 0), 0u)
      << bad.health.details[0];
  EXPECT_EQ(bad.monitor->state_digest(), monitor.state_digest());
  for (const std::string& obj : files.list()) files.remove(obj);
}

TEST(Snapshot, CorruptSnapshotsAreRejectedNotCrashing) {
  const Trace t = suite_entry("ctl/local-60-tight").make();
  MonitorOptions options;
  options.cluster.max_cluster_size = 6;
  options.cluster.fm_vector_width = 300;
  MonitoringEntity monitor(t.process_count(), options);
  for (const EventId id : t.delivery_order()) monitor.ingest(t.event(id));
  const std::string good = encode_columnar(monitor, 1);

  // Bad leading and trailing magic.
  for (const std::size_t at : {std::size_t{0}, good.size() - 1}) {
    std::string bad = good;
    bad[at] = static_cast<char>(bad[at] + 1);
    EXPECT_THROW((void)ColumnarRestorer::restore(bad), CheckFailure);
  }
  // Random mutations: restore either succeeds bit-identically (only pad
  // bytes escape the checksums) or throws.
  Prng rng(71);
  std::size_t rejected = 0;
  for (int round = 0; round < 60; ++round) {
    std::string bad = good;
    const std::size_t at = rng.index(bad.size());
    bad[at] = static_cast<char>(rng.uniform(0, 255));
    if (bad == good) continue;
    try {
      const auto restored = ColumnarRestorer::restore(bad);
      EXPECT_EQ(restored->state_digest(), monitor.state_digest());
    } catch (const CheckFailure&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 20u);
  // Truncations.
  for (const double frac : {0.1, 0.5, 0.9}) {
    EXPECT_THROW((void)ColumnarRestorer::restore(good.substr(
                     0, static_cast<std::size_t>(
                            static_cast<double>(good.size()) * frac))),
                 CheckFailure);
  }
}

// ---------------------------------------------------------------------------
// Hostile bytes: every truncation, multi-byte bursts
// ---------------------------------------------------------------------------

struct HostileImage {
  const char* name;
  std::string bytes;
  std::uint64_t digest = 0;
};

/// Small checkpoint images, so the exhaustive O(bytes²) truncation sweep
/// stays fast: one with the cluster backend (arena columns) and one with
/// precomputed FM (event columns only).
std::vector<HostileImage> hostile_images() {
  const Trace t = generate_rpc_business({.groups = 1,
                                         .clients_per_group = 2,
                                         .servers_per_group = 1,
                                         .calls = 12,
                                         .seed = 9});
  std::vector<HostileImage> out;
  for (const TimestampBackend backend :
       {TimestampBackend::kClusterDynamic, TimestampBackend::kPrecomputedFm}) {
    MonitorOptions options;
    options.backend = backend;
    options.cluster.max_cluster_size = 2;
    options.cluster.fm_vector_width = 8;
    MonitoringEntity monitor(t.process_count(), options);
    for (const EventId id : t.delivery_order()) monitor.ingest(t.event(id));
    out.push_back({backend == TimestampBackend::kClusterDynamic
                       ? "cluster"
                       : "precomputed-fm",
                   encode_columnar(monitor, 1), monitor.state_digest()});
  }
  return out;
}

/// The ladder over a store holding only `image`, as generation 1.
LadderRecovery recover_image(const std::string& image) {
  SimulatedStorage sim;
  sim.create(columnar_object_name(1));
  sim.append(columnar_object_name(1), image);
  return recover_with_ladder(sim, 1, MonitorOptions{});
}

// A checkpoint cut at *any* byte boundary must be rejected — never crash,
// hang, or silently restore a partial monitor.
TEST(Snapshot, EveryTruncationLengthIsRejected) {
  for (const HostileImage& image : hostile_images()) {
    SCOPED_TRACE(image.name);
    ASSERT_GT(image.bytes.size(), kColumnarTrailerBytes);
    for (std::size_t len = 0; len < image.bytes.size(); ++len) {
      const std::string cut = image.bytes.substr(0, len);
      EXPECT_TRUE(detects(cut))
          << "truncation to " << len << " of " << image.bytes.size()
          << " bytes passed verification";
      const LadderRecovery rec = recover_image(cut);
      EXPECT_NE(rec.rung, RecoveryRung::kMapped) << "truncation to " << len;
      EXPECT_EQ(rec.health.total_rejected(), 1u) << "truncation to " << len;
    }
    // The untruncated image still recovers.
    const LadderRecovery rec = recover_image(image.bytes);
    EXPECT_EQ(rec.rung, RecoveryRung::kMapped) << to_string(rec.rung);
    EXPECT_EQ(rec.monitor->state_digest(), image.digest);
  }
}

// Bursts of corrupted bytes (as from a torn or bit-rotted block), contiguous
// and scattered, are either rejected or provably harmless — a recovery
// that succeeds must be digest-identical to the original.
TEST(Snapshot, MultiByteCorruptionNeverSilentlyAccepted) {
  for (const HostileImage& image : hostile_images()) {
    SCOPED_TRACE(image.name);
    const std::string& good = image.bytes;
    Prng rng(113);
    std::size_t rejected = 0;
    for (int round = 0; round < 80; ++round) {
      std::string bad = good;
      const std::size_t burst = 2 + rng.index(15);  // 2..16 corrupted bytes
      const bool contiguous = round % 2 == 0;
      std::size_t at = rng.index(bad.size());
      for (std::size_t k = 0; k < burst; ++k) {
        if (!contiguous) at = rng.index(bad.size());
        bad[at % bad.size()] = static_cast<char>(rng.uniform(0, 255));
        ++at;
      }
      if (bad == good) continue;
      const LadderRecovery rec = recover_image(bad);
      if (rec.rung == RecoveryRung::kMapped) {
        EXPECT_EQ(rec.monitor->state_digest(), image.digest)
            << "round " << round << " restored a different monitor";
      } else {
        EXPECT_EQ(rec.health.total_rejected(), 1u) << "round " << round;
        ++rejected;
      }
    }
    EXPECT_GT(rejected, 40u);
  }
}

// ---------------------------------------------------------------------------
// Columnar crash-sweep smoke
// ---------------------------------------------------------------------------

TEST(ColumnarSweep, GeneratedSchedulesRecoverOnMappedRungs) {
  CrashSweepParams params;
  params.policy = SyncPolicy::kEveryN;
  params.sync_every = 8;
  params.torn_samples = 8;
  params.short_samples = 4;
  params.rot_samples = 2;
  params.stale_samples = 1;
  params.stale_rename_samples = 3;
  params.mapped_rot_samples = 3;
  for (const std::uint64_t seed : {11ull, 29ull}) {
    const SimSchedule schedule = generate_schedule(seed);
    const CrashSweepReport report = run_crash_sweep(schedule, params);
    ASSERT_TRUE(report.ok())
        << "seed " << seed << " cut " << report.divergence->op_index << " ["
        << report.divergence->config << "]: " << report.divergence->detail;
    EXPECT_GT(report.generations_published, 0u);
    EXPECT_GT(report.ladder_mapped, 0u);
    EXPECT_EQ(report.ladder_mapped + report.ladder_wal, report.crash_points);
  }
}

// ---------------------------------------------------------------------------
// Mapped cold path on real files
// ---------------------------------------------------------------------------

TEST(MappedView, FileStorageServesQueriesThroughMmap) {
  const std::vector<Event> stream = small_stream(5, 10);
  const auto monitor = fed_monitor(strategies(5)[2].options, 5, stream);
  const std::string root =
      ::testing::TempDir() + "ct_store_mmap_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  FileStorage files(root);
  publish_columnar(files, *monitor, 4);

  ColdBytes cold = read_cold(files, columnar_object_name(4));
  EXPECT_TRUE(cold.mapped());
  MappedSnapshot snap(std::move(cold));
  snap.verify_blocks();
  snap.verify_structure();
  const auto log = monitor->delivery_log();
  Prng prng(5);
  for (std::size_t k = 0; k < 200; ++k) {
    const EventId e = log[prng.index(log.size())];
    const EventId f = log[prng.index(log.size())];
    EXPECT_EQ(snap.precedes(*monitor->find(e), *monitor->find(f)),
              monitor->precedes(e, f));
  }
  const LadderRecovery rec = recover_with_ladder(files, 5, MonitorOptions{});
  EXPECT_EQ(rec.rung, RecoveryRung::kMapped);
  EXPECT_EQ(rec.monitor->state_digest(), monitor->state_digest());
  for (const std::string& name : files.list()) files.remove(name);
}

}  // namespace
}  // namespace ct
