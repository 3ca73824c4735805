// The unit of deterministic simulation testing: a schedule.
//
// A schedule is a flat, fully materialized list of actions against one
// MonitoringEntity — event records as they leave the (already fault-mangled)
// channel, checkpoint/restore points, cluster rebuilds, timestamp-store
// corruption-plus-repair episodes, and differential probe points. Nothing
// is recomputed from the seed at replay time: the generator bakes every
// fault decision into the op list, so a schedule replays bit-identically
// from its serialized form alone (replay_io.hpp) and the shrinker can
// delete ops freely.
//
// Deleting ops is always sound because the monitor's ingest path is fault
// tolerant by contract (docs/FAULT_MODEL.md): removing an emit just makes
// that record a drop, and the delivered prefix — the state every oracle
// backend is built over — remains causally closed. That property is what
// turns delta-minimization from a constraint problem into plain list
// surgery.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/event.hpp"

namespace ct {

struct SimOp {
  enum class Kind : std::uint8_t {
    kEmit,               ///< feed one record to MonitoringEntity::ingest
    kCheckpointRestore,  ///< snapshot, reload, verify digest, swap monitor
    kRebuild,            ///< rebuild a healthy cluster; digest must not move
    kCorruptRepair,      ///< flip one stored component, then repair it
    kProbe,              ///< differential oracle checkpoint
    kMigrate,            ///< one two-phase re-clustering cycle (recluster/)
  };

  Kind kind = Kind::kEmit;
  /// kEmit: the record exactly as the channel emitted it (possibly
  /// corrupted — any byte pattern the FaultInjector can produce).
  Event event;
  /// Op parameters (kind-specific; unused fields stay 0):
  ///   kRebuild:        a = cluster selector (mod current cluster count)
  ///   kCorruptRepair:  a = process selector, b = index selector,
  ///                    c = component slot, d = planted value
  ///   kProbe:          a = precedence pairs to sample, b = pair seed,
  ///                    c = deadline in work ticks (0 = unlimited),
  ///                    d = flag bits below
  ///   kMigrate:        a = dual-read verify pairs, b = MigrationFault code
  ///                    (0 none, 1 corrupt-shadow, 2 stalled-verify),
  ///                    c = verify deadline ticks (0 = unlimited),
  ///                    d = planner/verify seed. Deleting the op is always
  ///                    sound: migrations never change answers, so a
  ///                    schedule without one checks a superset of nothing.
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t d = 0;

  /// kProbe flag: also serve the sampled pairs through a QueryBroker
  /// (fallback chain + deadline pressure + BrokerHealth invariant).
  static constexpr std::uint64_t kProbeBroker = 1;
  /// kProbe flag: also cross-check one event's causal frontiers.
  static constexpr std::uint64_t kProbeFrontier = 2;
  /// kProbe flag: broker probes run the EXTENDED fallback chain (cluster →
  /// tree clock → differential → on-demand FM) instead of the default, so
  /// the registry-built tree-clock link serves under breaker/deadline
  /// pressure. Baked into the op (not drawn at replay time) so old corpus
  /// replays keep their exact prng sequences.
  static constexpr std::uint64_t kProbeTreeChain = 4;

  friend bool operator==(const SimOp&, const SimOp&) = default;
};

struct SimSchedule {
  std::string name;
  std::uint64_t seed = 0;
  std::uint32_t process_count = 0;
  /// Engine configuration of the live monitor under test.
  std::uint32_t max_cluster_size = 8;
  double nth_threshold = 4.0;

  std::vector<SimOp> ops;

  /// Number of kEmit ops — the replay's size metric ("events" in the
  /// acceptance criterion and the shrinker's objective).
  std::size_t emit_count() const;
  std::size_t probe_count() const;

  /// Order-sensitive FNV-1a digest of the configuration and every op.
  /// Equal digests ⇒ bit-identical replays.
  std::uint64_t digest() const;

  friend bool operator==(const SimSchedule&, const SimSchedule&) = default;
};

}  // namespace ct
