// The recovery ladder: newest columnar snapshot + WAL tail, then every
// older rung, each one loudly accounted. It is the one recovery path.
//
// recover_with_ladder() tries, in order:
//
//   kMapped       newest CTC1 generation: footer CRC, block CRCs + column
//                 digests, O(n) structural bounds, generation/name
//                 agreement, WAL-position reachability, replay of the event
//                 columns, state-digest agreement — all must pass;
//   kMappedPrior  the same for each older generation;
//   kWalReplay    full WAL replay from sequence 0 (durability/recovery.hpp);
//   kScratch      a fresh monitor (nothing durable survived).
//
// Every rejected candidate is quarantined, not deleted: the rung that
// rejected it records a byte-offset-tagged reason in SnapshotHealth, split
// by cause — checksum, structural, name mismatch, position-past-log-end,
// replay divergence — so an operator can distinguish media rot from logic
// bugs from foreign objects at a glance. Half-published `.tmp` objects are
// counted (tmp_quarantined), never read as snapshots.
//
// The guarantee, verified by the crash sweep and the ladder property test:
// whatever rung recovery lands on, the recovered monitor's delivered log is
// a prefix of the pre-crash log, its answers are FM-oracle-identical on
// that prefix, and running recovery twice yields byte-identical state
// digests (idempotence).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "durability/recovery.hpp"
#include "durability/storage.hpp"
#include "monitor/monitor.hpp"

namespace ct {

/// Benchmarks report the rung as a number; kMapped stays 0.
enum class RecoveryRung : std::uint8_t {
  kMapped = 0,   ///< newest CTC1 columnar generation + WAL tail
  kMappedPrior,  ///< an older CTC1 generation + WAL tail
  kWalReplay,    ///< full WAL replay from scratch
  kScratch,      ///< nothing durable survived
};

const char* to_string(RecoveryRung rung);

/// Columnar-store accounting of one recovery: what was seen, what was
/// rejected, and why. Cause counters sum to the number of rejected
/// generations; `details` holds one "object: reason" line each, tagged with
/// the byte offset of the failure where one exists.
struct SnapshotHealth {
  std::size_t generations_seen = 0;     ///< published CTC1 objects found
  std::size_t tmp_quarantined = 0;      ///< half-published `.tmp` leftovers
  std::size_t rejected_checksum = 0;    ///< footer/block/digest mismatch
  std::size_t rejected_structural = 0;  ///< bounds/shape/manifest violations
  std::size_t rejected_name_mismatch = 0;  ///< footer generation != name
  std::size_t rejected_position = 0;    ///< WAL position past the log end
  std::size_t rejected_replay = 0;      ///< replay failed or digest diverged
  std::vector<std::string> details;

  std::size_t total_rejected() const {
    return rejected_checksum + rejected_structural + rejected_name_mismatch +
           rejected_position + rejected_replay;
  }
};

struct LadderRecovery {
  std::unique_ptr<MonitoringEntity> monitor;
  RecoveryRung rung = RecoveryRung::kScratch;
  /// Generation restored from (kMapped/kMappedPrior rungs only).
  std::uint64_t generation = 0;
  /// WAL-tail accounting of the rung that won (durability/recovery.hpp).
  RecoveryReport report;
  /// Columnar-store accounting, regardless of which rung won.
  SnapshotHealth health;
};

/// Runs the ladder over `storage`. `process_count` and `options` configure
/// the monitor only when no usable generation exists (a generation carries
/// its own configuration). Storage damage of any kind is absorbed into the
/// accounting — the ladder only throws on internal invariant violations
/// (bugs).
///
/// `ns` is the namespace to recover (WalOptions::ns): only generations and
/// segments carrying that prefix are read, so recovering one tenant of a
/// shared StorageBackend never scans — and is never derailed by — a
/// sibling tenant's objects, however corrupt those are (the per-tenant
/// durability bulkhead, verified by tests/wal_namespace_test.cpp).
LadderRecovery recover_with_ladder(const StorageBackend& storage,
                                   std::size_t process_count,
                                   const MonitorOptions& options,
                                   const std::string& ns = "");

}  // namespace ct
