#include "store/recovery_ladder.hpp"

#include <memory>
#include <utility>

#include "durability/wal.hpp"
#include "store/format.hpp"
#include "store/mapped_view.hpp"
#include "store/snapshot_store.hpp"
#include "util/check.hpp"

namespace ct {

const char* to_string(RecoveryRung rung) {
  switch (rung) {
    case RecoveryRung::kMapped: return "mapped";
    case RecoveryRung::kMappedPrior: return "mapped-prior";
    case RecoveryRung::kWalReplay: return "wal-replay";
    case RecoveryRung::kScratch: return "scratch";
  }
  return "?";
}

LadderRecovery recover_with_ladder(const StorageBackend& storage,
                                   std::size_t process_count,
                                   const MonitorOptions& options,
                                   const std::string& ns) {
  LadderRecovery out;
  SnapshotHealth& health = out.health;
  health.tmp_quarantined = list_columnar_tmps(storage, ns).size();

  // ---- mapped rungs: CTC1 generations, newest first ----
  auto generations = list_columnar(storage, ns);  // ascending
  health.generations_seen = generations.size();
  const std::uint64_t newest =
      generations.empty() ? 0 : generations.back().first;
  auto reject = [&health](std::size_t* cause, const std::string& name,
                          const std::string& detail) {
    ++*cause;
    health.details.push_back(name + ": " + detail);
  };
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    const auto& [gen, name] = *it;
    std::unique_ptr<MappedSnapshot> snap;
    try {
      snap = std::make_unique<MappedSnapshot>(read_cold(storage, name));
      if (snap->manifest().generation != gen) {
        reject(&health.rejected_name_mismatch, name,
               "footer generation " +
                   std::to_string(snap->manifest().generation) +
                   " disagrees with the object name");
        continue;
      }
      snap->verify_blocks();
      snap->verify_digests();
      snap->verify_structure();
    } catch (const ChecksumError& failure) {
      reject(&health.rejected_checksum, name, failure.what());
      continue;
    } catch (const CheckFailure& failure) {
      reject(&health.rejected_structural, name, failure.what());
      continue;
    }
    // Structurally sound and checksum-clean. The durable log must reach the
    // position the image claims to cover: an image past the log end (a
    // renamed or foreign object) would make recovery silently skip the
    // records in between — nothing to replay, nothing to notice.
    const std::uint64_t seq = snap->manifest().wal_position;
    wal::WalScan scan = wal::scan_wal(storage, seq, ns);
    if (scan.segments_scanned > 0 && scan.log_end < seq) {
      reject(&health.rejected_position, name,
             "references WAL position " + std::to_string(seq) +
                 " past the durable log end " + std::to_string(scan.log_end));
      continue;
    }
    std::unique_ptr<MonitoringEntity> monitor;
    try {
      monitor = ColumnarRestorer::restore(*snap);
    } catch (const CheckFailure& failure) {
      // Replay threw or the rebuilt state's digest diverged: the image lied
      // about something the structural checks cannot see.
      reject(&health.rejected_replay, name, failure.what());
      continue;
    }
    out.monitor = std::move(monitor);
    out.rung =
        gen == newest ? RecoveryRung::kMapped : RecoveryRung::kMappedPrior;
    out.generation = gen;
    out.report.snapshot_object = name;
    out.report.snapshot_seq = seq;
    replay_wal_tail(scan, *out.monitor, out.report);
    return out;
  }

  // ---- lower rungs: full WAL replay → scratch ----
  out.monitor = std::make_unique<MonitoringEntity>(process_count, options);
  replay_wal_tail(wal::scan_wal(storage, 0, ns), *out.monitor, out.report);
  out.rung = out.report.replayed > 0 || out.report.held > 0
                 ? RecoveryRung::kWalReplay
                 : RecoveryRung::kScratch;
  return out;
}

}  // namespace ct
