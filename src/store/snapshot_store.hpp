// Atomic, generation-numbered publication of CTC1 columnar snapshots, the
// checkpoint built on it, and the in-memory restore.
//
// A publication is the classic atomic-rename protocol, expressed in
// StorageBackend primitives so SimulatedStorage::materialize can crash it at
// every boundary:
//
//   create  <ns>ctc-<gen>.col.tmp
//   append  (chunked — each chunk is a separate journalled op the crash
//            sweep can tear)
//   sync    the tmp object            (bytes durable under the tmp name)
//   rename  tmp -> <ns>ctc-<gen>.col  (the publication point)
//   sync_dir                          (the rename itself durable)
//   prune   older generations + stale tmps, sync_dir
//
// A crash before the rename leaves only a tmp object — quarantined by the
// recovery ladder, never mistaken for a snapshot (format.hpp naming). A
// crash after the rename but before sync_dir is the kStaleRename fault: the
// directory entry may revert to the tmp name, which is exactly the previous
// state. The footer embeds the generation, so even a hand-renamed object
// cannot impersonate another generation (name-mismatch rejection).
//
// checkpoint() is the durability layer's snapshot: it publishes at
// generation = the log's next record sequence (the WAL position the image
// covers), so the oldest retained generation's NAME is the bound below
// which WAL segments may be pruned.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "durability/storage.hpp"
#include "durability/wal.hpp"
#include "monitor/monitor.hpp"
#include "store/mapped_view.hpp"

namespace ct {

struct ColumnarPublishOptions {
  std::string ns;                          ///< tenant namespace prefix
  std::size_t block_bytes = 64 * 1024;     ///< CRC block grid
  std::size_t retain_generations = 2;      ///< newest generations kept
  std::size_t append_chunk_bytes = 1 << 20;
};

struct ColumnarPublishResult {
  std::string object;          ///< published name, `<ns>ctc-<gen>.col`
  std::uint64_t generation = 0;
  std::uint64_t wal_position = 0;  ///< delivered records the image covers
  std::uint64_t bytes = 0;         ///< image size
  std::size_t generations_pruned = 0;
  std::size_t tmps_pruned = 0;     ///< leftover `.tmp` objects removed
};

/// Publishes the monitor's delivered state as generation `generation` over
/// the protocol above. The caller owns generation numbering (monotone per
/// namespace); publishing an existing generation replaces it.
ColumnarPublishResult publish_columnar(StorageBackend& storage,
                                       const MonitoringEntity& monitor,
                                       std::uint64_t generation,
                                       const ColumnarPublishOptions& options =
                                           {});

/// Checkpoints `monitor` (which must be the monitor `log` records for):
///   1. log.sync() — the covered prefix must survive any later crash;
///   2. checks the monitor's delivered count equals the log position;
///   3. publish_columnar at generation log.next_record_seq(), in the log's
///      namespace (`options.ns` must be empty or equal to it);
///   4. log.prune_through(oldest retained generation).
ColumnarPublishResult checkpoint(DurableLog& log,
                                 const MonitoringEntity& monitor,
                                 ColumnarPublishOptions options = {});

/// Rebuilds live monitors from CTC1 images by replaying the event columns
/// through the delivered-order restore path — the same seam WAL-tail replay
/// uses (MonitoringEntity befriends this).
struct ColumnarRestorer {
  /// Restores from an image the caller has already verified. Throws
  /// ChecksumError if the rebuilt state's digest diverges from the saved
  /// one, CheckFailure if replay itself fails.
  static std::unique_ptr<MonitoringEntity> restore(const MappedSnapshot& snap);

  /// The in-memory restore: opens `image`, runs every verification tier
  /// (blocks, digests, structure), then restores. Throws ChecksumError /
  /// CheckFailure on any rejection.
  static std::unique_ptr<MonitoringEntity> restore(std::string image);
};

/// Published generations of `ns` in `storage`, ascending by generation.
std::vector<std::pair<std::uint64_t, std::string>> list_columnar(
    const StorageBackend& storage, const std::string& ns = "");

/// Leftover `<ns>ctc-*.col.tmp` objects (publications a crash cut short).
std::vector<std::string> list_columnar_tmps(const StorageBackend& storage,
                                            const std::string& ns = "");

}  // namespace ct
