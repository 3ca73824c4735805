// The mapped read path of the out-of-core store.
//
// A MappedSnapshot opens a CTC1 image (format.hpp) and serves the arena read
// API — precedence queries, event lookups — directly from the persisted
// columns, with zero replay: opening costs O(processes + covered sets) to
// rebuild prefix sums and covered-set position tables, never O(events).
// Against a FileStorage backend the image is memory-mapped read-only
// (PROT_READ), so a cold server answers its first query after one mmap and
// the page cache faults columns in on demand; RSS is bounded by the touched
// pages, not the file. Against SimulatedStorage the bytes are copied — the
// crash sweep exercises the same code over its materialized images.
//
// Verification is tiered to keep each caller honest about what it paid for:
//   open                — footer CRC + manifest structure, O(columns);
//   verify_blocks()     — every block CRC, O(file bytes) at hardware CRC
//                         speed; covers every column byte;
//   verify_digests()    — per-column FNV audit, O(file bytes) but serial;
//   verify_structure()  — semantic bounds of every row/probe/event,
//                         O(events);
// The recovery ladder (recovery_ladder.hpp) runs all four before trusting
// an image; the mapped cold-start path pays blocks + structure; precedes()
// assumes verify_structure() passed and stays on the CT_DCHECK-only fast
// path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "model/event.hpp"
#include "store/format.hpp"

namespace ct {

class StorageBackend;

/// Read-only bytes of one storage object: an mmap when the object is a real
/// file, an owned copy otherwise. Move-only; unmaps on destruction.
class ColdBytes {
 public:
  ColdBytes() = default;
  ColdBytes(ColdBytes&& other) noexcept;
  ColdBytes& operator=(ColdBytes&& other) noexcept;
  ColdBytes(const ColdBytes&) = delete;
  ColdBytes& operator=(const ColdBytes&) = delete;
  ~ColdBytes();

  /// Maps `path` read-only. Throws CheckFailure if it cannot be opened.
  static ColdBytes map_file(const std::string& path);
  static ColdBytes from_string(std::string bytes);

  std::string_view view() const {
    return map_ != nullptr
               ? std::string_view(static_cast<const char*>(map_), map_size_)
               : std::string_view(owned_);
  }
  bool mapped() const { return map_ != nullptr; }

 private:
  std::string owned_;
  void* map_ = nullptr;
  std::size_t map_size_ = 0;
};

/// Reads object `name` as ColdBytes: mmap'd when `storage` is a
/// FileStorage, copied via read() otherwise.
ColdBytes read_cold(const StorageBackend& storage, const std::string& name);

class MappedSnapshot {
 public:
  /// Parses and structurally validates the manifest, then builds the O(P)
  /// index tables (row/probe prefix sums, covered-set position maps).
  /// Throws ChecksumError / CheckFailure exactly as
  /// parse_columnar_manifest does, plus byte-offset-tagged failures for
  /// index-table inconsistencies (covered-set bounds, count sums).
  explicit MappedSnapshot(ColdBytes bytes);
  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;

  const ColumnarManifest& manifest() const { return manifest_; }
  bool has_arena() const { return manifest_.has_arena; }
  std::uint64_t event_count() const { return manifest_.event_count; }
  std::size_t process_count() const {
    return static_cast<std::size_t>(manifest_.process_count);
  }
  std::string_view bytes() const { return bytes_.view(); }

  /// The i-th delivered event, straight from the event columns.
  Event event(std::uint64_t i) const;

  /// Delivered events of process `p` (arena images only).
  EventIndex delivered_count(ProcessId p) const;

  /// Happened-before from the mapped arena columns — the same algorithm as
  /// ClusterTimestampEngine::precedes_metered, byte for byte of state. Both
  /// events must be within this snapshot's delivered prefix; requires
  /// has_arena() and a verify_structure() pass (fast path is CT_DCHECK-only).
  bool precedes(const Event& e, const Event& f) const;

  /// Recomputes every block CRC (covers every column byte). O(file).
  void verify_blocks() const {
    verify_columnar_blocks(bytes_.view(), manifest_);
  }

  /// Recomputes every per-column FNV digest — the deep audit. O(file).
  void verify_digests() const {
    verify_columnar_digests(bytes_.view(), manifest_);
  }

  /// Semantic bounds of every event row: event ids in range and per-process
  /// consecutive, row extents inside the pool, projections consistent with
  /// their covered sets, probe targets full-width. O(events). Throws
  /// CheckFailure tagged with the byte offset of the offending element.
  void verify_structure() const;

 private:
  const std::uint32_t* u32_column(ColumnId id) const;

  ColdBytes bytes_;
  ColumnarManifest manifest_;

  const std::uint32_t* ev_process_ = nullptr;
  const std::uint32_t* ev_index_ = nullptr;
  const std::uint8_t* ev_kind_ = nullptr;
  const std::uint32_t* ev_pp_ = nullptr;
  const std::uint32_t* ev_pi_ = nullptr;

  const std::uint32_t* pool_ = nullptr;
  const std::uint32_t* row_offset_ = nullptr;
  const std::uint32_t* row_aux_ = nullptr;
  const std::uint32_t* row_probe_ = nullptr;
  const std::uint32_t* row_width_ = nullptr;
  const std::uint32_t* probes_ = nullptr;

  std::vector<std::uint64_t> row_base_;    ///< P+1 prefix sums of row_counts
  std::vector<std::uint64_t> probe_base_;  ///< P+1 prefix sums of probe_counts

  struct CsIndex {
    std::uint64_t size = 0;               ///< member count
    std::vector<std::int32_t> pos;        ///< process → slot, -1 if absent
  };
  std::vector<CsIndex> cs_;
};

}  // namespace ct
