#include "store/snapshot_store.hpp"

#include <algorithm>
#include <utility>

#include "store/format.hpp"
#include "util/check.hpp"

namespace ct {

ColumnarPublishResult publish_columnar(StorageBackend& storage,
                                       const MonitoringEntity& monitor,
                                       std::uint64_t generation,
                                       const ColumnarPublishOptions& options) {
  CT_CHECK_MSG(options.append_chunk_bytes > 0,
               "columnar append_chunk_bytes must be positive");
  ColumnarPublishResult out;
  out.generation = generation;
  out.object = columnar_object_name(generation, options.ns);
  const std::string tmp = columnar_tmp_name(generation, options.ns);

  const std::string image =
      encode_columnar(monitor, generation, options.block_bytes);
  out.wal_position = monitor.delivery_log().size();
  out.bytes = image.size();

  // ---- write-temp → fsync → rename → fsync-dir ----
  storage.create(tmp);
  const std::string_view view(image);
  for (std::size_t at = 0; at < view.size();
       at += options.append_chunk_bytes) {
    storage.append(tmp,
                   view.substr(at, std::min(options.append_chunk_bytes,
                                            view.size() - at)));
  }
  storage.sync(tmp);
  storage.rename(tmp, out.object);
  storage.sync_dir();

  // ---- prune: older generations beyond the retention window, stale tmps ----
  bool removed = false;
  auto published = list_columnar(storage, options.ns);  // ascending
  const std::size_t keep = std::max<std::size_t>(options.retain_generations, 1);
  while (published.size() > keep) {
    storage.remove(published.front().second);
    published.erase(published.begin());
    ++out.generations_pruned;
    removed = true;
  }
  for (const std::string& stale : list_columnar_tmps(storage, options.ns)) {
    storage.remove(stale);
    ++out.tmps_pruned;
    removed = true;
  }
  if (removed) storage.sync_dir();
  return out;
}

ColumnarPublishResult checkpoint(DurableLog& log,
                                 const MonitoringEntity& monitor,
                                 ColumnarPublishOptions options) {
  // Make the covered prefix durable first: the image claims to cover
  // next_record_seq() records, so those records must survive any crash
  // after it.
  log.sync();
  CT_CHECK_MSG(monitor.delivery_log().size() == log.next_record_seq(),
               "checkpoint of a monitor this log does not record: "
                   << monitor.delivery_log().size() << " delivered vs "
                   << log.next_record_seq() << " logged");
  CT_CHECK_MSG(options.ns.empty() || options.ns == log.ns(),
               "checkpoint namespace '" << options.ns
                                        << "' differs from the log's '"
                                        << log.ns() << "'");
  options.ns = log.ns();
  ColumnarPublishResult out = publish_columnar(
      log.storage(), monitor, log.next_record_seq(), options);
  // Every retained generation must still recover with the remaining tail,
  // so the oldest one bounds the prune.
  log.prune_through(list_columnar(log.storage(), options.ns).front().first);
  return out;
}

std::unique_ptr<MonitoringEntity> ColumnarRestorer::restore(
    const MappedSnapshot& snap) {
  const ColumnarManifest& m = snap.manifest();
  auto monitor = std::make_unique<MonitoringEntity>(
      static_cast<std::size_t>(m.process_count), m.options);
  for (std::uint64_t i = 0; i < m.event_count; ++i) {
    monitor->replay_delivered(snap.event(i));
  }
  monitor->finish_restore(m.health);
  if (monitor->state_digest() != m.state_digest) {
    throw ChecksumError(
        "columnar replay diverged from the saved state digest");
  }
  return monitor;
}

std::unique_ptr<MonitoringEntity> ColumnarRestorer::restore(
    std::string image) {
  const MappedSnapshot snap(ColdBytes::from_string(std::move(image)));
  snap.verify_blocks();
  snap.verify_digests();
  snap.verify_structure();
  return restore(snap);
}

std::vector<std::pair<std::uint64_t, std::string>> list_columnar(
    const StorageBackend& storage, const std::string& ns) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  for (const std::string& name : storage.list()) {
    if (const auto gen = parse_columnar_name(name, ns)) {
      out.emplace_back(*gen, name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> list_columnar_tmps(const StorageBackend& storage,
                                            const std::string& ns) {
  std::vector<std::string> out;
  for (const std::string& name : storage.list()) {
    if (is_columnar_tmp_name(name, ns)) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ct
