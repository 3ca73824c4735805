// The deployed path the benchmark drives from outside, through public calls
// only: ShardRouter (replicated shards, DeliveryManager, engine) with a
// per-tenant DurableLog on FileStorage, CTC1 publication, serving epochs,
// closed-loop clients, and cold restart through the recovery ladder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "durability/storage.hpp"
#include "inputs.hpp"
#include "model/ids.hpp"
#include "shard/shard_router.hpp"
#include "store/recovery_ladder.hpp"

namespace perfbench {

/// Deployment settings shared by every workload: three replicas per
/// tenant, an every-64 WAL, no deadlines, and two serving threads so the
/// two clients plus the pool never exceed four cores.
inline constexpr std::size_t kShards = 3;
inline constexpr std::size_t kPoolThreads = 2;
inline constexpr std::size_t kSyncEvery = 64;
inline constexpr std::size_t kClients = 2;

ct::MonitorOptions monitor_options();

/// Per-record ingest timings of one feed, and the events still waiting for
/// an epoch to make them queryable.
struct IngestLog {
  std::vector<double> latency_us;  ///< per record, in feed order
  std::uint64_t records = 0;
  std::uint64_t rejected = 0;
  std::vector<double> publish_ms;
  std::uint64_t image_bytes = 0;     ///< newest published image
  std::uint64_t image_events = 0;    ///< records that image covers

  struct Unseen {
    ct::EventId id;
    std::uint64_t ingest_ns = 0;
  };
  std::vector<Unseen> unseen;  ///< ingested, not yet visible
};

/// The keys one epoch serves for one tenant, and the delivered prefix the
/// answers must agree with.
struct EpochKeys {
  std::vector<ct::EventId> table;
  std::vector<ct::EventIndex> delivered;  ///< per process
};

inline ct::EventId resolve(const EpochKeys& keys, std::uint32_t k) {
  return keys.table[k % keys.table.size()];
}

inline std::pair<ct::EventId, ct::EventId> resolve_pair(const EpochKeys& keys,
                                                        std::uint32_t a,
                                                        std::uint32_t b) {
  const ct::EventId e = resolve(keys, a);
  ct::EventId f = resolve(keys, b);
  // A self-pair asks nothing; take the next key instead.
  if (f == e) f = resolve(keys, b + 1);
  return {e, f};
}

/// Span request id of a client's `seq`-th request; the peeled replay of
/// the same request reuses it.
inline std::uint64_t request_id(std::size_t client, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(client + 1) << 40) | seq;
}

/// What a client received, kept for the correctness gate.
struct Served {
  std::uint32_t plan_index = 0;
  std::uint16_t epoch = 0;
  std::uint8_t answer = 0;  ///< precedence: 0/1, 2 = no answer
  std::uint64_t value = 0;  ///< frontier hash, or first batch answer slot
};

struct ClientStats {
  struct Latency {
    std::uint32_t window = 0;  ///< measurement window it completed in
    Kind kind = Kind::kPrecedence;
    std::uint8_t tenant = 0;
    double us = 0.0;
  };
  std::vector<Latency> latencies;
  std::uint64_t requests = 0;
  std::uint64_t attempts = 0;
  std::uint64_t fallback = 0;  ///< answered past the cluster backend
  std::vector<Served> served;
  std::vector<std::uint8_t> batch_answers;  ///< 0/1, 2 = no answer
  std::size_t cursor = 0;  ///< next plan position, kept across phases
};

std::uint64_t frontier_hash(const ct::CausalFrontiers& f);

struct ColdStart {
  double ms = 0.0;         ///< recover_with_ladder + digest check
  double ladder_ms = 0.0;  ///< recover_with_ladder alone
  ct::RecoveryRung rung = ct::RecoveryRung::kScratch;
  bool digest_matches = false;
};

class Deployment {
 public:
  Deployment(const std::string& dir,
             const std::vector<const TenantInput*>& tenants);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  ct::ShardRouter& router() { return *router_; }
  std::size_t tenants() const { return inputs_.size(); }
  const TenantInput& input(std::size_t t) const { return *inputs_[t]; }
  const ct::MonitoringEntity& leader(std::size_t t) const;

  /// Feeds arrivals [from, to) of tenant `t` through ShardRouter::ingest,
  /// timing each record. When `publish_every` > 0 a CTC1 generation is
  /// published after every that many records, inside the record's timing.
  void ingest(std::size_t t, std::size_t from, std::size_t to, IngestLog& log,
              std::size_t publish_every = 0);
  /// Syncs tenant `t`'s WAL and publishes the next CTC1 generation.
  void publish(std::size_t t, IngestLog& log);

  /// Epoch switches; return their duration in ms.
  double open_epoch();
  double close_epoch();
  /// Removes every event of `log` that is now visible and returns its lag,
  /// from its first ingest call to `now` (when the epoch opened), in ms.
  std::vector<double> note_visible(std::size_t t, IngestLog& log,
                                   std::uint64_t now) const;

  /// Key table of tenant `t` for the open epoch: the whole delivery log,
  /// or its newest `newest` events, newest first.
  EpochKeys epoch_keys(std::size_t t, std::size_t newest = 0) const;

  /// Runs kClients closed-loop clients for `windows` windows of
  /// `window_s` seconds, each replaying its plan from its cursor against
  /// `keys` (one table per tenant). Latencies are tagged with their window,
  /// numbered from `first_window`.
  void serve(const std::vector<EpochKeys>& keys,
             const std::vector<Plan>& plans, std::size_t windows,
             double window_s, std::uint32_t first_window, std::uint16_t epoch,
             std::vector<ClientStats>& stats);

  /// Cold restart of tenant `t` from storage through the recovery ladder.
  ColdStart cold_start(std::size_t t);

 private:
  std::string dir_;
  std::vector<const TenantInput*> inputs_;
  std::vector<std::uint64_t> generation_;
  ct::FileStorage storage_;
  std::unique_ptr<ct::ShardRouter> router_;
};

}  // namespace perfbench
