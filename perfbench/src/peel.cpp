#include "peel.hpp"

#include <filesystem>
#include <future>
#include <memory>
#include <thread>

#include "cluster/merge_policy.hpp"
#include "core/engine.hpp"
#include "durability/storage.hpp"
#include "durability/wal.hpp"
#include "index/event_index.hpp"
#include "monitor/delivery_manager.hpp"
#include "monitor/monitor.hpp"
#include "monitor/queries.hpp"
#include "monitor/query_broker.hpp"
#include "spans.hpp"
#include "store/mapped_view.hpp"
#include "store/snapshot_store.hpp"
#include "timestamp/causality_backend.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

double ns_per(std::uint64_t start, std::uint64_t end, std::size_t ops) {
  return ops == 0 ? 0.0
                  : static_cast<double>(end - start) /
                        static_cast<double>(ops);
}

double ms_since(std::uint64_t start) {
  return static_cast<double>(now_ns() - start) * 1e-6;
}

struct BrokerReplay {
  std::vector<double> precedence_us, batch_us, frontier_us;
  std::uint64_t precedence_tests = 0;
};

/// Client `c`'s first `count` requests of tenant `tenant`, replayed
/// closed-loop against a standalone broker with the router's request ids.
void replay_on_broker(ct::QueryBroker& broker, const Plan& plan,
                      std::size_t c, std::size_t tenant,
                      const EpochKeys& keys, std::size_t count,
                      BrokerReplay& out) {
  std::vector<std::pair<ct::EventId, ct::EventId>> pairs;
  std::size_t done = 0;
  for (std::size_t i = 0; i < plan.requests.size() && done < count; ++i) {
    const Request& rq = plan.requests[i];
    if (rq.tenant != tenant) continue;
    ++done;
    ScopedSpan span(rq.kind == Kind::kPrecedence ? "broker.precedence"
                    : rq.kind == Kind::kBatch    ? "broker.batch"
                                                 : "broker.frontier",
                    request_id(c, i));
    const std::uint64_t start = now_ns();
    switch (rq.kind) {
      case Kind::kPrecedence: {
        const auto [e, f] = resolve_pair(keys, rq.a, rq.b);
        broker.submit_precedence(e, f).get();
        out.precedence_us.push_back(ms_since(start) * 1e3);
        ++out.precedence_tests;
        break;
      }
      case Kind::kBatch: {
        pairs.clear();
        for (std::size_t k = 0; k < kBatchPairs; ++k) {
          const auto& [a, b] = plan.batch_keys[rq.batch + k];
          pairs.push_back(resolve_pair(keys, a, b));
        }
        broker.submit_batch(pairs).get();
        out.batch_us.push_back(ms_since(start) * 1e3);
        out.precedence_tests += kBatchPairs;
        break;
      }
      case Kind::kFrontier: {
        const ct::QueryResult r =
            broker.submit_frontier(resolve(keys, rq.a)).get();
        out.frontier_us.push_back(ms_since(start) * 1e3);
        if (r.frontiers) out.precedence_tests += r.frontiers->precedence_tests;
        break;
      }
    }
  }
}

}  // namespace

void peel_layers(const PeelInput& in, std::map<std::string, double>& layer,
                 std::vector<std::string>& violations) {
  ScopedSpan root("peel");
  const TenantInput& tenant = *in.tenant;
  const std::size_t procs = tenant.trace.process_count();
  const auto& arrivals = tenant.arrivals;

  // monitor, delivery side: the DeliveryManager alone, then the whole
  // monitor without a WAL tap.
  {
    ScopedSpan span("monitor.delivery_ingest");
    ct::DeliveryManager dm(procs, [](const ct::Event&) {});
    const std::uint64_t start = now_ns();
    for (const ct::Event& e : arrivals) dm.ingest(e);
    layer["monitor.delivery_ingest_ns"] =
        ns_per(start, now_ns(), arrivals.size());
  }
  ct::MonitoringEntity monitor(procs, monitor_options());
  {
    ScopedSpan span("monitor.ingest");
    const std::uint64_t start = now_ns();
    for (const ct::Event& e : arrivals) monitor.ingest(e);
    layer["monitor.ingest_ns"] = ns_per(start, now_ns(), arrivals.size());
  }
  if (!monitor.health().accounted()) {
    violations.push_back("peeled monitor: MonitorHealth not accounted");
  }
  const auto dlog = monitor.delivery_log();

  // core: the cluster engine alone, fed the delivered order.
  {
    ScopedSpan span("core.observe");
    const ct::MonitorOptions mo = monitor_options();
    ct::ClusterTimestampEngine engine(procs, mo.cluster,
                                      ct::make_merge_on_nth(mo.nth_threshold));
    const std::uint64_t start = now_ns();
    for (const ct::EventId id : dlog) engine.observe(monitor.event(id));
    layer["core.observe_ns"] = ns_per(start, now_ns(), dlog.size());
  }
  // index: the (process, index) B+-tree alone.
  {
    ScopedSpan span("index.insert");
    ct::EventStoreIndex index;
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < dlog.size(); ++i) index.insert(dlog[i], i);
    layer["index.insert_ns"] = ns_per(start, now_ns(), dlog.size());
  }

  // durability: WAL appends without syncs, the syncs the every-64 policy
  // would issue, and the bare storage append underneath a record.
  std::filesystem::remove_all(in.dir);
  ct::FileStorage storage(in.dir);
  {
    ScopedSpan span("durability.wal");
    ct::WalOptions wo;
    wo.policy = ct::SyncPolicy::kNone;
    ct::DurableLog wal(storage, wo);
    std::uint64_t append_ns = 0;
    std::vector<double> sync_us;
    for (std::size_t i = 0; i < dlog.size(); ++i) {
      const std::uint64_t start = now_ns();
      wal.append(monitor.event(dlog[i]));
      append_ns += now_ns() - start;
      if ((i + 1) % kSyncEvery == 0) {
        const std::uint64_t s0 = now_ns();
        wal.sync();
        sync_us.push_back(static_cast<double>(now_ns() - s0) * 1e-3);
      }
    }
    layer["durability.wal_append_ns"] =
        static_cast<double>(append_ns) / static_cast<double>(dlog.size());
    layer["durability.sync_us"] = median(sync_us);
  }
  {
    ScopedSpan span("durability.storage_append");
    const std::string object = "peel-raw.log";
    storage.create(object);
    std::vector<std::string> frames;
    frames.reserve(dlog.size());
    for (const ct::EventId id : dlog) {
      std::string frame;
      ct::wal::put_frame(frame, ct::wal::kRecordFrame,
                         ct::wal::encode_record(monitor.event(id)));
      frames.push_back(std::move(frame));
    }
    const std::uint64_t start = now_ns();
    for (const std::string& f : frames) storage.append(object, f);
    layer["durability.storage_append_ns"] =
        ns_per(start, now_ns(), frames.size());
    storage.remove(object);
  }

  // The per-epoch rebuild the router pays on every replica.
  ct::Trace delivered;
  {
    ScopedSpan span("monitor.delivered_trace");
    const std::uint64_t start = now_ns();
    delivered = monitor.delivered_trace();
    layer["monitor.delivered_trace_ms"] = ms_since(start);
  }
  {
    ct::BackendContext ctx;
    ctx.trace = &delivered;
    const auto build = [&](ct::ServingBackend id, const char* name,
                           const char* metric) {
      ScopedSpan span(name);
      const std::uint64_t start = now_ns();
      auto backend = ct::BackendRegistry::instance().make(id, ctx);
      layer[metric] = ms_since(start);
    };
    build(ct::ServingBackend::kDifferential, "timestamp.differential_build",
          "timestamp.differential_build_ms");
    build(ct::ServingBackend::kOnDemandFm, "timestamp.ondemand_fm_build",
          "timestamp.ondemand_fm_build_ms");
  }

  // broker: a standalone broker over the same state, the same requests and
  // the same client and pool thread counts as the router run.
  {
    ct::ThreadPool pool(kPoolThreads);
    std::unique_ptr<ct::QueryBroker> broker;
    {
      ScopedSpan span("broker.build");
      const std::uint64_t start = now_ns();
      broker = std::make_unique<ct::QueryBroker>(monitor, pool);
      layer["broker.build_ms"] = ms_since(start);
    }
    std::vector<BrokerReplay> replay(kClients);
    {
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          replay_on_broker(*broker, (*in.plans)[c], c, in.tenant_index,
                           *in.keys, in.broker_requests, replay[c]);
        });
      }
      for (auto& th : clients) th.join();
    }
    broker->drain();
    BrokerReplay all;
    for (const BrokerReplay& r : replay) {
      all.precedence_us.insert(all.precedence_us.end(),
                               r.precedence_us.begin(), r.precedence_us.end());
      all.batch_us.insert(all.batch_us.end(), r.batch_us.begin(),
                          r.batch_us.end());
      all.frontier_us.insert(all.frontier_us.end(), r.frontier_us.begin(),
                             r.frontier_us.end());
      all.precedence_tests += r.precedence_tests;
    }
    layer["broker.precedence_us"] = median(all.precedence_us);
    layer["broker.batch_us"] = median(all.batch_us);
    layer["broker.frontier_us"] = median(all.frontier_us);
    const ct::BrokerHealth h = broker->health();
    if (!h.accounted()) {
      violations.push_back("peeled broker: BrokerHealth not accounted");
    }
    layer["broker.max_queue_depth"] = static_cast<double>(h.max_queue_depth);
    layer["broker.cache_hit_ratio"] =
        all.precedence_tests == 0
            ? 0.0
            : static_cast<double>(h.cache_hits) /
                  static_cast<double>(all.precedence_tests);
    layer["broker.ticks_per_query"] =
        h.completed == 0 ? 0.0
                         : static_cast<double>(h.total_ticks) /
                               static_cast<double>(h.completed);
  }

  // core and store read paths on the requests' own pairs.
  std::vector<std::pair<ct::EventId, ct::EventId>> pairs;
  std::vector<std::pair<ct::EventId, ct::EventId>> batch_pairs;
  std::vector<ct::EventId> frontier_events;
  for (const Plan& plan : *in.plans) {
    for (const Request& rq : plan.requests) {
      if (rq.tenant != in.tenant_index) continue;
      if (rq.kind == Kind::kPrecedence && pairs.size() < in.core_pairs) {
        pairs.push_back(resolve_pair(*in.keys, rq.a, rq.b));
      } else if (rq.kind == Kind::kBatch &&
                 batch_pairs.size() < in.core_pairs) {
        for (std::size_t k = 0; k < kBatchPairs; ++k) {
          const auto& [a, b] = plan.batch_keys[rq.batch + k];
          batch_pairs.push_back(resolve_pair(*in.keys, a, b));
        }
      } else if (rq.kind == Kind::kFrontier && frontier_events.size() < 200) {
        frontier_events.push_back(resolve(*in.keys, rq.a));
      }
    }
  }
  // Every timed loop keeps its answers, and the answers are compared
  // afterwards, so no loop can be optimized away.
  std::vector<std::uint8_t> live(pairs.size());
  {
    ScopedSpan span("core.precedes");
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      live[i] = monitor.precedes(pairs[i].first, pairs[i].second);
    }
    layer["core.precedes_ns"] = ns_per(start, now_ns(), pairs.size());
  }
  {
    ScopedSpan span("core.batch");
    std::vector<std::optional<bool>> out(batch_pairs.size());
    std::size_t answered = 0;
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i + kBatchPairs <= batch_pairs.size();
         i += kBatchPairs) {
      ct::QueryCost cost;
      answered += monitor.precedes_batch_metered(
          std::span(batch_pairs).subspan(i, kBatchPairs), cost,
          out.data() + i);
    }
    layer["core.batch_pair_ns"] = ns_per(start, now_ns(), batch_pairs.size());
    for (std::size_t i = 0; i < answered; i += 97) {
      if (out[i] != monitor.precedes(batch_pairs[i].first,
                                     batch_pairs[i].second)) {
        violations.push_back("peeled batch answer differs from precedes");
        break;
      }
    }
  }
  {
    ScopedSpan span("core.frontier");
    std::size_t tests = 0;
    const std::uint64_t start = now_ns();
    for (const ct::EventId e : frontier_events) {
      tests += ct::compute_frontiers(monitor, procs, e).precedence_tests;
    }
    layer["core.frontier_us"] =
        ns_per(start, now_ns(), frontier_events.size()) * 1e-3;
    if (!frontier_events.empty() && tests == 0) {
      violations.push_back("peeled frontiers issued no precedence test");
    }
  }
  if (const auto st = monitor.cluster_stats()) {
    layer["core.ts_words_per_event"] =
        static_cast<double>(monitor.timestamp_words()) /
        static_cast<double>(monitor.stored());
    layer["core.cluster_receive_share"] =
        static_cast<double>(st->cluster_receives) /
        static_cast<double>(st->events);
    layer["core.final_clusters"] = static_cast<double>(st->final_clusters);
  }

  // store: the mapped image of the same state.
  {
    const ct::ColumnarPublishResult pub =
        ct::publish_columnar(storage, monitor, 1);
    std::unique_ptr<ct::MappedSnapshot> snap;
    {
      ScopedSpan span("store.map_open");
      const std::uint64_t start = now_ns();
      snap = std::make_unique<ct::MappedSnapshot>(
          ct::read_cold(storage, pub.object));
      layer["store.map_open_ms"] = ms_since(start);
    }
    {
      ScopedSpan span("store.verify_blocks");
      const std::uint64_t start = now_ns();
      snap->verify_blocks();
      layer["store.verify_blocks_ms"] = ms_since(start);
    }
    snap->verify_structure();
    std::vector<std::uint8_t> mapped(pairs.size());
    {
      ScopedSpan span("store.mapped_precedes");
      const std::uint64_t start = now_ns();
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        mapped[i] = snap->precedes(monitor.event(pairs[i].first),
                                   monitor.event(pairs[i].second));
      }
      layer["store.mapped_precedes_ns"] =
          ns_per(start, now_ns(), pairs.size());
    }
    if (mapped != live) {
      violations.push_back("mapped image answers differ from the live monitor");
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(in.dir, ec);
}

}  // namespace perfbench
