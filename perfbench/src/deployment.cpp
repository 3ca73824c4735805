#include "deployment.hpp"

#include <algorithm>
#include <filesystem>
#include <thread>

#include "durability/wal.hpp"
#include "monitor/queries.hpp"
#include "spans.hpp"
#include "store/snapshot_store.hpp"

namespace perfbench {
namespace {

std::string fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void count_outcome(const ct::RouterQueryResult& r, ClientStats& st) {
  st.attempts += r.attempts;
  if (r.backend_used != ct::ServingBackend::kCluster &&
      r.backend_used != ct::ServingBackend::kCache &&
      r.backend_used != ct::ServingBackend::kNone) {
    ++st.fallback;
  }
}

struct Phase {
  std::uint64_t start_ns = 0;
  std::uint64_t window_ns = 1;
  std::uint32_t first_window = 0;
  std::uint32_t last_window = 0;
  std::uint64_t end_ns() const {
    return start_ns + window_ns * (last_window - first_window + 1);
  }
  std::uint32_t window_of(std::uint64_t t) const {
    const std::uint64_t w = first_window + (t - start_ns) / window_ns;
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(w, last_window));
  }
};

void run_client(ct::ShardRouter& router, std::size_t client,
                const std::vector<EpochKeys>& keys, const Plan& plan,
                const Phase& phase, std::uint16_t epoch, ClientStats& st) {
  const std::size_t n = plan.requests.size();
  const std::uint64_t deadline_ns = phase.end_ns();
  std::vector<std::pair<ct::EventId, ct::EventId>> pairs;
  const auto record = [&](const Request& rq, std::uint64_t start,
                          std::uint64_t end) {
    st.latencies.push_back({phase.window_of(end), rq.kind, rq.tenant,
                            static_cast<double>(end - start) * 1e-3});
  };
  for (std::uint64_t t = now_ns(); t < deadline_ns;) {
    const std::size_t index = st.cursor % n;
    const Request& rq = plan.requests[index];
    const EpochKeys& k = keys[rq.tenant];
    const std::uint64_t rid = request_id(client, st.cursor);
    Served s;
    s.plan_index = static_cast<std::uint32_t>(index);
    s.epoch = epoch;
    ct::RouterQueryResult r;
    std::uint64_t start = 0;
    switch (rq.kind) {
      case Kind::kPrecedence: {
        const auto [e, f] = resolve_pair(k, rq.a, rq.b);
        start = now_ns();
        {
          ScopedSpan span("shard.precedence", rid);
          r = router.precedence(rq.tenant, e, f);
        }
        t = now_ns();
        record(rq, start, t);
        s.answer = r.answer ? static_cast<std::uint8_t>(*r.answer) : 2;
        break;
      }
      case Kind::kBatch: {
        pairs.clear();
        for (std::size_t i = 0; i < kBatchPairs; ++i) {
          const auto& [a, b] = plan.batch_keys[rq.batch + i];
          pairs.push_back(resolve_pair(k, a, b));
        }
        start = now_ns();
        {
          ScopedSpan span("shard.batch", rid);
          r = router.batch(rq.tenant, pairs);
        }
        t = now_ns();
        record(rq, start, t);
        s.value = st.batch_answers.size();
        for (std::size_t i = 0; i < kBatchPairs; ++i) {
          const bool have = i < r.batch.size() && r.batch[i].has_value();
          st.batch_answers.push_back(
              have ? static_cast<std::uint8_t>(*r.batch[i]) : 2);
          if (!have) s.answer = 2;
        }
        break;
      }
      case Kind::kFrontier: {
        const ct::EventId e = resolve(k, rq.a);
        start = now_ns();
        {
          ScopedSpan span("shard.frontier", rid);
          r = router.frontier(rq.tenant, e);
        }
        t = now_ns();
        record(rq, start, t);
        if (r.frontiers) {
          s.value = frontier_hash(*r.frontiers);
        } else {
          s.answer = 2;
        }
        break;
      }
    }
    count_outcome(r, st);
    st.served.push_back(s);
    ++st.requests;
    ++st.cursor;
  }
}

}  // namespace

ct::MonitorOptions monitor_options() { return ct::MonitorOptions{}; }

std::uint64_t frontier_hash(const ct::CausalFrontiers& f) {
  std::uint64_t h = kFnvOffset;
  for (const ct::EventIndex i : f.greatest_predecessor) h = fnv1a(h, i);
  for (const ct::EventIndex i : f.greatest_concurrent) h = fnv1a(h, i);
  return h;
}

Deployment::Deployment(const std::string& dir,
                       const std::vector<const TenantInput*>& tenants)
    : dir_(dir),
      inputs_(tenants),
      generation_(tenants.size(), 0),
      storage_(fresh_dir(dir)) {
  ScopedSpan span("setup.create_tenants");
  ct::RouterOptions ro;
  ro.pool_threads = kPoolThreads;
  ro.default_deadline = 0;
  router_ = std::make_unique<ct::ShardRouter>(ro);
  for (const TenantInput* in : inputs_) {
    ct::TenantConfig tc;
    tc.process_count = in->trace.process_count();
    tc.monitor = monitor_options();
    tc.shards = kShards;
    const ct::TenantId t = router_->add_tenant(tc);
    ct::WalOptions wo;
    wo.policy = ct::SyncPolicy::kEveryN;
    wo.sync_every = kSyncEvery;
    router_->attach_wal(t, storage_, wo);
  }
}

Deployment::~Deployment() {
  router_.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

const ct::MonitoringEntity& Deployment::leader(std::size_t t) const {
  return router_->shard_monitor(static_cast<ct::TenantId>(t), 0);
}

void Deployment::ingest(std::size_t t, std::size_t from, std::size_t to,
                        IngestLog& log, std::size_t publish_every) {
  const auto& arrivals = inputs_[t]->arrivals;
  const ct::TenantId tid = static_cast<ct::TenantId>(t);
  log.latency_us.reserve(log.latency_us.size() + (to - from));
  std::size_t since_publish = 0;
  for (std::size_t i = from; i < to; ++i) {
    const ct::Event& e = arrivals[i];
    const std::uint64_t start = now_ns();
    ct::IngestResult r;
    {
      ScopedSpan span("shard.ingest", i + 1);
      r = router_->ingest(tid, e);
      if (publish_every > 0 && ++since_publish == publish_every) {
        since_publish = 0;
        publish(t, log);
      }
    }
    const std::uint64_t end = now_ns();
    log.latency_us.push_back(static_cast<double>(end - start) * 1e-3);
    if (r.status == ct::IngestStatus::kRejected) ++log.rejected;
    if (r.status != ct::IngestStatus::kDuplicate) {
      log.unseen.push_back({e.id, start});
    }
  }
  log.records += to - from;
}

void Deployment::publish(std::size_t t, IngestLog& log) {
  const ct::TenantId tid = static_cast<ct::TenantId>(t);
  const std::uint64_t start = now_ns();
  ct::ColumnarPublishResult res;
  {
    ScopedSpan span("store.publish");
    {
      ScopedSpan sync("durability.sync");
      router_->wal(tid)->sync();
    }
    ct::ColumnarPublishOptions po;
    po.ns = ct::wal::tenant_namespace(tid);
    res = ct::publish_columnar(storage_, leader(t), ++generation_[t], po);
  }
  log.publish_ms.push_back(static_cast<double>(now_ns() - start) * 1e-6);
  log.image_bytes = res.bytes;
  log.image_events = res.wal_position;
}

double Deployment::open_epoch() {
  const std::uint64_t start = now_ns();
  {
    ScopedSpan span("shard.open_epoch");
    router_->open_epoch();
  }
  return static_cast<double>(now_ns() - start) * 1e-6;
}

double Deployment::close_epoch() {
  const std::uint64_t start = now_ns();
  {
    ScopedSpan span("shard.close_epoch");
    router_->close_epoch();
  }
  return static_cast<double>(now_ns() - start) * 1e-6;
}

std::vector<double> Deployment::note_visible(std::size_t t, IngestLog& log,
                                             std::uint64_t now) const {
  const ct::MonitoringEntity& m = leader(t);
  std::vector<double> lag_ms;
  std::size_t keep = 0;
  for (const IngestLog::Unseen& u : log.unseen) {
    if (m.delivered_count(u.id.process) >= u.id.index) {
      lag_ms.push_back(static_cast<double>(now - u.ingest_ns) * 1e-6);
    } else {
      log.unseen[keep++] = u;
    }
  }
  log.unseen.resize(keep);
  return lag_ms;
}

EpochKeys Deployment::epoch_keys(std::size_t t, std::size_t newest) const {
  const ct::MonitoringEntity& m = leader(t);
  const auto dlog = m.delivery_log();
  EpochKeys k;
  if (newest == 0) {
    k.table.assign(dlog.begin(), dlog.end());
  } else {
    const std::size_t n = std::min(newest, dlog.size());
    for (std::size_t i = 0; i < n; ++i) {
      k.table.push_back(dlog[dlog.size() - 1 - i]);
    }
  }
  k.delivered.resize(m.process_count());
  for (ct::ProcessId p = 0; p < m.process_count(); ++p) {
    k.delivered[p] = m.delivered_count(p);
  }
  return k;
}

void Deployment::serve(const std::vector<EpochKeys>& keys,
                       const std::vector<Plan>& plans, std::size_t windows,
                       double window_s, std::uint32_t first_window,
                       std::uint16_t epoch, std::vector<ClientStats>& stats) {
  Phase phase;
  phase.window_ns = static_cast<std::uint64_t>(window_s * 1e9);
  phase.first_window = first_window;
  phase.last_window =
      first_window + static_cast<std::uint32_t>(windows) - 1;
  phase.start_ns = now_ns();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      run_client(*router_, c, keys, plans[c], phase, epoch, stats[c]);
    });
  }
  for (auto& th : clients) th.join();
}

ColdStart Deployment::cold_start(std::size_t t) {
  const ct::TenantId tid = static_cast<ct::TenantId>(t);
  router_->wal(tid)->sync();
  const std::uint64_t want = leader(t).state_digest();
  ColdStart cs;
  ct::LadderRecovery rec;  // destroyed after the clock stops
  const std::uint64_t start = now_ns();
  {
    ScopedSpan span("store.cold_start");
    {
      ScopedSpan ladder("store.ladder");
      rec = ct::recover_with_ladder(storage_, input(t).trace.process_count(),
                                    monitor_options(),
                                    ct::wal::tenant_namespace(tid));
    }
    cs.ladder_ms = static_cast<double>(now_ns() - start) * 1e-6;
    cs.digest_matches = rec.monitor && rec.monitor->state_digest() == want;
    cs.rung = rec.rung;
  }
  cs.ms = static_cast<double>(now_ns() - start) * 1e-6;
  return cs;
}

}  // namespace perfbench
