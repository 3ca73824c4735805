#include "workloads.hpp"

#include <array>
#include <iomanip>
#include <memory>
#include <sstream>

#include "deployment.hpp"
#include "durability/wal.hpp"
#include "gate.hpp"
#include "peel.hpp"

namespace perfbench {
namespace {

/// What one pass measured, before it is turned into metrics.
struct Collected {
  std::vector<double> setup_s;
  /// Ingest feeds the workload reports ingest metrics for, each a run of
  /// back-to-back ShardRouter::ingest calls.
  std::vector<std::vector<double>> feeds_us;
  /// Visibility lags, one group per epoch switch the workload reports.
  std::vector<std::vector<double>> lag_groups_ms;
  std::vector<double> publish_ms;
  std::uint64_t image_bytes = 0;
  std::uint64_t image_events = 0;
  std::vector<double> open_ms, close_ms;
  std::vector<ClientStats> clients = std::vector<ClientStats>(kClients);
  std::vector<std::vector<EpochKeys>> epochs;  ///< [epoch][tenant]
  std::uint32_t windows = 0;
  double window_s = 1.0;
  std::vector<ColdStart> cold;
  std::uint64_t ingest_records = 0;  ///< every feed, set-up included
  std::uint64_t ingest_rejected = 0;
};

std::vector<const TenantInput*> pointers(const Inputs& in) {
  std::vector<const TenantInput*> out;
  for (const TenantInput& t : in.tenants) out.push_back(&t);
  return out;
}

void absorb(Collected& col, const IngestLog& log) {
  col.publish_ms.insert(col.publish_ms.end(), log.publish_ms.begin(),
                        log.publish_ms.end());
  if (log.image_events > 0) {
    col.image_bytes = log.image_bytes;
    col.image_events = log.image_events;
  }
  col.ingest_records += log.records;
  col.ingest_rejected += log.rejected;
}

/// Tenant creation, preload ingest, first CTC1 generation and first epoch,
/// `reps` times over; the last deployment is kept. Returns each set-up's
/// preload feeds and visibility lags through `feeds` / `lags`.
std::unique_ptr<Deployment> set_up(const Inputs& in,
                                   const std::vector<std::size_t>& preload,
                                   const std::string& dir, std::size_t reps,
                                   Collected& col,
                                   std::vector<std::vector<double>>& feeds,
                                   std::vector<std::vector<double>>& lags) {
  std::unique_ptr<Deployment> dep;
  for (std::size_t r = 0; r < reps; ++r) {
    dep.reset();
    std::vector<IngestLog> logs(in.tenants.size());
    const std::uint64_t start = now_ns();
    std::uint64_t opened = 0;
    {
      ScopedSpan span("setup");
      dep = std::make_unique<Deployment>(dir, pointers(in));
      for (std::size_t t = 0; t < in.tenants.size(); ++t) {
        dep->ingest(t, 0, preload[t], logs[t]);
        dep->publish(t, logs[t]);
      }
      col.open_ms.push_back(dep->open_epoch());
      opened = now_ns();
    }
    col.setup_s.push_back(seconds_between(start, opened));
    std::vector<double> lag;
    for (std::size_t t = 0; t < in.tenants.size(); ++t) {
      const std::vector<double> l = dep->note_visible(t, logs[t], opened);
      lag.insert(lag.end(), l.begin(), l.end());
      feeds.push_back(std::move(logs[t].latency_us));
      absorb(col, logs[t]);
    }
    lags.push_back(std::move(lag));
  }
  return dep;
}

/// One serving phase of `seconds`, cut into measurement windows of about
/// col.window_s each.
void serve(Deployment& dep, const Inputs& in, std::size_t newest,
           double seconds, Collected& col) {
  std::vector<EpochKeys> keys;
  for (std::size_t t = 0; t < dep.tenants(); ++t) {
    keys.push_back(dep.epoch_keys(t, newest));
  }
  col.epochs.push_back(std::move(keys));
  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / col.window_s + 0.5));
  dep.serve(col.epochs.back(), in.plans, windows,
            seconds / static_cast<double>(windows), col.windows,
            static_cast<std::uint16_t>(col.epochs.size() - 1), col.clients);
  col.windows += static_cast<std::uint32_t>(windows);
}

void cold_starts(Deployment& dep, std::size_t reps, Collected& col) {
  for (std::size_t r = 0; r < reps; ++r) col.cold.push_back(dep.cold_start(0));
}

/// Checks the deployment's accounting invariants and the cold starts.
void check_deployment(Deployment& dep, const Collected& col,
                      std::vector<std::string>& violations) {
  ct::ShardRouter& router = dep.router();
  for (std::size_t t = 0; t < dep.tenants(); ++t) {
    const ct::TenantId tid = static_cast<ct::TenantId>(t);
    if (!router.tenant_health(tid).accounted()) {
      violations.push_back("tenant " + std::to_string(t) +
                           ": TenantHealth not accounted");
    }
    for (ct::ShardId s = 0; s < router.shard_count(tid); ++s) {
      if (!router.shard_monitor(tid, s).health().accounted()) {
        violations.push_back("tenant " + std::to_string(t) + " shard " +
                             std::to_string(s) +
                             ": MonitorHealth not accounted");
      }
    }
  }
  for (const ColdStart& c : col.cold) {
    if (!c.digest_matches) {
      violations.push_back("cold start: recovered digest differs");
    }
    if (c.rung != ct::RecoveryRung::kMapped) {
      violations.push_back(std::string("cold start: recovered on rung ") +
                           ct::to_string(c.rung) + ", not mapped");
    }
  }
}

/// Layer metrics read from the live deployment before it is torn down.
void deployment_layers(Deployment& dep, std::map<std::string, double>& layer) {
  ct::ShardRouter& router = dep.router();
  double degraded = 0, unknown = 0, shed = 0, queue = 0;
  double syncs = 0, bytes = 0, appends = 0;
  for (std::size_t t = 0; t < dep.tenants(); ++t) {
    const ct::TenantId tid = static_cast<ct::TenantId>(t);
    const ct::TenantHealth h = router.tenant_health(tid);
    degraded += static_cast<double>(h.degraded);
    unknown += static_cast<double>(h.unknown);
    shed += static_cast<double>(h.shed);
    queue = std::max(queue, static_cast<double>(
                                dep.leader(t).health().max_queue_depth));
    const ct::WalStats& w = router.wal(tid)->stats();
    syncs += static_cast<double>(w.syncs);
    bytes += static_cast<double>(w.bytes_appended);
    appends += static_cast<double>(w.appends);
  }
  layer["shard.degraded"] = degraded;
  layer["shard.unknown"] = unknown;
  layer["shard.shed"] = shed;
  layer["monitor.max_queue_depth"] = queue;
  layer["durability.syncs"] = syncs;
  layer["durability.wal_bytes_per_event"] = appends > 0 ? bytes / appends : 0;
}

// --- the workloads -----------------------------------------------------------
//
// Every workload reports every end-to-end metric. The metrics a workload
// exists for come from its measured phase; the others come from its set-up
// (ingest and visibility of the preload) or from a short serving phase.

// One hub-heavy tenant replayed by a single feeder as fast as it goes,
// publishing CTC1 every `durable_publish_every` records, then served
// briefly and cold-restarted: nearly all the work is delivery,
// timestamping, index, WAL and store. Its ingest metrics cover the
// set-up preloads and the main feed.
std::unique_ptr<Deployment> ingest_durable(const Inputs& in, const Scale& sc,
                                           const std::string& dir,
                                           Collected& col) {
  const std::size_t total = in.tenants[0].arrivals.size();
  const std::size_t preload =
      static_cast<std::size_t>(static_cast<double>(total) *
                               sc.durable_preload_share);
  auto dep = set_up(in, {preload}, dir, sc.setup_reps, col, col.feeds_us,
                    col.lag_groups_ms);
  col.close_ms.push_back(dep->close_epoch());
  IngestLog feed;
  dep->ingest(0, preload, total, feed, sc.durable_publish_every);
  col.open_ms.push_back(dep->open_epoch());
  dep->note_visible(0, feed, now_ns());
  absorb(col, feed);
  col.feeds_us.push_back(std::move(feed.latency_us));
  serve(*dep, in, 0, sc.seconds * sc.durable_serve_share, col);
  col.close_ms.push_back(dep->close_epoch());
  return dep;
}

// Two preloaded tenants of different communication structure served in
// one epoch with keys uniform over all events, far beyond the answer
// cache: the work is routing, brokering and the kernels. Its ingest and
// visibility metrics are those of the preload.
std::unique_ptr<Deployment> serve_uniform(const Inputs& in, const Scale& sc,
                                          const std::string& dir,
                                          Collected& col) {
  std::vector<std::size_t> preload;
  for (const TenantInput& t : in.tenants) preload.push_back(t.arrivals.size());
  auto dep = set_up(in, preload, dir, sc.setup_reps, col, col.feeds_us,
                    col.lag_groups_ms);
  serve(*dep, in, 0, sc.seconds, col);
  col.close_ms.push_back(dep->close_epoch());
  return dep;
}

// Writes beside reads: short ingest bursts, each made visible by an epoch
// switch, with clients reading the newest events under Zipf skew so the
// answer cache does real work.
std::unique_ptr<Deployment> live_tail(const Inputs& in, const Scale& sc,
                                      const std::string& dir, Collected& col) {
  const std::size_t total = in.tenants[0].arrivals.size();
  const std::size_t preload = std::min(sc.tail_preload, total);
  std::vector<std::vector<double>> setup_feeds, setup_lags;
  auto dep = set_up(in, {preload}, dir, sc.setup_reps, col, setup_feeds,
                    setup_lags);
  const double per_cycle =
      sc.seconds * sc.tail_serve_share / static_cast<double>(sc.tail_cycles);
  IngestLog feed;
  std::size_t from = preload;
  for (std::size_t c = 0; c < sc.tail_cycles; ++c) {
    const std::size_t to = c + 1 == sc.tail_cycles
                               ? total
                               : std::min(total, from + sc.tail_cycle_records);
    col.close_ms.push_back(dep->close_epoch());
    dep->ingest(0, from, to, feed);
    col.open_ms.push_back(dep->open_epoch());
    col.lag_groups_ms.push_back(dep->note_visible(0, feed, now_ns()));
    serve(*dep, in, sc.tail_newest, per_cycle, col);
    from = to;
  }
  absorb(col, feed);
  col.feeds_us.push_back(std::move(feed.latency_us));
  col.close_ms.push_back(dep->close_epoch());
  return dep;
}

/// Medians over the chunks of every feed of the per-chunk throughput
/// (records over time inside ingest calls), p50 and p99.
struct IngestSummary {
  double eps = 0, p50 = 0, p99 = 0;
  std::size_t chunks = 0, records = 0;
};

IngestSummary summarize_ingest(const std::vector<std::vector<double>>& feeds,
                               std::size_t chunk) {
  std::vector<double> eps, p50, p99;
  IngestSummary s;
  for (const std::vector<double>& feed : feeds) {
    const std::size_t n = feed.size();
    s.records += n;
    // About `chunk` records each, split evenly.
    const std::size_t k = std::max<std::size_t>(1, (n + chunk / 2) / chunk);
    for (std::size_t j = 0; j < k && n > 0; ++j) {
      std::vector<double> c(
          feed.begin() + static_cast<std::ptrdiff_t>(n * j / k),
          feed.begin() + static_cast<std::ptrdiff_t>(n * (j + 1) / k));
      double busy_us = 0;
      for (const double us : c) busy_us += us;
      eps.push_back(static_cast<double>(c.size()) / (busy_us * 1e-6));
      const Summary q = summarize(std::move(c));
      p50.push_back(q.p50);
      p99.push_back(q.p99);
    }
  }
  s.chunks = eps.size();
  s.eps = central(eps);
  s.p50 = central(p50);
  s.p99 = central(p99);
  return s;
}

/// Samples a p99 needs to have ten samples beyond it.
constexpr std::size_t kMinSamples = 1000;

/// p50 and p99 per group of consecutive windows holding at least
/// kMinSamples samples, aggregated over the groups by the interquartile
/// mean.
Summary summarize_groups(const std::vector<std::vector<double>>& windows) {
  std::vector<std::vector<double>> groups;
  std::vector<double> current;
  for (const std::vector<double>& w : windows) {
    current.insert(current.end(), w.begin(), w.end());
    if (current.size() >= kMinSamples) {
      groups.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) {
    if (groups.empty()) {
      groups.push_back(std::move(current));
    } else {
      groups.back().insert(groups.back().end(), current.begin(),
                           current.end());
    }
  }
  std::vector<double> p50, p99;
  Summary s;
  for (const std::vector<double>& g : groups) {
    const Summary q = summarize(g);
    p50.push_back(q.p50);
    p99.push_back(q.p99);
    s.n += q.n;
  }
  s.p50 = central(p50);
  s.p99 = central(p99);
  return s;
}

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(6) << v;
  return os.str();
}

}  // namespace

Scale make_scale(double seconds, bool toy) {
  Scale s;
  s.seconds = seconds;
  if (toy) {
    s.setup_reps = 2;
    s.cold_reps = 2;
    s.durable_events = 8000;
    s.durable_publish_every = 3000;
    s.serve_events = 3000;
    s.tail_preload = 3000;
    s.tail_cycle_records = 500;
    s.tail_cycles = 3;
    s.tail_newest = 256;
    s.plan_requests = 1 << 12;
    s.peel_broker_requests = 200;
    s.ingest_chunk = 500;
  }
  return s;
}

bool known_workload(const std::string& name) {
  return name == "ingest_durable" || name == "serve_uniform" ||
         name == "live_tail";
}

Inputs make_inputs(const std::string& workload, const Scale& sc,
                   std::uint64_t seed) {
  Inputs in;
  PlanSpec spec;
  spec.requests = sc.plan_requests;
  if (workload == "ingest_durable") {
    in.tenants.push_back(make_web(sc.durable_events, seed));
  } else if (workload == "serve_uniform") {
    in.tenants.push_back(make_web(sc.serve_events, seed));
    in.tenants.push_back(make_halo2d(sc.serve_events, seed));
    spec.tenants = 2;
  } else {
    in.tenants.push_back(make_web(
        sc.tail_preload + sc.tail_cycles * sc.tail_cycle_records, seed));
    spec.shape = KeyShape::kZipf;
    spec.zipf_keys = sc.tail_newest;
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    in.plans.push_back(make_plan(spec, derive_seed(seed, 10 + c)));
  }
  return in;
}

PassResult run_pass(const std::string& workload, const Inputs& in,
                    const Scale& sc, const std::string& work_dir,
                    bool traced) {
  spans::clear();
  spans::enable(traced);
  PassResult out;
  Collected col;
  const std::string dir = work_dir + "/deploy";

  std::unique_ptr<Deployment> dep =
      workload == "ingest_durable"  ? ingest_durable(in, sc, dir, col)
      : workload == "serve_uniform" ? serve_uniform(in, sc, dir, col)
                                    : live_tail(in, sc, dir, col);
  cold_starts(*dep, sc.cold_reps, col);
  const double rss = peak_rss_mb();
  check_deployment(*dep, col, out.violations);
  deployment_layers(*dep, out.layer);
  dep.reset();
  spans::enable(false);

  // Client-side tallies, and per-window latency samples.
  std::vector<std::array<std::vector<double>, 3>> win(col.windows);
  std::vector<double> tenant0_precedence;  // for the router's self time
  std::uint64_t requests = 0, attempts = 0, unanswered = 0, fallback = 0;
  for (const ClientStats& st : col.clients) {
    for (const ClientStats::Latency& l : st.latencies) {
      win[l.window][static_cast<std::size_t>(l.kind)].push_back(l.us);
      if (l.kind == Kind::kPrecedence && l.tenant == 0) {
        tenant0_precedence.push_back(l.us);
      }
    }
    requests += st.requests;
    attempts += st.attempts;
    fallback += st.fallback;
    for (const Served& s : st.served) unanswered += s.answer == 2;
  }

  GateInput gate;
  gate.tenants = pointers(in);
  gate.epochs = &col.epochs;
  gate.plans = &in.plans;
  gate.clients = &col.clients;
  const std::uint64_t wrong = check_answers(gate, out.violations);
  std::uint64_t cold_failed = 0;
  for (const ColdStart& c : col.cold) cold_failed += !c.digest_matches;
  if (fallback > 0) {
    out.violations.push_back(std::to_string(fallback) +
                             " answers came from a fallback backend in a "
                             "fault-free run");
  }

  out.attempted = col.ingest_records + requests + col.cold.size();
  out.failed = col.ingest_rejected + unanswered + wrong + cold_failed;

  // Timings are central values over windows, chunks, epochs or
  // repetitions, so a burst of outside load in one of them does not move
  // the result.
  std::vector<double> qps;
  std::array<std::vector<std::vector<double>>, 3> by_kind;
  for (const auto& w : win) {
    std::size_t done = 0;
    for (std::size_t k = 0; k < 3; ++k) {
      done += w[k].size();
      by_kind[k].push_back(w[k]);
    }
    qps.push_back(static_cast<double>(done) / col.window_s);
  }
  const Summary ps = summarize_groups(by_kind[0]);
  const Summary bs = summarize_groups(by_kind[1]);
  const Summary fs = summarize_groups(by_kind[2]);
  const IngestSummary ing = summarize_ingest(col.feeds_us, sc.ingest_chunk);
  const Summary lag = summarize_groups(col.lag_groups_ms);
  std::vector<double> cold_ms;
  for (const ColdStart& c : col.cold) cold_ms.push_back(c.ms);

  Metrics& m = out.e2e;
  m["setup_s"] = {median(col.setup_s), "s"};
  m["ingest_eps"] = {ing.eps, "1/s"};
  m["ingest_p50_us"] = {ing.p50, "us"};
  m["ingest_p99_us"] = {ing.p99, "us"};
  m["cold_start_ms"] = {median(cold_ms), "ms"};
  m["query_qps"] = {central(qps), "1/s"};
  m["precedence_p50_us"] = {ps.p50, "us"};
  m["precedence_p99_us"] = {ps.p99, "us"};
  m["batch_p50_us"] = {bs.p50, "us"};
  m["batch_p99_us"] = {bs.p99, "us"};
  m["frontier_p50_us"] = {fs.p50, "us"};
  m["frontier_p99_us"] = {fs.p99, "us"};
  m["visible_lag_p50_ms"] = {lag.p50, "ms"};
  m["visible_lag_p99_ms"] = {lag.p99, "ms"};
  m["peak_rss_mb"] = {rss, "MB"};

  const double failed_share = static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted);
  out.table.push_back(
      "samples: setup " + std::to_string(col.setup_s.size()) + ", ingest " +
      std::to_string(ing.records) + " in " + std::to_string(ing.chunks) +
      " chunks, lag " + std::to_string(lag.n) + " in " +
      std::to_string(col.lag_groups_ms.size()) + " epochs, precedence " +
      std::to_string(ps.n) + ", batch " + std::to_string(bs.n) +
      ", frontier " + std::to_string(fs.n) + " in " +
      std::to_string(col.windows) + " windows, cold start " +
      std::to_string(cold_ms.size()));
  out.table.push_back("failed_share " + fmt(failed_share) + " (" +
                      std::to_string(out.failed) + " of " +
                      std::to_string(out.attempted) + "; wrong answers " +
                      std::to_string(wrong) + ")");

  std::map<std::string, double>& L = out.layer;
  L["failed_share"] = failed_share;
  L["shard.ingest_us"] = ing.p50;
  L["shard.open_epoch_ms"] = median(col.open_ms);
  L["shard.close_epoch_ms"] = median(col.close_ms);
  L["shard.attempts_per_query"] =
      requests == 0 ? 0.0
                    : static_cast<double>(attempts) /
                          static_cast<double>(requests);
  L["timestamp.fallback_answers"] = static_cast<double>(fallback);
  L["store.publish_ms"] = median(col.publish_ms);
  L["store.image_bytes_per_event"] =
      col.image_events == 0 ? 0.0
                            : static_cast<double>(col.image_bytes) /
                                  static_cast<double>(col.image_events);
  std::vector<double> ladder_ms;
  for (const ColdStart& c : col.cold) ladder_ms.push_back(c.ladder_ms);
  L["store.ladder_ms"] = median(ladder_ms);
  L["store.ladder_rung"] =
      col.cold.empty() ? -1.0 : static_cast<double>(col.cold[0].rung);

  if (traced) {
    PeelInput peel;
    peel.tenant = &in.tenants[0];
    peel.tenant_index = 0;
    peel.keys = &col.epochs.back()[0];
    peel.plans = &in.plans;
    peel.dir = work_dir + "/peel";
    peel.broker_requests = sc.peel_broker_requests;
    spans::enable(true);
    peel_layers(peel, L, out.violations);
    spans::enable(false);
    out.spans = spans::collect();
    // Router call minus broker call, both on tenant 0's requests.
    L["shard.precedence_self_us"] =
        median(tenant0_precedence) - L["broker.precedence_us"];
  }
  return out;
}

}  // namespace perfbench
