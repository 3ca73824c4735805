#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common.hpp"
#include "monitor/fault_injector.hpp"
#include "trace/generators.hpp"
#include "util/prng.hpp"

namespace perfbench {
namespace {

// Reorder + duplicate channel between the traced processes and the
// monitor: racing process streams arrive out of order and retransmit, but
// nothing is lost or corrupted, so no ingest operation fails.
constexpr double kReorderRate = 0.05;
constexpr double kDupRate = 0.01;
constexpr std::size_t kReorderWindow = 8;

std::vector<ct::Event> through_channel(const ct::Trace& trace,
                                       std::uint64_t seed) {
  std::vector<ct::Event> out;
  out.reserve(trace.event_count() + trace.event_count() / 50);
  ct::FaultPlan plan;
  plan.seed = seed;
  plan.reorder_rate = kReorderRate;
  plan.dup_rate = kDupRate;
  plan.reorder_window = kReorderWindow;
  ct::FaultInjector channel(plan,
                            [&out](const ct::Event& e) { out.push_back(e); });
  for (const ct::EventId id : trace.delivery_order()) {
    channel.push(trace.event(id));
  }
  channel.flush();
  return out;
}

std::string channel_params() {
  std::ostringstream os;
  os << " channel{reorder_rate=" << kReorderRate << " dup_rate=" << kDupRate
     << " window=" << kReorderWindow << "}";
  return os.str();
}

}  // namespace

TenantInput make_web(std::size_t events, std::uint64_t seed) {
  ct::WebServerOptions o;
  o.clients = 260;
  o.servers = 28;
  o.backends = 12;
  o.affinity = 0.85;
  o.backend_rate = 0.4;
  // A request averages 8 events (request, handling, 40% backend round
  // trip, response, render).
  o.requests = std::max<std::size_t>(1, events / 8);
  o.seed = derive_seed(seed, 1);
  TenantInput in;
  in.family = "web";
  in.trace = ct::generate_web_server(o);
  in.arrivals = through_channel(in.trace, derive_seed(seed, 2));
  std::ostringstream os;
  os << "generate_web_server{clients=" << o.clients << " servers=" << o.servers
     << " backends=" << o.backends << " requests=" << o.requests
     << " affinity=" << o.affinity << " backend_rate=" << o.backend_rate
     << "}" << channel_params();
  in.params = os.str();
  return in;
}

TenantInput make_halo2d(std::size_t events, std::uint64_t seed) {
  ct::Halo2dOptions o;
  o.width = 16;
  o.height = 16;
  o.compute_events = 2;
  // 960 sends + 960 receives + 512 compute events per iteration.
  o.iterations = std::max<std::size_t>(1, events / 2432);
  o.seed = derive_seed(seed, 3);
  TenantInput in;
  in.family = "halo2d";
  in.trace = ct::generate_halo2d(o);
  in.arrivals = through_channel(in.trace, derive_seed(seed, 4));
  std::ostringstream os;
  os << "generate_halo2d{width=" << o.width << " height=" << o.height
     << " iterations=" << o.iterations
     << " compute_events=" << o.compute_events << "}" << channel_params();
  in.params = os.str();
  return in;
}

Plan make_plan(const PlanSpec& spec, std::uint64_t seed) {
  ct::Prng rng(seed);
  std::vector<double> zipf_cdf;
  if (spec.shape == KeyShape::kZipf) {
    zipf_cdf.resize(spec.zipf_keys);
    double total = 0.0;
    for (std::size_t r = 0; r < spec.zipf_keys; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_exponent);
      zipf_cdf[r] = total;
    }
    for (double& c : zipf_cdf) c /= total;
  }
  const auto key = [&]() -> std::uint32_t {
    if (spec.shape == KeyShape::kUniform) {
      return static_cast<std::uint32_t>(rng() >> 32);
    }
    const auto it =
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), rng.real());
    return static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - zipf_cdf.begin(),
                                 static_cast<std::ptrdiff_t>(spec.zipf_keys) -
                                     1));
  };

  Plan plan;
  plan.requests.reserve(spec.requests);
  for (std::size_t i = 0; i < spec.requests; ++i) {
    Request r;
    r.tenant = static_cast<std::uint8_t>(rng.index(spec.tenants));
    const double draw = rng.real();
    if (draw < spec.frontier_share) {
      r.kind = Kind::kFrontier;
      r.a = key();
    } else if (draw < spec.frontier_share + spec.batch_share) {
      r.kind = Kind::kBatch;
      r.batch = static_cast<std::uint32_t>(plan.batch_keys.size());
      for (std::size_t k = 0; k < kBatchPairs; ++k) {
        plan.batch_keys.emplace_back(key(), key());
      }
    } else {
      r.kind = Kind::kPrecedence;
      r.a = key();
      r.b = key();
    }
    plan.requests.push_back(r);
  }
  return plan;
}

}  // namespace perfbench
