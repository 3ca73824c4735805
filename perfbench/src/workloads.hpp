// The three workloads and the pass that runs one of them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "spans.hpp"

namespace perfbench {

/// Input sizes and phase lengths. Event counts are fixed so both sides of
/// a comparison do identical work; only the closed-loop query phases
/// scale with --seconds.
struct Scale {
  double seconds = 10.0;
  std::size_t setup_reps = 3;  ///< setup_s is the median of these
  std::size_t cold_reps = 5;   ///< cold_start_ms is the median of these

  std::size_t durable_events = 150000;
  double durable_preload_share = 0.1;
  std::size_t durable_publish_every = 50000;
  double durable_serve_share = 0.5;  ///< of --seconds

  std::size_t serve_events = 40000;  ///< per tenant

  std::size_t tail_preload = 40000;
  std::size_t tail_cycle_records = 5000;
  std::size_t tail_cycles = 8;
  std::size_t tail_newest = 2048;
  double tail_serve_share = 0.8;  ///< of --seconds, over all cycles

  std::size_t ingest_chunk = 5000;  ///< records per ingest measurement

  std::size_t plan_requests = 1 << 16;
  std::size_t peel_broker_requests = 4000;
};

Scale make_scale(double seconds, bool toy);

/// Everything a workload receives, generated from the seed.
struct Inputs {
  std::vector<TenantInput> tenants;
  std::vector<Plan> plans;  ///< one per client
};

bool known_workload(const std::string& name);
Inputs make_inputs(const std::string& workload, const Scale& scale,
                   std::uint64_t seed);

struct PassResult {
  Metrics e2e;
  std::map<std::string, double> layer;
  std::vector<std::string> violations;
  std::vector<std::string> table;  ///< human-readable report lines
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Span> spans;  ///< traced passes only
};

/// Runs `workload` once. A traced pass records spans and adds the peeled
/// layer calls.
PassResult run_pass(const std::string& workload, const Inputs& inputs,
                    const Scale& scale, const std::string& work_dir,
                    bool traced);

}  // namespace perfbench
