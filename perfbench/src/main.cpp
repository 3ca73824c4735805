// The end-to-end benchmark binary.
//
//   ct_e2e --workload <ingest_durable|serve_uniform|live_tail> --seed <n>
//          --seconds <s> --trace <0|1> [--toy] [--work-dir d] [--out-dir d]
//
// With --trace 0 it runs the workload once with tracing off and prints the
// end-to-end metrics. With --trace 1 it runs it untraced, then again with
// layer spans on plus the peeled layer calls, and prints the per-layer
// metrics and the tracing overhead of every end-to-end metric; the spans
// and a self-time table go to --out-dir. The last stdout line is one JSON
// object; the exit code is 1 when the correctness gate fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ingest_eps", "1/s"},
    {"ingest_p50_us", "us"},
    {"cold_start_ms", "ms"},
    {"query_qps", "1/s"},
    {"precedence_p50_us", "us"},
    {"batch_p50_us", "us"},
    {"frontier_p50_us", "us"},
    {"frontier_p99_us", "us"},
    {"visible_lag_p50_ms", "ms"},
    {"visible_lag_p99_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

// End-to-end tails of microsecond operations. Host scheduling stalls set
// them, so they swing more from run to run than any bound allows; they are
// printed by every run and reported unbounded with the per-layer metrics.
constexpr MetricSpec kTails[] = {
    {"ingest_p99_us", "us"},
    {"precedence_p99_us", "us"},
    {"batch_p99_us", "us"},
};

constexpr MetricSpec kPerLayer[] = {
    {"shard.ingest_us", "us"},
    {"shard.open_epoch_ms", "ms"},
    {"shard.close_epoch_ms", "ms"},
    {"shard.precedence_self_us", "us"},
    {"shard.attempts_per_query", "count"},
    {"shard.degraded", "count"},
    {"shard.unknown", "count"},
    {"shard.shed", "count"},
    {"monitor.delivery_ingest_ns", "ns"},
    {"monitor.ingest_ns", "ns"},
    {"monitor.max_queue_depth", "count"},
    {"monitor.delivered_trace_ms", "ms"},
    {"broker.build_ms", "ms"},
    {"broker.precedence_us", "us"},
    {"broker.batch_us", "us"},
    {"broker.frontier_us", "us"},
    {"broker.max_queue_depth", "count"},
    {"broker.cache_hit_ratio", "share"},
    {"broker.ticks_per_query", "count"},
    {"core.observe_ns", "ns"},
    {"core.precedes_ns", "ns"},
    {"core.batch_pair_ns", "ns"},
    {"core.frontier_us", "us"},
    {"core.ts_words_per_event", "count"},
    {"core.cluster_receive_share", "share"},
    {"core.final_clusters", "count"},
    {"index.insert_ns", "ns"},
    {"durability.wal_append_ns", "ns"},
    {"durability.storage_append_ns", "ns"},
    {"durability.sync_us", "us"},
    {"durability.syncs", "count"},
    {"durability.wal_bytes_per_event", "B"},
    {"store.publish_ms", "ms"},
    {"store.image_bytes_per_event", "B"},
    {"store.map_open_ms", "ms"},
    {"store.verify_blocks_ms", "ms"},
    {"store.ladder_ms", "ms"},
    {"store.ladder_rung", "count"},
    {"store.mapped_precedes_ns", "ns"},
    {"timestamp.differential_build_ms", "ms"},
    {"timestamp.ondemand_fm_build_ms", "ms"},
    {"timestamp.fallback_answers", "count"},
    {"failed_share", "share"},
};

constexpr const char* kOverheadPrefix = "trace_overhead.";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  std::string work_dir = ".bench_build/work";
  std::string out_dir = ".bench_build/traces";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ct_e2e: " << why
            << "\nusage: ct_e2e --workload <ingest_durable|serve_uniform|"
               "live_tail> --seed <n> --seconds <s> --trace <0|1> [--toy] "
               "[--work-dir d] [--out-dir d]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() == "1";
    } else if (k == "--toy") {
      a.toy = true;
    } else if (k == "--work-dir") {
      a.work_dir = value();
    } else if (k == "--out-dir") {
      a.out_dir = value();
    } else {
      usage("unknown argument " + k);
    }
  }
  if (!known_workload(a.workload)) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Writes the self-time table and returns its lines.
std::vector<std::string> self_time_table(const std::vector<Span>& all,
                                         const std::string& path) {
  const std::vector<LayerTime> layers = spans::layer_times(all);
  double self_total = 0.0;
  for (const LayerTime& t : layers) self_total += t.self_ms;
  std::vector<std::string> lines;
  lines.push_back("layer\tcalls\ttotal_ms\tself_ms\tself_share\tp50_us");
  for (const LayerTime& t : layers) {
    std::vector<double> d = t.durations_us;
    std::ostringstream os;
    os << t.name << '\t' << t.calls << '\t' << t.total_ms << '\t' << t.self_ms
       << '\t' << (self_total > 0 ? t.self_ms / self_total : 0.0) << '\t'
       << median(d);
    lines.push_back(os.str());
  }
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& l : lines) out << l << '\n';
  return lines;
}

int run(const Args& args) {
  const Scale scale = make_scale(args.seconds, args.toy);
  const std::uint64_t gen_start = now_ns();
  const Inputs inputs = make_inputs(args.workload, scale, args.seed);
  std::cout << "workload " << args.workload << " seed " << args.seed
            << " seconds " << args.seconds << (args.toy ? " (toy)" : "")
            << "; inputs generated in "
            << seconds_between(gen_start, now_ns()) << " s\n";
  for (const TenantInput& t : inputs.tenants) {
    std::cout << "  tenant " << t.family << ": " << t.trace.process_count()
              << " processes, " << t.trace.event_count() << " events, "
              << t.arrivals.size() << " records; " << t.params << "\n";
  }
  std::filesystem::create_directories(args.work_dir);

  PassResult plain = run_pass(args.workload, inputs, scale, args.work_dir,
                              /*traced=*/false);
  std::vector<std::string> violations = plain.violations;
  std::uint64_t attempted = plain.attempted, failed = plain.failed;
  for (const std::string& l : plain.table) std::cout << "  " << l << "\n";

  std::ostringstream metrics;
  bool first = true;
  const auto emit = [&](const std::string& name, double value,
                        const std::string& unit) {
    metrics << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
            << json_number(value) << ", \"unit\": " << json_string(unit)
            << "}";
    first = false;
    std::cout << "  " << name << " = " << json_number(value) << " " << unit
              << "\n";
  };

  if (!args.trace) {
    for (const MetricSpec& m : kEndToEnd) {
      emit(m.name, plain.e2e.at(m.name).value, m.unit);
    }
    for (const MetricSpec& m : kTails) {
      std::cout << "  " << m.name << " = "
                << json_number(plain.e2e.at(m.name).value) << " " << m.unit
                << " (tail, unbounded)\n";
    }
  } else {
    PassResult traced = run_pass(args.workload, inputs, scale, args.work_dir,
                                 /*traced=*/true);
    violations.insert(violations.end(), traced.violations.begin(),
                      traced.violations.end());
    attempted += traced.attempted;
    failed += traced.failed;
    std::filesystem::create_directories(args.out_dir);
    const std::string base = args.out_dir + "/" + args.workload;
    spans::write_tsv(traced.spans, base + ".spans.tsv");
    std::cout << "  self time by layer (traced pass, " << traced.spans.size()
              << " spans -> " << base << ".spans.tsv)\n";
    for (const std::string& l :
         self_time_table(traced.spans, base + ".selftime.tsv")) {
      std::cout << "    " << l << "\n";
    }
    for (const MetricSpec& m : kPerLayer) {
      const auto it = traced.layer.find(m.name);
      if (it == traced.layer.end()) {
        violations.push_back(std::string("layer metric not measured: ") +
                             m.name);
        continue;
      }
      emit(m.name, it->second, m.unit);
    }
    for (const MetricSpec& m : kTails) {
      emit(m.name, traced.e2e.at(m.name).value, m.unit);
    }
    for (const MetricSpec& m : kEndToEnd) {
      const double base_v = plain.e2e.at(m.name).value;
      const double traced_v = traced.e2e.at(m.name).value;
      emit(std::string(kOverheadPrefix) + m.name,
           base_v != 0.0 ? traced_v / base_v - 1.0 : 0.0, "share");
    }
  }

  for (const std::string& v : violations) {
    std::cout << "  VIOLATION: " << v << "\n";
  }
  const bool correct = violations.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "ct_e2e: " << e.what() << "\n";
    return 1;
  }
}
