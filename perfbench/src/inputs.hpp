// Seeded inputs of the benchmark. Everything the deployment receives is
// generated here, before any clock starts: the traced computations, their
// arrival order through a reorder + duplicate channel, and the clients'
// request plans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "model/event.hpp"
#include "model/trace.hpp"

namespace perfbench {

/// One tenant's traced computation and the record stream that reaches the
/// monitor.
struct TenantInput {
  std::string family;  ///< "web" (hub-heavy) or "halo2d" (stencil)
  std::string params;  ///< generator parameters, for the run log
  ct::Trace trace;
  /// trace.delivery_order() after the seeded channel: reordered within a
  /// small window and with some records duplicated; nothing dropped or
  /// corrupted, so every event is eventually delivered.
  std::vector<ct::Event> arrivals;
};

/// Hub-heavy web-like application with 300 processes and about `events`
/// events.
TenantInput make_web(std::size_t events, std::uint64_t seed);
/// 16x16 SPMD halo exchange with about `events` events.
TenantInput make_halo2d(std::size_t events, std::uint64_t seed);

enum class Kind : std::uint8_t { kPrecedence, kBatch, kFrontier };

inline constexpr std::size_t kBatchPairs = 256;

/// A client's request. Keys are positions in the serving epoch's key table
/// (taken modulo its size), so one plan serves any epoch.
struct Request {
  Kind kind = Kind::kPrecedence;
  std::uint8_t tenant = 0;
  std::uint32_t a = 0;  ///< first key, or the frontier's event
  std::uint32_t b = 0;  ///< second key
  std::uint32_t batch = 0;  ///< batch: first pair in Plan::batch_keys
};

/// A closed-loop client's requests, replayed cyclically.
struct Plan {
  std::vector<Request> requests;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> batch_keys;
};

enum class KeyShape : std::uint8_t {
  kUniform,  ///< keys uniform over the whole table
  kZipf,     ///< keys Zipf-skewed towards position 0 of a `zipf_keys` table
};

struct PlanSpec {
  std::size_t requests = 1 << 16;
  std::size_t tenants = 1;
  KeyShape shape = KeyShape::kUniform;
  std::size_t zipf_keys = 2048;
  double zipf_exponent = 1.0;
  double batch_share = 0.08;
  double frontier_share = 0.02;
};

Plan make_plan(const PlanSpec& spec, std::uint64_t seed);

}  // namespace perfbench
