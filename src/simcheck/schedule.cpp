#include "simcheck/schedule.hpp"

#include <bit>

namespace ct {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline void mix(std::uint64_t& h, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    h = (h ^ ((value >> shift) & 0xffu)) * kFnvPrime;
  }
}

inline std::uint64_t pack(EventId id) {
  return (static_cast<std::uint64_t>(id.process) << 32) | id.index;
}

}  // namespace

std::size_t SimSchedule::emit_count() const {
  std::size_t n = 0;
  for (const SimOp& op : ops) n += op.kind == SimOp::Kind::kEmit;
  return n;
}

std::size_t SimSchedule::probe_count() const {
  std::size_t n = 0;
  for (const SimOp& op : ops) n += op.kind == SimOp::Kind::kProbe;
  return n;
}

std::uint64_t SimSchedule::digest() const {
  std::uint64_t h = kFnvOffset;
  mix(h, seed);
  mix(h, process_count);
  mix(h, max_cluster_size);
  mix(h, std::bit_cast<std::uint64_t>(nth_threshold));
  mix(h, ops.size());
  for (const SimOp& op : ops) {
    mix(h, static_cast<std::uint64_t>(op.kind));
    mix(h, pack(op.event.id));
    mix(h, static_cast<std::uint64_t>(op.event.kind));
    mix(h, pack(op.event.partner));
    mix(h, op.a);
    mix(h, op.b);
    mix(h, op.c);
    mix(h, op.d);
  }
  return h;
}

}  // namespace ct
