// Layer spans recorded by the traced run, from the benchmark's own side of
// each call into the system: name, start, end, parent span and a request
// id shared by the spans of one request. Spans are kept in per-thread
// memory and written out when the run ends; with tracing off a span costs
// one branch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = nullptr;  ///< layer.operation, a string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< 0 = not part of a client request
  std::uint32_t thread = 0;
};

/// Per-name aggregate of a span set: calls, total and self time (duration
/// minus the time covered by child spans), and the span durations.
struct LayerTime {
  std::string name;
  std::size_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::vector<double> durations_us;
};

namespace spans {

void enable(bool on);
bool enabled();
/// Drops every recorded span (between a run's passes).
void clear();
/// All spans recorded so far, from every thread.
std::vector<Span> collect();
std::vector<LayerTime> layer_times(const std::vector<Span>& all);
/// One line per span: name, thread, id, parent, request, start, end (ns).
void write_tsv(const std::vector<Span>& all, const std::string& path);

}  // namespace spans

/// RAII span; a no-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::size_t slot_ = 0;
  bool active_ = false;
};

}  // namespace perfbench
