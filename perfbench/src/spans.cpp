#include "spans.hpp"

#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common.hpp"

namespace perfbench {
namespace {

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::size_t> open;  ///< indices of the spans still open
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->thread = static_cast<std::uint32_t>(g_buffers.size());
    buffer->spans.reserve(1 << 12);
  }
  return *buffer;
}

}  // namespace

namespace spans {

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& b : g_buffers) {
    b->spans.clear();
    b->open.clear();
  }
}

std::vector<Span> collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Span> all;
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

std::vector<LayerTime> layer_times(const std::vector<Span>& all) {
  std::unordered_map<std::uint64_t, std::uint64_t> child_ns;
  for (const Span& s : all) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, LayerTime> by_name;
  for (const Span& s : all) {
    LayerTime& t = by_name[s.name];
    t.name = s.name;
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const std::uint64_t covered = it == child_ns.end() ? 0 : it->second;
    ++t.calls;
    t.total_ms += static_cast<double>(dur) * 1e-6;
    t.self_ms += static_cast<double>(dur - std::min(dur, covered)) * 1e-6;
    t.durations_us.push_back(static_cast<double>(dur) * 1e-3);
  }
  std::vector<LayerTime> out;
  for (auto& [name, t] : by_name) out.push_back(std::move(t));
  return out;
}

void write_tsv(const std::vector<Span>& all, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << "name\tthread\tid\tparent\trequest\tstart_ns\tend_ns\n";
  for (const Span& s : all) {
    out << s.name << '\t' << s.thread << '\t' << s.id << '\t' << s.parent
        << '\t' << s.request << '\t' << s.start_ns << '\t' << s.end_ns
        << '\n';
  }
}

}  // namespace spans

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request) {
  if (!spans::enabled()) return;
  ThreadBuffer& b = local_buffer();
  Span s;
  s.name = name;
  s.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  s.thread = b.thread;
  s.request = request;
  if (!b.open.empty()) {
    const Span& parent = b.spans[b.open.back()];
    s.parent = parent.id;
    if (s.request == 0) s.request = parent.request;
  }
  slot_ = b.spans.size();
  active_ = true;
  b.open.push_back(slot_);
  s.start_ns = now_ns();
  b.spans.push_back(s);
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const std::uint64_t end = now_ns();
  ThreadBuffer& b = local_buffer();
  b.spans[slot_].end_ns = end;
  b.open.pop_back();
}

}  // namespace perfbench
