#include "timestamp/causality_backend.hpp"

#include <map>
#include <mutex>
#include <utility>

#include "timestamp/differential.hpp"
#include "timestamp/ondemand_fm.hpp"
#include "timestamp/tree_clock_store.hpp"
#include "util/check.hpp"

namespace ct {

namespace {

struct RegistryState {
  mutable std::mutex mu;
  std::map<ServingBackend, BackendRegistry::Factory> factories;
};

RegistryState& state() {
  static RegistryState s;
  return s;
}

/// kCluster: serves from the monitor's own engine through the broker's
/// type-erased, lock-discipline-carrying hook.
class MonitorBackend final : public CausalityBackend {
 public:
  explicit MonitorBackend(const BackendContext& ctx)
      : precedes_(ctx.monitor_precedes) {
    CT_CHECK_MSG(precedes_,
                 "kCluster backend requires BackendContext::monitor_precedes");
  }
  ServingBackend id() const override { return ServingBackend::kCluster; }
  const char* name() const override { return "cluster"; }
  BackendCapabilities capabilities() const override {
    return {.supports_frontier = true,
            .supports_batch = true,  // the monitor's kernel-backed bulk entry
            .concurrent_reads = true,
            .rebuild_cost = RebuildCost::kIncremental};
  }
  std::optional<bool> precedes_metered(EventId e, EventId f,
                                       QueryCost& cost) override {
    return precedes_(e, f, cost);
  }

 private:
  std::function<std::optional<bool>(EventId, EventId, QueryCost&)> precedes_;
};

class DifferentialBackend final : public CausalityBackend {
 public:
  explicit DifferentialBackend(const BackendContext& ctx)
      : store_(*ctx.trace, ctx.differential_interval) {}
  ServingBackend id() const override { return ServingBackend::kDifferential; }
  const char* name() const override { return "differential"; }
  BackendCapabilities capabilities() const override {
    return {.supports_frontier = true,
            .supports_batch = false,
            .concurrent_reads = true,  // const replay over immutable state
            .rebuild_cost = RebuildCost::kFullReplay};
  }
  std::optional<bool> precedes_metered(EventId e, EventId f,
                                       QueryCost& cost) override {
    return store_.precedes_metered(e, f, cost);
  }

 private:
  DifferentialStore store_;
};

class OnDemandBackend final : public CausalityBackend {
 public:
  explicit OnDemandBackend(const BackendContext& ctx)
      : engine_(*ctx.trace,
                std::max<std::size_t>(1, ctx.ondemand_cache_capacity)) {}
  ServingBackend id() const override { return ServingBackend::kOnDemandFm; }
  const char* name() const override { return "ondemand-fm"; }
  BackendCapabilities capabilities() const override {
    return {.supports_frontier = true,
            .supports_batch = false,
            .concurrent_reads = true,  // serialized on mu_ internally
            .rebuild_cost = RebuildCost::kNone};
  }
  std::optional<bool> precedes_metered(EventId e, EventId f,
                                       QueryCost& cost) override {
    // The engine mutates its reconstruction cache; make the link itself
    // safe so the chain's concurrency contract is uniform.
    std::lock_guard lock(mu_);
    return engine_.precedes_metered(e, f, cost);
  }

 private:
  std::mutex mu_;
  OnDemandFmEngine engine_;
};

class TreeClockBackend final : public CausalityBackend {
 public:
  explicit TreeClockBackend(const BackendContext& ctx)
      : store_(*ctx.trace) {}
  ServingBackend id() const override { return ServingBackend::kTreeClock; }
  const char* name() const override { return "tree-clock"; }
  BackendCapabilities capabilities() const override {
    return {.supports_frontier = true,
            .supports_batch = false,
            .concurrent_reads = true,  // immutable rows after construction
            .rebuild_cost = RebuildCost::kFullReplay};
  }
  std::optional<bool> precedes_metered(EventId e, EventId f,
                                       QueryCost& cost) override {
    return store_.precedes_metered(e, f, cost);
  }

 private:
  TreeClockStore store_;
};

template <typename Backend>
std::unique_ptr<CausalityBackend> make_trace_backend(
    const BackendContext& ctx) {
  CT_CHECK_MSG(ctx.trace != nullptr, "backend factory needs a trace");
  return std::make_unique<Backend>(ctx);
}

}  // namespace

const char* to_string(ServingBackend b) {
  switch (b) {
    case ServingBackend::kNone:
      return "none";
    case ServingBackend::kCache:
      return "cache";
    case ServingBackend::kCluster:
      return "cluster";
    case ServingBackend::kDifferential:
      return "differential";
    case ServingBackend::kOnDemandFm:
      return "ondemand-fm";
    case ServingBackend::kTreeClock:
      return "tree-clock";
  }
  return "?";
}

const char* to_string(RebuildCost c) {
  switch (c) {
    case RebuildCost::kNone:
      return "none";
    case RebuildCost::kIncremental:
      return "incremental";
    case RebuildCost::kFullReplay:
      return "full-replay";
  }
  return "?";
}

BackendRegistry::BackendRegistry() {
  register_backend(ServingBackend::kCluster, [](const BackendContext& ctx) {
    return std::unique_ptr<CausalityBackend>(
        std::make_unique<MonitorBackend>(ctx));
  });
  register_backend(ServingBackend::kDifferential,
                   make_trace_backend<DifferentialBackend>);
  register_backend(ServingBackend::kOnDemandFm,
                   make_trace_backend<OnDemandBackend>);
  register_backend(ServingBackend::kTreeClock,
                   make_trace_backend<TreeClockBackend>);
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::register_backend(ServingBackend id, Factory factory) {
  CT_CHECK_MSG(id != ServingBackend::kNone && id != ServingBackend::kCache,
               "not a registrable chain link: " << to_string(id));
  CT_CHECK_MSG(factory, "null backend factory for " << to_string(id));
  std::lock_guard lock(state().mu);
  state().factories[id] = std::move(factory);
}

bool BackendRegistry::registered(ServingBackend id) const {
  std::lock_guard lock(state().mu);
  return state().factories.count(id) > 0;
}

std::vector<ServingBackend> BackendRegistry::registered_ids() const {
  std::lock_guard lock(state().mu);
  std::vector<ServingBackend> ids;
  ids.reserve(state().factories.size());
  for (const auto& [id, factory] : state().factories) ids.push_back(id);
  return ids;
}

std::unique_ptr<CausalityBackend> BackendRegistry::make(
    ServingBackend id, const BackendContext& context) const {
  Factory factory;
  {
    std::lock_guard lock(state().mu);
    const auto it = state().factories.find(id);
    CT_CHECK_MSG(it != state().factories.end(),
                 "no backend registered for " << to_string(id));
    factory = it->second;
  }
  auto backend = factory(context);
  CT_CHECK_MSG(backend != nullptr && backend->id() == id,
               "factory produced a mismatched backend for " << to_string(id));
  return backend;
}

}  // namespace ct
