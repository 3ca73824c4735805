#include "gate.hpp"

#include <sstream>

#include "monitor/queries.hpp"
#include "timestamp/fm_store.hpp"

namespace perfbench {

std::uint64_t check_answers(const GateInput& in,
                            std::vector<std::string>& violations) {
  std::uint64_t wrong = 0;
  const auto report = [&](const std::string& what) {
    if (++wrong <= 5) violations.push_back(what);
  };
  for (std::size_t t = 0; t < in.tenants.size(); ++t) {
    const ct::Trace& trace = in.tenants[t]->trace;
    const ct::FmStore fm(trace);
    const auto precedes = [&fm](ct::EventId e, ct::EventId f) {
      return fm.precedes(e, f);
    };
    for (std::size_t c = 0; c < in.clients->size(); ++c) {
      const ClientStats& st = (*in.clients)[c];
      const Plan& plan = (*in.plans)[c];
      for (const Served& s : st.served) {
        const Request& rq = plan.requests[s.plan_index];
        if (rq.tenant != t || s.answer == 2) continue;
        const EpochKeys& keys = (*in.epochs)[s.epoch][t];
        const auto wrong_answer = [&](const auto&... what) {
          std::ostringstream os;
          os << "client " << c << " request " << s.plan_index << " epoch "
             << s.epoch << ": ";
          (os << ... << what);
          report(os.str());
        };
        switch (rq.kind) {
          case Kind::kPrecedence: {
            const auto [e, f] = resolve_pair(keys, rq.a, rq.b);
            if (static_cast<bool>(s.answer) != precedes(e, f)) {
              wrong_answer("precedence ", e, " -> ", f, " answered ",
                           int{s.answer});
            }
            break;
          }
          case Kind::kBatch: {
            for (std::size_t i = 0; i < kBatchPairs; ++i) {
              const auto& [a, b] = plan.batch_keys[rq.batch + i];
              const auto [e, f] = resolve_pair(keys, a, b);
              const std::uint8_t got = st.batch_answers[s.value + i];
              if (got != 2 && static_cast<bool>(got) != precedes(e, f)) {
                wrong_answer("batch pair ", i, " ", e, " -> ", f);
                break;
              }
            }
            break;
          }
          case Kind::kFrontier: {
            const ct::EventId e = resolve(keys, rq.a);
            const ct::CausalFrontiers want = ct::compute_frontiers_with(
                trace.process_count(), e, precedes,
                [&keys](ct::ProcessId q) { return keys.delivered[q]; });
            if (frontier_hash(want) != s.value) {
              wrong_answer("frontier of ", e);
            }
            break;
          }
        }
      }
    }
  }
  return wrong;
}

}  // namespace perfbench
