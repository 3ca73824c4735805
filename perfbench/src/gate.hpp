// Correctness gate, run off the clock after peak RSS is read: every answer
// a client received is checked against an independent Fidge/Mattern
// reference (timestamp/FmStore) over the generated trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "deployment.hpp"
#include "inputs.hpp"

namespace perfbench {

struct GateInput {
  std::vector<const TenantInput*> tenants;
  /// epochs[epoch][tenant]: the keys and delivered prefix each epoch served.
  const std::vector<std::vector<EpochKeys>>* epochs = nullptr;
  const std::vector<Plan>* plans = nullptr;
  const std::vector<ClientStats>* clients = nullptr;
};

/// Returns the number of wrong answers (each answer checked; an unanswered
/// query is a failure, not a wrong answer). Describes the first few in
/// `violations`.
std::uint64_t check_answers(const GateInput& in,
                            std::vector<std::string>& violations);

}  // namespace perfbench
