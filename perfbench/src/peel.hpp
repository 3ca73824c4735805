// Peeled calls of the traced run: the layers under the router, called
// directly on the same inputs the deployment received (the same arrival
// stream, the same client requests), so each layer's cost can be set
// beside the end-to-end number it feeds.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "deployment.hpp"
#include "inputs.hpp"

namespace perfbench {

struct PeelInput {
  const TenantInput* tenant = nullptr;
  std::size_t tenant_index = 0;  ///< requests of other tenants are skipped
  /// Keys of the deployment's last epoch for this tenant.
  const EpochKeys* keys = nullptr;
  const std::vector<Plan>* plans = nullptr;
  std::string dir;  ///< scratch storage for the durability and store layers
  std::size_t broker_requests = 4000;  ///< per client
  std::size_t core_pairs = 100000;
};

/// Adds the peeled layer metrics to `layer`; accounting violations of the
/// brokers and monitors it builds go to `violations`.
void peel_layers(const PeelInput& in, std::map<std::string, double>& layer,
                 std::vector<std::string>& violations);

}  // namespace perfbench
