// Seed-stability lock: every trace generator's output is pinned, per seed,
// to a golden FNV-1a digest (trace/digest.hpp). The generators are the
// substrate of the entire evaluation AND of the simulation checker's
// schedule generator — an accidental change to any of them (a reordered RNG
// draw, an off-by-one in a loop bound) silently invalidates every frozen
// figure and every simcheck seed. This test turns such a change into a
// loud, reviewable diff: if a generator changed ON PURPOSE, regenerate the
// goldens with tests/print_seed_goldens and update this file in the same
// commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "timestamp/tree_clock_store.hpp"
#include "trace/digest.hpp"
#include "trace/generators.hpp"
#include "trace/suite.hpp"

namespace ct {
namespace {

struct Golden {
  const char* id;
  std::uint64_t digest;
};

// Golden digests of all 54 standard-suite entries, in suite order.
// REGENERATE: build and run tests/print_seed_goldens, paste its output.
constexpr Golden kSuiteGoldens[] = {
    // clang-format off
    {"pvm/ring-64", 0xce3778aedcd401e7ull},
    {"pvm/ring-128", 0xb2ac71daaeb6fd74ull},
    {"pvm/ring-256", 0x14544d2835e9ef1bull},
    {"pvm/halo1d-64", 0xfd098b4e8c18ad30ull},
    {"pvm/halo1d-150", 0xb8dd1a93a154861eull},
    {"pvm/halo1d-300", 0x4f9d1704dd4bfbbcull},
    {"pvm/halo2d-8x8", 0x4757c8f06fe02f6cull},
    {"pvm/halo2d-12x12", 0x8fd5d7740744dbc3ull},
    {"pvm/halo2d-15x20", 0xc0e67e29bbca760bull},
    {"pvm/scatter-gather-97", 0x5d8363ae2dbb86e4ull},
    {"pvm/scatter-gather-65", 0x1c199c995b7a41cbull},
    {"pvm/scatter-gather-129", 0xdfb3cb31fc436b5dull},
    {"pvm/reduction-63", 0x8a4c7dfc2fcf985bull},
    {"pvm/reduction-127", 0xa1376b5c94abcb81ull},
    {"pvm/reduction-255", 0xddfb69ba9877afbbull},
    {"pvm/pipeline-48", 0x09be8a2f236647efull},
    {"pvm/pipeline-96", 0xac61fff6dc387c73ull},
    {"pvm/wavefront-9x9", 0x66afa7a8cd835377ull},
    {"pvm/wavefront-12x12", 0x386f5936afdf20c9ull},
    {"pvm/master-worker-60", 0x0ed89adcdf34ef14ull},
    {"java/web-92", 0x164e364507c62891ull},
    {"java/web-168", 0x167881527081f142ull},
    {"java/web-280", 0xb404bbfab6ac07fbull},
    {"java/web-69-loose", 0x596148b1962fa4a9ull},
    {"java/web-92-sticky", 0x47f24adc7679c75full},
    {"java/tier-86", 0x3e7ed7dbb987a34full},
    {"java/tier-159", 0x3399c58597fe0f0eull},
    {"java/tier-264", 0x54d8bd4a7d7a3dc3ull},
    {"java/tier-86-loose", 0x11a472310576329eull},
    {"java/pubsub-84", 0x4b61668581accf75ull},
    {"java/pubsub-166", 0xbf3d8d783a5d8ab2ull},
    {"java/pubsub-238", 0x77a76895ee62c8a4ull},
    {"java/web-117", 0x0a09716af47169c3ull},
    {"java/tier-120", 0xe1f82ab48178906cull},
    {"java/pubsub-102", 0x6e8ed38a62f2c8b1ull},
    {"java/web-210", 0xf0a8b26da2bde72aull},
    {"dce/rpc-96", 0xc87afab1f470fda5ull},
    {"dce/rpc-144", 0x144059e154058c99ull},
    {"dce/rpc-240", 0xbf84f78cdcc17cf0ull},
    {"dce/rpc-96-chatty", 0xa3b9fa44314ef3d2ull},
    {"dce/rpc-120-wide", 0x322356100dd32099ull},
    {"dce/rpc-60-small", 0xc84ac8c3579b5b54ull},
    {"dce/chain-50", 0x62d80975295d3c99ull},
    {"dce/chain-100", 0x8ffcbf8b50375a01ull},
    {"dce/chain-200", 0x39c04d4ae28363d0ull},
    {"dce/chain-64-short", 0x28e176272142a40eull},
    {"ctl/uniform-100", 0xed8b73ed341f16e6ull},
    {"ctl/uniform-200", 0x623aba109ff0fc13ull},
    {"ctl/local-120-strong", 0x0a58ac7a2f0c5b4eull},
    {"ctl/local-240", 0x1d5acc97844e5a38ull},
    {"ctl/local-120-weak", 0x0fcf012b42ccc202ull},
    {"ctl/local-300", 0xd8e5bb8f66cde8fbull},
    {"ctl/local-60-tight", 0xfbeba244c3db224cull},
    {"ctl/local-100-mid", 0x725872e7c40a8745ull},
    // clang-format on
};

TEST(SeedStability, StandardSuiteDigestsAreFrozen) {
  const auto& suite = standard_suite();
  ASSERT_EQ(suite.size(), std::size(kSuiteGoldens));
  for (std::size_t i = 0; i < suite.size(); ++i) {
    ASSERT_EQ(suite[i].id, std::string(kSuiteGoldens[i].id))
        << "suite order changed at entry " << i;
    const Trace t = suite[i].make();
    EXPECT_EQ(trace_digest(t), kSuiteGoldens[i].digest)
        << "generator output drifted for suite entry '" << suite[i].id
        << "' — if intentional, regenerate the goldens";
  }
}

// Direct per-generator locks with non-suite option combinations, covering
// generators (or option paths) the suite exercises differently — including
// the simulation checker's adversarial motif, which is not a suite member.
TEST(SeedStability, DirectGeneratorDigestsAreFrozen) {
  const std::vector<std::pair<std::string, std::uint64_t>> goldens = {
      {"ring", 0x16269cf3dc41427full},
      {"halo1d", 0x80ffd2305dc4486cull},
      {"halo2d", 0x6af11a2e7fd0551eull},
      {"scatter_gather", 0x97943b9feb45eaf7ull},
      {"reduction_tree", 0x978e9c3938c87a94ull},
      {"pipeline", 0x0b78a7b9b83389d7ull},
      {"wavefront", 0xd94c25aad485309bull},
      {"master_worker", 0xa8b9bf03d639f4c2ull},
      {"butterfly", 0xe5eb1466be412dd5ull},
      {"gossip", 0x57570c0c5597af1full},
      {"token_ring", 0x913815d772c920adull},
      {"web_server", 0x38fa52fbba0f38dbull},
      {"tiered_service", 0x37a9447e3c7d67acull},
      {"pubsub", 0x18d158613b3379abull},
      {"rpc_business", 0x702bc227e8b4fc10ull},
      {"rpc_chain", 0x24f1d0fb3658c927ull},
      {"uniform_random", 0x504f229bf513c1a0ull},
      {"phased_locality", 0x1cf91259e6443904ull},
      {"locality_random", 0xeb8f10697a0f72e0ull},
      {"adversarial", 0x0c8389c4e6d18955ull},
  };
  std::size_t i = 0;
  auto check = [&](const std::string& name, const Trace& t) {
    ASSERT_LT(i, goldens.size());
    EXPECT_EQ(goldens[i].first, name) << "direct golden order changed";
    EXPECT_EQ(trace_digest(t), goldens[i].second)
        << "generator output drifted for " << name;
    ++i;
  };

  check("ring", generate_ring({.processes = 10, .iterations = 6, .seed = 3}));
  check("halo1d", generate_halo1d({.processes = 10, .iterations = 5,
                                   .allreduce_every = 2, .seed = 3}));
  check("halo2d",
        generate_halo2d({.width = 4, .height = 3, .iterations = 4, .seed = 3}));
  check("scatter_gather",
        generate_scatter_gather({.processes = 9, .rounds = 5, .seed = 3}));
  check("reduction_tree",
        generate_reduction_tree({.processes = 8, .rounds = 5, .seed = 3}));
  check("pipeline",
        generate_pipeline({.stages = 6, .items = 10, .seed = 3}));
  check("wavefront",
        generate_wavefront({.width = 4, .height = 4, .sweeps = 3, .seed = 3}));
  check("master_worker",
        generate_master_worker({.processes = 12, .tasks = 40, .pods = 2,
                                .seed = 3}));
  check("butterfly",
        generate_butterfly({.dimensions = 3, .sweeps = 3, .seed = 3}));
  check("gossip", generate_gossip({.processes = 10, .rounds = 6, .seed = 3}));
  check("token_ring",
        generate_token_ring({.processes = 8, .laps = 4, .seed = 3}));
  check("web_server",
        generate_web_server({.clients = 12, .servers = 3, .backends = 2,
                             .requests = 60, .seed = 3}));
  check("tiered_service",
        generate_tiered_service({.clients = 8, .frontends = 3,
                                 .app_servers = 3, .databases = 2,
                                 .requests = 50, .seed = 3}));
  check("pubsub",
        generate_pubsub({.publishers = 4, .brokers = 2, .subscribers = 8,
                         .topics = 4, .subscribers_per_topic = 3,
                         .messages = 50, .seed = 3}));
  check("rpc_business",
        generate_rpc_business({.groups = 3, .clients_per_group = 2,
                               .servers_per_group = 2, .calls = 60,
                               .seed = 3}));
  check("rpc_chain",
        generate_rpc_chain({.services = 8, .chain_length = 4, .requests = 30,
                            .seed = 3}));
  check("uniform_random",
        generate_uniform_random({.processes = 12, .messages = 80, .seed = 3}));
  check("phased_locality",
        generate_phased_locality({.processes = 12, .group_size = 4,
                                  .phases = 2, .messages_per_phase = 40,
                                  .seed = 3}));
  check("locality_random",
        generate_locality_random({.processes = 12, .group_size = 4,
                                  .messages = 80, .seed = 3}));
  check("adversarial",
        generate_adversarial({.processes = 12, .groups = 3, .messages = 90,
                              .seed = 3}));
  EXPECT_EQ(i, goldens.size());
}

// Tree-clock backend state digests (TreeClockStore::state_digest): the
// deterministic replay state of the registry's newest backend — stored rows
// plus final tree shapes — pinned per seed. The digest covers logical rows,
// not the pool layout. Regenerate with tests/print_seed_goldens on an
// INTENTIONAL change to the tree-clock join/ingest rules.
TEST(SeedStability, TreeClockBackendDigestsAreFrozen) {
  const std::vector<std::pair<std::string, std::uint64_t>> goldens = {
      {"ring", 0xb24a0893858d6efeull},
      {"uniform_random", 0xd55fa2a53ae8523aull},
      {"rpc_business", 0xac1f151067096505ull},
      {"master_worker", 0x11e443de1e8f841cull},
      {"adversarial", 0x1ac1b65a9e876c6bull},
  };
  std::size_t i = 0;
  auto check = [&](const std::string& name, const Trace& t) {
    ASSERT_LT(i, goldens.size());
    EXPECT_EQ(goldens[i].first, name) << "tree-clock golden order changed";
    const TreeClockStore store(t);
    EXPECT_EQ(store.state_digest(), goldens[i].second)
        << "tree-clock state drifted for " << name
        << " — if intentional, regenerate the goldens";
    ++i;
  };

  check("ring", generate_ring({.processes = 10, .iterations = 6, .seed = 3}));
  check("uniform_random",
        generate_uniform_random({.processes = 12, .messages = 80, .seed = 3}));
  check("rpc_business",
        generate_rpc_business({.groups = 3, .clients_per_group = 2,
                               .servers_per_group = 2, .calls = 60,
                               .seed = 3}));
  check("master_worker",
        generate_master_worker({.processes = 12, .tasks = 40, .pods = 2,
                                .seed = 3}));
  check("adversarial",
        generate_adversarial({.processes = 12, .groups = 3, .messages = 90,
                              .seed = 3}));
  EXPECT_EQ(i, goldens.size());
}

}  // namespace
}  // namespace ct
