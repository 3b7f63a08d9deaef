// Golden routing results, two layers:
//  - Legacy profile (astar_factor=0, net_parallel=false): the A*/parallel
//    rebuild of the router must leave this configuration bit-identical to
//    the pre-rewrite PathFinder — the constants were captured from the
//    pre-scratch-arena implementation (commit 92268f1) and have survived
//    two search-core rewrites unchanged.
//  - Default profile (geometric lookahead + deterministic net-parallel
//    batches): its own golden constants, which additionally must be
//    bit-identical at any thread count.
#include <gtest/gtest.h>

#include <cstdint>

#include "netlist/mcnc.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "util/thread_pool.hpp"

namespace nemfpga {
namespace {

/// FNV-1a over every tree's source, edge list and reached sinks, in net
/// order. Any change to any net's topology changes the digest.
std::uint64_t routing_checksum(const RoutingResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& t : r.trees) {
    mix(t.source);
    mix(t.edges.size());
    for (const auto& [from, to] : t.edges) {
      mix((static_cast<std::uint64_t>(from) << 32) | to);
    }
    for (RrNodeId s : t.sinks) mix(s);
  }
  return h;
}

struct Golden {
  /// Held inline, not as a pointer: gtest lists a param it cannot print
  /// as its raw bytes, and a pointer would put a per-run address into
  /// every test name.
  char circuit[8];
  std::size_t w_fixed;        ///< Channel width for the fixed-W route.
  std::uint64_t checksum;     ///< routing_checksum at w_fixed.
  std::size_t iterations;     ///< PathFinder iterations at w_fixed.
  std::size_t w_min;          ///< find_min_channel_width (hint 32).
};

// Captured from the pre-rewrite router; see file header.
constexpr Golden kLegacyGolden[] = {
    {"tseng", 48, 14510951954434509804ull, 16, 45},
    {"ex5p", 48, 16079088827165314435ull, 9, 45},
};

// Captured from the A*-lookahead net-parallel router (this PR's default).
constexpr Golden kDefaultGolden[] = {
    {"tseng", 48, 11200517890288158270ull, 21, 45},
    {"ex5p", 48, 16681933439583506956ull, 11, 45},
};

struct GoldenFlow {
  Netlist nl;
  ArchParams arch;
  Packing pk;
  Placement pl;

  explicit GoldenFlow(const char* name, std::size_t w) {
    nl = generate_benchmark(name);
    arch.W = w;
    pk = pack_netlist(nl, arch);
    const auto [nx, ny] =
        grid_size_for(arch, pk.clusters.size(), pk.io_block_count());
    PlaceOptions popt;
    popt.inner_num = 0.3;  // keep the test quick; still deterministic
    pl = place(nl, pk, arch, nx, ny, popt);
  }
};

class RouteGoldenLegacy : public ::testing::TestWithParam<Golden> {};

TEST_P(RouteGoldenLegacy, LegacyProfileIsBitExact) {
  const Golden& gold = GetParam();
  GoldenFlow f(gold.circuit, gold.w_fixed);
  const RrGraph g(f.arch, f.pl.nx, f.pl.ny);

  RouteOptions legacy;
  legacy.astar_factor = 0.0;
  legacy.net_parallel = false;

  ThreadPool serial(1);
  ThreadPool::ScopedUse use(serial);
  const RoutingResult r = route_all(g, f.pl, legacy);
  const ChannelWidthResult w = find_min_channel_width(f.arch, f.pl, 32,
                                                      legacy);

  ASSERT_TRUE(r.success);
  check_routing(g, f.pl, r);

  // Observability counters: the search did real work, and the scratch
  // arena hit steady state — buffer growths are confined to the first few
  // nets, so the per-net loop is allocation-free for >99% of nets.
  const RouteCounters& c = r.counters;
  EXPECT_GT(c.heap_pushes, 0u);
  EXPECT_GE(c.heap_pushes, c.heap_pops);
  EXPECT_GT(c.nodes_expanded, 0u);
  EXPECT_GT(c.sink_searches, 0u);
  EXPECT_GT(c.nets_routed, 0u);
  EXPECT_LE(c.scratch_grows * 100, c.nets_routed);
  // Nothing A*/parallel may run in the legacy profile.
  EXPECT_EQ(c.lookahead_hits, 0u);
  EXPECT_EQ(c.batches, 0u);
  EXPECT_EQ(c.conflict_replays, 0u);
  EXPECT_EQ(c.t_lookahead_build_s, 0.0);

  EXPECT_EQ(routing_checksum(r), gold.checksum) << gold.circuit;
  EXPECT_EQ(r.iterations, gold.iterations) << gold.circuit;
  EXPECT_EQ(w.w_min, gold.w_min) << gold.circuit;
}

class RouteGoldenDefault : public ::testing::TestWithParam<Golden> {};

TEST_P(RouteGoldenDefault, DefaultProfileMatchesGoldenAtAnyThreadCount) {
  const Golden& gold = GetParam();
  GoldenFlow f(gold.circuit, gold.w_fixed);
  const RrGraph g(f.arch, f.pl.nx, f.pl.ny);

  ThreadPool serial(1), wide(8);
  RoutingResult r1, r8;
  ChannelWidthResult w1, w8;
  {
    ThreadPool::ScopedUse use(serial);
    r1 = route_all(g, f.pl);
    w1 = find_min_channel_width(f.arch, f.pl, 32);
  }
  {
    ThreadPool::ScopedUse use(wide);
    r8 = route_all(g, f.pl);
    w8 = find_min_channel_width(f.arch, f.pl, 32);
  }

  ASSERT_TRUE(r1.success);
  check_routing(g, f.pl, r1);

  const RouteCounters& c = r1.counters;
  EXPECT_GT(c.lookahead_hits, 0u);
  EXPECT_GT(c.batches, 0u);
  // Disjoint batches never conflict on a resource, but a speculative
  // member whose sink needs a detour outside its routing window is
  // replayed serially too (the unconstrained-retry path) — those replays
  // are decided by the frozen batch state, so the count is part of the
  // bit-determinism contract checked against r8 below, not zero.
  EXPECT_GT(c.t_lookahead_build_s, 0.0);
  EXPECT_LE(c.scratch_grows * 100, c.nets_routed);

  EXPECT_EQ(routing_checksum(r1), gold.checksum) << gold.circuit;
  EXPECT_EQ(r1.iterations, gold.iterations) << gold.circuit;
  EXPECT_EQ(w1.w_min, gold.w_min) << gold.circuit;

  // Thread count must not influence any routing decision, nor any
  // counter other than scratch_grows (per-worker arena warm-up).
  EXPECT_EQ(routing_checksum(r8), routing_checksum(r1));
  EXPECT_EQ(r8.iterations, r1.iterations);
  EXPECT_EQ(w8.w_min, w1.w_min);
  EXPECT_EQ(r8.counters.heap_pushes, c.heap_pushes);
  EXPECT_EQ(r8.counters.nodes_expanded, c.nodes_expanded);
  EXPECT_EQ(r8.counters.batches, c.batches);
  EXPECT_EQ(r8.counters.conflict_replays, c.conflict_replays);
}

INSTANTIATE_TEST_SUITE_P(Seed, RouteGoldenLegacy,
                         ::testing::ValuesIn(kLegacyGolden),
                         [](const auto& info) {
                           return std::string(info.param.circuit);
                         });
INSTANTIATE_TEST_SUITE_P(Seed, RouteGoldenDefault,
                         ::testing::ValuesIn(kDefaultGolden),
                         [](const auto& info) {
                           return std::string(info.param.circuit);
                         });

}  // namespace
}  // namespace nemfpga
