// Timing-driven routing regression: the blended-cost PathFinder driven by
// the incremental STA must (a) leave the congestion-only contract alone —
// pinned separately by test_route_golden — (b) actually buy critical
// path at the same channel width, (c) report a critical path that is
// *exactly* what the full post-route STA computes over its trees, (d)
// stay bit-identical at any thread count, and (e) leave the minimum
// channel width untouched (width probes are forced congestion-only, the
// iso-Wmin requirement of the paper-style comparison).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "netlist/mcnc.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "timing/sta.hpp"
#include "timing/variant.hpp"
#include "util/thread_pool.hpp"

namespace nemfpga {
namespace {

/// FNV-1a over every tree (same digest as test_route_golden).
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

struct TimingGolden {
  const char* circuit;
  std::size_t w_fixed;   ///< Channel width for the fixed-W routes.
  std::size_t w_min;     ///< Wmin — must match the congestion-only value.
  /// Required CP(timing-driven) / CP(congestion-only) at w_fixed. The
  /// measured ratios are ~0.948 (tseng) / ~0.948 (ex5p); 0.97 leaves
  /// margin without letting a regression to "no gain" pass. See
  /// EXPERIMENTS.md "Timing-driven routing" for why ~5% is the honest
  /// ceiling on this fabric (routed paths sit near the geometric
  /// stage-count floor).
  double max_cp_ratio;
};

// Listed test names show the circuit, not the param's raw bytes (which
// include a per-run pointer value).
void PrintTo(const TimingGolden& g, std::ostream* os) { *os << g.circuit; }

constexpr TimingGolden kTimingGolden[] = {
    {"tseng", 48, 45, 0.97},
    {"ex5p", 48, 45, 0.97},
};

class RouteTiming : public ::testing::TestWithParam<TimingGolden> {};

TEST_P(RouteTiming, TimingDrivenImprovesCpAtUnchangedWmin) {
  const TimingGolden& gold = GetParam();
  Netlist nl = generate_benchmark(gold.circuit);
  ArchParams arch;
  arch.W = gold.w_fixed;
  Packing pk = pack_netlist(nl, arch);
  const auto [nx, ny] =
      grid_size_for(arch, pk.clusters.size(), pk.io_block_count());
  PlaceOptions popt;
  popt.inner_num = 0.3;  // keep the test quick; still deterministic
  const Placement pl = place(nl, pk, arch, nx, ny, popt);
  const RrGraph g(arch, pl.nx, pl.ny);
  const ElectricalView view = make_view(arch, FpgaVariant::kCmosBaseline);

  RouteOptions td;
  td.timing_driven = true;

  auto run_td = [&](ThreadPool& pool) {
    ThreadPool::ScopedUse use(pool);
    // Fresh hook per route_all call: a hook instance is stateful.
    const auto hook = make_incremental_sta(nl, pk, pl, g, view,
                                           td.criticality_exp,
                                           td.max_criticality);
    RouteOptions opt = td;
    opt.timing_hook = hook.get();
    return route_all(g, pl, opt);
  };

  ThreadPool serial(1), wide(8);
  const RoutingResult r1 = run_td(serial);
  const RoutingResult r8 = run_td(wide);

  RoutingResult base;
  ChannelWidthResult w_td;
  {
    ThreadPool::ScopedUse use(serial);
    base = route_all(g, pl, {});  // congestion-only default profile
    // Width probes force timing off, so Wmin with timing-driven options
    // must equal the congestion-only golden (iso-Wmin comparisons).
    const auto hook = make_incremental_sta(nl, pk, pl, g, view,
                                           td.criticality_exp,
                                           td.max_criticality);
    RouteOptions opt = td;
    opt.timing_hook = hook.get();
    w_td = find_min_channel_width(arch, pl, 32, opt);
  }

  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(base.success);
  check_routing(g, pl, r1);

  // (d) Bit-identical at any thread count, counters included.
  EXPECT_EQ(routing_checksum(r8), routing_checksum(r1));
  EXPECT_EQ(r8.iterations, r1.iterations);
  EXPECT_EQ(r8.critical_path_s, r1.critical_path_s);
  EXPECT_EQ(r8.worst_slack_s, r1.worst_slack_s);
  EXPECT_EQ(r8.counters.heap_pushes, r1.counters.heap_pushes);
  EXPECT_EQ(r8.counters.sta_net_evals, r1.counters.sta_net_evals);
  EXPECT_EQ(r8.counters.sta_block_updates, r1.counters.sta_block_updates);

  // (c) The reported critical path is the full STA's, bitwise.
  const TimingResult sta = analyze_timing(nl, pk, pl, g, r1, view);
  EXPECT_EQ(r1.critical_path_s, sta.critical_path) << gold.circuit;
  ASSERT_GT(r1.critical_path_s, 0.0);
  // Worst connection slack at the final update is ~0 by construction
  // (the critical connection has none); tiny negative values are benign
  // forward/backward summation-order noise.
  EXPECT_NEAR(r1.worst_slack_s, 0.0, 1e-12);

  // (b) Real critical-path gain at the same width.
  const TimingResult sta_base = analyze_timing(nl, pk, pl, g, base, view);
  EXPECT_LE(r1.critical_path_s, gold.max_cp_ratio * sta_base.critical_path)
      << gold.circuit << ": td=" << r1.critical_path_s
      << " base=" << sta_base.critical_path;

  // (e) Unchanged minimum channel width.
  EXPECT_EQ(w_td.w_min, gold.w_min) << gold.circuit;

  // Incrementality did real work: far fewer net evaluations than a full
  // recompute every iteration would cost.
  EXPECT_GT(r1.counters.sta_net_evals, 0u);
  EXPECT_LT(r1.counters.sta_net_evals,
            pl.nets.size() * (r1.iterations + 1));
  EXPECT_GT(r1.counters.sta_block_updates, 0u);

  // Congestion-only results must carry no timing annotations.
  EXPECT_EQ(base.critical_path_s, 0.0);
  EXPECT_EQ(base.counters.sta_net_evals, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seed, RouteTiming,
                         ::testing::ValuesIn(kTimingGolden),
                         [](const auto& info) {
                           return std::string(info.param.circuit);
                         });

}  // namespace
}  // namespace nemfpga
