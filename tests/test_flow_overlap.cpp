// Placement overlapped with the pre-route artifact build
// (place_with_artifacts, shared by run_flow and the EcoFlow
// constructor): with a pool of >= 2 threads place() runs on a helper
// thread while the calling thread builds the RR graph, lookahead and
// delay model. The flow must be bit-identical to the serial order at any
// pool size, with or without the artifact cache; an exception from
// either side must reach the caller with the helper joined. Run from an
// NF_TSAN-configured tree for the ThreadSanitizer verdict on the
// concurrent cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>

#include "arch/rr_graph.hpp"
#include "core/flow.hpp"
#include "netlist/synth_gen.hpp"
#include "service/artifact_cache.hpp"
#include "service/flow_artifacts.hpp"
#include "service/job_scheduler.hpp"
#include "util/thread_pool.hpp"

namespace nemfpga {
namespace {

Netlist design() {
  SynthSpec spec;
  spec.name = "overlap";
  spec.n_luts = 300;
  spec.n_inputs = 16;
  spec.n_outputs = 12;
  spec.n_latches = 30;
  return generate_netlist(spec);
}

FlowOptions flow_options(ArtifactCache* cache) {
  FlowOptions opt;
  opt.arch.W = 40;
  opt.place.seed = 3;
  opt.route.timing_driven = true;  // the delay model joins the overlap
  opt.artifact_cache = cache;
  return opt;
}

/// The identity a flow is compared on: routing bits, placement bits and
/// the exact annealed cost.
struct Fingerprint {
  std::uint64_t route = 0;
  std::uint64_t place = 0;
  std::uint64_t cost_bits = 0;

  static Fingerprint of(const FlowResult& r) {
    Fingerprint f;
    f.route = routing_tree_checksum(r.routing);
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
    for (const BlockLoc& l : r.placement.locs) {
      mix(l.x);
      mix(l.y);
      mix(l.sub);
    }
    f.place = h;
    std::memcpy(&f.cost_bits, &r.placement.final_cost, sizeof f.cost_bits);
    return f;
  }
};

void expect_same(const Fingerprint& got, const Fingerprint& ref) {
  EXPECT_EQ(got.route, ref.route);
  EXPECT_EQ(got.place, ref.place);
  EXPECT_EQ(got.cost_bits, ref.cost_bits);
}

Fingerprint flow_at(std::size_t threads, ArtifactCache* cache) {
  ThreadPool pool(threads);
  ThreadPool::ScopedUse use(pool);
  return Fingerprint::of(run_flow(design(), flow_options(cache)));
}

TEST(FlowOverlap, BitIdenticalAtOneAndFourThreadsWithAndWithoutCache) {
  const Fingerprint ref = flow_at(1, nullptr);
  {
    SCOPED_TRACE("4 threads, no cache");
    expect_same(flow_at(4, nullptr), ref);
  }
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ArtifactCache cache;
    expect_same(flow_at(threads, &cache), ref);  // cold: this flow builds
    expect_same(flow_at(threads, &cache), ref);  // warm: served
  }
}

/// The front half of one flow on `design()`, as run_flow drives it.
struct FrontHalf {
  Netlist nl = design();
  ArchParams arch = flow_options(nullptr).arch;
  Packing pk = pack_netlist(nl, arch);
  std::size_t nx = 0, ny = 0;
  RouteOptions ropt = flow_options(nullptr).route;

  FrontHalf() {
    std::tie(nx, ny) =
        grid_size_for(arch, pk.clusters.size(), pk.io_block_count());
  }
  PlacedArtifacts run(std::size_t grid, std::string_view backend) const {
    return place_with_artifacts(nl, pk, arch, grid, grid, PlaceOptions{},
                                nullptr, ropt, backend);
  }
};

/// The message of the exception `fn` throws, or "" when it returns.
template <typename F>
std::string error_of(F&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(FlowOverlap, ErrorsFromEitherSideReachTheCaller) {
  const FrontHalf f;
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    ThreadPool::ScopedUse use(pool);
    // place() on the helper fails: a grid too small for the clusters.
    const std::string place_err = error_of([&] { f.run(2, "cmos"); });
    EXPECT_NE(place_err.find("grid too small"), std::string::npos)
        << place_err;
    // The artifact build on this thread fails: an unknown timing
    // backend. The helper's placement is joined before the error leaves.
    const std::string art_err =
        error_of([&] { f.run(f.nx, "no-such-backend"); });
    EXPECT_NE(art_err.find("no-such-backend"), std::string::npos) << art_err;
    // Both sides fail: one of the two errors reaches the caller.
    const std::string both = error_of([&] { f.run(2, "no-such-backend"); });
    EXPECT_TRUE(both == place_err || both == art_err) << both;
    // The pool still serves a clean run afterwards.
    const PlacedArtifacts ok = f.run(f.nx, "cmos");
    EXPECT_EQ(ok.placement.locs.size(), f.pk.blocks.size());
    EXPECT_TRUE(ok.artifacts.lookahead != nullptr);
  }
}

// Two flows at 4 threads on one shared pool and one shared cache: the
// overlap's helper threads, the single-flight builds and the pool's
// concurrent submitters all race, and both flows still match the serial
// reference.
TEST(FlowOverlap, ConcurrentFlowsShareOnePoolAndCache) {
  const Fingerprint ref = flow_at(1, nullptr);
  ThreadPool pool(4);
  ArtifactCache cache;
  Fingerprint got[2];
  std::string err[2];
  std::thread t[2];
  for (int i = 0; i < 2; ++i) {
    t[i] = std::thread([&, i] {
      ThreadPool::ScopedUse use(pool);
      err[i] = error_of([&] {
        got[i] = Fingerprint::of(run_flow(design(), flow_options(&cache)));
      });
    });
  }
  for (std::thread& th : t) th.join();
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(err[i], "");
    expect_same(got[i], ref);
  }
}

}  // namespace
}  // namespace nemfpga
