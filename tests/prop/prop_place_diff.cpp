// Differential property for the placer's incremental bounding-box cost
// engine (place.hpp NetCostModel) against the full-rescan oracle in
// src/verify/reference_place.cpp, over randomized move sequences: per-net
// boxes and costs must agree bitwise after every commit, the incremental
// and naive kernels must produce bit-identical deltas, and the tracked
// total must stay within 1e-9 relative of a from-scratch recompute; the
// serial annealer's in-place apply_swap/undo_swap kernel must match the
// propose/commit engine bitwise and undo exactly. Plus
// whole-placer properties: every randomized configuration (speculative
// batches, directed generators, timing-driven second anneal) yields a
// legal placement with a consistent reported cost, and batch-mode
// placements are bit-identical at 1, 2 and 8 threads.
#include <gtest/gtest.h>

#include <vector>

#include "place/place.hpp"
#include "util/thread_pool.hpp"
#include "verify/generators.hpp"
#include "verify/oracles.hpp"
#include "verify/prop.hpp"

namespace nemfpga::verify {
namespace {

void run_cost_sequence(Rng& rng) {
  DesignCase c = gen_design_case(rng);
  c.place_batch = 0;  // the move sequence below drives the model directly
  c.place_timing = false;
  const BuiltDesign d = build_design(c);
  if (d.pl.nets.empty()) return;

  const std::vector<PlacedNet>& nets = d.pl.nets;
  const std::size_t n_blocks = d.pl.locs.size();
  NetCostModel model(nets, n_blocks);
  std::vector<double> w(nets.size(), 1.0);
  if (rng.chance(0.5)) {
    for (auto& x : w) x = 1.0 + 4.0 * rng.uniform();
  }
  model.set_weights(w);
  std::vector<BlockLoc> locs = d.pl.locs;
  model.rebuild(locs);
  prop_require_close(model.total_cost(),
                     reference_placement_cost(nets, w, locs), 1e-9,
                     "rebuild total vs full rescan");

  NetCostModel::Pending pend, pend_naive;
  const std::size_t moves = 40 + rng.uniform_int(160);
  for (std::size_t m = 0; m < moves; ++m) {
    const std::size_t a = rng.uniform_int(n_blocks);
    const BlockLoc old_a = locs[a];
    BlockLoc new_a;
    new_a.x = rng.uniform_int(d.nx + 2);
    new_a.y = rng.uniform_int(d.ny + 2);
    new_a.sub = old_a.sub;
    std::size_t b = NetCostModel::kNoBlock;
    BlockLoc new_b;
    if (rng.chance(0.5)) {
      const std::size_t cand = rng.uniform_int(n_blocks);
      if (cand != a) {
        b = cand;
        // Usually a swap (b takes a's old site); sometimes an unrelated
        // second move — the model supports both.
        if (rng.chance(0.7)) {
          new_b = old_a;
        } else {
          new_b.x = rng.uniform_int(d.nx + 2);
          new_b.y = rng.uniform_int(d.ny + 2);
          new_b.sub = locs[b].sub;
        }
      }
    }

    pend.clear();
    pend_naive.clear();
    const double delta = model.propose(locs, a, new_a, b, new_b, pend);
    const double delta_naive =
        model.propose_naive(locs, a, new_a, b, new_b, pend_naive);
    prop_require(delta == delta_naive,
                 "incremental and naive kernels disagree on the delta");

    if (rng.chance(0.3)) continue;  // rejected move: nothing to undo

    model.commit(pend);
    locs[a] = new_a;
    if (b != NetCostModel::kNoBlock) locs[b] = new_b;

    for (const auto& pn : pend.nets) {
      const ReferenceNetBox ref = reference_net_box(nets[pn.net], locs);
      const NetCostModel::Box& box = model.box(pn.net);
      prop_require(box.x_lo == ref.x_lo && box.x_hi == ref.x_hi &&
                       box.y_lo == ref.y_lo && box.y_hi == ref.y_hi,
                   "committed box disagrees with full rescan");
      prop_require(
          box.cost == reference_net_cost(nets[pn.net], w[pn.net], locs),
          "committed net cost is not bit-identical to the oracle");
    }
    prop_require_close(model.total_cost(),
                       reference_placement_cost(nets, w, locs), 1e-9,
                       "tracked total drifted from the full rescan");
  }
}

TEST(PropPlaceDiff, IncrementalCostMatchesFullRescan) {
  const PropConfig cfg = PropConfig::from_env(200);
  const PropResult res =
      check_seeds("place_cost_diff", cfg, run_cost_sequence);
  EXPECT_TRUE(res.ok()) << res.report();
  EXPECT_GE(res.cases_run, cfg.only_case ? 1u : 200u);
}

/// The serial annealer's in-place kernel (apply_swap / undo_swap over
/// the flat arrays and packed positions) against the non-mutating
/// propose/commit engine on a twin model: every swap's delta is
/// bit-identical, every touched box matches the full-rescan oracle, a
/// rejected swap restores boxes, locations and the tracked total
/// bitwise, and locations written outside apply_swap (the naive
/// commit path, reported with track()) keep later scans exact.
void run_swap_sequence(Rng& rng) {
  DesignCase c = gen_design_case(rng);
  c.place_batch = 0;
  c.place_timing = false;
  const BuiltDesign d = build_design(c);
  if (d.pl.nets.empty()) return;

  const std::vector<PlacedNet>& nets = d.pl.nets;
  const std::size_t n_blocks = d.pl.locs.size();
  NetCostModel live(nets, n_blocks), twin(nets, n_blocks);
  std::vector<double> w(nets.size(), 1.0);
  if (rng.chance(0.5)) {
    for (auto& x : w) x = 1.0 + 4.0 * rng.uniform();
  }
  live.set_weights(w);
  twin.set_weights(w);
  std::vector<BlockLoc> locs = d.pl.locs, twin_locs = d.pl.locs;
  live.rebuild(locs);
  twin.rebuild(twin_locs);

  auto same_box = [](const NetCostModel::Box& x, const NetCostModel::Box& y) {
    return x.x_lo == y.x_lo && x.x_hi == y.x_hi && x.y_lo == y.y_lo &&
           x.y_hi == y.y_hi && x.cost == y.cost;
  };
  NetCostModel::Pending undo, pend;
  const std::size_t moves = 40 + rng.uniform_int(160);
  for (std::size_t m = 0; m < moves; ++m) {
    const std::size_t a = rng.uniform_int(n_blocks);
    const BlockLoc src = locs[a];
    std::size_t b = NetCostModel::kNoBlock;
    BlockLoc dest;
    const std::size_t cand = rng.uniform_int(n_blocks);
    if (cand != a && rng.chance(0.6)) {
      b = cand;  // a swap: a lands on b's site, b on a's
      dest = locs[b];
    } else {
      dest.x = rng.uniform_int(d.nx + 2);
      dest.y = rng.uniform_int(d.ny + 2);
      dest.sub = src.sub;
    }

    pend.clear();
    const double ref = twin.propose(twin_locs, a, dest, b, src, pend);
    if (rng.chance(0.2)) {
      // The naive commit path: evaluate without mutating, then write the
      // locations directly and report them with track().
      NetCostModel::Pending naive;
      const double delta =
          live.propose_naive(locs, a, dest, b, src, naive);
      prop_require(delta == ref, "naive and incremental deltas disagree");
      live.commit(naive);
      locs[a] = dest;
      live.track(a, dest);
      if (b != NetCostModel::kNoBlock) {
        locs[b] = src;
        live.track(b, src);
      }
    } else {
      const std::vector<BlockLoc> locs_before = locs;
      const double total_before = live.total_cost();
      undo.clear();
      const double delta = live.apply_swap(locs, a, dest, b, undo);
      prop_require(delta == ref,
                   "apply_swap delta differs from propose()'s");
      for (const auto& u : undo.nets) {
        const NetCostModel::Box& box = live.box(u.net);
        const ReferenceNetBox rb = reference_net_box(nets[u.net], locs);
        prop_require(box.x_lo == rb.x_lo && box.x_hi == rb.x_hi &&
                         box.y_lo == rb.y_lo && box.y_hi == rb.y_hi,
                     "apply_swap box disagrees with full rescan");
        prop_require(
            box.cost == reference_net_cost(nets[u.net], w[u.net], locs),
            "apply_swap net cost is not bit-identical to the oracle");
      }
      if (rng.chance(0.4)) {
        // Rejected: undo must restore everything bitwise.
        live.undo_swap(locs, a, src, b, dest, undo);
        for (std::size_t i = 0; i < locs.size(); ++i) {
          prop_require(locs[i].x == locs_before[i].x &&
                           locs[i].y == locs_before[i].y &&
                           locs[i].sub == locs_before[i].sub,
                       "undo_swap did not restore the locations");
        }
        for (const auto& u : undo.nets) {
          prop_require(same_box(live.box(u.net), twin.box(u.net)),
                       "undo_swap did not restore a displaced box");
        }
        prop_require(live.total_cost() == total_before,
                     "undo_swap moved the tracked total");
        continue;
      }
      live.book_delta(delta);
    }
    twin.commit(pend);
    twin_locs[a] = dest;
    if (b != NetCostModel::kNoBlock) twin_locs[b] = src;
    prop_require(live.total_cost() == twin.total_cost(),
                 "tracked totals diverged between the two kernels");
    for (std::size_t n = 0; n < nets.size(); ++n) {
      prop_require(same_box(live.box(n), twin.box(n)),
                   "committed boxes diverged between the two kernels");
    }
  }
}

TEST(PropPlaceDiff, ApplySwapMatchesProposeAndUndoRestores) {
  const PropConfig cfg = PropConfig::from_env(200);
  const PropResult res =
      check_seeds("place_swap_diff", cfg, run_swap_sequence);
  EXPECT_TRUE(res.ok()) << res.report();
  EXPECT_GE(res.cases_run, cfg.only_case ? 1u : 200u);
}

void run_place_case(Rng& rng) {
  const DesignCase c = gen_design_case(rng);
  const BuiltDesign d = build_design(c);
  check_placement(d.pk, d.arch, d.pl);  // throws on an illegal placement
  prop_require_close(d.pl.final_cost, placement_cost(d.pl), 1e-9,
                     "final_cost vs placement_cost");
  if (!c.place_timing) {
    prop_require(d.pl.final_weighted_cost == d.pl.final_cost,
                 "weighted cost must equal unweighted without timing");
  }
  prop_require(d.pl.counters.proposed >= d.pl.counters.accepted,
               "accepted moves exceed proposals");
}

TEST(PropPlaceDiff, RandomConfigsPlaceLegallyWithConsistentCost) {
  const PropConfig cfg = PropConfig::from_env(100);
  const PropResult res = check_seeds("place_legal", cfg, run_place_case);
  EXPECT_TRUE(res.ok()) << res.report();
  EXPECT_GE(res.cases_run, cfg.only_case ? 1u : 100u);
}

TEST(PropPlaceDiff, BatchPlacementIsThreadCountInvariant) {
  ThreadPool p1(1), p2(2), p8(8);
  const PropConfig cfg = PropConfig::from_env(25);
  const PropResult res = check_seeds("place_threads", cfg, [&](Rng& rng) {
    DesignCase c = gen_design_case(rng);
    c.place_batch = 2 + rng.uniform_int(31);
    auto run = [&](ThreadPool& p) {
      ThreadPool::ScopedUse use(p);
      return build_design(c).pl;
    };
    const Placement a = run(p1);
    const Placement b = run(p2);
    const Placement d = run(p8);
    for (std::size_t i = 0; i < a.locs.size(); ++i) {
      prop_require(a.locs[i].x == b.locs[i].x && a.locs[i].y == b.locs[i].y &&
                       a.locs[i].sub == b.locs[i].sub,
                   "1-thread vs 2-thread placement diverged");
      prop_require(a.locs[i].x == d.locs[i].x && a.locs[i].y == d.locs[i].y &&
                       a.locs[i].sub == d.locs[i].sub,
                   "1-thread vs 8-thread placement diverged");
    }
    prop_require(a.final_cost == b.final_cost && a.final_cost == d.final_cost,
                 "final cost diverged across thread counts");
    prop_require(a.counters.accepted == b.counters.accepted &&
                     a.counters.accepted == d.counters.accepted &&
                     a.counters.conflicts == b.counters.conflicts &&
                     a.counters.conflicts == d.counters.conflicts &&
                     a.counters.replays == b.counters.replays &&
                     a.counters.replays == d.counters.replays,
                 "work counters diverged across thread counts");
  });
  EXPECT_TRUE(res.ok()) << res.report();
  EXPECT_GE(res.cases_run, cfg.only_case ? 1u : 25u);
}

}  // namespace
}  // namespace nemfpga::verify
