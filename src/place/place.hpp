// VPR-style simulated-annealing placement: wirelength-driven (bounding-box
// with the standard fanout correction), adaptive temperature schedule and
// range-limited swap moves. Logic clusters occupy the nx-by-ny grid; IO
// blocks occupy perimeter pad slots.
//
// The annealer is built from three layers (mirroring the router):
//  - NetCostModel: incremental bounding-box cost with per-edge pin counts,
//    so a proposal is evaluated in O(1) per touched net (full rescan only
//    when a solo edge pin moves inward) and *without* mutating committed
//    state — rejected moves cost nothing to undo.
//  - Move generators: uniform range-limited swaps (the default, which
//    reproduces the seed annealer bit-for-bit) plus opt-in
//    weighted-centroid and median-region directed generators under an
//    adaptive probability schedule, with criticality-biased block picks
//    in the timing-driven phase.
//  - Deterministic parallel annealing (PlaceOptions::batch_moves >= 2):
//    speculative move batches are generated and evaluated on the
//    NF_THREADS pool against frozen placement state from per-slot forked
//    RNG streams, then committed serially in slot order with
//    epoch-stamped conflict detection and serial replay — bit-identical
//    at any thread count.
//
// The serial kernel runs over flat arrays (see NetCostModel): CSR pin
// and block-net lists of uint32 plus one packed (x, y) word per block,
// scanned in the order the per-net vectors had, so placements stay
// bit-identical. In a flow, place() overlaps the RR graph, lookahead and
// delay-model build: place_with_artifacts (service/flow_artifacts.hpp)
// runs it on a helper thread when the current pool has >= 2 threads,
// while those large artifacts are built on the calling thread, which
// keeps their memory out of a second glibc malloc arena.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "arch/params.hpp"
#include "netlist/netlist.hpp"
#include "pack/pack.hpp"
#include "util/rng.hpp"

namespace nemfpga {

/// Location of a packed block: grid cell plus pad sub-slot (IO only).
struct BlockLoc {
  std::size_t x = 0;
  std::size_t y = 0;
  std::size_t sub = 0;
};

/// A routable net at the placement/routing level: driver block and sink
/// blocks (packed-block indices), with the originating netlist net.
struct PlacedNet {
  NetId net = kInvalidId;
  std::size_t driver = kInvalidId;
  std::vector<std::size_t> sinks;
};

/// Work counters for one place() call (always on; the bench harness and
/// the TSan/determinism tests read them).
struct PlaceCounters {
  std::uint64_t proposed = 0;   ///< Moves drawn, incl. degenerate no-ops.
  std::uint64_t accepted = 0;   ///< Moves committed.
  std::uint64_t rescans = 0;    ///< Incremental-edge-collapse full rescans.
  std::uint64_t directed = 0;   ///< Proposals from directed generators.
  std::uint64_t batches = 0;    ///< Speculative batches evaluated.
  std::uint64_t conflicts = 0;  ///< Stale proposals detected at commit.
  std::uint64_t repairs = 0;    ///< Net-level stale: only touched-and-
                                ///< changed nets re-evaluated serially.
  std::uint64_t replays = 0;    ///< Block/slot-level stale: full serial
                                ///< re-resolve and re-evaluation.
};

struct Placement {
  std::size_t nx = 0, ny = 0;
  std::vector<BlockLoc> locs;   ///< Per packed block.
  std::vector<PlacedNet> nets;  ///< Inter-block nets to route.
  /// Unweighted bounding-box cost after annealing (always comparable to
  /// placement_cost(), including after a timing-driven run).
  double final_cost = 0.0;
  /// Criticality-weighted cost the timing-driven anneal actually
  /// minimized; equals final_cost when timing_driven is off.
  double final_weighted_cost = 0.0;
  PlaceCounters counters;
};

struct PlaceOptions {
  double inner_num = 2.0;   ///< Moves per temperature ~ inner_num * n^(4/3).
  std::uint64_t seed = 1;
  /// Timing-driven mode (VPR-style): after the wirelength anneal, net
  /// criticalities are estimated from a placement-based delay model and a
  /// second, criticality-weighted anneal runs at medium temperature.
  bool timing_driven = false;
  /// Weight emphasis for critical nets: w = 1 + timing_weight * crit^2.
  double timing_weight = 4.0;
  /// Speculative move-batch size for the deterministic parallel annealer.
  /// 0 (the default) and 1 keep the serial discipline that reproduces the
  /// seed annealer bit-for-bit; >= 2 evaluates batches of this many moves
  /// on the NF_THREADS pool. Batch results are bit-identical at any
  /// thread count (the batch size, not the thread count, shapes the
  /// anneal trajectory).
  std::size_t batch_moves = 0;
  /// Enable the weighted-centroid / median-region move generators under
  /// an adaptive probability schedule (plus criticality-biased block
  /// picks in the timing-driven phase).
  bool directed_moves = false;
  /// Evaluate proposals with the seed annealer's full-rescan kernel
  /// (identical placements; O(pins) per touched net per proposal and a
  /// second scan on reject). Perf baseline for bench/place_perf --naive.
  bool naive_cost = false;
};

/// Incremental bounding-box net-cost engine. Owns per-net boxes with
/// min/max edge-occupancy counts so moving a block updates each touched
/// net in O(1) unless the last pin on a bounding edge moves inward (then
/// one full rescan re-derives the edge). propose() evaluates a move
/// against the committed state without mutating it; commit() applies a
/// pending evaluation. Net costs are derived from the final integer box
/// coordinates only, so the incremental and full-scan derivations are
/// bit-identical — the differential suite in tests/prop/prop_place_diff
/// pins this against the naive oracle in src/verify/reference_place.cpp.
///
/// Flat layout. The constructor copies the net topology into two CSR
/// arrays of uint32 and keeps no reference to the PlacedNet list:
///  - pins: every net's pins, driver first then the sorted sinks, back
///    to back; pin_start_[n]..pin_start_[n+1] delimits net n;
///  - block nets: every block's nets, ascending, back to back;
///    net_start_[b]..net_start_[b+1] delimits block b (nets_of()).
/// rebuild() also packs every block's (x, y) into one uint32 word. The
/// serial annealer's apply_swap walks a block's slice of the block-nets
/// array, scans each net's slice of the pins array and reads 4 bytes
/// per pin from the packed words, so one move touches a handful of
/// contiguous uint32 runs instead of chasing a heap vector per block
/// and per net through 24-byte BlockLocs. The scan order, and so every
/// floating-point accumulation, is the one the per-net vectors had:
/// placements, costs and PlaceCounters are bit-identical (pinned by
/// Place.DefaultAnnealGolden).
///
/// The PlacedNet list must have unique pins per net (driver not
/// repeated in sinks) and sorted sink lists — exactly what
/// extract_placed_nets produces — and fewer than 2^32 pins in total.
class NetCostModel {
 public:
  /// Packed to 24 bytes (16 bytes of geometry + the cost) so the hot
  /// boxes_ array stays cache-resident; grids and fanouts far exceed
  /// 16-bit range long before placement is the bottleneck.
  struct Box {
    std::uint16_t x_lo = 0, x_hi = 0, y_lo = 0, y_hi = 0;
    /// Pins currently sitting on each bounding edge; a pin of a
    /// degenerate (lo == hi) axis counts on both edges.
    std::uint16_t on_x_lo = 0, on_x_hi = 0, on_y_lo = 0, on_y_hi = 0;
    double cost = 0.0;
  };
  struct PendingNet {
    std::size_t net = 0;
    Box box;
  };
  /// One evaluated proposal: the nets whose box record actually changes
  /// (touched nets whose geometry and edge counts are unaffected — e.g.
  /// a pin moving strictly inside the box — are exact-zero contributions
  /// and are omitted), the summed cost delta, and how many evaluations
  /// fell back to a full rescan. Reusable scratch — clear() keeps
  /// capacity.
  struct Pending {
    std::vector<PendingNet> nets;
    double delta = 0.0;
    std::uint64_t rescans = 0;
    void clear() {
      nets.clear();
      delta = 0.0;
      rescans = 0;
    }
  };

  static constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);

  NetCostModel(const std::vector<PlacedNet>& nets, std::size_t n_blocks);

  /// Replace the per-net weights (timing-driven criticality emphasis);
  /// must be followed by rebuild() to re-derive box costs.
  void set_weights(std::vector<double> w);

  /// Recompute every box and the total cost from scratch.
  void rebuild(const std::vector<BlockLoc>& locs);

  /// Tracked total cost: rebuild()'s sum plus one += delta per commit —
  /// the same accumulation the seed annealer performed.
  double total_cost() const { return cost_; }

  /// Unweighted bounding-box cost from the committed boxes, summed in
  /// net order (placement_cost()'s definition).
  double unweighted_cost() const;

  const Box& box(std::size_t net) const { return boxes_[net]; }
  double weight(std::size_t net) const { return weight_[net]; }
  std::size_t net_count() const { return weight_.size(); }

  /// Pins of a net: the driver, then the sinks ascending.
  std::span<const std::uint32_t> pins_of(std::size_t net) const {
    return {pins_.data() + pin_start_[net], pins_.data() + pin_start_[net + 1]};
  }

  /// Nets touching a block, ascending by net index.
  std::span<const std::uint32_t> nets_of(std::size_t block) const {
    return {block_nets_.data() + net_start_[block],
            block_nets_.data() + net_start_[block + 1]};
  }

  /// Visit every net touching block a and/or block b exactly once, in
  /// the canonical evaluation order (a's nets ascending, then b's nets
  /// not shared with a, ascending) as f(net, moves_a, moves_b). A merge
  /// over the two sorted lists — no per-net membership search. propose()
  /// and the batch annealer's stale-repair walk both use this order, so
  /// their floating-point accumulations are bit-identical.
  template <typename F>
  void for_each_touched(std::size_t a, std::size_t b, F&& f) const {
    const std::span<const std::uint32_t> la = nets_of(a);
    if (b == kNoBlock) {
      for (std::size_t n : la) f(n, true, false);
      return;
    }
    const std::span<const std::uint32_t> lb = nets_of(b);
    std::size_t j = 0;
    for (std::size_t n : la) {
      while (j < lb.size() && lb[j] < n) ++j;
      f(n, true, j < lb.size() && lb[j] == n);
    }
    std::size_t i = 0;
    for (std::size_t n : lb) {
      while (i < la.size() && la[i] < n) ++i;
      if (i < la.size() && la[i] == n) continue;  // shared: visited above
      f(n, false, true);
    }
  }

  /// Evaluate moving block a to new_a and (if b != kNoBlock) block b to
  /// new_b against the committed state, filling `out` and returning the
  /// cost delta. Does not mutate the model: safe to call concurrently
  /// from parallel batch evaluation. `locs` are the committed locations.
  double propose(const std::vector<BlockLoc>& locs, std::size_t a,
                 const BlockLoc& new_a, std::size_t b, const BlockLoc& new_b,
                 Pending& out) const;

  /// The seed annealer's kernel: full O(pins) rescan of every touched
  /// net. Bit-identical delta to propose(); kept as the measured perf
  /// baseline (PlaceOptions::naive_cost) and a second oracle angle.
  double propose_naive(const std::vector<BlockLoc>& locs, std::size_t a,
                       const BlockLoc& new_a, std::size_t b,
                       const BlockLoc& new_b, Pending& out) const;

  /// Apply an evaluated proposal: store the new boxes, cost += delta.
  void commit(const Pending& p);

  /// The serial fast path, mirroring the seed annealer's do_swap: move
  /// block a to `dest` (and b, if given, to a's old site) in `locs`,
  /// rescan every touched net in place, and return the cost delta. The
  /// displaced box records are appended to `undo` so a rejected move
  /// can be reversed with undo_swap() — a bitwise restore, where the
  /// seed paid a full second rescan of every touched net. The tracked
  /// total is NOT updated — the caller books the delta with
  /// book_delta() on accept. Shared nets are rescanned once per block;
  /// the second visit sees the already-stored box and contributes an
  /// exact +0.0, which keeps the delta bit-identical to propose()'s
  /// shared-net-once accumulation. The scans read the packed positions,
  /// so `locs` must match them: since the last rebuild(), change it only
  /// through apply_swap, undo_swap, or writes reported with track().
  double apply_swap(std::vector<BlockLoc>& locs, std::size_t a,
                    const BlockLoc& dest, std::size_t b, Pending& undo);

  /// Reverse a rejected apply_swap: put a back at `src` (and b back at
  /// `dest`, a's proposed target, which was b's home), and restore the
  /// displaced boxes in reverse log order — a net touched by both
  /// blocks appears twice, and the reverse walk ends on its original
  /// record. Leaves model and locations bit-identical to before the
  /// apply_swap; the tracked total was never touched.
  void undo_swap(std::vector<BlockLoc>& locs, std::size_t a,
                 const BlockLoc& src, std::size_t b, const BlockLoc& dest,
                 const Pending& undo);

  /// Mirror a location change made outside apply_swap/undo_swap (the
  /// naive and batch commit paths write `locs` directly) into the packed
  /// words apply_swap scans. rebuild() re-derives them all.
  void track(std::size_t blk, const BlockLoc& l);

  /// Fold an accepted apply_swap delta into the tracked total — the
  /// same one += per accepted move the seed annealer performed.
  void book_delta(double d) { cost_ += d; }

  /// Re-derive every box's edge-occupancy counts from `locs`. The
  /// serial apply_swap path skips count maintenance (nothing serial
  /// reads them); the batch annealer calls this once before its first
  /// batch so move_dim sees valid counts. Geometry and costs are not
  /// touched, so the cost trajectory is unaffected.
  void refresh_counts(const std::vector<BlockLoc>& locs);

  /// Fully rescan one net against `locs` with the move applied and
  /// derive its cost — the batch annealer's net-level stale repair uses
  /// this for exactly the nets invalidated by earlier commits.
  Box rescan_net(std::size_t net, const std::vector<BlockLoc>& locs,
                 std::size_t a, const BlockLoc& new_a, std::size_t b,
                 const BlockLoc& new_b) const;

 private:
  void finish_cost(Box& box, std::size_t net) const;

  std::vector<double> weight_;
  /// weight_[n] * q_factor(pins(n)) precomputed: finish_cost() is then
  /// one multiply. (w * q) * span associates exactly as the seed's
  /// w * q * span, so costs stay bit-identical.
  std::vector<double> wq_;
  std::vector<std::uint32_t> pin_start_, pins_;         ///< CSR: net -> pins
  std::vector<std::uint32_t> net_start_, block_nets_;   ///< CSR: block -> nets
  /// Per block: x | y << 16 of its location (see pack_xy in place.cpp),
  /// kept equal to `locs` by rebuild, apply_swap, undo_swap and track.
  std::vector<std::uint32_t> xy_;
  std::vector<Box> boxes_;
  double cost_ = 0.0;
};

/// The placed view of one netlist net: driver + deduped, sorted sink
/// packed-blocks; nullopt when the net is absorbed or fully local and so
/// never reaches the router. extract_placed_nets is a scan of this over
/// ascending NetId, which is the equivalence the ECO flow relies on to
/// splice individual entries incrementally and stay bitwise-identical to
/// a from-scratch extraction.
std::optional<PlacedNet> make_placed_net(const Netlist& nl, const Packing& p,
                                         NetId n);

/// Extract the inter-block nets (driver + sinks over packed blocks) that
/// placement optimizes and routing must realize.
std::vector<PlacedNet> extract_placed_nets(const Netlist& nl, const Packing& p);

/// Placement-based net criticality estimate (no routing required): the
/// longest combinational path where a net's delay is its bounding-box
/// semiperimeter, shaped into 1 - slack / d_max per placed net. Shared by
/// the timing-driven placement anneal (criticality-weighted net weights)
/// and the router's incremental STA, which seeds its iteration-1
/// criticalities from it before any routed trees exist
/// (src/timing/sta.cpp). Result is parallel to `nets`, each entry in
/// [0, 1]. LUTs trapped in combinational cycles never drain from the
/// topological pass; they are detected afterwards, warned about once on
/// stderr, and every net touching one falls back to zero-slack (fully
/// critical) shaping instead of silently reporting arrival 0.
std::vector<double> placement_net_criticality(
    const Netlist& nl, const std::vector<PlacedNet>& nets,
    const std::vector<BlockLoc>& locs);

/// Anneal a placement on an nx-by-ny logic grid (IO pads on the border).
/// Grid must fit: nx*ny >= #clusters and perimeter capacity >= #IO blocks.
Placement place(const Netlist& nl, const Packing& p, const ArchParams& arch,
                std::size_t nx, std::size_t ny, const PlaceOptions& opt = {});

/// Total bounding-box wirelength cost of a placement (for tests/reports).
double placement_cost(const Placement& pl);

/// Validation: every block placed on a legal, non-overlapping site.
void check_placement(const Packing& p, const ArchParams& arch,
                     const Placement& pl);

}  // namespace nemfpga
