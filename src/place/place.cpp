#include "place/place.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <unordered_set>

#include "timing/criticality.hpp"
#include "util/thread_pool.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define NF_ALWAYS_INLINE __attribute__((always_inline))
#else
#define NF_ALWAYS_INLINE
#endif

namespace nemfpga {
namespace {

/// VPR's bounding-box fanout correction q(terminals) [Betz 99]: accounts
/// for the underestimate of HPWL on multi-terminal nets.
double q_factor(std::size_t terminals) {
  static constexpr double kTable[] = {1.0,    1.0,    1.0,    1.0,    1.0828,
                                      1.1536, 1.2206, 1.2823, 1.3385, 1.3991,
                                      1.4493, 1.4974, 1.5455, 1.5937, 1.6418,
                                      1.6899, 1.7304, 1.7709, 1.8114, 1.8519,
                                      1.8924, 1.9288, 1.9652, 2.0015, 2.0379,
                                      2.0743, 2.1061, 2.1379, 2.1698, 2.2016,
                                      2.2334};
  if (terminals < std::size(kTable)) return kTable[terminals];
  return 2.2334 + 0.0616 * (static_cast<double>(terminals) - 30.0) / 5.0;
}

/// Fold coordinate v into a box axis being scanned from scratch.
inline void scan_dim(std::uint16_t v, std::uint16_t& lo, std::uint16_t& hi,
                     std::uint16_t& on_lo, std::uint16_t& on_hi) {
  if (v < lo) {
    lo = v;
    on_lo = 1;
  } else if (v == lo) {
    ++on_lo;
  }
  if (v > hi) {
    hi = v;
    on_hi = 1;
  } else if (v == hi) {
    ++on_hi;
  }
}

/// Move one pin of a box from `o` to `c` along one axis, maintaining the
/// edge-occupancy counts. Returns false when the pin was the last one on
/// an edge and moved inward — the new edge is unknown and the caller must
/// rescan the net. New position is folded in before the old one is
/// removed so a pin passing itself never empties a live edge.
inline bool move_dim(std::uint16_t o, std::uint16_t c, std::uint16_t& lo,
                     std::uint16_t& hi, std::uint16_t& on_lo,
                     std::uint16_t& on_hi) {
  if (o == c) return true;
  scan_dim(c, lo, hi, on_lo, on_hi);
  if (o == lo && --on_lo == 0) return false;
  if (o == hi && --on_hi == 0) return false;
  return true;
}

/// Flat-buffer capacity for the branchless box scan; bigger nets take
/// the sequential fold (identical result, just not vectorizable).
constexpr std::size_t kScanBuf = 128;

/// Identical box geometry and edge counts (the 16 bytes before cost).
/// The eight uint16 fields are contiguous with no padding, so this is
/// two 8-byte word compares.
inline bool same_geometry(const NetCostModel::Box& p,
                          const NetCostModel::Box& q) {
  static_assert(offsetof(NetCostModel::Box, cost) == 16);
  return std::memcmp(&p, &q, 16) == 0;
}

/// Location strictly inside the box on both axes: moving this pin there
/// (or away from there) cannot change the box or its edge counts.
inline bool strictly_inside(const BlockLoc& l, const NetCostModel::Box& b) {
  const std::uint16_t x = static_cast<std::uint16_t>(l.x);
  const std::uint16_t y = static_cast<std::uint16_t>(l.y);
  return b.x_lo < x && x < b.x_hi && b.y_lo < y && y < b.y_hi;
}

/// Full box scan of one net's pins (driver first) with up to two pin
/// substitutions applied (`a` at `new_a`, `b` at `new_b`). Free function
/// in this TU so it inlines into the propose() hot loop.
inline NetCostModel::Box full_scan(std::span<const std::uint32_t> pins,
                                   const std::vector<BlockLoc>& locs,
                                   std::size_t a, const BlockLoc& new_a,
                                   std::size_t b, const BlockLoc& new_b) {
  auto loc = [&](std::size_t blk) -> const BlockLoc& {
    if (blk == a) return new_a;
    if (blk == b) return new_b;
    return locs[blk];
  };
  NetCostModel::Box box;
  // The sequential scan_dim fold leaves on_lo == |{pins == final lo}|
  // (each new minimum resets the count, equal pins increment it), so a
  // branchless two-pass derivation — min/max sweep, then equality count
  // — produces the identical box without the fold's data-dependent
  // branches (measured faster even on the typical 2-4 pin net here).
  std::uint16_t xs[kScanBuf], ys[kScanBuf];
  const std::size_t n = pins.size();
  const BlockLoc& d = loc(pins[0]);
  if (n <= kScanBuf) {
    xs[0] = static_cast<std::uint16_t>(d.x);
    ys[0] = static_cast<std::uint16_t>(d.y);
    for (std::size_t i = 1; i < n; ++i) {
      const BlockLoc& l = loc(pins[i]);
      xs[i] = static_cast<std::uint16_t>(l.x);
      ys[i] = static_cast<std::uint16_t>(l.y);
    }
    std::uint16_t xlo = xs[0], xhi = xs[0], ylo = ys[0], yhi = ys[0];
    for (std::size_t i = 1; i < n; ++i) {
      xlo = std::min(xlo, xs[i]);
      xhi = std::max(xhi, xs[i]);
      ylo = std::min(ylo, ys[i]);
      yhi = std::max(yhi, ys[i]);
    }
    std::uint16_t cxl = 0, cxh = 0, cyl = 0, cyh = 0;
    for (std::size_t i = 0; i < n; ++i) {
      cxl = static_cast<std::uint16_t>(cxl + (xs[i] == xlo));
      cxh = static_cast<std::uint16_t>(cxh + (xs[i] == xhi));
      cyl = static_cast<std::uint16_t>(cyl + (ys[i] == ylo));
      cyh = static_cast<std::uint16_t>(cyh + (ys[i] == yhi));
    }
    box.x_lo = xlo;
    box.x_hi = xhi;
    box.y_lo = ylo;
    box.y_hi = yhi;
    box.on_x_lo = cxl;
    box.on_x_hi = cxh;
    box.on_y_lo = cyl;
    box.on_y_hi = cyh;
    return box;
  }
  box.x_lo = box.x_hi = static_cast<std::uint16_t>(d.x);
  box.y_lo = box.y_hi = static_cast<std::uint16_t>(d.y);
  box.on_x_lo = box.on_x_hi = box.on_y_lo = box.on_y_hi = 1;
  for (std::size_t i = 1; i < n; ++i) {
    const BlockLoc& l = loc(pins[i]);
    scan_dim(static_cast<std::uint16_t>(l.x), box.x_lo, box.x_hi, box.on_x_lo,
             box.on_x_hi);
    scan_dim(static_cast<std::uint16_t>(l.y), box.y_lo, box.y_hi, box.on_y_lo,
             box.on_y_hi);
  }
  return box;
}

/// Geometry-only scan with no pin substitution — the in-place
/// apply_swap path scans already-mutated locations, so the two per-pin
/// substitution compares drop out of the gather, and the serial
/// annealer never consults the edge-occupancy counts (they exist for
/// move_dim, which only the batch propose path runs), so one min/max
/// pass over the pins is the whole scan. It reads the packed (x, y)
/// words, 4 bytes a pin instead of a 24-byte BlockLoc. Counts are left
/// zero; the batch annealer re-derives them with refresh_counts()
/// before it ever reads them.
inline NetCostModel::Box direct_scan(const std::uint32_t* pin,
                                     const std::uint32_t* end,
                                     const std::uint32_t* xy) {
  NetCostModel::Box box;
  const std::uint32_t d = xy[*pin];
  std::uint16_t xlo = static_cast<std::uint16_t>(d), xhi = xlo;
  std::uint16_t ylo = static_cast<std::uint16_t>(d >> 16), yhi = ylo;
  for (++pin; pin != end; ++pin) {
    const std::uint32_t l = xy[*pin];
    const auto x = static_cast<std::uint16_t>(l);
    const auto y = static_cast<std::uint16_t>(l >> 16);
    xlo = std::min(xlo, x);
    xhi = std::max(xhi, x);
    ylo = std::min(ylo, y);
    yhi = std::max(yhi, y);
  }
  box.x_lo = xlo;
  box.x_hi = xhi;
  box.y_lo = ylo;
  box.y_hi = yhi;
  return box;
}

/// A location's packed scan word: x in the low 16 bits, y in the high
/// 16 — the same truncation the 16-bit Box coordinates apply.
inline std::uint32_t pack_xy(const BlockLoc& l) {
  return static_cast<std::uint32_t>(static_cast<std::uint16_t>(l.x)) |
         static_cast<std::uint32_t>(static_cast<std::uint16_t>(l.y)) << 16;
}

/// Narrow a CSR index or block id to the uint32 the flat arrays store.
std::uint32_t to_u32(std::size_t v) {
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("NetCostModel: netlist exceeds 2^32 pins");
  }
  return static_cast<std::uint32_t>(v);
}

}  // namespace

NetCostModel::NetCostModel(const std::vector<PlacedNet>& nets,
                           std::size_t n_blocks) {
  weight_.assign(nets.size(), 1.0);
  wq_.resize(nets.size());
  pin_start_.reserve(nets.size() + 1);
  pin_start_.push_back(0);
  net_start_.assign(n_blocks + 1, 0);
  for (const PlacedNet& pn : nets) {
    pins_.push_back(to_u32(pn.driver));
    ++net_start_[pn.driver + 1];
    for (std::size_t s : pn.sinks) {
      pins_.push_back(to_u32(s));
      ++net_start_[s + 1];
    }
    pin_start_.push_back(to_u32(pins_.size()));
  }
  for (std::size_t n = 0; n < nets.size(); ++n) {
    wq_[n] = q_factor(pins_of(n).size());
  }
  // Counting sort by block: visiting nets in ascending order leaves each
  // block's slice ascending.
  for (std::size_t b = 0; b < n_blocks; ++b) net_start_[b + 1] += net_start_[b];
  block_nets_.resize(pins_.size());
  std::vector<std::uint32_t> fill(net_start_.begin(), net_start_.end() - 1);
  for (std::size_t n = 0; n < nets.size(); ++n) {
    for (std::uint32_t blk : pins_of(n)) {
      block_nets_[fill[blk]++] = static_cast<std::uint32_t>(n);
    }
  }
}

void NetCostModel::set_weights(std::vector<double> w) {
  if (w.size() != net_count()) {
    throw std::logic_error("NetCostModel: weight count mismatch");
  }
  weight_ = std::move(w);
  for (std::size_t n = 0; n < net_count(); ++n) {
    wq_[n] = weight_[n] * q_factor(pins_of(n).size());
  }
}

void NetCostModel::finish_cost(Box& box, std::size_t net) const {
  const double span = static_cast<double>(box.x_hi - box.x_lo) +
                      static_cast<double>(box.y_hi - box.y_lo);
  box.cost = wq_[net] * span;
}

void NetCostModel::rebuild(const std::vector<BlockLoc>& locs) {
  xy_.resize(locs.size());
  for (std::size_t b = 0; b < locs.size(); ++b) xy_[b] = pack_xy(locs[b]);
  boxes_.resize(net_count());
  cost_ = 0.0;
  static const BlockLoc kNowhere{};
  for (std::size_t n = 0; n < net_count(); ++n) {
    Box box =
        full_scan(pins_of(n), locs, kNoBlock, kNowhere, kNoBlock, kNowhere);
    finish_cost(box, n);
    boxes_[n] = box;
    cost_ += box.cost;
  }
}

double NetCostModel::unweighted_cost() const {
  double cost = 0.0;
  for (std::size_t n = 0; n < boxes_.size(); ++n) {
    const Box& b = boxes_[n];
    cost += q_factor(pins_of(n).size()) *
            (static_cast<double>(b.x_hi - b.x_lo) +
             static_cast<double>(b.y_hi - b.y_lo));
  }
  return cost;
}

double NetCostModel::propose(const std::vector<BlockLoc>& locs, std::size_t a,
                             const BlockLoc& new_a, std::size_t b,
                             const BlockLoc& new_b, Pending& out) const {
  // Delta accumulation mirrors the seed annealer's do_swap: nets of a
  // first (with both pin moves applied, so shared nets are fully costed
  // here), then nets of b that a does not touch — for_each_touched walks
  // that exact order. Evaluations whose net box provably does not change
  // contribute an exact nb.cost - old.cost == +0.0, and adding +0.0
  // never alters an IEEE sum (no partial sum here can be -0.0: each term
  // is either a true nonzero or +0.0), so skipping them keeps the
  // floating-point delta bit-identical to the seed's.
  // The evaluation body must be inlined into the merge walk: as an
  // out-of-line call it is invoked once per touched net (~50 per move)
  // and the call overhead plus register spills roughly doubles placer
  // wall time. always_inline keeps propose one flat frame, like the
  // seed annealer's fully-inlined do_swap loop.
  for_each_touched(a, b, [&](std::size_t n, bool move_a,
                             bool move_b) NF_ALWAYS_INLINE {
    const Box& old = boxes_[n];
    if (move_a != move_b) {
      // Single moving pin: if both its old and new sites are strictly
      // inside the box, neither geometry nor edge counts can change.
      const BlockLoc& from = move_a ? locs[a] : locs[b];
      const BlockLoc& to = move_a ? new_a : new_b;
      if (strictly_inside(from, old) && strictly_inside(to, old)) return;
    }
    Box nb = old;
    bool ok = true;
    if (move_a) {
      ok = move_dim(static_cast<std::uint16_t>(locs[a].x),
                    static_cast<std::uint16_t>(new_a.x), nb.x_lo, nb.x_hi,
                    nb.on_x_lo, nb.on_x_hi) &&
           move_dim(static_cast<std::uint16_t>(locs[a].y),
                    static_cast<std::uint16_t>(new_a.y), nb.y_lo, nb.y_hi,
                    nb.on_y_lo, nb.on_y_hi);
    }
    if (ok && move_b) {
      ok = move_dim(static_cast<std::uint16_t>(locs[b].x),
                    static_cast<std::uint16_t>(new_b.x), nb.x_lo, nb.x_hi,
                    nb.on_x_lo, nb.on_x_hi) &&
           move_dim(static_cast<std::uint16_t>(locs[b].y),
                    static_cast<std::uint16_t>(new_b.y), nb.y_lo, nb.y_hi,
                    nb.on_y_lo, nb.on_y_hi);
    }
    if (!ok) {
      nb = full_scan(pins_of(n), locs, a, new_a, b, new_b);
      ++out.rescans;
    }
    if (same_geometry(nb, old)) return;  // exact +0.0, box record unchanged
    if (nb.x_lo == old.x_lo && nb.x_hi == old.x_hi && nb.y_lo == old.y_lo &&
        nb.y_hi == old.y_hi) {
      // Same span, different edge counts: cost is a pure function of the
      // coordinates, so reuse it bitwise and skip the +0.0 delta term.
      nb.cost = old.cost;
      out.nets.push_back({n, nb});
      return;
    }
    finish_cost(nb, n);
    out.delta += nb.cost - old.cost;
    out.nets.push_back({n, nb});
  });
  return out.delta;
}

NetCostModel::Box NetCostModel::rescan_net(std::size_t net,
                                           const std::vector<BlockLoc>& locs,
                                           std::size_t a, const BlockLoc& new_a,
                                           std::size_t b,
                                           const BlockLoc& new_b) const {
  Box nb = full_scan(pins_of(net), locs, a, new_a, b, new_b);
  finish_cost(nb, net);
  return nb;
}

void NetCostModel::refresh_counts(const std::vector<BlockLoc>& locs) {
  static const BlockLoc kNowhere{};
  for (std::size_t n = 0; n < boxes_.size(); ++n) {
    const Box b =
        full_scan(pins_of(n), locs, kNoBlock, kNowhere, kNoBlock, kNowhere);
    boxes_[n].on_x_lo = b.on_x_lo;
    boxes_[n].on_x_hi = b.on_x_hi;
    boxes_[n].on_y_lo = b.on_y_lo;
    boxes_[n].on_y_hi = b.on_y_hi;
  }
}

double NetCostModel::apply_swap(std::vector<BlockLoc>& locs, std::size_t a,
                                const BlockLoc& dest, std::size_t b,
                                Pending& undo) {
  const BlockLoc src = locs[a];
  locs[a] = dest;
  xy_[a] = pack_xy(dest);
  if (b != kNoBlock) {
    locs[b] = src;
    xy_[b] = pack_xy(src);
  }
  // The seed annealer's do_swap evaluation order: rescan a's nets in
  // order, then b's nets in order. A shared net is rescanned twice; the
  // second visit recomputes the identical box against the
  // already-updated record, so its term is an exact +0.0 and the delta
  // stays bit-identical to the shared-net-once accumulation propose()
  // performs.
  const std::uint32_t* const pins = pins_.data();
  const std::uint32_t* const pin_start = pin_start_.data();
  double delta = 0.0;
  auto touch = [&](std::size_t blk) NF_ALWAYS_INLINE {
    const std::uint32_t* n = block_nets_.data() + net_start_[blk];
    const std::uint32_t* const end = block_nets_.data() + net_start_[blk + 1];
    for (; n != end; ++n) {
      Box nb = direct_scan(pins + pin_start[*n], pins + pin_start[*n + 1],
                           xy_.data());
      finish_cost(nb, *n);
      Box& cur = boxes_[*n];
      delta += nb.cost - cur.cost;
      undo.nets.push_back({*n, cur});
      cur = nb;
    }
  };
  touch(a);
  if (b != kNoBlock) touch(b);
  return delta;
}

void NetCostModel::undo_swap(std::vector<BlockLoc>& locs, std::size_t a,
                             const BlockLoc& src, std::size_t b,
                             const BlockLoc& dest, const Pending& undo) {
  locs[a] = src;
  xy_[a] = pack_xy(src);
  if (b != kNoBlock) {
    locs[b] = dest;
    xy_[b] = pack_xy(dest);
  }
  for (std::size_t i = undo.nets.size(); i-- > 0;) {
    boxes_[undo.nets[i].net] = undo.nets[i].box;
  }
}

double NetCostModel::propose_naive(const std::vector<BlockLoc>& locs,
                                   std::size_t a, const BlockLoc& new_a,
                                   std::size_t b, const BlockLoc& new_b,
                                   Pending& out) const {
  for (std::size_t n : nets_of(a)) {
    Box nb = full_scan(pins_of(n), locs, a, new_a, b, new_b);
    ++out.rescans;
    finish_cost(nb, n);
    out.delta += nb.cost - boxes_[n].cost;
    out.nets.push_back({n, nb});
  }
  if (b != kNoBlock) {
    const std::span<const std::uint32_t> la = nets_of(a);
    for (std::size_t n : nets_of(b)) {
      Box nb = full_scan(pins_of(n), locs, a, new_a, b, new_b);
      ++out.rescans;
      finish_cost(nb, n);
      if (std::binary_search(la.begin(), la.end(), n)) {
        // Shared net: the seed recomputed it against its already-updated
        // box, contributing an exact +0.0 — reproduce that (the rescan
        // above is the work profile under measurement).
        for (const PendingNet& p : out.nets) {
          if (p.net == n) {
            out.delta += nb.cost - p.box.cost;
            break;
          }
        }
        continue;
      }
      out.delta += nb.cost - boxes_[n].cost;
      out.nets.push_back({n, nb});
    }
  }
  return out.delta;
}

void NetCostModel::track(std::size_t blk, const BlockLoc& l) {
  xy_[blk] = pack_xy(l);
}

void NetCostModel::commit(const Pending& p) {
  for (const PendingNet& pn : p.nets) boxes_[pn.net] = pn.box;
  cost_ += p.delta;
}

namespace {

/// One speculative move: drawn from a per-slot forked RNG stream, cost
/// evaluated against frozen state, committed (or replayed) serially.
struct Proposal {
  std::size_t a = NetCostModel::kNoBlock;
  std::size_t b = NetCostModel::kNoBlock;
  BlockLoc src, dest;
  bool is_logic = false;
  bool valid = false;  ///< Degenerate draws (same site / self swap) = false.
  int gen = 0;         ///< 0 uniform, 1 weighted-centroid, 2 median-region.
  double u = 0.0;      ///< Pre-drawn acceptance uniform (batch mode only).
  double delta = 0.0;
  NetCostModel::Pending pending;
};

struct Annealer {
  const Packing& pack;
  const ArchParams& arch;
  std::size_t nx, ny;
  PlaceOptions opt;
  Rng rng;

  std::vector<PlacedNet> nets;
  NetCostModel model;
  std::vector<BlockLoc> locs;
  PlaceCounters counters;

  // Occupancy: logic grid and IO pad slots.
  std::vector<std::size_t> logic_at;            // (x-1) + (y-1)*nx -> block
  std::vector<std::vector<std::size_t>> io_at;  // io site -> slots
  std::vector<std::pair<std::size_t, std::size_t>> io_sites;  // (x, y)
  std::vector<std::size_t> io_site_index;  // keyed like site_key()

  // Epoch stamps for batch-commit conflict detection (batch mode only).
  std::vector<std::uint32_t> net_epoch, block_epoch, slot_epoch;
  std::uint32_t epoch = 0;
  std::vector<Proposal> batch;

  // Directed-move state: adaptive generator probabilities (uniform,
  // centroid, median), per-temperature accept stats, and the
  // criticality-biased target blocks of the timing phase.
  std::array<double, 3> gen_weight{1.0, 0.0, 0.0};
  std::array<std::uint64_t, 3> gen_tried{}, gen_acc{};
  std::vector<std::size_t> crit_blocks;
  bool timing_phase = false;

  Proposal scratch;
  NetCostModel::Pending discard;
  NetCostModel::Pending repaired;  ///< Scratch for batch stale repair.

  static constexpr std::size_t kEmpty = static_cast<std::size_t>(-1);

  Annealer(const Packing& p, const ArchParams& a, std::size_t nx_,
           std::size_t ny_, const PlaceOptions& o,
           std::vector<PlacedNet> nets_in)
      : pack(p),
        arch(a),
        nx(nx_),
        ny(ny_),
        opt(o),
        rng(o.seed),
        nets(std::move(nets_in)),
        model(nets, p.blocks.size()) {
    if (opt.directed_moves) gen_weight = {0.5, 0.25, 0.25};
  }

  std::size_t site_key(std::size_t x, std::size_t y) const {
    return y * (nx + 2) + x;
  }

  /// One stamp slot per (site, sub-slot) so batch conflict detection can
  /// see IO pad sub-slot collisions as well as logic-cell collisions.
  std::size_t slot_stamp_key(const BlockLoc& l) const {
    return site_key(l.x, l.y) * (arch.io_per_pad + 1) + l.sub;
  }

  void initial_place() {
    logic_at.assign(nx * ny, kEmpty);
    // Enumerate IO sites clockwise.
    for (std::size_t x = 1; x <= nx; ++x) io_sites.push_back({x, 0});
    for (std::size_t y = 1; y <= ny; ++y) io_sites.push_back({nx + 1, y});
    for (std::size_t x = 1; x <= nx; ++x) io_sites.push_back({x, ny + 1});
    for (std::size_t y = 1; y <= ny; ++y) io_sites.push_back({0, y});
    io_at.assign(io_sites.size(),
                 std::vector<std::size_t>(arch.io_per_pad, kEmpty));
    io_site_index.assign((nx + 2) * (ny + 2), kEmpty);
    for (std::size_t s = 0; s < io_sites.size(); ++s) {
      io_site_index[site_key(io_sites[s].first, io_sites[s].second)] = s;
    }

    locs.resize(pack.blocks.size());
    std::size_t next_logic = 0;
    std::size_t next_io = 0;
    for (std::size_t b = 0; b < pack.blocks.size(); ++b) {
      if (pack.blocks[b].type == PackedType::kLogic) {
        if (next_logic >= nx * ny) throw std::invalid_argument("grid too small");
        const std::size_t x = next_logic % nx + 1;
        const std::size_t y = next_logic / nx + 1;
        locs[b] = {x, y, 0};
        logic_at[(x - 1) + (y - 1) * nx] = b;
        ++next_logic;
      } else {
        const std::size_t site = next_io / arch.io_per_pad;
        const std::size_t sub = next_io % arch.io_per_pad;
        if (site >= io_sites.size()) {
          throw std::invalid_argument("not enough IO pad slots");
        }
        locs[b] = {io_sites[site].first, io_sites[site].second, sub};
        io_at[site][sub] = b;
        ++next_io;
      }
    }
  }

  void commit_occupancy(std::size_t a, std::size_t b, const BlockLoc& src,
                        const BlockLoc& dest, bool is_logic) {
    if (is_logic) {
      logic_at[(dest.x - 1) + (dest.y - 1) * nx] = a;
      logic_at[(src.x - 1) + (src.y - 1) * nx] = (b == kEmpty) ? kEmpty : b;
    } else {
      const std::size_t ds = io_site_index[site_key(dest.x, dest.y)];
      const std::size_t ss = io_site_index[site_key(src.x, src.y)];
      io_at[ds][dest.sub] = a;
      io_at[ss][src.sub] = (b == kEmpty) ? kEmpty : b;
    }
  }

  void apply_move(std::size_t a, std::size_t b, const BlockLoc& src,
                  const BlockLoc& dest, bool is_logic) {
    locs[a] = dest;
    model.track(a, dest);
    if (b != kEmpty) {
      locs[b] = src;
      model.track(b, src);
    }
    commit_occupancy(a, b, src, dest, is_logic);
  }

  // ---- move generation --------------------------------------------------

  /// Pick the move generator for this proposal. Draws nothing in the
  /// default (uniform-only) configuration, keeping the seed RNG sequence.
  int pick_generator(Rng& r, bool allow_directed) const {
    if (!allow_directed) return 0;
    const double u = r.uniform();
    double acc = 0.0;
    for (int g = 0; g < 2; ++g) {
      acc += gen_weight[static_cast<std::size_t>(g)];
      if (u < acc) return g;
    }
    return 2;
  }

  /// Pick the block to move. Timing-phase directed runs bias half the
  /// picks toward blocks on (estimated) critical nets.
  std::size_t pick_block(Rng& r, bool allow_directed) const {
    if (allow_directed && timing_phase && !crit_blocks.empty() &&
        r.uniform() < 0.5) {
      return crit_blocks[r.uniform_int(crit_blocks.size())];
    }
    return r.uniform_int(pack.blocks.size());
  }

  /// Weighted centroid of the boxes of the nets touching `a` — the
  /// natural wirelength-minimizing target for the block.
  bool centroid_target(std::size_t a, std::size_t& tx, std::size_t& ty) const {
    double wx = 0.0, wy = 0.0, wsum = 0.0;
    for (std::size_t n : model.nets_of(a)) {
      const NetCostModel::Box& b = model.box(n);
      const double w = model.weight(n);
      wx += w * 0.5 * (static_cast<double>(b.x_lo) + static_cast<double>(b.x_hi));
      wy += w * 0.5 * (static_cast<double>(b.y_lo) + static_cast<double>(b.y_hi));
      wsum += w;
    }
    if (wsum <= 0.0) return false;
    tx = static_cast<std::size_t>(std::clamp<long long>(
        std::llround(wx / wsum), 1, static_cast<long long>(nx)));
    ty = static_cast<std::size_t>(std::clamp<long long>(
        std::llround(wy / wsum), 1, static_cast<long long>(ny)));
    return true;
  }

  /// Median of the bounding edges of the connected nets (VPR's "median
  /// region" generator): robust to one far-away net dragging the target.
  bool median_target(std::size_t a, std::size_t& tx, std::size_t& ty) const {
    const auto ns = model.nets_of(a);
    if (ns.empty()) return false;
    std::vector<std::uint32_t> xs, ys;
    xs.reserve(2 * ns.size());
    ys.reserve(2 * ns.size());
    for (std::size_t n : ns) {
      const NetCostModel::Box& b = model.box(n);
      xs.push_back(b.x_lo);
      xs.push_back(b.x_hi);
      ys.push_back(b.y_lo);
      ys.push_back(b.y_hi);
    }
    const std::size_t mid = xs.size() / 2;
    std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                     xs.end());
    std::nth_element(ys.begin(), ys.begin() + static_cast<std::ptrdiff_t>(mid),
                     ys.end());
    tx = std::clamp<std::size_t>(xs[mid], 1, nx);
    ty = std::clamp<std::size_t>(ys[mid], 1, ny);
    return true;
  }

  /// Draw one move from `r` against the current (frozen, in batch mode)
  /// placement state. Reproduces the seed draw sequence exactly when
  /// allow_directed is false: block, then destination coordinates/site.
  void gen_move(Rng& r, double range, bool allow_directed, Proposal& p) const {
    p.valid = false;
    p.b = kEmpty;
    p.gen = pick_generator(r, allow_directed);
    p.a = pick_block(r, allow_directed);
    p.is_logic = pack.blocks[p.a].type == PackedType::kLogic;
    p.src = locs[p.a];
    if (p.is_logic) {
      std::size_t tx = 0, ty = 0;
      bool directed = false;
      if (p.gen == 1) directed = centroid_target(p.a, tx, ty);
      else if (p.gen == 2) directed = median_target(p.a, tx, ty);
      if (directed) {
        // Land within +-1 of the target so the generator explores the
        // neighbourhood instead of hammering one cell.
        const long long jx = static_cast<long long>(r.uniform_int(3)) - 1;
        const long long jy = static_cast<long long>(r.uniform_int(3)) - 1;
        p.dest.x = static_cast<std::size_t>(std::clamp<long long>(
            static_cast<long long>(tx) + jx, 1, static_cast<long long>(nx)));
        p.dest.y = static_cast<std::size_t>(std::clamp<long long>(
            static_cast<long long>(ty) + jy, 1, static_cast<long long>(ny)));
      } else {
        const auto rr = static_cast<std::size_t>(std::max(1.0, range));
        const auto pick_coord = [&](std::size_t cur, std::size_t limit) {
          const std::size_t lo = cur > rr ? cur - rr : 1;
          const std::size_t hi = std::min(limit, cur + rr);
          return lo + r.uniform_int(hi - lo + 1);
        };
        p.dest.x = pick_coord(p.src.x, nx);
        p.dest.y = pick_coord(p.src.y, ny);
      }
      p.dest.sub = 0;
      if (p.dest.x == p.src.x && p.dest.y == p.src.y) return;
      p.b = logic_at[(p.dest.x - 1) + (p.dest.y - 1) * nx];
    } else {
      const std::size_t site = r.uniform_int(io_sites.size());
      p.dest.x = io_sites[site].first;
      p.dest.y = io_sites[site].second;
      p.dest.sub = r.uniform_int(arch.io_per_pad);
      if (p.dest.x == p.src.x && p.dest.y == p.src.y &&
          p.dest.sub == p.src.sub) {
        return;
      }
      p.b = io_at[site][p.dest.sub];
    }
    if (p.b == p.a) {
      p.b = kEmpty;
      return;
    }
    // Only swap like-with-like (logic vs IO slots are inherently disjoint).
    p.valid = true;
  }

  // ---- serial discipline ------------------------------------------------

  /// One proposed move; returns true if accepted. With allow_directed
  /// false this is draw-for-draw and bit-for-bit the seed annealer's
  /// try_move, except that a rejected move discards the pending
  /// evaluation instead of mutating and recomputing back.
  bool try_move(double t, double range = 1e9, bool allow_directed = false) {
    ++counters.proposed;
    gen_move(rng, range, allow_directed, scratch);
    if (opt.directed_moves) {
      ++gen_tried[static_cast<std::size_t>(scratch.gen)];
      if (scratch.gen != 0) ++counters.directed;
    }
    if (!scratch.valid) return false;
    if (opt.naive_cost) {
      // Baseline kernel: evaluate through the non-mutating propose path
      // (full rescans, pending record, discard-and-recompute on reject)
      // so the bench can price the speculative-evaluation machinery the
      // batch mode runs on.
      scratch.pending.clear();
      const double delta = model.propose_naive(
          locs, scratch.a, scratch.dest, scratch.b, scratch.src,
          scratch.pending);
      counters.rescans += scratch.pending.rescans;
      const bool accept = delta <= 0.0 || rng.uniform() < std::exp(-delta / t);
      if (accept) {
        model.commit(scratch.pending);
        apply_move(scratch.a, scratch.b, scratch.src, scratch.dest,
                   scratch.is_logic);
        ++counters.accepted;
        if (opt.directed_moves) {
          ++gen_acc[static_cast<std::size_t>(scratch.gen)];
        }
        return true;
      }
      // The seed annealer mutated first and recomputed every touched net
      // again to undo a reject; charge the baseline the same second scan.
      discard.clear();
      model.propose_naive(locs, scratch.a, scratch.dest, scratch.b,
                          scratch.src, discard);
      counters.rescans += discard.rescans;
      return false;
    }
    // Serial fast path: mutate with an undo log. The evaluation is the
    // seed annealer's do_swap discipline (in-place rescans, no merge
    // walk), but where the seed paid a full second rescan to reverse a
    // rejected move, the undo log restores the displaced boxes
    // bit-for-bit with plain copies. The non-mutating propose/commit
    // pair remains the engine of the speculative batch mode, which
    // cannot mutate the frozen state it evaluates against.
    scratch.pending.clear();
    const double delta = model.apply_swap(locs, scratch.a, scratch.dest,
                                          scratch.b, scratch.pending);
    const bool accept = delta <= 0.0 || rng.uniform() < std::exp(-delta / t);
    if (accept) {
      model.book_delta(delta);
      commit_occupancy(scratch.a, scratch.b, scratch.src, scratch.dest,
                       scratch.is_logic);
      ++counters.accepted;
      if (opt.directed_moves) ++gen_acc[static_cast<std::size_t>(scratch.gen)];
      return true;
    }
    model.undo_swap(locs, scratch.a, scratch.src, scratch.b, scratch.dest,
                    scratch.pending);
    return false;
  }

  // ---- deterministic parallel batches -----------------------------------

  void init_batch_state() {
    net_epoch.assign(nets.size(), 0);
    block_epoch.assign(pack.blocks.size(), 0);
    slot_epoch.assign((nx + 2) * (ny + 2) * (arch.io_per_pad + 1), 0);
    batch.resize(opt.batch_moves);
  }

  std::size_t occupant(const Proposal& p) const {
    if (p.is_logic) return logic_at[(p.dest.x - 1) + (p.dest.y - 1) * nx];
    const std::size_t site = io_site_index[site_key(p.dest.x, p.dest.y)];
    return io_at[site][p.dest.sub];
  }

  /// Block-or-slot staleness: an earlier commit moved one of the blocks
  /// or retargeted one of the slots this proposal resolved against the
  /// frozen state. The move itself is no longer the move that was drawn
  /// — it must be fully re-resolved and re-evaluated.
  bool hard_stale(const Proposal& p) const {
    return block_epoch[p.a] == epoch ||
           (p.b != kEmpty && block_epoch[p.b] == epoch) ||
           slot_epoch[slot_stamp_key(p.src)] == epoch ||
           slot_epoch[slot_stamp_key(p.dest)] == epoch;
  }

  /// Net-only staleness: the move is still exactly the drawn move (both
  /// blocks and slots untouched), but an earlier commit moved a pin of
  /// some net this proposal also touches, so part of its frozen cost
  /// evaluation is invalid. Repairable per net — no full re-evaluation.
  bool nets_stale(const Proposal& p) const {
    for (std::size_t n : model.nets_of(p.a)) {
      if (net_epoch[n] == epoch) return true;
    }
    if (p.b != kEmpty) {
      for (std::size_t n : model.nets_of(p.b)) {
        if (net_epoch[n] == epoch) return true;
      }
    }
    return false;
  }

  void stamp(const Proposal& p) {
    block_epoch[p.a] = epoch;
    if (p.b != kEmpty) block_epoch[p.b] = epoch;
    slot_epoch[slot_stamp_key(p.src)] = epoch;
    slot_epoch[slot_stamp_key(p.dest)] = epoch;
    // Every touched net is stamped, not just those whose box changed: a
    // frozen evaluation elsewhere may have derived its entry from a full
    // rescan, which reads every pin position of the net — so any pin
    // move at all invalidates reuse of that entry, box change or not.
    for (std::size_t n : model.nets_of(p.a)) net_epoch[n] = epoch;
    if (p.b != kEmpty) {
      for (std::size_t n : model.nets_of(p.b)) net_epoch[n] = epoch;
    }
  }

  /// Repair a net-only-stale proposal in place: walk the canonical
  /// touched-net order with a cursor into the frozen pending entries
  /// (they were produced in that same order). Entries of epoch-clean
  /// nets are reused as-is — no pin of such a net moved this batch, so
  /// the frozen evaluation is still exact — and only the epoch-stamped
  /// nets are rescanned against the live state. Serial (commit loop)
  /// only; deterministic because it depends only on slot order.
  void repair(Proposal& p) {
    repaired.clear();
    const std::vector<NetCostModel::PendingNet>& pend = p.pending.nets;
    std::size_t cursor = 0;
    model.for_each_touched(p.a, p.b, [&](std::size_t n, bool, bool) {
      const bool has_entry = cursor < pend.size() && pend[cursor].net == n;
      if (net_epoch[n] != epoch) {
        if (has_entry) {
          repaired.delta += pend[cursor].box.cost - model.box(n).cost;
          repaired.nets.push_back(pend[cursor]);
        }
      } else {
        NetCostModel::Box nb =
            model.rescan_net(n, locs, p.a, p.dest, p.b, p.src);
        ++repaired.rescans;
        repaired.delta += nb.cost - model.box(n).cost;
        repaired.nets.push_back({n, nb});
      }
      if (has_entry) ++cursor;
    });
    p.pending.nets.swap(repaired.nets);
    p.pending.delta = repaired.delta;  // commit() applies pending.delta
    p.pending.rescans += repaired.rescans;
    p.delta = repaired.delta;
    counters.rescans += repaired.rescans;
  }

  /// Generate + evaluate `count` speculative moves in parallel against
  /// the frozen state, then commit serially in slot order. One next_u64
  /// on the main stream is the fork base; slot i derives its own stream,
  /// so the outcome depends only on the batch structure — never on the
  /// thread count. Returns the number of accepted moves.
  std::size_t run_batch(double t, double range, std::size_t count) {
    const std::uint64_t base = rng.next_u64();
    const bool allow_directed = opt.directed_moves;
    parallel_for(count, [&](std::size_t i) {
      Rng r = Rng::from_stream(base, i);
      Proposal& p = batch[i];
      p.pending.clear();
      gen_move(r, range, allow_directed, p);
      p.u = r.uniform();  // pre-drawn: replay must not reorder draws
      if (p.valid) {
        p.delta = model.propose(locs, p.a, p.dest, p.b, p.src, p.pending);
      }
    });
    ++counters.batches;
    ++epoch;
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < count; ++i) {
      Proposal& p = batch[i];
      ++counters.proposed;
      if (opt.directed_moves) {
        ++gen_tried[static_cast<std::size_t>(p.gen)];
        if (p.gen != 0) ++counters.directed;
      }
      if (!p.valid) continue;
      counters.rescans += p.pending.rescans;
      if (hard_stale(p)) {
        // An earlier commit in this batch moved one of the blocks or
        // retargeted one of the slots this proposal read frozen: the
        // drawn move itself is stale. Re-resolve and re-evaluate
        // serially against the live state, keeping the slot's pre-drawn
        // uniform.
        ++counters.conflicts;
        p.src = locs[p.a];
        if (p.is_logic) {
          if (p.dest.x == p.src.x && p.dest.y == p.src.y) continue;
        } else if (p.dest.x == p.src.x && p.dest.y == p.src.y &&
                   p.dest.sub == p.src.sub) {
          continue;
        }
        p.b = occupant(p);
        if (p.b == p.a) continue;
        p.pending.clear();
        p.delta = model.propose(locs, p.a, p.dest, p.b, p.src, p.pending);
        counters.rescans += p.pending.rescans;
        ++counters.replays;
      } else if (nets_stale(p)) {
        // The move is intact but an earlier commit moved pins of nets it
        // touches: patch only those nets' evaluations.
        ++counters.conflicts;
        repair(p);
        ++counters.repairs;
      }
      const bool accept = p.delta <= 0.0 || p.u < std::exp(-p.delta / t);
      if (!accept) continue;
      model.commit(p.pending);
      apply_move(p.a, p.b, p.src, p.dest, p.is_logic);
      stamp(p);
      ++accepted;
      ++counters.accepted;
      if (opt.directed_moves) ++gen_acc[static_cast<std::size_t>(p.gen)];
    }
    return accepted;
  }

  // ---- schedule ---------------------------------------------------------

  std::size_t sweep(double t, double range, std::size_t moves) {
    std::size_t accepted = 0;
    if (opt.batch_moves >= 2) {
      std::size_t done = 0;
      while (done < moves) {
        const std::size_t n = std::min(opt.batch_moves, moves - done);
        accepted += run_batch(t, range, n);
        done += n;
      }
    } else {
      for (std::size_t m = 0; m < moves; ++m) {
        accepted += try_move(t, range, opt.directed_moves);
      }
    }
    return accepted;
  }

  /// Re-balance the generator probabilities toward whichever generator
  /// is currently earning acceptances, with a floor so none starves.
  void update_gen_weights() {
    std::array<double, 3> w{};
    double sum = 0.0;
    for (std::size_t g = 0; g < 3; ++g) {
      const double rate = gen_tried[g]
                              ? static_cast<double>(gen_acc[g]) /
                                    static_cast<double>(gen_tried[g])
                              : 0.5;
      w[g] = 0.1 + rate;
      sum += w[g];
      gen_tried[g] = 0;
      gen_acc[g] = 0;
    }
    for (std::size_t g = 0; g < 3; ++g) gen_weight[g] = w[g] / sum;
  }

  void anneal(double t_start) {
    const std::size_t n_blocks = pack.blocks.size();
    const auto moves_per_t = static_cast<std::size_t>(
        std::max(1.0, opt.inner_num *
                          std::pow(static_cast<double>(n_blocks), 4.0 / 3.0)));
    double t = t_start;
    double range = static_cast<double>(std::max(nx, ny));
    const double exit_t =
        0.005 * model.total_cost() /
        static_cast<double>(std::max<std::size_t>(nets.size(), 1));
    while (t > exit_t) {
      const std::size_t accepted = sweep(t, range, moves_per_t);
      const double rate =
          static_cast<double>(accepted) / static_cast<double>(moves_per_t);
      // VPR's adaptive schedule.
      double alpha;
      if (rate > 0.96) alpha = 0.5;
      else if (rate > 0.8) alpha = 0.9;
      else if (rate > 0.15) alpha = 0.95;
      else alpha = 0.8;
      t *= alpha;
      // Shrink the move window toward the sweet-spot 44% acceptance.
      range *= 1.0 - 0.44 + rate;
      range = std::clamp(range, 1.0, static_cast<double>(std::max(nx, ny)));
      if (opt.directed_moves) update_gen_weights();
    }
  }

  /// Initial temperature: 20x the std-dev of random-move deltas [Betz 99].
  /// Always probes with the serial uniform discipline, so it is both
  /// seed-identical in the default configuration and thread-count
  /// independent in every other one.
  double probe_temperature() {
    const std::size_t n_blocks = pack.blocks.size();
    double sum = 0.0, sum2 = 0.0;
    const std::size_t probes = std::min<std::size_t>(n_blocks, 200);
    for (std::size_t i = 0; i < probes; ++i) {
      const double before = model.total_cost();
      try_move(1e30);  // always accept
      const double d = model.total_cost() - before;
      sum += d;
      sum2 += d * d;
    }
    const double mean = sum / static_cast<double>(probes);
    const double var = sum2 / static_cast<double>(probes) - mean * mean;
    return 20.0 * std::sqrt(std::max(var, 1e-12));
  }

  void run(const Netlist& nl) {
    initial_place();
    model.rebuild(locs);
    if (nets.empty()) return;
    if (opt.batch_moves >= 2) init_batch_state();
    const double t_start = probe_temperature();
    // The serial probe above ran count-free apply_swap scans; batch-mode
    // move_dim needs the edge counts back before the first batch.
    if (opt.batch_moves >= 2) model.refresh_counts(locs);
    anneal(t_start);

    if (opt.timing_driven) {
      // Criticality-weighted refinement: nets on (estimated) critical
      // paths pull harder in a second anneal at medium temperature. The
      // estimate is the shared utility the incremental STA also seeds
      // from, keeping placement and routing on one criticality notion.
      const auto crit = placement_net_criticality(nl, nets, locs);
      std::vector<double> w(nets.size(), 1.0);
      for (std::size_t n = 0; n < nets.size(); ++n) {
        w[n] = 1.0 + opt.timing_weight * crit[n] * crit[n];
      }
      model.set_weights(std::move(w));
      model.rebuild(locs);  // re-evaluate boxes under the new weights
      timing_phase = true;
      if (opt.directed_moves) {
        for (std::size_t n = 0; n < nets.size(); ++n) {
          if (crit[n] < 0.8) continue;
          crit_blocks.push_back(nets[n].driver);
          for (std::size_t s : nets[n].sinks) crit_blocks.push_back(s);
        }
        std::sort(crit_blocks.begin(), crit_blocks.end());
        crit_blocks.erase(
            std::unique(crit_blocks.begin(), crit_blocks.end()),
            crit_blocks.end());
      }
      const double exit_t =
          0.005 * model.total_cost() /
          static_cast<double>(std::max<std::size_t>(nets.size(), 1));
      anneal(50.0 * exit_t);
    }
  }
};

}  // namespace

std::optional<PlacedNet> make_placed_net(const Netlist& nl, const Packing& p,
                                         NetId n) {
  if (p.net_absorbed[n]) return std::nullopt;
  const Net& net = nl.net(n);
  PlacedNet pn;
  pn.net = n;
  pn.driver = p.block_owner[net.driver];
  std::unordered_set<std::size_t> sink_blocks;
  for (BlockId s : net.sinks) {
    const std::size_t owner = p.block_owner[s];
    if (owner != pn.driver) sink_blocks.insert(owner);
  }
  if (sink_blocks.empty()) return std::nullopt;  // fully local (or dangling)
  pn.sinks.assign(sink_blocks.begin(), sink_blocks.end());
  std::sort(pn.sinks.begin(), pn.sinks.end());
  return pn;
}

std::vector<PlacedNet> extract_placed_nets(const Netlist& nl,
                                           const Packing& p) {
  std::vector<PlacedNet> nets;
  for (NetId n = 0; n < nl.net_count(); ++n) {
    if (auto pn = make_placed_net(nl, p, n)) nets.push_back(std::move(*pn));
  }
  return nets;
}

std::vector<double> placement_net_criticality(
    const Netlist& nl, const std::vector<PlacedNet>& nets,
    const std::vector<BlockLoc>& locs) {
  std::vector<std::size_t> net_to_placed(nl.net_count(), kInvalidId);
  for (std::size_t n = 0; n < nets.size(); ++n) {
    net_to_placed[nets[n].net] = n;
  }
  // A net's delay proxy is its bounding-box semiperimeter (absorbed nets
  // cost a fixed local-feedback fraction).
  auto net_delay = [&](NetId n) {
    const std::size_t idx = net_to_placed[n];
    if (idx == kInvalidId) return 0.3;  // local feedback
    const PlacedNet& pn = nets[idx];
    std::size_t x_lo = locs[pn.driver].x, x_hi = x_lo;
    std::size_t y_lo = locs[pn.driver].y, y_hi = y_lo;
    for (std::size_t s : pn.sinks) {
      x_lo = std::min(x_lo, locs[s].x);
      x_hi = std::max(x_hi, locs[s].x);
      y_lo = std::min(y_lo, locs[s].y);
      y_hi = std::max(y_hi, locs[s].y);
    }
    return 1.0 + static_cast<double>((x_hi - x_lo) + (y_hi - y_lo));
  };

  // Forward arrival over LUTs (latches/PIs are start points, delay 1 per
  // LUT level).
  std::vector<double> arrival(nl.block_count(), 0.0);
  std::vector<std::size_t> pending(nl.block_count(), 0);
  std::vector<BlockId> ready;
  for (BlockId b = 0; b < nl.block_count(); ++b) {
    const Block& blk = nl.block(b);
    if (blk.type == BlockType::kLut) {
      std::size_t comb = 0;
      for (NetId n : blk.inputs) {
        if (nl.block(nl.net(n).driver).type == BlockType::kLut) ++comb;
      }
      pending[b] = comb;
      if (comb == 0) ready.push_back(b);
    }
  }
  std::vector<BlockId> topo;
  while (!ready.empty()) {
    const BlockId b = ready.back();
    ready.pop_back();
    topo.push_back(b);
    const Block& blk = nl.block(b);
    double arr = 0.0;
    for (NetId n : blk.inputs) {
      arr = std::max(arr, arrival[nl.net(n).driver] + net_delay(n));
    }
    arrival[b] = arr + 1.0;
    for (BlockId sk : nl.net(blk.output).sinks) {
      if (nl.block(sk).type == BlockType::kLut && pending[sk] > 0) {
        if (--pending[sk] == 0) ready.push_back(sk);
      }
    }
  }
  // LUTs still pending were never drained: they sit on a combinational
  // cycle the topological pass cannot order, so their arrival times are
  // meaningless (stuck at 0). Flag them and treat every net touching one
  // as fully critical (zero slack) instead of silently under-weighting.
  std::vector<char> in_cycle(nl.block_count(), 0);
  std::size_t n_cyclic = 0;
  for (BlockId b = 0; b < nl.block_count(); ++b) {
    if (nl.block(b).type == BlockType::kLut && pending[b] > 0) {
      in_cycle[b] = 1;
      ++n_cyclic;
    }
  }
  if (n_cyclic > 0) {
    std::fprintf(stderr,
                 "placement_net_criticality: %zu LUT(s) on combinational "
                 "cycles have no topological arrival time; nets touching "
                 "them fall back to zero-slack (fully critical) shaping\n",
                 n_cyclic);
  }
  double d_max = 1.0;
  for (BlockId b = 0; b < nl.block_count(); ++b) {
    const Block& blk = nl.block(b);
    if (blk.type == BlockType::kLatch || blk.type == BlockType::kOutput) {
      for (NetId n : blk.inputs) {
        d_max = std::max(d_max, arrival[nl.net(n).driver] + net_delay(n));
      }
    }
  }
  // Backward required times over the reverse topological order.
  std::vector<double> required(nl.block_count(), d_max);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const BlockId b = *it;
    const Block& blk = nl.block(b);
    double req = d_max;
    for (BlockId sk : nl.net(blk.output).sinks) {
      const Block& sb = nl.block(sk);
      const double d = net_delay(blk.output);
      if (sb.type == BlockType::kLut) {
        req = std::min(req, required[sk] - 1.0 - d);
      } else {
        req = std::min(req, d_max - d);
      }
    }
    required[b] = req;
  }
  // Criticality per placed net from the tightest sink's slack.
  std::vector<double> crit(nets.size(), 0.0);
  for (std::size_t n = 0; n < nets.size(); ++n) {
    const NetId net_id = nets[n].net;
    const BlockId drv = nl.net(net_id).driver;
    bool cyclic = nl.block(drv).type == BlockType::kLut && in_cycle[drv];
    const double arr = arrival[drv];
    double worst_req = d_max;
    for (BlockId sk : nl.net(net_id).sinks) {
      if (nl.block(sk).type == BlockType::kLut) {
        worst_req = std::min(worst_req, required[sk] - 1.0);
        if (in_cycle[sk]) cyclic = true;
      }
    }
    if (cyclic) {
      crit[n] = criticality_from_slack(0.0, d_max);
      continue;
    }
    const double slack = worst_req - arr - net_delay(net_id);
    crit[n] = criticality_from_slack(slack, d_max);
  }
  return crit;
}

Placement place(const Netlist& nl, const Packing& p, const ArchParams& arch,
                std::size_t nx, std::size_t ny, const PlaceOptions& opt) {
  Annealer an(p, arch, nx, ny, opt, extract_placed_nets(nl, p));
  an.run(nl);

  Placement out;
  out.nx = nx;
  out.ny = ny;
  out.locs = std::move(an.locs);
  out.final_weighted_cost = an.model.total_cost();
  // The timing-driven anneal minimizes the weighted cost; report the
  // unweighted bounding-box cost separately so final_cost always matches
  // placement_cost()'s definition.
  out.final_cost = opt.timing_driven ? an.model.unweighted_cost()
                                     : an.model.total_cost();
  out.counters = an.counters;
  out.nets = std::move(an.nets);
  return out;
}

double placement_cost(const Placement& pl) {
  double cost = 0.0;
  for (const auto& n : pl.nets) {
    std::size_t x_lo = pl.locs[n.driver].x, x_hi = x_lo;
    std::size_t y_lo = pl.locs[n.driver].y, y_hi = y_lo;
    for (std::size_t s : n.sinks) {
      x_lo = std::min(x_lo, pl.locs[s].x);
      x_hi = std::max(x_hi, pl.locs[s].x);
      y_lo = std::min(y_lo, pl.locs[s].y);
      y_hi = std::max(y_hi, pl.locs[s].y);
    }
    cost += q_factor(n.sinks.size() + 1) *
            (static_cast<double>(x_hi - x_lo) + static_cast<double>(y_hi - y_lo));
  }
  return cost;
}

void check_placement(const Packing& p, const ArchParams& arch,
                     const Placement& pl) {
  if (pl.locs.size() != p.blocks.size()) {
    throw std::logic_error("check_placement: loc count mismatch");
  }
  std::unordered_set<std::size_t> used;
  for (std::size_t b = 0; b < p.blocks.size(); ++b) {
    const BlockLoc& l = pl.locs[b];
    const bool is_logic = p.blocks[b].type == PackedType::kLogic;
    const bool in_core = l.x >= 1 && l.x <= pl.nx && l.y >= 1 && l.y <= pl.ny;
    const bool border_x = (l.x == 0 || l.x == pl.nx + 1);
    const bool border_y = (l.y == 0 || l.y == pl.ny + 1);
    const bool on_border = border_x != border_y;
    if (is_logic) {
      if (!in_core) throw std::logic_error("logic block off-grid");
      if (l.sub != 0) throw std::logic_error("logic block sub-slot");
    } else {
      if (!on_border) throw std::logic_error("IO block not on border");
      if (l.sub >= arch.io_per_pad) throw std::logic_error("IO sub overflow");
    }
    const std::size_t key =
        (l.y * (pl.nx + 2) + l.x) * (arch.io_per_pad + 1) + l.sub;
    if (!used.insert(key).second) {
      throw std::logic_error("check_placement: overlapping blocks");
    }
  }
}

}  // namespace nemfpga
