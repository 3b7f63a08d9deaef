#include "flow/eco.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "service/flow_artifacts.hpp"
#include "util/rng.hpp"
#include "verify/check.hpp"

namespace nemfpga {
namespace {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool placed_net_equal(const PlacedNet& a, const PlacedNet& b) {
  return a.net == b.net && a.driver == b.driver && a.sinks == b.sinks;
}

}  // namespace

RrGraphView EcoFlow::graph() const {
  return ig_ ? RrGraphView(*ig_) : RrGraphView(*eg_);
}

EcoFlow::EcoFlow(Netlist netlist, const EcoOptions& opt)
    : nl_(std::move(netlist)), opt_(opt) {
  nl_.validate();
  pk_ = pack_netlist(nl_, opt_.arch);
  if (verify::checks_enabled()) check_packing(nl_, opt_.arch, pk_);
  const auto [nx, ny] =
      grid_size_for(opt_.arch, pk_.clusters.size(), pk_.io_block_count());
  nx_ = nx;
  ny_ = ny;
  // Placement and the session artifacts (RR graph, lookahead, delay
  // model), overlapped when the pool has threads to spare. The
  // artifacts come from the shared content-addressed cache when one is
  // given — many sessions on one fabric then share a single immutable
  // copy of each.
  PlacedArtifacts pa =
      place_with_artifacts(nl_, pk_, opt_.arch, nx_, ny_, opt_.place,
                           opt_.artifact_cache, opt_.route,
                           opt_.timing_backend);
  pl_ = std::move(pa.placement);
  if (verify::checks_enabled()) check_placement(pk_, opt_.arch, pl_);
  const FlowArtifacts& art = pa.artifacts;
  eg_ = art.rr;
  ig_ = art.irr;
  dmodel_ = art.delay_model;
  eview_ = make_view(opt_.arch, opt_.timing_backend);

  // Frozen packing geometry: membership never changes under ECO, only
  // the derived net sets do.
  block_ble_.assign(nl_.block_count(), kInvalidId);
  for (std::size_t i = 0; i < pk_.bles.size(); ++i) {
    if (pk_.bles[i].lut != kInvalidId) block_ble_[pk_.bles[i].lut] = i;
    if (pk_.bles[i].latch != kInvalidId) block_ble_[pk_.bles[i].latch] = i;
  }
  ble_cluster_.assign(pk_.bles.size(), kInvalidId);
  for (std::size_t c = 0; c < pk_.clusters.size(); ++c) {
    for (std::size_t idx : pk_.clusters[c].bles) ble_cluster_[idx] = c;
  }
  ble_internal_net_.assign(nl_.net_count(), 0);
  for (const Ble& ble : pk_.bles) {
    if (ble.absorbed != kInvalidId) ble_internal_net_[ble.absorbed] = 1;
  }

  // Session-shared lookahead (delay-annotated when timing-driven) and the
  // base route with a fresh incremental-STA hook — run_flow's wiring,
  // except an unroutable base is recorded instead of thrown: the session
  // stays alive and apply() reports kUnroutable until the design fits.
  const RrGraphView gv = graph();
  RouteOptions ropt = opt_.route;
  std::unique_ptr<RouterTimingHook> hook;
  if (ropt.timing_driven) {
    hook = make_incremental_sta(nl_, pk_, pl_, gv, eview_,
                                ropt.criticality_exp, ropt.max_criticality,
                                dmodel_);
    ropt.timing_hook = hook.get();
  }
  if (art.lookahead) {
    lookahead_ = art.lookahead;
    ropt.lookahead = lookahead_;
    ropt.lookahead_build_s = art.lookahead_build_s;
    ropt.lookahead_from_cache = art.lookahead_from_cache;
  } else {
    lookahead_ = ropt.lookahead;
  }
  routing_ = route_all(gv, pl_, ropt);

  sink_delays_.assign(pl_.nets.size(), {});
  if (routing_.success) {
    refresh_sink_delays();
    cp_ = propagate_cp();
    had_cp_ = true;
  }
}

EcoFlow::~EcoFlow() = default;

std::size_t EcoFlow::site_key(const BlockLoc& l) const {
  return (l.y * (nx_ + 2) + l.x) * (opt_.arch.io_per_pad + 1) + l.sub;
}

void EcoFlow::build_site_occupancy() {
  site_occ_.assign((nx_ + 2) * (ny_ + 2) * (opt_.arch.io_per_pad + 1),
                   kInvalidId);
  for (std::size_t b = 0; b < pl_.locs.size(); ++b) {
    site_occ_[site_key(pl_.locs[b])] = b;
  }
}

bool EcoFlow::apply_ops(const NetlistDelta& delta, std::string& reason) {
  // Site legality mirrors check_placement: logic in the core with sub 0,
  // IO on a non-corner border site within the pad capacity.
  const auto site_ok = [&](bool logic, const BlockLoc& l) {
    if (l.x > nx_ + 1 || l.y > ny_ + 1) return false;
    if (logic) {
      return l.x >= 1 && l.x <= nx_ && l.y >= 1 && l.y <= ny_ && l.sub == 0;
    }
    const bool bx = l.x == 0 || l.x == nx_ + 1;
    const bool by = l.y == 0 || l.y == ny_ + 1;
    return bx != by && l.sub < opt_.arch.io_per_pad;
  };

  for (const EcoOp& op : delta.ops) {
    switch (op.kind) {
      case EcoOpKind::kConnect: {
        if (op.block >= nl_.block_count() ||
            nl_.block(op.block).type != BlockType::kLut) {
          reason = op.describe() + ": connect target is not a LUT";
          return false;
        }
        if (op.net >= nl_.net_count()) {
          reason = op.describe() + ": unknown net";
          return false;
        }
        if (nl_.block(op.block).inputs.size() >= opt_.arch.K) {
          reason = op.describe() + ": LUT already has K inputs";
          return false;
        }
        if (ble_internal_net_[op.net]) {
          reason = op.describe() + ": net is fused inside a LUT+FF BLE";
          return false;
        }
        nl_.connect_input(op.block, op.net);
        touched_blocks_.push_back(op.block);
        touched_nets_.push_back(op.net);
        break;
      }
      case EcoOpKind::kDisconnect: {
        if (op.block >= nl_.block_count() ||
            nl_.block(op.block).type != BlockType::kLut) {
          reason = op.describe() + ": disconnect target is not a LUT";
          return false;
        }
        const Block& blk = nl_.block(op.block);
        if (op.pin >= blk.inputs.size()) {
          reason = op.describe() + ": pin out of range";
          return false;
        }
        if (blk.inputs.size() < 2) {
          reason = op.describe() + ": a LUT keeps at least one input";
          return false;
        }
        touched_nets_.push_back(blk.inputs[op.pin]);
        nl_.disconnect_input(op.block, op.pin);
        touched_blocks_.push_back(op.block);
        break;
      }
      case EcoOpKind::kRetarget: {
        if (op.block >= nl_.block_count()) {
          reason = op.describe() + ": unknown block";
          return false;
        }
        if (op.net >= nl_.net_count()) {
          reason = op.describe() + ": unknown net";
          return false;
        }
        const Block& blk = nl_.block(op.block);
        if (blk.type == BlockType::kInput) {
          reason = op.describe() + ": primary inputs have no input pins";
          return false;
        }
        if (blk.type == BlockType::kLatch &&
            pk_.bles[block_ble_[op.block]].lut != kInvalidId) {
          reason = op.describe() + ": D input of a fused LUT+FF BLE";
          return false;
        }
        if (op.pin >= blk.inputs.size()) {
          reason = op.describe() + ": pin out of range";
          return false;
        }
        if (ble_internal_net_[op.net]) {
          reason = op.describe() + ": net is fused inside a LUT+FF BLE";
          return false;
        }
        const NetId old = blk.inputs[op.pin];
        if (old == op.net) break;
        nl_.retarget_input(op.block, op.pin, op.net);
        if (blk.type != BlockType::kOutput) {
          touched_blocks_.push_back(op.block);
        }
        touched_nets_.push_back(old);
        touched_nets_.push_back(op.net);
        break;
      }
      case EcoOpKind::kMoveBlock: {
        if (op.packed_a >= pk_.blocks.size()) {
          reason = op.describe() + ": unknown packed block";
          return false;
        }
        const bool logic = op.packed_a < pk_.clusters.size();
        const BlockLoc dest{op.dest_x, op.dest_y, op.dest_sub};
        if (!site_ok(logic, dest)) {
          reason = op.describe() + ": illegal site for the block type";
          return false;
        }
        const std::size_t key = site_key(dest);
        if (site_occ_[key] == op.packed_a) break;
        if (site_occ_[key] != kInvalidId) {
          reason = op.describe() + ": target site occupied";
          return false;
        }
        site_occ_[site_key(pl_.locs[op.packed_a])] = kInvalidId;
        site_occ_[key] = op.packed_a;
        pl_.locs[op.packed_a] = dest;
        moved_blocks_.push_back(op.packed_a);
        break;
      }
      case EcoOpKind::kSwapBlocks: {
        if (op.packed_a >= pk_.blocks.size() ||
            op.packed_b >= pk_.blocks.size()) {
          reason = op.describe() + ": unknown packed block";
          return false;
        }
        if (op.packed_a == op.packed_b) break;
        if ((op.packed_a < pk_.clusters.size()) !=
            (op.packed_b < pk_.clusters.size())) {
          reason = op.describe() + ": swap across logic/IO categories";
          return false;
        }
        std::swap(pl_.locs[op.packed_a], pl_.locs[op.packed_b]);
        site_occ_[site_key(pl_.locs[op.packed_a])] = op.packed_a;
        site_occ_[site_key(pl_.locs[op.packed_b])] = op.packed_b;
        moved_blocks_.push_back(op.packed_a);
        moved_blocks_.push_back(op.packed_b);
        break;
      }
    }
  }
  return true;
}

bool EcoFlow::refresh_packing(std::string& reason) {
  // Recompute BLE input lists for the edited blocks, then the input-net
  // sets of their clusters, under pack_netlist's exact derivation rules;
  // reject (restoring the saved fields) when a cluster would exceed the
  // input cap I. touched_blocks_ is deduplicated by the caller.
  struct SavedBle {
    std::size_t idx;
    std::vector<NetId> inputs;
  };
  struct SavedCl {
    std::size_t idx;
    std::vector<NetId> input_nets;
  };
  std::vector<SavedBle> saved_bles;
  std::vector<SavedCl> saved_cls;
  std::vector<std::size_t> clusters;
  for (BlockId b : touched_blocks_) {
    const std::size_t e = block_ble_[b];
    if (e == kInvalidId) continue;
    Ble& ble = pk_.bles[e];
    saved_bles.push_back({e, ble.inputs});
    // A paired BLE's input list is its LUT's (the latch D is the fused
    // net, which op validation keeps internal); a lone latch's is its D.
    const BlockId src = ble.lut != kInvalidId ? ble.lut : ble.latch;
    ble.inputs = nl_.block(src).inputs;
    clusters.push_back(ble_cluster_[e]);
  }
  std::sort(clusters.begin(), clusters.end());
  clusters.erase(std::unique(clusters.begin(), clusters.end()),
                 clusters.end());
  for (std::size_t c : clusters) {
    Cluster& cl = pk_.clusters[c];
    saved_cls.push_back({c, cl.input_nets});
    std::unordered_set<NetId> outputs;
    std::unordered_set<NetId> inputs;
    for (std::size_t idx : cl.bles) outputs.insert(pk_.bles[idx].output);
    for (std::size_t idx : cl.bles) {
      for (NetId n : pk_.bles[idx].inputs) {
        if (!outputs.contains(n)) inputs.insert(n);
      }
    }
    cl.input_nets.assign(inputs.begin(), inputs.end());
    std::sort(cl.input_nets.begin(), cl.input_nets.end());
    if (cl.input_nets.size() > opt_.arch.lb_inputs()) {
      reason = "cluster " + std::to_string(c) + " would need " +
               std::to_string(cl.input_nets.size()) + " inputs (cap " +
               std::to_string(opt_.arch.lb_inputs()) + ")";
      for (auto it = saved_cls.rbegin(); it != saved_cls.rend(); ++it) {
        pk_.clusters[it->idx].input_nets = std::move(it->input_nets);
      }
      for (auto it = saved_bles.rbegin(); it != saved_bles.rend(); ++it) {
        pk_.bles[it->idx].inputs = std::move(it->inputs);
      }
      return false;
    }
  }

  // Commit point: absorption and cluster-output refresh for every
  // touched net, by pack's used-outside rule. Each touched net driven by
  // clustered logic is its driver BLE's external output (fused LUT->FF
  // nets were rejected at the op layer).
  for (NetId n : touched_nets_) {
    const BlockId drv = nl_.net(n).driver;
    const Block& db = nl_.block(drv);
    if (db.type != BlockType::kLut && db.type != BlockType::kLatch) continue;
    const std::size_t c = ble_cluster_[block_ble_[drv]];
    bool used_outside = false;
    for (BlockId sink : nl_.net(n).sinks) {
      const Block& sb = nl_.block(sink);
      if (sb.type == BlockType::kOutput) {
        used_outside = true;
      } else {
        const std::size_t sble = block_ble_[sink];
        if (sble == kInvalidId || ble_cluster_[sble] != c) used_outside = true;
      }
      if (used_outside) break;
    }
    Cluster& cl = pk_.clusters[c];
    const auto it =
        std::lower_bound(cl.output_nets.begin(), cl.output_nets.end(), n);
    const bool listed = it != cl.output_nets.end() && *it == n;
    if (used_outside) {
      pk_.net_absorbed[n] = false;
      if (!listed) cl.output_nets.insert(it, n);
    } else {
      pk_.net_absorbed[n] = true;
      if (listed) cl.output_nets.erase(it);
    }
  }
  return true;
}

void EcoFlow::splice_placed_nets() {
  // pl_.nets is ascending by NetId (extract_placed_nets scan order), so a
  // per-net splice against make_placed_net keeps it bitwise-identical to
  // a from-scratch extraction. Trees and delay caches move in lockstep.
  for (NetId n : touched_nets_) {
    auto fresh = make_placed_net(nl_, pk_, n);
    const auto it = std::lower_bound(
        pl_.nets.begin(), pl_.nets.end(), n,
        [](const PlacedNet& pn, NetId id) { return pn.net < id; });
    const std::size_t slot = static_cast<std::size_t>(it - pl_.nets.begin());
    const bool present = it != pl_.nets.end() && it->net == n;
    if (present && fresh) {
      if (!placed_net_equal(*it, *fresh)) {
        *it = std::move(*fresh);
        routing_.trees[slot] = RouteTree{};
        sink_delays_[slot].clear();
      }
    } else if (present) {
      pl_.nets.erase(it);
      routing_.trees.erase(routing_.trees.begin() +
                           static_cast<std::ptrdiff_t>(slot));
      sink_delays_.erase(sink_delays_.begin() +
                         static_cast<std::ptrdiff_t>(slot));
    } else if (fresh) {
      pl_.nets.insert(it, std::move(*fresh));
      routing_.trees.insert(
          routing_.trees.begin() + static_cast<std::ptrdiff_t>(slot),
          RouteTree{});
      sink_delays_.insert(
          sink_delays_.begin() + static_cast<std::ptrdiff_t>(slot),
          std::vector<double>{});
    }
  }
}

std::size_t EcoFlow::replace_touched() {
  // Locally re-place the clusters owning edited blocks: evaluate a few
  // deterministic random free core sites through the incremental cost
  // model and keep a strictly improving best. The RNG stream is keyed by
  // (seed, apply index), never by thread count or wall clock.
  std::vector<std::size_t> cands;
  for (BlockId b : touched_blocks_) {
    const std::size_t e = block_ble_[b];
    if (e != kInvalidId) cands.push_back(ble_cluster_[e]);
  }
  std::sort(cands.begin(), cands.end());
  cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
  if (cands.empty()) return 0;

  NetCostModel model(pl_.nets, pk_.blocks.size());
  model.rebuild(pl_.locs);
  Rng rng = Rng::from_stream(opt_.seed, applies_);
  NetCostModel::Pending pend;
  std::size_t moved = 0;
  for (const std::size_t blk : cands) {
    BlockLoc best{};
    double best_delta = 0.0;
    bool found = false;
    for (std::size_t t = 0; t < opt_.replace_candidates; ++t) {
      const BlockLoc cand{
          1 + static_cast<std::size_t>(rng.uniform_int(nx_)),
          1 + static_cast<std::size_t>(rng.uniform_int(ny_)), 0};
      if (site_occ_[site_key(cand)] != kInvalidId) continue;
      pend.clear();
      const double d = model.propose(pl_.locs, blk, cand,
                                     NetCostModel::kNoBlock, BlockLoc{}, pend);
      if (d < best_delta) {
        best_delta = d;
        best = cand;
        found = true;
      }
    }
    if (!found) continue;
    pend.clear();
    model.propose(pl_.locs, blk, best, NetCostModel::kNoBlock, BlockLoc{},
                  pend);
    model.commit(pend);
    site_occ_[site_key(pl_.locs[blk])] = kInvalidId;
    site_occ_[site_key(best)] = blk;
    pl_.locs[blk] = best;
    moved_blocks_.push_back(blk);
    ++moved;
  }
  return moved;
}

void EcoFlow::mark_moved_dirty() {
  if (moved_blocks_.empty()) return;
  std::sort(moved_blocks_.begin(), moved_blocks_.end());
  moved_blocks_.erase(
      std::unique(moved_blocks_.begin(), moved_blocks_.end()),
      moved_blocks_.end());
  const auto moved = [&](std::size_t b) {
    return std::binary_search(moved_blocks_.begin(), moved_blocks_.end(), b);
  };
  for (std::size_t i = 0; i < pl_.nets.size(); ++i) {
    const PlacedNet& pn = pl_.nets[i];
    bool dirty = moved(pn.driver);
    if (!dirty) {
      for (std::size_t s : pn.sinks) {
        if (moved(s)) {
          dirty = true;
          break;
        }
      }
    }
    if (dirty) {
      routing_.trees[i] = RouteTree{};
      sink_delays_[i].clear();
    }
  }
}

std::size_t EcoFlow::refresh_sink_delays() {
  const RrGraphView gv = graph();
  std::size_t evaluated = 0;
  for (std::size_t i = 0; i < pl_.nets.size(); ++i) {
    if (!sink_delays_[i].empty()) continue;  // sinks are never empty
    routed_net_delays(gv, routing_.trees[i], pl_.nets[i], pl_, eview_,
                      delay_scratch_, sink_delays_[i]);
    ++evaluated;
  }
  return evaluated;
}

double EcoFlow::propagate_cp() const {
  // analyze_timing's arrival model, verbatim, with the per-net delay
  // evaluation replaced by the session cache — max over fan-in is
  // order-independent, so the critical path is bitwise equal to a full
  // analyze_timing of the same state.
  std::vector<std::size_t> net_to_placed(nl_.net_count(), kInvalidId);
  for (std::size_t i = 0; i < pl_.nets.size(); ++i) {
    net_to_placed[pl_.nets[i].net] = i;
  }

  const auto net_arc = [&](NetId n, BlockId sink_blk) {
    const std::size_t placed = net_to_placed[n];
    if (placed == kInvalidId) {
      const Net& net = nl_.net(n);
      if (net.sinks.size() == 1) {
        const Block& s = nl_.block(net.sinks[0]);
        const Block& d = nl_.block(net.driver);
        if (s.type == BlockType::kLatch && d.type == BlockType::kLut) {
          return 0.0;  // fused BLE register
        }
      }
      return eview_.t_local_feedback;
    }
    const std::size_t owner = pk_.block_owner[sink_blk];
    const PlacedNet& pn = pl_.nets[placed];
    const auto it = std::lower_bound(pn.sinks.begin(), pn.sinks.end(), owner);
    if (it != pn.sinks.end() && *it == owner) {
      return sink_delays_[placed]
                         [static_cast<std::size_t>(it - pn.sinks.begin())];
    }
    return eview_.t_local_feedback;  // same-cluster sink of a global net
  };

  std::vector<double> arrival(nl_.block_count(), 0.0);
  std::vector<std::size_t> pending(nl_.block_count(), 0);
  std::deque<BlockId> ready;
  for (BlockId b = 0; b < nl_.block_count(); ++b) {
    const Block& blk = nl_.block(b);
    if (blk.type == BlockType::kInput) {
      ready.push_back(b);
    } else if (blk.type == BlockType::kLatch) {
      arrival[b] = eview_.t_clk_q;
      ready.push_back(b);
    } else if (blk.type == BlockType::kLut) {
      std::size_t comb_inputs = 0;
      for (NetId n : blk.inputs) {
        if (nl_.block(nl_.net(n).driver).type == BlockType::kLut) {
          ++comb_inputs;
        }
      }
      pending[b] = comb_inputs;
      if (comb_inputs == 0) ready.push_back(b);
    }
  }

  std::size_t processed_luts = 0;
  while (!ready.empty()) {
    const BlockId b = ready.front();
    ready.pop_front();
    const Block& blk = nl_.block(b);
    if (blk.type == BlockType::kLut) {
      double arr = 0.0;
      for (NetId n : blk.inputs) {
        const BlockId drv = nl_.net(n).driver;
        arr = std::max(arr, arrival[drv] + net_arc(n, b));
      }
      arrival[b] = arr + eview_.t_lut;
      ++processed_luts;
      for (BlockId s : nl_.net(blk.output).sinks) {
        if (nl_.block(s).type == BlockType::kLut && pending[s] > 0) {
          if (--pending[s] == 0) ready.push_back(s);
        }
      }
    }
  }
  if (processed_luts != nl_.lut_count()) {
    throw std::logic_error(
        "EcoFlow: combinational cycle reached timing propagation");
  }

  double cp = 0.0;
  for (BlockId b = 0; b < nl_.block_count(); ++b) {
    const Block& blk = nl_.block(b);
    if (blk.type == BlockType::kLatch) {
      const NetId d = blk.inputs[0];
      const BlockId drv = nl_.net(d).driver;
      cp = std::max(cp, arrival[drv] + net_arc(d, b) + eview_.t_setup);
    } else if (blk.type == BlockType::kOutput) {
      const NetId n = blk.inputs[0];
      const BlockId drv = nl_.net(n).driver;
      cp = std::max(cp, arrival[drv] + net_arc(n, b));
    }
  }
  return cp;
}

void EcoFlow::check_invariants() const {
  check_packing(nl_, opt_.arch, pk_);
  check_placement(pk_, opt_.arch, pl_);
  const std::vector<PlacedNet> ref = extract_placed_nets(nl_, pk_);
  if (ref.size() != pl_.nets.size()) {
    throw std::logic_error("EcoFlow: spliced net list diverged in size");
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!placed_net_equal(ref[i], pl_.nets[i])) {
      throw std::logic_error("EcoFlow: spliced net list diverged at slot " +
                             std::to_string(i));
    }
  }
  if (routing_.success) check_routing(graph(), pl_, routing_);
}

EcoResult EcoFlow::apply(const NetlistDelta& delta) {
  EcoResult r;
  const auto fill_state = [&] {
    r.cycle_detected = cycle_;
    r.legal = routing_.success;
    r.overused_nodes = routing_.overused_nodes;
    r.timing_valid = routing_.success && !cycle_;
    r.critical_path_s = r.timing_valid ? cp_ : 0.0;
  };
  if (delta.empty()) {
    r.status = EcoStatus::kNoop;
    fill_state();
    return r;
  }
  ++applies_;

  // Phase A/B: structural ops and the packing refresh, transactionally —
  // any rejection restores the netlist and locations bit-identically and
  // leaves the physical layers untouched.
  Netlist nl_snap = nl_;
  std::vector<BlockLoc> locs_snap = pl_.locs;
  touched_blocks_.clear();
  touched_nets_.clear();
  moved_blocks_.clear();
  build_site_occupancy();
  std::string reason;
  bool ok = apply_ops(delta, reason);
  if (ok) {
    std::sort(touched_blocks_.begin(), touched_blocks_.end());
    touched_blocks_.erase(
        std::unique(touched_blocks_.begin(), touched_blocks_.end()),
        touched_blocks_.end());
    std::sort(touched_nets_.begin(), touched_nets_.end());
    touched_nets_.erase(
        std::unique(touched_nets_.begin(), touched_nets_.end()),
        touched_nets_.end());
    ok = refresh_packing(reason);
  }
  if (!ok) {
    nl_ = std::move(nl_snap);
    pl_.locs = std::move(locs_snap);
    r.status = EcoStatus::kRejected;
    r.reject_reason = std::move(reason);
    fill_state();
    return r;
  }

  // Phase C: physical commit — splice the placed-net list, locally
  // re-place the touched clusters, and invalidate every net a moved
  // block touches.
  splice_placed_nets();
  if (opt_.replace_touched) replace_touched();
  mark_moved_dirty();
  r.blocks_moved = moved_blocks_.size();

  cycle_ = nl_.has_combinational_cycle();

  std::size_t invalidated = 0;
  for (const RouteTree& t : routing_.trees) {
    if (t.source == kNoRrNode) ++invalidated;
  }
  r.nets_invalidated = invalidated;

  // Reroute only when something was invalidated (or the live routing was
  // never legal). A purely-logical edit (e.g. a new same-cluster arc)
  // changes timing without touching a single wire.
  if (invalidated > 0 || !routing_.success) {
    const double t0 = wall_s();
    RouteOptions ropt = opt_.route;
    ropt.lookahead = lookahead_;
    std::unique_ptr<RouterTimingHook> hook;
    // A fresh hook per route call (one call per instance); with a
    // combinational cycle the router runs congestion-only and the
    // criticality fallback below covers timing.
    if (ropt.timing_driven && !cycle_) {
      hook = make_incremental_sta(nl_, pk_, pl_, graph(), eview_,
                                  ropt.criticality_exp, ropt.max_criticality,
                                  dmodel_);
      ropt.timing_hook = hook.get();
    }
    RoutingResult next;
    if (routing_.success) {
      next = route_incremental(graph(), pl_, std::move(routing_.trees), ropt);
    }
    if (!next.success) {
      // From-scratch fallback: an ECO session succeeds whenever a fresh
      // flow of the same design would.
      r.full_fallback = true;
      std::unique_ptr<RouterTimingHook> hook2;
      RouteOptions fopt = opt_.route;
      fopt.lookahead = lookahead_;
      if (fopt.timing_driven && !cycle_) {
        hook2 =
            make_incremental_sta(nl_, pk_, pl_, graph(), eview_,
                                 fopt.criticality_exp, fopt.max_criticality,
                                 dmodel_);
        fopt.timing_hook = hook2.get();
      }
      next = route_all(graph(), pl_, fopt);
    }
    routing_ = std::move(next);
    r.route_iterations = routing_.iterations;
    for (std::size_t i = 0; i < routing_.routed_nets.size(); ++i) {
      if (routing_.routed_nets[i]) {
        r.nets_rerouted += 1;
        sink_delays_[i].clear();
      }
    }
    r.reroute_wall_s = wall_s() - t0;
  }

  r.cycle_detected = cycle_;
  r.legal = routing_.success;
  r.overused_nodes = routing_.overused_nodes;
  if (!routing_.success) {
    // Unroutable even from scratch. Trees are partial and timing is
    // meaningless; drop every delay cache so a later recovery rebuilds
    // from clean state.
    for (auto& d : sink_delays_) d.clear();
    r.status = EcoStatus::kUnroutable;
    return r;
  }

  const double t_sta = wall_s();
  r.sta_nets_evaluated = refresh_sink_delays();
  if (cycle_) {
    // Zero-slack criticality fallback (the placement estimate's cycle
    // path): timing degrades gracefully instead of crashing.
    (void)placement_net_criticality(nl_, pl_.nets, pl_.locs);
    r.timing_valid = false;
  } else {
    const double cp = propagate_cp();
    r.timing_valid = true;
    r.critical_path_s = cp;
    if (had_cp_) r.cp_delta_s = cp - cp_;
    cp_ = cp;
    had_cp_ = true;
  }
  r.sta_wall_s = wall_s() - t_sta;

  if (verify::checks_enabled()) check_invariants();
  r.status = EcoStatus::kOk;
  return r;
}

}  // namespace nemfpga
