#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

namespace perfbench {

using namespace nemfpga;

std::string check_routing_legal(const RrGraphView& g, const Placement& pl,
                                const RoutingResult& r) {
  if (!r.success) return "routing: result is not a success";
  if (r.trees.size() != pl.nets.size()) {
    return "routing: " + std::to_string(r.trees.size()) + " trees for " +
           std::to_string(pl.nets.size()) + " nets";
  }
  const std::size_t n_nodes = g.node_count();
  std::vector<std::uint32_t> occ(n_nodes, 0);
  std::vector<std::uint32_t> seen(n_nodes, 0);
  std::vector<RrEdge> buf;
  for (std::size_t n = 0; n < pl.nets.size(); ++n) {
    const RouteTree& t = r.trees[n];
    const std::uint32_t stamp = static_cast<std::uint32_t>(n + 1);
    const std::string net = "routing: net " + std::to_string(n) + ": ";
    const BlockLoc& d = pl.locs[pl.nets[n].driver];
    if (t.source != g.site(d.x, d.y).source) return net + "wrong source";
    seen[t.source] = stamp;
    ++occ[t.source];
    for (const auto& [from, to] : t.edges) {
      if (from >= n_nodes || to >= n_nodes) return net + "node out of range";
      if (seen[from] != stamp) return net + "edge from an unreached node";
      bool exists = false;
      for (const RrEdge& e : g.edges(from, buf)) {
        if (e.to == to) {
          exists = true;
          break;
        }
      }
      if (!exists) {
        return net + "edge " + std::to_string(from) + "->" +
               std::to_string(to) + " is not in the RR graph";
      }
      if (seen[to] != stamp) {
        seen[to] = stamp;
        ++occ[to];
      }
    }
    for (std::size_t s : pl.nets[n].sinks) {
      const BlockLoc& l = pl.locs[s];
      if (seen[g.site(l.x, l.y).sink] != stamp) {
        return net + "sink block " + std::to_string(s) + " not reached";
      }
    }
  }
  for (RrNodeId i = 0; i < n_nodes; ++i) {
    if (occ[i] > g.node(i).capacity) {
      return "routing: node " + std::to_string(i) + " carries " +
             std::to_string(occ[i]) + " nets, capacity " +
             std::to_string(g.node(i).capacity);
    }
  }
  return "";
}

std::string check_close(const std::string& what, double a, double b,
                        double rel_tol) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  if (std::isfinite(a) && std::isfinite(b) &&
      std::fabs(a - b) <= rel_tol * scale) {
    return "";
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), ": %.17g vs %.17g", a, b);
  return what + buf;
}

std::string check_checksum(const std::string& what, std::uint64_t got,
                           std::uint64_t want) {
  if (got == want) return "";
  char buf[96];
  std::snprintf(buf, sizeof(buf), ": checksum %016llx, expected %016llx",
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(want));
  return what + buf;
}

std::size_t wire_supply_bound(const Placement& pl) {
  std::uint64_t need = 0;
  for (const PlacedNet& n : pl.nets) {
    std::size_t x_lo = pl.locs[n.driver].x, x_hi = x_lo;
    std::size_t y_lo = pl.locs[n.driver].y, y_hi = y_lo;
    for (std::size_t s : n.sinks) {
      x_lo = std::min(x_lo, pl.locs[s].x);
      x_hi = std::max(x_hi, pl.locs[s].x);
      y_lo = std::min(y_lo, pl.locs[s].y);
      y_hi = std::max(y_hi, pl.locs[s].y);
    }
    need += (x_hi - x_lo > 1 ? x_hi - x_lo - 1 : 0) +
            (y_hi - y_lo > 1 ? y_hi - y_lo - 1 : 0);
  }
  const std::uint64_t segments =
      pl.nx * (pl.ny + 1) + pl.ny * (pl.nx + 1);
  return static_cast<std::size_t>((need + segments - 1) / segments);
}

std::string check_wmin(std::size_t w_min, std::size_t w_low_stress,
                       std::size_t bound) {
  if (w_min < bound) {
    return "wmin: " + std::to_string(w_min) +
           " is below the wire-supply bound " + std::to_string(bound);
  }
  std::size_t want = (12 * w_min + 9) / 10;  // ceil(1.2 * Wmin)
  want += want % 2;
  if (w_low_stress != want) {
    return "wmin: low-stress width " + std::to_string(w_low_stress) +
           " for Wmin " + std::to_string(w_min) + ", expected " +
           std::to_string(want);
  }
  return "";
}

std::string check_study_bands(const StudyResult& st) {
  struct Band {
    const char* name;
    double v, lo, hi;
  };
  const VersusBaseline& p = st.preferred.vs;
  const VersusBaseline& n = st.naive.vs;
  const Band bands[] = {
      {"preferred speedup", p.speedup, 1.0, 1e9},
      {"preferred dynamic reduction", p.dynamic_reduction, 1.5, 3.5},
      {"preferred leakage reduction", p.leakage_reduction, 5.0, 20.0},
      {"preferred area reduction", p.area_reduction, 1.8, 2.6},
      {"naive speedup", n.speedup, 1.0, 1e9},
      {"naive dynamic reduction", n.dynamic_reduction, 1.1, 2.2},
      {"naive leakage reduction", n.leakage_reduction, 1.5, 3.0},
      {"naive area reduction", n.area_reduction, 1.5, 2.1},
  };
  for (const Band& b : bands) {
    if (!(b.v >= b.lo && b.v <= b.hi)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "study: %s %.6g outside [%.6g, %.6g]",
                    b.name, b.v, b.lo, b.hi);
      return buf;
    }
  }
  if (!(p.dynamic_reduction > n.dynamic_reduction &&
        p.leakage_reduction > n.leakage_reduction)) {
    return "study: preferred corner does not beat the naive design";
  }
  return "";
}

}  // namespace perfbench
