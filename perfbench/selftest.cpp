// Self-test of the benchmark's independent checks: each check must pass
// on a genuine result and fail on a corrupted copy of it (a dropped tree
// edge, an edge the RR graph lacks, two nets on the same wires, a
// shifted critical path, a wrong checksum, a Wmin below its bound, a
// wrong low-stress width, a study ratio outside its band). Exits 0 when
// every corruption is caught.
#include <cstdio>
#include <string>

#include "checks.hpp"
#include "core/flow.hpp"
#include "core/study.hpp"
#include "netlist/synth_gen.hpp"
#include "service/job_scheduler.hpp"

using namespace nemfpga;
using namespace perfbench;

namespace {

int failures = 0;

void expect(bool pass_wanted, const std::string& result, const char* what) {
  const bool passed = result.empty();
  if (passed != pass_wanted) {
    ++failures;
    std::printf("FAIL %s: %s\n", what,
                passed ? "corruption not detected" : result.c_str());
  } else {
    std::printf("ok   %s%s%s\n", what, passed ? "" : " -> ",
                result.c_str());
  }
}

}  // namespace

int main() {
  SynthSpec spec;
  spec.n_luts = 200;
  spec.n_inputs = 16;
  spec.n_outputs = 16;
  FlowOptions opt;
  opt.arch.W = 40;
  const FlowResult fr = run_flow(generate_netlist(spec), opt);
  const RrGraphView g = fr.graph_view();

  expect(true, check_routing_legal(g, fr.placement, fr.routing),
         "legal routing passes");

  // A dropped tree edge: the first edge of the largest tree, so later
  // edges hang off an unreached node or a sink goes unreached.
  std::size_t big = 0;
  for (std::size_t n = 0; n < fr.routing.trees.size(); ++n) {
    if (fr.routing.trees[n].edges.size() >
        fr.routing.trees[big].edges.size()) {
      big = n;
    }
  }
  RoutingResult dropped = fr.routing;
  dropped.trees[big].edges.erase(dropped.trees[big].edges.begin());
  expect(false, check_routing_legal(g, fr.placement, dropped),
         "dropped tree edge");

  // The last edge of a tree redirected to a node its parent has no edge
  // to (the net's own SOURCE).
  RoutingResult bogus = fr.routing;
  bogus.trees[big].edges.back().second = bogus.trees[big].source;
  expect(false, check_routing_legal(g, fr.placement, bogus),
         "edge missing from the RR graph");

  // A second net made a copy of the largest one, same pins and same
  // tree: every wire of that tree now carries two nets.
  Placement twin_pl = fr.placement;
  RoutingResult twin = fr.routing;
  const std::size_t other = big == 0 ? 1 : 0;
  twin_pl.nets[other] = twin_pl.nets[big];
  twin.trees[other] = twin.trees[big];
  expect(false, check_routing_legal(g, twin_pl, twin),
         "two nets on one set of wires");

  const double cp = 7.5e-9;
  expect(true, check_close("cp", cp, cp), "equal critical paths pass");
  expect(false, check_close("cp", cp, cp * (1 + 1e-9)),
         "critical path shifted by 1e-9 relative");

  const std::uint64_t sum = routing_tree_checksum(fr.routing);
  expect(true, check_checksum("sum", sum, sum), "equal checksums pass");
  expect(false,
         check_checksum("sum", routing_tree_checksum(dropped), sum),
         "checksum of a changed routing");

  const std::size_t bound = wire_supply_bound(fr.placement);
  expect(true, check_wmin(40, 48, bound), "consistent Wmin passes");
  expect(true, check_wmin(45, 54, 0), "Wmin 45 -> low-stress 54 passes");
  expect(false, check_wmin(bound, 2 * bound, bound + 1),
         "Wmin below the wire-supply bound");
  expect(false, check_wmin(45, 55, 0), "wrong low-stress width");

  const StudyResult st = run_study(fr);
  expect(true, check_study_bands(st), "study inside its bands");
  StudyResult bad = st;
  bad.preferred.vs.dynamic_reduction = 4.0;
  expect(false, check_study_bands(bad), "dynamic reduction above its band");
  bad = st;
  bad.naive.vs.speedup = 0.9;
  expect(false, check_study_bands(bad), "naive design slower than CMOS");

  std::printf("%s\n", failures ? "SELFTEST FAILED" : "selftest passed");
  return failures ? 1 : 0;
}
