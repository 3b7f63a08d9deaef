// End-to-end benchmark driver for the CAD toolkit. One process runs one
// workload for a fixed time and prints a single JSON result line:
//
//   perfbench_driver --workload flow|wmin|eco|serve --seed N --seconds S
//                    --trace 0|1 --out-dir DIR
//
// NF_THREADS sets the compute threads, and with them the serve daemon's
// workers and client connections.
//
// --trace 0 measures the end-to-end metrics (closed loop, whole rounds of
// one operation kind); --trace 1 runs a fixed traced pass of every
// workload with a span around each public call and reports the per-layer
// metrics.
// perfbench/run.py builds this binary from the checkout and invokes it;
// README.md documents the workloads and metrics.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "config/bitstream.hpp"
#include "core/flow.hpp"
#include "core/study.hpp"
#include "flow/eco.hpp"
#include "netlist/mcnc.hpp"
#include "power/power.hpp"
#include "service/artifact_cache.hpp"
#include "service/flow_artifacts.hpp"
#include "service/job_scheduler.hpp"
#include "service/json_io.hpp"
#include "service/server.hpp"
#include "timing/sta.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "verify/generators.hpp"
#include "verify/oracles.hpp"

namespace {

using namespace nemfpga;
using perfbench::check_checksum;
using perfbench::check_close;
using perfbench::check_routing_legal;
using perfbench::check_study_bands;
using perfbench::check_wmin;
using perfbench::wire_supply_bound;

// ---------------------------------------------------------------------------
// Workload make-up (README.md "Workloads" mirrors these constants).

/// flow: spla, the largest MCNC circuit whose flow takes under 2 s here,
/// and the next largest; each run needs several rounds of every circuit
/// for its medians to hold still on a noisy host.
const std::vector<std::string> kFlowCircuits = {"spla", "apex2", "s298",
                                                "seq", "bigkey"};
constexpr std::size_t kFlowW = 118;  // ArchParams default (paper Table 1)
/// Rounds a run always completes: a run that meets a slow spell of the
/// host gets as many samples per circuit as a fast one.
constexpr std::size_t kFlowMinRounds = 4;

/// wmin: mid-size MCNC circuits, one flow_min_channel_width search each.
const std::vector<std::string> kWminCircuits = {
    "tseng", "ex5p", "apex4", "misex3", "alu4", "diffeq", "s298", "dsip"};
constexpr std::size_t kWminHint = 64;
constexpr std::size_t kWminMinRounds = 2;

/// eco: sequential mid-size circuits at about twice their Wmin, three
/// live sessions each (different placement seeds and edit streams),
/// placed with a quick anneal (kEcoInnerNum) so that the replay passes
/// can reopen them cheaply.
struct EcoSpec {
  const char* circuit;
  std::size_t w;
};
const std::vector<EcoSpec> kEcoSessions = {
    {"tseng", 96}, {"dsip", 96}, {"diffeq", 104}, {"bigkey", 104},
    {"tseng", 96}, {"dsip", 96}, {"diffeq", 104}, {"bigkey", 104},
    {"tseng", 96}, {"dsip", 96}, {"diffeq", 104}, {"bigkey", 104}};
/// Rounds (one delta per session each) a run always completes, so the
/// quality snapshot taken there is independent of machine speed, and the
/// cap on rounds, which bounds how far a stream drifts from its base.
constexpr std::size_t kEcoQualityRounds = 20;
constexpr std::size_t kEcoMaxRounds = 150;
/// Passes over the same edit streams, each on freshly opened sessions;
/// an apply's latency is its best pass.
constexpr std::size_t kEcoPasses = 4;
/// PlaceOptions::inner_num of the sessions' base placement (default 2).
constexpr double kEcoInnerNum = 0.5;
/// Draws per step before the acyclic filter gives up (never reached on
/// the shipped sessions; a give-up is reported as a benchmark error).
constexpr std::size_t kEcoDraws = 64;

/// serve: jobs every round repeats on a warm daemon (their fabric is
/// cached) plus jobs at a channel width no earlier round of the cycle
/// used, so the daemon builds a fresh RR graph for them. "%SEED%" is
/// replaced by a per-job placement seed derived from --seed; "%W%" by the
/// round's width.
const std::vector<std::string> kServeWarmJobs = {
    R"({"op":"flow","benchmark":"tseng","w":64,"seed":%SEED%})",
    R"({"op":"flow","benchmark":"ex5p","w":80,"seed":%SEED%,"timing":true,"variant":"nem-opt"})",
    R"({"op":"flow","benchmark":"alu4","w":64,"seed":%SEED%,"sb_pattern":"subset"})",
    R"({"op":"flow","benchmark":"apex4","w":72,"seed":%SEED%,"sb_pattern":"universal","variant":"rram"})",
    R"({"op":"flow","synth_luts":600,"inputs":40,"outputs":40,"latches":60,"w":64,"seed":%SEED%,"variant":"nem-naive"})",
    R"({"op":"flow","benchmark":"misex3","w":64,"seed":%SEED%})",
};
const std::vector<std::string> kServeColdJobs = {
    R"({"op":"flow","benchmark":"tseng","w":%W%,"seed":%SEED%})",
    R"({"op":"flow","synth_luts":300,"inputs":24,"outputs":24,"w":%W%,"seed":%SEED%})",
};
/// One cycle of rounds: round k of a cycle sends the cold jobs at width
/// kServeColdWidths[k]. Between cycles the cache is cleared and warmed
/// again off the clock, so every cycle is the same work on the same
/// cache state, however many cycles a run completes.
const std::vector<std::size_t> kServeColdWidths = {66, 70, 74, 78};

// ---------------------------------------------------------------------------
// Small utilities.

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

double geomean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return v.empty() ? 0.0 : std::exp(s / static_cast<double>(v.size()));
}

/// Per-item seed derived from the run seed (placement seeds, edit
/// streams, job seeds), kept small so it survives a JSON number.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t item) {
  return 1 + Rng::from_stream(seed, item).uniform_int(1000000);
}

std::string replace_all(std::string s, const std::string& from,
                        const std::string& to) {
  for (std::size_t p = s.find(from); p != std::string::npos;
       p = s.find(from, p + to.size())) {
    s.replace(p, from.size(), to);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Run record: metrics, operation counts, check failures, trace spans.

struct Run {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct Span {
    std::string name;
    double t0, t1;
  };

  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Span> spans;
  double origin = now_s();

  /// First writer wins: in the traced run the named workload's pass runs
  /// first, so its layer figures take precedence over the other passes'.
  void set(const std::string& name, double value, const std::string& unit) {
    for (const Metric& m : metrics) {
      if (m.name == name) return;
    }
    metrics.push_back({name, value, unit});
  }
  void check(const std::string& err) {
    if (!err.empty()) errors.push_back(err);
  }
  /// Close a span opened at `t0`; returns its duration.
  double span(const std::string& name, double t0) {
    const double t1 = now_s();
    spans.push_back({name, t0, t1});
    return t1 - t0;
  }
};

/// Sums of per-layer quantities over one traced pass.
using Layers = std::map<std::string, double>;

void emit_layers(Run& run, const Layers& l,
                 const std::map<std::string, std::string>& units) {
  for (const auto& [name, v] : l) {
    const auto u = units.find(name);
    run.set(name, v, u == units.end() ? "count" : u->second);
  }
}

const std::map<std::string, std::string> kLayerUnits = {
    {"netlist.generate_s", "s"},      {"pack.pack_s", "s"},
    {"place.place_s", "s"},           {"place.moves_per_s", "1/s"},
    {"arch.rr_build_s", "s"},         {"arch.rr_bytes", "bytes"},
    {"arch.lookahead_build_s", "s"},  {"route.route_s", "s"},
    {"timing.sta_s", "s"},            {"power.power_s", "s"},
    {"core.study_s", "s"},            {"config.bitstream_s", "s"},
    {"flow.eco_reroute_s", "s"},      {"flow.eco_sta_s", "s"},
    {"service.job_wall_s", "s"},      {"service.queue_wait_s", "s"},
    {"service.request_overhead_s", "s"},
    {"trace.flow_traced_s", "s"},     {"trace.flow_untraced_s", "s"},
    {"trace.overhead_ratio", "x"},
};

// ---------------------------------------------------------------------------
// Shared flow pieces.

FlowOptions flow_options(std::size_t w, std::uint64_t place_seed) {
  FlowOptions o;
  o.arch.W = w;
  o.place.seed = place_seed;
  return o;
}

/// Everything one fixed-W flow operation produces that the checks and the
/// quality metrics read.
struct FlowOut {
  FlowResult fr;
  TimingResult timing;
  StudyResult study;
  std::uint64_t checksum = 0;
};

/// The fixed-W flow as users run it: run_flow, then the analyses.
FlowOut flow_op(const Netlist& nl, const FlowOptions& o) {
  FlowOut out;
  out.fr = run_flow(nl, o);
  const ElectricalView cmos = make_view(out.fr.arch, "cmos");
  const RrGraphView gv = out.fr.graph_view();
  out.timing = analyze_timing(out.fr.netlist, out.fr.packing,
                              out.fr.placement, gv, out.fr.routing, cmos);
  analyze_power(out.fr.netlist, out.fr.packing, out.fr.placement, gv,
                out.fr.routing, cmos, out.timing);
  out.study = run_study(out.fr);
  generate_bitstream(out.fr);
  out.checksum = routing_tree_checksum(out.fr.routing);
  return out;
}

/// pack_netlist -> place -> make_flow_artifacts (no cache) -> route_all,
/// each public call wrapped in a span, the counters it returns summed
/// into `l`.
FlowResult compose_flow(const Netlist& nl, const ArchParams& arch,
                        const PlaceOptions& popt, RouteOptions ropt,
                        Run& run, Layers& l, const std::string& tag) {
  FlowResult fr;
  fr.arch = arch;
  fr.netlist = nl;
  double t = now_s();
  fr.packing = pack_netlist(fr.netlist, fr.arch);
  l["pack.pack_s"] += run.span(tag + "/pack_netlist", t);
  l["pack.clusters"] += static_cast<double>(fr.packing.clusters.size());
  const auto [nx, ny] = grid_size_for(fr.arch, fr.packing.clusters.size(),
                                      fr.packing.io_block_count());
  t = now_s();
  fr.placement = place(fr.netlist, fr.packing, fr.arch, nx, ny, popt);
  l["place.place_s"] += run.span(tag + "/place", t);
  const PlaceCounters& pc = fr.placement.counters;
  l["place.moves_proposed"] += static_cast<double>(pc.proposed);
  l["place.moves_accepted"] += static_cast<double>(pc.accepted);
  l["place.rescans"] += static_cast<double>(pc.rescans);
  t = now_s();
  const FlowArtifacts art =
      make_flow_artifacts(nullptr, fr.arch, nx, ny, ropt, "cmos");
  const double art_s = run.span(tag + "/make_flow_artifacts", t);
  l["arch.lookahead_build_s"] += art.lookahead_build_s;
  l["arch.rr_build_s"] += art_s - art.lookahead_build_s;
  fr.graph = art.rr;
  fr.igraph = art.irr;
  const RrGraphView gv = fr.graph_view();
  l["arch.rr_nodes"] += static_cast<double>(gv.node_count());
  l["arch.rr_bytes"] += static_cast<double>(gv.memory_bytes());
  ropt.lookahead = art.lookahead;
  ropt.lookahead_build_s = art.lookahead_build_s;
  t = now_s();
  fr.routing = route_all(gv, fr.placement, ropt);
  l["route.route_s"] += run.span(tag + "/route_all", t);
  const RouteCounters& rc = fr.routing.counters;
  l["route.iterations"] += static_cast<double>(fr.routing.iterations);
  l["route.nodes_expanded"] += static_cast<double>(rc.nodes_expanded);
  l["route.heap_pushes"] += static_cast<double>(rc.heap_pushes);
  l["route.nets_rerouted"] += static_cast<double>(rc.nets_rerouted);
  l["route.conflict_replays"] += static_cast<double>(rc.conflict_replays);
  return fr;
}

/// flow_op composed from the public calls, every analysis in a span too.
FlowOut flow_op_traced(const Netlist& nl, const FlowOptions& o, Run& run,
                       Layers& l, const std::string& tag) {
  FlowOut out;
  out.fr = compose_flow(nl, o.arch, o.place, o.route, run, l, tag);
  const FlowResult& fr = out.fr;
  if (!fr.routed()) {
    throw std::runtime_error(tag + ": unroutable at W=" +
                             std::to_string(fr.arch.W));
  }
  const RrGraphView gv = fr.graph_view();
  const ElectricalView cmos = make_view(fr.arch, "cmos");
  double t = now_s();
  out.timing = analyze_timing(fr.netlist, fr.packing, fr.placement, gv,
                              fr.routing, cmos);
  l["timing.sta_s"] += run.span(tag + "/analyze_timing", t);
  t = now_s();
  analyze_power(fr.netlist, fr.packing, fr.placement, gv, fr.routing, cmos,
                out.timing);
  l["power.power_s"] += run.span(tag + "/analyze_power", t);
  t = now_s();
  out.study = run_study(fr);
  l["core.study_s"] += run.span(tag + "/run_study", t);
  t = now_s();
  const Bitstream bs = generate_bitstream(fr);
  l["config.bitstream_s"] += run.span(tag + "/generate_bitstream", t);
  l["config.relays_on"] += static_cast<double>(bs.relays_on);
  out.checksum = routing_tree_checksum(fr.routing);
  return out;
}

/// Checks shared by every routed design: legality over the RR graph and
/// analyze_timing against the reference STA (explicit graph required).
void check_routed(Run& run, const std::string& tag, const FlowResult& fr,
                  const TimingResult& timing) {
  const std::string legal =
      check_routing_legal(fr.graph_view(), fr.placement, fr.routing);
  run.check(legal.empty() ? "" : tag + ": " + legal);
  const TimingResult ref = verify::reference_analyze_timing(
      fr.netlist, fr.packing, fr.placement, *fr.graph, fr.routing,
      make_view(fr.arch, "cmos"));
  run.check(check_close(tag + ": analyze_timing vs reference STA",
                        timing.critical_path, ref.critical_path));
}

/// Quality metrics over a set of routed designs.
struct Quality {
  double tracks = 0, bb_cost = 0, wire_tiles = 0, cp_ns = 0;
  std::vector<double> nem_dyn, nem_speed;

  void add(const FlowResult& fr, const TimingResult& timing,
           const StudyResult& st) {
    tracks += static_cast<double>(fr.arch.W);
    bb_cost += placement_cost(fr.placement);
    wire_tiles += fr.routing.total_wire_tiles;
    cp_ns += timing.critical_path * 1e9;
    nem_dyn.push_back(st.preferred.vs.dynamic_reduction);
    nem_speed.push_back(st.preferred.vs.speedup);
  }
  void emit(Run& run) const {
    run.set("channel_tracks", tracks, "tracks");
    run.set("place_bb_cost", bb_cost, "cost");
    run.set("wire_tiles", wire_tiles, "tiles");
    run.set("critical_path_ns", cp_ns, "ns");
    run.set("nem_dynamic_x", geomean(nem_dyn), "x");
    run.set("nem_speedup_x", geomean(nem_speed), "x");
  }
};

/// Latency and throughput samples of one closed-loop timed phase. The
/// host's noise comes in episodes of about a second, so both metrics are
/// medians over many samples: latency over operations, throughput over
/// rounds (operations in the round / seconds the round spent in the
/// toolkit's calls).
struct Phase {
  std::vector<double> latency_s;
  std::vector<double> round_ops_per_s;
  std::size_t round_ops = 0;
  double round_s = 0.0;

  void op(double seconds) {
    latency_s.push_back(seconds);
    ++round_ops;
    round_s += seconds;
  }
  void end_round() {
    if (round_ops) round_ops_per_s.push_back(round_ops / round_s);
    round_ops = 0;
    round_s = 0.0;
  }
  void emit(Run& run) const {
    run.set("op_p50_ms", quantile(latency_s, 0.5) * 1e3, "ms");
    run.set("op_p90_ms", quantile(latency_s, 0.9) * 1e3, "ms");
    run.set("ops_per_s", quantile(round_ops_per_s, 0.5), "1/s");
  }
};

/// Metrics of a workload whose rounds repeat the identical deterministic
/// operation per circuit (flow, wmin). Repeats differ only by the host's
/// slow episodes, so each circuit's latency is its best round. The typical
/// operation is the geometric mean over the circuits (one circuit's time
/// alone swings with the host), the tail the 90th percentile over them,
/// and the throughput that of a round at those latencies.
void emit_suite(Run& run, const std::vector<std::vector<double>>& by_item) {
  Phase best;
  for (const auto& item : by_item) {
    if (!item.empty()) best.op(*std::min_element(item.begin(), item.end()));
  }
  best.end_round();
  std::vector<double> ms;
  for (double s : best.latency_s) ms.push_back(s * 1e3);
  run.set("op_p50_ms", geomean(ms), "ms");
  best.emit(run);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double t0 = 0.0;  ///< Clock reading at the top of main().
  std::string out_dir = ".";
};

/// setup_s: from the top of main() to the end of set-up.
void emit_setup(Run& run, const Args& a) {
  run.set("setup_s", now_s() - a.t0, "s");
}

std::vector<Netlist> generate(const std::vector<std::string>& names,
                              Run& run, Layers* l) {
  std::vector<Netlist> out;
  for (const std::string& n : names) {
    const double t = now_s();
    out.push_back(generate_benchmark(n));
    const double dt = run.span("generate_benchmark/" + n, t);
    if (l) (*l)["netlist.generate_s"] += dt;
  }
  return out;
}

// ---------------------------------------------------------------------------
// flow: closed loop of fixed-W flows over kFlowCircuits.

void flow_workload(const Args& a, Run& run) {
  const std::vector<Netlist> nls = generate(kFlowCircuits, run, nullptr);
  emit_setup(run, a);
  std::vector<std::vector<double>> by_circuit(nls.size());
  std::vector<std::uint64_t> first_sums(nls.size(), 0);
  std::vector<FlowOut> last(nls.size());
  const double start = now_s();
  for (std::size_t round = 0;
       round < kFlowMinRounds || now_s() - start < a.seconds; ++round) {
    for (std::size_t i = 0; i < nls.size(); ++i) {
      ++run.attempted;
      const double t = now_s();
      try {
        last[i] = flow_op(nls[i], flow_options(kFlowW, derive_seed(a.seed, i)));
      } catch (const std::exception& e) {
        ++run.failed;
        std::fprintf(stderr, "flow %s: %s\n", kFlowCircuits[i].c_str(),
                     e.what());
        continue;
      }
      by_circuit[i].push_back(now_s() - t);
      if (round == 0) first_sums[i] = last[i].checksum;
      run.check(check_checksum(kFlowCircuits[i] + ": round " +
                                   std::to_string(round) + " routing",
                               last[i].checksum, first_sums[i]));
    }
  }
  run.set("peak_rss_mb", peak_rss_mb(), "MB");
  emit_suite(run, by_circuit);
  Quality q;
  for (std::size_t i = 0; i < nls.size(); ++i) {
    if (!last[i].fr.routed()) continue;
    check_routed(run, kFlowCircuits[i], last[i].fr, last[i].timing);
    const std::string bands = check_study_bands(last[i].study);
    run.check(bands.empty() ? "" : kFlowCircuits[i] + ": " + bands);
    q.add(last[i].fr, last[i].timing, last[i].study);
  }
  q.emit(run);
}

/// Traced flow pass: an unmeasured warm-up round through run_flow (its
/// routing checksums are the reference), then composed rounds with spans
/// (T) and run_flow rounds (U) in the order T U U T, so neither side
/// always runs first; each side's time is the sum over the circuits of
/// the best of its two rounds, and their quotient is the tracing
/// overhead. The layer figures come from the first composed round; the
/// checks run after all rounds.
void flow_traced(const Args& a, Run& run) {
  Layers l;
  const std::vector<Netlist> nls = generate(kFlowCircuits, run, &l);
  const std::size_t n = nls.size();
  std::vector<double> best_t(n, INFINITY), best_u(n, INFINITY);
  // Routing checksums of every run_flow and every composed round.
  std::vector<std::vector<std::uint64_t>> sums, composed;
  auto untraced_round = [&](std::vector<double>* best) {
    std::vector<std::uint64_t> round;
    for (std::size_t i = 0; i < n; ++i) {
      ++run.attempted;
      const double t = now_s();
      const FlowOut out =
          flow_op(nls[i], flow_options(kFlowW, derive_seed(a.seed, i)));
      if (best) (*best)[i] = std::min((*best)[i], now_s() - t);
      round.push_back(out.checksum);  // `out` is freed off the clock
    }
    sums.push_back(round);
  };
  std::vector<FlowOut> outs(n);
  Layers repeat;  // the second composed round's counters are not reported
  auto traced_round = [&](Layers& into) {
    std::vector<std::uint64_t> round;
    for (std::size_t i = 0; i < n; ++i) {
      ++run.attempted;
      const double t = now_s();
      FlowOut out =
          flow_op_traced(nls[i], flow_options(kFlowW, derive_seed(a.seed, i)),
                         run, into, "flow/" + kFlowCircuits[i]);
      best_t[i] = std::min(best_t[i], now_s() - t);
      round.push_back(out.checksum);
      outs[i] = std::move(out);  // the previous result is freed off the clock
    }
    composed.push_back(round);
  };
  untraced_round(nullptr);
  traced_round(l);
  untraced_round(&best_u);
  untraced_round(&best_u);
  traced_round(repeat);
  double traced = 0.0, untraced = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    traced += best_t[i];
    untraced += best_u[i];
    for (const std::vector<std::uint64_t>& round : sums) {
      run.check(check_checksum(kFlowCircuits[i] + ": run_flow rounds",
                               round[i], sums[0][i]));
    }
    for (const std::vector<std::uint64_t>& round : composed) {
      run.check(check_checksum(kFlowCircuits[i] + ": composed flow vs run_flow",
                               round[i], sums[0][i]));
    }
    const FlowOut& out = outs[i];
    const std::string legal = check_routing_legal(
        out.fr.graph_view(), out.fr.placement, out.fr.routing);
    run.check(legal.empty() ? "" : kFlowCircuits[i] + " composed: " + legal);
  }
  l["place.moves_per_s"] = l["place.moves_proposed"] / l["place.place_s"];
  l["trace.flow_traced_s"] = traced;
  l["trace.flow_untraced_s"] = untraced;
  l["trace.overhead_ratio"] = traced / untraced;
  std::fprintf(stderr, "trace overhead: traced %.3f s - untraced %.3f s = "
               "%+.3f s\n", traced, untraced, traced - untraced);
  emit_layers(run, l, kLayerUnits);
}

// ---------------------------------------------------------------------------
// wmin: closed loop of flow_min_channel_width searches.

/// Re-derive the search's placement and route it at Wmin with the
/// search's probe options; checks legality, the supply bound and the
/// low-stress width, and returns the routed design for quality metrics.
FlowOut wmin_verify(Run& run, const std::string& name, const Netlist& nl,
                    const FlowOptions& o, const ChannelWidthResult& cw,
                    Layers& l) {
  FlowOut out;
  ArchParams arch = o.arch;
  arch.W = cw.w_min;
  RouteOptions ropt = o.route;
  ropt.net_parallel = false;  // the search's probes route serially
  out.fr = compose_flow(nl, arch, o.place, ropt, run, l, "wmin/" + name);
  const FlowResult& fr = out.fr;
  const std::string wmin =
      check_wmin(cw.w_min, cw.w_low_stress, wire_supply_bound(fr.placement));
  run.check(wmin.empty() ? "" : name + ": " + wmin);
  if (!fr.routed()) {
    run.check(name + ": does not route at its reported Wmin " +
              std::to_string(cw.w_min));
    return out;
  }
  out.timing = analyze_timing(fr.netlist, fr.packing, fr.placement,
                              *fr.graph, fr.routing,
                              make_view(fr.arch, "cmos"));
  check_routed(run, name + " at Wmin", fr, out.timing);
  out.study = run_study(fr);
  return out;
}

void wmin_workload(const Args& a, Run& run) {
  const std::vector<Netlist> nls = generate(kWminCircuits, run, nullptr);
  emit_setup(run, a);
  std::vector<std::vector<double>> by_circuit(nls.size());
  std::vector<ChannelWidthResult> last(nls.size());
  std::vector<std::size_t> first_w(nls.size(), 0);
  const double start = now_s();
  for (std::size_t round = 0;
       round < kWminMinRounds || now_s() - start < a.seconds; ++round) {
    for (std::size_t i = 0; i < nls.size(); ++i) {
      ++run.attempted;
      const FlowOptions o = flow_options(kFlowW, derive_seed(a.seed, i));
      const double t = now_s();
      try {
        last[i] = flow_min_channel_width(nls[i], o, kWminHint);
      } catch (const std::exception& e) {
        last[i].feasible = false;
        std::fprintf(stderr, "wmin %s: %s\n", kWminCircuits[i].c_str(),
                     e.what());
      }
      if (!last[i].feasible) {
        ++run.failed;
        continue;
      }
      by_circuit[i].push_back(now_s() - t);
      if (round == 0) first_w[i] = last[i].w_min;
      if (last[i].w_min != first_w[i]) {
        run.check(kWminCircuits[i] + ": Wmin changed between rounds");
      }
    }
  }
  run.set("peak_rss_mb", peak_rss_mb(), "MB");
  emit_suite(run, by_circuit);
  Quality q;
  for (std::size_t i = 0; i < nls.size(); ++i) {
    if (!last[i].feasible) continue;
    const FlowOptions o = flow_options(kFlowW, derive_seed(a.seed, i));
    Layers unused;
    const FlowOut out =
        wmin_verify(run, kWminCircuits[i], nls[i], o, last[i], unused);
    if (out.fr.routed()) q.add(out.fr, out.timing, out.study);
  }
  q.emit(run);
}

void wmin_traced(const Args& a, Run& run) {
  Layers l;
  const std::vector<Netlist> nls = generate(kWminCircuits, run, &l);
  for (std::size_t i = 0; i < nls.size(); ++i) {
    ++run.attempted;
    const FlowOptions o = flow_options(kFlowW, derive_seed(a.seed, i));
    const double t = now_s();
    const ChannelWidthResult cw = flow_min_channel_width(nls[i], o, kWminHint);
    run.span("wmin/" + kWminCircuits[i] + "/flow_min_channel_width", t);
    if (!cw.feasible) {
      ++run.failed;
      continue;
    }
    wmin_verify(run, kWminCircuits[i], nls[i], o, cw, l);
  }
  l["place.moves_per_s"] = l["place.moves_proposed"] / l["place.place_s"];
  emit_layers(run, l, kLayerUnits);
}

// ---------------------------------------------------------------------------
// eco: seeded edit streams applied to live sessions.

/// Would applying `d`'s connectivity ops close a combinational loop?
/// Invalid ops are skipped here; the session rejects them anyway.
bool creates_cycle(const Netlist& nl, const NetlistDelta& d) {
  Netlist copy = nl;
  for (const EcoOp& op : d.ops) {
    try {
      switch (op.kind) {
        case EcoOpKind::kConnect: copy.connect_input(op.block, op.net); break;
        case EcoOpKind::kDisconnect:
          copy.disconnect_input(op.block, op.pin);
          break;
        case EcoOpKind::kRetarget:
          copy.retarget_input(op.block, op.pin, op.net);
          break;
        default: break;
      }
    } catch (const std::exception&) {
    }
  }
  return copy.has_combinational_cycle();
}

/// Next delta of session `s` at step `step`: gen_eco_delta draws, keeping
/// the first whose connectivity ops leave the netlist acyclic, so STA
/// stays valid along the whole stream.
NetlistDelta next_delta(const EcoFlow& f, std::uint64_t stream,
                        std::size_t step) {
  for (std::size_t k = 0; k < kEcoDraws; ++k) {
    Rng rng = Rng::from_stream(stream, step * kEcoDraws + k);
    NetlistDelta d = verify::gen_eco_delta(rng, f.netlist(), f.packing(),
                                           f.arch(), f.nx(), f.ny(),
                                           f.placement().locs);
    if (!creates_cycle(f.netlist(), d)) return d;
  }
  throw std::runtime_error("eco: no acyclic delta in " +
                           std::to_string(kEcoDraws) + " draws");
}

/// A session's final state as a FlowResult over a freshly built explicit
/// RR graph (node ids are identical by construction), for the checks.
FlowOut eco_state(const EcoFlow& f) {
  FlowOut out;
  FlowResult& fr = out.fr;
  fr.netlist = f.netlist();
  fr.arch = f.arch();
  fr.packing = f.packing();
  fr.placement = f.placement();
  fr.graph = std::make_shared<const RrGraph>(f.arch(), f.nx(), f.ny());
  fr.routing = f.routing();
  out.timing = analyze_timing(fr.netlist, fr.packing, fr.placement,
                              *fr.graph, fr.routing,
                              make_view(fr.arch, "cmos"));
  out.checksum = routing_tree_checksum(fr.routing);
  return out;
}

std::string eco_name(std::size_t i) {
  return kEcoSessions[i].circuit + ("#" + std::to_string(i));
}

/// One apply with its bookkeeping: times the call, counts the operation,
/// sums the result's counters into `l`, checks that a rejected delta left
/// the routing untouched. Returns the status and the call's wall time.
std::pair<EcoStatus, double> eco_step(Run& run, EcoFlow& f,
                                      const std::string& name,
                                      const NetlistDelta& d, std::size_t step,
                                      Layers& l) {
  const std::uint64_t before = routing_tree_checksum(f.routing());
  ++run.attempted;
  const double t = now_s();
  const EcoResult r = f.apply(d);
  const double dt = now_s() - t;
  l["flow.eco_reroute_s"] += r.reroute_wall_s;
  l["flow.eco_sta_s"] += r.sta_wall_s;
  l["flow.eco_nets_invalidated"] += static_cast<double>(r.nets_invalidated);
  l["flow.eco_nets_rerouted"] += static_cast<double>(r.nets_rerouted);
  l["flow.eco_full_fallbacks"] += r.full_fallback ? 1.0 : 0.0;
  l["flow.eco_blocks_moved"] += static_cast<double>(r.blocks_moved);
  l["timing.sta_net_evals"] += static_cast<double>(r.sta_nets_evaluated);
  l["route.iterations"] += static_cast<double>(r.route_iterations);
  switch (r.status) {
    case EcoStatus::kOk:
      if (!r.timing_valid) {
        run.check(name + ": step " + std::to_string(step) +
                  " lost timing on an acyclic netlist");
      }
      break;
    case EcoStatus::kRejected:
      run.check(check_checksum(name + ": rejected step " +
                                   std::to_string(step) + " routing",
                               routing_tree_checksum(f.routing()), before));
      break;
    case EcoStatus::kNoop: break;
    case EcoStatus::kUnroutable:
      ++run.failed;
      std::fprintf(stderr, "eco %s: step %zu unroutable\n", name.c_str(),
                   step);
      break;
  }
  return {r.status, dt};
}

/// Opens every session of kEcoSessions; sessions on the same fabric share
/// their RR graph, lookahead and delay model through `cache`.
std::vector<std::unique_ptr<EcoFlow>> eco_open(const Args& a, Run& run,
                                               ArtifactCache& cache) {
  std::vector<std::unique_ptr<EcoFlow>> sessions;
  for (std::size_t i = 0; i < kEcoSessions.size(); ++i) {
    EcoOptions o;
    o.arch.W = kEcoSessions[i].w;
    o.artifact_cache = &cache;
    o.place.inner_num = kEcoInnerNum;
    o.place.seed = derive_seed(a.seed, 100 + i);
    o.seed = derive_seed(a.seed, 200 + i);
    const double t = now_s();
    sessions.push_back(std::make_unique<EcoFlow>(
        generate_benchmark(kEcoSessions[i].circuit), o));
    run.span(std::string("eco/") + kEcoSessions[i].circuit + "/compile", t);
    if (!sessions.back()->routed()) {
      throw std::runtime_error(std::string("eco: base ") +
                               kEcoSessions[i].circuit + " unroutable");
    }
  }
  return sessions;
}

/// Final-state checks of every session: legality, the session's critical
/// path against a full analyze_timing, and that against the reference STA.
void eco_checks(Run& run, const std::vector<std::unique_ptr<EcoFlow>>& ss) {
  for (std::size_t i = 0; i < ss.size(); ++i) {
    const std::string name = eco_name(i);
    const FlowOut st = eco_state(*ss[i]);
    check_routed(run, "eco " + name, st.fr, st.timing);
    run.check(check_close("eco " + name + ": session critical path vs "
                                          "full analyze_timing",
                          ss[i]->critical_path_s(), st.timing.critical_path));
  }
}

/// The first pass draws every session's edit stream and applies it; each
/// later pass opens the sessions afresh from the same seeds (off the
/// clock) and replays the same deltas, which must land with the same
/// statuses and end on the same routings. An apply's latency is its best
/// pass, so a slow episode of the host must hit every pass of an apply to
/// show.
void eco_workload(const Args& a, Run& run) {
  ArtifactCache cache;
  auto sessions = eco_open(a, run, cache);
  emit_setup(run, a);
  const std::size_t n = sessions.size();
  std::vector<NetlistDelta> deltas;  // [round * n + session]
  std::vector<EcoStatus> status;     // the first pass's, same index
  std::vector<double> best;          // best latency, same index
  std::vector<std::uint64_t> final_sums;
  Layers unused;
  Quality q;
  std::size_t rounds = kEcoMaxRounds;
  for (std::size_t pass = 0; pass < kEcoPasses; ++pass) {
    if (pass > 0) {
      sessions.clear();
      sessions = eco_open(a, run, cache);
    }
    const double start = now_s();
    double paused = 0.0;
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t k = round * n + i;
        if (pass == 0) {
          deltas.push_back(next_delta(*sessions[i],
                                      derive_seed(a.seed, 300 + i), round));
        }
        const auto [st, dt] =
            eco_step(run, *sessions[i], eco_name(i), deltas[k], round, unused);
        if (pass == 0) {
          status.push_back(st);
          best.push_back(dt);
          continue;
        }
        best[k] = std::min(best[k], dt);
        if (st != status[k]) {
          run.check(eco_name(i) + ": step " + std::to_string(round) +
                    " landed differently in pass " + std::to_string(pass));
        }
      }
      if (pass != 0) continue;
      if (round + 1 == kEcoQualityRounds) {
        // Quality snapshot at a fixed stream position (outside the clock).
        const double t = now_s();
        for (const auto& s : sessions) {
          const FlowOut st = eco_state(*s);
          q.add(st.fr, st.timing, run_study(st.fr));
        }
        paused += now_s() - t;
      }
      // On a host too slow for the cap the first pass stops on time, and
      // the later passes replay the rounds it reached.
      if (round + 1 >= kEcoQualityRounds &&
          now_s() - start - paused >= a.seconds) {
        rounds = round + 1;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t sum = routing_tree_checksum(sessions[i]->routing());
      if (pass == 0) {
        final_sums.push_back(sum);
      } else {
        run.check(check_checksum(eco_name(i) + ": final routing of pass " +
                                     std::to_string(pass),
                                 sum, final_sums[i]));
      }
    }
  }
  run.set("peak_rss_mb", peak_rss_mb(), "MB");
  // Latency over the applies that landed, throughput over every apply.
  Phase phase;
  std::vector<double> ok_latency;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = round * n + i;
      phase.op(best[k]);
      if (status[k] == EcoStatus::kOk) ok_latency.push_back(best[k]);
    }
    phase.end_round();
  }
  phase.latency_s = ok_latency;
  phase.emit(run);
  eco_checks(run, sessions);
  q.emit(run);
  std::fprintf(stderr, "eco: %zu passes of %zu rounds, %zu applies each, "
               "%zu ok\n", kEcoPasses, rounds, rounds * n, ok_latency.size());
}

void eco_traced(const Args& a, Run& run) {
  ArtifactCache cache;
  auto sessions = eco_open(a, run, cache);
  Layers l;
  for (std::size_t round = 0; round < kEcoQualityRounds; ++round) {
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const NetlistDelta d =
          next_delta(*sessions[i], derive_seed(a.seed, 300 + i), round);
      eco_step(run, *sessions[i], eco_name(i), d, round, l);
    }
  }
  eco_checks(run, sessions);
  l["timing.sta_s"] = l["flow.eco_sta_s"];
  l["route.route_s"] = l["flow.eco_reroute_s"];
  l["route.nets_rerouted"] = l["flow.eco_nets_rerouted"];
  emit_layers(run, l, kLayerUnits);
}

// ---------------------------------------------------------------------------
// serve: mixed job batches over loopback to an in-process daemon.

/// One blocking line-JSON client connection.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      close();
      throw std::runtime_error("serve: cannot connect to the daemon");
    }
  }
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::string request(const std::string& line) {
    const std::string out = line + "\n";
    for (std::size_t off = 0; off < out.size();) {
      const ssize_t n = ::send(fd_, out.data() + off, out.size() - off, 0);
      if (n <= 0) throw std::runtime_error("serve: send failed");
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string resp = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return resp;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("serve: connection closed");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }
  void close() {
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// The daemon with its accept thread and the client connections. The
/// destructor closes the clients, stops the daemon and joins its thread
/// on every path, including an exception mid-batch.
class Daemon {
 public:
  Daemon(const ServeOptions& opt, std::size_t clients) : srv_(opt) {
    thread_ = std::thread([this] { srv_.run(); });
    try {
      for (std::size_t i = 0; i < clients; ++i) {
        clients_.push_back(std::make_unique<Client>(srv_.port()));
      }
    } catch (...) {
      stop();  // the destructor does not run for a throwing constructor
      throw;
    }
  }
  ~Daemon() { stop(); }
  ServeServer& server() { return srv_; }
  Client& client(std::size_t i) { return *clients_[i]; }
  std::size_t clients() const { return clients_.size(); }

 private:
  void stop() {
    clients_.clear();
    srv_.shutdown();
    thread_.join();
  }

  ServeServer srv_;
  std::thread thread_;
  std::vector<std::unique_ptr<Client>> clients_;
};

struct JobRecord {
  std::string line;  ///< The request (no id), also the solo-check key.
  std::string response;
  double latency_s = 0.0;
  double parse_s = 0.0;  ///< Client-side job_from_json of the same line.
};

/// The jobs of round `round`: the warm jobs, and with `cold` the cold
/// jobs at the width of the round's place in the cycle.
std::vector<std::string> serve_round(const Args& a, std::size_t round,
                                     bool cold) {
  std::vector<std::string> lines;
  for (std::size_t j = 0; j < kServeWarmJobs.size(); ++j) {
    lines.push_back(replace_all(kServeWarmJobs[j], "%SEED%",
                                std::to_string(derive_seed(a.seed, 400 + j))));
  }
  for (std::size_t j = 0; cold && j < kServeColdJobs.size(); ++j) {
    std::string s = replace_all(kServeColdJobs[j], "%SEED%",
                                std::to_string(derive_seed(a.seed, 500 + j)));
    lines.push_back(replace_all(s, "%W%",
                                std::to_string(kServeColdWidths[
                                    round % kServeColdWidths.size()])));
  }
  return lines;
}

/// Send one round's jobs: client c takes jobs c, c + C, ... in order,
/// each waiting for its reply before the next (closed loop).
std::vector<JobRecord> serve_batch(Daemon& d, const std::vector<std::string>& lines,
                                   const ServeOptions* parse_defaults) {
  std::vector<JobRecord> rec(lines.size());
  std::vector<std::thread> th;
  std::vector<std::string> err(d.clients());
  for (std::size_t c = 0; c < d.clients(); ++c) {
    th.emplace_back([&, c] {
      try {
        for (std::size_t j = c; j < lines.size(); j += d.clients()) {
          rec[j].line = lines[j];
          const double t = now_s();
          rec[j].response = d.client(c).request(lines[j]);
          rec[j].latency_s = now_s() - t;
          if (parse_defaults) {
            const double tp = now_s();
            job_from_json(parse_json_object(lines[j]), *parse_defaults);
            rec[j].parse_s = now_s() - tp;
          }
        }
      } catch (const std::exception& e) {
        err[c] = e.what();
      }
    });
  }
  for (std::thread& t : th) t.join();
  for (const std::string& e : err) {
    if (!e.empty()) throw std::runtime_error(e);
  }
  return rec;
}

/// Serve workers and client connections: the NF_THREADS count.
std::size_t serve_threads() { return ThreadPool::global().thread_count(); }

ServeOptions serve_options() {
  ServeOptions o;
  o.workers = serve_threads();
  return o;
}

/// Response checks against a solo run_flow of each distinct job spec;
/// returns the number of failed jobs. The warm specs' solo flows feed
/// the quality metrics.
std::size_t serve_checks(const Args& a, Run& run,
                         const std::vector<JobRecord>& jobs, Quality* q) {
  std::map<std::string, FlowOut> solo;
  const std::vector<std::string> warm = serve_round(a, 0, false);
  std::size_t failed = 0;
  for (const JobRecord& j : jobs) {
    const JsonObject resp = parse_json_object(j.response);
    if (!resp.get_bool("ok")) {
      ++failed;
      std::fprintf(stderr, "serve job failed: %s -> %s\n", j.line.c_str(),
                   j.response.c_str());
      continue;
    }
    auto it = solo.find(j.line);
    if (it == solo.end()) {
      FlowJob job = job_from_json(parse_json_object(j.line), serve_options());
      FlowOut out;
      out.fr = run_flow(std::move(job.netlist), job.opt);
      out.checksum = routing_tree_checksum(out.fr.routing);
      it = solo.emplace(j.line, std::move(out)).first;
    }
    const std::uint64_t got =
        std::stoull(resp.get_string("tree_checksum"), nullptr, 16);
    run.check(check_checksum("serve " + j.line, got, it->second.checksum));
  }
  for (const std::string& w : warm) {
    auto it = solo.find(w);
    if (!q || it == solo.end()) continue;
    FlowOut& out = it->second;
    out.timing = analyze_timing(out.fr.netlist, out.fr.packing,
                                out.fr.placement, out.fr.graph_view(),
                                out.fr.routing, make_view(out.fr.arch, "cmos"));
    check_routed(run, "serve " + w, out.fr, out.timing);
    out.study = run_study(out.fr);
    q->add(out.fr, out.timing, out.study);
  }
  return failed;
}

void serve_workload(const Args& a, Run& run) {
  std::vector<JobRecord> all;
  Quality q;
  {
    Daemon d(serve_options(), serve_threads());
    serve_batch(d, serve_round(a, 0, false), nullptr);  // cache warm-up
    emit_setup(run, a);
    Phase phase;
    const double start = now_s();
    double paused = 0.0;
    // Whole cycles only: the time check runs where a cycle starts.
    for (std::size_t round = 0;
         round % kServeColdWidths.size() != 0 || round == 0 ||
         now_s() - start - paused < a.seconds;
         ++round) {
      if (round != 0 && round % kServeColdWidths.size() == 0) {
        const double tp = now_s();  // fresh cycle, off the clock
        d.server().cache().clear();
        serve_batch(d, serve_round(a, 0, false), nullptr);
        paused += now_s() - tp;
      }
      const double t = now_s();
      std::vector<JobRecord> batch =
          serve_batch(d, serve_round(a, round, true), nullptr);
      phase.round_ops_per_s.push_back(batch.size() / (now_s() - t));
      for (JobRecord& r : batch) {
        phase.latency_s.push_back(r.latency_s);
        all.push_back(std::move(r));
      }
    }
    run.set("peak_rss_mb", peak_rss_mb(), "MB");
    phase.emit(run);
  }
  run.attempted += all.size();
  run.failed += serve_checks(a, run, all, &q);
  q.emit(run);
}

void serve_traced(const Args& a, Run& run) {
  const ServeOptions opt = serve_options();
  Daemon d(opt, serve_threads());
  double t = now_s();
  serve_batch(d, serve_round(a, 0, false), nullptr);
  run.span("serve/warm-up", t);
  const ArtifactCache::Stats s0 = d.server().cache().stats();
  std::vector<JobRecord> jobs;
  for (std::size_t round = 0; round < 2; ++round) {
    t = now_s();
    for (JobRecord& r : serve_batch(d, serve_round(a, round, true), &opt)) {
      jobs.push_back(std::move(r));
    }
    run.span("serve/batch", t);
  }
  const ArtifactCache::Stats s1 = d.server().cache().stats();
  std::vector<double> wall, overhead, queue;
  for (const JobRecord& j : jobs) {
    const double w = parse_json_object(j.response).get_number("wall_s");
    wall.push_back(w);
    overhead.push_back(j.latency_s - w);
    queue.push_back(j.latency_s - w - j.parse_s);
  }
  run.attempted += jobs.size();
  run.failed += serve_checks(a, run, jobs, nullptr);
  Layers l;
  l["service.cache_hits"] = static_cast<double>(s1.hits - s0.hits);
  l["service.cache_misses"] = static_cast<double>(s1.misses - s0.misses);
  l["service.single_flight_waits"] =
      static_cast<double>(s1.single_flight_waits - s0.single_flight_waits);
  l["service.job_wall_s"] = quantile(wall, 0.5);
  l["service.request_overhead_s"] = quantile(overhead, 0.5);
  l["service.queue_wait_s"] = quantile(queue, 0.5);
  emit_layers(run, l, kLayerUnits);
}

// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  void (*run)(const Args&, Run&);
  void (*traced)(const Args&, Run&);
};
const Workload kWorkloads[] = {
    {"flow", flow_workload, flow_traced},
    {"wmin", wmin_workload, wmin_traced},
    {"eco", eco_workload, eco_traced},
    {"serve", serve_workload, serve_traced},
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v) != 0;
    else if (k == "--out-dir") a.out_dir = v;
    else throw std::invalid_argument("unknown option " + k);
  }
  return a;
}

void write_trace(const Args& a, const Run& run) {
  const std::string path = a.out_dir + "/trace-" + a.workload + "-seed" +
                           std::to_string(a.seed) + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < run.spans.size(); ++i) {
    const Run::Span& s = run.spans[i];
    std::fprintf(f,
                 "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f}\n",
                 i ? "," : "", ("\"" + json_escape(s.name) + "\"").c_str(),
                 (s.t0 - run.origin) * 1e6, (s.t1 - s.t0) * 1e6);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const double t_main = now_s();
  Args a;
  try {
    a = parse_args(argc, argv);
    a.t0 = t_main;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads) {
    if (a.workload == k.name) w = &k;
  }
  if (!w) {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  Run run;
  try {
    if (a.trace) {
      // The named workload's pass first (its layer figures win), then the
      // others, so every layer metric is reported on every workload.
      w->traced(a, run);
      for (const Workload& k : kWorkloads) {
        if (&k != w) k.traced(a, run);
      }
      write_trace(a, run);
    } else {
      w->run(a, run);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  for (const std::string& e : run.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::string body;
  for (const Run::Metric& m : run.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (!std::isfinite(m.value)) std::snprintf(buf, sizeof(buf), "null");
    body += (body.empty() ? "" : ", ") + ("\"" + m.name + "\"") +
            ": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              run.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed), body.c_str());
  return run.errors.empty() ? 0 : 3;
}
