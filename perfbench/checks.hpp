// Independent output checks of the end-to-end benchmark. Each check is
// written here, against the toolkit's public data structures only, and
// returns an empty string on success or a one-line description of the
// first violation. selftest.cpp feeds every check a corrupted result and
// requires it to fail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "arch/rr_graph.hpp"
#include "core/study.hpp"
#include "place/place.hpp"
#include "route/route.hpp"

namespace perfbench {

/// Routing legality, walked over the RR graph: every tree starts at its
/// driver's SOURCE, every tree edge exists in the graph and hangs off a
/// node the tree already reached, every sink block's SINK is reached, and
/// no node carries more nets than its capacity.
std::string check_routing_legal(const nemfpga::RrGraphView& g,
                                const nemfpga::Placement& pl,
                                const nemfpga::RoutingResult& r);

/// |a - b| <= rel_tol * max(|a|, |b|); `what` names the quantity.
std::string check_close(const std::string& what, double a, double b,
                        double rel_tol = 1e-12);

/// Exact equality of two routing checksums.
std::string check_checksum(const std::string& what, std::uint64_t got,
                           std::uint64_t want);

/// Wire-supply lower bound on the channel width: every net needs at
/// least max(0, dx - 1) + max(0, dy - 1) channel tiles of wire between
/// the extremes of its bounding box (adjacent blocks share a channel),
/// a track of capacity 1 carries one net per tile, and the fabric has
/// nx*(ny+1) + ny*(nx+1) channel tile-segments per track.
std::size_t wire_supply_bound(const nemfpga::Placement& pl);

/// Wmin >= bound and w_low_stress == ceil(1.2 * Wmin) rounded up to even.
std::string check_wmin(std::size_t w_min, std::size_t w_low_stress,
                       std::size_t bound);

/// The study's ratios lie in the bands tests/test_study.cpp pins for the
/// preferred corner and the naive CMOS-NEM design.
std::string check_study_bands(const nemfpga::StudyResult& st);

}  // namespace perfbench
