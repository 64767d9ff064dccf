#include "routing/hierarchical.hpp"

#include <algorithm>
#include <vector>

#include "mesh/contracts.hpp"
#include "routing/one_bend.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/contracts.hpp"

namespace oblivious {

namespace {

// Connects the waypoints of a bitonic chain into `out`. `chain` holds the
// regions of the bitonic access-graph path (ascent over s, bridge, descent
// over t) and `up_count` how many of them belong to the ascent; waypoint i
// is drawn in chain[i] and the subpath to it stays inside the *enclosing*
// region -- chain[i] while ascending (it contains the previous, smaller
// region) and chain[i-1] while descending. The final leg runs to t inside
// the last chain region. Templated on the waypoint/order callbacks (no
// per-waypoint std::function allocations); `out` is cleared first, so with
// retained capacity the whole emission is allocation-free.
template <typename WaypointFn, typename OrderFn>
void connect_chain_into(const Mesh& mesh, const std::vector<Region>& chain,
                        std::size_t up_count, const Coord& cs, const Coord& ct,
                        NodeId s, NodeId t, const WaypointFn& waypoint,
                        const OrderFn& order_for, SegmentPath& out) {
  OBLV_CHECK(!chain.empty(), "bitonic chain cannot be empty");
  OBLV_EXPECTS(contracts::validate_bitonic_chain(mesh, chain, up_count),
               "Sections 3.2/4.1: chain regions must grow to the bridge and "
               "shrink after it, each containing its smaller neighbour");
  out.reset(s, t);
  Coord cur = cs;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const Coord nxt = waypoint(chain[i], i);
    const Region& enclosing = (i <= up_count) ? chain[i] : chain[i - 1];
    const auto order = order_for(i);
    append_segments_in_region(
        mesh, enclosing, cur, nxt,
        std::span<const int>(order.data(), order.size()), out);
    cur = nxt;
  }
  const auto order = order_for(chain.size());
  append_segments_in_region(mesh, chain.back(), cur, ct,
                            std::span<const int>(order.data(), order.size()),
                            out);
}

}  // namespace

// ---------------------------------------------------------------------------
// AncestorRouter (Section 3)
// ---------------------------------------------------------------------------

AncestorRouter::AncestorRouter(const Mesh& mesh, Hierarchy hierarchy)
    : Router(mesh),
      decomp_(mesh, DecompositionConfig::section3()),
      hierarchy_(hierarchy) {}

std::string AncestorRouter::name() const {
  return hierarchy_ == Hierarchy::kAccessTree ? "access-tree" : "hierarchical-2d";
}

RegularSubmesh AncestorRouter::bridge_at(const Coord& cs,
                                         const Coord& ct) const {
  return decomp_.deepest_common(cs, ct, hierarchy_ == Hierarchy::kAccessGraph);
}

RegularSubmesh AncestorRouter::bridge_for(NodeId s, NodeId t) const {
  return bridge_at(mesh_->coord(s), mesh_->coord(t));
}

void AncestorRouter::resolve_plan(NodeId s, NodeId t,
                                  std::vector<Region>& chain,
                                  std::size_t& up_count,
                                  int& bridge_level) const {
  resolve_plan_at(mesh_->coord(s), mesh_->coord(t), chain, up_count,
                  bridge_level);
}

void AncestorRouter::resolve_plan_at(const Coord& cs, const Coord& ct,
                                     std::vector<Region>& chain,
                                     std::size_t& up_count,
                                     int& bridge_level) const {
  const int k = decomp_.leaf_level();
  RegularSubmesh bridge = bridge_at(cs, ct);
  OBLV_CHECK(bridge.level < k, "distinct nodes cannot share a leaf submesh");

  // Bitonic chain: type-1 ancestors of s at levels k-1 .. bridge.level+1,
  // the bridge, then type-1 ancestors of t back down.
  chain.clear();
  chain.reserve(static_cast<std::size_t>(2 * (k - bridge.level)) + 1);
  for (int level = k - 1; level > bridge.level; --level) {
    decomp_.append_type1_region(cs, level, chain);
  }
  up_count = chain.size();
  chain.push_back(std::move(bridge.region));
  for (int level = bridge.level + 1; level <= k - 1; ++level) {
    decomp_.append_type1_region(ct, level, chain);
  }
  bridge_level = 0;
}

void AncestorRouter::route_segments_into(NodeId s, NodeId t, Rng& rng,
                                         RouteScratch& scratch,
                                         SegmentPath& out) const {
  expects_route_args(s, t);
  if (s == t) {
    out.reset(s, t);
    return;
  }
  const Coord cs = mesh_->coord(s);
  const Coord ct = mesh_->coord(t);
  std::size_t up_count = 0;
  int bridge_level = 0;
  resolve_plan_at(cs, ct, scratch.chain, up_count, bridge_level);

  connect_chain_into(
      *mesh_, scratch.chain, up_count, cs, ct, s, t,
      [&](const Region& region, std::size_t) {
        return region.random_coord(*mesh_, rng);
      },
      [&](std::size_t) { return rng.random_permutation(mesh_->dim()); }, out);
  ensures_route_result(s, t, out);
  OBLV_ENSURES(hierarchy_ != Hierarchy::kAccessGraph || mesh_->dim() != 2 ||
                   contracts::validate_stretch_bound(*mesh_, out, 2),
               "Theorem 3.4: 2D access-graph stretch must be <= 64");
}

// ---------------------------------------------------------------------------
// NdRouter (Section 4)
// ---------------------------------------------------------------------------

NdRouter::NdRouter(const Mesh& mesh, RandomnessMode mode,
                   BridgeHeightMode bridge_mode)
    : Router(mesh),
      decomp_(Decomposition::section4(mesh)),
      mode_(mode),
      bridge_mode_(bridge_mode) {}

std::string NdRouter::name() const {
  return mode_ == RandomnessMode::kNaive ? "hierarchical-nd"
                                         : "hierarchical-nd-frugal";
}

std::pair<int, int> NdRouter::heights_for(NodeId s, NodeId t) const {
  return heights_at(mesh_->distance(s, t));
}

std::pair<int, int> NdRouter::heights_at(std::int64_t dist) const {
  OBLV_REQUIRE(dist > 0, "heights are defined for distinct nodes");
  const int k = decomp_.leaf_level();
  const int d = mesh_->dim();
  // Deepest level with side >= 2(d+1) dist has height h; the bridge sits
  // one height above (Section 4.1).
  const int h = ceil_log2(2 * static_cast<std::uint64_t>(d + 1) *
                          static_cast<std::uint64_t>(dist));
  const int lift = bridge_mode_ == BridgeHeightMode::kPrescribed ? 1 : 0;
  const int bridge_height = std::min(h + lift, k);
  const int m1_height =
      std::min(floor_log2(static_cast<std::uint64_t>(dist)), bridge_height - 1);
  return {std::max(m1_height, 0), bridge_height};
}

// Lemma 4.1: at the prescribed level one of the shifted families contains
// the bounding box of s and t (and, by grid alignment, the whole of M1 and
// M3). Near the boundary of a non-torus mesh truncation can defeat a
// family, so first_cover falls upward until a containing submesh is
// found; the root always works.
RegularSubmesh NdRouter::bridge_for(NodeId s, NodeId t) const {
  const auto [m1_height, bridge_height] = heights_for(s, t);
  const int k = decomp_.leaf_level();
  return decomp_.first_cover(mesh_->coord(s), mesh_->coord(t), k - m1_height,
                             k - bridge_height);
}

void NdRouter::resolve_plan(NodeId s, NodeId t, std::vector<Region>& chain,
                            std::size_t& up_count, int& bridge_level) const {
  resolve_plan_at(mesh_->coord(s), mesh_->coord(t), chain, up_count,
                  bridge_level);
}

void NdRouter::resolve_plan_at(const Coord& cs, const Coord& ct,
                               std::vector<Region>& chain,
                               std::size_t& up_count,
                               int& bridge_level) const {
  const int k = decomp_.leaf_level();
  const auto [m1_height, bridge_height] = heights_at(mesh_->distance(cs, ct));
  RegularSubmesh bridge =
      decomp_.first_cover(cs, ct, k - m1_height, k - bridge_height);

  // Chain: ascent over s at heights 1..m1_height (the last one is M1),
  // the bridge, descent over t at heights m1_height..1 (from M3).
  chain.clear();
  chain.reserve(static_cast<std::size_t>(2 * m1_height) + 1);
  for (int height = 1; height <= m1_height; ++height) {
    decomp_.append_type1_region(cs, k - height, chain);
  }
  up_count = chain.size();
  chain.push_back(std::move(bridge.region));
  for (int height = m1_height; height >= 1; --height) {
    decomp_.append_type1_region(ct, k - height, chain);
  }
  bridge_level = bridge.level;
}

void NdRouter::route_segments_into(NodeId s, NodeId t, Rng& rng,
                                   RouteScratch& scratch,
                                   SegmentPath& out) const {
  expects_route_args(s, t);
  if (s == t) {
    out.reset(s, t);
    return;
  }
  const Coord cs = mesh_->coord(s);
  const Coord ct = mesh_->coord(t);
  const int d = mesh_->dim();
  std::size_t up_count = 0;
  int bridge_level = 0;
  resolve_plan_at(cs, ct, scratch.chain, up_count, bridge_level);

  if (mode_ == RandomnessMode::kNaive) {
    connect_chain_into(
        *mesh_, scratch.chain, up_count, cs, ct, s, t,
        [&](const Region& region, std::size_t) {
          return region.random_coord(*mesh_, rng);
        },
        [&](std::size_t) { return rng.random_permutation(d); }, out);
  } else {
    // Frugal mode (Section 5.3): one dimension order for the whole path
    // and two random coordinate vectors v1, v2 drawn once at the bridge
    // scale; smaller submeshes reuse their low-order bits, alternating
    // between v1 and v2 so that the two endpoints of every subpath stay
    // independent.
    const auto order = rng.random_permutation(d);
    const int bh = decomp_.height_of(bridge_level);
    Coord v1;
    Coord v2;
    v1.resize(static_cast<std::size_t>(d));
    v2.resize(static_cast<std::size_t>(d));
    for (std::size_t dd = 0; dd < static_cast<std::size_t>(d); ++dd) {
      v1[dd] = static_cast<std::int64_t>(rng.bits(bh));
      v2[dd] = static_cast<std::int64_t>(rng.bits(bh));
    }
    connect_chain_into(
        *mesh_, scratch.chain, up_count, cs, ct, s, t,
        [&](const Region& region, std::size_t i) {
          const Coord& v = (i % 2 == 0) ? v1 : v2;
          Coord off;
          off.resize(static_cast<std::size_t>(d));
          for (std::size_t dd = 0; dd < static_cast<std::size_t>(d); ++dd) {
            // Extents are powers of two except for truncated bridges, where
            // the modulo introduces a mild bias that does not affect the
            // congestion guarantee (truncated submeshes border the mesh).
            off[dd] = v[dd] % region.extent()[dd];
          }
          return region.coord_at(*mesh_, off);
        },
        [&](std::size_t) { return order; }, out);
  }
  ensures_route_result(s, t, out);
  OBLV_ENSURES(bridge_mode_ != BridgeHeightMode::kPrescribed ||
                   contracts::validate_stretch_bound(*mesh_, out, mesh_->dim()),
               "Theorem 4.2: stretch must be <= 40 d (d+1)");
}

}  // namespace oblivious
