#include "routing/staircase.hpp"

#include <cstdlib>

#include "util/check.hpp"

namespace oblivious {

void RandomStaircaseRouter::route_into(NodeId s, NodeId t, Rng& rng,
                                       RouteScratch& /*scratch*/,
                                       Path& out) const {
  expects_route_args(s, t);
  out.nodes.clear();
  out.nodes.push_back(s);
  Coord cur = mesh_->coord(s);
  const Coord target = mesh_->coord(t);

  // Remaining signed displacement per dimension (torus-aware shortest).
  SmallVec<std::int64_t, 8> remaining;
  remaining.resize(cur.size());
  std::int64_t total = 0;
  for (int d = 0; d < mesh_->dim(); ++d) {
    const std::size_t dd = static_cast<std::size_t>(d);
    remaining[dd] = mesh_->displacement(cur[dd], target[dd], d);
    total += std::abs(remaining[dd]);
  }

  while (total > 0) {
    // Pick the dimension with probability proportional to its remaining
    // distance: sequentially uniform over all monotone shortest paths.
    std::int64_t pick = static_cast<std::int64_t>(
        rng.uniform_below(static_cast<std::uint64_t>(total)));
    int dim = 0;
    for (int d = 0; d < mesh_->dim(); ++d) {
      const std::int64_t r = std::abs(remaining[static_cast<std::size_t>(d)]);
      if (pick < r) {
        dim = d;
        break;
      }
      pick -= r;
    }
    const std::size_t dd = static_cast<std::size_t>(dim);
    const int dir = remaining[dd] > 0 ? 1 : -1;
    out.nodes.push_back(mesh_->walk_step(cur, out.nodes.back(), dim, dir));
    remaining[dd] -= dir;
    --total;
  }
  OBLV_CHECK(out.nodes.back() == t, "staircase walk missed the target");
  ensures_route_result(s, t, out);
}

void RandomStaircaseRouter::route_segments_into(NodeId s, NodeId t, Rng& rng,
                                                RouteScratch& /*scratch*/,
                                                SegmentPath& out) const {
  expects_route_args(s, t);
  // The staircase draws a dimension per hop, so the run structure follows
  // the draws; consecutive same-dimension hops still merge into one run.
  out.segments.clear();
  out.source = s;
  out.dest = t;
  Coord cur = mesh_->coord(s);
  const Coord target = mesh_->coord(t);

  SmallVec<std::int64_t, 8> remaining;
  remaining.resize(cur.size());
  std::int64_t total = 0;
  for (int d = 0; d < mesh_->dim(); ++d) {
    const std::size_t dd = static_cast<std::size_t>(d);
    remaining[dd] = mesh_->displacement(cur[dd], target[dd], d);
    total += std::abs(remaining[dd]);
  }

  while (total > 0) {
    std::int64_t pick = static_cast<std::int64_t>(
        rng.uniform_below(static_cast<std::uint64_t>(total)));
    int dim = 0;
    for (int d = 0; d < mesh_->dim(); ++d) {
      const std::int64_t r = std::abs(remaining[static_cast<std::size_t>(d)]);
      if (pick < r) {
        dim = d;
        break;
      }
      pick -= r;
    }
    const std::size_t dd = static_cast<std::size_t>(dim);
    const int dir = remaining[dd] > 0 ? 1 : -1;
    out.append(dim, dir);
    remaining[dd] -= dir;
    --total;
  }
  ensures_route_result(s, t, out);
}

Path RandomStaircaseRouter::route(NodeId s, NodeId t, Rng& rng) const {
  RouteScratch scratch;
  Path path;
  route_into(s, t, rng, scratch, path);
  return path;
}

SegmentPath RandomStaircaseRouter::route_segments(NodeId s, NodeId t,
                                                  Rng& rng) const {
  RouteScratch scratch;
  SegmentPath sp;
  route_segments_into(s, t, rng, scratch, sp);
  return sp;
}

}  // namespace oblivious
