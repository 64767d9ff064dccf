#include "routing/one_bend.hpp"

#include <cstdlib>

#include "util/check.hpp"

namespace oblivious {

namespace {

// Walks `steps` unit moves along dimension d in direction dir, appending
// each visited node. `cur` is updated in place and kept canonical; the
// path's last node is cur's id, so each hop advances the id by a stride.
void walk(const Mesh& mesh, Coord& cur, int d, int dir, std::int64_t steps,
          Path& path) {
  NodeId id = path.nodes.back();
  for (std::int64_t i = 0; i < steps; ++i) {
    id = mesh.walk_step(cur, id, d, dir);
    path.nodes.push_back(id);
  }
}

}  // namespace

void append_dim_order_path(const Mesh& mesh, const Coord& from, const Coord& to,
                           std::span<const int> order, Path& path) {
  OBLV_REQUIRE(!path.nodes.empty() && path.nodes.back() == mesh.node_id(from),
               "path must currently end at `from`");
  OBLV_REQUIRE(order.size() == static_cast<std::size_t>(mesh.dim()),
               "order must cover every dimension");
  Coord cur = from;
  for (const int d : order) {
    const std::size_t dd = static_cast<std::size_t>(d);
    const std::int64_t delta = mesh.displacement(cur[dd], to[dd], d);
    if (delta != 0) {
      walk(mesh, cur, d, delta > 0 ? 1 : -1, std::abs(delta), path);
    }
  }
  OBLV_CHECK(path.nodes.back() == mesh.node_id(to), "walk missed the target");
}

void append_path_in_region(const Mesh& mesh, const Region& region,
                           const Coord& from, const Coord& to,
                           std::span<const int> order, Path& path) {
  OBLV_REQUIRE(!path.nodes.empty() && path.nodes.back() == mesh.node_id(from),
               "path must currently end at `from`");
  OBLV_REQUIRE(order.size() == static_cast<std::size_t>(mesh.dim()),
               "order must cover every dimension");
  const Coord off_from = region.offset_of(mesh, from);
  const Coord off_to = region.offset_of(mesh, to);
  Coord cur = from;
  for (const int d : order) {
    const std::size_t dd = static_cast<std::size_t>(d);
    // Move monotonically in offset space: stays inside the region even
    // when the region wraps around the torus.
    const std::int64_t delta = off_to[dd] - off_from[dd];
    if (delta != 0) {
      walk(mesh, cur, d, delta > 0 ? 1 : -1, std::abs(delta), path);
    }
  }
  OBLV_CHECK(path.nodes.back() == mesh.node_id(to), "walk missed the target");
}

void append_dim_order_segments(const Mesh& mesh, const Coord& from,
                               const Coord& to, std::span<const int> order,
                               SegmentPath& sp) {
  OBLV_REQUIRE(order.size() == static_cast<std::size_t>(mesh.dim()),
               "order must cover every dimension");
  for (const int d : order) {
    const std::size_t dd = static_cast<std::size_t>(d);
    sp.append(d, mesh.displacement(from[dd], to[dd], d));
  }
}

void append_segments_in_region(const Mesh& mesh, const Region& region,
                               const Coord& from, const Coord& to,
                               std::span<const int> order, SegmentPath& sp) {
  OBLV_REQUIRE(order.size() == static_cast<std::size_t>(mesh.dim()),
               "order must cover every dimension");
  const Coord off_from = region.offset_of(mesh, from);
  const Coord off_to = region.offset_of(mesh, to);
  for (const int d : order) {
    const std::size_t dd = static_cast<std::size_t>(d);
    // Move monotonically in offset space, exactly like the node-list
    // append: stays inside the region even when it wraps the torus.
    sp.append(d, off_to[dd] - off_from[dd]);
  }
}

SmallVec<int, 8> identity_order(int dim) {
  OBLV_REQUIRE(dim >= 1, "dimension must be >= 1");
  SmallVec<int, 8> order;
  order.resize(static_cast<std::size_t>(dim));
  for (int d = 0; d < dim; ++d) order[static_cast<std::size_t>(d)] = d;
  return order;
}

}  // namespace oblivious
