#include "routing/one_bend.hpp"

#include "util/check.hpp"

namespace oblivious {

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
    // Move monotonically in offset space: stays inside the region even
    // when the region wraps around the torus.
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
