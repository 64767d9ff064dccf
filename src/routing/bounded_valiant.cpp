#include "routing/bounded_valiant.hpp"

#include <algorithm>
#include <cmath>

#include "routing/one_bend.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"

namespace oblivious {

BoundedValiantRouter::BoundedValiantRouter(const Mesh& mesh, double margin)
    : Router(mesh), margin_(margin) {
  OBLV_REQUIRE(margin >= 0.0, "margin must be non-negative");
}

std::string BoundedValiantRouter::name() const {
  return margin_ == 0.0 ? "bounded-valiant"
                        : "bounded-valiant-m" +
                              std::to_string(static_cast<int>(margin_ * 10));
}

Region BoundedValiantRouter::box_for(NodeId s, NodeId t) const {
  const Coord cs = mesh_->coord(s);
  const Coord ct = mesh_->coord(t);
  const std::int64_t dist = mesh_->distance(cs, ct);
  const std::int64_t pad =
      static_cast<std::int64_t>(std::ceil(margin_ * static_cast<double>(dist)));
  Coord anchor;
  Coord extent;
  anchor.resize(cs.size());
  extent.resize(cs.size());
  for (int d = 0; d < mesh_->dim(); ++d) {
    const std::size_t dd = static_cast<std::size_t>(d);
    const std::int64_t side = mesh_->side(d);
    // Span from cs along the (torus-aware) shortest displacement to ct.
    const std::int64_t delta = mesh_->displacement(cs[dd], ct[dd], d);
    std::int64_t lo = std::min<std::int64_t>(cs[dd], cs[dd] + delta) - pad;
    std::int64_t hi = std::max<std::int64_t>(cs[dd], cs[dd] + delta) + pad;
    if (mesh_->torus()) {
      const std::int64_t span = std::min(hi - lo + 1, side);
      anchor[dd] = pos_mod(lo, side);
      extent[dd] = span;
    } else {
      lo = std::max<std::int64_t>(lo, 0);
      hi = std::min<std::int64_t>(hi, side - 1);
      anchor[dd] = lo;
      extent[dd] = hi - lo + 1;
    }
  }
  return Region(std::move(anchor), std::move(extent));
}

void BoundedValiantRouter::route_segments_into(NodeId s, NodeId t, Rng& rng,
                                               RouteScratch& /*scratch*/,
                                               SegmentPath& out) const {
  expects_route_args(s, t);
  out.reset(s, t);
  if (s == t) return;
  const Coord cs = mesh_->coord(s);
  const Coord ct = mesh_->coord(t);
  const Region box = box_for(s, t);
  const Coord mid = box.random_coord(*mesh_, rng);

  const auto order1 = rng.random_permutation(mesh_->dim());
  append_segments_in_region(*mesh_, box, cs, mid,
                            std::span<const int>(order1.data(), order1.size()),
                            out);
  const auto order2 = rng.random_permutation(mesh_->dim());
  append_segments_in_region(*mesh_, box, mid, ct,
                            std::span<const int>(order2.data(), order2.size()),
                            out);
  ensures_route_result(s, t, out);
}

}  // namespace oblivious
