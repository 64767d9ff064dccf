#include "routing/baselines.hpp"

#include "routing/one_bend.hpp"
#include "util/check.hpp"

namespace oblivious {

void DimensionOrderRouter::route_segments_into(NodeId s, NodeId t,
                                               Rng& /*rng*/,
                                               RouteScratch& /*scratch*/,
                                               SegmentPath& out) const {
  expects_route_args(s, t);
  out.reset(s, t);
  const auto order = identity_order(mesh_->dim());
  append_dim_order_segments(*mesh_, mesh_->coord(s), mesh_->coord(t),
                            std::span<const int>(order.data(), order.size()),
                            out);
  ensures_route_result(s, t, out);
}

void RandomDimOrderRouter::route_segments_into(NodeId s, NodeId t, Rng& rng,
                                               RouteScratch& /*scratch*/,
                                               SegmentPath& out) const {
  expects_route_args(s, t);
  out.reset(s, t);
  const auto order = rng.random_permutation(mesh_->dim());
  append_dim_order_segments(*mesh_, mesh_->coord(s), mesh_->coord(t),
                            std::span<const int>(order.data(), order.size()),
                            out);
  ensures_route_result(s, t, out);
}

void ValiantRouter::route_segments_into(NodeId s, NodeId t, Rng& rng,
                                        RouteScratch& /*scratch*/,
                                        SegmentPath& out) const {
  expects_route_args(s, t);
  out.reset(s, t);
  if (s == t) return;
  const Coord cs = mesh_->coord(s);
  const Coord ct = mesh_->coord(t);
  const Region whole = Region::whole(*mesh_);
  const Coord mid = whole.random_coord(*mesh_, rng);
  const auto order1 = rng.random_permutation(mesh_->dim());
  append_dim_order_segments(*mesh_, cs, mid,
                            std::span<const int>(order1.data(), order1.size()),
                            out);
  const auto order2 = rng.random_permutation(mesh_->dim());
  append_dim_order_segments(*mesh_, mid, ct,
                            std::span<const int>(order2.data(), order2.size()),
                            out);
  ensures_route_result(s, t, out);
}

}  // namespace oblivious
