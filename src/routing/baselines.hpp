// Baseline oblivious path-selection algorithms.
//
//  * DimensionOrderRouter -- deterministic e-cube (XY) routing: correct
//    dimension 0 first, then 1, ... This is the classic kappa = 1
//    algorithm whose congestion the Section 5.1 construction shows is
//    Omega(D/d) in the worst case.
//  * RandomDimOrderRouter -- the same one-bend routes but the order of
//    dimensions is a fresh random permutation per packet (the randomized
//    dimension-by-dimension routing the paper builds on).
//  * ValiantRouter -- Valiant-Brebner routing: a uniformly random
//    intermediate node in the whole mesh, dimension-order on both legs.
//    Near-optimal congestion for worst-case permutations but stretch
//    Theta(diameter / dist): locality is destroyed.
#pragma once

#include "routing/router.hpp"

namespace oblivious {

class DimensionOrderRouter final : public Router {
 public:
  explicit DimensionOrderRouter(const Mesh& mesh) : Router(mesh) {}

  void route_segments_into(NodeId s, NodeId t, Rng& rng, RouteScratch& scratch,
                           SegmentPath& out) const override;
  std::string name() const override { return "ecube"; }
  bool deterministic() const override { return true; }
};

class RandomDimOrderRouter final : public Router {
 public:
  explicit RandomDimOrderRouter(const Mesh& mesh) : Router(mesh) {}

  void route_segments_into(NodeId s, NodeId t, Rng& rng, RouteScratch& scratch,
                           SegmentPath& out) const override;
  std::string name() const override { return "random-dim-order"; }
};

class ValiantRouter final : public Router {
 public:
  explicit ValiantRouter(const Mesh& mesh) : Router(mesh) {}

  void route_segments_into(NodeId s, NodeId t, Rng& rng, RouteScratch& scratch,
                           SegmentPath& out) const override;
  std::string name() const override { return "valiant"; }
};

}  // namespace oblivious
