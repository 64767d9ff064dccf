// Uniformly random shortest ("staircase") paths.
//
// At every hop the next dimension is drawn with probability proportional
// to its remaining displacement, which makes the walk a uniform sample
// from ALL monotone shortest paths between s and t (not just the 2d
// one-bend ones). Stretch is exactly 1; congestion behaves like
// randomized dimension-order but with finer-grained spreading inside the
// bounding box. Used as a baseline and as the candidate generator of the
// offline comparator.
#pragma once

#include "routing/router.hpp"

namespace oblivious {

class RandomStaircaseRouter final : public Router {
 public:
  explicit RandomStaircaseRouter(const Mesh& mesh) : Router(mesh) {}

  void route_segments_into(NodeId s, NodeId t, Rng& rng, RouteScratch& scratch,
                           SegmentPath& out) const override;
  std::string name() const override { return "staircase"; }
};

}  // namespace oblivious
