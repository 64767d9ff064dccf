// Bounded (locality-preserving) Valiant routing.
//
// A folklore fix for Valiant-Brebner's diameter-scale stretch: pick the
// random intermediate node inside the bounding box of source and
// destination instead of the whole mesh. Stretch is then at most 3, but
// the congestion guarantee degrades -- for traffic concentrated in a thin
// slab the box is thin and the randomization cannot spread load across the
// orthogonal dimension, which is exactly the gap the paper's bridge
// submeshes close (the bridge is a *square* region of side O(d dist), not
// the skewed bounding box). Included as a baseline so the experiments can
// show the difference.
#pragma once

#include "routing/router.hpp"

namespace oblivious {

class BoundedValiantRouter final : public Router {
 public:
  // `margin` inflates the bounding box by margin * dist(s, t) nodes per
  // side (clipped to the mesh): 0 is the pure bounding box.
  // \pre margin >= 0.
  explicit BoundedValiantRouter(const Mesh& mesh, double margin = 0.0);

  void route_segments_into(NodeId s, NodeId t, Rng& rng, RouteScratch& scratch,
                           SegmentPath& out) const override;
  std::string name() const override;

  // The sampling region for a pair (exposed for tests).
  Region box_for(NodeId s, NodeId t) const;

 private:
  double margin_;
};

}  // namespace oblivious
