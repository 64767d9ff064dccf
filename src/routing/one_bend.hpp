// Dimension-by-dimension shortest subpaths (the "at most one-bend paths"
// of Section 3.3, step 7).
//
// A subpath between two intermediate nodes corrects the coordinates one
// dimension at a time, in a caller-supplied order; with a random order
// this is the randomized dimension-by-dimension routing the paper uses
// for every hop of the bitonic path.
#pragma once

#include <span>

#include "mesh/mesh.hpp"
#include "mesh/region.hpp"
#include "mesh/segment_path.hpp"

namespace oblivious {

// Appends to `sp` a dimension-order shortest path from `from` to `to`:
// one run per corrected dimension, in the order given. On the torus each
// dimension takes the shorter way around. Precondition: the segment path
// currently ends at `from` (the caller tracks the cursor).
void append_dim_order_segments(const Mesh& mesh, const Coord& from,
                               const Coord& to, std::span<const int> order,
                               SegmentPath& sp);

// Same, but the subpath is guaranteed to stay inside `region`: movement
// happens in the region's offset space, which matters on the torus where
// the globally shorter way around may leave the region. Both endpoints
// must lie in the region.
void append_segments_in_region(const Mesh& mesh, const Region& region,
                               const Coord& from, const Coord& to,
                               std::span<const int> order, SegmentPath& sp);

// Identity order {0, 1, ..., d-1}.
SmallVec<int, 8> identity_order(int dim);

}  // namespace oblivious
