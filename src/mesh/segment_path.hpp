// Compact segment representation of mesh paths.
//
// The paper's routers produce bitonic one-bend chains: a handful of
// maximal axis-aligned straight runs per packet. SegmentPath stores
// exactly that -- the source node plus one {dimension, signed run}
// entry per maximal run -- instead of the full node sequence, so a
// path of length L on a d-dimensional mesh costs O(#segments) ~ O(d)
// space for the one-bend routers rather than O(L). Conversion to and
// from the node-list `Path` is lossless; the measurement pipeline
// (EdgeLoadMap::add_segments, route_all_segments) consumes segments
// directly and never materializes nodes.
#pragma once

#include <cstdint>

#include "mesh/path.hpp"
#include "mesh/types.hpp"
#include "util/small_vec.hpp"

namespace oblivious {

class Mesh;

// One maximal straight run: `run` unit steps along `dim`, in direction
// sign(run). On the torus steps wrap; |run| may exceed the side length
// when a path laps a dimension (only possible for hand-built paths --
// the routers never lap).
struct Segment {
  std::int32_t dim = 0;
  std::int64_t run = 0;

  bool operator==(const Segment& other) const = default;
};

struct SegmentPath {
  NodeId source = kInvalidNode;
  // Cached destination: converters compute it, routers set it directly.
  NodeId dest = kInvalidNode;
  SmallVec<Segment, 8> segments;

  NodeId destination() const { return dest; }
  // Number of edges (counting repeats when a run backtracks or laps).
  std::int64_t length() const {
    std::int64_t total = 0;
    for (const Segment& s : segments) total += std::abs(s.run);
    return total;
  }
  bool empty() const { return source == kInvalidNode; }

  // Starts the empty path from s to t, keeping the runs' capacity.
  void reset(NodeId s, NodeId t) {
    segments.clear();
    source = s;
    dest = t;
  }

  // Appends a run, merging with the last segment when it continues in
  // the same dimension and direction (keeps runs maximal). run == 0 is
  // a no-op.
  void append(int dim, std::int64_t run) {
    if (run == 0) return;
    if (!segments.empty() && segments.back().dim == dim &&
        (segments.back().run > 0) == (run > 0)) {
      segments.back().run += run;
      return;
    }
    segments.push_back(Segment{static_cast<std::int32_t>(dim), run});
  }

  bool operator==(const SegmentPath& other) const {
    return source == other.source && dest == other.dest &&
           segments == other.segments;
  }
};

// Lossless converters. segments_from_path derives each hop's dimension
// and direction and merges maximal runs; path_from_segments replays the
// runs into the full node sequence (wrap-aware on the torus).
// path_from_segments_into is the in-place expansion every node list is
// built with: it overwrites `out`, keeping its heap capacity.
// \pre the input path / segment path is non-empty, every hop is a mesh
// edge, and replayed runs stay on the mesh.
SegmentPath segments_from_path(const Mesh& mesh, const Path& path);
Path path_from_segments(const Mesh& mesh, const SegmentPath& sp);
void path_from_segments_into(const Mesh& mesh, const SegmentPath& sp,
                             Path& out);

// True when the path is non-empty, starts and ends at its recorded
// endpoints, and every run stays on the mesh (wrap-aware).
bool is_valid_segment_path(const Mesh& mesh, const SegmentPath& sp);

// stretch = length / dist(source, dest); 1.0 for zero-length paths.
// \pre the segment path is non-empty.
double segment_path_stretch(const Mesh& mesh, const SegmentPath& sp);

}  // namespace oblivious
