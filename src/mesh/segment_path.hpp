// Compact segment representation of mesh paths.
//
// The paper's routers produce bitonic one-bend chains: a handful of
// maximal axis-aligned straight runs per packet. SegmentPath stores
// exactly that -- the source node plus one {dimension, signed run}
// entry per maximal run -- instead of the full node sequence, so a
// path of length L on a d-dimensional mesh costs O(#segments) ~ O(d)
// space for the one-bend routers rather than O(L). Conversion to and
// from the node-list `Path` is lossless; load accounting consumes
// segments directly through for_each_line_range and never materializes
// nodes.
#pragma once

#include <cstdint>
#include <cstdlib>

#include "mesh/mesh.hpp"
#include "mesh/path.hpp"
#include "mesh/types.hpp"
#include "util/check.hpp"
#include "util/small_vec.hpp"

namespace oblivious {

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

// The one split of a segment path into edge ranges, for both load
// accountants. Calls on_range(dim, line, lo, hi, count) for each range of
// positions [lo, hi) of a line (Mesh::line_index / line_edge) that the
// runs cross, charging each of its edges `count` times, and after each
// run on_segment(dim, line, |run|). Per run the ranges come in this
// order, which conservative count-min updates depend on: on a wrapping
// torus dimension, whole laps as one full-line range (count = laps),
// then the remainder as [start, side) and [0, rest) when it wraps; on a
// side-2 torus dimension, the line's single edge (position 0) |run|
// times; otherwise the one range the run covers. Empty ranges are
// skipped. Throws when a run is along a side-1 dimension or leaves the
// mesh, and when the runs do not end at sp.dest.
// \pre `sp` is non-empty and every segment dimension is in range.
template <typename OnRange, typename OnSegment>
inline void for_each_line_range(const Mesh& mesh, const SegmentPath& sp,
                                OnRange&& on_range, OnSegment&& on_segment) {
  Coord cur = mesh.coord(sp.source);
  for (const Segment& seg : sp.segments) {
    const int d = seg.dim;
    const std::size_t dd = static_cast<std::size_t>(d);
    const std::int64_t side = mesh.side(d);
    OBLV_REQUIRE(mesh.edge_dim_radix(d) > 0,
                 "segment along a side-1 dimension");
    const std::int64_t k = std::abs(seg.run);
    const std::int64_t line = mesh.line_index(cur, d);
    const std::int64_t from = cur[dd];
    OBLV_REQUIRE(mesh.advance_run(cur, d, seg.run),
                 "segment run leaves the mesh");
    const auto emit = [&](std::int64_t lo, std::int64_t hi,
                          std::int64_t count) {
      if (lo < hi) on_range(d, line, lo, hi, count);
    };
    // A backward run covers the positions from its end up to its start.
    const std::int64_t lo = seg.run > 0 ? from : cur[dd];
    if (mesh.torus() && side > 2) {
      if (k >= side) emit(0, side, k / side);
      const std::int64_t rem = k % side;
      if (lo + rem <= side) {
        emit(lo, lo + rem, 1);
      } else {
        emit(lo, side, 1);
        emit(0, lo + rem - side, 1);
      }
    } else if (mesh.torus() && side == 2) {
      emit(0, 1, k);
    } else {
      emit(lo, lo + k, 1);
    }
    on_segment(d, line, k);
  }
  OBLV_CHECK(mesh.node_id(cur) == sp.dest,
             "segment path destination mismatch");
}

// stretch = length / dist(source, dest); 1.0 for zero-length paths.
// \pre the segment path is non-empty.
double segment_path_stretch(const Mesh& mesh, const SegmentPath& sp);

}  // namespace oblivious
