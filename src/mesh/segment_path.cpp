#include "mesh/segment_path.hpp"

#include <cstdlib>

#include "mesh/mesh.hpp"
#include "util/check.hpp"

namespace oblivious {

SegmentPath segments_from_path(const Mesh& mesh, const Path& path) {
  OBLV_REQUIRE(!path.nodes.empty(), "cannot convert an empty path");
  SegmentPath sp;
  sp.source = path.nodes.front();
  sp.dest = path.nodes.back();
  if (path.nodes.size() < 2) return sp;
  Coord cur = mesh.coord(sp.source);
  for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
    const Mesh::Hop hop =
        mesh.decode_hop(cur, path.nodes[i + 1] - path.nodes[i]);
    sp.append(hop.dim, hop.dir);
  }
  return sp;
}

Path path_from_segments(const Mesh& mesh, const SegmentPath& sp) {
  Path path;
  path_from_segments_into(mesh, sp, path);
  return path;
}

void path_from_segments_into(const Mesh& mesh, const SegmentPath& sp,
                             Path& out) {
  OBLV_REQUIRE(!sp.empty(), "cannot convert an empty segment path");
  out.nodes.clear();
  out.nodes.reserve(static_cast<std::size_t>(sp.length()) + 1);
  out.nodes.push_back(sp.source);
  Coord cur = mesh.coord(sp.source);
  NodeId id = sp.source;
  for (const Segment& seg : sp.segments) {
    OBLV_REQUIRE(seg.dim >= 0 && seg.dim < mesh.dim(),
                 "segment dimension out of range");
    const int dir = seg.run > 0 ? 1 : -1;
    const std::int64_t steps = std::abs(seg.run);
    for (std::int64_t i = 0; i < steps; ++i) {
      id = mesh.walk_step(cur, id, seg.dim, dir);
      out.nodes.push_back(id);
    }
  }
  OBLV_REQUIRE(out.nodes.back() == sp.dest,
               "segment path destination mismatch");
}

bool is_valid_segment_path(const Mesh& mesh, const SegmentPath& sp) {
  if (sp.empty()) return false;
  if (sp.source < 0 || sp.source >= mesh.num_nodes()) return false;
  if (sp.dest < 0 || sp.dest >= mesh.num_nodes()) return false;
  Coord cur = mesh.coord(sp.source);
  for (const Segment& seg : sp.segments) {
    if (seg.dim < 0 || seg.dim >= mesh.dim() || seg.run == 0) return false;
    if (!mesh.advance_run(cur, seg.dim, seg.run)) return false;
  }
  return mesh.node_id(cur) == sp.dest;
}

double segment_path_stretch(const Mesh& mesh, const SegmentPath& sp) {
  OBLV_REQUIRE(!sp.empty(), "stretch of an empty segment path");
  const std::int64_t dist = mesh.distance(sp.source, sp.dest);
  if (dist == 0) return 1.0;
  return static_cast<double>(sp.length()) / static_cast<double>(dist);
}

}  // namespace oblivious
