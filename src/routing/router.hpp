// Oblivious path-selection interface.
//
// A router is *oblivious*: the path for a packet depends only on its own
// source, destination, and private random bits -- never on other packets
// (Section 1). Implementations must therefore be callable independently
// per packet, which also makes them trivially parallel.
//
// Every path the paper's routers build is a few straight runs (the
// one-bend subpaths of Section 3.3, step 7), so a router implements one
// emission function, `route_segments_into`, which writes that compact
// segment form (source + maximal axis-aligned runs) into a caller-owned
// output and threads a RouteScratch for intermediate buffers. The other
// entry points are derived from it in this base class: `route_into`
// expands the segments into the node list in place, and `route` /
// `route_segments` are allocating conveniences. All four draw the same
// randomness, so with equal rng state they describe the same path; the
// measurement pipeline consumes segments, the simulator consumes nodes
// (DESIGN.md section 8).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mesh/contracts.hpp"
#include "mesh/mesh.hpp"
#include "mesh/path.hpp"
#include "mesh/segment_path.hpp"
#include "rng/rng.hpp"
#include "routing/route_scratch.hpp"
#include "util/contracts.hpp"

namespace oblivious {

class Router {
 public:
  explicit Router(const Mesh& mesh) : mesh_(&mesh) {}
  virtual ~Router() = default;

  const Mesh& mesh() const { return *mesh_; }

  // Selects a path from s to t and writes its segment form into `out`,
  // clearing its previous content but keeping its heap capacity; `scratch`
  // holds intermediate state. The same (s, t, rng state) always yields
  // the same path; randomized routers draw all their randomness from `rng`
  // so that attaching a BitMeter measures their per-packet bit consumption.
  // \pre s and t are node ids of this router's mesh.
  // \post `out` is a valid segment path from s to t.
  virtual void route_segments_into(NodeId s, NodeId t, Rng& rng,
                                   RouteScratch& scratch,
                                   SegmentPath& out) const = 0;

  // The same path as a node list: the segments are staged in
  // scratch.segments (overwriting it) and expanded in place into `out`.
  // \pre s and t are node ids of this router's mesh.
  void route_into(NodeId s, NodeId t, Rng& rng, RouteScratch& scratch,
                  Path& out) const {
    route_segments_into(s, t, rng, scratch, scratch.segments);
    path_from_segments_into(*mesh_, scratch.segments, out);
    ensures_route_result(s, t, out);
  }

  // Allocating conveniences over the two entry points above.
  // \pre s and t are node ids of this router's mesh.
  Path route(NodeId s, NodeId t, Rng& rng) const {
    RouteScratch scratch;
    Path path;
    route_into(s, t, rng, scratch, path);
    return path;
  }
  SegmentPath route_segments(NodeId s, NodeId t, Rng& rng) const {
    RouteScratch scratch;
    SegmentPath sp;
    route_segments_into(s, t, rng, scratch, sp);
    return sp;
  }

  virtual std::string name() const = 0;

  // True for kappa = 1 algorithms (Section 5: a deterministic algorithm
  // fixes the path given source and destination).
  virtual bool deterministic() const { return false; }

 protected:
  // Shared contracts for every route_segments_into implementation; all
  // compile out with the contract macros (default Release: zero cost).
  void expects_route_args(NodeId s, NodeId t) const {
    OBLV_EXPECTS(s >= 0 && s < mesh_->num_nodes(), "source off the mesh");
    OBLV_EXPECTS(t >= 0 && t < mesh_->num_nodes(), "destination off the mesh");
  }
  void ensures_route_result(NodeId s, NodeId t, const Path& p) const {
    OBLV_ENSURES(contracts::validate_path_endpoints(p, s, t),
                 "route must connect exactly (s, t)");
    OBLV_ENSURES(contracts::validate_path_in_mesh(*mesh_, p),
                 "route must follow mesh edges");
  }
  void ensures_route_result(NodeId s, NodeId t, const SegmentPath& sp) const {
    OBLV_ENSURES(contracts::validate_segment_path_endpoints(sp, s, t),
                 "route_segments must connect exactly (s, t)");
    OBLV_ENSURES(contracts::validate_segment_path(*mesh_, sp),
                 "route_segments must stay on the mesh");
  }

  const Mesh* mesh_;
};

}  // namespace oblivious
