// The d-dimensional mesh/torus network of Section 2 of the paper.
//
// The mesh M is a d-dimensional grid with side length m_i in dimension i
// and a link between each pair of neighboring nodes. `Mesh` provides the
// coordinate arithmetic every other module builds on: node <-> coordinate
// conversion, adjacency, L1 distances (wrap-aware on the torus), a stable
// undirected edge numbering, and boundary-edge counts out(M') for
// submeshes (used by the boundary-congestion lower bound).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mesh/types.hpp"
#include "util/check.hpp"

namespace oblivious {

class Region;  // defined in mesh/region.hpp

class Mesh {
 public:
  // `sides[i]` is the number of nodes along dimension i (all >= 1).
  // When `torus` is true every dimension wraps around.
  explicit Mesh(std::vector<std::int64_t> sides, bool torus = false);

  // Convenience factory: d dimensions of equal side length.
  static Mesh cube(int dim, std::int64_t side, bool torus = false);

  int dim() const { return static_cast<int>(sides_.size()); }
  std::int64_t side(int d) const { return sides_[static_cast<std::size_t>(d)]; }
  const std::vector<std::int64_t>& sides() const { return sides_; }
  bool torus() const { return torus_; }
  bool is_square() const;       // all sides equal
  bool sides_power_of_two() const;

  NodeId num_nodes() const { return num_nodes_; }
  EdgeId num_edges() const { return num_edges_; }

  // --- node <-> coordinate -------------------------------------------------
  NodeId node_id(const Coord& c) const;
  Coord coord(NodeId id) const;
  bool contains(const Coord& c) const;

  // Canonicalizes a coordinate onto the torus (per-dimension mod side).
  // Precondition: torus() is true, or the coordinate is already in range.
  Coord wrap(Coord c) const;

  // --- adjacency -----------------------------------------------------------
  // Neighbor of `u` one step along dimension `d` in direction `dir` (+1/-1).
  // Returns kInvalidNode when stepping off a non-torus boundary.
  NodeId step(NodeId u, int d, int dir) const;
  std::vector<NodeId> neighbors(NodeId u) const;
  bool adjacent(NodeId a, NodeId b) const;

  // --- distance ------------------------------------------------------------
  // L1 (shortest-path) distance; uses the shorter way around on the torus.
  std::int64_t distance(const Coord& a, const Coord& b) const;
  std::int64_t distance(NodeId a, NodeId b) const;
  // Per-dimension signed displacement of a shortest route from a to b
  // (magnitude <= side/2 on the torus).
  std::int64_t displacement(std::int64_t from, std::int64_t to, int d) const;
  // Maximum possible distance between any two nodes.
  std::int64_t diameter() const;

  // Node-id stride of a +1 step along dimension d.
  std::int64_t node_stride(int d) const {
    return node_strides_[static_cast<std::size_t>(d)];
  }

  // --- edges ---------------------------------------------------------------
  // First edge id of dimension d (edges are numbered dimension-major).
  EdgeId edge_dim_offset(int d) const {
    return edge_offsets_[static_cast<std::size_t>(d)];
  }
  // Edges per line along dimension d: side-1, or side when the dimension
  // wraps (torus with side > 2).
  std::int64_t edge_dim_radix(int d) const {
    return edge_dim_radix_[static_cast<std::size_t>(d)];
  }
  // Undirected edge between u and its +1 neighbor along dimension d.
  // On the torus this includes the wrap edge (coordinate side-1 -> 0).
  EdgeId edge_id(const Coord& u, int d) const;
  // Edge between two adjacent nodes (precondition: adjacent(a,b)).
  EdgeId edge_between(NodeId a, NodeId b) const;
  // Inverse of the numbering: endpoints (u, v) with v = u + e_d.
  std::pair<NodeId, NodeId> edge_endpoints(EdgeId e) const;
  // Dimension an edge runs along.
  int edge_dim(EdgeId e) const;

  // --- incremental walks ----------------------------------------------------
  // One hop of a node path.
  struct Hop {
    int dim = 0;
    int dir = 0;             // +1 or -1; the torus wrap side-1 -> 0 is +1
    std::int64_t lower = 0;  // coordinate along `dim` of the endpoint the
                             // edge is keyed at (side-1 for a wrap edge)
  };
  // Decodes the hop from the node at coordinate `cur` to the node `delta`
  // ids away -- a +-1 step along one dimension, or a torus wrap -- and
  // moves `cur` onto that node. Costs O(d), with no id->coord conversion.
  // \pre `cur` is a valid coordinate; a hop that is not a mesh edge throws.
  Hop decode_hop(Coord& cur, std::int64_t delta) const {
    Hop hop;
    OBLV_REQUIRE(try_decode_hop(cur, delta, hop), "path hop is not a mesh edge");
    return hop;
  }
  // Edge crossed by `hop`; `cur` is the coordinate of either endpoint.
  EdgeId hop_edge(const Coord& cur, const Hop& hop) const {
    const std::size_t d = static_cast<std::size_t>(hop.dim);
    const std::int64_t* strides = &edge_strides_[d * sides_.size()];
    EdgeId e = edge_offsets_[d] + hop.lower * strides[d];
    for (std::size_t i = 0; i < sides_.size(); ++i) {
      if (i != d) e += cur[i] * strides[i];
    }
    return e;
  }
  // Moves `cur` (the coordinate of node `id`) one unit along dimension d
  // in direction dir, wrapping on the torus, and returns the new node id:
  // id +- stride, or -+(side-1) * stride across a wrap. Throws when the
  // step leaves a non-torus mesh.
  NodeId walk_step(Coord& cur, NodeId id, int d, int dir) const {
    const std::size_t dd = static_cast<std::size_t>(d);
    const std::int64_t side = sides_[dd];
    std::int64_t next = cur[dd] + dir;
    if (torus_) {
      if (next < 0) next += side;
      if (next >= side) next -= side;
    }
    OBLV_REQUIRE(next >= 0 && next < side, "unit step leaves the mesh");
    const NodeId out = id + (next - cur[dd]) * node_strides_[dd];
    cur[dd] = next;
    return out;
  }

  // --- submesh boundaries ----------------------------------------------------
  // Number of edges crossing the boundary of the region: out(M') in the
  // paper's notation (Section 2).
  std::int64_t boundary_edge_count(const Region& r) const;

  std::string describe() const;

 private:
  // decode_hop without the throw: false when the hop is not a mesh edge.
  bool try_decode_hop(Coord& cur, std::int64_t delta, Hop& hop) const {
    for (std::size_t d = 0; d < sides_.size(); ++d) {
      const std::int64_t side = sides_[d];
      const std::int64_t s = node_strides_[d];
      hop.dim = static_cast<int>(d);
      if (delta == s && cur[d] + 1 < side) {
        hop.dir = 1;
        hop.lower = cur[d]++;
        return true;
      }
      if (delta == -s && cur[d] - 1 >= 0) {
        hop.dir = -1;
        hop.lower = --cur[d];
        return true;
      }
      if (torus_ && side > 2) {
        if (cur[d] == side - 1 && delta == -s * (side - 1)) {
          hop.dir = 1;  // wrap side-1 -> 0
          hop.lower = side - 1;
          cur[d] = 0;
          return true;
        }
        if (cur[d] == 0 && delta == s * (side - 1)) {
          hop.dir = -1;  // wrap 0 -> side-1
          hop.lower = side - 1;
          cur[d] = side - 1;
          return true;
        }
      }
    }
    return false;
  }

  std::vector<std::int64_t> sides_;
  bool torus_;
  NodeId num_nodes_ = 0;
  EdgeId num_edges_ = 0;
  // Mixed-radix strides for node_id computation: strides_[d] = prod of
  // sides_[d+1..].
  std::vector<std::int64_t> node_strides_;
  // Edge numbering: edges of dimension d occupy
  // [edge_offsets_[d], edge_offsets_[d+1]). Within a dimension, edges are
  // indexed by the coordinate of their lower endpoint in a mixed-radix
  // space where dimension d has radix side-1 (mesh) or side (torus).
  std::vector<EdgeId> edge_offsets_;
  std::vector<std::int64_t> edge_dim_radix_;  // side-1 or side, per dim
  // edge_strides_[d * dim + i]: weight of coordinate i in the index of a
  // dimension-d edge (the mixed radix above, row-major per d).
  std::vector<std::int64_t> edge_strides_;
};

}  // namespace oblivious
