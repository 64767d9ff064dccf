#include "mesh/mesh.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "mesh/region.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"

namespace oblivious {

Mesh::Mesh(std::vector<std::int64_t> sides, bool torus)
    : sides_(std::move(sides)), torus_(torus) {
  OBLV_REQUIRE(!sides_.empty(), "mesh needs at least one dimension");
  OBLV_REQUIRE(sides_.size() <= 16, "more than 16 dimensions is unsupported");
  num_nodes_ = 1;
  for (const std::int64_t s : sides_) {
    OBLV_REQUIRE(s >= 1, "every side length must be >= 1");
    OBLV_REQUIRE(num_nodes_ <= (std::int64_t{1} << 40) / s,
                 "mesh too large (> 2^40 nodes)");
    num_nodes_ *= s;
  }

  node_strides_.assign(sides_.size(), 1);
  for (std::size_t d = sides_.size(); d-- > 1;) {
    node_strides_[d - 1] = node_strides_[d] * sides_[d];
  }

  edge_offsets_.assign(sides_.size() + 1, 0);
  edge_dim_radix_.assign(sides_.size(), 0);
  for (std::size_t d = 0; d < sides_.size(); ++d) {
    // A torus dimension of side 1 or 2 would duplicate edges (self loop /
    // double edge); treat those as non-wrapping.
    const bool wraps = torus_ && sides_[d] > 2;
    edge_dim_radix_[d] = wraps ? sides_[d] : sides_[d] - 1;
    const std::int64_t edges_in_dim =
        edge_dim_radix_[d] * (num_nodes_ / sides_[d]);
    edge_offsets_[d + 1] = edge_offsets_[d] + edges_in_dim;
  }
  num_edges_ = edge_offsets_.back();

  const std::size_t dims = sides_.size();
  edge_strides_.assign(dims * dims, 1);
  for (std::size_t d = 0; d < dims; ++d) {
    for (std::size_t i = dims - 1; i-- > 0;) {
      const std::int64_t radix = (i + 1 == d) ? edge_dim_radix_[d] : sides_[i + 1];
      edge_strides_[d * dims + i] = edge_strides_[d * dims + i + 1] * radix;
    }
  }
}

Mesh Mesh::cube(int dim, std::int64_t side, bool torus) {
  OBLV_REQUIRE(dim >= 1, "dimension must be >= 1");
  return Mesh(std::vector<std::int64_t>(static_cast<std::size_t>(dim), side), torus);
}

bool Mesh::is_square() const {
  return std::all_of(sides_.begin(), sides_.end(),
                     [&](std::int64_t s) { return s == sides_[0]; });
}

bool Mesh::sides_power_of_two() const {
  return std::all_of(sides_.begin(), sides_.end(), [](std::int64_t s) {
    return is_power_of_two(static_cast<std::uint64_t>(s));
  });
}

NodeId Mesh::node_id(const Coord& c) const {
  OBLV_REQUIRE(c.size() == sides_.size(), "coordinate dimension mismatch");
  NodeId id = 0;
  for (std::size_t d = 0; d < sides_.size(); ++d) {
    OBLV_REQUIRE(c[d] >= 0 && c[d] < sides_[d], "coordinate out of range");
    id += c[d] * node_strides_[d];
  }
  return id;
}

Coord Mesh::coord(NodeId id) const {
  OBLV_REQUIRE(id >= 0 && id < num_nodes_, "node id out of range");
  Coord c;
  c.resize(sides_.size());
  for (std::size_t d = 0; d < sides_.size(); ++d) {
    c[d] = id / node_strides_[d];
    id %= node_strides_[d];
  }
  return c;
}

bool Mesh::contains(const Coord& c) const {
  if (c.size() != sides_.size()) return false;
  for (std::size_t d = 0; d < sides_.size(); ++d) {
    if (c[d] < 0 || c[d] >= sides_[d]) return false;
  }
  return true;
}

Coord Mesh::wrap(Coord c) const {
  OBLV_REQUIRE(c.size() == sides_.size(), "coordinate dimension mismatch");
  for (std::size_t d = 0; d < sides_.size(); ++d) {
    if (torus_) {
      c[d] = pos_mod(c[d], sides_[d]);
    } else {
      OBLV_REQUIRE(c[d] >= 0 && c[d] < sides_[d],
                   "coordinate out of range on non-torus mesh");
    }
  }
  return c;
}

NodeId Mesh::step(NodeId u, int d, int dir) const {
  OBLV_REQUIRE(d >= 0 && d < dim(), "dimension out of range");
  OBLV_REQUIRE(dir == 1 || dir == -1, "direction must be +1 or -1");
  const std::size_t dd = static_cast<std::size_t>(d);
  const std::int64_t side_d = sides_[dd];
  const std::int64_t cd = (u / node_strides_[dd]) % side_d;
  std::int64_t nd = cd + dir;
  if (nd < 0 || nd >= side_d) {
    if (!torus_ || side_d <= 2) return kInvalidNode;
    nd = pos_mod(nd, side_d);
  }
  return u + (nd - cd) * node_strides_[dd];
}

std::vector<NodeId> Mesh::neighbors(NodeId u) const {
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(2 * dim()));
  for (int d = 0; d < dim(); ++d) {
    for (int dir : {-1, 1}) {
      const NodeId v = step(u, d, dir);
      if (v != kInvalidNode && v != u) out.push_back(v);
    }
  }
  // A torus of side 2 reaches the same neighbor both ways; deduplicate.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool Mesh::adjacent(NodeId a, NodeId b) const {
  OBLV_REQUIRE(b >= 0 && b < num_nodes_, "node id out of range");
  Coord cur = coord(a);
  Hop hop;
  return try_decode_hop(cur, b - a, hop);
}

std::int64_t Mesh::displacement(std::int64_t from, std::int64_t to, int d) const {
  const std::int64_t side_d = sides_[static_cast<std::size_t>(d)];
  std::int64_t delta = to - from;
  if (torus_) {
    // Shift into (-side/2, side/2]: the shorter way around.
    delta = pos_mod(delta, side_d);
    if (delta * 2 > side_d) delta -= side_d;
  }
  return delta;
}

std::int64_t Mesh::distance(const Coord& a, const Coord& b) const {
  OBLV_REQUIRE(a.size() == sides_.size() && b.size() == sides_.size(),
               "coordinate dimension mismatch");
  std::int64_t dist = 0;
  for (int d = 0; d < dim(); ++d) {
    dist += std::abs(displacement(a[static_cast<std::size_t>(d)],
                                  b[static_cast<std::size_t>(d)], d));
  }
  return dist;
}

std::int64_t Mesh::distance(NodeId a, NodeId b) const {
  return distance(coord(a), coord(b));
}

std::int64_t Mesh::diameter() const {
  std::int64_t diam = 0;
  for (const std::int64_t s : sides_) {
    diam += torus_ ? s / 2 : s - 1;
  }
  return diam;
}

EdgeId Mesh::edge_id(const Coord& u, int d) const {
  OBLV_REQUIRE(d >= 0 && d < dim(), "dimension out of range");
  const std::size_t dd = static_cast<std::size_t>(d);
  OBLV_REQUIRE(u.size() == sides_.size(), "coordinate dimension mismatch");
  OBLV_REQUIRE(u[dd] >= 0 && u[dd] < edge_dim_radix_[dd],
               "no +edge from this coordinate in this dimension");
  for (std::size_t i = 0; i < sides_.size(); ++i) {
    OBLV_REQUIRE(u[i] >= 0 && u[i] < sides_[i], "coordinate out of range");
  }
  return hop_edge(u, Hop{d, 1, u[dd]});
}

EdgeId Mesh::edge_between(NodeId a, NodeId b) const {
  Coord cur = coord(a);
  Hop hop;
  OBLV_REQUIRE(try_decode_hop(cur, b - a, hop),
               "edge_between requires adjacent nodes");
  return hop_edge(cur, hop);
}

std::pair<NodeId, NodeId> Mesh::edge_endpoints(EdgeId e) const {
  OBLV_REQUIRE(e >= 0 && e < num_edges_, "edge id out of range");
  const int d = edge_dim(e);
  const std::size_t dd = static_cast<std::size_t>(d);
  EdgeId idx = e - edge_offsets_[dd];
  Coord u;
  u.resize(sides_.size());
  for (std::size_t i = sides_.size(); i-- > 0;) {
    const std::int64_t radix = (i == dd) ? edge_dim_radix_[i] : sides_[i];
    u[i] = idx % radix;
    idx /= radix;
  }
  const NodeId a = node_id(u);
  const NodeId b = step(a, d, 1);
  OBLV_CHECK(b != kInvalidNode, "edge endpoint off the mesh");
  return {a, b};
}

int Mesh::edge_dim(EdgeId e) const {
  OBLV_REQUIRE(e >= 0 && e < num_edges_, "edge id out of range");
  for (int d = 0; d < dim(); ++d) {
    if (e < edge_offsets_[static_cast<std::size_t>(d) + 1]) return d;
  }
  OBLV_UNREACHABLE("edge id not in any dimension range");
}

std::int64_t Mesh::boundary_edge_count(const Region& r) const {
  OBLV_REQUIRE(r.dim() == dim(), "region dimension mismatch");
  std::int64_t total = 0;
  const std::int64_t vol = r.volume();
  for (int d = 0; d < dim(); ++d) {
    const std::int64_t side_d = sides_[static_cast<std::size_t>(d)];
    const std::int64_t ext = r.extent_at(d);
    OBLV_REQUIRE(ext >= 1 && ext <= side_d, "region extent out of range");
    if (ext == side_d) continue;  // spans the whole dimension: no faces out
    const std::int64_t cross_section = vol / ext;
    if (torus_ && side_d > 2) {
      // Both faces always have outgoing wrap-aware edges.
      total += 2 * cross_section;
    } else {
      const std::int64_t lo = r.anchor_at(d);
      const std::int64_t hi = lo + ext - 1;
      OBLV_REQUIRE(lo >= 0 && hi < side_d, "region out of mesh bounds");
      if (lo > 0) total += cross_section;
      if (hi < side_d - 1) total += cross_section;
    }
  }
  return total;
}

std::string Mesh::describe() const {
  std::ostringstream os;
  os << (torus_ ? "torus" : "mesh") << "[";
  for (std::size_t d = 0; d < sides_.size(); ++d) {
    if (d > 0) os << "x";
    os << sides_[d];
  }
  os << "] (" << num_nodes_ << " nodes, " << num_edges_ << " edges)";
  return os.str();
}

}  // namespace oblivious
