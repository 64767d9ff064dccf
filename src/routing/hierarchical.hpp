// The paper's oblivious path-selection algorithms.
//
// AncestorRouter (Section 3): walks the bitonic access-graph path from the
// leaf of s up the type-1 hierarchy to the deepest common ancestor (the
// bridge, possibly a shifted submesh), then down to the leaf of t. In each
// submesh along the way it picks a uniformly random node and joins
// consecutive picks with a random-dimension-order one-bend path that stays
// inside the enclosing submesh. Two hierarchies:
//   * AccessGraph -- type-1 + diagonally shifted submeshes (the paper's 2D
//     algorithm; stretch <= 64 in 2D, O(2^d) in the direct d-dim
//     generalization).
//   * AccessTree -- type-1 only (the Maggs et al. [9] baseline): same
//     congestion behaviour, but the common ancestor of nearby nodes that
//     straddle a partition boundary can be the root, so stretch is
//     unbounded.
//
// NdRouter (Section 4): the d-dimensional algorithm. The bridge is not the
// deepest common ancestor but a shifted submesh at the prescribed height
// h+1 with side >= 4(d+1) dist(s,t) (Lemma 4.1 guarantees one of the
// Theta(d) shifted families contains the bounding box of s and t), which
// keeps every submesh on the bitonic path at least twice as large as its
// predecessor (condition (iii), Appendix A.1) and yields stretch O(d^2)
// and congestion O(d^2 C* log n).
//
// NdRouter's Frugal mode implements the bit-recycling scheme of Section
// 5.3: one random dimension order per packet, and two random nodes drawn
// in the bridge-sized box whose coordinate bits are reused (alternating)
// for all smaller submeshes -- O(d log(D d)) random bits per packet
// instead of the naive O(d log^2(D d)).
#pragma once

#include "decomposition/decomposition.hpp"
#include "routing/router.hpp"

namespace oblivious {

class AncestorRouter final : public Router {
 public:
  enum class Hierarchy {
    kAccessTree,   // type-1 submeshes only (Maggs et al. baseline)
    kAccessGraph,  // type-1 + shifted bridge submeshes (the paper)
  };

  AncestorRouter(const Mesh& mesh, Hierarchy hierarchy);

  void route_segments_into(NodeId s, NodeId t, Rng& rng, RouteScratch& scratch,
                           SegmentPath& out) const override;
  std::string name() const override;

  const Decomposition& decomposition() const { return decomp_; }

  // The bridge submesh this router would use for the pair (exposed for
  // analysis and the Lemma 3.3 experiments).
  RegularSubmesh bridge_for(NodeId s, NodeId t) const;

  // Resolves the bitonic chain for the pair in closed form from the two
  // node labels. The chain depends only on (s, t), never on a packet's
  // random bits. `bridge_level` is always 0 here (only NdRouter's frugal
  // mode consumes it).
  // \pre s != t, both node ids of this router's mesh.
  void resolve_plan(NodeId s, NodeId t, std::vector<Region>& chain,
                    std::size_t& up_count, int& bridge_level) const;

 private:
  RegularSubmesh bridge_at(const Coord& cs, const Coord& ct) const;
  // resolve_plan on the endpoints' coordinates.
  void resolve_plan_at(const Coord& cs, const Coord& ct,
                       std::vector<Region>& chain, std::size_t& up_count,
                       int& bridge_level) const;

  Decomposition decomp_;
  Hierarchy hierarchy_;
};

class NdRouter final : public Router {
 public:
  enum class RandomnessMode {
    kNaive,   // fresh random bits for every hop
    kFrugal,  // Section 5.3 bit recycling
  };

  // Section 4.1 places the bridge one height ABOVE the deepest level whose
  // side is >= 2(d+1) dist ("due to technical reasons explained in the
  // appendix"). kMinimal uses that deepest level itself -- an ablation
  // measuring what the extra level costs/buys (see bench_a1_ablations).
  enum class BridgeHeightMode {
    kPrescribed,  // h + 1, as in the paper
    kMinimal,     // h
  };

  explicit NdRouter(const Mesh& mesh,
                    RandomnessMode mode = RandomnessMode::kNaive,
                    BridgeHeightMode bridge_mode = BridgeHeightMode::kPrescribed);

  void route_segments_into(NodeId s, NodeId t, Rng& rng, RouteScratch& scratch,
                           SegmentPath& out) const override;
  std::string name() const override;

  const Decomposition& decomposition() const { return decomp_; }

  // Heights used for the pair: (h', bridge height), Section 4.1 notation.
  // \pre s != t (heights are defined for distinct nodes).
  std::pair<int, int> heights_for(NodeId s, NodeId t) const;
  // The bridge submesh selected for the pair.
  RegularSubmesh bridge_for(NodeId s, NodeId t) const;

  // Chain resolution for the pair; see AncestorRouter. The frugal draw
  // widths derive from `bridge_level` via decomposition().height_of.
  // \pre s != t, both node ids of this router's mesh.
  void resolve_plan(NodeId s, NodeId t, std::vector<Region>& chain,
                    std::size_t& up_count, int& bridge_level) const;

  RandomnessMode randomness_mode() const { return mode_; }

 private:
  // heights_for by the pair's distance.
  std::pair<int, int> heights_at(std::int64_t dist) const;
  // resolve_plan on the endpoints' coordinates.
  void resolve_plan_at(const Coord& cs, const Coord& ct,
                       std::vector<Region>& chain, std::size_t& up_count,
                       int& bridge_level) const;

  Decomposition decomp_;
  RandomnessMode mode_;
  BridgeHeightMode bridge_mode_;
};

}  // namespace oblivious
