// The kappa-choice algorithm model of Section 5.
//
// A path-selection algorithm A is a kappa-choice algorithm if for every
// pair (s, t) it picks the path from kappa fixed alternatives, using
// log2(kappa) random bits. kappa = 1 is a deterministic algorithm; the
// paper's lower bound (Lemma 5.1) says any kappa-choice algorithm suffers
// expected congestion >= l / (kappa d) on its adversarial instance Pi_A,
// so near-optimal congestion needs kappa (and hence the per-packet random
// bits) to grow with the network.
//
// KChoiceRouter turns any randomized router into a kappa-choice algorithm:
// the kappa alternatives for (s, t) are the paths the inner router
// produces from kappa deterministic per-pair seeds, and the only true
// randomness spent per packet is the log2(kappa)-bit index choice. This
// lets the experiments interpolate between deterministic routing and the
// full algorithm and measure congestion as a function of the random-bit
// budget (experiment E10).
#pragma once

#include <memory>

#include "routing/router.hpp"

namespace oblivious {

class KChoiceRouter final : public Router {
 public:
  // `table_seed` fixes the alternative table (two routers with the same
  // inner algorithm, kappa, and table_seed offer identical alternatives).
  // \pre inner != nullptr and kappa >= 1.
  KChoiceRouter(std::unique_ptr<Router> inner, int kappa,
                std::uint64_t table_seed = 0x5eedUL);

  void route_segments_into(NodeId s, NodeId t, Rng& rng, RouteScratch& scratch,
                           SegmentPath& out) const override;
  std::string name() const override;
  bool deterministic() const override { return kappa_ == 1; }

  int kappa() const { return kappa_; }
  const Router& inner() const { return *inner_; }

  // The i-th fixed alternative for the pair (exposed for analysis).
  // \pre 0 <= index < kappa().
  Path alternative(NodeId s, NodeId t, int index) const;

 private:
  std::uint64_t pair_seed(NodeId s, NodeId t, int index) const;

  std::unique_ptr<Router> inner_;
  int kappa_;
  std::uint64_t table_seed_;
};

}  // namespace oblivious
