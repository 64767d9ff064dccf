#include "routing/kchoice.hpp"

#include "util/check.hpp"

namespace oblivious {

namespace {

const Mesh& inner_mesh(const std::unique_ptr<Router>& inner) {
  OBLV_REQUIRE(inner != nullptr, "inner router required");
  return inner->mesh();
}

}  // namespace

KChoiceRouter::KChoiceRouter(std::unique_ptr<Router> inner, int kappa,
                             std::uint64_t table_seed)
    : Router(inner_mesh(inner)),
      inner_(std::move(inner)),
      kappa_(kappa),
      table_seed_(table_seed) {
  OBLV_REQUIRE(kappa_ >= 1, "kappa must be >= 1");
}

std::uint64_t KChoiceRouter::pair_seed(NodeId s, NodeId t, int index) const {
  std::uint64_t x = table_seed_;
  x = splitmix64(x ^ static_cast<std::uint64_t>(s));
  x = splitmix64(x ^ static_cast<std::uint64_t>(t));
  x = splitmix64(x ^ static_cast<std::uint64_t>(index));
  return x;
}

Path KChoiceRouter::alternative(NodeId s, NodeId t, int index) const {
  OBLV_REQUIRE(index >= 0 && index < kappa_, "alternative index out of range");
  // The alternative table is fixed: the inner router's randomness comes
  // from a deterministic per-(pair, index) seed and is NOT charged to the
  // packet's bit budget -- the table is part of the algorithm description,
  // exactly as in the Section 5 model.
  Rng inner_rng(pair_seed(s, t, index));
  return inner_->route(s, t, inner_rng);
}

void KChoiceRouter::route_segments_into(NodeId s, NodeId t, Rng& rng,
                                        RouteScratch& scratch,
                                        SegmentPath& out) const {
  expects_route_args(s, t);
  // One index choice from the packet's rng; the inner router then runs on
  // the fixed per-(pair, index) seed.
  const int index =
      static_cast<int>(rng.uniform_below(static_cast<std::uint64_t>(kappa_)));
  Rng inner_rng(pair_seed(s, t, index));
  inner_->route_segments_into(s, t, inner_rng, scratch, out);
  ensures_route_result(s, t, out);
}

std::string KChoiceRouter::name() const {
  return inner_->name() + "-k" + std::to_string(kappa_);
}

}  // namespace oblivious
