#include "probes.hpp"

#include <algorithm>

#include "analysis/congestion.hpp"
#include "analysis/lower_bound.hpp"
#include "mesh/contracts.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/soa_batch.hpp"
#include "routing/hierarchical.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace oblivious;

namespace {

// Calls `f` with the concrete hierarchical router behind `router`.
template <typename F>
void visit_hierarchical(const Router& router, F&& f) {
  if (const auto* a = dynamic_cast<const AncestorRouter*>(&router)) f(*a);
  if (const auto* n = dynamic_cast<const NdRouter*>(&router)) f(*n);
}

const Decomposition* decomposition_of(const Router& router) {
  const Decomposition* d = nullptr;
  visit_hierarchical(router, [&](const auto& r) { d = &r.decomposition(); });
  return d;
}

}  // namespace

PathStats verify_paths(const Mesh& mesh, std::span<const Demand> demands,
                       const std::vector<SegmentPath>& paths, Report& report,
                       const std::string& what) {
  PathStats st;
  const double bound = contracts::stretch_bound(mesh.dim());
  std::uint64_t bad_shape = 0;
  std::uint64_t bad_stretch = 0;
  const bool sized = paths.size() == demands.size();
  report.check(sized, what + ": one path per demand");
  if (!sized) return st;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const SegmentPath& sp = paths[i];
    if (!contracts::validate_segment_path(mesh, sp) ||
        !contracts::validate_segment_path_endpoints(sp, demands[i].src,
                                                    demands[i].dst)) {
      ++bad_shape;
      continue;
    }
    const double stretch = segment_path_stretch(mesh, sp);
    if (stretch > bound) ++bad_stretch;
    st.paths += 1;
    st.hops += static_cast<std::uint64_t>(sp.length());
    st.segments += sp.segments.size();
    st.stretch_sum += stretch;
    st.max_stretch = std::max(st.max_stretch, stretch);
  }
  report.ops(paths.size(), bad_shape,
             "verify: " + what + ": path valid and connects its endpoints");
  report.ops(paths.size(), bad_stretch,
             "verify: " + what + ": stretch <= stretch_bound(d)");
  return st;
}

bool same_loads(const LoadAccountant& a, const LoadAccountant& b) {
  if (a.total_edge_charges() != b.total_edge_charges()) return false;
  const EdgeId edges = a.mesh().num_edges();
  for (EdgeId e = 0; e < edges; ++e) {
    if (a.estimate_load(e) != b.estimate_load(e)) return false;
  }
  return true;
}

std::unique_ptr<LoadAccountant> exact_loads_of(
    const Mesh& mesh, const std::vector<SegmentPath>& paths) {
  auto acc = LoadAccountant::create(mesh, AccountingMode::kExact);
  acc->add_segment_paths(paths);
  return acc;
}

double lower_bound(const Mesh& mesh, const Router& router,
                   std::span<const Demand> demands) {
  RoutingProblem problem;
  problem.demands.assign(demands.begin(), demands.end());
  const Decomposition* decomposition = decomposition_of(router);
  return decomposition
             ? congestion_lower_bound(mesh, *decomposition, problem).value()
             : congestion_lower_bound(mesh, problem).value();
}

double congestion_ratio(const Mesh& mesh, const Router& router,
                        std::span<const Demand> demands,
                        const std::vector<SegmentPath>& paths) {
  double sum = 0.0;
  std::size_t samples = 0;
  for (std::size_t begin = 0; begin + kBatchPackets <= demands.size();
       begin += kBatchPackets, ++samples) {
    const auto first = paths.begin() + static_cast<std::ptrdiff_t>(begin);
    const std::vector<SegmentPath> sample(
        first, first + static_cast<std::ptrdiff_t>(kBatchPackets));
    sum += static_cast<double>(exact_loads_of(mesh, sample)->max_load()) /
           lower_bound(mesh, router, demands.subspan(begin, kBatchPackets));
  }
  return samples ? sum / static_cast<double>(samples) : 0.0;
}

void clear_plan_cache(const Router& router) {
  visit_hierarchical(router, [](const auto& r) {
    if constexpr (requires { r.clear_plan_cache(); }) r.clear_plan_cache();
  });
}

std::pair<std::uint64_t, std::uint64_t> plan_cache_counts(const Router& router) {
  std::pair<std::uint64_t, std::uint64_t> counts{0, 0};
  visit_hierarchical(router, [&](const auto& r) {
    if constexpr (requires { r.plan_cache().stats(); }) {
      const auto stats = r.plan_cache().stats();
      counts = {stats.hits, stats.misses};
    }
  });
  return counts;
}

void probe_resolve_plan(const Router& router, std::span<const Demand> pairs,
                        const char* span) {
  visit_hierarchical(router, [&](const auto& r) {
    if constexpr (requires(std::vector<Region>& c, std::size_t& u, int& b) {
                    r.resolve_plan(NodeId{}, NodeId{}, c, u, b);
                  }) {
      std::vector<Region> chain;
      std::size_t up_count = 0;
      int bridge_level = 0;
      for (const Demand& d : pairs) {
        if (d.src == d.dst) continue;
        const trace::Scope scope(span);
        r.resolve_plan(d.src, d.dst, chain, up_count, bridge_level);
      }
    }
  });
}

void probe_route_segments(const Router& router, std::span<const Demand> pairs,
                          std::uint64_t seed, const char* span) {
  RouteScratch scratch;
  SegmentPath sp;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (pairs[i].src == pairs[i].dst) continue;
    Rng rng = packet_rng(seed, i);
    const trace::Scope scope(span);
    router.route_segments_into(pairs[i].src, pairs[i].dst, rng, scratch, sp);
  }
}

void probe_add_segments(LoadAccountant& accountant,
                        const std::vector<SegmentPath>& paths,
                        const char* span) {
  for (const SegmentPath& sp : paths) {
    const trace::Scope scope(span);
    accountant.add_segments(sp);
  }
}

void probe_fold(const LoadAccountant& prototype,
                const std::vector<SegmentPath>& paths, int calls,
                const char* span) {
  const std::unique_ptr<LoadAccountant> total = prototype.clone_empty();
  const std::unique_ptr<LoadAccountant> shard = prototype.clone_empty();
  const std::size_t block = std::min(paths.size(), prototype.block_size());
  for (std::size_t i = 0; i < block; ++i) shard->add_segments(paths[i]);
  for (int c = 0; c < calls; ++c) {
    const trace::Scope scope(span);
    total->fold_block(static_cast<std::size_t>(c), *shard);
  }
}

void probe_batch_engines(const Router& router, std::span<const Demand> demands,
                         ThreadPool& pool, std::uint64_t seed, int reps,
                         bool cold) {
  std::vector<SegmentPath> out;
  const std::pair<BatchEngine, const char*> engines[] = {
      {BatchEngine::kScalar, "parallel.route_batch.scalar"},
      {BatchEngine::kSoa, "parallel.route_batch.soa"},
      {BatchEngine::kAuto, "parallel.route_batch.auto"}};
  for (int r = 0; r < reps; ++r) {
    for (const auto& [engine, span] : engines) {
      RouteBatchOptions options;
      options.seed = seed + static_cast<std::uint64_t>(r);
      options.engine = engine;
      if (cold) clear_plan_cache(router);
      const trace::Scope scope(span);
      route_batch(router, demands, pool, options, out);
    }
  }
}

void report_batch_engines(const Router& router, std::size_t packets_per_call,
                          Report& report) {
  const auto per_packet = [&](const char* span) {
    return trace::row(span).mean_ns() / static_cast<double>(packets_per_call);
  };
  report.metric("parallel.batch_scalar_ns",
                per_packet("parallel.route_batch.scalar"), "ns");
  report.metric("parallel.batch_soa_ns",
                per_packet("parallel.route_batch.soa"), "ns");
  report.metric("parallel.batch_auto_ns",
                per_packet("parallel.route_batch.auto"), "ns");
  report.note(std::string("route_batch kAuto picks the ") +
              (SoaBatchEngine::supports(router) ? "SoA" : "scalar") +
              " engine for " + router.name());
}

}  // namespace perfbench
