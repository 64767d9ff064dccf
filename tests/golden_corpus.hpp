// The golden corpus: absolute digests of every registry algorithm's
// routes over a fixed grid of meshes, demand sets and seeds.
//
// The equivalence suites compare two engines against each other, so they
// still pass when both drift together. These digests pin the output
// itself: a refactor that keeps every digest preserves every path, every
// load and the exact number of random draws each packet consumed.
//
// One entry per (algorithm, mesh, workload, seed). Packet i is routed by
// route_segments_into with rng packet_rng(seed, i), the stream route_batch
// gives it. An entry records
//   * seg_hash -- a hash over every packet's source, destination and runs,
//   * C        -- the maximum edge load of the routed set,
//   * D        -- the longest routed path (hops),
//   * stretch  -- the largest hops / distance over packets with s != t,
//   * rng_hash -- a hash over the next word of every packet's rng after
//                 routing, which pins the number of draws,
//   * node_hash -- a hash over every packet's route_into node list, routed
//                 again from a fresh packet_rng(seed, i), and the next word
//                 of that rng: it pins the node-list form and its draws.
// golden_dump prints the entries; tests/golden/regenerate.sh rewrites
// tests/golden/digests.tsv from it, and golden_test fails on any drift.
#pragma once

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/congestion.hpp"
#include "mesh/mesh.hpp"
#include "mesh/path.hpp"
#include "mesh/segment_path.hpp"
#include "parallel/route_batch.hpp"
#include "rng/rng.hpp"
#include "routing/registry.hpp"
#include "routing/route_scratch.hpp"
#include "workloads/generators.hpp"
#include "workloads/problem.hpp"

namespace oblivious::golden {

struct MeshCase {
  const char* name;
  Mesh mesh;
};

struct WorkloadCase {
  const char* name;
  RoutingProblem problem;
};

// 2D 64^2, 3D 16^3, 2D torus 32^2, and a non-power-of-two 48x40 mesh that
// only the non-hierarchical routers accept.
inline std::vector<MeshCase> mesh_cases() {
  return {{"2d64", Mesh::cube(2, 64)},
          {"3d16", Mesh::cube(3, 16)},
          {"torus32", Mesh::cube(2, 32, /*torus=*/true)},
          {"48x40", Mesh({48, 40})}};
}

inline constexpr std::uint64_t kSeeds[] = {1, 2, 3};

// Random permutation (drawn from the seed), transpose (square meshes
// only: it swaps the first two dimensions) and the Section 5.1 block
// exchange with slabs of thickness 4 along dimension 0.
inline std::vector<WorkloadCase> workload_cases(const Mesh& mesh,
                                                std::uint64_t seed) {
  std::vector<WorkloadCase> cases;
  Rng rng(seed);
  cases.push_back({"perm", random_permutation(mesh, rng)});
  if (mesh.side(0) == mesh.side(1)) cases.push_back({"transpose", transpose(mesh)});
  cases.push_back({"block", block_exchange(mesh, 4, 0)});
  return cases;
}

inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return splitmix64(h ^ v);
}

inline std::uint64_t hash_path(std::uint64_t h, const SegmentPath& sp) {
  h = mix(h, static_cast<std::uint64_t>(sp.source));
  h = mix(h, static_cast<std::uint64_t>(sp.dest));
  for (const Segment& seg : sp.segments) {
    h = mix(h, static_cast<std::uint64_t>(seg.dim));
    h = mix(h, static_cast<std::uint64_t>(seg.run));
  }
  return mix(h, sp.segments.size());
}

inline std::uint64_t hash_path(std::uint64_t h, const Path& p) {
  for (const NodeId v : p.nodes) h = mix(h, static_cast<std::uint64_t>(v));
  return mix(h, p.nodes.size());
}

inline std::uint64_t hash_paths(const std::vector<SegmentPath>& paths) {
  std::uint64_t h = 0;
  for (const SegmentPath& sp : paths) h = hash_path(h, sp);
  return h;
}

struct Entry {
  std::string key;  // "<algorithm> <mesh> <workload> <seed>"
  std::size_t packets = 0;
  std::uint64_t seg_hash = 0;
  std::uint32_t congestion = 0;
  std::int64_t dilation = 0;
  double max_stretch = 0.0;
  std::uint64_t rng_hash = 0;
  std::uint64_t node_hash = 0;

  std::string line() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\t%zu\t%016" PRIx64 "\t%" PRIu32 "\t%" PRId64
                  "\t%.9f\t%016" PRIx64 "\t%016" PRIx64,
                  key.c_str(), packets, seg_hash, congestion, dilation,
                  max_stretch, rng_hash, node_hash);
    return buf;
  }
};

// Routes one entry with the scalar per-packet entry point; `paths`
// receives the routed set (index i is demand i).
inline Entry route_entry(Algorithm algorithm, const MeshCase& mc,
                         const WorkloadCase& wc, std::uint64_t seed,
                         std::vector<SegmentPath>& paths) {
  const auto router = make_router(algorithm, mc.mesh);
  const std::vector<Demand>& demands = wc.problem.demands;
  Entry e;
  e.key = algorithm_name(algorithm) + " " + mc.name + " " + wc.name + " " +
          std::to_string(seed);
  e.packets = demands.size();
  paths.assign(demands.size(), SegmentPath{});
  RouteScratch scratch;
  Path nodes;
  EdgeLoadMap loads(mc.mesh);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    Rng rng = packet_rng(seed, i);
    router->route_segments_into(demands[i].src, demands[i].dst, rng, scratch,
                                paths[i]);
    e.rng_hash = mix(e.rng_hash, rng.next_u64());
    Rng node_rng = packet_rng(seed, i);
    router->route_into(demands[i].src, demands[i].dst, node_rng, scratch,
                       nodes);
    e.node_hash = mix(hash_path(e.node_hash, nodes), node_rng.next_u64());
    loads.add_segments(paths[i]);
    const std::int64_t hops = paths[i].length();
    e.dilation = std::max(e.dilation, hops);
    const std::int64_t dist = mc.mesh.distance(demands[i].src, demands[i].dst);
    if (dist > 0) {
      e.max_stretch = std::max(
          e.max_stretch, static_cast<double>(hops) / static_cast<double>(dist));
    }
  }
  e.seg_hash = hash_paths(paths);
  e.congestion = loads.max_load();
  return e;
}

// Calls fn(algorithm, mesh case, workload case, seed) for every entry of
// the corpus, in the order of digests.tsv.
template <typename Fn>
void for_each_case(Fn&& fn) {
  for (const Algorithm algorithm : all_algorithms()) {
    for (const MeshCase& mc : mesh_cases()) {
      const auto applicable = algorithms_for(mc.mesh);
      if (std::find(applicable.begin(), applicable.end(), algorithm) ==
          applicable.end()) {
        continue;
      }
      for (const std::uint64_t seed : kSeeds) {
        for (const WorkloadCase& wc : workload_cases(mc.mesh, seed)) {
          fn(algorithm, mc, wc, seed);
        }
      }
    }
  }
}

}  // namespace oblivious::golden
