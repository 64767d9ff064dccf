// Edge-load (congestion) accounting over a set of paths.
//
// The congestion C of a path set is the maximum number of paths crossing
// any edge (Section 2); edges are undirected, matching the paper's model
// of one packet per edge per time step.
//
// Two ingestion paths:
//  * add_path walks a node-list path hop by hop (O(path length));
//  * add_segments charges a SegmentPath with one difference-array range
//    update per line range that for_each_line_range (segment_path.hpp)
//    splits its runs into (O(#segments)), deferring the per-edge
//    materialization to a single prefix-sum flush. The flush happens
//    lazily on first read, so interleaving add_path / add_segments /
//    queries stays correct.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mesh/mesh.hpp"
#include "mesh/path.hpp"
#include "mesh/segment_path.hpp"
#include "util/stats.hpp"

namespace oblivious {

class EdgeLoadMap {
 public:
  explicit EdgeLoadMap(const Mesh& mesh);

  // \pre `path` is a valid path of this map's mesh (every hop an edge).
  void add_path(const Path& path);
  void add_paths(const std::vector<Path>& paths);

  // O(#segments): each line range of for_each_line_range becomes one
  // range bump in a per-axis difference array (line-major, in the mesh's
  // line numbering); a lap of a torus dimension charges the whole line.
  // \pre `sp` is a non-empty valid segment path of this map's mesh.
  void add_segments(const SegmentPath& sp);
  void add_segment_paths(const std::vector<SegmentPath>& sps);

  void clear();

  // Folds pending difference-array contributions into the per-edge loads
  // (one prefix-sum pass per axis). Read accessors call this lazily; an
  // explicit call is only needed for timing.
  void flush() const;

  // Adds every edge load of `other` into this map; used to merge sharded
  // per-thread accumulators.
  // \pre `other` accounts loads over the same mesh as this map.
  void merge(const EdgeLoadMap& other);

  // Lifetime totals of the two ingestion paths (survive clear()).
  std::uint64_t segments_charged() const { return segments_charged_; }
  std::uint64_t paths_added() const { return paths_added_; }

  // Unit hops ingested since construction/clear(): every hop of every
  // added path or segment run charges exactly one edge, so after a flush
  // the per-edge loads sum to exactly this value (see
  // contracts::validate_load_map_consistency).
  std::uint64_t total_edge_charges() const { return edge_charges_; }

  // Publishes accounting metrics (max/p50/p99 edge load, edges used, the
  // edge-load histogram, and the segment/path charge counters accumulated
  // since the previous call) under `prefix.` in the global obs registry.
  // No-op when metrics are disabled.
  void record_metrics(const std::string& prefix) const;

  const Mesh& mesh() const { return *mesh_; }
  std::uint32_t load(EdgeId e) const;
  // C = max edge load. Memoized: the O(E) scan runs once per mutation
  // epoch, so repeated queries between adds (trial loops, metrics
  // snapshots) are O(1).
  std::uint32_t max_load() const;
  // An edge achieving the maximum load.
  EdgeId argmax() const;
  // Mean load over edges with non-zero load.
  double mean_nonzero() const;
  // Number of edges with non-zero load.
  std::int64_t edges_used() const;
  // Load histogram over all edges (including zero loads).
  IntHistogram histogram() const;

 private:
  const Mesh* mesh_;
  std::uint64_t segments_charged_ = 0;
  std::uint64_t paths_added_ = 0;
  // Unit hops ingested; mirrors the loads_ content, reset by clear().
  std::uint64_t edge_charges_ = 0;
  // Charges already published by record_metrics (counters report deltas).
  mutable std::uint64_t reported_segments_ = 0;
  mutable std::uint64_t reported_paths_ = 0;
  mutable std::vector<std::uint32_t> loads_;
  // Per-dimension difference arrays in line-major layout (line stride =
  // edge_dim_radix(d)); allocated on first add_segments.
  mutable std::vector<std::vector<std::int64_t>> diff_;
  mutable bool dirty_ = false;
  // Memoized max_load (valid for an empty map); every mutator invalidates.
  mutable std::uint32_t max_cache_ = 0;
  mutable bool max_valid_ = true;
};

namespace contracts {

// PR 1 pipeline invariant: the O(segments) difference-array accounting is
// *exact* -- after a flush the per-edge loads sum to precisely the number
// of unit hops ingested. O(E); intended for OBLV_ENSURES at accounting
// boundaries and for direct use in tests.
bool validate_load_map_consistency(const EdgeLoadMap& loads);

}  // namespace contracts

}  // namespace oblivious
