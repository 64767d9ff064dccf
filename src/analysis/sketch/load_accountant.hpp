// Mode-selectable congestion accounting: exact per-edge arrays or
// space-bounded sketches behind one interface.
//
// The exact EdgeLoadMap materializes every edge -- O(E) memory, which
// caps measurable mesh sizes around 10^8 edges. Sketch mode replaces it
// with a conservative-update count-min sketch over dyadic range keys
// (load quantiles and point estimates, O(log side) updates per axis run)
// plus a SpaceSaving top-k tracker of heavy lines (max-load candidates).
// Both modes charge a SegmentPath through the same split of its runs into
// line ranges (for_each_line_range, mesh/segment_path.hpp) and key edges
// by the mesh's (dimension, line, position) numbering (Mesh::line_edge,
// edge_line); only what a range update does differs.
// Estimates never underestimate, and on small meshes they stay within
// the classic count-min (eps, delta) bound of exact values (validated in
// tests/sketch_test.cpp; derivation in DESIGN.md section 14).
//
// Merge discipline: merge() is the order-insensitive path for exact mode
// and for the linear count-min cells. Conservative updates and
// SpaceSaving summaries depend on update grouping, so parallel drivers
// shard work into FIXED-SIZE blocks (SketchConfig::block_size packets,
// independent of thread count) and hand each finished block to
// fold_block(): count-min cells merge immediately (commutative), while
// heavy-line summaries are buffered and replayed in block-index order.
// The folded result is bit-identical for ANY block completion order and
// ANY thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "mesh/mesh.hpp"
#include "mesh/path.hpp"
#include "mesh/segment_path.hpp"
#include "util/stats.hpp"

namespace oblivious {

class EdgeLoadMap;

enum class AccountingMode {
  kExact,   // per-edge uint32 array (EdgeLoadMap)
  kSketch,  // count-min + SpaceSaving, O(sketch_bytes) memory
};

const char* accounting_mode_name(AccountingMode mode);
std::optional<AccountingMode> accounting_mode_from_name(const std::string& name);

struct SketchConfig {
  // Total sketch memory budget; the count-min width is the largest power
  // of two that fits after the heavy-line tracker's reservation.
  std::size_t sketch_bytes = std::size_t{1} << 20;
  // Count-min rows; failure probability decays as e^{-depth}.
  int depth = 4;
  // SpaceSaving capacity: candidate (dimension, line) keys for max-load.
  std::size_t top_lines = 64;
  // Deterministic fold granularity for parallel drivers (packets per
  // accounting block). Thread-count independent by construction.
  std::size_t block_size = 8192;
  // Quantiles scan every edge up to this many, then switch to a
  // deterministic sample of this size.
  std::size_t quantile_sample_cap = std::size_t{1} << 16;
  // Hash-family seed (NOT the routing seed): estimates are a pure
  // function of (seed, update multiset).
  std::uint64_t seed = 0xc0119e5710ade5caULL;
};

struct AccountingOptions {
  AccountingMode mode = AccountingMode::kExact;
  SketchConfig sketch;
};

class LoadAccountant {
 public:
  virtual ~LoadAccountant() = default;

  virtual AccountingMode mode() const = 0;

  // \pre `sp` is a non-empty valid segment path of this accountant's mesh.
  virtual void add_segments(const SegmentPath& sp) = 0;
  virtual void add_segment_paths(const std::vector<SegmentPath>& sps);
  // \pre `path` is a valid path of this accountant's mesh.
  virtual void add_path(const Path& path) = 0;
  virtual void add_paths(const std::vector<Path>& paths);

  virtual void clear() = 0;

  // Order-insensitive shard merge (exact loads and count-min cells are
  // linear). Sketch heavy-line candidates merge deterministically but
  // order-SENSITIVELY here; parallel folds use fold_block instead.
  // \pre `other` was created by the same factory call (mesh, mode, config).
  virtual void merge(const LoadAccountant& other) = 0;

  // Deterministic ordered fold for parallel drivers: blocks 0..N-1 may
  // arrive in any order, but the result is bit-identical to merging them
  // in block-index order. Callers serialize fold_block externally (it is
  // not thread-safe) and fold every block index exactly once.
  // \pre `shard` was created by the same factory call as this accountant.
  virtual void fold_block(std::size_t block, const LoadAccountant& shard);

  // An empty accountant of the same mode/mesh/config, for worker shards.
  virtual std::unique_ptr<LoadAccountant> clone_empty() const = 0;

  // C (max edge load). In sketch mode an estimate over the heavy-line
  // candidates only: an upper bound while the max-load line is tracked,
  // but it can read below the exact C once that line has been evicted.
  virtual std::uint64_t max_load() const = 0;
  // Per-edge load; never underestimates in sketch mode.
  // \pre e is an edge id of this accountant's mesh.
  virtual std::uint64_t estimate_load(EdgeId e) const = 0;
  // Edge-load quantile in [0, 1] over all edges (sketch mode: over point
  // estimates, sampled above quantile_sample_cap edges).
  virtual std::int64_t load_quantile(double q) const = 0;

  // Unit hops ingested since construction/clear(); exact in both modes.
  virtual std::uint64_t total_edge_charges() const = 0;
  virtual std::size_t memory_bytes() const = 0;

  // The fold granularity parallel drivers should use (the configured
  // SketchConfig::block_size in sketch mode, its default otherwise).
  virtual std::size_t block_size() const { return SketchConfig{}.block_size; }

  // Additive overestimation ceiling for a single point estimate: with
  // probability >= 1 - failure_probability(), estimate_load(e) exceeds
  // the true load by at most error_bound(). Zero in exact mode.
  virtual double error_bound() const { return 0.0; }
  virtual double failure_probability() const { return 0.0; }

  // Publishes `prefix.max_edge_load/p50/p99` (mirroring EdgeLoadMap) and,
  // in sketch mode, the congestion.sketch.* family (width, depth, levels,
  // memory bytes, update and heavy-hitter-churn counters).
  virtual void record_metrics(const std::string& prefix) const = 0;

  // Exact mode's backing map (heatmaps, conservation contracts); null in
  // sketch mode.
  virtual const EdgeLoadMap* exact_loads() const { return nullptr; }

  virtual const Mesh& mesh() const = 0;

  // The only sanctioned constructor of accounting state (lint rule D010
  // flags direct EdgeLoadMap construction elsewhere in src/).
  static std::unique_ptr<LoadAccountant> create(const Mesh& mesh,
                                                AccountingMode mode,
                                                const SketchConfig& config = {});

  // What exact mode would allocate for `mesh` (no allocation happens):
  // the feasibility check for gigantic meshes.
  static std::size_t exact_bytes(const Mesh& mesh);
};

}  // namespace oblivious
