#include "analysis/sketch/load_accountant.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numbers>
#include <vector>

#include "analysis/congestion.hpp"
#include "analysis/sketch/count_min.hpp"
#include "analysis/sketch/dyadic.hpp"
#include "analysis/sketch/space_saving.hpp"
#include "mesh/contracts.hpp"
#include "obs/metrics.hpp"
#include "rng/rng.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/contracts.hpp"

namespace oblivious {

const char* accounting_mode_name(AccountingMode mode) {
  switch (mode) {
    case AccountingMode::kExact:
      return "exact";
    case AccountingMode::kSketch:
      return "sketch";
  }
  return "unknown";
}

std::optional<AccountingMode> accounting_mode_from_name(
    const std::string& name) {
  if (name == "exact") return AccountingMode::kExact;
  if (name == "sketch") return AccountingMode::kSketch;
  return std::nullopt;
}

void LoadAccountant::add_segment_paths(const std::vector<SegmentPath>& sps) {
  for (const SegmentPath& sp : sps) add_segments(sp);
}

void LoadAccountant::add_paths(const std::vector<Path>& paths) {
  for (const Path& p : paths) add_path(p);
}

void LoadAccountant::fold_block(std::size_t block,
                                const LoadAccountant& shard) {
  // Exact loads commute under addition, so the default ordered fold is a
  // plain merge; the sketch override buffers heavy-line summaries.
  (void)block;
  merge(shard);
}

std::size_t LoadAccountant::exact_bytes(const Mesh& mesh) {
  return static_cast<std::size_t>(mesh.num_edges()) * sizeof(std::uint32_t);
}

namespace {

// ----------------------------------------------------------------- exact --

class ExactAccountant final : public LoadAccountant {
 public:
  explicit ExactAccountant(const Mesh& mesh) : mesh_(&mesh), loads_(mesh) {}

  AccountingMode mode() const override { return AccountingMode::kExact; }

  void add_segments(const SegmentPath& sp) override { loads_.add_segments(sp); }
  void add_path(const Path& path) override { loads_.add_path(path); }
  void clear() override { loads_.clear(); }

  void merge(const LoadAccountant& other) override {
    OBLV_REQUIRE(other.mode() == AccountingMode::kExact,
                 "cannot merge accountants of different modes");
    loads_.merge(static_cast<const ExactAccountant&>(other).loads_);
  }

  std::unique_ptr<LoadAccountant> clone_empty() const override {
    return std::make_unique<ExactAccountant>(*mesh_);
  }

  std::uint64_t max_load() const override { return loads_.max_load(); }
  std::uint64_t estimate_load(EdgeId e) const override {
    return loads_.load(e);
  }
  std::int64_t load_quantile(double q) const override {
    return loads_.histogram().quantile(q);
  }
  std::uint64_t total_edge_charges() const override {
    return loads_.total_edge_charges();
  }
  std::size_t memory_bytes() const override { return exact_bytes(*mesh_); }
  void record_metrics(const std::string& prefix) const override {
    loads_.record_metrics(prefix);
  }
  const EdgeLoadMap* exact_loads() const override { return &loads_; }
  const Mesh& mesh() const override { return *mesh_; }

 private:
  const Mesh* mesh_;
  // oblv-lint: allow(D010) this IS the exact-mode implementation behind
  // the LoadAccountant factory; every other construction site selects a
  // mode through LoadAccountant::create.
  EdgeLoadMap loads_;
};

// ---------------------------------------------------------------- sketch --

class SketchAccountant final : public LoadAccountant {
 public:
  SketchAccountant(const Mesh& mesh, const SketchConfig& config)
      : mesh_(&mesh),
        config_(config),
        cm_(choose_width(config), config.depth, config.seed),
        ss_(config.top_lines) {
    OBLV_REQUIRE(config.block_size >= 1, "sketch block_size must be >= 1");
    OBLV_REQUIRE(config.quantile_sample_cap >= 1,
                 "quantile_sample_cap must be >= 1");
    const int dim = mesh.dim();
    geom_.resize(static_cast<std::size_t>(dim));
    std::uint64_t key_base = 0;
    max_levels_ = 1;
    for (int d = 0; d < dim; ++d) {
      DimGeometry& g = geom_[static_cast<std::size_t>(d)];
      g.radix = mesh.edge_dim_radix(d);
      g.stride = mesh.node_stride(d);
      g.offset = mesh.edge_dim_offset(d);
      const std::int64_t dim_edges = mesh.edge_dim_offset(d + 1) - g.offset;
      g.lines = g.radix > 0 ? dim_edges / g.radix : 0;
      g.universe = g.radix > 0
                       ? std::bit_ceil(static_cast<std::uint64_t>(g.radix))
                       : 1;
      g.levels = floor_log2(g.universe) + 1;
      max_levels_ = std::max(max_levels_, g.levels);
      g.level_key_base.resize(static_cast<std::size_t>(g.levels));
      for (int l = 0; l < g.levels; ++l) {
        g.level_key_base[static_cast<std::size_t>(l)] = key_base;
        key_base += static_cast<std::uint64_t>(g.lines) * (g.universe >> l);
      }
      // Mixed-radix strides of the dimension-d line index (coordinate d
      // removed), matching EdgeLoadMap's numbering.
      g.line_strides.assign(static_cast<std::size_t>(dim), 0);
      std::int64_t t = 1;
      for (int i = dim - 1; i >= 0; --i) {
        if (i == d) continue;
        g.line_strides[static_cast<std::size_t>(i)] = t;
        t *= mesh.side(i);
      }
    }
  }

  AccountingMode mode() const override { return AccountingMode::kSketch; }

  void add_segments(const SegmentPath& sp) override {
    OBLV_REQUIRE(!sp.empty(), "cannot account an empty segment path");
    OBLV_EXPECTS(contracts::validate_segment_path(*mesh_, sp),
                 "add_segments needs a valid segment path");
    segments_charged_ += sp.segments.size();
    edge_charges_ += static_cast<std::uint64_t>(sp.length());
    invalidate();
    Coord cur = mesh_->coord(sp.source);
    for (const Segment& seg : sp.segments) {
      const int d = seg.dim;
      const std::size_t dd = static_cast<std::size_t>(d);
      const std::int64_t side = mesh_->side(d);
      const std::int64_t radix = geom_[dd].radix;
      OBLV_REQUIRE(radix > 0, "segment along a side-1 dimension");
      const std::int64_t k = std::abs(seg.run);
      const std::int64_t line = line_index(cur, d);
      if (mesh_->torus() && side > 2) {
        const std::int64_t laps = k / side;
        if (laps > 0) {
          range_update(d, line, 0, side, static_cast<std::uint64_t>(laps));
        }
        const std::int64_t rem = k % side;
        if (rem > 0) {
          const std::int64_t start =
              seg.run > 0 ? cur[dd] : pos_mod(cur[dd] - rem, side);
          if (start + rem <= side) {
            range_update(d, line, start, start + rem, 1);
          } else {
            range_update(d, line, start, side, 1);
            range_update(d, line, 0, start + rem - side, 1);
          }
        }
        cur[dd] = pos_mod(cur[dd] + seg.run, side);
      } else if (mesh_->torus() && side == 2) {
        // One edge per line, keyed at position 0; every step crosses it.
        range_update(d, line, 0, 1, static_cast<std::uint64_t>(k));
        cur[dd] = pos_mod(cur[dd] + seg.run, side);
      } else if (seg.run > 0) {
        OBLV_REQUIRE(cur[dd] + k < side, "segment run leaves the mesh");
        range_update(d, line, cur[dd], cur[dd] + k, 1);
        cur[dd] += k;
      } else {
        OBLV_REQUIRE(cur[dd] - k >= 0, "segment run leaves the mesh");
        range_update(d, line, cur[dd] - k, cur[dd], 1);
        cur[dd] -= k;
      }
      ss_.add(line_key(d, line), static_cast<std::uint64_t>(k));
    }
    OBLV_CHECK(mesh_->node_id(cur) == sp.dest,
               "segment path destination mismatch");
  }

  void add_path(const Path& path) override {
    ++paths_added_;
    if (path.nodes.size() < 2) return;
    edge_charges_ += static_cast<std::uint64_t>(path.length());
    invalidate();
    // Same hop walk and lower-endpoint keying as EdgeLoadMap::add_path;
    // each hop is a length-1 range (one level-0 dyadic piece).
    Coord cur = mesh_->coord(path.nodes.front());
    for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
      const Mesh::Hop hop =
          mesh_->decode_hop(cur, path.nodes[i + 1] - path.nodes[i]);
      const std::int64_t line = line_index(cur, hop.dim);
      range_update(hop.dim, line, hop.lower, hop.lower + 1, 1);
      ss_.add(line_key(hop.dim, line), 1);
    }
  }

  void clear() override {
    cm_.clear();
    hh_churn_ += ss_.evictions();
    ss_.clear();
    pending_.clear();
    next_block_ = 0;
    edge_charges_ = 0;
    dyadic_mass_ = 0;
    invalidate();
  }

  void merge(const LoadAccountant& other) override {
    const SketchAccountant& o = same_kind(other);
    OBLV_REQUIRE(pending_.empty() && o.pending_.empty(),
                 "cannot merge accountants with unfolded pending blocks");
    cm_.merge(o.cm_);
    ss_.merge(o.ss_);
    absorb_counters(o);
    hh_churn_ += o.hh_churn_;
    invalidate();
  }

  void fold_block(std::size_t block, const LoadAccountant& shard) override {
    const SketchAccountant& o = same_kind(shard);
    OBLV_REQUIRE(block >= next_block_ && pending_.find(block) == pending_.end(),
                 "each block index folds exactly once");
    // Count-min cells are linear: merging now, in completion order, gives
    // the same table as any other order. The heavy-line summary is
    // order-sensitive, so it waits its turn in the block sequence.
    cm_.merge(o.cm_);
    absorb_counters(o);
    pending_.emplace(block, o.ss_);
    while (!pending_.empty() && pending_.begin()->first == next_block_) {
      ss_.merge(pending_.begin()->second);
      pending_.erase(pending_.begin());
      ++next_block_;
    }
    invalidate();
  }

  std::unique_ptr<LoadAccountant> clone_empty() const override {
    return std::make_unique<SketchAccountant>(*mesh_, config_);
  }

  std::uint64_t max_load() const override {
    if (max_cache_.has_value()) return *max_cache_;
    // Scan the candidate heavy lines' positions with point estimates; the
    // true max edge lies on a line whose charged hops >= the max load, so
    // heavy lines are where maxima live.
    std::uint64_t best = 0;
    const std::uint64_t dim = static_cast<std::uint64_t>(mesh_->dim());
    for (const SpaceSavingLines::Entry& e : ss_.entries_sorted()) {
      const int d = static_cast<int>(e.key % dim);
      const std::int64_t line = static_cast<std::int64_t>(e.key / dim);
      const std::int64_t radix = geom_[static_cast<std::size_t>(d)].radix;
      for (std::int64_t pos = 0; pos < radix; ++pos) {
        best = std::max(best, point_estimate(d, line, pos));
      }
    }
    max_cache_ = best;
    return best;
  }

  std::uint64_t estimate_load(EdgeId e) const override {
    OBLV_REQUIRE(e >= 0 && e < mesh_->num_edges(), "edge id out of range");
    // Invert the mesh's edge numbering: within dimension d, the edge ids
    // of a line advance by node_stride(d), and line a*stride+b starts at
    // offset + (a*radix)*stride + b (see EdgeLoadMap::flush).
    int d = mesh_->dim() - 1;
    while (d > 0 && e < geom_[static_cast<std::size_t>(d)].offset) --d;
    const DimGeometry& g = geom_[static_cast<std::size_t>(d)];
    const std::int64_t rel = e - g.offset;
    const std::int64_t a = rel / (g.radix * g.stride);
    const std::int64_t rem = rel % (g.radix * g.stride);
    const std::int64_t pos = rem / g.stride;
    const std::int64_t line = a * g.stride + rem % g.stride;
    return point_estimate(d, line, pos);
  }

  std::int64_t load_quantile(double q) const override {
    return estimate_histogram().quantile(q);
  }

  std::uint64_t total_edge_charges() const override { return edge_charges_; }

  std::size_t block_size() const override { return config_.block_size; }

  std::size_t memory_bytes() const override {
    std::size_t pending = 0;
    for (const auto& [block, ss] : pending_) pending += ss.memory_bytes();
    return cm_.memory_bytes() + ss_.memory_bytes() + pending;
  }

  double error_bound() const override {
    // Classic count-min Markov bound per dyadic level, union-bounded over
    // the levels a point query sums (DESIGN.md section 14): the collision
    // mass of one row cell is at most e * M / width with probability
    // >= 1 - e^{-depth}, where M is the total mass in the table.
    return std::numbers::e * static_cast<double>(dyadic_mass_) /
           static_cast<double>(cm_.width()) * static_cast<double>(max_levels_);
  }

  double failure_probability() const override {
    return std::min(1.0, static_cast<double>(max_levels_) *
                             std::exp(-static_cast<double>(cm_.depth())));
  }

  void record_metrics(const std::string& prefix) const override {
    if (!obs::metrics_enabled()) return;
    auto& registry = obs::MetricsRegistry::global();
    const IntHistogram h = estimate_histogram();
    registry.gauge(prefix + ".max_edge_load")
        .set(static_cast<double>(max_load()));
    registry.gauge(prefix + ".p50_edge_load")
        .set(static_cast<double>(h.quantile(0.5)));
    registry.gauge(prefix + ".p99_edge_load")
        .set(static_cast<double>(h.quantile(0.99)));
    registry.gauge("congestion.sketch.width")
        .set(static_cast<double>(cm_.width()));
    registry.gauge("congestion.sketch.depth")
        .set(static_cast<double>(cm_.depth()));
    registry.gauge("congestion.sketch.levels")
        .set(static_cast<double>(max_levels_));
    registry.gauge("congestion.sketch.memory_bytes")
        .set(static_cast<double>(memory_bytes()));
    registry.gauge("congestion.sketch.error_bound").set(error_bound());
    // Counters report deltas since the previous call (same discipline as
    // EdgeLoadMap::record_metrics).
    const std::uint64_t churn = hh_churn_ + ss_.evictions();
    registry.counter("congestion.sketch.updates")
        .add(updates_ - reported_updates_);
    registry.counter("congestion.sketch.hh_churn")
        .add(churn - reported_churn_);
    registry.counter(prefix + ".segments_charged")
        .add(segments_charged_ - reported_segments_);
    registry.counter(prefix + ".paths_added")
        .add(paths_added_ - reported_paths_);
    reported_updates_ = updates_;
    reported_churn_ = churn;
    reported_segments_ = segments_charged_;
    reported_paths_ = paths_added_;
  }

  const Mesh& mesh() const override { return *mesh_; }

 private:
  struct DimGeometry {
    std::int64_t radix = 0;   // edge positions per line
    std::int64_t lines = 0;
    std::int64_t stride = 0;  // intra-line edge id stride (node_stride)
    EdgeId offset = 0;        // first edge id of the dimension
    std::uint64_t universe = 1;  // radix padded to a power of two
    int levels = 1;
    std::vector<std::uint64_t> level_key_base;
    std::vector<std::int64_t> line_strides;
  };

  static std::size_t choose_width(const SketchConfig& config) {
    OBLV_REQUIRE(config.depth >= 1 && config.depth <= 16,
                 "sketch depth must be in [1, 16]");
    OBLV_REQUIRE(config.top_lines >= 1, "sketch top_lines must be >= 1");
    // Reserve room for the heavy-line tracker so memory_bytes() stays
    // inside sketch_bytes. Its fixed arrays take 92 bytes per line at 64
    // lines and under 160 for any top_lines (a 24-byte slot, 8-16 index
    // entries of 8 bytes, a 4-8 byte tree node), inside this reserve. The
    // reserve stays at its old size rather than shrinking to match: it
    // sets the count-min width, and with it every estimate the golden
    // sketch digests pin.
    const std::size_t reserve = config.top_lines * 192 + 1024;
    const std::size_t row_bytes =
        static_cast<std::size_t>(config.depth) * sizeof(std::uint64_t);
    OBLV_REQUIRE(config.sketch_bytes >= reserve + 16 * row_bytes,
                 "sketch_bytes too small for the configured depth/top_lines");
    return std::bit_floor((config.sketch_bytes - reserve) / row_bytes);
  }

  const SketchAccountant& same_kind(const LoadAccountant& other) const {
    OBLV_REQUIRE(other.mode() == AccountingMode::kSketch,
                 "cannot combine accountants of different modes");
    const auto& o = static_cast<const SketchAccountant&>(other);
    OBLV_REQUIRE(mesh_->num_edges() == o.mesh_->num_edges() &&
                     cm_.same_shape(o.cm_) &&
                     ss_.capacity() == o.ss_.capacity(),
                 "cannot combine sketch accountants of different shape");
    return o;
  }

  // Everything except heavy-line state. Churn transfers through
  // ss_.merge's eviction accumulation (fold_block) or explicitly in
  // merge(); absorbing o.hh_churn_ here would double-count per-block
  // shards whose clear() banked already-folded evictions.
  void absorb_counters(const SketchAccountant& o) {
    edge_charges_ += o.edge_charges_;
    dyadic_mass_ += o.dyadic_mass_;
    updates_ += o.updates_;
    segments_charged_ += o.segments_charged_;
    paths_added_ += o.paths_added_;
  }

  void invalidate() {
    max_cache_.reset();
    hist_cache_.reset();
  }

  std::uint64_t line_key(int d, std::int64_t line) const {
    return static_cast<std::uint64_t>(line) *
               static_cast<std::uint64_t>(mesh_->dim()) +
           static_cast<std::uint64_t>(d);
  }

  std::int64_t line_index(const Coord& c, int d) const {
    const auto& strides = geom_[static_cast<std::size_t>(d)].line_strides;
    std::int64_t line = 0;
    for (int i = 0; i < mesh_->dim(); ++i) {
      if (i == d) continue;
      line += c[static_cast<std::size_t>(i)] *
              strides[static_cast<std::size_t>(i)];
    }
    return line;
  }

  std::uint64_t key_at(const DimGeometry& g, int level, std::int64_t line,
                       std::int64_t p) const {
    return g.level_key_base[static_cast<std::size_t>(level)] +
           static_cast<std::uint64_t>(line) * (g.universe >> level) +
           static_cast<std::uint64_t>(p);
  }

  // +count on positions [lo, hi) of the given dimension-d line, as at
  // most 2*log2(universe) conservative dyadic counter updates.
  void range_update(int d, std::int64_t line, std::int64_t lo, std::int64_t hi,
                    std::uint64_t count) {
    if (lo >= hi) return;
    const DimGeometry& g = geom_[static_cast<std::size_t>(d)];
    dyadic_decompose(lo, hi, [&](int level, std::int64_t p) {
      cm_.add_conservative(key_at(g, level, line, p), count);
      ++updates_;
      dyadic_mass_ += count;
    });
  }

  // Sum of the count-min estimates of the position's dyadic ancestors:
  // exactly one ancestor per level carries each range's contribution, so
  // the sum upper-bounds (and without collisions equals) the true load.
  std::uint64_t point_estimate(int d, std::int64_t line,
                               std::int64_t pos) const {
    const DimGeometry& g = geom_[static_cast<std::size_t>(d)];
    std::uint64_t sum = 0;
    std::int64_t p = pos;
    for (int l = 0; l < g.levels; ++l, p >>= 1) {
      sum += cm_.estimate(key_at(g, l, line, p));
    }
    return sum;
  }

  const IntHistogram& estimate_histogram() const {
    if (hist_cache_.has_value()) return *hist_cache_;
    IntHistogram h;
    const std::int64_t num_edges = mesh_->num_edges();
    const std::int64_t cap =
        static_cast<std::int64_t>(config_.quantile_sample_cap);
    if (num_edges <= cap) {
      for (int d = 0; d < mesh_->dim(); ++d) {
        const DimGeometry& g = geom_[static_cast<std::size_t>(d)];
        for (std::int64_t line = 0; line < g.lines; ++line) {
          for (std::int64_t pos = 0; pos < g.radix; ++pos) {
            h.add(static_cast<std::int64_t>(point_estimate(d, line, pos)));
          }
        }
      }
    } else {
      // Deterministic sample of the edge space (counter-derived indices).
      const std::uint64_t sample_seed =
          splitmix64(config_.seed ^ 0x9e3779b97f4a7c15ULL);
      for (std::int64_t i = 0; i < cap; ++i) {
        const std::int64_t idx = static_cast<std::int64_t>(
            splitmix64(sample_seed + static_cast<std::uint64_t>(i)) %
            static_cast<std::uint64_t>(num_edges));
        int d = mesh_->dim() - 1;
        while (d > 0 && idx < geom_[static_cast<std::size_t>(d)].offset) --d;
        const DimGeometry& g = geom_[static_cast<std::size_t>(d)];
        const std::int64_t rel = idx - g.offset;
        h.add(static_cast<std::int64_t>(
            point_estimate(d, rel / g.radix, rel % g.radix)));
      }
    }
    hist_cache_ = std::move(h);
    return *hist_cache_;
  }

  const Mesh* mesh_;
  SketchConfig config_;
  CountMinSketch cm_;
  SpaceSavingLines ss_;
  std::vector<DimGeometry> geom_;
  int max_levels_ = 1;

  std::uint64_t edge_charges_ = 0;
  std::uint64_t dyadic_mass_ = 0;
  std::uint64_t updates_ = 0;
  std::uint64_t segments_charged_ = 0;
  std::uint64_t paths_added_ = 0;
  // Churn banked from cleared trackers; live churn adds ss_.evictions().
  std::uint64_t hh_churn_ = 0;

  // Ordered-fold state: heavy-line summaries of not-yet-due blocks.
  std::size_t next_block_ = 0;
  std::map<std::size_t, SpaceSavingLines> pending_;

  mutable std::optional<std::uint64_t> max_cache_;
  mutable std::optional<IntHistogram> hist_cache_;
  mutable std::uint64_t reported_updates_ = 0;
  mutable std::uint64_t reported_churn_ = 0;
  mutable std::uint64_t reported_segments_ = 0;
  mutable std::uint64_t reported_paths_ = 0;
};

}  // namespace

std::unique_ptr<LoadAccountant> LoadAccountant::create(
    const Mesh& mesh, AccountingMode mode, const SketchConfig& config) {
  if (mode == AccountingMode::kSketch) {
    return std::make_unique<SketchAccountant>(mesh, config);
  }
  return std::make_unique<ExactAccountant>(mesh);
}

}  // namespace oblivious
