// stream-sketch-3d: hierarchical-nd on a 128^3 mesh (6.2M edges). Random
// pairs are streamed through DemandSource::random_pairs and
// route_and_account into a default-config sketch accountant (1 MiB); no
// demand or path is materialized. Every timed call uses a stream seed of
// its own and starts on an empty plan cache, so warm-up pairs can never
// be hit.
//
// The verification pass recounts the first kKeptStreams timed streams
// with an exact accountant (25 MB) and compares: total charges equal, no
// sampled edge underestimated. Over those streams, sketch_overestimate is
// the summed sketch max-load estimate over the summed exact max load, and
// congestion_ratio the summed exact max load over the summed C* bound.
#include <memory>
#include <utility>

#include "analysis/sketch/stream_account.hpp"
#include "parallel/route_batch.hpp"
#include "probes.hpp"
#include "routing/registry.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace oblivious;

namespace {

constexpr std::int64_t kSide = 128;
constexpr std::size_t kRepPackets1t = 8192;
constexpr std::size_t kRepPackets = 32768;
constexpr std::size_t kKeptStreams = 10;
constexpr std::size_t kSamplePackets = 16384;
constexpr std::size_t kSampledEdges = 1 << 14;
// Timed calls at full parallelism: at least this many per timed part
// (the first kKeptStreams are verified).
constexpr std::size_t kMinCalls = 10;

struct Rig {
  Rig() : pool1(1), pooln(worker_count()) {}

  Mesh mesh = Mesh::cube(3, kSide);
  std::unique_ptr<Router> router;
  ThreadPool pool1;
  ThreadPool pooln;
  std::unique_ptr<LoadAccountant> accountant;
};

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t call) {
  return splitmix64(seed ^ splitmix64(call));
}

std::unique_ptr<Rig> setup() {
  auto rig = std::make_unique<Rig>();
  {
    const trace::Scope scope("decomposition.make_router");
    rig->router = make_router(Algorithm::kHierarchicalNd, rig->mesh);
  }
  rig->accountant = LoadAccountant::create(rig->mesh, AccountingMode::kSketch);
  return rig;
}

struct Stream {
  std::uint64_t seed = 0;
  std::size_t packets = 0;
  std::unique_ptr<LoadAccountant> sketch;
};

DemandSource source_of(const Rig& rig, const Stream& s) {
  const trace::Scope scope("workloads.generate");
  return DemandSource::random_pairs(rig.mesh, s.packets, s.seed);
}

// Streams `s` into `accountant` on `pool`; returns the seconds taken.
double account(const Rig& rig, const Stream& s, ThreadPool& pool,
               LoadAccountant& accountant, const char* span) {
  const DemandSource source = source_of(rig, s);
  StreamAccountOptions options;
  options.seed = s.seed;
  const Clock::time_point start = Clock::now();
  const trace::Scope scope(span);
  route_and_account(*rig.router, source, pool, options, accountant);
  return seconds_since(start);
}

struct Timed {
  std::vector<double> mpps_1t;
  std::vector<double> mpps;
  std::vector<double> call_ms;
  std::vector<Stream> kept;
};

Timed run_timed(Rig& rig, double budget_s, std::size_t min_calls,
                std::uint64_t seed, Report& report) {
  Timed t;
  std::uint64_t call = 0;
  const auto one_call = [&](ThreadPool& pool, std::size_t packets,
                            const char* span) {
    Stream s{stream_seed(seed, ++call), packets, nullptr};
    clear_plan_cache(*rig.router);
    rig.accountant->clear();
    const double seconds = account(rig, s, pool, *rig.accountant, span);
    report.op(rig.accountant->total_edge_charges() > 0,
              "route_and_account call charged its stream");
    return std::pair<Stream, double>(std::move(s), seconds);
  };
  Phase one{0.35, 5, [&] {
    return kRepPackets1t / one_call(rig.pool1, kRepPackets1t,
                                    "analysis.route_and_account.1t").second /
           1e6;
  }};
  Phase many{0.65, min_calls, [&] {
    auto [s, seconds] =
        one_call(rig.pooln, kRepPackets, "analysis.route_and_account");
    if (t.kept.size() < kKeptStreams) {
      s.sketch = std::exchange(rig.accountant, rig.accountant->clone_empty());
      t.kept.push_back(std::move(s));
    }
    t.mpps.push_back(kRepPackets / seconds / 1e6);
    return seconds * 1e3;
  }};
  interleave(budget_s, {&one, &many});
  t.mpps_1t = std::move(one.out);
  t.call_ms = std::move(many.out);
  return t;
}

struct Verified {
  PathStats paths;
  double overestimate = 0.0;
  double congestion_ratio = 0.0;
  std::vector<Demand> sample;
  std::vector<SegmentPath> sample_paths;
};

Verified verify(Rig& rig, const std::vector<Stream>& kept, std::uint64_t seed,
                Report& report) {
  Verified v;
  // Paths of a materialized sample of the first kept stream.
  const DemandSource first = source_of(rig, kept.front());
  for (std::size_t i = 0; i < kSamplePackets; ++i) {
    v.sample.push_back(first.demand(i));
  }
  RouteBatchOptions batch;
  batch.seed = seed;
  route_batch(*rig.router, v.sample, rig.pooln, batch, v.sample_paths);
  v.paths = verify_paths(rig.mesh, v.sample, v.sample_paths, report,
                         "stream sample");

  // Sums over the kept streams: C and the exact max are small integers,
  // and ratios of sums keep the figures steady across seeds.
  const EdgeId edges = rig.mesh.num_edges();
  double sketch_max = 0.0;
  double exact_max = 0.0;
  double c_star = 0.0;
  for (const Stream& s : kept) {
    auto exact = LoadAccountant::create(rig.mesh, AccountingMode::kExact);
    account(rig, s, rig.pooln, *exact, "analysis.route_and_account.exact");
    report.check(s.sketch->total_edge_charges() == exact->total_edge_charges(),
                 "sketch total charges equal the exact count");
    std::uint64_t under = 0;
    for (std::size_t i = 0; i < kSampledEdges; ++i) {
      const auto e = static_cast<EdgeId>(
          splitmix64(s.seed + i) % static_cast<std::uint64_t>(edges));
      if (s.sketch->estimate_load(e) < exact->estimate_load(e)) ++under;
    }
    report.ops(kSampledEdges, under,
               "verify: sketch never underestimates a sampled edge");
    sketch_max += static_cast<double>(s.sketch->max_load());
    exact_max += static_cast<double>(exact->max_load());
    const DemandSource source = source_of(rig, s);
    std::vector<Demand> demands;
    for (std::size_t i = 0; i < source.size(); ++i) {
      demands.push_back(source.demand(i));
    }
    c_star += lower_bound(rig.mesh, *rig.router, demands);
  }
  v.overestimate = sketch_max / exact_max;
  v.congestion_ratio = exact_max / c_star;

  // Thread-count invariance of the sketch state on a two-block stream.
  Stream small{kept.front().seed, 2 * rig.accountant->block_size(), nullptr};
  auto one = rig.accountant->clone_empty();
  auto many = rig.accountant->clone_empty();
  account(rig, small, rig.pool1, *one, "analysis.route_and_account.verify");
  account(rig, small, rig.pooln, *many, "analysis.route_and_account.verify");
  bool same = one->total_edge_charges() == many->total_edge_charges() &&
              one->max_load() == many->max_load();
  for (std::size_t i = 0; same && i < kSampledEdges; ++i) {
    const auto e = static_cast<EdgeId>(splitmix64(seed + i) %
                                       static_cast<std::uint64_t>(edges));
    same = one->estimate_load(e) == many->estimate_load(e);
  }
  report.check(same, "sketch state identical on 1 and min(nproc,4) threads");
  return v;
}

void probe_layers(Rig& rig, const Verified& v, std::uint64_t seed) {
  const auto batch = std::span<const Demand>(v.sample).first(kBatchPackets);
  clear_plan_cache(*rig.router);
  probe_route_segments(*rig.router, batch, seed, "routing.route_segments_into");
  clear_plan_cache(*rig.router);
  probe_resolve_plan(*rig.router, batch, "routing.resolve_plan.cold");
  probe_batch_engines(*rig.router, batch, rig.pooln, seed, 4, true);
  auto exact = LoadAccountant::create(rig.mesh, AccountingMode::kExact);
  probe_add_segments(*exact, v.sample_paths, "analysis.add_segments");
  auto sketch = rig.accountant->clone_empty();
  probe_add_segments(*sketch, v.sample_paths, "analysis.sketch.add_segments");
  probe_fold(*rig.accountant, v.sample_paths, 16, "analysis.fold_block");
}

}  // namespace

void run_stream_sketch_3d(const Options& o, Report& report) {
  trace::set_enabled(o.trace);
  double setup_s = 0.0;
  const std::unique_ptr<Rig> rig =
      repeat_setup([](int) { return setup(); }, setup_s);
  trace::set_enabled(false);
  // Warm-up on a stream seed no timed call uses; the plan cache is
  // emptied before every timed call anyway.
  {
    const Stream warm{stream_seed(o.seed, 0) ^ 0x3a3a, kRepPackets, nullptr};
    account(*rig, warm, rig->pooln, *rig->accountant, "warm-up");
    rig->accountant->clear();
    account(*rig, Stream{warm.seed, kRepPackets1t, nullptr}, rig->pool1,
            *rig->accountant, "warm-up");
  }

  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  const auto cache_before = plan_cache_counts(*rig->router);
  Timed plain = run_timed(*rig, budget, kMinCalls, o.seed, report);
  const auto cache_after = plan_cache_counts(*rig->router);
  const double rss = peak_rss_mb();
  Timed traced;
  if (o.trace) {
    trace::set_enabled(true);
    traced = run_timed(*rig, budget, kMinCalls, o.seed ^ 0x7ace, report);
    trace::set_enabled(false);
  }
  const Verified v = verify(*rig, plain.kept, splitmix64(o.seed ^ 0x7e51), report);
  report.note("route_and_account call (" + std::to_string(kRepPackets) +
              " packets, " + std::to_string(worker_count()) +
              " threads, sketch): " + describe_latency(plain.call_ms, "ms"));

  if (!o.trace) {
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("mpps_1t", median(plain.mpps_1t), "Mpkt/s");
    report.metric("mpps", median(plain.mpps), "Mpkt/s");
    report.metric("p50_ms", median(plain.call_ms), "ms");
    report.metric("mean_stretch", v.paths.mean_stretch(), "ratio");
    report.metric("congestion_ratio", v.congestion_ratio, "ratio");
    report.metric("sketch_overestimate", v.overestimate, "ratio");
    return;
  }

  trace::set_enabled(true);
  probe_layers(*rig, v, o.seed);
  const double hits = static_cast<double>(cache_after.first - cache_before.first);
  const double lookups =
      hits + static_cast<double>(cache_after.second - cache_before.second);
  std::uint64_t segments = 0;
  for (const SegmentPath& sp : v.sample_paths) segments += sp.segments.size();
  const auto per_seg = [&](const char* span) {
    return trace::row(span).total_ns / static_cast<double>(segments);
  };
  report.metric("workloads.generate_ms",
                trace::row("workloads.generate").mean_ns() / 1e6, "ms");
  report.metric("decomposition.build_ms",
                trace::row("decomposition.make_router").mean_ns() / 1e6, "ms");
  report.metric("routing.plan_ns",
                trace::row("routing.resolve_plan.cold").mean_ns(), "ns");
  report.metric("routing.plan_cache_hit_ratio", lookups ? hits / lookups : 0.0,
                "ratio");
  report.metric("routing.plan_cache_lookups", lookups, "count");
  report.metric("routing.emit_ns",
                trace::row("routing.route_segments_into").mean_ns() -
                    trace::row("routing.resolve_plan.cold").mean_ns(),
                "ns");
  report.metric("routing.segments_per_pkt",
                static_cast<double>(v.paths.segments) / v.paths.paths, "count");
  report.metric("routing.hops_per_pkt",
                static_cast<double>(v.paths.hops) / v.paths.paths, "count");
  report.metric("analysis.account_ns_per_seg", per_seg("analysis.add_segments"),
                "ns");
  report.metric("analysis.sketch.account_ns_per_seg",
                per_seg("analysis.sketch.add_segments"), "ns");
  report.metric("analysis.sketch.memory_bytes",
                static_cast<double>(rig->accountant->memory_bytes()), "bytes");
  report.metric("analysis.fold_ms",
                trace::row("analysis.fold_block").mean_ns() / 1e6, "ms");
  report.metric("parallel.scaling_eff",
                median(plain.mpps) /
                    (static_cast<double>(worker_count()) * median(plain.mpps_1t)),
                "ratio");
  report_batch_engines(*rig->router, kBatchPackets, report);
  report.metric("trace.overhead_pct",
                (median(plain.mpps) - median(traced.mpps)) / median(plain.mpps) *
                    100.0,
                "%");
}

}  // namespace perfbench
