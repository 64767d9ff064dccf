// serve-2d: an in-process daemon::Server on a Unix socket (64x64 mesh,
// hierarchical-2d, 2 routing threads, exact accounting) driven through
// DaemonClient with 64-packet random-pair requests, in three kinds of
// window that the run interleaves:
//
//   A  open loop: kWindowRequests requests at a fixed Poisson rate
//      (kOpenLoopRps) over 3 persistent connections plus 1 one-shot
//      connection that reconnects for every request. Latency is timed
//      from the scheduled send, so a late generator cannot hide queueing.
//   B  closed loop: 4 persistent connections back to back (mpps).
//   C  the daemon's routing core without the daemon: each request's
//      route_batch on one thread, then exact accounting, as the batch
//      worker does it (mpps_1t). A closed loop on one connection would
//      measure thread wake-ups instead, which on a shared host swung its
//      rate 3x between runs.
//
// p50_ms is the median over A windows of each window's median latency;
// mpps and mpps_1t are medians over B and C windows. Every request
// carries demands generated at set-up and a seed of its own.
// Verification: the daemon ends with unaccounted == 0 and every sampled
// response is bit-identical to a local route_batch with the same seed.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "daemon/client.hpp"
#include "daemon/fair_queue.hpp"
#include "daemon/protocol.hpp"
#include "daemon/server.hpp"
#include "obs/export.hpp"
#include "parallel/route_batch.hpp"
#include "probes.hpp"
#include "routing/registry.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace oblivious;
using daemon::DaemonClient;
using daemon::RouteResponse;
using daemon::RouteStatus;

namespace {

constexpr std::int64_t kSide = 64;
constexpr std::size_t kPackets = 64;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kRoutingThreads = 2;
// Fixed open-loop offered load (requests per second): about half the
// closed-loop capacity of a 4-vCPU host under co-tenant load (~1300
// requests/s), a tenth of it on a quiet host (~4700 requests/s). Near
// the loaded capacity, queueing would swamp the daemon's own latency.
constexpr double kOpenLoopRps = 500.0;
// One A window: one second of requests.
constexpr std::size_t kWindowRequests = 500;
constexpr std::size_t kOpenLoopWindows = 8;
constexpr double kClosedWindowS = 0.25;
constexpr std::size_t kMinWindows = 3;
// Timed part of the daemon probe in route-random-2d's traced run.
constexpr double kDaemonProbeSeconds = 4.0;
constexpr std::size_t kClosedLoopPool = 16384;
// Every kSampleStride-th request's response is kept for verification.
constexpr std::size_t kSampleStride = 64;

using Demands = std::vector<Demand>;

struct Request {
  std::uint64_t seed = 0;
  Demands demands;
};

Request make_request(const Mesh& mesh, std::uint64_t seed) {
  Request r;
  r.seed = seed;
  Rng rng(seed);
  const auto n = static_cast<std::uint64_t>(mesh.num_nodes());
  for (std::size_t i = 0; i < kPackets; ++i) {
    r.demands.push_back(Demand{static_cast<NodeId>(rng.uniform_below(n)),
                               static_cast<NodeId>(rng.uniform_below(n))});
  }
  return r;
}

struct Rig {
  Rig() : pool(kRoutingThreads), pool1(1) {}
  ~Rig() { stop(); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  void stop() {
    clients.clear();
    if (!server_thread.joinable()) return;
    server->request_drain();
    server_thread.join();
    std::remove(options.endpoint.unix_path.c_str());
  }

  Mesh mesh{std::vector<std::int64_t>{kSide, kSide}};
  daemon::ServerOptions options;
  std::unique_ptr<daemon::Server> server;
  std::atomic<bool> server_failed{false};
  std::thread server_thread;
  // Local twin of the daemon's core for phase C, verification and probes.
  std::unique_ptr<Router> router;
  std::unique_ptr<LoadAccountant> loads;
  ThreadPool pool;
  ThreadPool pool1;
  std::vector<Request> open_loop;  // kOpenLoopWindows windows
  std::vector<double> offset_s;    // send time from the window's start
  std::vector<Request> closed_loop;
  // Persistent connections; A uses the first three.
  std::vector<std::unique_ptr<DaemonClient>> clients;
};

std::unique_ptr<Rig> setup(const Options& o, int index) {
  auto rig = std::make_unique<Rig>();
  rig->options.endpoint.unix_path = o.out_dir + "/oblvd-" +
                                    std::to_string(::getpid()) + "-" +
                                    std::to_string(index) + ".sock";
  rig->options.algorithm = "hierarchical-2d";
  rig->options.routing_threads = kRoutingThreads;
  rig->server = std::make_unique<daemon::Server>(rig->mesh, rig->options);
  rig->server_thread = std::thread([r = rig.get()] {
    try {
      (void)r->server->run();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: oblvd server failed: " << e.what() << "\n";
      r->server_failed.store(true);
    }
  });
  {
    const trace::Scope scope("decomposition.make_router");
    rig->router = make_router(Algorithm::kHierarchical2d, rig->mesh);
  }
  rig->loads = LoadAccountant::create(rig->mesh, AccountingMode::kExact);
  {
    const trace::Scope scope("workloads.generate");
    Rng rng(o.seed);
    for (std::size_t i = 0; i < kOpenLoopWindows * kWindowRequests; ++i) {
      const double gap = -std::log(1.0 - rng.uniform_double()) / kOpenLoopRps;
      rig->offset_s.push_back(
          (i % kWindowRequests == 0 ? 0.0 : rig->offset_s.back()) + gap);
      rig->open_loop.push_back(
          make_request(rig->mesh, splitmix64(o.seed ^ (2 * i))));
    }
    for (std::size_t i = 0; i < kClosedLoopPool; ++i) {
      rig->closed_loop.push_back(
          make_request(rig->mesh, splitmix64(o.seed ^ (2 * i + 1))));
    }
  }
  const Clock::time_point start = Clock::now();
  while (!rig->server->serving()) {
    if (rig->server_failed.load() || seconds_since(start) > 10.0) {
      throw std::runtime_error("the daemon did not start serving on " +
                               rig->options.endpoint.unix_path);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return rig;
}

struct Sample {
  const Request* request = nullptr;
  RouteResponse response;
};

// What the client threads collected over a run.
struct Log {
  std::mutex mu;
  std::vector<double> latency_ms;  // A windows
  std::vector<double> late_ms;
  std::vector<Sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// One request through `client` (a fresh one-shot connection when null).
bool send(Rig& rig, DaemonClient* client, const Request& r, std::uint64_t id,
          RouteResponse& response) {
  try {
    const trace::Scope scope("daemon.client.route", id);
    if (client != nullptr) {
      response = client->route("bench", r.seed, r.demands);
    } else {
      DaemonClient one_shot(rig.options.endpoint);
      response = one_shot.route("bench", r.seed, r.demands);
    }
    return response.status == RouteStatus::kOk &&
           response.paths.size() == r.demands.size();
  } catch (const std::exception&) {
    return false;
  }
}

// An A window: connection k sends requests k, k + 4, ... of the window at
// their scheduled times; connection 3 reconnects for every request.
// Returns the window's median latency.
double open_window(Rig& rig, std::size_t window, Log& log) {
  const std::size_t base = (window % kOpenLoopWindows) * kWindowRequests;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<double> latency;
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kConnections; ++k) {
    threads.emplace_back([&, k] {
      DaemonClient* client = k + 1 < kConnections ? rig.clients[k].get() : nullptr;
      std::vector<double> mine;
      std::vector<double> late;
      std::vector<Sample> kept;
      std::uint64_t tried = 0;
      std::uint64_t bad = 0;
      RouteResponse response;
      for (std::size_t j = k; j < kWindowRequests; j += kConnections) {
        const std::size_t i = base + j;
        ++tried;
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(rig.offset_s[i]));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        if (!send(rig, client, rig.open_loop[i], i, response)) {
          ++bad;
          continue;
        }
        const Clock::time_point done = Clock::now();
        const auto ms = [due](Clock::time_point t) {
          return std::chrono::duration<double, std::milli>(t - due).count();
        };
        mine.push_back(ms(done));
        late.push_back(ms(sent));
        if (i % kSampleStride == 0) {
          kept.push_back(Sample{&rig.open_loop[i], response});
        }
      }
      const std::lock_guard<std::mutex> lock(log.mu);
      latency.insert(latency.end(), mine.begin(), mine.end());
      log.latency_ms.insert(log.latency_ms.end(), mine.begin(), mine.end());
      log.late_ms.insert(log.late_ms.end(), late.begin(), late.end());
      for (Sample& s : kept) log.samples.push_back(std::move(s));
      log.attempted += tried;
      log.failed += bad;
    });
  }
  for (std::thread& t : threads) t.join();
  return median(latency);
}

// A B window: closed loop on the persistent connections for
// kClosedWindowS, taking request sets from the pool at `next` on. Returns
// delivered Mpkt/s.
double closed_window(Rig& rig, std::atomic<std::size_t>& next, Log& log) {
  std::atomic<std::uint64_t> packets{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kConnections; ++k) {
    threads.emplace_back([&, k] {
      std::vector<Sample> kept;
      std::uint64_t tried = 0;
      std::uint64_t bad = 0;
      RouteResponse response;
      while (seconds_since(start) < kClosedWindowS) {
        const std::size_t i = next.fetch_add(1);
        const Request& r = rig.closed_loop[i % rig.closed_loop.size()];
        ++tried;
        if (!send(rig, rig.clients[k].get(), r, i, response)) {
          ++bad;
          continue;
        }
        packets.fetch_add(kPackets);
        if (i % kSampleStride == 0) kept.push_back(Sample{&r, response});
      }
      const std::lock_guard<std::mutex> lock(log.mu);
      for (Sample& s : kept) log.samples.push_back(std::move(s));
      log.attempted += tried;
      log.failed += bad;
    });
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(packets.load()) / seconds_since(start) / 1e6;
}

// A C window: request sets from the pool at `next` on, for
// kClosedWindowS. Returns Mpkt/s.
double core_window(Rig& rig, std::atomic<std::size_t>& next) {
  std::vector<SegmentPath> paths;
  std::uint64_t packets = 0;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < kClosedWindowS) {
    const Request& r = rig.closed_loop[next.fetch_add(1) % rig.closed_loop.size()];
    RouteBatchOptions options;
    options.seed = r.seed;
    route_batch(*rig.router, r.demands, rig.pool1, options, paths);
    rig.loads->add_segment_paths(paths);
    packets += kPackets;
  }
  return static_cast<double>(packets) / seconds_since(start) / 1e6;
}

struct Timed {
  std::vector<double> p50_ms;   // per A window
  std::vector<double> mpps;     // per B window
  std::vector<double> mpps_1t;  // per C window
};

Timed run_timed(Rig& rig, double budget_s, std::size_t min_windows,
                std::size_t& window, std::atomic<std::size_t>& next, Log& log) {
  Timed t;
  Phase a{0.5, min_windows, [&] { return open_window(rig, window++, log); }};
  Phase b{0.3, min_windows, [&] { return closed_window(rig, next, log); }};
  Phase c{0.2, min_windows, [&] { return core_window(rig, next); }};
  interleave(budget_s, {&a, &b, &c});
  t.p50_ms = std::move(a.out);
  t.mpps = std::move(b.out);
  t.mpps_1t = std::move(c.out);
  return t;
}

double gauge(const obs::MetricsSnapshot& m, const std::string& name) {
  const auto it = m.gauges.find(name);
  return it == m.gauges.end() ? 0.0 : it->second;
}

// Sampled responses against a local route_batch with the same seed.
PathStats verify_samples(Rig& rig, const std::vector<Sample>& samples,
                         Report& report, Demands& demands,
                         std::vector<SegmentPath>& paths) {
  std::vector<SegmentPath> local;
  std::uint64_t differ = 0;
  for (const Sample& s : samples) {
    RouteBatchOptions options;
    options.seed = s.request->seed;
    route_batch(*rig.router, s.request->demands, rig.pool, options, local);
    if (local != s.response.paths) ++differ;
    demands.insert(demands.end(), s.request->demands.begin(),
                   s.request->demands.end());
    paths.insert(paths.end(), s.response.paths.begin(), s.response.paths.end());
  }
  report.ops(samples.size(), differ,
             "verify: sampled response bit-identical to local route_batch");
  return verify_paths(rig.mesh, demands, paths, report, "sampled responses");
}

// The traced run's per-call probes of the daemon's layers, outside the
// daemon, on the workload's own requests.
void probe_layers(Rig& rig, std::uint64_t seed) {
  const std::size_t n = 256;
  auto loads = LoadAccountant::create(rig.mesh, AccountingMode::kExact);
  daemon::FairShareQueue queue;
  std::vector<std::uint8_t> frame;
  std::vector<SegmentPath> paths;
  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = rig.closed_loop[i];
    RouteBatchOptions options;
    options.seed = r.seed;
    options.validate_demands = false;
    {
      const trace::Scope scope("daemon.route_batch");
      route_batch(*rig.router, r.demands, rig.pool, options, paths);
    }
    {
      const trace::Scope scope("daemon.account");
      loads->add_segment_paths(paths);
    }
    daemon::RouteRequest request;
    request.request_id = static_cast<std::uint32_t>(i);
    request.seed = r.seed;
    request.tenant = "bench";
    request.demands = r.demands;
    daemon::RouteResponse response;
    response.request_id = request.request_id;
    response.paths = paths;
    {
      // Frames start with a 4-byte length prefix; decoders take the payload.
      const trace::Scope scope("daemon.codec");
      frame.clear();
      daemon::encode_route_request(request, frame);
      (void)daemon::decode_route_request(frame.data() + 4, frame.size() - 4);
      frame.clear();
      daemon::encode_route_response(response, frame);
      (void)daemon::decode_route_response(frame.data() + 4, frame.size() - 4);
    }
    {
      const trace::Scope scope("daemon.fair_queue");
      (void)queue.try_enqueue(daemon::QueueItem{"bench", kPackets, i, 0, 0});
      (void)queue.dequeue_chunk(kPackets);
    }
    probe_batch_engines(*rig.router, r.demands, rig.pool, seed + i, 1, false);
  }
  DaemonClient client(rig.options.endpoint);
  for (std::size_t i = 0; i < n; ++i) {
    const trace::Scope scope("daemon.ping", i);
    (void)client.ping();
  }
}

// The serve-2d run. With `daemon_layers_only` (always a traced run) it
// reports just the daemon.* and load.* per-layer metrics.
void serve(const Options& o, bool daemon_layers_only, Report& report) {
  trace::set_enabled(o.trace);
  double setup_s = 0.0;
  const std::unique_ptr<Rig> rig =
      repeat_setup([&](int i) { return setup(o, i); }, setup_s);
  trace::set_enabled(false);

  // Warm-up on requests the timed windows never send, on both
  // connection shapes.
  for (std::size_t k = 0; k < kConnections; ++k) {
    rig->clients.push_back(std::make_unique<DaemonClient>(rig->options.endpoint));
  }
  for (std::size_t i = 0; i < 64; ++i) {
    const Request r = make_request(rig->mesh, splitmix64(o.seed ^ 0x3a3a0000 ^ i));
    RouteResponse response;
    report.op(send(*rig, i % 2 ? rig->clients[i % kConnections].get() : nullptr,
                   r, i, response),
              "warm-up request delivered");
  }
  const long threads_before = proc_threads();
  const long maps_before = proc_maps();

  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  const std::size_t min_windows = o.trace ? 1 : kMinWindows;
  std::size_t window = 0;
  std::atomic<std::size_t> next{0};
  Log log;
  const Timed plain = run_timed(*rig, budget, min_windows, window, next, log);
  const double rss = peak_rss_mb();
  const std::vector<double> latency_ms = log.latency_ms;
  Timed traced;
  if (o.trace) {
    trace::set_enabled(true);
    traced = run_timed(*rig, budget, min_windows, window, next, log);
  }
  const long threads_after = proc_threads();
  const long maps_after = proc_maps();
  if (o.trace) probe_layers(*rig, o.seed);
  trace::set_enabled(false);
  report.ops(log.attempted, log.failed, "daemon request delivered");

  Demands sample_demands;
  std::vector<SegmentPath> sample_paths;
  const PathStats stats =
      verify_samples(*rig, log.samples, report, sample_demands, sample_paths);
  const obs::MetricsSnapshot metrics = [&] {
    DaemonClient client(rig->options.endpoint);
    return obs::metrics_from_json(client.metrics_json());
  }();
  rig->stop();
  const daemon::ServerStats server = rig->server->stats();
  report.check(server.unaccounted_requests() == 0,
               "daemon unaccounted == 0 after drain");

  report.note("A (open loop, " + std::to_string(static_cast<int>(kOpenLoopRps)) +
              " req/s, " + std::to_string(kConnections) +
              " connections, 1 one-shot), " + std::to_string(plain.p50_ms.size()) +
              " windows of " + std::to_string(kWindowRequests) +
              " requests: " + describe_latency(latency_ms, "ms"));
  report.note("B (closed loop, 4 connections): " +
              std::to_string(median(plain.mpps) * 1e3) + " kpkt/s over " +
              std::to_string(plain.mpps.size()) +
              " windows; C (routing core, 1 thread): " +
              std::to_string(median(plain.mpps_1t) * 1e3) + " kpkt/s over " +
              std::to_string(plain.mpps_1t.size()) + " windows");

  if (!o.trace) {
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("mpps_1t", median(plain.mpps_1t), "Mpkt/s");
    report.metric("mpps", median(plain.mpps), "Mpkt/s");
    report.metric("p50_ms", median(plain.p50_ms), "ms");
    report.metric("mean_stretch", stats.mean_stretch(), "ratio");
    report.metric("congestion_ratio",
                  congestion_ratio(rig->mesh, *rig->router, sample_demands,
                                   sample_paths),
                  "ratio");
    // The daemon accounts exactly: its max-load estimate is the load.
    report.metric("sketch_overestimate", 1.0, "ratio");
    return;
  }

  const auto us = [](const char* span) { return trace::row(span).mean_ns() / 1e3; };
  const double codec = us("daemon.codec");
  const double route = us("daemon.route_batch");
  const double account = us("daemon.account");
  const double ping = us("daemon.ping");
  const auto histogram = [&](const char* name) {
    const auto it = metrics.histograms.find(name);
    return it == metrics.histograms.end() ? obs::HistogramSnapshot{} : it->second;
  };
  if (!daemon_layers_only) {
    report.metric("workloads.generate_ms",
                  trace::row("workloads.generate").mean_ns() / 1e6, "ms");
    report.metric("decomposition.build_ms",
                  trace::row("decomposition.make_router").mean_ns() / 1e6, "ms");
    report.metric("routing.segments_per_pkt",
                  static_cast<double>(stats.segments) / stats.paths, "count");
    report.metric("routing.hops_per_pkt",
                  static_cast<double>(stats.hops) / stats.paths, "count");
    report_batch_engines(*rig->router, kPackets, report);
    report.metric("trace.overhead_pct",
                  (median(plain.mpps) - median(traced.mpps)) /
                      median(plain.mpps) * 100.0,
                  "%");
  }
  report.metric("daemon.codec_us", codec, "us");
  report.metric("daemon.fair_queue_ns", trace::row("daemon.fair_queue").mean_ns(),
                "ns");
  report.metric("daemon.route_us", route, "us");
  report.metric("daemon.account_us", account, "us");
  report.metric("daemon.ping_us", ping, "us");
  report.metric("daemon.wait_us",
                median(plain.p50_ms) * 1e3 - codec - route - account - ping, "us");
  report.metric("daemon.coalesce_ratio", histogram("daemon.batch.requests").mean(),
                "ratio");
  report.metric("daemon.queue_depth_max",
                histogram("daemon.queue.depth").count
                    ? histogram("daemon.queue.depth").quantile(1.0)
                    : 0.0,
                "count");
  report.metric("daemon.rejected", gauge(metrics, "daemon.requests.rejected"),
                "count");
  report.metric("daemon.expired", gauge(metrics, "daemon.requests.expired"),
                "count");
  report.metric("daemon.threads_delta",
                static_cast<double>(threads_after - threads_before), "count");
  report.metric("daemon.maps_delta", static_cast<double>(maps_after - maps_before),
                "count");
  report.metric("load.late_p99_ms", percentile(log.late_ms, 0.99), "ms");
}

}  // namespace

void run_serve_2d(const Options& o, Report& report) { serve(o, false, report); }

void probe_daemon_layers(const Options& o, Report& report) {
  Options layers = o;
  layers.seconds = kDaemonProbeSeconds;
  layers.trace = true;
  serve(layers, true, report);
}

}  // namespace perfbench
