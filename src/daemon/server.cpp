#include "daemon/server.hpp"

#include <chrono>
#include <future>

#include "daemon/protocol.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "parallel/route_batch.hpp"
#include "routing/registry.hpp"
#include "util/check.hpp"

namespace oblivious::daemon {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Milliseconds on the monotonic clock, comparable with QueueItem's
// enqueued_at_ms/expires_at_ms (the fair queue reads the same clock).
std::uint64_t steady_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// What the batch worker hands back through a Pending's promise: either
// routed paths, or the verdict that the deadline passed first (the
// connection thread turns that into a kExpired response).
struct RouteOutcome {
  bool expired = false;
  std::vector<SegmentPath> paths;
};

}  // namespace

// One admitted route request in flight between a connection thread and
// the batch worker. The connection thread owns the Pending and blocks
// on the future; the worker is guaranteed to fulfil every admitted
// request before the drain completes, so the raw token round-trip
// through QueueItem is safe.
struct Server::Pending {
  RouteRequest request;
  std::chrono::steady_clock::time_point admitted_at;
  std::promise<RouteOutcome> promise;
};

Server::Server(const Mesh& mesh, ServerOptions options)
    : mesh_(mesh),
      options_(std::move(options)),
      routing_pool_(options_.routing_threads),
      queue_(options_.queue) {
  const auto algorithm = algorithm_from_name(options_.algorithm);
  OBLV_REQUIRE(algorithm.has_value(),
               "unknown algorithm '" + options_.algorithm + "'");
  router_ = make_router(*algorithm, mesh_);
  {
    oblv::MutexLock lock(account_mu_);
    accountant_ = LoadAccountant::create(mesh_, options_.accounting.mode,
                                         options_.accounting.sketch);
  }
  for (const auto& [name, weight] : options_.tenants) {
    queue_.register_tenant(name, weight);
  }
}

Server::~Server() = default;

ServerStats Server::stats() const {
  ServerStats s;
  // The unaccounted == 0 drain check runs after worker.join() plus the
  // connection-thread joins, whose synchronization already orders every
  // preceding fetch_add before these snapshot loads.
  // oblv-lint: allow(D009) drain-synchronized snapshot reads, see above.
  s.requests_submitted = requests_submitted_.load(std::memory_order_relaxed);
  s.requests_delivered = requests_delivered_.load(std::memory_order_relaxed);
  s.requests_rejected = requests_rejected_.load(std::memory_order_relaxed);
  // oblv-lint: allow(D009) same drain-synchronized snapshot as above.
  s.requests_expired = requests_expired_.load(std::memory_order_relaxed);
  s.packets_submitted = packets_submitted_.load(std::memory_order_relaxed);
  s.packets_delivered = packets_delivered_.load(std::memory_order_relaxed);
  // oblv-lint: allow(D009) same drain-synchronized snapshot as above.
  s.packets_rejected = packets_rejected_.load(std::memory_order_relaxed);
  s.packets_expired = packets_expired_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  return s;
}

void Server::publish_gauges() const {
  if (!obs::metrics_enabled()) return;
  auto& registry = obs::MetricsRegistry::global();
  const ServerStats s = stats();
  registry.gauge("daemon.requests.submitted")
      .set(static_cast<double>(s.requests_submitted));
  registry.gauge("daemon.requests.delivered")
      .set(static_cast<double>(s.requests_delivered));
  registry.gauge("daemon.requests.rejected")
      .set(static_cast<double>(s.requests_rejected));
  registry.gauge("daemon.packets.submitted")
      .set(static_cast<double>(s.packets_submitted));
  registry.gauge("daemon.packets.delivered")
      .set(static_cast<double>(s.packets_delivered));
  registry.gauge("daemon.packets.rejected")
      .set(static_cast<double>(s.packets_rejected));
  registry.gauge("daemon.requests.expired")
      .set(static_cast<double>(s.requests_expired));
  registry.gauge("daemon.packets.expired")
      .set(static_cast<double>(s.packets_expired));
  registry.gauge("daemon.protocol_errors")
      .set(static_cast<double>(s.protocol_errors));
  registry.gauge("daemon.connections")
      .set(static_cast<double>(s.connections_accepted));
  registry.gauge("daemon.unaccounted")
      .set(static_cast<double>(s.unaccounted_requests()));
  registry.gauge("daemon.queue.depth")
      .set(static_cast<double>(queue_.queued_packets()));
  {
    oblv::MutexLock lock(account_mu_);
    accountant_->record_metrics("daemon.load");
    registry.gauge("daemon.load.memory_bytes")
        .set(static_cast<double>(accountant_->memory_bytes()));
  }
  std::uint64_t overloaded_tenants = 0;
  std::uint64_t overload_rejected = 0;
  for (const TenantStats& t : queue_.tenant_stats()) {
    const std::string prefix = "daemon.tenant." + t.name;
    registry.gauge(prefix + ".weight").set(static_cast<double>(t.weight));
    registry.gauge(prefix + ".served_packets")
        .set(static_cast<double>(t.served_packets));
    registry.gauge(prefix + ".queued_packets")
        .set(static_cast<double>(t.queued_packets));
    registry.gauge(prefix + ".capacity_packets")
        .set(static_cast<double>(t.capacity_packets));
    registry.gauge(prefix + ".rejected_requests")
        .set(static_cast<double>(t.rejected_requests));
    registry.gauge(prefix + ".expired_packets")
        .set(static_cast<double>(t.expired_packets));
    registry.gauge(prefix + ".overload_rejected_requests")
        .set(static_cast<double>(t.overload_rejected_requests));
    registry.gauge(prefix + ".overloaded")
        .set(t.overloaded ? 1.0 : 0.0);
    overloaded_tenants += t.overloaded ? 1 : 0;
    overload_rejected += t.overload_rejected_requests;
  }
  // The daemon.overload.* gauge set: how many tenants the CoDel
  // detector currently marks overloaded, and the lifetime count of
  // admissions it refused.
  registry.gauge("daemon.overload.tenants")
      .set(static_cast<double>(overloaded_tenants));
  registry.gauge("daemon.overload.rejected_requests")
      .set(static_cast<double>(overload_rejected));
}

std::string Server::metrics_json() const {
  publish_gauges();
  return obs::metrics_envelope_json(
      {{"tool", "oblvd"},
       {"mesh", mesh_.describe()},
       {"algorithm", options_.algorithm}},
      obs::MetricsRegistry::global().snapshot());
}

int Server::run() {
  UniqueFd listener = [&] {
    std::uint16_t port = 0;
    UniqueFd fd = listen_on(options_.endpoint, &port);
    bound_port_.store(port, std::memory_order_release);
    return fd;
  }();
  std::thread worker([this] { batch_worker_loop(); });
  serving_.store(true, std::memory_order_release);

  while (!drain_requested_.load(std::memory_order_acquire)) {
    reap_connections();
    UniqueFd conn = accept_connection(listener.get(), options_.poll_tick_ms);
    if (!conn.valid()) continue;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    oblv::MutexLock lock(conn_mu_);
    Connection& c = connections_.emplace_back();
    c.thread = std::thread(
        [this, done = &c.done, fd = std::move(conn)]() mutable {
          connection_loop(std::move(fd));
          done->store(true, std::memory_order_release);
        });
  }

  // --- drain state machine -------------------------------------------------
  // 1. Stop accepting (listener closes when this scope ends).
  listener.reset();
  if (options_.endpoint.is_unix()) {
    ::remove(options_.endpoint.unix_path.c_str());
  }
  // 2. Reject new work; 3. the worker flushes every admitted request.
  queue_.begin_drain();
  worker.join();
  // 4. Every future is fulfilled; let the connection threads write
  // their final responses and exit their read loops.
  stopping_.store(true, std::memory_order_release);
  {
    oblv::MutexLock lock(conn_mu_);
    for (Connection& c : connections_) c.thread.join();
    connections_.clear();
  }
  serving_.store(false, std::memory_order_release);

  publish_gauges();
  const ServerStats s = stats();
  OBLV_CHECK(s.unaccounted_requests() == 0,
             "drain accounting: submitted != delivered + rejected + expired");
  return 0;
}

void Server::reap_connections() {
  oblv::MutexLock lock(conn_mu_);
  connections_.remove_if([](Connection& c) {
    if (!c.done.load(std::memory_order_acquire)) return false;
    c.thread.join();  // already past its last statement: returns at once
    return true;
  });
}

void Server::handle_route_request(int fd, std::vector<std::uint8_t>& payload,
                                  std::vector<std::uint8_t>& out,
                                  std::uint64_t frame_start_ms) {
  RouteRequest request = decode_route_request(payload.data(), payload.size());
  requests_submitted_.fetch_add(1, std::memory_order_relaxed);
  packets_submitted_.fetch_add(request.demands.size(),
                               std::memory_order_relaxed);
  OBLV_COUNTER_ADD("daemon.requests", 1);

  RouteResponse response;
  response.request_id = request.request_id;
  const std::uint16_t wire_version = request.version;

  // Validation at admission, not in the worker: route_batch must never
  // throw on the batch thread (ThreadPool tasks are noexcept).
  std::string invalid;
  if (request.demands.empty()) {
    invalid = "empty demand list";
  } else {
    for (const Demand& d : request.demands) {
      if (d.src < 0 || d.src >= mesh_.num_nodes() || d.dst < 0 ||
          d.dst >= mesh_.num_nodes()) {
        invalid = "demand endpoints off the mesh (" + std::to_string(d.src) +
                  " -> " + std::to_string(d.dst) + ")";
        break;
      }
    }
  }
  if (!invalid.empty()) {
    requests_rejected_.fetch_add(1, std::memory_order_relaxed);
    packets_rejected_.fetch_add(request.demands.size(),
                                std::memory_order_relaxed);
    OBLV_COUNTER_ADD("daemon.admission.invalid", 1);
    response.status = RouteStatus::kError;
    response.message = invalid;
    encode_route_response(response, out, wire_version);
    return;
  }

  Pending pending;
  pending.admitted_at = std::chrono::steady_clock::now();
  const std::size_t packets = request.demands.size();
  const std::string tenant = request.tenant;
  const std::uint32_t deadline_ms = request.deadline_ms;
  pending.request = std::move(request);

  QueueItem item;
  item.tenant = tenant;
  item.packets = packets;
  item.token = reinterpret_cast<std::uint64_t>(&pending);
  item.enqueued_at_ms = steady_now_ms();
  // The deadline budget starts when the frame started arriving, so a
  // request whose own transport (slow-loris client, chaos stall) ate
  // the budget is shed right here at admission.
  item.expires_at_ms =
      deadline_ms == 0 ? 0 : frame_start_ms + deadline_ms;
  const AdmissionResult admission = queue_.try_enqueue(item);
  if (!admission.admitted) {
    if (admission.reason == RejectReason::kDeadline) {
      requests_expired_.fetch_add(1, std::memory_order_relaxed);
      packets_expired_.fetch_add(packets, std::memory_order_relaxed);
      OBLV_COUNTER_ADD("daemon.deadline.shed_admission", 1);
      response.status = RouteStatus::kExpired;
      response.message = "deadline expired before admission";
    } else {
      requests_rejected_.fetch_add(1, std::memory_order_relaxed);
      packets_rejected_.fetch_add(packets, std::memory_order_relaxed);
      OBLV_COUNTER_ADD("daemon.admission.rejected", 1);
      if (admission.reason == RejectReason::kOverload) {
        OBLV_COUNTER_ADD("daemon.overload.shed", 1);
        response.status = RouteStatus::kRejected;
        response.message = "tenant overloaded (standing queue); retry later";
      } else if (admission.reason == RejectReason::kDraining) {
        response.status = RouteStatus::kShuttingDown;
        response.message = "daemon is draining";
      } else {
        response.status = RouteStatus::kRejected;
        response.message = "queue full; retry later";
      }
      response.retry_after_ms = admission.retry_after_ms;
    }
    encode_route_response(response, out, wire_version);
    return;
  }

  // The worker fulfils every admitted request, even during drain, so
  // this wait always completes.
  std::future<RouteOutcome> future = pending.promise.get_future();
  try {
    RouteOutcome outcome = future.get();
    if (outcome.expired) {
      // Shed in-queue or post-route by the worker (which bumped the
      // per-site daemon.deadline.shed_* counter); account it here.
      requests_expired_.fetch_add(1, std::memory_order_relaxed);
      packets_expired_.fetch_add(packets, std::memory_order_relaxed);
      response.status = RouteStatus::kExpired;
      response.message = "deadline expired before reply";
    } else {
      response.paths = std::move(outcome.paths);
      response.status = RouteStatus::kOk;
      requests_delivered_.fetch_add(1, std::memory_order_relaxed);
      packets_delivered_.fetch_add(packets, std::memory_order_relaxed);
    }
  } catch (const std::exception& e) {
    // Unreachable by construction (demands pre-validated); keep the
    // accounting identity if it ever fires.
    requests_rejected_.fetch_add(1, std::memory_order_relaxed);
    packets_rejected_.fetch_add(packets, std::memory_order_relaxed);
    response.status = RouteStatus::kError;
    response.message = e.what();
  }
  encode_route_response(response, out, wire_version);
  (void)fd;
}

void Server::connection_loop(UniqueFd fd) {
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> out;
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) break;
    // Idle poll tick so drain is noticed; only a *readable* socket
    // enters the framed read below, which then runs under the full
    // io_timeout_ms budget (a mid-frame stall drops the connection,
    // never wedges the loop).
    if (!wait_readable(fd.get(), options_.poll_tick_ms)) continue;
    // The socket turned readable: the frame starts arriving now. A v2
    // deadline is measured from this stamp, so a frame that trickles in
    // slowly consumes its own budget.
    const std::uint64_t frame_start_ms = steady_now_ms();
    std::string io_error;
    const IoStatus status =
        read_frame(fd.get(), payload, options_.io_timeout_ms, &io_error);
    if (status == IoStatus::kClosed) break;
    if (status != IoStatus::kOk) {
      // Truncated frame, oversize prefix, mid-frame stall: this
      // connection is broken; the accept loop and every other
      // connection are unaffected.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      OBLV_COUNTER_ADD("daemon.protocol_errors", 1);
      break;
    }

    out.clear();
    try {
      const FrameHeader header =
          decode_header(payload.data(), payload.size());
      switch (header.type) {
        case MessageType::kPing:
          encode_pong(header.request_id, out);
          break;
        case MessageType::kMetricsRequest:
          encode_metrics_response(header.request_id, metrics_json(), out);
          break;
        case MessageType::kRouteRequest:
          handle_route_request(fd.get(), payload, out, frame_start_ms);
          break;
        default:
          throw ProtocolError("unsupported message type " +
                              std::to_string(static_cast<int>(header.type)));
      }
    } catch (const ProtocolError& e) {
      // Per-connection error path: best-effort error frame, then close.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      OBLV_COUNTER_ADD("daemon.protocol_errors", 1);
      RouteResponse error;
      error.status = RouteStatus::kError;
      error.message = e.what();
      out.clear();
      encode_route_response(error, out);
      write_all(fd.get(), out.data(), out.size(), options_.io_timeout_ms);
      break;
    }

    if (!out.empty() &&
        write_all(fd.get(), out.data(), out.size(), options_.io_timeout_ms) !=
            IoStatus::kOk) {
      break;  // dead peer; admitted work was still routed and counted
    }
  }
}

void Server::batch_worker_loop() {
  std::vector<SegmentPath> paths;
  std::vector<QueueItem> dead;
  for (;;) {
    dead.clear();
    const std::vector<QueueItem> chunk =
        queue_.dequeue_chunk(options_.max_batch_packets, &dead);
    // Shedding expired work is progress too: only an empty chunk AND no
    // expired items means the drain backlog is flushed.
    if (chunk.empty() && dead.empty()) break;

    // Expired in queue (lazy expiry banked no service credit): fulfil
    // the waiting connection threads with the expiry verdict.
    for (const QueueItem& item : dead) {
      auto* pending = reinterpret_cast<Pending*>(item.token);
      OBLV_COUNTER_ADD("daemon.deadline.shed_dequeue", 1);
      RouteOutcome outcome;
      outcome.expired = true;
      pending->promise.set_value(std::move(outcome));
    }
    if (chunk.empty()) continue;

    std::size_t chunk_packets = 0;
    for (const QueueItem& item : chunk) chunk_packets += item.packets;
    OBLV_HISTOGRAM_ADD("daemon.batch.packets", chunk_packets);
    OBLV_HISTOGRAM_ADD("daemon.batch.requests", chunk.size());
    OBLV_HISTOGRAM_ADD("daemon.queue.depth", queue_.queued_packets());

    // Each request keeps its own seed, so its paths are bit-identical
    // to a solo route_batch run; the chunk amortizes worker wakeups and
    // keeps the routing pool hot across coalesced small requests.
    for (const QueueItem& item : chunk) {
      auto* pending = reinterpret_cast<Pending*>(item.token);
      RouteBatchOptions options;
      options.seed = pending->request.seed;
      options.validate_demands = false;  // validated at admission
      try {
        route_batch(*router_, pending->request.demands, routing_pool_,
                    options, paths);
        RouteOutcome outcome;
        // Shed-before-reply: the deadline passed while this item sat in
        // the chunk or routed. The paths are discarded undelivered, so
        // the load accountant is not charged for them.
        if (item.expires_at_ms != 0 &&
            steady_now_ms() >= item.expires_at_ms) {
          OBLV_COUNTER_ADD("daemon.deadline.shed_reply", 1);
          outcome.expired = true;
        } else {
          // The single worker charges requests in dequeue order, so even
          // sketch estimates are a deterministic function of the served
          // request sequence; the lock is only against metrics readers.
          oblv::MutexLock lock(account_mu_);
          accountant_->add_segment_paths(paths);
          outcome.paths = std::move(paths);
        }
        OBLV_HISTOGRAM_ADD("daemon.service_seconds",
                           seconds_since(pending->admitted_at));
        pending->promise.set_value(std::move(outcome));
      } catch (...) {
        pending->promise.set_exception(std::current_exception());
      }
      paths = std::vector<SegmentPath>();
    }
  }
}

}  // namespace oblivious::daemon
