// oblvd server core: admission -> fair-share queue -> batch coalescing
// -> reply, plus the graceful-drain state machine.
//
// Threading model (DESIGN.md section 11):
//
//   accept loop (run())   one thread; poll-bounded accept, spawns a
//                         connection thread per client, joins the
//                         ones that finished every iteration, notices
//                         request_drain() within one poll tick
//   connection threads    read frames, run admission, wait for the
//                         batch worker to fulfil their request, write
//                         the response; a malformed frame fails only
//                         its own connection
//   batch worker          dequeues fair-share chunks and feeds each
//                         request's demands through route_batch (the
//                         zero-alloc scalar loop), so concurrent small
//                         requests coalesce into one scheduling quantum
//   routing pool          route_batch's workers
//
// Determinism contract: the paths in a response depend only on
// (algorithm, mesh, request seed, request demands) -- they are
// bit-identical to a local route_batch call with the same seed, for
// any interleaving of clients, tenants, and batches. Timing and batch
// composition are not deterministic; path selection is.
//
// Deadlines (protocol v2, DESIGN.md section 15): a request carrying
// deadline_ms > 0 is shed the moment the daemon notices it cannot meet
// it -- at admission (the frame's transport time already consumed the
// budget, e.g. a slow-loris client), at dequeue (lazy expiry in the
// fair queue, no service credit banked), or before reply (the deadline
// passed while routing). Each site counts under its own
// daemon.deadline.shed_* metric and the client sees kExpired.
//
// Drain (SIGTERM in the oblvd binary): request_drain() flips one
// atomic. The accept loop then (1) stops accepting, (2) marks the
// queue draining so new requests are rejected with kShuttingDown,
// (3) lets the batch worker flush every admitted request, (4) joins
// the connection threads after their final responses, and run()
// returns 0. Accounting holds the exit invariant
// submitted == delivered + rejected + expired (daemon.unaccounted == 0).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/sketch/load_accountant.hpp"
#include "daemon/fair_queue.hpp"
#include "daemon/net.hpp"
#include "mesh/mesh.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/router.hpp"
#include "util/thread_annotations.hpp"

namespace oblivious::daemon {

struct ServerOptions {
  Endpoint endpoint;
  std::string algorithm = "hierarchical-2d";
  // Routing pool width for route_batch (0 = hardware concurrency).
  std::size_t routing_threads = 2;
  // Packets per coalesced batch quantum.
  std::size_t max_batch_packets = 4096;
  FairQueueOptions queue;
  // Declared tenants (name, weight); others auto-register at weight
  // queue.default_weight.
  std::vector<std::pair<std::string, std::uint64_t>> tenants;
  // Mid-frame / response-write stall budget per connection.
  int io_timeout_ms = 5000;
  // Poll granularity of the accept and idle-read loops (drain latency).
  int poll_tick_ms = 50;
  // Cumulative congestion accounting of every routed path (exact per-edge
  // loads, or the space-bounded sketch for gigantic meshes). Published as
  // daemon.load.* gauges and part of the metrics endpoint.
  AccountingOptions accounting;
};

// Request-level and packet-level accounting. The daemon-wide invariant
// submitted == delivered + rejected + expired is checked at drain and
// exported as daemon.unaccounted.
struct ServerStats {
  std::uint64_t requests_submitted = 0;
  std::uint64_t requests_delivered = 0;
  std::uint64_t requests_rejected = 0;
  std::uint64_t requests_expired = 0;
  std::uint64_t packets_submitted = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_rejected = 0;
  std::uint64_t packets_expired = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t connections_accepted = 0;

  std::int64_t unaccounted_requests() const {
    return static_cast<std::int64_t>(requests_submitted) -
           static_cast<std::int64_t>(requests_delivered) -
           static_cast<std::int64_t>(requests_rejected) -
           static_cast<std::int64_t>(requests_expired);
  }
};

class Server {
 public:
  // \pre options.algorithm names a registry algorithm valid for `mesh`.
  Server(const Mesh& mesh, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, serves until a drain completes, returns 0 on a clean drain
  // (the accounting invariant is a contract violation otherwise).
  int run();

  // Starts the drain state machine. Async-signal-safe (one atomic
  // store), callable from any thread or a signal handler; run()
  // notices within one poll tick.
  void request_drain() { drain_requested_.store(true, std::memory_order_release); }

  // True once run() has bound the socket and accepts connections.
  bool serving() const { return serving_.load(std::memory_order_acquire); }
  // TCP listeners with port 0: the port actually bound (valid once
  // serving() is true).
  std::uint16_t bound_port() const { return bound_port_.load(std::memory_order_acquire); }

  ServerStats stats() const;

  // oblv-metrics-v1 envelope with daemon.* gauges folded in; also what
  // the kMetricsRequest introspection endpoint serves.
  std::string metrics_json() const;

 private:
  struct Pending;

  void connection_loop(UniqueFd fd);
  void batch_worker_loop();
  // `frame_start_ms` is when the request's frame started arriving: a
  // v2 deadline is measured from there, so transport stalls (slow-loris
  // clients, chaos faults) consume the request's own budget.
  void handle_route_request(int fd, std::vector<std::uint8_t>& payload,
                            std::vector<std::uint8_t>& out,
                            std::uint64_t frame_start_ms);
  void publish_gauges() const;

  const Mesh& mesh_;
  ServerOptions options_;
  std::unique_ptr<Router> router_;
  ThreadPool routing_pool_;
  FairShareQueue queue_;

  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> serving_{false};
  // Set after the batch worker flushed the backlog: connection threads
  // may exit their read loops.
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint16_t> bound_port_{0};

  std::atomic<std::uint64_t> requests_submitted_{0};
  std::atomic<std::uint64_t> requests_delivered_{0};
  std::atomic<std::uint64_t> requests_rejected_{0};
  std::atomic<std::uint64_t> requests_expired_{0};
  std::atomic<std::uint64_t> packets_submitted_{0};
  std::atomic<std::uint64_t> packets_delivered_{0};
  std::atomic<std::uint64_t> packets_rejected_{0};
  std::atomic<std::uint64_t> packets_expired_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};

  // A connection thread and the flag it raises as its last act, so the
  // accept loop can join it without blocking. List nodes never move,
  // so the thread may hold a pointer to its own flag.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  // Joins and drops every connection whose thread has finished.
  void reap_connections();

  oblv::Mutex conn_mu_;
  // Live connections, appended by the accept loop, reaped by it once
  // finished and joined at drain step 4; only run() touches the list,
  // but always under the lock so the discipline survives future
  // refactors.
  std::list<Connection> connections_ OBLV_GUARDED_BY(conn_mu_);

  // Cumulative load accounting. Written by the single batch worker,
  // snapshotted by metrics readers; both paths lock. Deterministic: the
  // worker charges requests sequentially in dequeue order.
  mutable oblv::Mutex account_mu_;
  std::unique_ptr<LoadAccountant> accountant_ OBLV_GUARDED_BY(account_mu_);
};

}  // namespace oblivious::daemon
