// In-process integration tests for the oblvd server: end-to-end routing
// equivalence with route_batch, the introspection endpoint, admission
// backpressure, wire-level abuse (oversize prefixes, unknown versions,
// mid-stream disconnects) that must stay per-connection, the
// graceful-drain accounting invariant, and flat threads and mappings
// over many connections.
#include "daemon/server.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "daemon/client.hpp"
#include "daemon/protocol.hpp"
#include "mesh/mesh.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/registry.hpp"

namespace oblivious::daemon {
namespace {

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  // sun_path caps at ~107 bytes; keep it short and unique per process
  // and per server instance.
  return "/tmp/oblvt-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// Runs a Server on its own thread for the duration of a test.
class ServerHarness {
 public:
  // `use_tcp` requests a loopback TCP listener on an ephemeral port
  // (tcp_port 0 means "pick one", so it cannot double as a default).
  explicit ServerHarness(const Mesh& mesh, ServerOptions options = {},
                         bool use_tcp = false) {
    if (!use_tcp && options.endpoint.unix_path.empty()) {
      options.endpoint.unix_path = unique_socket_path();
    }
    options.poll_tick_ms = 10;  // fast drain in tests
    endpoint_ = options.endpoint;
    server_ = std::make_unique<Server>(mesh, options);
    thread_ = std::thread([this] { exit_code_ = server_->run(); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!server_->serving()) {
      if (std::chrono::steady_clock::now() >= deadline) {
        thread_.join();
        throw std::runtime_error("server did not start serving");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!endpoint_.is_unix()) {
      endpoint_.tcp_port = server_->bound_port();
    }
  }

  ~ServerHarness() { drain(); }

  // Idempotent; returns run()'s exit code.
  int drain() {
    if (thread_.joinable()) {
      server_->request_drain();
      thread_.join();
    }
    return exit_code_;
  }

  const Endpoint& endpoint() const { return endpoint_; }
  Server& server() { return *server_; }

 private:
  Endpoint endpoint_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
  int exit_code_ = -1;
};

std::vector<Demand> some_demands(const Mesh& mesh, std::size_t n,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Demand> demands;
  const auto nodes = static_cast<std::uint64_t>(mesh.num_nodes());
  for (std::size_t i = 0; i < n; ++i) {
    demands.push_back(
        Demand{static_cast<std::int64_t>(rng.uniform_below(nodes)),
               static_cast<std::int64_t>(rng.uniform_below(nodes))});
  }
  return demands;
}

TEST(DaemonServerTest, PingPong) {
  const Mesh mesh({16, 16});
  ServerHarness harness(mesh);
  DaemonClient client(harness.endpoint());
  EXPECT_TRUE(client.ping());
}

TEST(DaemonServerTest, ServesOnLoopbackTcp) {
  const Mesh mesh({16, 16});
  ServerHarness harness(mesh, {}, /*use_tcp=*/true);
  ASSERT_NE(harness.endpoint().tcp_port, 0);
  DaemonClient client(harness.endpoint());
  EXPECT_TRUE(client.ping());
}

TEST(DaemonServerTest, RoutesMatchLocalRouteBatchBitForBit) {
  const Mesh mesh({16, 16});
  ServerHarness harness(mesh);
  DaemonClient client(harness.endpoint());

  const std::uint64_t seed = 1234;
  const auto demands = some_demands(mesh, 100, 99);
  const RouteResponse response = client.route("test", seed, demands);
  ASSERT_EQ(response.status, RouteStatus::kOk);
  ASSERT_EQ(response.paths.size(), demands.size());

  // Determinism contract: the daemon's answer is bit-identical to a
  // local route_batch with the same seed, regardless of batching.
  const auto router = make_router(Algorithm::kHierarchical2d, mesh);
  ThreadPool pool(2);
  RouteBatchOptions options;
  options.seed = seed;
  std::vector<SegmentPath> local;
  route_batch(*router, demands, pool, options, local);
  ASSERT_EQ(local.size(), response.paths.size());
  for (std::size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(local[i], response.paths[i]) << "path " << i << " diverged";
  }
}

TEST(DaemonServerTest, ConcurrentClientsAllGetTheirOwnAnswers) {
  const Mesh mesh({16, 16});
  ServerHarness harness(mesh);

  constexpr int kClients = 4;
  constexpr int kRequests = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      DaemonClient client(harness.endpoint());
      for (int r = 0; r < kRequests; ++r) {
        const std::uint64_t seed = 1000 + c * 100 + r;
        const auto demands = some_demands(mesh, 16 + c, seed);
        const RouteResponse response =
            client.route("tenant" + std::to_string(c), seed, demands);
        if (response.status != RouteStatus::kOk ||
            response.paths.size() != demands.size()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(harness.drain(), 0);
  const ServerStats stats = harness.server().stats();
  EXPECT_EQ(stats.requests_delivered,
            static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_EQ(stats.unaccounted_requests(), 0);
}

TEST(DaemonServerTest, MetricsEndpointServesEnvelope) {
  const Mesh mesh({16, 16});
  ServerHarness harness(mesh);
  DaemonClient client(harness.endpoint());
  (void)client.route("test", 7, some_demands(mesh, 10, 7));
  const std::string json = client.metrics_json();
  EXPECT_NE(json.find("\"schema\": \"oblv-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("daemon.requests.submitted"), std::string::npos);
  EXPECT_NE(json.find("daemon.unaccounted"), std::string::npos);
  EXPECT_NE(json.find("daemon.tenant.test.served_packets"),
            std::string::npos);
}

TEST(DaemonServerTest, BackpressureRejectsWithRetryAfter) {
  const Mesh mesh({16, 16});
  ServerOptions options;
  options.queue.capacity_packets = 64;  // any request > 64 packets can't fit
  ServerHarness harness(mesh, options);
  DaemonClient client(harness.endpoint());
  const RouteResponse response =
      client.route("greedy", 1, some_demands(mesh, 100, 1));
  EXPECT_EQ(response.status, RouteStatus::kRejected);
  EXPECT_GT(response.retry_after_ms, 0u);
  EXPECT_TRUE(response.paths.empty());
  // The rejected request still counts toward the accounting identity.
  EXPECT_EQ(harness.drain(), 0);
  const ServerStats stats = harness.server().stats();
  EXPECT_EQ(stats.requests_rejected, 1u);
  EXPECT_EQ(stats.unaccounted_requests(), 0);
}

TEST(DaemonServerTest, InvalidEndpointsAreRefusedPerRequest) {
  const Mesh mesh({16, 16});
  ServerHarness harness(mesh);
  DaemonClient client(harness.endpoint());
  const RouteResponse bad =
      client.route("test", 1, {{0, mesh.num_nodes() + 5}});
  EXPECT_EQ(bad.status, RouteStatus::kError);
  EXPECT_NE(bad.message.find("off the mesh"), std::string::npos);
  // The connection survives a refused request.
  const RouteResponse good = client.route("test", 1, {{0, 1}});
  EXPECT_EQ(good.status, RouteStatus::kOk);
}

TEST(DaemonServerTest, MidStreamDisconnectDoesNotWedgeAcceptLoop) {
  const Mesh mesh({16, 16});
  ServerHarness harness(mesh);
  {
    // Half a length prefix, then slam the connection shut.
    UniqueFd raw = connect_to(harness.endpoint());
    const std::uint8_t partial[2] = {0x08, 0x00};
    ASSERT_EQ(write_all(raw.get(), partial, 2, 1000), IoStatus::kOk);
  }
  {
    // A whole prefix promising a payload that never comes.
    UniqueFd raw = connect_to(harness.endpoint());
    const std::uint8_t prefix[4] = {0x40, 0x00, 0x00, 0x00};
    ASSERT_EQ(write_all(raw.get(), prefix, 4, 1000), IoStatus::kOk);
  }
  // New connections keep working.
  DaemonClient client(harness.endpoint());
  EXPECT_TRUE(client.ping());
  EXPECT_EQ(harness.drain(), 0);
  EXPECT_GE(harness.server().stats().protocol_errors, 1u);
}

TEST(DaemonServerTest, OversizeLengthPrefixFailsOnlyThatConnection) {
  const Mesh mesh({16, 16});
  ServerHarness harness(mesh);
  {
    UniqueFd raw = connect_to(harness.endpoint());
    // 2 GiB length prefix: must be refused before any allocation.
    const std::uint8_t prefix[4] = {0x00, 0x00, 0x00, 0x80};
    ASSERT_EQ(write_all(raw.get(), prefix, 4, 1000), IoStatus::kOk);
    // The server drops the connection without a response.
    std::vector<std::uint8_t> payload;
    const IoStatus status = read_frame(raw.get(), payload, 5000);
    EXPECT_EQ(status, IoStatus::kClosed);
  }
  DaemonClient client(harness.endpoint());
  EXPECT_TRUE(client.ping());
  EXPECT_EQ(harness.drain(), 0);
  EXPECT_GE(harness.server().stats().protocol_errors, 1u);
}

TEST(DaemonServerTest, UnknownVersionGetsErrorResponseThenClose) {
  const Mesh mesh({16, 16});
  ServerHarness harness(mesh);
  {
    UniqueFd raw = connect_to(harness.endpoint());
    std::vector<std::uint8_t> frame;
    encode_ping(3, frame);
    frame[4 + 4] = 0x63;  // corrupt the version field (prefix + magic)
    ASSERT_EQ(write_all(raw.get(), frame.data(), frame.size(), 1000),
              IoStatus::kOk);
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(read_frame(raw.get(), payload, 5000), IoStatus::kOk);
    const RouteResponse error =
        decode_route_response(payload.data(), payload.size());
    EXPECT_EQ(error.status, RouteStatus::kError);
    EXPECT_NE(error.message.find("version"), std::string::npos);
    // ...then the connection closes.
    EXPECT_EQ(read_frame(raw.get(), payload, 5000), IoStatus::kClosed);
  }
  DaemonClient client(harness.endpoint());
  EXPECT_TRUE(client.ping());
}

TEST(DaemonServerTest, DeadlineMeasuredFromFrameStartShedsSlowLoris) {
  // The v2 deadline budget starts when the frame's first byte arrives,
  // so a client that dribbles its frame consumes its own budget: a
  // 1 ms deadline written with a 50 ms mid-frame pause must come back
  // kExpired (shed at admission), deterministically.
  const Mesh mesh({16, 16});
  ServerHarness harness(mesh);
  {
    RouteRequest request;
    request.request_id = 5;
    request.seed = 3;
    request.deadline_ms = 1;
    request.tenant = "loris";
    request.demands = some_demands(mesh, 8, 3);
    std::vector<std::uint8_t> frame;
    encode_route_request(request, frame);

    UniqueFd raw = connect_to(harness.endpoint());
    ASSERT_EQ(write_all(raw.get(), frame.data(), 10, 1000), IoStatus::kOk);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_EQ(write_all(raw.get(), frame.data() + 10, frame.size() - 10,
                        1000),
              IoStatus::kOk);
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(read_frame(raw.get(), payload, 5000), IoStatus::kOk);
    const RouteResponse response =
        decode_route_response(payload.data(), payload.size());
    EXPECT_EQ(response.status, RouteStatus::kExpired);
    EXPECT_TRUE(response.paths.empty());
  }
  EXPECT_EQ(harness.drain(), 0);
  const ServerStats stats = harness.server().stats();
  EXPECT_EQ(stats.requests_expired, 1u);
  EXPECT_EQ(stats.requests_delivered, 0u);
  EXPECT_EQ(stats.unaccounted_requests(), 0);
}

TEST(DaemonServerTest, GenerousDeadlineStillDelivers) {
  const Mesh mesh({16, 16});
  ServerHarness harness(mesh);
  DaemonClient client(harness.endpoint());
  const auto demands = some_demands(mesh, 16, 11);
  const RouteResponse response =
      client.route("t", 11, demands, /*deadline_ms=*/60000);
  ASSERT_EQ(response.status, RouteStatus::kOk);
  EXPECT_EQ(response.paths.size(), demands.size());
}

TEST(DaemonServerTest, V1ClientIsServedAndAnsweredInV1) {
  // A legacy client speaks version 1 (no deadline field); the server
  // must decode it and echo version 1 in the response header so the
  // client never sees a frame it cannot parse.
  const Mesh mesh({16, 16});
  ServerHarness harness(mesh);
  RouteRequest request;
  request.request_id = 77;
  request.seed = 9;
  request.tenant = "legacy";
  request.demands = some_demands(mesh, 12, 9);
  std::vector<std::uint8_t> frame;
  encode_route_request(request, frame, /*version=*/1);

  UniqueFd raw = connect_to(harness.endpoint());
  ASSERT_EQ(write_all(raw.get(), frame.data(), frame.size(), 1000),
            IoStatus::kOk);
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(read_frame(raw.get(), payload, 5000), IoStatus::kOk);
  EXPECT_EQ(decode_header(payload.data(), payload.size()).version, 1u);
  const RouteResponse response =
      decode_route_response(payload.data(), payload.size());
  EXPECT_EQ(response.request_id, 77u);
  ASSERT_EQ(response.status, RouteStatus::kOk);
  EXPECT_EQ(response.paths.size(), request.demands.size());
}

TEST(DaemonServerTest, RetryPolicyBacksOffAndCountsAttempts) {
  const Mesh mesh({16, 16});
  ServerOptions options;
  options.queue.capacity_packets = 64;
  ServerHarness harness(mesh, options);
  DaemonClient client(harness.endpoint());
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.base_ms = 1;
  policy.max_backoff_ms = 5;  // keep the test fast
  // 100 packets can never fit a 64-packet queue: every attempt is
  // rejected, the client must burn exactly max_retries retries and
  // surface the final rejection.
  const RouteResponse response = client.route_with_retry(
      "greedy", 1, some_demands(mesh, 100, 1), /*deadline_ms=*/0, policy);
  EXPECT_EQ(response.status, RouteStatus::kRejected);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_GT(client.stats().backoff_ms_total, 0u);
  EXPECT_EQ(harness.drain(), 0);
  EXPECT_EQ(harness.server().stats().requests_rejected, 3u);
  EXPECT_EQ(harness.server().stats().unaccounted_requests(), 0);
}

TEST(DaemonServerTest, DrainDeliversEverythingAdmitted) {
  const Mesh mesh({16, 16});
  ServerHarness harness(mesh);
  constexpr int kRequests = 20;
  std::thread producer([&] {
    DaemonClient client(harness.endpoint());
    for (int i = 0; i < kRequests; ++i) {
      try {
        const RouteResponse r =
            client.route("t", 1 + i, some_demands(mesh, 32, i));
        // Admitted requests are delivered even if the drain starts
        // while they are queued; late ones may see kShuttingDown.
        EXPECT_TRUE(r.status == RouteStatus::kOk ||
                    r.status == RouteStatus::kShuttingDown);
      } catch (const ClientError&) {
        break;  // the drain completed and closed the connection
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(harness.drain(), 0);
  producer.join();
  const ServerStats stats = harness.server().stats();
  EXPECT_EQ(stats.unaccounted_requests(), 0);
  EXPECT_EQ(stats.requests_delivered + stats.requests_rejected +
                stats.requests_expired,
            stats.requests_submitted);
}

// Threads and memory mappings of this process, from /proc/self.
std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

// Polls until `probe() <= limit` or a 10 s deadline passes; returns the
// last reading.
template <typename Probe>
std::size_t settle_to(std::size_t limit, Probe probe) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::size_t value = probe();
  while (value > limit && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    value = probe();
  }
  return value;
}

// Every accepted connection gets a thread; a closed connection's thread
// (and its stack mapping) must be reclaimed while the daemon serves, not
// only at drain, or a long-lived daemon grows by one thread stack per
// connection it ever served.
TEST(DaemonServerTest, ThreadsAndMappingsStayFlatAcrossConnectionsAndDrain) {
  constexpr int kWarmup = 200;
  constexpr int kCycles = 10000;
  // Slack for allocator arenas and sanitizer bookkeeping; a leak shows
  // up as one or more mappings per connection, i.e. thousands.
  constexpr std::size_t kMapSlack = 256;
  const Mesh mesh({16, 16});
  const std::size_t threads_before = thread_count();
  std::size_t maps_serving = 0;
  std::size_t threads_serving = 0;
  {
    ServerHarness harness(mesh);
    const auto connect_close = [&](int cycles) {
      const std::uint64_t target =
          harness.server().stats().connections_accepted +
          static_cast<std::uint64_t>(cycles);
      for (int i = 0; i < cycles; ++i) connect_to(harness.endpoint());
      settle_to(0, [&]() -> std::size_t {
        return harness.server().stats().connections_accepted < target;
      });
    };
    connect_close(kWarmup);
    DaemonClient client(harness.endpoint());
    ASSERT_TRUE(client.ping());
    threads_serving = thread_count();
    maps_serving = mapping_count();

    connect_close(kCycles);
    EXPECT_GE(harness.server().stats().connections_accepted,
              static_cast<std::uint64_t>(kWarmup + kCycles + 1));
    EXPECT_LE(settle_to(threads_serving, thread_count), threads_serving)
        << "connection threads outlive their connections";
    EXPECT_LE(settle_to(maps_serving + kMapSlack, mapping_count),
              maps_serving + kMapSlack)
        << "mappings grew with the number of connections served";
    EXPECT_TRUE(client.ping());  // the long-lived connection still works
  }
  // Drained and destroyed: every daemon thread is gone, and no mapping
  // outlives the server.
  EXPECT_EQ(settle_to(threads_before, thread_count), threads_before);
  EXPECT_LE(settle_to(maps_serving + kMapSlack, mapping_count),
            maps_serving + kMapSlack);
}

}  // namespace
}  // namespace oblivious::daemon
