// oblvd -- routing-as-a-service daemon.
//
// Serves oblivious path selection over a Unix or loopback TCP socket:
// length-prefixed binary requests (see src/daemon/protocol.hpp) are
// admission-controlled into a per-tenant weighted fair-share queue,
// coalesced into batches through route_batch, and the
// segment paths stream back per request. SIGTERM/SIGINT drain
// gracefully: stop accepting, flush every admitted request, exit 0.
//
// Examples:
//   oblvd --socket /tmp/oblvd.sock --mesh 64x64 --algorithm hierarchical-2d
//   oblvd --tcp-port 7447 --mesh 32x32x32 --algorithm hierarchical-nd
//         --tenants interactive:4,batch:1 --queue-capacity 32768
#include <csignal>
#include <fstream>
#include <iostream>

#include "daemon/server.hpp"
#include "mesh/mesh.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/flags.hpp"

#ifdef OBLV_CHAOS_ENABLED
#include "daemon/chaos.hpp"
#endif

namespace {

using namespace oblivious;

constexpr const char* kUsage = R"(usage: oblvd [flags]
  --socket PATH        listen on a Unix domain socket (default
                       /tmp/oblvd.sock when --tcp-port is absent)
  --tcp-port N         listen on loopback TCP instead (0 picks a port)
  --mesh WxHx...       mesh shape (default 64x64)
  --torus              wrap-around topology
  --algorithm NAME     routing algorithm (default hierarchical-2d)
  --threads N          routing pool width for route_batch (default 2)
  --queue-capacity N   admission bound, packets across all tenants
                       (default 65536)
  --batch-max N        packets per coalesced batch quantum (default 4096)
  --tenants SPEC       declared tenants name:weight[,name:weight...];
                       undeclared tenants get weight 1
  --drain-rate N       retry-after hint rate, packets/ms (default 100)
  --account MODE       congestion accounting: exact | sketch (default
                       exact; sketch bounds memory on gigantic meshes)
  --sketch-bytes N     sketch memory budget in bytes (default 1 MiB)
  --codel-target-ms N  CoDel overload control: per-tenant time-in-queue
                       target in ms (0 disables, the default)
  --codel-interval-ms N  CoDel detection interval in ms (default 500)
  --chaos-seed N       arm the deterministic network-chaos fault points
                       with this seed (requires a -DOBLV_CHAOS=ON build)
  --chaos-short-read N   short-read rate, per mille (default 0)
  --chaos-torn-write N   torn-write rate, per mille (default 0)
  --chaos-stall N        stall rate, per mille (default 0)
  --chaos-reset N        reset rate, per mille (default 0)
  --chaos-stall-ms N     stall duration in ms (default 5)
  --metrics-json FILE  write the final oblv-metrics-v1 report (with
                       daemon.* gauges) after the drain completes
  --help               this text

Send SIGTERM (or SIGINT) to drain: the daemon stops accepting, flushes
every admitted request, verifies
submitted == delivered + rejected + expired, and exits 0.
)";

daemon::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_drain();
}

std::vector<std::pair<std::string, std::uint64_t>> parse_tenants(
    const std::string& spec) {
  std::vector<std::pair<std::string, std::uint64_t>> tenants;
  std::size_t at = 0;
  while (at < spec.size()) {
    const std::size_t comma = spec.find(',', at);
    const std::string item =
        spec.substr(at, comma == std::string::npos ? comma : comma - at);
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos || colon == 0) {
      throw std::invalid_argument("--tenants entries are name:weight, got '" +
                                  item + "'");
    }
    tenants.emplace_back(
        item.substr(0, colon),
        static_cast<std::uint64_t>(std::stoull(item.substr(colon + 1))));
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return tenants;
}

Mesh parse_mesh(const std::string& spec, bool torus) {
  std::vector<std::int64_t> sides;
  std::size_t at = 0;
  while (at <= spec.size()) {
    const std::size_t x = spec.find('x', at);
    sides.push_back(
        std::stoll(spec.substr(at, x == std::string::npos ? x : x - at)));
    if (x == std::string::npos) break;
    at = x + 1;
  }
  return Mesh(std::move(sides), torus);
}

int run(const Flags& flags) {
  if (flags.get_bool("help")) {
    std::cout << kUsage;
    return 0;
  }

  const Mesh mesh =
      parse_mesh(flags.get("mesh", "64x64"), flags.get_bool("torus"));

  daemon::ServerOptions options;
  if (flags.has("tcp-port")) {
    options.endpoint.tcp_port =
        static_cast<std::uint16_t>(flags.get_int("tcp-port", 0));
  } else {
    options.endpoint.unix_path = flags.get("socket", "/tmp/oblvd.sock");
  }
  options.algorithm = flags.get("algorithm", "hierarchical-2d");
  options.routing_threads =
      static_cast<std::size_t>(flags.get_int("threads", 2));
  options.max_batch_packets =
      static_cast<std::size_t>(flags.get_int("batch-max", 4096));
  options.queue.capacity_packets =
      static_cast<std::size_t>(flags.get_int("queue-capacity", 1 << 16));
  options.queue.drain_rate_hint =
      static_cast<std::size_t>(flags.get_int("drain-rate", 100));
  if (flags.has("tenants")) {
    options.tenants = parse_tenants(flags.get("tenants", ""));
  }
  const auto mode = accounting_mode_from_name(flags.get("account", "exact"));
  if (!mode.has_value()) {
    throw std::invalid_argument("--account must be 'exact' or 'sketch'");
  }
  options.accounting.mode = *mode;
  options.accounting.sketch.sketch_bytes = static_cast<std::size_t>(
      flags.get_int("sketch-bytes",
                    static_cast<std::int64_t>(SketchConfig{}.sketch_bytes)));
  options.queue.codel_target_ms =
      static_cast<std::uint64_t>(flags.get_int("codel-target-ms", 0));
  options.queue.codel_interval_ms =
      static_cast<std::uint64_t>(flags.get_int("codel-interval-ms", 500));

  if (flags.has("chaos-seed")) {
#ifdef OBLV_CHAOS_ENABLED
    daemon::chaos::ChaosConfig chaos;
    chaos.seed = static_cast<std::uint64_t>(flags.get_int("chaos-seed", 0));
    chaos.short_read_per_mille =
        static_cast<std::uint32_t>(flags.get_int("chaos-short-read", 0));
    chaos.torn_write_per_mille =
        static_cast<std::uint32_t>(flags.get_int("chaos-torn-write", 0));
    chaos.stall_per_mille =
        static_cast<std::uint32_t>(flags.get_int("chaos-stall", 0));
    chaos.reset_per_mille =
        static_cast<std::uint32_t>(flags.get_int("chaos-reset", 0));
    chaos.stall_ms =
        static_cast<std::uint32_t>(flags.get_int("chaos-stall-ms", 5));
    daemon::chaos::configure(chaos);
    std::cout << "oblvd: chaos armed, seed " << chaos.seed << "\n";
#else
    throw std::invalid_argument(
        "--chaos-seed requires a -DOBLV_CHAOS=ON build (the fault points "
        "are compiled out of this binary)");
#endif
  }

  daemon::Server server(mesh, options);
  g_server = &server;
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  std::cout << "oblvd: " << mesh.describe() << ", algorithm "
            << options.algorithm << ", queue "
            << options.queue.capacity_packets << " packets, batch quantum "
            << options.max_batch_packets << "\n";
  if (options.endpoint.is_unix()) {
    std::cout << "oblvd: listening on " << options.endpoint.unix_path
              << std::endl;
  } else {
    std::cout << "oblvd: listening on tcp port "
              << options.endpoint.tcp_port << std::endl;
  }

  const int rc = server.run();

  const daemon::ServerStats stats = server.stats();
  std::cout << "oblvd: drained -- " << stats.requests_submitted
            << " submitted, " << stats.requests_delivered << " delivered, "
            << stats.requests_rejected << " rejected, "
            << stats.requests_expired << " expired, unaccounted "
            << stats.unaccounted_requests() << "\n";
  if (flags.has("metrics-json")) {
    const std::string path = flags.get("metrics-json", "");
    std::ofstream out(path);
    if (!out) {
      std::cerr << "oblvd: cannot write " << path << "\n";
      return 1;
    }
    out << server.metrics_json() << "\n";
    std::cout << "oblvd: metrics written to " << path << "\n";
  }
  g_server = nullptr;
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Flags::parse(
        argc, argv,
        {"socket", "tcp-port", "mesh", "torus", "algorithm", "threads",
         "queue-capacity", "batch-max", "tenants", "drain-rate", "account",
         "sketch-bytes", "codel-target-ms", "codel-interval-ms",
         "chaos-seed", "chaos-short-read", "chaos-torn-write", "chaos-stall",
         "chaos-reset", "chaos-stall-ms", "metrics-json", "help"}));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n" << kUsage;
    return 1;
  }
}
