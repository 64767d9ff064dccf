#include "simulator/online.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "simulator/arbitration.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/contracts.hpp"

namespace oblivious {

double OnlineResult::throughput() const {
  if (horizon <= 0) return 0.0;
  return static_cast<double>(delivered) / static_cast<double>(horizon);
}

OnlineWorkload bernoulli_arrivals(const Mesh& mesh, double rate,
                                  std::int64_t horizon, TrafficPattern pattern,
                                  Rng& rng, std::int64_t local_distance) {
  OBLV_REQUIRE(rate >= 0.0 && rate <= 1.0, "rate must be in [0, 1]");
  OBLV_REQUIRE(horizon >= 0, "horizon must be non-negative");
  OnlineWorkload workload;
  workload.horizon = horizon;
  // Bernoulli draw via a 32-bit threshold (deterministic given the rng).
  const auto threshold =
      static_cast<std::uint64_t>(rate * 4294967296.0);  // rate * 2^32
  for (std::int64_t step = 0; step < horizon; ++step) {
    for (NodeId u = 0; u < mesh.num_nodes(); ++u) {
      if (rng.bits(32) >= threshold) continue;
      NodeId dst = u;
      switch (pattern) {
        case TrafficPattern::kUniform: {
          while (dst == u) {
            dst = static_cast<NodeId>(rng.uniform_below(
                static_cast<std::uint64_t>(mesh.num_nodes())));
          }
          break;
        }
        case TrafficPattern::kLocal: {
          // Random node at exactly local_distance (rejection sampling over
          // random directions; falls back to uniform if the mesh is tiny).
          Coord c = mesh.coord(u);
          std::int64_t remaining =
              std::min(local_distance, mesh.diameter());
          for (int d = 0; d < mesh.dim() && remaining > 0; ++d) {
            const std::size_t dd = static_cast<std::size_t>(d);
            const std::int64_t span =
                mesh.torus() ? mesh.side(d) / 2 : mesh.side(d) - 1;
            std::int64_t take =
                (d == mesh.dim() - 1)
                    ? std::min(remaining, span)
                    : static_cast<std::int64_t>(rng.uniform_below(
                          static_cast<std::uint64_t>(
                              std::min(remaining, span) + 1)));
            remaining -= take;
            const bool can_up = mesh.torus() || c[dd] + take < mesh.side(d);
            const bool can_down = mesh.torus() || c[dd] - take >= 0;
            const bool up = can_up && (!can_down || rng.coin());
            c[dd] += up ? take : -take;
            if (mesh.torus()) c[dd] = pos_mod(c[dd], mesh.side(d));
          }
          dst = mesh.node_id(c);
          if (dst == u) continue;  // degenerate draw: skip this injection
          break;
        }
        case TrafficPattern::kTranspose: {
          OBLV_REQUIRE(mesh.dim() >= 2, "transpose pattern needs dim >= 2");
          Coord c = mesh.coord(u);
          std::swap(c[0], c[1]);
          dst = mesh.node_id(c);
          if (dst == u) continue;  // diagonal nodes have no partner
          break;
        }
      }
      workload.packets.push_back({u, dst, step});
    }
  }
  return workload;
}

OnlineResult simulate_online(const Mesh& mesh, const Router& router,
                             const OnlineWorkload& workload,
                             const OnlineOptions& options) {
  for (const TimedDemand& td : workload.packets) {
    OBLV_EXPECTS(td.src >= 0 && td.src < mesh.num_nodes() && td.dst >= 0 &&
                     td.dst < mesh.num_nodes(),
                 "online workload endpoints must be mesh nodes");
  }
  OBLV_REQUIRE(options.faults == nullptr || &options.faults->mesh() == &mesh,
               "fault model must describe the simulated mesh");
  OnlineResult result;
  result.horizon = workload.horizon;
  result.injected = static_cast<std::int64_t>(workload.packets.size());
  const std::int64_t max_steps =
      options.max_steps > 0 ? options.max_steps
                            : std::max<std::int64_t>(64 * workload.horizon, 4096);

  struct Flight {
    std::vector<NodeId> nodes;  // released once the packet leaves
    HopCursor cursor;
    std::int64_t injected_at = 0;
    std::int64_t arrival = 0;   // step it reached its current node
    std::uint64_t rank = 0;
    int retries = 0;            // in-flight requeues consumed
    std::int64_t wait_until = 0;  // backoff: idle until this step
  };
  const bool faulty =
      options.faults != nullptr && !options.faults->fault_free();

  Rng rng(options.seed);
  // One scratch for the whole simulation: path selection in the injection
  // loop reuses its buffers, so steady-state injections allocate only the
  // flight's own node list.
  RouteScratch scratch;
  std::vector<Flight> flights;
  flights.reserve(workload.packets.size());
  std::vector<std::size_t> active;
  std::vector<std::size_t> still_active;
  std::size_t next_packet = 0;

  // Per-step node occupancy, stamped like the link arbiter's slots.
  struct NodeCount {
    std::int64_t stamp = 0;
    std::int64_t count = 0;
  };
  std::vector<NodeCount> occupancy(static_cast<std::size_t>(mesh.num_nodes()));
  LinkArbiter arbiter(arbitration_keys(mesh, /*full_duplex=*/false));
  const std::int64_t saturation_limit =
      options.saturation_queue_per_node > 0
          ? options.saturation_queue_per_node * mesh.num_nodes()
          : std::numeric_limits<std::int64_t>::max();
  std::int64_t step = 0;
  const auto deliver = [&](Flight& f) {
    ++result.delivered;
    result.latency.add(static_cast<double>(step - f.injected_at));
    result.last_delivery = std::max(result.last_delivery, step);
    std::vector<NodeId>().swap(f.nodes);
  };
  while ((next_packet < workload.packets.size() || !active.empty()) &&
         step < max_steps &&
         static_cast<std::int64_t>(active.size()) < saturation_limit) {
    // Inject this step's arrivals; each packet selects its path NOW,
    // obliviously -- no knowledge of in-flight traffic.
    while (next_packet < workload.packets.size() &&
           workload.packets[next_packet].inject_step <= step) {
      const TimedDemand& demand = workload.packets[next_packet];
      Flight flight;
      if (faulty) {
        // Path selection is probed against the schedule at the injection
        // step; a packet whose recovery budget is already exhausted at
        // selection time is a counted loss, not an injection.
        const FaultAwareRouter fault_router(router, *options.faults,
                                            options.retry, step);
        const FaultRouteOutcome outcome = fault_router.route_with_faults(
            demand.src, demand.dst, rng, scratch, scratch.path);
        if (!outcome.delivered()) {
          // oblv-lint: allow(D005) drop already counted into fault.drops
          // at the router's decision site
          ++result.dropped;
          ++next_packet;
          continue;
        }
        // oblv-lint: allow(D005) backoff already counted into
        // fault.backoff_steps by route_with_faults
        flight.wait_until = step + outcome.backoff_steps;
      } else {
        router.route_into(demand.src, demand.dst, rng, scratch, scratch.path);
      }
      flight.injected_at = demand.inject_step;
      flight.arrival = step;
      flight.rank = rng.next_u64();
      if (scratch.path.length() == 0) {
        ++result.delivered;
        result.latency.add(0.0);
      } else {
        flight.nodes = scratch.path.nodes;
        flight.cursor.reset(mesh, flight.nodes, /*full_duplex=*/false);
        flights.push_back(std::move(flight));
        active.push_back(flights.size() - 1);
      }
      ++next_packet;
    }

    ++step;
    for (const std::size_t i : active) {
      const Flight& f = flights[i];
      NodeCount& at = occupancy[static_cast<std::size_t>(f.cursor.at())];
      if (at.stamp != step) at = {step, 0};
      result.max_node_queue = std::max(result.max_node_queue, ++at.count);
      // Backed-off and blocked-by-fault packets occupy their queue slot
      // but do not compete for an edge this step.
      if (f.wait_until > step) continue;
      if (faulty && options.faults->edge_failed(f.cursor.edge(), step)) {
        continue;
      }
      arbiter.offer({f.cursor.key(), i,
                     arbitration_priority(options.policy, f.arrival,
                                          f.cursor.remaining(), f.rank)},
                    step);
    }
    still_active.clear();
    for (const std::size_t i : active) {
      Flight& f = flights[i];
      if (f.wait_until > step) {
        still_active.push_back(i);
        continue;
      }
      if (faulty && options.faults->edge_failed(f.cursor.edge(), step)) {
        // The edge ahead died under the packet: requeue with fresh random
        // bits from the node it is stuck at, or drop once the budget is
        // spent -- the packet always leaves the network counted.
        if (f.retries >= options.retry.max_attempts) {
          ++result.dropped;
          OBLV_COUNTER_ADD("fault.drops", 1);
          std::vector<NodeId>().swap(f.nodes);
          continue;
        }
        if (f.cursor.at() == f.nodes.back()) {
          // The path passes through its destination before it ends and
          // the packet sits there: a re-route has nothing left to cover.
          deliver(f);
          continue;
        }
        ++f.retries;
        const std::int64_t backoff = options.retry.backoff_base
                                     << std::min(f.retries - 1, 32);
        OBLV_COUNTER_ADD("fault.retries", 1);
        OBLV_COUNTER_ADD("fault.backoff_steps",
                         static_cast<std::uint64_t>(backoff));
        f.wait_until = step + backoff;
        router.route_into(f.cursor.at(), f.nodes.back(), rng, scratch,
                          scratch.path);
        f.nodes = scratch.path.nodes;
        f.cursor.reset(mesh, f.nodes, /*full_duplex=*/false);
        f.arrival = step;
        still_active.push_back(i);
        continue;
      }
      if (!arbiter.won(f.cursor.key(), i, step)) {
        still_active.push_back(i);
        continue;
      }
      f.cursor.advance(mesh, f.nodes);
      f.arrival = step;
      if (f.cursor.done()) {
        deliver(f);
      } else {
        still_active.push_back(i);
      }
    }
    active.swap(still_active);
  }

  result.completed = active.empty() && next_packet == workload.packets.size();
  if (result.completed) {
    OBLV_CHECK(result.delivered + result.dropped == result.injected,
               "online fault accounting: every injected packet must end "
               "delivered or dropped");
  }
  return result;
}

}  // namespace oblivious
