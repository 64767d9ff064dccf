#include "simulator/cut_through.hpp"

#include <algorithm>
#include <memory>

#include "analysis/congestion.hpp"
#include "mesh/contracts.hpp"
#include "obs/metrics.hpp"
#include "rng/rng.hpp"
#include "routing/route_scratch.hpp"
#include "simulator/arbitration.hpp"
#include "util/check.hpp"
#include "util/contracts.hpp"

namespace oblivious {

double CutThroughResult::optimality_ratio() const {
  const std::int64_t bound =
      std::max(congestion * flits, dilation + flits - 1);
  if (bound == 0) return 1.0;
  return static_cast<double>(makespan) / static_cast<double>(bound);
}

CutThroughResult simulate_cut_through(const Mesh& mesh,
                                      const std::vector<Path>& paths,
                                      const CutThroughOptions& options) {
  OBLV_REQUIRE(options.flits_per_packet >= 1, "packets need >= 1 flit");
  OBLV_REQUIRE(options.faults == nullptr || &options.faults->mesh() == &mesh,
               "fault model must describe the simulated mesh");
  OBLV_REQUIRE(options.reroute_router == nullptr ||
                   &options.reroute_router->mesh() == &mesh,
               "reroute router must route on the simulated mesh");
  const std::int64_t F = options.flits_per_packet;

  CutThroughResult result;
  result.flits = F;
  result.injected = static_cast<std::int64_t>(paths.size());
  const bool faulty =
      options.faults != nullptr && !options.faults->fault_free();

  // Path-set metrics. Accounting walks every hop, so a path with a
  // non-edge hop is rejected here, before the first step.
  const std::unique_ptr<LoadAccountant> loads = LoadAccountant::create(
      mesh, options.accounting.mode, options.accounting.sketch);
  std::int64_t total_hops = 0;
  for (const Path& p : paths) {
    OBLV_REQUIRE(!p.nodes.empty(), "simulation requires non-empty paths");
    OBLV_EXPECTS(contracts::validate_path_in_mesh(mesh, p),
                 "cut-through simulation needs paths that follow mesh edges");
    loads->add_path(p);
    total_hops += p.length();
    result.dilation = std::max(result.dilation, p.length());
  }
  result.congestion = static_cast<std::int64_t>(loads->max_load());

  // Under faults the default budget gets slack for backoff waits and
  // repair intervals; runs that still exceed it report completed = false.
  const std::int64_t fault_free_budget =
      F * total_hops + result.dilation + F + 1;
  const std::int64_t max_steps =
      options.max_steps > 0
          ? options.max_steps
          : (faulty ? 4 * fault_free_budget + 1024 : fault_free_budget);

  struct PacketState {
    HopCursor cursor;
    std::int64_t ready = 1;    // earliest step the head can cross again
    std::uint64_t rank = 0;
    int retries = 0;           // fault requeues consumed
    std::int64_t wait_until = 0;  // backoff: head idles until this step
  };

  // A re-routed packet follows its own node sequence from then on; the
  // others keep walking their input path.
  std::vector<std::vector<NodeId>> rerouted(
      options.reroute_router != nullptr && faulty ? paths.size() : 0);
  const auto nodes_of = [&](std::size_t i) -> const std::vector<NodeId>& {
    return rerouted.empty() || rerouted[i].empty() ? paths[i].nodes
                                                   : rerouted[i];
  };

  Rng rng(options.seed);
  RouteScratch scratch;
  std::vector<PacketState> state(paths.size());
  std::vector<std::size_t> active;
  active.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    state[i].rank = rng.next_u64();
    state[i].cursor.reset(mesh, paths[i].nodes, options.full_duplex);
    if (state[i].cursor.done()) {
      result.latency.add(static_cast<double>(F - 1));  // tail drains locally
      ++result.delivered;
    } else {
      active.push_back(i);
    }
  }
  const auto deliver = [&](std::int64_t tail_arrival) {
    result.latency.add(static_cast<double>(tail_arrival));
    result.makespan = std::max(result.makespan, tail_arrival);
    ++result.delivered;
  };

  // A link streams one packet's F flits at a time: busy through this step.
  const std::size_t keys = arbitration_keys(mesh, options.full_duplex);
  std::vector<std::int64_t> busy_until(keys, 0);
  LinkArbiter arbiter(keys);
  std::vector<std::size_t> still_active;
  still_active.reserve(active.size());
  std::int64_t step = 0;
  while (!active.empty() && step < max_steps) {
    ++step;
    for (const std::size_t i : active) {
      const PacketState& st = state[i];
      if (st.ready > step || st.wait_until > step) continue;
      const std::int64_t key = st.cursor.key();
      // A failed link refuses the head flit; the packet requeues below.
      if (faulty && options.faults->edge_failed(st.cursor.edge(), step)) {
        continue;
      }
      if (busy_until[static_cast<std::size_t>(key)] >= step) continue;
      arbiter.offer({key, i,
                     arbitration_priority(options.policy, st.ready,
                                          st.cursor.remaining(), st.rank)},
                    step);
    }
    still_active.clear();
    for (const std::size_t i : active) {
      PacketState& st = state[i];
      const bool idle = st.ready > step || st.wait_until > step;
      if (faulty && !idle &&
          options.faults->edge_failed(st.cursor.edge(), step)) {
        // Requeue with backoff, or drop once the budget is spent -- the
        // packet always leaves the network counted.
        if (st.retries >= options.retry.max_attempts) {
          ++result.dropped;
          OBLV_COUNTER_ADD("fault.drops", 1);
          continue;
        }
        if (options.reroute_router != nullptr &&
            st.cursor.at() == nodes_of(i).back()) {
          // The path passes through its destination before it ends and
          // the head sits there: a re-route has nothing left to cover.
          deliver(step + F - 1);
          continue;
        }
        ++st.retries;
        const std::int64_t backoff = options.retry.backoff_base
                                     << std::min(st.retries - 1, 32);
        OBLV_COUNTER_ADD("fault.retries", 1);
        OBLV_COUNTER_ADD("fault.backoff_steps",
                         static_cast<std::uint64_t>(backoff));
        st.wait_until = step + backoff;
        if (options.reroute_router != nullptr) {
          // Fresh random bits from the node the head is stuck at.
          options.reroute_router->route_into(st.cursor.at(),
                                             nodes_of(i).back(), rng, scratch,
                                             scratch.path);
          rerouted[i] = scratch.path.nodes;
          st.cursor.reset(mesh, rerouted[i], options.full_duplex);
        }
        still_active.push_back(i);
        continue;
      }
      if (idle || !arbiter.won(st.cursor.key(), i, step)) {
        still_active.push_back(i);
        continue;
      }
      // The head crosses at this step; the link streams flits behind it.
      busy_until[static_cast<std::size_t>(st.cursor.key())] = step + F - 1;
      st.cursor.advance(mesh, nodes_of(i));
      st.ready = step + 1;
      if (st.cursor.done()) {
        deliver(step + F - 1);
      } else {
        still_active.push_back(i);
      }
    }
    active.swap(still_active);
  }

  result.completed = active.empty();
  if (result.completed) {
    OBLV_CHECK(result.delivered + result.dropped == result.injected,
               "cut-through fault accounting: every packet must end "
               "delivered or dropped");
  }
  return result;
}

}  // namespace oblivious
