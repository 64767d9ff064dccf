// Reusable per-caller buffers for the zero-allocation routing fast path.
//
// The allocating `Router::route` / `route_segments` conveniences build a
// fresh chain vector and output container per packet; at millions of
// packets per second those mallocs dominate. `route_segments_into` /
// `route_into` instead thread a RouteScratch through every call: the
// chain buffer and the output path keep their heap capacity between
// packets, so after a short warm-up the steady state performs zero heap
// allocations per packet (proved by tests/alloc_count_test.cpp).
//
// A RouteScratch is NOT thread-safe; give each thread its own (that is
// what route_batch does). Waypoints, dimension orders, and coordinates
// need no scratch fields: they live in SmallVec inline storage for every
// mesh dimension the paper considers (d <= 8).
#pragma once

#include <vector>

#include "mesh/path.hpp"
#include "mesh/region.hpp"
#include "mesh/segment_path.hpp"

namespace oblivious {

struct RouteScratch {
  // Bitonic chain of regions (hierarchical routers). Cleared per packet,
  // capacity retained.
  std::vector<Region> chain;

  // The segments Router::route_into stages before expanding them into its
  // node-list output. Not an output of its own.
  SegmentPath segments;

  // Staging output for callers that route transiently (e.g. the online
  // simulator routes into `path`, converts to edges, and discards it).
  Path path;

  // Staging buffer for the fault-aware decorator's greedy detour (kept
  // separate from `path`, which callers may alias as their output).
  Path fault_detour;
};

}  // namespace oblivious
