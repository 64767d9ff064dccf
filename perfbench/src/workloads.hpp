// The benchmark's four workloads (see perfbench/README.md). Each runs its
// setup kSetupReps times, an untimed warm-up, the timed phases, and the
// untimed verification pass, then fills `report`: the end-to-end metrics
// in the plain run, the per-layer metrics in the traced run.
#pragma once

#include "report.hpp"

namespace perfbench {

// route-random-2d (repeat == false) and route-repeat-2d (repeat == true).
void run_route_2d(const Options& options, bool repeat, Report& report);
// stream-sketch-3d.
void run_stream_sketch_3d(const Options& options, Report& report);
// serve-2d.
void run_serve_2d(const Options& options, Report& report);
// The daemon.* and load.* per-layer metrics of a short serve-2d run, for
// route-random-2d's traced run: serve-2d itself is not in BENCHMARK.json
// (see perfbench/README.md), but its layers are measured.
void probe_daemon_layers(const Options& options, Report& report);

}  // namespace perfbench
