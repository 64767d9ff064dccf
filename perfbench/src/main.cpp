// perfbench: one workload per run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--commit SHA]
//
// Prints the run environment, human-readable notes and every metric by
// name with its unit, then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics the
// workload exercises, derived from the traced run's spans, and writes the
// spans and the self-time table to DIR/trace-NAME.{spans,self}.tsv.
// perfbench/run.py builds this binary, drives it, and completes the
// result from BENCHMARK.json.
#include <exception>
#include <iostream>
#include <string>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload route-random-2d|route-repeat-2d|"
               "stream-sketch-3d|serve-2d --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--commit SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else if (flag == "--commit") {
      o.commit = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (o.seconds <= 0) return usage("--seconds must be positive");

  Report report;
  report.note("env " + environment_json(o));
  try {
    if (o.workload == "route-random-2d") {
      run_route_2d(o, false, report);
    } else if (o.workload == "route-repeat-2d") {
      run_route_2d(o, true, report);
    } else if (o.workload == "stream-sketch-3d") {
      run_stream_sketch_3d(o, report);
    } else if (o.workload == "serve-2d") {
      run_serve_2d(o, report);
    } else {
      return usage("unknown workload '" + o.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  const double attempted = static_cast<double>(report.attempted());
  const double success =
      attempted > 0 ? 1.0 - static_cast<double>(report.failed()) / attempted
                    : 0.0;
  if (o.trace) {
    trace::set_enabled(false);
    const std::string prefix = o.out_dir + "/trace-" + o.workload;
    if (trace::write(prefix)) {
      report.note("trace written to " + prefix + ".{spans,self}.tsv");
    }
  } else {
    report.metric("success_rate", success, "ratio");
  }
  report.print_result();
  return 0;
}
