// Shared plumbing of the benchmark: run options, the result being built
// (metrics, verification verdicts, operation counts), sample statistics,
// and the run environment.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory for the trace files and the daemon socket (relative to the
  // working directory, which keeps the Unix socket path short).
  std::string out_dir = ".";
  std::string commit = "unknown";
};


class Report {
 public:
  // Metrics print in insertion order.
  void metric(const std::string& name, double value, const std::string& unit);

  // Human-readable line printed before the result (stdout).
  void note(const std::string& line) const;

  // One attempted operation (a timed call, a request, a verification
  // check); `ok == false` counts it as failed and names it in the output.
  void op(bool ok, const std::string& what);
  void ops(std::uint64_t attempted, std::uint64_t failed,
           const std::string& what);
  void check(bool ok, const std::string& what) { op(ok, "verify: " + what); }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  // The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  void print_result() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// --- sample statistics ------------------------------------------------------

double median(std::vector<double> v);
// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);

// "p50 X, pQ Y (N samples)": the median plus the highest of p99.9, p99,
// p95, p90 and p75 with at least ten samples beyond it.
std::string describe_latency(const std::vector<double>& v,
                             const std::string& unit);

// One timed phase of a run: `rep` performs one repetition and returns its
// measurement, which is appended to `out`.
struct Phase {
  Phase(double share, std::size_t minimum, std::function<double()> body)
      : weight(share), min_reps(minimum), rep(std::move(body)) {}

  double weight;         // share of the run's time
  std::size_t min_reps;  // repetitions at the very least
  std::function<double()> rep;
  std::vector<double> out;
  double spent_s = 0.0;
};

// Runs repetitions of the phases interleaved -- always the phase with
// the least time spent per unit of weight -- until `budget_s` has passed
// and every phase has its minimum. Interleaving spreads a transient host
// slowdown over all phases instead of one, and each metric is a median
// over repetitions taken across the whole run.
void interleave(double budget_s, const std::vector<Phase*>& phases);

// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 15;

// Calls `make(i)` kSetupReps times, destroying each result before the
// next call, and returns the last one; `setup_s` gets the median time.
template <typename Make>
auto repeat_setup(const Make& make, double& setup_s) {
  decltype(make(0)) rig;
  std::vector<double> seconds;
  for (int i = 0; i < kSetupReps; ++i) {
    rig.reset();
    const Clock::time_point start = Clock::now();
    rig = make(i);
    seconds.push_back(seconds_since(start));
  }
  setup_s = median(seconds);
  return rig;
}

// --- process and environment ------------------------------------------------

double peak_rss_mb();
long proc_threads();
long proc_maps();

// Worker threads and connections: min(nproc, 4).
std::size_t worker_count();

// One JSON line describing the build and host; flags a build that
// measures a different program (non-Release, contracts compiled in).
std::string environment_json(const Options& options);

}  // namespace perfbench
