#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "util/simd.hpp"

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::note(const std::string& line) const {
  std::cout << line << std::endl;
}

void Report::op(bool ok, const std::string& what) {
  ops(1, ok ? 0 : 1, what);
}

void Report::ops(std::uint64_t attempted, std::uint64_t failed,
                 const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    failures_.push_back(what + " (" + std::to_string(failed) + " of " +
                        std::to_string(attempted) + ")");
  }
}

void Report::print_result() const {
  for (const std::string& f : failures_) std::cout << "FAILED " << f << '\n';
  const double error_rate =
      attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0;
  std::cout << "error_rate " << json_number(error_rate)
            << " (" << failed_ << " failed of " << attempted_
            << " attempted operations and checks)\n";
  for (const Metric& m : metrics_) {
    std::cout << "metric " << m.name << " = " << json_number(m.value) << ' '
              << m.unit << '\n';
  }
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
        << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
        << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::string describe_latency(const std::vector<double>& v,
                             const std::string& unit) {
  std::ostringstream out;
  out << "p50 " << median(v) << ' ' << unit;
  for (double q : {0.999, 0.99, 0.95, 0.90, 0.75}) {
    if (static_cast<double>(v.size()) * (1.0 - q) >= 10.0) {
      out << ", p" << q * 100 << ' ' << percentile(v, q) << ' ' << unit;
      break;
    }
  }
  out << " (" << v.size() << " samples)";
  return out.str();
}

void interleave(double budget_s, const std::vector<Phase*>& phases) {
  const Clock::time_point start = Clock::now();
  for (;;) {
    Phase* next = nullptr;
    bool short_of_min = false;
    for (Phase* p : phases) {
      short_of_min = short_of_min || p->out.size() < p->min_reps;
      if (next == nullptr ||
          p->spent_s / p->weight < next->spent_s / next->weight) {
        next = p;
      }
    }
    if (!short_of_min && seconds_since(start) >= budget_s) return;
    if (seconds_since(start) >= budget_s) {
      // Over budget: only phases still short of their minimum run.
      next = nullptr;
      for (Phase* p : phases) {
        if (p->out.size() < p->min_reps &&
            (next == nullptr || p->spent_s < next->spent_s)) {
          next = p;
        }
      }
    }
    const Clock::time_point rep_start = Clock::now();
    next->out.push_back(next->rep());
    next->spent_s += seconds_since(rep_start);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

long proc_threads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      long n = 0;
      status >> n;
      return n;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

long proc_maps() {
  std::ifstream maps("/proc/self/maps");
  long n = 0;
  std::string line;
  while (std::getline(maps, line)) ++n;
  return n;
}

std::size_t worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

std::string environment_json(const Options& options) {
#ifdef OBLV_CONTRACTS_ENABLED
  const bool contracts = true;
#else
  const bool contracts = false;
#endif
#ifdef OBLV_METRICS_ENABLED
  const bool metrics = true;
#else
  const bool metrics = false;
#endif
#ifdef OBLV_CHAOS_ENABLED
  const bool chaos = true;
#else
  const bool chaos = false;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string warning;
  if (build_type != "Release") warning += "non-Release build; ";
  if (contracts) warning += "contracts compiled in; ";
  if (chaos) warning += "chaos fault points compiled in; ";
  if (!warning.empty()) warning += "this measures a different program";

  std::ostringstream out;
  out << "{\"workload\": " << json_string(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"seconds\": " << json_number(options.seconds)
      << ", \"trace\": " << (options.trace ? "true" : "false")
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"workers\": " << worker_count()
      << ", \"build_type\": " << json_string(build_type)
      << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
      << ", \"contracts\": " << (contracts ? "true" : "false")
      << ", \"metrics\": " << (metrics ? "true" : "false")
      << ", \"chaos\": " << (chaos ? "true" : "false")
      << ", \"simd\": "
      << json_string(oblivious::simd_avx2_enabled() ? "avx2" : "scalar")
      << ", \"commit\": " << json_string(options.commit)
      << ", \"warning\": " << json_string(warning) << "}";
  return out.str();
}

}  // namespace perfbench
