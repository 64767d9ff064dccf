// In-memory span recorder for the benchmark's traced run.
//
// A Span marks one call the benchmark makes into a layer's public
// function: its name ("layer.function"), start and end on the steady
// clock, the enclosing span on the same thread (parent), and the request
// id it served (0 when the call is not tied to a request). Spans go to a
// per-thread buffer, so recording takes no lock after a thread's first
// span. With tracing disabled a Scope costs one relaxed load.
//
// At exit the run writes every span and a self-time table: for each name,
// the call count, the total time, and the self time (span time minus the
// time covered by its child spans). The per-layer metrics are derived
// from that table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

void set_enabled(bool enabled);

// Opens a span on construction and closes it on destruction.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t request_id = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int64_t index_ = -1;
};

struct SelfTime {
  std::string name;
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;

  double mean_ns() const { return count ? total_ns / count : 0.0; }
  double mean_self_ns() const { return count ? self_ns / count : 0.0; }
};

// Aggregates every recorded span by name (all threads).
std::vector<SelfTime> self_times();

// The row for `name`; an all-zero row when no such span was recorded.
SelfTime row(const std::string& name);

// Writes `<prefix>.spans.tsv` (one line per span) and
// `<prefix>.self.tsv` (the self-time table). Returns false on I/O error.
bool write(const std::string& prefix);

}  // namespace perfbench::trace
