#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

namespace perfbench::trace {
namespace {

struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index in the same thread's buffer
  std::uint64_t request_id = 0;
};

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::int64_t> open;  // stack of open span indices
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_mu

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Buffer& local_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    buffer = g_buffers.back().get();
    buffer->thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
  }
  return *buffer;
}

}  // namespace

void set_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

Scope::Scope(const char* name, std::uint64_t request_id) {
  if (!enabled()) return;
  Buffer& b = local_buffer();
  index_ = static_cast<std::int64_t>(b.spans.size());
  const std::int64_t parent = b.open.empty() ? -1 : b.open.back();
  b.spans.push_back(Span{name, now_ns(), 0, parent, request_id});
  b.open.push_back(index_);
}

Scope::~Scope() {
  if (index_ < 0) return;
  Buffer& b = local_buffer();
  b.spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  b.open.pop_back();
}

std::vector<SelfTime> self_times() {
  std::map<std::string, SelfTime> rows;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_buffers) {
    std::vector<double> child_ns(b->spans.size(), 0.0);
    for (const Span& s : b->spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      SelfTime& r = rows[s.name];
      r.name = s.name;
      const auto dur = static_cast<double>(s.end_ns - s.start_ns);
      r.count += 1;
      r.total_ns += dur;
      r.self_ns += dur - child_ns[i];
    }
  }
  std::vector<SelfTime> out;
  for (auto& [name, r] : rows) out.push_back(r);
  return out;
}

SelfTime row(const std::string& name) {
  for (const SelfTime& r : self_times()) {
    if (r.name == name) return r;
  }
  return SelfTime{name, 0, 0.0, 0.0};
}

bool write(const std::string& prefix) {
  std::ofstream spans(prefix + ".spans.tsv");
  spans << "thread\tindex\tname\tstart_ns\tend_ns\tparent\trequest_id\n";
  {
    std::lock_guard<std::mutex> lock(g_mu);
    for (const auto& b : g_buffers) {
      for (std::size_t i = 0; i < b->spans.size(); ++i) {
        const Span& s = b->spans[i];
        spans << b->thread << '\t' << i << '\t' << s.name << '\t'
              << s.start_ns << '\t' << s.end_ns << '\t' << s.parent << '\t'
              << s.request_id << '\n';
      }
    }
  }
  std::ofstream table(prefix + ".self.tsv");
  table << "name\tcount\ttotal_ns\tself_ns\tmean_ns\tmean_self_ns\n";
  for (const SelfTime& r : self_times()) {
    table << r.name << '\t' << r.count << '\t' << r.total_ns << '\t'
          << r.self_ns << '\t' << r.mean_ns() << '\t' << r.mean_self_ns()
          << '\n';
  }
  return static_cast<bool>(spans) && static_cast<bool>(table);
}

}  // namespace perfbench::trace
