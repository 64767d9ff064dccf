// Reference oracle for SpaceSavingLines: the ordered-map + lazy-heap
// tracker the fixed-size implementation replaced. It follows the same
// SpaceSaving rule (the victim is the slot with the smallest (count,
// key); the newcomer inherits its count as error) and the same merge
// (key-ordered union, truncation by (count desc, key asc)), but shares no
// index or tree code with it, so a differential run pins every entry,
// count, error and eviction of the production tracker.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "analysis/sketch/space_saving.hpp"
#include "util/check.hpp"

namespace oblivious::testing {

class SpaceSavingOracle {
 public:
  using Entry = SpaceSavingLines::Entry;

  explicit SpaceSavingOracle(std::size_t capacity) : capacity_(capacity) {
    OBLV_REQUIRE(capacity >= 1, "SpaceSaving needs capacity >= 1");
  }

  void add(std::uint64_t key, std::uint64_t weight) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      // The heap entry goes stale-low; refresh_min repairs it lazily.
      slots_[it->second].count += weight;
      return;
    }
    if (slots_.size() < capacity_) {
      const std::size_t slot = slots_.size();
      slots_.push_back({key, weight, 0});
      index_.emplace(key, slot);
      heap_.push_back({weight, key, slot});
      std::push_heap(heap_.begin(), heap_.end(), HeapGreater{});
      return;
    }
    const std::size_t slot = refresh_min();
    std::pop_heap(heap_.begin(), heap_.end(), HeapGreater{});
    heap_.pop_back();
    index_.erase(slots_[slot].key);
    const std::uint64_t floor = slots_[slot].count;
    slots_[slot] = {key, floor + weight, floor};
    index_.emplace(key, slot);
    heap_.push_back({floor + weight, key, slot});
    std::push_heap(heap_.begin(), heap_.end(), HeapGreater{});
    ++evictions_;
  }

  void clear() {
    slots_.clear();
    index_.clear();
    heap_.clear();
    evictions_ = 0;
  }

  void merge(const SpaceSavingOracle& other) {
    OBLV_REQUIRE(capacity_ == other.capacity_,
                 "cannot merge SpaceSaving summaries of different capacity");
    std::map<std::uint64_t, Entry> combined;
    for (const Entry& s : slots_) combined[s.key] = s;
    for (const Entry& s : other.slots_) {
      Entry& e = combined[s.key];
      e.key = s.key;
      e.count += s.count;
      e.error += s.error;
    }
    std::vector<Entry> entries;
    entries.reserve(combined.size());
    for (const auto& [key, e] : combined) entries.push_back(e);
    std::sort(entries.begin(), entries.end(), heavier);
    if (entries.size() > capacity_) {
      evictions_ += entries.size() - capacity_;
      entries.resize(capacity_);
    }
    evictions_ += other.evictions_;

    slots_.clear();
    index_.clear();
    heap_.clear();
    for (const Entry& e : entries) {
      const std::size_t slot = slots_.size();
      slots_.push_back(e);
      index_.emplace(e.key, slot);
      heap_.push_back({e.count, e.key, slot});
    }
    std::make_heap(heap_.begin(), heap_.end(), HeapGreater{});
  }

  std::vector<Entry> entries_sorted() const {
    std::vector<Entry> out = slots_;
    std::sort(out.begin(), out.end(), heavier);
    return out;
  }

  std::size_t size() const { return slots_.size(); }
  std::uint64_t evictions() const { return evictions_; }

 private:
  using HeapItem = std::tuple<std::uint64_t, std::uint64_t, std::size_t>;

  // Min-heap order: smallest (count, key) on top -- the eviction victim.
  struct HeapGreater {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      return std::tie(std::get<0>(a), std::get<1>(a)) >
             std::tie(std::get<0>(b), std::get<1>(b));
    }
  };

  static bool heavier(const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  }

  // Pops heap entries until the top reflects a live slot's current count;
  // returns that slot index.
  std::size_t refresh_min() {
    for (;;) {
      OBLV_CHECK(!heap_.empty(), "SpaceSaving heap lost a live slot");
      const auto [count, key, slot] = heap_.front();
      if (slot < slots_.size() && slots_[slot].key == key) {
        if (slots_[slot].count == count) return slot;
        // Stale snapshot of a live slot: replace it with the current count.
        std::pop_heap(heap_.begin(), heap_.end(), HeapGreater{});
        heap_.back() = {slots_[slot].count, key, slot};
        std::push_heap(heap_.begin(), heap_.end(), HeapGreater{});
        continue;
      }
      // The slot was evicted and reused for another key; drop the ghost.
      std::pop_heap(heap_.begin(), heap_.end(), HeapGreater{});
      heap_.pop_back();
    }
  }

  std::size_t capacity_;
  std::uint64_t evictions_ = 0;
  std::vector<Entry> slots_;
  std::map<std::uint64_t, std::size_t> index_;
  // Lazy min-heap of (count snapshot, key, slot): stale snapshots are
  // dropped at pop time. Every live slot always has >= 1 heap entry with
  // snapshot <= its current count.
  std::vector<HeapItem> heap_;
};

}  // namespace oblivious::testing
