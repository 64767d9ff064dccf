#include "analysis/sketch/space_saving.hpp"

#include <algorithm>
#include <bit>
#include <map>

#include "rng/rng.hpp"

namespace oblivious {

namespace {

bool entry_heavier(const SpaceSavingLines::Entry& a,
                   const SpaceSavingLines::Entry& b) {
  if (a.count != b.count) return a.count > b.count;
  return a.key < b.key;
}

std::size_t checked_capacity(std::size_t capacity) {
  OBLV_REQUIRE(capacity >= 1, "SpaceSaving needs capacity >= 1");
  OBLV_REQUIRE(capacity <= (std::size_t{1} << 28),
               "SpaceSaving capacity must keep index positions in 32 bits");
  return capacity;
}

}  // namespace

SpaceSavingLines::SpaceSavingLines(std::size_t capacity)
    : slots_(checked_capacity(capacity)),
      index_(std::bit_ceil(8 * capacity)),
      index_mask_(index_.size() - 1),
      leaves_(std::bit_ceil(capacity)),
      tree_(leaves_) {
  rebuild_tree();
}

std::uint32_t SpaceSavingLines::home(std::uint64_t key) const {
  return static_cast<std::uint32_t>(splitmix64(key) & index_mask_);
}

void SpaceSavingLines::index_insert(std::uint32_t home, std::uint32_t slot) {
  std::size_t pos = home;
  while (index_[pos].slot != kNoSlot) pos = (pos + 1) & index_mask_;
  index_[pos] = {slot, home};
}

void SpaceSavingLines::index_erase(std::uint32_t slot) {
  std::size_t hole = home(slots_[slot].key);
  while (index_[hole].slot != slot) {
    OBLV_CHECK(index_[hole].slot != kNoSlot, "SpaceSaving index lost a slot");
    hole = (hole + 1) & index_mask_;
  }
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home lies cyclically in (hole, pos], where it already is
  // reachable without crossing the hole.
  for (std::size_t pos = (hole + 1) & index_mask_;
       index_[pos].slot != kNoSlot; pos = (pos + 1) & index_mask_) {
    const std::size_t h = index_[pos].home;
    const bool reachable =
        hole <= pos ? (hole < h && h <= pos) : (hole < h || h <= pos);
    if (reachable) continue;
    index_[hole] = index_[pos];
    hole = pos;
  }
  index_[hole].slot = kNoSlot;
}

std::uint32_t SpaceSavingLines::lighter(std::uint32_t a,
                                        std::uint32_t b) const {
  if (b >= size_) return a;
  if (a >= size_) return b;
  const Entry& x = slots_[a];
  const Entry& y = slots_[b];
  if (x.count != y.count) return x.count < y.count ? a : b;
  return x.key < y.key ? a : b;
}

std::uint32_t SpaceSavingLines::winner(std::size_t node) const {
  return node >= leaves_ ? static_cast<std::uint32_t>(node - leaves_)
                         : tree_[node];
}

void SpaceSavingLines::replay(std::uint32_t slot, bool grew) {
  // `best` is the new winner of the node below; each step plays it
  // against the sibling subtree's winner. A slot that only grew can only
  // lose matches it used to win: once the path reaches a match it had
  // already lost, that match and every one above it stand.
  std::uint32_t best = slot;
  for (std::size_t child = leaves_ + slot; child > 1; child >>= 1) {
    std::uint32_t& match = tree_[child >> 1];
    if (grew && match != slot) return;
    best = lighter(best, winner(child ^ 1));
    match = best;
  }
}

void SpaceSavingLines::rebuild_tree() {
  // Bottom-up from the leaves: a zero-filled node would name slot 0 as
  // the winner of a subtree it is not in.
  for (std::size_t node = leaves_ - 1; node >= 1; --node) {
    tree_[node] = lighter(winner(2 * node), winner(2 * node + 1));
  }
}

void SpaceSavingLines::add(std::uint64_t key, std::uint64_t weight) {
  const std::uint32_t h = home(key);
  for (std::size_t pos = h; index_[pos].slot != kNoSlot;
       pos = (pos + 1) & index_mask_) {
    if (slots_[index_[pos].slot].key == key) {
      const std::uint32_t slot = index_[pos].slot;
      slots_[slot].count += weight;
      replay(slot, /*grew=*/true);
      return;
    }
  }
  if (size_ < slots_.size()) {
    const auto slot = static_cast<std::uint32_t>(size_++);
    slots_[slot] = {key, weight, 0};
    index_insert(h, slot);
    replay(slot, /*grew=*/false);
    return;
  }
  // Classic SpaceSaving replacement: the new key inherits the victim's
  // count as its error bound.
  const std::uint32_t slot = winner(1);
  index_erase(slot);
  index_insert(h, slot);
  const std::uint64_t floor = slots_[slot].count;
  slots_[slot] = {key, floor + weight, floor};
  replay(slot, /*grew=*/false);
  ++evictions_;
}

void SpaceSavingLines::clear() {
  size_ = 0;
  evictions_ = 0;
  std::fill(index_.begin(), index_.end(), IndexEntry{});
  rebuild_tree();
}

std::vector<SpaceSavingLines::Entry> SpaceSavingLines::entries_sorted() const {
  std::vector<Entry> out(slots_.begin(),
                         slots_.begin() + static_cast<std::ptrdiff_t>(size_));
  std::sort(out.begin(), out.end(), entry_heavier);
  return out;
}

void SpaceSavingLines::merge(const SpaceSavingLines& other) {
  OBLV_REQUIRE(capacity() == other.capacity(),
               "cannot merge SpaceSaving summaries of different capacity");
  // Combine via an ordered map so the union is key-sorted (deterministic),
  // then keep the heaviest capacity() keys.
  std::map<std::uint64_t, Entry> combined;
  for (std::size_t i = 0; i < size_; ++i) combined[slots_[i].key] = slots_[i];
  for (std::size_t i = 0; i < other.size_; ++i) {
    const Entry& s = other.slots_[i];
    Entry& e = combined[s.key];
    e.key = s.key;
    e.count += s.count;
    e.error += s.error;
  }
  std::vector<Entry> entries;
  entries.reserve(combined.size());
  for (const auto& [key, e] : combined) entries.push_back(e);
  std::sort(entries.begin(), entries.end(), entry_heavier);
  if (entries.size() > capacity()) {
    evictions_ += entries.size() - capacity();
    entries.resize(capacity());
  }
  evictions_ += other.evictions_;

  size_ = entries.size();
  std::copy(entries.begin(), entries.end(), slots_.begin());
  std::fill(index_.begin(), index_.end(), IndexEntry{});
  for (std::size_t i = 0; i < size_; ++i) {
    index_insert(home(slots_[i].key), static_cast<std::uint32_t>(i));
  }
  rebuild_tree();
}

std::size_t SpaceSavingLines::memory_bytes() const {
  return slots_.size() * sizeof(Entry) + index_.size() * sizeof(IndexEntry) +
         tree_.size() * sizeof(std::uint32_t);
}

}  // namespace oblivious
