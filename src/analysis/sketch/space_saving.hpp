// Deterministic SpaceSaving top-k tracker over (dimension, line) keys.
//
// All load on an edge comes from runs along that edge's own line, so a
// line's total charged hops upper-bound the max edge load on it. Tracking
// the k heaviest lines (by charged hops) gives the sketch accountant a
// candidate set for max-load queries without any per-edge state
// (DESIGN.md section 14).
//
// Determinism: insertion follows the classic SpaceSaving rule with a
// fixed eviction tie-break (smallest count, then smallest key), and
// merge() is a pure function of the two summaries (union counts, sorted
// truncation). Merge order still matters when truncation bites, which is
// why parallel folds go through LoadAccountant::fold_block -- it replays
// shard summaries in block-index order.
//
// Layout: every array is sized once by the constructor, so add() never
// allocates and costs O(log k).
//   * slots_  -- key, count and error of each tracked line;
//   * index_  -- key -> slot, open addressing over a power-of-two table of
//                at least 8k entries (splitmix64 home, linear probing,
//                backward-shift deletion). At load <= 1/8 nearly every
//                probe run ends at its home position; at load 1/2 the
//                mispredicted probe-run exits cost more than the tree.
//                It is only probed, never iterated, so its layout cannot
//                leak into any output;
//   * tree_   -- a tournament tree over bit_ceil(k) leaves: each internal
//                node holds the slot with the smallest (count, key) below
//                it, unused leaves counting as +infinity, so the root is
//                the eviction victim.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace oblivious {

class SpaceSavingLines {
 public:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t count = 0;  // upper bound on the key's true weight
    std::uint64_t error = 0;  // count - error lower-bounds the true weight
  };

  // \pre 1 <= capacity <= 2^28.
  explicit SpaceSavingLines(std::size_t capacity);

  void add(std::uint64_t key, std::uint64_t weight);
  void clear();

  // Deterministic summary merge: counts and errors add for shared keys,
  // the union is re-truncated to capacity by (count desc, key asc), and
  // every truncated key counts as an eviction.
  // \pre other has the same capacity.
  void merge(const SpaceSavingLines& other);

  // Tracked entries ordered by (count desc, key asc).
  std::vector<Entry> entries_sorted() const;

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }
  // Evictions since construction or clear() (heavy-hitter churn). Reset
  // by clear() so per-block shard summaries report only their own block;
  // merge() accumulates the other summary's count.
  std::uint64_t evictions() const { return evictions_; }
  std::size_t memory_bytes() const;

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct IndexEntry {
    std::uint32_t slot = kNoSlot;  // kNoSlot marks a free position
    std::uint32_t home = 0;        // the key's hashed position
  };

  std::uint32_t home(std::uint64_t key) const;
  void index_insert(std::uint32_t home, std::uint32_t slot);
  void index_erase(std::uint32_t slot);

  // The lighter of two slots by (count, key); slots >= size_ are empty
  // and lose to every live slot.
  std::uint32_t lighter(std::uint32_t a, std::uint32_t b) const;
  std::uint32_t winner(std::size_t node) const;
  // Replays the matches on the slot's leaf-to-root path; after the slot's
  // count only grew (`grew`), just the matches it had won.
  void replay(std::uint32_t slot, bool grew);
  void rebuild_tree();

  std::size_t size_ = 0;
  std::uint64_t evictions_ = 0;
  std::vector<Entry> slots_;
  std::vector<IndexEntry> index_;
  std::size_t index_mask_ = 0;
  std::size_t leaves_ = 1;
  // tree_[1 .. leaves_-1] are the internal nodes (children 2n and 2n+1);
  // leaf j sits at node leaves_ + j and is slot j itself.
  std::vector<std::uint32_t> tree_;
};

}  // namespace oblivious
