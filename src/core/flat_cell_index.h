#ifndef RPDBSCAN_CORE_FLAT_CELL_INDEX_H_
#define RPDBSCAN_CORE_FLAT_CELL_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cell_coord.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace rpdbscan {

/// Open-addressing coord -> dense-cell-id index: one flat power-of-two
/// slot array, linear probing, load factor <= 0.5. Replaces the seed's
/// std::unordered_map in CellSet::FindCell — a lookup is one mix of the
/// precomputed CellCoord hash plus a short probe over a contiguous array,
/// with no node allocations and no pointer chasing.
///
/// The index stores only cell ids; coordinate equality is checked against
/// the caller's cell array, which the CSR layout already keeps dense.
///
/// Two slot layouts, chosen at build time:
///  * Build(): 4-byte id-only slots — smallest table, but every probe must
///    load the caller's cell array to compare coordinates (a second
///    dependent cache miss per occupied slot). Right for CellSet, whose
///    lookups are sparse across a hot partitioning loop.
///  * BuildHashed(): 16-byte {hash, id} slots storing the full 64-bit
///    coordinate hash inline — a probe rejects non-matching occupied slots
///    from the slot array alone, and confirms a 64-bit hash match against
///    a caller-held flat coordinate array (dim int32s per cell, one cache
///    line per compare). Right for the dictionary's global cell index:
///    Phase II's and serving's one lookup per source cell or query.
class FlatCellIndex {
 public:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  /// One hashed-mode slot. The id doubles as the occupancy flag.
  struct HashedSlot {
    uint64_t hash = 0;
    uint32_t id = kEmptySlot;
  };

  /// Rebuilds the table over `cells[i].coord -> i`. Coords must be unique.
  template <typename CellVector>
  void Build(const CellVector& cells) {
    size_t capacity = 16;
    while (capacity < cells.size() * 2) capacity <<= 1;
    mask_ = capacity - 1;
    slots_.assign(capacity, kEmptySlot);
    for (uint32_t id = 0; id < cells.size(); ++id) {
      size_t s = static_cast<size_t>(cells[id].coord.hash()) & mask_;
      while (slots_[s] != kEmptySlot) s = (s + 1) & mask_;
      slots_[s] = id;
    }
  }

  /// Rebuilds the hashed-slot table over `hashes[i] -> i`, with
  /// concurrent insertion on `pool` when given: threads claim a slot's id
  /// with a relaxed compare-exchange, then write the hash (any
  /// interleaving yields a valid linear-probe table for a fixed capacity;
  /// probe order on lookup does not depend on insertion order, and no
  /// reader runs before the ParallelFor join, which provides the
  /// happens-before edge for subsequent plain reads — concurrent
  /// *inserters* only ever test a claimed slot's id, never its hash).
  /// Falls back to sequential insertion for small inputs or a
  /// missing/single-thread pool.
  void BuildHashed(const uint64_t* hashes, size_t count, ThreadPool* pool) {
    size_t capacity = 16;
    while (capacity < count * 2) capacity <<= 1;
    mask_ = capacity - 1;
    hslots_.assign(capacity, HashedSlot{});
    // Slot-occupancy bitmap: 1 bit per slot, so the no-such-first-slot
    // verdict — the common outcome for serving's stencil probes into
    // empty lattice space — resolves from a table 128x smaller than the
    // slot array (L1-resident at any realistic cell count). Rounded up
    // so tiny tables (capacity < 64) still get one word.
    hbits_.assign((capacity + 63) / 64, 0);
    constexpr size_t kSequentialCutoff = 4096;
    if (pool == nullptr || pool->num_threads() <= 1 ||
        count < kSequentialCutoff) {
      for (uint32_t id = 0; id < count; ++id) {
        const uint64_t h = hashes[id];
        size_t s = static_cast<size_t>(h) & mask_;
        while (hslots_[s].id != kEmptySlot) s = (s + 1) & mask_;
        hslots_[s] = HashedSlot{h, id};
        hbits_[s >> 6] |= uint64_t{1} << (s & 63);
      }
      return;
    }
    ParallelFor(*pool, count, [&](size_t i) {
      const uint32_t id = static_cast<uint32_t>(i);
      const uint64_t h = hashes[id];
      size_t s = static_cast<size_t>(h) & mask_;
      for (;;) {
        std::atomic_ref<uint32_t> slot_id(hslots_[s].id);
        uint32_t expected = kEmptySlot;
        if (slot_id.load(std::memory_order_relaxed) == kEmptySlot &&
            slot_id.compare_exchange_strong(expected, id,
                                            std::memory_order_relaxed)) {
          hslots_[s].hash = h;
          std::atomic_ref<uint64_t>(hbits_[s >> 6])
              .fetch_or(uint64_t{1} << (s & 63), std::memory_order_relaxed);
          return;
        }
        s = (s + 1) & mask_;
      }
    });
  }

  /// Dense id of the cell at `coord`, or -1 if absent.
  template <typename CellVector>
  int64_t Find(const CellCoord& coord, const CellVector& cells) const {
    if (slots_.empty()) return -1;
    size_t s = static_cast<size_t>(coord.hash()) & mask_;
    while (slots_[s] != kEmptySlot) {
      const uint32_t id = slots_[s];
      if (cells[id].coord == coord) return static_cast<int64_t>(id);
      s = (s + 1) & mask_;
    }
    return -1;
  }

  /// Hashed-mode lookup of the cell whose coordinates are
  /// `coords[0..dim)` with precomputed hash `hash` (CellCoordHashOf).
  /// A miss — a serving query outside every dictionary cell — resolves
  /// from the slot array alone; the flat coordinate array
  /// (`coords_base[id * dim ..]`, the same layout BuildHashed's hashes
  /// were computed from) is read only on a 64-bit hash match, to rule out
  /// collisions — a dim-int32 compare against one cache line.
  int64_t FindHashed(uint64_t hash, const int32_t* coords, size_t dim,
                     const int32_t* coords_base) const {
    if (hslots_.empty()) return -1;
    size_t s = static_cast<size_t>(hash) & mask_;
    // First-slot-empty misses settle from the L1-resident bitmap without
    // touching the slot array at all.
    if (!(hbits_[s >> 6] >> (s & 63) & 1)) return -1;
    for (;;) {
      const HashedSlot slot = hslots_[s];
      if (slot.id == kEmptySlot) return -1;
      if (slot.hash == hash) {
        const int32_t* c = coords_base + static_cast<size_t>(slot.id) * dim;
        size_t d = 0;
        while (d < dim && c[d] == coords[d]) ++d;
        if (d == dim) return static_cast<int64_t>(slot.id);
      }
      s = (s + 1) & mask_;
    }
  }

  size_t capacity() const {
    return hslots_.empty() ? slots_.size() : hslots_.size();
  }

 private:
  std::vector<uint32_t> slots_;
  std::vector<HashedSlot> hslots_;
  /// Hashed mode only: occupancy bit per slot (see BuildHashed).
  std::vector<uint64_t> hbits_;
  size_t mask_ = 0;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_CORE_FLAT_CELL_INDEX_H_
