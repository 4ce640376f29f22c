#ifndef RPDBSCAN_GRAPH_DISJOINT_SET_H_
#define RPDBSCAN_GRAPH_DISJOINT_SET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rpdbscan {

/// Union-find with path halving and union by size. This is the linear-time
/// machinery behind the paper's edge reduction (Sec. 6.1.4: "the spanning
/// forest is found in linear time") and behind cluster-id assignment from
/// the global cell graph's spanning trees.
class DisjointSet {
 public:
  /// `n` singleton elements, ids [0, n).
  explicit DisjointSet(size_t n);

  /// Adds one more singleton and returns its id.
  uint32_t Add();

  /// Representative of `x`'s component.
  uint32_t Find(uint32_t x);

  /// Merges the components of `a` and `b`. Returns true iff they were in
  /// different components (i.e., the edge (a,b) belongs to the spanning
  /// forest).
  bool Union(uint32_t a, uint32_t b);

  size_t size() const { return parent_.size(); }
  size_t num_components() const { return components_; }

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> comp_size_;
  size_t components_ = 0;
};

/// Lock-free union-find for edge-parallel spanning-forest construction
/// (the Wang et al. ECL/path-splitting scheme): parents are atomics, Find
/// applies path splitting (each visited node is CAS-swung to its
/// grandparent — failures just mean someone else compressed first), and
/// Union links the larger-indexed root under the smaller by CAS, retrying
/// from fresh Finds on contention. Concurrent Unions from any number of
/// threads are linearizable; after they all complete (any happens-before
/// barrier, e.g. the return of the ParallelFor that ran them, which the
/// pool's fork-join orders after every claimant's writes), Find is
/// deterministic in the min-index sense: every component's representative
/// is its smallest member id regardless of schedule, because links always
/// point downwards in index order.
///
/// Union returns true iff the calling thread's CAS joined two previously
/// disconnected components — across all threads exactly
/// (n - #components) Unions return true, so spanning-forest accounting
/// (#clusters == #core - #kept edges) is schedule-independent even
/// though *which* edges win is not.
class ConcurrentDisjointSet {
 public:
  explicit ConcurrentDisjointSet(size_t n);

  /// Representative of `x`'s component: the smallest id reachable over
  /// the current link structure. Safe to call concurrently with Unions
  /// (the result may be stale by the time it returns); quiescent calls
  /// return the component's minimum id.
  uint32_t Find(uint32_t x);

  /// Merges the components of `a` and `b`. Thread-safe; see class note
  /// for the true-return accounting.
  bool Union(uint32_t a, uint32_t b);

  size_t size() const { return parent_.size(); }

 private:
  std::vector<std::atomic<uint32_t>> parent_;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_GRAPH_DISJOINT_SET_H_
