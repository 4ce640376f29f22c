#ifndef RPDBSCAN_SPATIAL_KDTREE_H_
#define RPDBSCAN_SPATIAL_KDTREE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "io/dataset.h"

namespace rpdbscan {

/// A bulk-loaded kd-tree over float points with runtime dimensionality.
///
/// Two roles in this repository, both straight from the paper:
///  * exact eps-region queries for the original DBSCAN baseline, and
///  * candidate-cell lookup inside a sub-dictionary (Lemma 5.6 names
///    "R*-tree or kd-tree"; we use a kd-tree). For this role every node
///    also carries the union box of its items' boxes (BuildNodeBoxes), so
///    one box test settles a whole subtree (DescendBoxes).
///
/// The tree does not own the coordinate buffer; the caller keeps it alive.
/// Immutable after Build (and BuildNodeBoxes). Thread-safe for concurrent
/// queries.
class KdTree {
 public:
  KdTree() = default;

  /// Builds over `n` points of `dim` coordinates at `data` (row-major).
  /// Splits on the widest dimension at the median; leaves hold up to
  /// `leaf_size` points.
  void Build(const float* data, size_t n, size_t dim, size_t leaf_size = 16);

  size_t size() const { return perm_.size(); }
  bool built() const { return !nodes_.empty() || perm_.empty(); }

  /// Invokes `fn(id, dist2)` for every point within `radius` of `q`
  /// (closed ball, squared distances compared in double).
  template <typename Fn>
  void ForEachInRadius(const float* q, double radius, Fn&& fn) const {
    if (perm_.empty()) return;
    VisitBall(0, q, radius, radius * radius, fn);
  }

  /// Convenience: collects ids within `radius` of `q`.
  std::vector<uint32_t> RadiusSearch(const float* q, double radius) const {
    std::vector<uint32_t> out;
    ForEachInRadius(q, radius,
                    [&out](uint32_t id, double) { out.push_back(id); });
    return out;
  }

  /// Counts points within `radius` of `q`, stopping early once the count
  /// reaches `cap` (used by DBSCAN core tests where only ">= minPts"
  /// matters). A `cap` of 0 means no early exit.
  size_t CountInRadius(const float* q, double radius, size_t cap = 0) const;

  /// The `k` nearest neighbors of `q` as (dist2, id) pairs sorted by
  /// ascending distance (fewer if the tree holds fewer points). Used by
  /// the k-distance diagnostic for eps selection.
  std::vector<std::pair<double, uint32_t>> KNearest(const float* q,
                                                    size_t k) const;

  // --- Node boxes. Items may be boxes rather than points: the tree is
  // --- still split on the Build points, but each node also stores the
  // --- union of the boxes of the items below it. ---

  /// Annotates every node with the union box of its items' boxes.
  /// `item_boxes` holds 2 * dim floats per item id (dim lo, then dim hi);
  /// a node box is their exact per-dimension min / max, so it contains
  /// every item box below the node. Call after Build.
  void BuildNodeBoxes(const float* item_boxes);

  size_t num_nodes() const { return nodes_.size(); }
  /// Node `node`'s box: dim lo floats, then dim hi floats. Node 0 is the
  /// root. Only valid after BuildNodeBoxes.
  const float* node_box(size_t node) const {
    return node_boxes_.data() + node * 2 * dim_;
  }
  /// The ids of the items below node `node`: a contiguous run, nested in
  /// its ancestors' runs and disjoint from every other subtree's.
  std::span<const uint32_t> node_items(size_t node) const {
    return {perm_.data() + nodes_[node].begin,
            nodes_[node].end - nodes_[node].begin};
  }

  /// What DescendBoxes' `classify` decides for one node box.
  enum class BoxVerdict : uint8_t {
    kDisjoint,   // no item below can qualify: skip the subtree
    kContained,  // every item below qualifies: take them all at once
    kPartial,    // undecided: descend (a leaf hands its items over)
  };

  /// Box-bounded descent (needs BuildNodeBoxes). `classify(node)` judges
  /// each reached node, normally from node_box(node). A kDisjoint node is
  /// dropped with its whole subtree; a kContained node passes its items
  /// to `contained(items)` and is not descended; a kPartial inner node
  /// descends into both children, and a kPartial leaf passes its items to
  /// `partial(items)` for per-item tests. Sound whenever `classify` is
  /// monotone under box containment: a verdict that holds for a node box
  /// then holds for every item box inside it.
  template <typename Classify, typename Contained, typename Partial>
  void DescendBoxes(Classify&& classify, Contained&& contained,
                    Partial&& partial) const {
    if (perm_.empty()) return;
    // Explicit DFS stack. Median splits halve the range every level, so
    // the depth is bounded by log2(n) + 1 <= 33 for 32-bit item counts;
    // each iteration pops one node and pushes at most its two children.
    uint32_t stack[64];
    size_t top = 0;
    stack[top++] = 0;
    while (top > 0) {
      const uint32_t node_id = stack[--top];
      const BoxVerdict verdict = classify(node_id);
      if (verdict == BoxVerdict::kDisjoint) continue;
      const Node& node = nodes_[node_id];
      if (verdict == BoxVerdict::kContained) {
        contained(node_items(node_id));
      } else if (node.leaf) {
        partial(node_items(node_id));
      } else {
        stack[top++] = node.right;
        stack[top++] = node.left;
      }
    }
  }

 private:
  struct Node {
    // Internal node: children indices. Every node: its item range
    // [begin, end) of perm_.
    uint32_t left = 0;
    uint32_t right = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
    float split_val = 0;
    uint16_t split_dim = 0;
    bool leaf = false;
  };

  uint32_t BuildRange(uint32_t begin, uint32_t end);

  template <typename Fn>
  void VisitBall(uint32_t node_id, const float* q, double radius, double r2,
                 Fn&& fn) const {
    const Node& node = nodes_[node_id];
    if (node.leaf) {
      for (uint32_t i = node.begin; i < node.end; ++i) {
        const uint32_t id = perm_[i];
        const double d2 = DistanceSquared(q, data_ + id * dim_, dim_);
        if (d2 <= r2) fn(id, d2);
      }
      return;
    }
    const double delta =
        static_cast<double>(q[node.split_dim]) - node.split_val;
    const uint32_t near = delta <= 0 ? node.left : node.right;
    const uint32_t far = delta <= 0 ? node.right : node.left;
    VisitBall(near, q, radius, r2, fn);
    if (delta * delta <= r2) VisitBall(far, q, radius, r2, fn);
  }

  const float* data_ = nullptr;
  size_t dim_ = 0;
  size_t leaf_size_ = 16;
  std::vector<uint32_t> perm_;
  std::vector<Node> nodes_;
  /// 2 * dim_ floats per node (see node_box); empty until BuildNodeBoxes.
  std::vector<float> node_boxes_;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_SPATIAL_KDTREE_H_
