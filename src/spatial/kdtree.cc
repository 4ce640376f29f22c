#include "spatial/kdtree.h"

#include <algorithm>
#include <numeric>
#include <queue>

namespace rpdbscan {

void KdTree::Build(const float* data, size_t n, size_t dim,
                   size_t leaf_size) {
  data_ = data;
  dim_ = dim;
  leaf_size_ = leaf_size == 0 ? 1 : leaf_size;
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), 0u);
  nodes_.clear();
  node_boxes_.clear();
  if (n == 0) return;
  nodes_.reserve(2 * n / leaf_size_ + 2);
  BuildRange(0, static_cast<uint32_t>(n));
}

uint32_t KdTree::BuildRange(uint32_t begin, uint32_t end) {
  const uint32_t node_id = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].begin = begin;
  nodes_[node_id].end = end;
  if (end - begin <= leaf_size_) {
    nodes_[node_id].leaf = true;
    return node_id;
  }
  // Split on the widest dimension of this subset's bounding extent.
  uint16_t best_dim = 0;
  double best_spread = -1.0;
  for (size_t d = 0; d < dim_; ++d) {
    float lo = data_[perm_[begin] * dim_ + d];
    float hi = lo;
    for (uint32_t i = begin + 1; i < end; ++i) {
      const float v = data_[perm_[i] * dim_ + d];
      if (v < lo) lo = v;
      if (v > hi) hi = v;
    }
    const double spread = static_cast<double>(hi) - lo;
    if (spread > best_spread) {
      best_spread = spread;
      best_dim = static_cast<uint16_t>(d);
    }
  }
  const uint32_t mid = begin + (end - begin) / 2;
  std::nth_element(perm_.begin() + begin, perm_.begin() + mid,
                   perm_.begin() + end, [this, best_dim](uint32_t a,
                                                         uint32_t b) {
                     return data_[a * dim_ + best_dim] <
                            data_[b * dim_ + best_dim];
                   });
  const float split_val = data_[perm_[mid] * dim_ + best_dim];
  const uint32_t left = BuildRange(begin, mid);
  const uint32_t right = BuildRange(mid, end);
  Node& node = nodes_[node_id];
  node.leaf = false;
  node.split_dim = best_dim;
  node.split_val = split_val;
  node.left = left;
  node.right = right;
  return node_id;
}

void KdTree::BuildNodeBoxes(const float* item_boxes) {
  const size_t stride = 2 * dim_;
  node_boxes_.resize(nodes_.size() * stride);
  // BuildRange numbers nodes in pre-order, so children come after their
  // parent: one reverse sweep visits every node after its children.
  for (size_t n = nodes_.size(); n-- > 0;) {
    const Node& node = nodes_[n];
    float* box = node_boxes_.data() + n * stride;
    auto fold = [&](const float* other, bool first) {
      for (size_t d = 0; d < dim_; ++d) {
        box[d] = first ? other[d] : std::min(box[d], other[d]);
        box[dim_ + d] =
            first ? other[dim_ + d] : std::max(box[dim_ + d], other[dim_ + d]);
      }
    };
    if (node.leaf) {
      for (uint32_t i = node.begin; i < node.end; ++i) {
        fold(item_boxes + static_cast<size_t>(perm_[i]) * stride,
             i == node.begin);
      }
    } else {
      fold(node_boxes_.data() + node.left * stride, true);
      fold(node_boxes_.data() + node.right * stride, false);
    }
  }
}

namespace {

// Max-heap entry for bounded kNN collection.
struct HeapEntry {
  double dist2;
  uint32_t id;
  bool operator<(const HeapEntry& other) const {
    return dist2 < other.dist2;
  }
};

}  // namespace

std::vector<std::pair<double, uint32_t>> KdTree::KNearest(const float* q,
                                                          size_t k) const {
  std::vector<std::pair<double, uint32_t>> out;
  if (k == 0 || perm_.empty()) return out;
  std::priority_queue<HeapEntry> best;  // max-heap on dist2
  // Branch-and-bound descent: visit near child first, prune the far child
  // when the splitting plane is beyond the current kth distance.
  auto visit = [&](auto&& self, uint32_t node_id) -> void {
    const Node& node = nodes_[node_id];
    if (node.leaf) {
      for (uint32_t i = node.begin; i < node.end; ++i) {
        const uint32_t id = perm_[i];
        const double d2 = DistanceSquared(q, data_ + id * dim_, dim_);
        if (best.size() < k) {
          best.push(HeapEntry{d2, id});
        } else if (d2 < best.top().dist2) {
          best.pop();
          best.push(HeapEntry{d2, id});
        }
      }
      return;
    }
    const double delta =
        static_cast<double>(q[node.split_dim]) - node.split_val;
    const uint32_t near = delta <= 0 ? node.left : node.right;
    const uint32_t far = delta <= 0 ? node.right : node.left;
    self(self, near);
    if (best.size() < k || delta * delta <= best.top().dist2) {
      self(self, far);
    }
  };
  visit(visit, 0);
  out.resize(best.size());
  for (size_t i = out.size(); i-- > 0;) {
    out[i] = {best.top().dist2, best.top().id};
    best.pop();
  }
  return out;
}

size_t KdTree::CountInRadius(const float* q, double radius,
                             size_t cap) const {
  size_t count = 0;
  // ForEachInRadius has no early-exit channel; emulate with a cheap check.
  // The visit lambda is only called for in-ball points, so the extra work
  // after reaching `cap` is bounded by the remaining leaf scan.
  ForEachInRadius(q, radius, [&count](uint32_t, double) { ++count; });
  if (cap != 0 && count > cap) return cap;
  return count;
}

}  // namespace rpdbscan
