#ifndef RPDBSCAN_CORE_CELL_GRAPH_H_
#define RPDBSCAN_CORE_CELL_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rpdbscan {

/// The Phase II output (Alg. 3): every partition's local cell subgraph,
/// held by cell id. A cell's core flag and successor row are written by
/// the partition that owns it. Edges are untyped; the merge reads each
/// edge's type off its successor's core flag (Sec. 6.1.3).
struct CellGraph {
  /// Per cell id: 1 iff the cell holds a core point (Def. 3.2).
  std::vector<uint8_t> cell_is_core;
  /// Per cell id: the other cells holding a sub-cell within reach of one
  /// of the cell's core points (Defs. 3.3/3.4), ascending and
  /// duplicate-free; empty for a non-core cell.
  std::vector<std::vector<uint32_t>> successors;
  /// Per partition: the cells it owns, in the cell set's partition order.
  /// Only the merge tournament and the audit read them.
  std::vector<std::vector<uint32_t>> partitions;

  size_t num_edges() const {
    size_t n = 0;
    for (const std::vector<uint32_t>& row : successors) n += row.size();
    return n;
  }
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_CORE_CELL_GRAPH_H_
