#ifndef RPDBSCAN_TESTS_PHASE2_ORACLE_H_
#define RPDBSCAN_TESTS_PHASE2_ORACLE_H_

// Test-only references: the (eps, rho)-region query (Def. 5.1) by brute
// force over the dictionary's public sub-cell accessors, and Phase II as
// Alg. 3 runs it, one such query per point. They share no code with the
// production engines (no kd descent, no candidate lists, no lane kernels,
// no stencil walk), so agreeing with them is evidence, not a tautology.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/cell_dictionary.h"
#include "core/cell_set.h"
#include "core/phase2.h"
#include "io/dataset.h"

namespace rpdbscan {

/// The (eps, rho)-region query around `p` over every sub-cell of `dict`:
/// calls visit(cell, matched) for each cell with `matched` > 0, the summed
/// density of its sub-cells whose center lies within `query_eps` of `p`
/// (0: the geometry eps), compared in DistanceSquared's arithmetic. No
/// skipping, no containment shortcut. Centers are read from the lanes,
/// which AuditDictionary at kFull checks bit for bit against
/// GridGeometry::SubcellCenter.
template <typename Visit>
void BruteForceRegionQuery(const CellDictionary& dict, const float* p,
                           Visit&& visit, double query_eps = 0.0) {
  const size_t dim = dict.geom().dim();
  const double qeps = query_eps > 0.0 ? query_eps : dict.geom().eps();
  const double eps2 = qeps * qeps;
  float center[CellCoord::kMaxDim];
  for (const SubDictionary& sd : dict.subdictionaries()) {
    for (uint32_t c = 0; c < sd.num_cells(); ++c) {
      const DictCell& cell = sd.cells()[c];
      const float* lanes = sd.lane_centers(c);
      const uint32_t padded = sd.lane_padded(c);
      uint32_t matched = 0;
      for (uint32_t s = 0; s < cell.subcell_end - cell.subcell_begin; ++s) {
        for (size_t d = 0; d < dim; ++d) center[d] = lanes[d * padded + s];
        if (DistanceSquared(p, center, dim) <= eps2) {
          matched += sd.subcells()[cell.subcell_begin + s].count;
        }
      }
      if (matched > 0) visit(cell, matched);
    }
  }
}

/// Phase II per Alg. 3: every point of every cell queries the dictionary
/// by brute force; a point is core iff its matched density reaches
/// min_pts, and each core point's neighbor cells join its cell's successor
/// row (Example 5.7). The result has BuildSubgraphs' shape: rows
/// ascending and unique, one owned-cell list per partition in partition
/// order. subdict_visited and subdict_possible both count every
/// sub-dictionary once per point; the other counters stay 0.
inline Phase2Result OraclePhase2(const Dataset& data, const CellSet& cells,
                                 const CellDictionary& dict, size_t min_pts,
                                 double query_eps = 0.0) {
  Phase2Result r;
  const size_t k = cells.num_partitions();
  CellGraph& graph = r.subgraphs;
  graph.cell_is_core.assign(cells.num_cells(), 0);
  graph.successors.resize(cells.num_cells());
  r.point_is_core.assign(data.size(), 0);
  r.task_seconds.assign(k, 0.0);
  std::vector<uint32_t> neighbors;
  for (uint32_t pid = 0; pid < k; ++pid) {
    graph.partitions.push_back(cells.partition(pid));
    for (const uint32_t cid : cells.partition(pid)) {
      std::vector<uint32_t>& row = graph.successors[cid];
      for (const uint32_t point : cells.cell(cid).point_ids) {
        uint64_t count = 0;
        neighbors.clear();
        BruteForceRegionQuery(
            dict, data.point(point),
            [&](const DictCell& dc, uint32_t matched) {
              count += matched;
              if (dc.cell_id != cid) neighbors.push_back(dc.cell_id);
            },
            query_eps);
        r.subdict_visited += dict.num_subdictionaries();
        r.subdict_possible += dict.num_subdictionaries();
        if (count < min_pts) continue;
        r.point_is_core[point] = 1;
        graph.cell_is_core[cid] = 1;
        row.insert(row.end(), neighbors.begin(), neighbors.end());
      }
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
    }
  }
  return r;
}

}  // namespace rpdbscan

#endif  // RPDBSCAN_TESTS_PHASE2_ORACLE_H_
