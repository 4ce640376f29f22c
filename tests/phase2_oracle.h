#ifndef RPDBSCAN_TESTS_PHASE2_ORACLE_H_
#define RPDBSCAN_TESTS_PHASE2_ORACLE_H_

// Test-only Phase II reference: Alg. 3 run literally, one (eps, rho)-region
// query per point through the public CellDictionary::Query. It shares no
// code with the production engines (no candidate lists, no lane kernels,
// no stencil walk), so agreeing with it is evidence, not a tautology.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/cell_dictionary.h"
#include "core/cell_set.h"
#include "core/phase2.h"
#include "io/dataset.h"

namespace rpdbscan {

/// Phase II per Alg. 3: every point of every cell queries the dictionary;
/// a point is core iff its matched density reaches min_pts, and each core
/// point's neighbor cells join its cell's successor row (Example 5.7).
/// The result has BuildSubgraphs' shape: rows ascending and unique, one
/// owned-cell list per partition in partition order.
/// subdict_visited / subdict_possible count per-point sweeps; the other
/// counters stay 0.
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
        r.subdict_visited += dict.Query(
            data.point(point),
            [&](const DictCell& dc, uint32_t matched) {
              count += matched;
              if (dc.cell_id != cid) neighbors.push_back(dc.cell_id);
            },
            query_eps);
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
