#include "baselines/local_dbscan.h"

#include <utility>

#include "core/cell_dictionary.h"
#include "core/cell_set.h"
#include "core/grid.h"
#include "core/labeling.h"
#include "core/merge.h"
#include "core/phase2.h"
#include "parallel/thread_pool.h"

namespace rpdbscan {

StatusOr<LocalClusteringResult> RunApproxLocalDbscan(
    const Dataset& data, const DbscanParams& params, double rho) {
  if (data.empty()) return Status::InvalidArgument("dataset is empty");
  auto geom_or = GridGeometry::Create(data.dim(), params.eps, rho);
  if (!geom_or.ok()) return geom_or.status();
  auto cells_or = CellSet::Build(data, *geom_or, /*num_partitions=*/1,
                                 /*seed=*/1);
  if (!cells_or.ok()) return cells_or.status();
  auto dict_or = CellDictionary::Build(data, *cells_or);
  if (!dict_or.ok()) return dict_or.status();
  ThreadPool pool(1);
  Phase2Result phase2 =
      BuildSubgraphs(data, *cells_or, *dict_or, params.min_pts, pool);
  MergeResult merged =
      MergeSubgraphs(phase2.subgraphs, cells_or->num_cells(), MergeOptions());
  LocalClusteringResult result;
  result.labels =
      LabelPoints(data, *cells_or, merged, phase2.point_is_core, pool);
  result.point_is_core = std::move(phase2.point_is_core);
  return result;
}

}  // namespace rpdbscan
