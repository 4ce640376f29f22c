#ifndef RPDBSCAN_TESTS_NEIGHBORHOOD_SETS_H_
#define RPDBSCAN_TESTS_NEIGHBORHOOD_SETS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/cell_dictionary.h"

namespace rpdbscan {

/// Every cell's stencil neighborhood as a sorted list of neighbor cell ids
/// (itself excluded), indexed by cell id — what two dictionaries over the
/// same cells must agree on whatever their slot layout and list order.
/// Expects each list to start with the cell's own slot.
inline std::vector<std::vector<uint32_t>> NeighborIdSets(
    const CellDictionary& dict) {
  std::vector<std::vector<uint32_t>> out(dict.num_cells());
  for (size_t slot = 0; slot < dict.num_cells(); ++slot) {
    size_t count = 0;
    const uint32_t* nbr = dict.StencilNeighborsOf(slot, &count);
    const uint32_t id = dict.cell_refs()[slot].cell_id;
    EXPECT_GE(count, 1u) << "cell " << id;
    if (count == 0) continue;
    EXPECT_EQ(nbr[0], slot) << "cell " << id << " does not list itself first";
    std::vector<uint32_t>& ids = out[id];
    for (size_t j = 1; j < count; ++j) {
      ids.push_back(dict.cell_refs()[nbr[j]].cell_id);
    }
    std::sort(ids.begin(), ids.end());
  }
  return out;
}

}  // namespace rpdbscan

#endif  // RPDBSCAN_TESTS_NEIGHBORHOOD_SETS_H_
