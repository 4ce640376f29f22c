#include "verify/audit.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/cell_coord.h"
#include "core/grid.h"
#include "core/simd.h"
#include "graph/disjoint_set.h"
#include "spatial/kdtree.h"
#include "util/random.h"

namespace rpdbscan {
namespace {

template <typename... Args>
std::string Cat(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

// Relative slack for floating-point comparisons of derived geometric
// quantities (same scale as the QueryCell classification margins): orders
// of magnitude above double rounding error, orders below any real
// geometric violation.
constexpr double kRelSlack = 1e-9;

// Spot-check sample sizes for the Theorem 5.4 sandwich tests.
constexpr size_t kCheapSamples = 32;
constexpr size_t kFullSamples = 256;

}  // namespace

void AuditReport::Record(std::string message) {
  ++violations_;
  if (messages_.size() < kMaxMessages) messages_.push_back(std::move(message));
}

void AuditReport::Merge(const AuditReport& other) {
  checks_ += other.checks_;
  violations_ += other.violations_;
  for (const std::string& m : other.messages_) {
    if (messages_.size() >= kMaxMessages) break;
    messages_.push_back(m);
  }
}

Status AuditReport::ToStatus(const std::string& stage) const {
  if (ok()) return Status::OK();
  std::ostringstream os;
  os << "audit[" << stage << "]: " << violations_ << " of " << checks_
     << " invariant checks violated";
  for (const std::string& m : messages_) os << "; " << m;
  if (violations_ > messages_.size()) os << "; ...";
  return Status::Internal(os.str());
}

std::string AuditReport::ToString() const {
  std::ostringstream os;
  os << checks_ << " checks, " << violations_ << " violations";
  for (const std::string& m : messages_) os << "\n  " << m;
  return os.str();
}

AuditReport AuditCsrArrays(size_t num_points,
                           const std::vector<uint64_t>& offsets,
                           const std::vector<uint32_t>& point_ids) {
  AuditReport report;
  report.Check(!offsets.empty(),
               [] { return std::string("CSR offsets array is empty"); });
  if (offsets.empty()) return report;
  report.Check(offsets.front() == 0, [&] {
    return Cat("CSR offsets[0] = ", offsets.front(), ", want 0");
  });
  bool monotone = true;
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      report.Fail(Cat("CSR offsets not monotone at cell ", i, ": ",
                      offsets[i], " > ", offsets[i + 1]));
      monotone = false;
      break;
    }
  }
  report.Check(offsets.back() == num_points, [&] {
    return Cat("CSR offsets.back() = ", offsets.back(), ", want num_points = ",
               num_points);
  });
  report.Check(point_ids.size() == num_points, [&] {
    return Cat("CSR point_ids.size() = ", point_ids.size(),
               ", want num_points = ", num_points);
  });

  // Permutation: every point id in [0, num_points) appears exactly once.
  std::vector<uint8_t> seen(num_points, 0);
  for (size_t i = 0; i < point_ids.size(); ++i) {
    const uint32_t pid = point_ids[i];
    if (pid >= num_points) {
      report.Fail(Cat("CSR point_ids[", i, "] = ", pid, " out of range [0, ",
                      num_points, ")"));
      continue;
    }
    if (seen[pid]) {
      report.Fail(Cat("CSR point id ", pid, " appears more than once"));
      continue;
    }
    seen[pid] = 1;
  }
  size_t missing = 0;
  for (size_t pid = 0; pid < num_points; ++pid) {
    if (!seen[pid]) ++missing;
  }
  report.Check(missing == 0, [&] {
    return Cat("CSR point_ids missing ", missing, " of ", num_points,
               " point ids");
  });

  // Within each cell, point ids ascend (both build engines guarantee it;
  // the dictionary and labeling scans rely on the deterministic order).
  if (monotone && offsets.back() <= point_ids.size()) {
    for (size_t c = 0; c + 1 < offsets.size(); ++c) {
      for (uint64_t i = offsets[c] + 1; i < offsets[c + 1]; ++i) {
        if (point_ids[i - 1] >= point_ids[i]) {
          report.Fail(Cat("CSR cell ", c, " point ids not ascending: ",
                          point_ids[i - 1], " then ", point_ids[i]));
          break;
        }
      }
    }
  }
  return report;
}

AuditReport AuditCellSet(const Dataset& data, const CellSet& cells,
                         AuditLevel level) {
  AuditReport report;
  const GridGeometry& geom = cells.geom();
  const size_t num_cells = cells.num_cells();
  const std::vector<uint64_t>& offsets = cells.cell_point_offsets();
  const std::vector<uint32_t>& ids = cells.point_ids();

  report.Check(offsets.size() == num_cells + 1, [&] {
    return Cat("offsets.size() = ", offsets.size(), ", want num_cells + 1 = ",
               num_cells + 1);
  });
  const AuditReport csr = AuditCsrArrays(data.size(), offsets, ids);
  report.Merge(csr);
  // The detail checks below index through the CSR arrays; a corrupt CSR is
  // already reported and would only turn them into undefined behavior.
  if (!csr.ok() || offsets.size() != num_cells + 1) return report;

  uint32_t prev_first = 0;
  for (uint32_t c = 0; c < num_cells; ++c) {
    const CellData& cell = cells.cell(c);
    // Span views alias the flat arrays (allocation-free accessor contract).
    report.Check(cell.point_ids.data() == ids.data() + offsets[c] &&
                     cell.point_ids.size() == offsets[c + 1] - offsets[c],
                 [&] {
                   return Cat("cell ", c,
                              " span does not view the CSR slice [",
                              offsets[c], ", ", offsets[c + 1], ")");
                 });
    report.Check(!cell.point_ids.empty(),
                 [&] { return Cat("cell ", c, " is empty"); });
    if (cell.point_ids.empty()) continue;
    // First-encounter numbering: cells ordered by their first point id.
    const uint32_t first = cell.point_ids.front();
    report.Check(c == 0 || first > prev_first, [&] {
      return Cat("cells not in first-encounter order: cell ", c,
                 " starts at point ", first, " after ", prev_first);
    });
    prev_first = first;
    // Coordinate matches the binning arithmetic (every point at kFull).
    const size_t stride =
        level == AuditLevel::kFull ? 1 : cell.point_ids.size();
    for (size_t i = 0; i < cell.point_ids.size(); i += stride) {
      const uint32_t pid = cell.point_ids[i];
      report.Check(geom.CellOf(data.point(pid)) == cell.coord, [&] {
        return Cat("point ", pid, " does not bin to its cell ", c);
      });
    }
    // Flat index agreement.
    report.Check(cells.FindCell(cell.coord) == static_cast<int64_t>(c), [&] {
      return Cat("FindCell disagrees with CSR for cell ", c);
    });
  }

  const size_t cap = cells.index().capacity();
  report.Check(cap >= 16 && (cap & (cap - 1)) == 0 && cap >= 2 * num_cells,
               [&] {
                 return Cat("flat index capacity ", cap,
                            " violates power-of-two / load-factor bound for ",
                            num_cells, " cells");
               });

  // Pseudo random partitioning: a disjoint cover of the cells, cell counts
  // balanced within one (round-robin deal), cached point counts exact.
  const size_t k = cells.num_partitions();
  report.Check(k >= 1, [] { return std::string("no partitions"); });
  std::vector<uint8_t> cell_seen(num_cells, 0);
  size_t min_cells = num_cells + 1;
  size_t max_cells = 0;
  for (uint32_t pid = 0; pid < k; ++pid) {
    const std::vector<uint32_t>& part = cells.partition(pid);
    min_cells = std::min(min_cells, part.size());
    max_cells = std::max(max_cells, part.size());
    size_t points = 0;
    for (const uint32_t cid : part) {
      if (cid >= num_cells || cell_seen[cid]) {
        report.Fail(Cat("partition ", pid, " holds invalid or duplicate cell ",
                        cid));
        continue;
      }
      cell_seen[cid] = 1;
      points += cells.cell(cid).point_ids.size();
      report.Check(cells.cell(cid).owner_partition == pid, [&] {
        return Cat("cell ", cid, " owner_partition = ",
                   cells.cell(cid).owner_partition, ", listed in partition ",
                   pid);
      });
    }
    report.Check(cells.PartitionPoints(pid) == points, [&] {
      return Cat("PartitionPoints(", pid, ") = ", cells.PartitionPoints(pid),
                 ", actual ", points);
    });
  }
  size_t covered = 0;
  for (const uint8_t s : cell_seen) covered += s;
  report.Check(covered == num_cells, [&] {
    return Cat("partitions cover ", covered, " of ", num_cells, " cells");
  });
  report.Check(max_cells - min_cells <= 1, [&] {
    return Cat("partition cell counts unbalanced: min ", min_cells, ", max ",
               max_cells);
  });
  return report;
}

AuditReport AuditDictionary(const Dataset& data, const CellSet& cells,
                            const CellDictionary& dict, AuditLevel level) {
  AuditReport report;
  const GridGeometry& geom = dict.geom();
  const size_t dim = geom.dim();
  const size_t num_cells = cells.num_cells();
  report.Check(dict.num_cells() == num_cells, [&] {
    return Cat("dictionary holds ", dict.num_cells(), " cells, cell set ",
               num_cells);
  });

  std::vector<uint8_t> cell_seen(num_cells, 0);
  size_t counted_cells = 0;
  size_t counted_subcells = 0;
  uint64_t global_count = 0;
  std::vector<float> center_buf(dim);
  for (size_t sdi = 0; sdi < dict.subdictionaries().size(); ++sdi) {
    const SubDictionary& sd = dict.subdictionaries()[sdi];
    counted_cells += sd.num_cells();
    counted_subcells += sd.num_subcells();
    uint32_t expected_begin = 0;
    for (size_t i = 0; i < sd.cells().size(); ++i) {
      const DictCell& dc = sd.cells()[i];
      // Sub-cell ranges tile the fragment contiguously and are non-empty.
      report.Check(dc.subcell_begin == expected_begin &&
                       dc.subcell_end > dc.subcell_begin &&
                       dc.subcell_end <= sd.num_subcells(),
                   [&] {
                     return Cat("subdict ", sdi, " cell ", dc.cell_id,
                                " sub-cell range [", dc.subcell_begin, ", ",
                                dc.subcell_end, ") breaks the tiling at ",
                                expected_begin);
                   });
      expected_begin = dc.subcell_end;
      if (dc.cell_id >= num_cells || cell_seen[dc.cell_id]) {
        report.Fail(Cat("subdict ", sdi, " holds invalid or duplicate cell ",
                        dc.cell_id));
        continue;
      }
      cell_seen[dc.cell_id] = 1;
      const CellData& cell = cells.cell(dc.cell_id);
      report.Check(dc.coord == cell.coord, [&] {
        return Cat("dictionary coord mismatch for cell ", dc.cell_id);
      });
      // Density accounting (the Lemma 4.3 "density" payload).
      uint64_t range_count = 0;
      for (uint32_t s = dc.subcell_begin; s < dc.subcell_end; ++s) {
        const uint32_t c = sd.subcells()[s].count;
        report.Check(c >= 1, [&] {
          return Cat("subdict ", sdi, " cell ", dc.cell_id,
                     " has a zero-density sub-cell");
        });
        range_count += c;
      }
      global_count += range_count;
      report.Check(dc.total_count == range_count &&
                       range_count == cell.point_ids.size(),
                   [&] {
                     return Cat("cell ", dc.cell_id, " density: total_count ",
                                dc.total_count, ", sub-cell sum ", range_count,
                                ", population ", cell.point_ids.size());
                   });
      // Lane block, the sub-cell storage every Phase II and serving
      // kernel scans: sized to the sub-cell count rounded up to
      // kSimdLaneWidth, occupied slots carrying the sub-cell densities,
      // padding slots +inf centers and zero densities so whole-vector
      // strides can never match them. Checked only over a valid sub-cell
      // range (a broken one was reported above).
      const bool range_ok = dc.subcell_end > dc.subcell_begin &&
                            dc.subcell_end <= sd.num_subcells();
      const uint32_t local = static_cast<uint32_t>(i);
      const uint32_t occupied = dc.subcell_end - dc.subcell_begin;
      const uint32_t padded = sd.lane_padded(local);
      const float* lanes = sd.lane_centers(local);
      if (range_ok) {
        const uint32_t* lane_counts = sd.lane_counts(local);
        bool lanes_ok = padded == (occupied + kSimdLaneWidth - 1) /
                                      kSimdLaneWidth * kSimdLaneWidth;
        for (uint32_t slot = 0; lanes_ok && slot < padded; ++slot) {
          if (slot < occupied) {
            lanes_ok = lane_counts[slot] ==
                       sd.subcells()[dc.subcell_begin + slot].count;
            continue;
          }
          lanes_ok = lane_counts[slot] == 0;
          for (size_t d = 0; lanes_ok && d < dim; ++d) {
            lanes_ok = lanes[d * padded + slot] == kLanePadCenter;
          }
        }
        report.Check(lanes_ok, [&] {
          return Cat("cell ", dc.cell_id, " lane block of ", padded,
                     " slots for ", occupied,
                     " sub-cells has wrong densities or padding");
        });
      }
      // Fragment MBR swallows the whole cell box: the soundness condition
      // of Lemma 5.10 skipping (a skipped fragment can hold no sub-cell
      // within eps of the query). Exact comparison — the MBR was expanded
      // with these very box coordinates.
      for (size_t d = 0; d < dim; ++d) {
        const double lo = geom.CellOrigin(dc.coord, d);
        if (!(sd.mbr().min(d) <= lo &&
              lo + geom.cell_side() <= sd.mbr().max(d))) {
          report.Fail(Cat("subdict ", sdi, " MBR does not contain cell ",
                          dc.cell_id, " along dim ", d));
          break;
        }
      }

      if (level == AuditLevel::kFull) {
        // Recompute the sub-cell histogram from the raw points (Alg. 2
        // lines 13-17) and compare entry by entry.
        std::unordered_map<SubcellId, uint32_t, SubcellIdHash> histogram;
        for (const uint32_t pid : cell.point_ids) {
          ++histogram[geom.SubcellOf(data.point(pid), cell.coord)];
        }
        bool match =
            histogram.size() == dc.subcell_end - dc.subcell_begin;
        for (uint32_t s = dc.subcell_begin; match && s < dc.subcell_end;
             ++s) {
          const auto it = histogram.find(sd.subcells()[s].id);
          match = it != histogram.end() && it->second == sd.subcells()[s].count;
        }
        report.Check(match, [&] {
          return Cat("cell ", dc.cell_id,
                     " sub-cell histogram does not match its points");
        });
        // Precomputed cell centers and lane sub-cell centers match the
        // geometry bit-exactly.
        geom.CellCenter(dc.coord, center_buf.data());
        bool centers_ok =
            std::equal(center_buf.begin(), center_buf.end(),
                       sd.cell_centers().begin() + i * dim);
        for (uint32_t slot = 0; range_ok && centers_ok && slot < occupied;
             ++slot) {
          geom.SubcellCenter(dc.coord,
                             sd.subcells()[dc.subcell_begin + slot].id,
                             center_buf.data());
          for (size_t d = 0; centers_ok && d < dim; ++d) {
            centers_ok = center_buf[d] == lanes[d * padded + slot];
          }
        }
        report.Check(centers_ok, [&] {
          return Cat("cell ", dc.cell_id, " precomputed centers drifted");
        });
      }
    }
  }
  // Kd-tree node boxes contain the occupied MBR of every cell below them:
  // the soundness condition of QueryCell dropping or accepting a whole
  // subtree from its node box. Exact comparison — the boxes are min / max
  // folds of these very floats.
  for (size_t sdi = 0; sdi < dict.subdictionaries().size(); ++sdi) {
    const SubDictionary& sd = dict.subdictionaries()[sdi];
    const KdTree& tree = sd.tree();
    report.Check(tree.size() == sd.num_cells(), [&] {
      return Cat("subdict ", sdi, " kd-tree holds ", tree.size(),
                 " cells, want ", sd.num_cells());
    });
    if (tree.size() != sd.num_cells()) continue;
    for (size_t node = 0; node < tree.num_nodes(); ++node) {
      const float* box = tree.node_box(node);
      for (const uint32_t local : tree.node_items(node)) {
        const float* mbr = sd.cell_mbr(local);
        bool inside = true;
        for (size_t d = 0; d < dim && inside; ++d) {
          inside = box[d] <= mbr[d] && mbr[dim + d] <= box[dim + d];
        }
        report.Check(inside, [&] {
          return Cat("subdict ", sdi, " kd-tree node ", node,
                     " box does not contain cell ", sd.cells()[local].cell_id);
        });
      }
    }
  }

  // Stencil neighborhood CSR, which the stencil Phase II and serving
  // walk: well-formed at kCheap; at kFull each
  // list, as a set, is exactly the cells found by hash-probing the slot's
  // full stencil window — an oracle independent of the build's sorted
  // merge-join, whether the list was swept or carried over from a prior
  // dictionary. An empty dictionary builds no CSR.
  if (dict.has_stencil() && dict.num_cells() > 0) {
    const std::vector<size_t>& begin = dict.stencil_neighbor_begin();
    const std::span<const uint32_t> slots = dict.stencil_neighbor_slots();
    const size_t num_slots = dict.num_cells();
    bool shape_ok = begin.size() == num_slots + 1 && begin.front() == 0 &&
                    begin.back() == slots.size();
    // Strictly increasing: monotone, and every list holds at least itself.
    for (size_t s = 0; shape_ok && s < num_slots; ++s) {
      shape_ok = begin[s] < begin[s + 1];
    }
    report.Check(shape_ok, [&] {
      return Cat("stencil neighborhood offsets are not monotone over ",
                 num_slots, " cells and ", slots.size(), " entries");
    });
    const LatticeStencil& stencil = dict.stencil();
    std::vector<uint32_t> list;
    std::vector<uint32_t> want;
    int32_t nbr[CellCoord::kMaxDim];
    for (size_t s = 0; shape_ok && s < num_slots; ++s) {
      const uint32_t cell_id = dict.cell_refs()[s].cell_id;
      bool in_range = slots[begin[s]] == s;
      for (size_t j = begin[s]; j < begin[s + 1]; ++j) {
        in_range = in_range && slots[j] < num_slots;
      }
      report.Check(in_range, [&] {
        return Cat("cell ", cell_id,
                   " stencil neighborhood does not start with its own slot"
                   " or holds a slot out of range");
      });
      if (!in_range || level != AuditLevel::kFull) continue;
      list.assign(slots.begin() + static_cast<std::ptrdiff_t>(begin[s]),
                  slots.begin() + static_cast<std::ptrdiff_t>(begin[s + 1]));
      std::sort(list.begin(), list.end());
      const bool repeats =
          std::adjacent_find(list.begin(), list.end()) != list.end();
      want.assign(1, static_cast<uint32_t>(s));
      const int32_t* c = dict.ref_coords().data() + s * dim;
      for (size_t i = 0; i < stencil.num_offsets(); ++i) {
        const int32_t* off = stencil.offset(i);
        // An offset that leaves the int32 lattice holds no cell: skip it
        // rather than wrap onto the far edge.
        bool on_lattice = true;
        for (size_t d = 0; d < dim && on_lattice; ++d) {
          const int64_t v = static_cast<int64_t>(c[d]) + off[d];
          on_lattice = v >= std::numeric_limits<int32_t>::min() &&
                       v <= std::numeric_limits<int32_t>::max();
          nbr[d] = static_cast<int32_t>(v);
        }
        if (!on_lattice) continue;
        const int64_t hit = dict.FindCellRefIndex(CellCoord(nbr, dim));
        if (hit >= 0) want.push_back(static_cast<uint32_t>(hit));
      }
      std::sort(want.begin(), want.end());
      report.Check(!repeats && list == want, [&] {
        return Cat("cell ", cell_id, " stencil neighborhood lists ",
                   list.size(), " slots", repeats ? " with repeats" : "",
                   ", its window holds ", want.size());
      });
    }
  }

  size_t covered = 0;
  for (const uint8_t s : cell_seen) covered += s;
  report.Check(covered == num_cells, [&] {
    return Cat("sub-dictionaries cover ", covered, " of ", num_cells,
               " cells");
  });
  report.Check(global_count == data.size(), [&] {
    return Cat("dictionary densities sum to ", global_count, ", want ",
               data.size());
  });

  // Lemma 4.3 / Eq. (1) accounting, recomputed from the per-fragment
  // tallies rather than the stored counters.
  report.Check(counted_cells == dict.num_cells() &&
                   counted_subcells == dict.num_subcells(),
               [&] {
                 return Cat("stored cell/sub-cell counters (",
                            dict.num_cells(), ", ", dict.num_subcells(),
                            ") disagree with fragments (", counted_cells,
                            ", ", counted_subcells, ")");
               });
  const size_t h = static_cast<size_t>(geom.h());
  const size_t lemma_bits = 32 * (counted_cells + counted_subcells) +
                            32 * dim * counted_cells +
                            dim * (h - 1) * counted_subcells;
  report.Check(lemma_bits == dict.SizeBitsLemma43(), [&] {
    return Cat("Lemma 4.3 size recomputes to ", lemma_bits, " bits, stored ",
               dict.SizeBitsLemma43());
  });
  return report;
}

AuditReport AuditCellGraph(const Dataset& data, const CellSet& cells,
                           const std::vector<uint8_t>& point_is_core,
                           const CellGraph& graph) {
  AuditReport report;
  const GridGeometry& geom = cells.geom();
  const size_t num_cells = cells.num_cells();
  const size_t k = cells.num_partitions();
  report.Check(point_is_core.size() == data.size(), [&] {
    return Cat("point_is_core.size() = ", point_is_core.size(), ", want ",
               data.size());
  });
  report.Check(graph.cell_is_core.size() == num_cells &&
                   graph.successors.size() == num_cells,
               [&] {
                 return Cat("cell graph sized for ",
                            graph.cell_is_core.size(), " / ",
                            graph.successors.size(), " cells, want ",
                            num_cells);
               });
  report.Check(graph.partitions.size() == k, [&] {
    return Cat("partitions.size() = ", graph.partitions.size(), ", want ",
               k);
  });
  if (point_is_core.size() != data.size() ||
      graph.cell_is_core.size() != num_cells ||
      graph.successors.size() != num_cells || graph.partitions.size() != k) {
    return report;
  }

  // A cell is core iff it holds at least one core point (Def. 3.2).
  for (uint32_t c = 0; c < num_cells; ++c) {
    bool has_core = false;
    for (const uint32_t pid : cells.cell(c).point_ids) {
      if (point_is_core[pid]) {
        has_core = true;
        break;
      }
    }
    report.Check((graph.cell_is_core[c] != 0) == has_core, [&] {
      return Cat("cell ", c, " core flag ", int(graph.cell_is_core[c]),
                 " disagrees with its points");
    });
  }

  // Owned lists: exactly each partition's cells, in partition order.
  for (uint32_t pid = 0; pid < k; ++pid) {
    report.Check(graph.partitions[pid] == cells.partition(pid), [&] {
      return Cat("partition ", pid,
                 " owned list disagrees with the cell set's");
    });
  }

  const double eps2_slack =
      geom.eps() * geom.eps() * (1.0 + kRelSlack);
  const double side = geom.cell_side();
  for (uint32_t from = 0; from < num_cells; ++from) {
    const std::vector<uint32_t>& row = graph.successors[from];
    if (row.empty()) continue;
    report.Check(graph.cell_is_core[from] != 0, [&] {
      return Cat("non-core cell ", from, " has ", row.size(), " successors");
    });
    for (size_t i = 0; i < row.size(); ++i) {
      const uint32_t to = row[i];
      if (to >= num_cells) {
        report.Fail(Cat("cell ", from, " successor ", to, " out of range"));
        continue;
      }
      report.Check(i == 0 || row[i - 1] < to, [&] {
        return Cat("cell ", from, " successor row not strictly ascending at ",
                   row[i - 1], ", ", to);
      });
      report.Check(from != to, [&] {
        return Cat("self-loop at cell ", from);
      });
      // Reachability needs a point of `from` and a sub-cell of `to` within
      // eps (Def. 3.3), so the lattice box gap bounds it from below.
      double gap2 = 0.0;
      const CellCoord& a = cells.cell(from).coord;
      const CellCoord& b = cells.cell(to).coord;
      for (size_t d = 0; d < geom.dim(); ++d) {
        int64_t delta =
            static_cast<int64_t>(a[d]) - static_cast<int64_t>(b[d]);
        if (delta < 0) delta = -delta;
        if (delta > 1) {
          const double gap = static_cast<double>(delta - 1) * side;
          gap2 += gap * gap;
        }
      }
      report.Check(gap2 <= eps2_slack, [&] {
        return Cat("edge ", from, " -> ", to, " spans boxes ",
                   std::sqrt(gap2), " apart (eps ", geom.eps(), ")");
      });
    }
  }
  return report;
}

AuditReport AuditMergeForest(const std::vector<uint8_t>& cell_is_core,
                             const MergeResult& merged, AuditLevel level) {
  AuditReport report;
  const size_t num_cells = cell_is_core.size();
  report.Check(merged.core_cluster.size() == num_cells &&
                   merged.predecessors.size() == num_cells,
               [&] {
                 return Cat("merge result sized for ",
                            merged.core_cluster.size(), " / ",
                            merged.predecessors.size(), " cells, want ",
                            num_cells);
               });
  if (merged.core_cluster.size() != num_cells ||
      merged.predecessors.size() != num_cells) {
    return report;
  }

  // Cluster ids are dense over [0, num_clusters) and mark exactly the core
  // cells.
  size_t num_core = 0;
  std::vector<uint8_t> cluster_used(merged.num_clusters, 0);
  for (uint32_t c = 0; c < num_cells; ++c) {
    const uint32_t cl = merged.core_cluster[c];
    if (cell_is_core[c]) {
      ++num_core;
      if (cl == kNoCluster || cl >= merged.num_clusters) {
        report.Fail(Cat("core cell ", c, " has invalid cluster id ", cl));
        continue;
      }
      cluster_used[cl] = 1;
    } else {
      report.Check(cl == kNoCluster, [&] {
        return Cat("non-core cell ", c, " assigned cluster ", cl);
      });
    }
  }
  size_t used = 0;
  for (const uint8_t u : cluster_used) used += u;
  report.Check(used == merged.num_clusters, [&] {
    return Cat("only ", used, " of ", merged.num_clusters,
               " cluster ids are used");
  });

  // Predecessor lists invert the surviving partial edges: core -> non-core
  // only (bipartite, hence trivially acyclic as a forest over cells).
  for (uint32_t c = 0; c < num_cells; ++c) {
    const std::vector<uint32_t>& preds = merged.predecessors[c];
    if (preds.empty()) continue;
    report.Check(!cell_is_core[c], [&] {
      return Cat("core cell ", c, " has predecessor entries");
    });
    std::unordered_set<uint32_t> dedup;
    for (const uint32_t p : preds) {
      if (p >= num_cells || !cell_is_core[p] || p == c) {
        report.Fail(Cat("cell ", c, " has invalid predecessor ", p));
        continue;
      }
      if (level == AuditLevel::kFull) {
        report.Check(dedup.insert(p).second, [&] {
          return Cat("cell ", c, " lists predecessor ", p, " twice");
        });
      }
    }
  }

  // Merging only keeps or drops edges, so the per-round series cannot grow.
  for (size_t r = 1; r < merged.edges_per_round.size(); ++r) {
    report.Check(merged.edges_per_round[r] <= merged.edges_per_round[r - 1],
                 [&] {
                   return Cat("edge series grew at round ", r, ": ",
                              merged.edges_per_round[r - 1], " -> ",
                              merged.edges_per_round[r]);
                 });
  }

  // Surviving full edges connect same-cluster core cells, and with
  // reduction on they form a spanning forest (Sec. 6.1.4): every kept edge
  // joins two previously disconnected components, so
  // #clusters == #core cells - #kept edges.
  DisjointSet forest(num_cells);
  for (const CellEdge& e : merged.full_edges) {
    if (e.from >= num_cells || e.to >= num_cells) {
      report.Fail(Cat("full edge with out-of-range endpoint ", e.from,
                      " -> ", e.to));
      continue;
    }
    report.Check(cell_is_core[e.from] && cell_is_core[e.to], [&] {
      return Cat("full edge ", e.from, " -> ", e.to,
                 " touches a non-core cell");
    });
    report.Check(merged.core_cluster[e.from] == merged.core_cluster[e.to],
                 [&] {
                   return Cat("full edge ", e.from, " -> ", e.to,
                              " crosses clusters ",
                              merged.core_cluster[e.from], " / ",
                              merged.core_cluster[e.to]);
                 });
    const bool novel = forest.Union(e.from, e.to);
    if (merged.edges_reduced) {
      report.Check(novel, [&] {
        return Cat("reduced full edge ", e.from, " -> ", e.to,
                   " closes a cycle");
      });
    }
  }
  if (merged.edges_reduced) {
    report.Check(num_core == merged.num_clusters + merged.full_edges.size(),
                 [&] {
                   return Cat("forest accounting: ", num_core,
                              " core cells, ", merged.full_edges.size(),
                              " edges, ", merged.num_clusters, " clusters");
                 });
  }
  // Components of the kept full edges are exactly the clusters (reduction
  // never changes connectivity, only drops redundant edges).
  std::unordered_map<uint32_t, uint32_t> root_cluster;
  size_t roots = 0;
  for (uint32_t c = 0; c < num_cells; ++c) {
    if (!cell_is_core[c]) continue;
    const uint32_t root = forest.Find(c);
    const auto [it, inserted] =
        root_cluster.emplace(root, merged.core_cluster[c]);
    if (inserted) ++roots;
    report.Check(it->second == merged.core_cluster[c], [&] {
      return Cat("cell ", c, " cluster ", merged.core_cluster[c],
                 " disagrees with its forest component (cluster ",
                 it->second, ")");
    });
  }
  report.Check(roots == merged.num_clusters, [&] {
    return Cat("forest has ", roots, " components over core cells, want ",
               merged.num_clusters, " clusters");
  });
  return report;
}

AuditReport AuditLabels(const Dataset& data, const CellSet& cells,
                        const MergeResult& merged,
                        const std::vector<uint8_t>& point_is_core,
                        const Labels& labels, size_t min_pts,
                        AuditLevel level, uint64_t seed) {
  AuditReport report;
  const GridGeometry& geom = cells.geom();
  const double eps = geom.eps();
  const double eps2 = eps * eps;
  report.Check(labels.size() == data.size(), [&] {
    return Cat("labels.size() = ", labels.size(), ", want ", data.size());
  });
  report.Check(point_is_core.size() == data.size(),
               [] { return std::string("point_is_core size mismatch"); });
  report.Check(merged.core_cluster.size() == cells.num_cells(),
               [] { return std::string("core_cluster size mismatch"); });
  if (!report.ok()) return report;

  for (const int64_t l : labels) {
    if (l != kNoise &&
        (l < 0 || l >= static_cast<int64_t>(merged.num_clusters))) {
      report.Fail(Cat("label ", l, " outside [0, ", merged.num_clusters,
                      ") and not noise"));
    }
  }

  for (uint32_t c = 0; c < cells.num_cells(); ++c) {
    const CellData& cell = cells.cell(c);
    const uint32_t cluster = merged.core_cluster[c];
    if (cluster != kNoCluster) {
      // Core cell: every point — core points included — carries the cell's
      // cluster (Fig. 3a), so no core point is ever noise.
      for (const uint32_t pid : cell.point_ids) {
        if (labels[pid] != static_cast<int64_t>(cluster)) {
          report.Fail(Cat("point ", pid, " in core cell ", c, " labeled ",
                          labels[pid], ", want ", cluster));
        }
      }
      continue;
    }
    const std::vector<uint32_t>& preds = merged.predecessors[c];
    for (const uint32_t pid : cell.point_ids) {
      report.Check(point_is_core[pid] == 0, [&] {
        return Cat("core point ", pid, " lives in non-core cell ", c);
      });
      if (level == AuditLevel::kFull) {
        // Re-derive the label exactly as LabelPoints does (Lemma 3.5,
        // partial clause): the first core point within eps among the
        // predecessors, in list order.
        int64_t want = kNoise;
        const float* q = data.point(pid);
        for (const uint32_t pred_cid : preds) {
          const CellData& pred = cells.cell(pred_cid);
          bool assigned = false;
          for (const uint32_t p_id : pred.point_ids) {
            if (point_is_core[p_id] == 0) continue;
            if (DistanceSquared(q, data.point(p_id), data.dim()) <= eps2) {
              want = static_cast<int64_t>(merged.core_cluster[pred_cid]);
              assigned = true;
              break;
            }
          }
          if (assigned) break;
        }
        report.Check(labels[pid] == want, [&] {
          return Cat("point ", pid, " labeled ", labels[pid],
                     ", predecessor re-derivation says ", want);
        });
      } else if (labels[pid] != kNoise) {
        // Structural form: a labeled point of a non-core cell must borrow
        // its cluster from one of the cell's core predecessors.
        bool from_pred = false;
        for (const uint32_t pred_cid : preds) {
          if (static_cast<int64_t>(merged.core_cluster[pred_cid]) ==
              labels[pid]) {
            from_pred = true;
            break;
          }
        }
        report.Check(from_pred, [&] {
          return Cat("point ", pid, " labeled ", labels[pid],
                     " without a matching predecessor cluster");
        });
      }
    }
  }

  // Theorem 5.4 sandwich spot-checks against ground truth. The rho-approx
  // neighbor count N~ satisfies N(r_lo) <= N~ <= N(r_hi) with
  // r_lo = (1 - rho/2) eps and r_hi = (1 + rho/2) eps (a counted sub-cell
  // center within eps puts its members within eps + rho*eps/2, and a point
  // within (1 - rho/2) eps puts its sub-cell center within eps). So a
  // noise point must have N(r_lo) < min_pts and a core point
  // N(r_hi) >= min_pts. The slack keeps borderline float distances from
  // producing false violations.
  const double r_lo = (1.0 - geom.rho() / 2.0) * eps * (1.0 - 1e-7);
  const double r_hi = (1.0 + geom.rho() / 2.0) * eps * (1.0 + 1e-7);
  std::vector<uint32_t> noise_ids;
  std::vector<uint32_t> core_ids;
  for (uint32_t pid = 0; pid < labels.size(); ++pid) {
    if (labels[pid] == kNoise) {
      noise_ids.push_back(pid);
    } else if (point_is_core[pid]) {
      core_ids.push_back(pid);
    }
  }
  const size_t samples =
      level == AuditLevel::kFull ? kFullSamples : kCheapSamples;
  if (!noise_ids.empty() || !core_ids.empty()) {
    KdTree tree;
    tree.Build(data.point(0), data.size(), data.dim());
    Rng rng(seed);
    for (size_t i = 0; i < samples && !noise_ids.empty(); ++i) {
      const uint32_t pid = noise_ids[rng.Uniform(noise_ids.size())];
      const size_t n = tree.CountInRadius(data.point(pid), r_lo, min_pts);
      report.Check(n < min_pts, [&] {
        return Cat("noise point ", pid, " has ", n, " >= min_pts = ",
                   min_pts, " exact neighbors at (1 - rho/2) eps");
      });
    }
    for (size_t i = 0; i < samples && !core_ids.empty(); ++i) {
      const uint32_t pid = core_ids[rng.Uniform(core_ids.size())];
      const size_t n = tree.CountInRadius(data.point(pid), r_hi, min_pts);
      report.Check(n >= min_pts, [&] {
        return Cat("core point ", pid, " has only ", n, " < min_pts = ",
                   min_pts, " exact neighbors at (1 + rho/2) eps");
      });
    }
  }
  return report;
}

}  // namespace rpdbscan
