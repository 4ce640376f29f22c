#include "serve/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>

#include "io/section_file.h"

namespace rpdbscan {
namespace {

// Little-endian scalar writers (push_back style; sections are reserved to
// their exact size before the loops).
void StoreU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back((v >> (8 * i)) & 0xff);
}

void StoreU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back((v >> (8 * i)) & 0xff);
}

void StoreF64(std::vector<uint8_t>* out, double v) {
  StoreU64(out, std::bit_cast<uint64_t>(v));
}

void StoreF32(std::vector<uint8_t>* out, float v) {
  StoreU32(out, std::bit_cast<uint32_t>(v));
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

double LoadF64(const uint8_t* p) { return std::bit_cast<double>(LoadU64(p)); }
float LoadF32(const uint8_t* p) { return std::bit_cast<float>(LoadU32(p)); }

// The meta section grew from 64 to 72 bytes when query_eps was appended;
// loading is size-gated so pre-growth files read as query_eps == eps.
constexpr size_t kMetaBytesV1 = 64;
constexpr size_t kMetaBytes = 72;
constexpr size_t kEngineBytes = 48;
constexpr size_t kEpochBytes = 32;
constexpr uint32_t kFlagBorderRefs = 1u << 0;
// Presence of the epoch-lineage section (streaming snapshots). A flag bit
// plus an extra section, no version bump: readers without the bit set skip
// the section, old files without the bit load unchanged.
constexpr uint32_t kFlagEpoch = 1u << 1;
// Presence of the multi-level eps-ladder section, same discipline.
constexpr uint32_t kFlagHierarchy = 1u << 2;

Status SectionError(const std::string& name, const std::string& detail) {
  return Status::InvalidArgument("snapshot section '" + name + "': " +
                                 detail);
}

/// Validates a CSR offset array: monotone, starting at 0. Returns the
/// total (the last offset) through `*total`.
Status CheckCsr(const std::string& name, const std::vector<uint64_t>& offsets,
                uint64_t* total) {
  if (offsets.empty() || offsets.front() != 0) {
    return SectionError(name, "CSR offsets must start at 0");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return SectionError(name, "CSR offsets not monotone at index " +
                                    std::to_string(i));
    }
  }
  *total = offsets.back();
  return Status::OK();
}

}  // namespace

StatusOr<ClusterModelSnapshot> ClusterModelSnapshot::FromModel(
    CapturedModel model, const SnapshotOptions& opts) {
  ClusterModelSnapshot snap;
  const CellDictionary& dict = model.dictionary;
  const size_t num_cells = dict.num_cells();
  if (num_cells == 0) {
    return Status::InvalidArgument("captured model has an empty dictionary");
  }
  if (model.merged.core_cluster.size() != num_cells ||
      model.merged.predecessors.size() != num_cells) {
    return Status::InvalidArgument(
        "captured model tables disagree with the dictionary cell count");
  }
  snap.meta_.dim = dict.geom().dim();
  snap.meta_.eps = dict.geom().eps();
  snap.meta_.rho = dict.geom().rho();
  snap.meta_.min_pts = model.min_pts;
  snap.meta_.num_points = model.num_points;
  snap.meta_.num_cells = num_cells;
  snap.meta_.num_subcells = dict.num_subcells();
  snap.meta_.num_clusters = model.merged.num_clusters;
  snap.meta_.has_border_refs = opts.include_border_refs;
  snap.meta_.query_eps =
      model.query_eps > 0 ? model.query_eps : dict.geom().eps();
  if (snap.meta_.query_eps < snap.meta_.eps) {
    return Status::InvalidArgument(
        "captured model query_eps is below the cell-diagonal eps");
  }
  snap.dict_opts_ = opts.dict_opts;
  snap.cell_cluster_ = std::move(model.merged.core_cluster);

  snap.pred_offsets_.assign(num_cells + 1, 0);
  for (size_t cid = 0; cid < num_cells; ++cid) {
    snap.pred_offsets_[cid + 1] =
        snap.pred_offsets_[cid] + model.merged.predecessors[cid].size();
  }
  snap.preds_.reserve(snap.pred_offsets_[num_cells]);
  for (const std::vector<uint32_t>& p : model.merged.predecessors) {
    snap.preds_.insert(snap.preds_.end(), p.begin(), p.end());
  }

  if (opts.include_border_refs) {
    if (model.ref_offsets.size() != num_cells + 1) {
      return Status::InvalidArgument(
          "captured model carries no border references (ref_offsets size " +
          std::to_string(model.ref_offsets.size()) + ")");
    }
    snap.ref_offsets_ = std::move(model.ref_offsets);
    snap.ref_coords_ = std::move(model.ref_coords);
    if (snap.ref_coords_.size() !=
        snap.ref_offsets_.back() * snap.meta_.dim) {
      return Status::InvalidArgument(
          "captured model border-reference arrays disagree");
    }
  } else {
    snap.ref_offsets_.assign(num_cells + 1, 0);
  }
  snap.dict_ =
      std::make_shared<const CellDictionary>(std::move(model.dictionary));
  return snap;
}

std::vector<uint8_t> ClusterModelSnapshot::Serialize() const {
  SectionFileWriter writer(kMagic, kFormatVersion);

  std::vector<uint8_t> meta;
  meta.reserve(kMetaBytes);
  StoreU32(&meta, static_cast<uint32_t>(meta_.dim));
  uint32_t flags = meta_.has_border_refs ? kFlagBorderRefs : 0;
  if (has_epoch_) flags |= kFlagEpoch;
  if (!hierarchy_.empty()) flags |= kFlagHierarchy;
  StoreU32(&meta, flags);
  StoreF64(&meta, meta_.eps);
  StoreF64(&meta, meta_.rho);
  StoreU64(&meta, meta_.min_pts);
  StoreU64(&meta, meta_.num_points);
  StoreU64(&meta, meta_.num_cells);
  StoreU64(&meta, meta_.num_subcells);
  StoreU64(&meta, meta_.num_clusters);
  StoreF64(&meta, meta_.query_eps);
  writer.AddSection(kSectionMeta, std::move(meta));

  writer.AddSection(kSectionDictionary, dict_->Serialize());

  // Engine metadata: the *observed* state of the rebuilt query structures
  // (index capacity is a pure function of the cell count, stencil size a
  // pure function of the dimensionality) — cross-checked on load and by
  // the snapshot auditor as corruption tripwires — plus the rebuild knobs
  // the snapshot was created with.
  std::vector<uint8_t> engine;
  engine.reserve(kEngineBytes);
  StoreU64(&engine, dict_->cell_index().capacity());
  StoreU32(&engine, dict_->has_stencil() ? 1 : 0);
  StoreU32(&engine, 0);
  StoreU64(&engine,
           dict_->has_stencil() ? dict_->stencil().num_offsets() : 0);
  StoreU64(&engine, dict_opts_.max_stencil_offsets);
  StoreU64(&engine, dict_opts_.max_cells_per_subdict);
  StoreU32(&engine, dict_opts_.defragment ? 1 : 0);
  StoreU32(&engine, dict_opts_.enable_skipping ? 1 : 0);
  writer.AddSection(kSectionEngine, std::move(engine));

  std::vector<uint8_t> labels;
  labels.reserve(cell_cluster_.size() * 4);
  for (const uint32_t c : cell_cluster_) StoreU32(&labels, c);
  writer.AddSection(kSectionLabels, std::move(labels));

  std::vector<uint8_t> preds;
  preds.reserve(pred_offsets_.size() * 8 + preds_.size() * 4);
  for (const uint64_t o : pred_offsets_) StoreU64(&preds, o);
  for (const uint32_t p : preds_) StoreU32(&preds, p);
  writer.AddSection(kSectionPredecessors, std::move(preds));

  if (meta_.has_border_refs) {
    std::vector<uint8_t> refs;
    refs.reserve(ref_offsets_.size() * 8 + ref_coords_.size() * 4);
    for (const uint64_t o : ref_offsets_) StoreU64(&refs, o);
    for (const float c : ref_coords_) StoreF32(&refs, c);
    writer.AddSection(kSectionBorderRefs, std::move(refs));
  }

  if (has_epoch_) {
    std::vector<uint8_t> epoch;
    epoch.reserve(kEpochBytes);
    StoreU64(&epoch, epoch_.sequence);
    StoreU64(&epoch, epoch_.parent_sequence);
    StoreU64(&epoch, epoch_.points_ingested);
    StoreU64(&epoch, epoch_.batches_ingested);
    writer.AddSection(kSectionEpoch, std::move(epoch));
  }

  if (!hierarchy_.empty()) {
    // Multi-level ladder lineage: a level-count header, then per rung its
    // parameters, the num_cells cluster table and the per-cluster parent
    // array (docs/WIRE_FORMATS.md §6).
    std::vector<uint8_t> hier;
    StoreU32(&hier, static_cast<uint32_t>(hierarchy_.size()));
    StoreU32(&hier, 0);  // reserved
    for (const HierarchyLevelInfo& level : hierarchy_) {
      StoreF64(&hier, level.eps);
      StoreU64(&hier, level.min_pts);
      StoreU64(&hier, level.parent.size());
      for (const uint32_t c : level.cell_cluster) StoreU32(&hier, c);
      for (const uint32_t p : level.parent) StoreU32(&hier, p);
    }
    writer.AddSection(kSectionHierarchy, std::move(hier));
  }
  return writer.Finish();
}

StatusOr<ClusterModelSnapshot> ClusterModelSnapshot::Deserialize(
    const std::vector<uint8_t>& bytes, const SnapshotOptions& opts,
    ThreadPool* pool) {
  auto reader_or = SectionFileReader::Parse(bytes.data(), bytes.size(),
                                            kMagic, kFormatVersion,
                                            "snapshot");
  if (!reader_or.ok()) return reader_or.status();
  const SectionFileReader& reader = *reader_or;

  // --- meta ---
  auto meta_or = reader.Section(kSectionMeta, "meta");
  if (!meta_or.ok()) return meta_or.status();
  if (meta_or->size != kMetaBytes && meta_or->size != kMetaBytesV1) {
    return SectionError("meta", "unexpected size " +
                                    std::to_string(meta_or->size));
  }
  ClusterModelSnapshot snap;
  const uint8_t* m = meta_or->data;
  snap.meta_.dim = LoadU32(m);
  const uint32_t flags = LoadU32(m + 4);
  snap.meta_.eps = LoadF64(m + 8);
  snap.meta_.rho = LoadF64(m + 16);
  snap.meta_.min_pts = LoadU64(m + 24);
  snap.meta_.num_points = LoadU64(m + 32);
  snap.meta_.num_cells = LoadU64(m + 40);
  snap.meta_.num_subcells = LoadU64(m + 48);
  snap.meta_.num_clusters = LoadU64(m + 56);
  // Pre-growth files stop at 64 bytes: their runs were always coupled.
  snap.meta_.query_eps =
      meta_or->size >= kMetaBytes ? LoadF64(m + 64) : snap.meta_.eps;
  snap.meta_.has_border_refs = (flags & kFlagBorderRefs) != 0;
  if (snap.meta_.query_eps < snap.meta_.eps) {
    return SectionError("meta", "query_eps below the cell-diagonal eps");
  }
  snap.dict_opts_ = opts.dict_opts;
  const size_t dim = snap.meta_.dim;
  const size_t num_cells = snap.meta_.num_cells;
  if (dim == 0 || dim > CellCoord::kMaxDim) {
    return SectionError("meta", "dimension " + std::to_string(dim) +
                                    " out of range");
  }
  if (num_cells == 0 || snap.meta_.min_pts == 0) {
    return SectionError("meta", "zero cell count or min_pts");
  }
  // Overflow guard for every size computation below.
  if (num_cells > (std::numeric_limits<size_t>::max() / 8) - 1) {
    return SectionError("meta", "implausible cell count");
  }

  // --- dictionary (rebuilds sub-dictionaries, index and stencil) ---
  auto dict_bytes_or = reader.Section(kSectionDictionary, "dictionary");
  if (!dict_bytes_or.ok()) return dict_bytes_or.status();
  std::vector<uint8_t> dict_bytes(dict_bytes_or->data,
                                  dict_bytes_or->data + dict_bytes_or->size);
  // A decoupled run's stencil must reach its query radius, whatever scale
  // the caller's rebuild options carry — serving enumerates candidates
  // through it.
  if (snap.meta_.query_eps > snap.meta_.eps) {
    snap.dict_opts_.stencil_eps_scale =
        std::max(snap.dict_opts_.stencil_eps_scale,
                 snap.meta_.query_eps / snap.meta_.eps);
  }
  auto dict_or =
      CellDictionary::Deserialize(dict_bytes, snap.dict_opts_, pool);
  if (!dict_or.ok()) {
    return SectionError("dictionary", dict_or.status().message());
  }
  snap.dict_ = std::make_shared<const CellDictionary>(std::move(*dict_or));
  const CellDictionary& dict = *snap.dict_;
  if (dict.num_cells() != num_cells ||
      dict.num_subcells() != snap.meta_.num_subcells) {
    return SectionError("dictionary",
                        "cell/sub-cell counts disagree with meta");
  }
  if (dict.geom().dim() != dim ||
      dict.geom().eps() != snap.meta_.eps ||
      dict.geom().rho() != snap.meta_.rho) {
    return SectionError("dictionary", "geometry disagrees with meta");
  }

  // --- engine metadata cross-checks ---
  auto engine_or = reader.Section(kSectionEngine, "engine");
  if (!engine_or.ok()) return engine_or.status();
  if (engine_or->size != kEngineBytes) {
    return SectionError("engine", "unexpected size " +
                                      std::to_string(engine_or->size));
  }
  const uint8_t* e = engine_or->data;
  const uint64_t stored_capacity = LoadU64(e);
  const bool stored_stencil = LoadU32(e + 8) != 0;
  const uint64_t stored_offsets = LoadU64(e + 16);
  // The rebuilt index capacity is a pure function of the cell count, so a
  // mismatch means the cell count and the dictionary payload disagree.
  if (stored_capacity != dict.cell_index().capacity()) {
    return SectionError(
        "engine", "cell-index capacity mismatch (stored " +
                      std::to_string(stored_capacity) + ", rebuilt " +
                      std::to_string(dict.cell_index().capacity()) +
                      ")");
  }
  // Stencil size is a pure function of the dimensionality; compare only
  // when both the stored run and this load built one.
  if (stored_stencil && dict.has_stencil() &&
      stored_offsets != dict.stencil().num_offsets()) {
    return SectionError("engine",
                        "stencil offset count mismatch (stored " +
                            std::to_string(stored_offsets) + ", rebuilt " +
                            std::to_string(
                                dict.stencil().num_offsets()) +
                            ")");
  }

  // --- per-cell cluster labels ---
  auto labels_or = reader.Section(kSectionLabels, "labels");
  if (!labels_or.ok()) return labels_or.status();
  if (labels_or->size != num_cells * 4) {
    return SectionError("labels", "expected " + std::to_string(num_cells) +
                                      " entries");
  }
  snap.cell_cluster_.resize(num_cells);
  for (size_t i = 0; i < num_cells; ++i) {
    const uint32_t c = LoadU32(labels_or->data + i * 4);
    if (c != kNoCluster && c >= snap.meta_.num_clusters) {
      return SectionError("labels", "cell " + std::to_string(i) +
                                        " has cluster id " +
                                        std::to_string(c) + " >= " +
                                        std::to_string(
                                            snap.meta_.num_clusters));
    }
    snap.cell_cluster_[i] = c;
  }

  // --- predecessor CSR ---
  auto preds_or = reader.Section(kSectionPredecessors, "predecessors");
  if (!preds_or.ok()) return preds_or.status();
  const size_t pred_header = (num_cells + 1) * 8;
  if (preds_or->size < pred_header) {
    return SectionError("predecessors", "truncated offset array");
  }
  snap.pred_offsets_.resize(num_cells + 1);
  for (size_t i = 0; i <= num_cells; ++i) {
    snap.pred_offsets_[i] = LoadU64(preds_or->data + i * 8);
  }
  uint64_t total_preds = 0;
  RPDBSCAN_RETURN_IF_ERROR(
      CheckCsr("predecessors", snap.pred_offsets_, &total_preds));
  if (total_preds != (preds_or->size - pred_header) / 4 ||
      preds_or->size != pred_header + total_preds * 4) {
    return SectionError("predecessors", "payload size disagrees with CSR");
  }
  snap.preds_.resize(total_preds);
  for (size_t i = 0; i < total_preds; ++i) {
    const uint32_t p = LoadU32(preds_or->data + pred_header + i * 4);
    if (p >= num_cells || snap.cell_cluster_[p] == kNoCluster) {
      return SectionError("predecessors",
                          "predecessor " + std::to_string(p) +
                              " is not a core cell");
    }
    snap.preds_[i] = p;
  }
  for (size_t cid = 0; cid < num_cells; ++cid) {
    if (snap.cell_cluster_[cid] != kNoCluster &&
        snap.pred_offsets_[cid + 1] != snap.pred_offsets_[cid]) {
      return SectionError("predecessors", "core cell " +
                                              std::to_string(cid) +
                                              " has predecessors");
    }
  }

  // --- border references (optional) ---
  if (snap.meta_.has_border_refs) {
    auto refs_or = reader.Section(kSectionBorderRefs, "border-refs");
    if (!refs_or.ok()) return refs_or.status();
    const size_t ref_header = (num_cells + 1) * 8;
    if (refs_or->size < ref_header) {
      return SectionError("border-refs", "truncated offset array");
    }
    snap.ref_offsets_.resize(num_cells + 1);
    for (size_t i = 0; i <= num_cells; ++i) {
      snap.ref_offsets_[i] = LoadU64(refs_or->data + i * 8);
    }
    uint64_t total_refs = 0;
    RPDBSCAN_RETURN_IF_ERROR(
        CheckCsr("border-refs", snap.ref_offsets_, &total_refs));
    if (total_refs != (refs_or->size - ref_header) / (dim * 4) ||
        refs_or->size != ref_header + total_refs * dim * 4) {
      return SectionError("border-refs", "payload size disagrees with CSR");
    }
    snap.ref_coords_.resize(total_refs * dim);
    for (size_t i = 0; i < snap.ref_coords_.size(); ++i) {
      snap.ref_coords_[i] = LoadF32(refs_or->data + ref_header + i * 4);
    }
  } else {
    snap.ref_offsets_.assign(num_cells + 1, 0);
  }

  // --- epoch lineage (optional) ---
  if ((flags & kFlagEpoch) != 0) {
    auto epoch_or = reader.Section(kSectionEpoch, "epoch");
    if (!epoch_or.ok()) return epoch_or.status();
    if (epoch_or->size != kEpochBytes) {
      return SectionError("epoch", "unexpected size " +
                                       std::to_string(epoch_or->size));
    }
    const uint8_t* ep = epoch_or->data;
    snap.epoch_.sequence = LoadU64(ep);
    snap.epoch_.parent_sequence = LoadU64(ep + 8);
    snap.epoch_.points_ingested = LoadU64(ep + 16);
    snap.epoch_.batches_ingested = LoadU64(ep + 24);
    snap.has_epoch_ = true;
  }

  // --- eps-ladder lineage (optional) ---
  if ((flags & kFlagHierarchy) != 0) {
    auto hier_or = reader.Section(kSectionHierarchy, "hierarchy");
    if (!hier_or.ok()) return hier_or.status();
    const uint8_t* h = hier_or->data;
    size_t remain = hier_or->size;
    if (remain < 8) return SectionError("hierarchy", "truncated header");
    const uint32_t num_levels = LoadU32(h);
    h += 8;
    remain -= 8;
    if (num_levels == 0 || num_levels > 1024) {
      return SectionError("hierarchy", "implausible level count " +
                                           std::to_string(num_levels));
    }
    snap.hierarchy_.resize(num_levels);
    double prev_eps = 0.0;
    for (uint32_t i = 0; i < num_levels; ++i) {
      HierarchyLevelInfo& level = snap.hierarchy_[i];
      if (remain < 24) {
        return SectionError("hierarchy", "truncated level header at level " +
                                             std::to_string(i));
      }
      level.eps = LoadF64(h);
      level.min_pts = LoadU64(h + 8);
      const uint64_t level_clusters = LoadU64(h + 16);
      h += 24;
      remain -= 24;
      if (!(level.eps > prev_eps) || level.min_pts == 0) {
        return SectionError("hierarchy",
                            "levels must have ascending eps and min_pts "
                            ">= 1 (level " +
                                std::to_string(i) + ")");
      }
      prev_eps = level.eps;
      const size_t need = num_cells * 4 + level_clusters * 4;
      if (remain < need) {
        return SectionError("hierarchy", "truncated tables at level " +
                                             std::to_string(i));
      }
      level.cell_cluster.resize(num_cells);
      for (size_t c = 0; c < num_cells; ++c) {
        const uint32_t v = LoadU32(h + c * 4);
        if (v != kNoCluster && v >= level_clusters) {
          return SectionError("hierarchy",
                              "level " + std::to_string(i) + " cell " +
                                  std::to_string(c) +
                                  " has out-of-range cluster id");
        }
        level.cell_cluster[c] = v;
      }
      h += num_cells * 4;
      level.parent.resize(level_clusters);
      for (size_t c = 0; c < level_clusters; ++c) {
        level.parent[c] = LoadU32(h + c * 4);
      }
      h += level_clusters * 4;
      remain -= need;
    }
    if (remain != 0) {
      return SectionError("hierarchy", "trailing bytes after last level");
    }
    // Forest check across the parsed rungs: parents point one rung up,
    // the top rung has none (same invariant
    // ClusterHierarchy::ValidateForest enforces on the in-memory side).
    constexpr uint32_t kNoParentWire =
        std::numeric_limits<uint32_t>::max();
    for (uint32_t i = 0; i < num_levels; ++i) {
      const bool top = i + 1 == num_levels;
      const size_t next_clusters =
          top ? 0 : snap.hierarchy_[i + 1].parent.size();
      for (size_t c = 0; c < snap.hierarchy_[i].parent.size(); ++c) {
        const uint32_t parent = snap.hierarchy_[i].parent[c];
        if (parent == kNoParentWire) continue;
        if (top || parent >= next_clusters) {
          return SectionError("hierarchy",
                              "level " + std::to_string(i) + " cluster " +
                                  std::to_string(c) +
                                  " has an invalid parent");
        }
      }
    }
  }
  return snap;
}

Status ClusterModelSnapshot::WriteFile(const std::string& path) const {
  return WriteFileBytes(path, Serialize());
}

StatusOr<ClusterModelSnapshot> ClusterModelSnapshot::ReadFile(
    const std::string& path, const SnapshotOptions& opts, ThreadPool* pool) {
  auto bytes_or = ReadFileBytes(path);
  if (!bytes_or.ok()) return bytes_or.status();
  return Deserialize(*bytes_or, opts, pool);
}

}  // namespace rpdbscan
