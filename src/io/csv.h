#ifndef RPDBSCAN_IO_CSV_H_
#define RPDBSCAN_IO_CSV_H_

#include <string>

#include "io/dataset.h"
#include "util/status.h"

namespace rpdbscan {

/// Reads a headerless CSV of floats (one point per line, comma- or
/// whitespace-separated). All rows must have the same arity, which becomes
/// the data set dimension. Empty lines and lines starting with '#' are
/// skipped. Each field must be a finite float ending at a separator (',',
/// space, tab, '\r') or at the end of the line; anything else ("1.5.3",
/// "1-2", "nan", "inf", "1e50") is an IOError naming the path, the line
/// and the field number.
StatusOr<Dataset> ReadCsv(const std::string& path);

/// Writes `ds` as comma-separated rows. If `labels` is non-null it must
/// have `ds.size()` entries and is appended as a last integer column —
/// the format the plotting examples consume (Fig. 16 reproductions).
Status WriteCsv(const std::string& path, const Dataset& ds,
                const Labels* labels = nullptr);

}  // namespace rpdbscan

#endif  // RPDBSCAN_IO_CSV_H_
