#include "io/csv.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

namespace rpdbscan {
namespace {

bool IsSeparator(char c) {
  return c == ',' || c == ' ' || c == '\t' || c == '\r';
}

// Splits `line` on commas and/or whitespace into float fields. Each field
// must be one finite float that ends at a separator or at the end of the
// line. On failure returns the 1-based number of the offending field and
// sets `*why`; returns 0 on success.
size_t ParseRow(const std::string& line, std::vector<float>* out,
                const char** why) {
  out->clear();
  const char* p = line.c_str();
  const char* end = p + line.size();
  while (p < end) {
    while (p < end && IsSeparator(*p)) ++p;
    if (p >= end) break;
    const size_t field = out->size() + 1;
    char* next = nullptr;
    const float v = std::strtof(p, &next);
    if (next == p) {
      *why = "not a number";
      return field;
    }
    if (next < end && !IsSeparator(*next)) {
      // "1.5.3" or "1-2": strtof stopped inside the token.
      *why = "trailing characters after the number";
      return field;
    }
    if (!std::isfinite(v)) {
      // nan, inf, or a literal beyond the float range such as 1e50.
      *why = "not a finite float";
      return field;
    }
    out->push_back(v);
    p = next;
  }
  return 0;
}

}  // namespace

StatusOr<Dataset> ReadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::string line;
  std::vector<float> row;
  size_t dim = 0;
  std::vector<float> flat;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const char* why = nullptr;
    const size_t bad_field = ParseRow(line, &row, &why);
    if (bad_field != 0) {
      return Status::IOError(path + ":" + std::to_string(line_no) +
                             ": field " + std::to_string(bad_field) + ": " +
                             why);
    }
    if (row.empty()) {
      return Status::IOError(path + ":" + std::to_string(line_no) +
                             ": unparsable row");
    }
    if (dim == 0) {
      dim = row.size();
    } else if (row.size() != dim) {
      return Status::IOError(path + ":" + std::to_string(line_no) +
                             ": arity " + std::to_string(row.size()) +
                             " != " + std::to_string(dim));
    }
    flat.insert(flat.end(), row.begin(), row.end());
  }
  if (dim == 0) return Status::IOError(path + ": no data rows");
  return Dataset::FromFlat(dim, std::move(flat));
}

Status WriteCsv(const std::string& path, const Dataset& ds,
                const Labels* labels) {
  if (labels != nullptr && labels->size() != ds.size()) {
    return Status::InvalidArgument("labels size does not match dataset");
  }
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  // Rows are formatted into one fixed-size buffer that goes to the file
  // in large writes. Each float is written in std::to_chars' shortest
  // round-trip form, so ReadCsv gets every coordinate back bit for bit.
  constexpr size_t kFieldBytes = 32;  // ',' plus a float or an int64
  const size_t row_bytes = (ds.dim() + 1) * kFieldBytes + 1;
  std::vector<char> buf(std::max<size_t>(size_t{1} << 20, row_bytes));
  char* const end = buf.data() + buf.size();
  char* out = buf.data();
  bool written = true;
  auto flush = [&] {
    const size_t used = static_cast<size_t>(out - buf.data());
    written = written && std::fwrite(buf.data(), 1, used, file) == used;
    out = buf.data();
  };
  for (size_t i = 0; i < ds.size() && written; ++i) {
    if (static_cast<size_t>(end - out) < row_bytes) flush();
    const float* p = ds.point(i);
    for (size_t d = 0; d < ds.dim(); ++d) {
      if (d > 0) *out++ = ',';
      out = std::to_chars(out, end, p[d]).ptr;
    }
    if (labels != nullptr) {
      *out++ = ',';
      out = std::to_chars(out, end, (*labels)[i]).ptr;
    }
    *out++ = '\n';
  }
  flush();
  const bool closed = std::fclose(file) == 0;
  if (!written || !closed) return Status::IOError("write failure on " + path);
  return Status::OK();
}

}  // namespace rpdbscan
