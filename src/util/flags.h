#ifndef RPDBSCAN_UTIL_FLAGS_H_
#define RPDBSCAN_UTIL_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace rpdbscan {

/// Minimal command-line flag parser for the repository's tools: accepts
/// `--key=value`, `--key value` and bare boolean `--key`; everything not
/// starting with `--` is collected as a positional argument.
class FlagSet {
 public:
  /// Parses argv (excluding argv[0]). Fails on malformed input such as a
  /// lone "--".
  static StatusOr<FlagSet> Parse(int argc, const char* const* argv);

  bool Has(const std::string& key) const {
    return values_.count(key) != 0;
  }

  /// String flag; `fallback` when absent.
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;

  /// Integer flag; fails on non-numeric values.
  StatusOr<int64_t> GetInt(const std::string& key, int64_t fallback) const;

  /// Floating-point flag; fails on non-numeric values.
  StatusOr<double> GetDouble(const std::string& key, double fallback) const;

  /// Boolean flag: present without value or with true/1/yes => true.
  bool GetBool(const std::string& key, bool fallback = false) const;

  /// OK when every parsed flag is named in one of the `known` lists;
  /// otherwise InvalidArgument "unknown flag --X" for the first that is
  /// not. Lets a tool refuse a mistyped or retired flag instead of
  /// silently running its defaults.
  Status CheckKnown(
      std::initializer_list<std::vector<std::string>> known) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_UTIL_FLAGS_H_
