#include "util/flags.h"

#include <algorithm>
#include <cstdlib>

namespace rpdbscan {

StatusOr<FlagSet> FlagSet::Parse(int argc, const char* const* argv) {
  FlagSet flags;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    if (arg.size() == 2) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      if (eq == 0) {
        return Status::InvalidArgument("flag with empty name: " + arg);
      }
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--key value` when the next token is not itself a flag; otherwise a
    // bare boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[body] = argv[i + 1];
      ++i;
    } else {
      flags.values_[body] = "";
    }
  }
  return flags;
}

std::string FlagSet::GetString(const std::string& key,
                               const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

StatusOr<int64_t> FlagSet::GetInt(const std::string& key,
                                  int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + key + " expects an integer, got '" +
                                   it->second + "'");
  }
  return static_cast<int64_t>(v);
}

StatusOr<double> FlagSet::GetDouble(const std::string& key,
                                    double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + key + " expects a number, got '" +
                                   it->second + "'");
  }
  return v;
}

Status FlagSet::CheckKnown(
    std::initializer_list<std::vector<std::string>> known) const {
  for (const auto& [key, value] : values_) {
    const bool found = std::any_of(
        known.begin(), known.end(), [&key](const std::vector<std::string>& l) {
          return std::find(l.begin(), l.end(), key) != l.end();
        });
    if (!found) return Status::InvalidArgument("unknown flag --" + key);
  }
  return Status::OK();
}

bool FlagSet::GetBool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes") return true;
  return false;
}

}  // namespace rpdbscan
