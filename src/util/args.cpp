#include "util/args.hpp"

#include <stdexcept>
#include <string>

namespace bcop::util {

Args::Args(int argc, const char* const* argv,
           const std::set<std::string>& flag_names) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0)
      throw std::invalid_argument("Args: expected --option, got '" + a + "'");
    a = a.substr(2);
    const auto eq = a.find('=');
    if (eq != std::string::npos) {
      kv_[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (flag_names.count(a)) {
      flags_.insert(a);
    } else {
      if (i + 1 >= argc)
        throw std::invalid_argument("Args: missing value for --" + a);
      kv_[a] = argv[++i];
    }
  }
}

bool Args::has(const std::string& key) const {
  return kv_.count(key) > 0 || flags_.count(key) > 0;
}

std::string Args::get(const std::string& key, const std::string& def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

int Args::get_int(const std::string& key, int def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : std::stoi(it->second);
}

int Args::get_int_in(const std::string& key, int def, int lo, int hi) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : parse_int_in(key, it->second, lo, hi);
}

double Args::get_double(const std::string& key, double def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : std::stod(it->second);
}

bool Args::get_flag(const std::string& key) const { return flags_.count(key) > 0; }

int parse_int_in(const std::string& key, const std::string& text, int lo,
                 int hi) {
  std::size_t used = 0;
  long long value = lo - 1LL;  // out of range unless the parse succeeds
  try {
    value = std::stoll(text, &used);
  } catch (const std::exception&) {  // not a number, or beyond long long
  }
  if (used != text.size() || value < lo || value > hi)
    throw std::invalid_argument(
        "--" + key + " must be an integer " +
        (hi == std::numeric_limits<int>::max()
             ? ">= " + std::to_string(lo)
             : "in " + std::to_string(lo) + ".." + std::to_string(hi)) +
        ", got '" + text + "'");
  return static_cast<int>(value);
}

}  // namespace bcop::util
