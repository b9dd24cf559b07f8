// Minimal command-line argument parser for examples and bench binaries.
//
// Supports `--key value` and `--flag` forms. Unknown arguments throw, so a
// typo in a bench invocation fails loudly instead of silently using defaults.
#pragma once

#include <limits>
#include <map>
#include <set>
#include <string>

namespace bcop::util {

class Args {
 public:
  /// Parse argv. `flag_names` lists boolean options that take no value.
  Args(int argc, const char* const* argv,
       const std::set<std::string>& flag_names = {});

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& def) const;
  int get_int(const std::string& key, int def) const;
  /// get_int for a value that must lie in [lo, hi] (parse_int_in); `def`
  /// is returned unchecked when the flag is absent.
  int get_int_in(const std::string& key, int def, int lo,
                 int hi = std::numeric_limits<int>::max()) const;
  double get_double(const std::string& key, double def) const;
  bool get_flag(const std::string& key) const;

 private:
  std::map<std::string, std::string> kv_;
  std::set<std::string> flags_;
};

/// Parse `text`, the value of flag --`key`, as a whole integer in
/// [lo, hi]. Anything else -- out of range, trailing characters, beyond
/// any integer -- throws std::invalid_argument naming the flag and its
/// range, so a negative count never wraps to a huge unsigned one.
int parse_int_in(const std::string& key, const std::string& text, int lo,
                 int hi = std::numeric_limits<int>::max());

}  // namespace bcop::util
