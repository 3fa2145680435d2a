#pragma once
/// \file cli.hpp
/// Command-line parser for the example/bench executables and the MACSio-style
/// proxy CLI. Supports `--key value`, `--key=value`, `--flag`, and MACSio's
/// two-operand form `--parallel_file_mode MIF 8` via multi-value options.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace amrio::util {

/// Strict numeric parse of the value of option `--name`: the whole of `text`
/// must be one number ("2x", "" and "foo" are rejected). Throws
/// std::invalid_argument naming the option.
std::int64_t parse_int(const std::string& text, const std::string& name);
double parse_double(const std::string& text, const std::string& name);

class ArgParser {
 public:
  ArgParser(std::string program, std::string description)
      : program_(std::move(program)), description_(std::move(description)) {}

  /// Declare an option taking `nvalues` values (default 1). `help` is shown by
  /// usage(). Options may be given defaults; flags take 0 values.
  void add_option(const std::string& name, const std::string& help,
                  int nvalues = 1, std::optional<std::string> default_value = {});
  void add_flag(const std::string& name, const std::string& help);

  /// Parse argv. Throws std::invalid_argument on unknown options or missing
  /// values. Positional arguments are collected in positional().
  void parse(int argc, const char* const* argv);
  void parse(const std::vector<std::string>& args);

  bool has(const std::string& name) const;
  /// First value of the option (or its default). Throws if absent.
  std::string get(const std::string& name) const;
  std::string get_or(const std::string& name, const std::string& fallback) const;
  std::vector<std::string> get_all(const std::string& name) const;

  /// Numeric getters parse strictly (see parse_int / parse_double).
  std::int64_t get_int(const std::string& name) const;
  std::int64_t get_int_or(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name) const;
  double get_double_or(const std::string& name, double fallback) const;
  bool flag(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  std::string usage() const;

 private:
  struct Option {
    std::string help;
    int nvalues = 1;
    std::optional<std::string> default_value;
    bool is_flag = false;
    bool seen = false;
    std::vector<std::string> values;
  };

  const Option& find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
};

}  // namespace amrio::util
