#include "util/cli.hpp"

#include <sstream>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/format.hpp"

namespace amrio::util {

// Leading whitespace is allowed (as the std conversions do); anything left
// unparsed is not.
std::int64_t parse_int(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  try {
    const std::int64_t v = std::stoll(text, &pos);
    if (pos == text.size()) return v;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("--" + name + " expects an integer, got '" +
                              text + "'");
}

double parse_double(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  try {
    const double v = std::stod(text, &pos);
    if (pos == text.size()) return v;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("--" + name + " expects a number, got '" + text +
                              "'");
}

void ArgParser::add_option(const std::string& name, const std::string& help,
                           int nvalues, std::optional<std::string> default_value) {
  AMRIO_EXPECTS(nvalues >= 1);
  AMRIO_EXPECTS_MSG(options_.find(name) == options_.end(),
                    "duplicate option --" << name);
  Option opt;
  opt.help = help;
  opt.nvalues = nvalues;
  opt.default_value = std::move(default_value);
  options_[name] = std::move(opt);
  order_.push_back(name);
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  AMRIO_EXPECTS_MSG(options_.find(name) == options_.end(),
                    "duplicate flag --" << name);
  Option opt;
  opt.help = help;
  opt.nvalues = 0;
  opt.is_flag = true;
  options_[name] = std::move(opt);
  order_.push_back(name);
}

void ArgParser::parse(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  parse(args);
}

void ArgParser::parse(const std::vector<std::string>& args) {
  std::size_t i = 0;
  while (i < args.size()) {
    const std::string& arg = args[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(arg);
      ++i;
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    auto it = options_.find(name);
    if (it == options_.end())
      throw std::invalid_argument("unknown option --" + name + "\n" + usage());
    Option& opt = it->second;
    opt.seen = true;
    opt.values.clear();
    if (opt.is_flag) {
      if (inline_value)
        throw std::invalid_argument("flag --" + name + " takes no value");
      ++i;
      continue;
    }
    if (inline_value) {
      if (opt.nvalues != 1)
        throw std::invalid_argument("--" + name + " needs " +
                                    std::to_string(opt.nvalues) + " values");
      opt.values.push_back(*inline_value);
      ++i;
      continue;
    }
    ++i;
    for (int k = 0; k < opt.nvalues; ++k) {
      if (i >= args.size())
        throw std::invalid_argument("missing value for --" + name);
      opt.values.push_back(args[i]);
      ++i;
    }
  }
}

const ArgParser::Option& ArgParser::find(const std::string& name) const {
  auto it = options_.find(name);
  if (it == options_.end())
    throw std::invalid_argument("option --" + name + " was never declared");
  return it->second;
}

bool ArgParser::has(const std::string& name) const {
  const Option& opt = find(name);
  return opt.seen || opt.default_value.has_value();
}

std::string ArgParser::get(const std::string& name) const {
  const Option& opt = find(name);
  if (opt.seen) return opt.values.at(0);
  if (opt.default_value) return *opt.default_value;
  throw std::invalid_argument("required option --" + name + " not given");
}

std::string ArgParser::get_or(const std::string& name,
                              const std::string& fallback) const {
  const Option& opt = find(name);
  if (opt.seen) return opt.values.at(0);
  if (opt.default_value) return *opt.default_value;
  return fallback;
}

std::vector<std::string> ArgParser::get_all(const std::string& name) const {
  const Option& opt = find(name);
  if (opt.seen) return opt.values;
  if (opt.default_value) return {*opt.default_value};
  return {};
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  return parse_int(get(name), name);
}

std::int64_t ArgParser::get_int_or(const std::string& name,
                                   std::int64_t fallback) const {
  const Option& opt = find(name);
  if (!opt.seen && !opt.default_value) return fallback;
  return parse_int(get(name), name);
}

double ArgParser::get_double(const std::string& name) const {
  return parse_double(get(name), name);
}

double ArgParser::get_double_or(const std::string& name, double fallback) const {
  const Option& opt = find(name);
  if (!opt.seen && !opt.default_value) return fallback;
  return parse_double(get(name), name);
}

bool ArgParser::flag(const std::string& name) const { return find(name).seen; }

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << "usage: " << program_ << " [options]\n" << description_ << "\noptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    os << "  --" << name;
    if (!opt.is_flag) {
      for (int k = 0; k < opt.nvalues; ++k) os << " <v" << (k + 1) << ">";
    }
    os << "  " << opt.help;
    if (opt.default_value) os << " (default: " << *opt.default_value << ")";
    os << '\n';
  }
  return os.str();
}

}  // namespace amrio::util
