#include "trace.hpp"

#include <fstream>
#include <stdexcept>

#include "util/json.hpp"

namespace perfbench {

std::size_t HostTrace::open(const char* name) {
  Rec r;
  r.name = name;
  r.start = now();
  r.parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
  recs_.push_back(std::move(r));
  stack_.push_back(recs_.size() - 1);
  return recs_.size() - 1;
}

void HostTrace::close(std::size_t index) {
  Rec& r = recs_[index];
  r.end = now();
  stack_.pop_back();
  if (r.parent >= 0)
    recs_[static_cast<std::size_t>(r.parent)].child += r.end - r.start;
}

std::map<std::string, double> HostTrace::self_seconds() const {
  std::map<std::string, double> out;
  for (const Rec& r : recs_) out[r.name] += (r.end - r.start) - r.child;
  return out;
}

void HostTrace::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("perfbench: cannot write " + path);
  amrio::util::JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    w.begin_object();
    w.key("name").value(r.name);
    w.key("ph").value("X");
    w.key("pid").value(static_cast<std::int64_t>(0));
    w.key("tid").value(static_cast<std::int64_t>(0));
    w.key("ts").value(r.start * 1e6);
    w.key("dur").value((r.end - r.start) * 1e6);
    w.key("args").begin_object();
    w.key("id").value(static_cast<std::int64_t>(i));
    w.key("parent").value(static_cast<std::int64_t>(r.parent));
    w.key("self_s").value((r.end - r.start) - r.child);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("perfbench_self_s").begin_object();
  for (const auto& [name, secs] : self_seconds()) w.key(name).value(secs);
  w.end_object();
  w.end_object();
  os << '\n';
}

}  // namespace perfbench
