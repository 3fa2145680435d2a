#pragma once
/// \file trace.hpp
/// Host-side spans the benchmark records around each call into an amrio
/// layer. A span's name is the per-layer metric it feeds ("macsio.dump_s",
/// "obs.critical_path_s.mif", ...), and the metric's value is the summed
/// *self* time of the spans with that name: duration minus the part of the
/// interval its child spans cover (amr.run_s minus the plot hook is the one
/// layer span with children today).
///
/// Off (the timed pass) a scope reads no clock and records nothing, so the
/// timed and traced passes run the same body and their wall-time difference
/// is the tracing overhead.

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class HostTrace {
 public:
  explicit HostTrace(bool on) : on_(on), t0_(Clock::now()) {}
  HostTrace(const HostTrace&) = delete;
  HostTrace& operator=(const HostTrace&) = delete;

  class Scope {
   public:
    Scope(HostTrace* trace, const char* name) : trace_(trace) {
      if (trace_ != nullptr) index_ = trace_->open(name);
    }
    ~Scope() {
      if (trace_ != nullptr) trace_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostTrace* trace_;
    std::size_t index_ = 0;
  };

  /// Record a span over the lifetime of the returned scope.
  Scope span(const char* name) { return Scope(on_ ? this : nullptr, name); }

  /// Summed self seconds per span name.
  std::map<std::string, double> self_seconds() const;

  /// Chrome-trace JSON ("X" events on one track, ids and parents in args)
  /// plus the per-name self-time table under "perfbench_self_s".
  void write_chrome_trace(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Rec {
    std::string name;
    double start = 0.0;  ///< seconds since the trace was created
    double end = 0.0;
    long parent = -1;    ///< index into recs_, -1 = top level
    double child = 0.0;  ///< seconds covered by direct children
  };

  std::size_t open(const char* name);
  void close(std::size_t index);
  double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  bool on_;
  Clock::time_point t0_;
  std::vector<Rec> recs_;
  std::vector<std::size_t> stack_;
};

}  // namespace perfbench
