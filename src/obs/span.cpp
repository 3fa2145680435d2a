#include "obs/span.hpp"

#include <algorithm>
#include <cassert>

namespace amrio::obs {

std::uint64_t Tracer::record(Span s) {
  assert(s.end >= s.start);
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint32_t seq = ++next_seq_[s.rank];
  s.id = (static_cast<std::uint64_t>(static_cast<std::int64_t>(s.rank) + 1)
          << 32) |
         seq;
  const std::uint64_t id = s.id;
  spans_.push_back(std::move(s));
  return id;
}

void Tracer::edge(std::uint64_t from, std::uint64_t to) {
  std::lock_guard<std::mutex> lock(mu_);
  edges_.push_back(SpanEdge{from, to});
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    if (a.start != b.start) return a.start < b.start;
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.id < b.id;
  });
  return out;
}

std::vector<SpanEdge> Tracer::edges() const {
  std::vector<SpanEdge> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = edges_;
  }
  std::sort(out.begin(), out.end(), [](const SpanEdge& a, const SpanEdge& b) {
    if (a.from != b.from) return a.from < b.from;
    return a.to < b.to;
  });
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  edges_.clear();
  next_seq_.clear();
}

}  // namespace amrio::obs
