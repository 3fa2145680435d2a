#include "iostats/trace.hpp"

#include <algorithm>

namespace amrio::iostats {

void TraceRecorder::record(IoEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (event.op == IoEvent::Op::kWrite) write_bytes_ += event.bytes;
  if (event.op == IoEvent::Op::kRead) read_bytes_ += event.bytes;
  events_.push_back(std::move(event));
}

void TraceRecorder::record_write(std::int64_t step, int level, int rank,
                                 const std::string& path, std::uint64_t bytes) {
  record_staged_write(step, level, rank, path, bytes, /*tier=*/0,
                      /*aggregator=*/-1);
}

void TraceRecorder::record_staged_write(std::int64_t step, int level, int rank,
                                        const std::string& path,
                                        std::uint64_t bytes, int tier,
                                        int aggregator) {
  record_encoded_write(step, level, rank, path, bytes, /*encoded_bytes=*/0,
                       /*codec_seconds=*/0.0, tier, aggregator);
}

void TraceRecorder::record_encoded_write(std::int64_t step, int level, int rank,
                                         const std::string& path,
                                         std::uint64_t bytes,
                                         std::uint64_t encoded_bytes,
                                         double codec_seconds, int tier,
                                         int aggregator) {
  IoEvent e;
  e.op = IoEvent::Op::kWrite;
  e.step = step;
  e.level = level;
  e.rank = rank;
  e.tier = tier;
  e.aggregator = aggregator;
  e.path = path;
  e.bytes = bytes;
  e.encoded_bytes = encoded_bytes;
  e.codec_seconds = codec_seconds;
  record(std::move(e));
}

void TraceRecorder::record_read(std::int64_t step, int level, int rank,
                                const std::string& path, std::uint64_t bytes,
                                std::uint64_t encoded_bytes,
                                double decode_seconds, int tier,
                                int aggregator) {
  IoEvent e;
  e.op = IoEvent::Op::kRead;
  e.step = step;
  e.level = level;
  e.rank = rank;
  e.tier = tier;
  e.aggregator = aggregator;
  e.path = path;
  e.bytes = bytes;
  e.encoded_bytes = encoded_bytes;
  e.codec_seconds = decode_seconds;
  record(std::move(e));
}

void TraceRecorder::record_prefetch(std::int64_t step, int level, int rank,
                                    const std::string& path,
                                    std::uint64_t bytes, int tier,
                                    int aggregator) {
  IoEvent e;
  e.op = IoEvent::Op::kPrefetch;
  e.step = step;
  e.level = level;
  e.rank = rank;
  e.tier = tier;
  e.aggregator = aggregator;
  e.path = path;
  e.bytes = bytes;
  record(std::move(e));
}

std::vector<IoEvent> TraceRecorder::events() const {
  std::vector<IoEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = events_;
  }
  // Stable: ties (same step+rank) keep per-rank recording order.
  std::stable_sort(out.begin(), out.end(),
                   [](const IoEvent& a, const IoEvent& b) {
                     if (a.step != b.step) return a.step < b.step;
                     return a.rank < b.rank;
                   });
  return out;
}

std::size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  write_bytes_ = 0;
  read_bytes_ = 0;
}

std::uint64_t TraceRecorder::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_bytes_;
}

std::uint64_t TraceRecorder::total_read_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return read_bytes_;
}

}  // namespace amrio::iostats
