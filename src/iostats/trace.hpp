#pragma once
/// \file trace.hpp
/// I/O event trace — the role Darshan/the authors' postprocessing notebooks
/// play in the paper: every create/write/close performed by the plotfile
/// writer or the MACSio proxy is recorded with its (step, level, rank)
/// context so the characterization layer can aggregate output production at
/// the paper's granularity (Fig. 2's hierarchy: per-step, per-level, per-task).
///
/// Events land in one append log and are ordered into one deterministic
/// stream on snapshot. The order is a stable sort on (step, rank), which
/// preserves each rank's program order — so serial and event-engine
/// executions of the same workload yield identical `events()` streams.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace amrio::iostats {

/// Context levels that do not apply use -1 (e.g. the top-level `Header`
/// metadata file has level = -1, rank = -1).
struct IoEvent {
  /// kRead/kPrefetch are the restart read path: a kRead fetches a dump's
  /// bytes back (off the PFS or a prefetched BB extent), a kPrefetch is the
  /// OST→node staging transfer that precedes BB-tier reads.
  enum class Op { kCreate, kWrite, kClose, kRead, kPrefetch };
  Op op = Op::kWrite;
  std::int64_t step = -1;
  int level = -1;
  int rank = -1;
  /// Storage tier the write targeted (pfs::kTierPfs / kTierBurstBuffer).
  int tier = 0;
  /// Aggregation group that produced the write, -1 when unaggregated — lets
  /// the characterization layer slice output by subfile the way it slices by
  /// (step, level, task).
  int aggregator = -1;
  std::string path;
  std::uint64_t bytes = 0;
  /// Codec dimensions: modeled post-codec size of this event's bytes (0 = no
  /// codec stage — `bytes` stays the raw production count either way, so
  /// Eq. 1/2 aggregation is codec-agnostic) and the modeled codec cpu
  /// seconds spent on the rank's timeline — encode cpu for kWrite events,
  /// decode cpu for kRead events (the cost paid before the solver resumes).
  std::uint64_t encoded_bytes = 0;
  double codec_seconds = 0.0;
};

/// Thread-safe append-only event log (one mutex — campaign cells record
/// from worker threads).
class TraceRecorder {
 public:
  void record(IoEvent event);
  void record_write(std::int64_t step, int level, int rank,
                    const std::string& path, std::uint64_t bytes);
  /// Staged variant: also records the target tier and aggregation group.
  void record_staged_write(std::int64_t step, int level, int rank,
                           const std::string& path, std::uint64_t bytes,
                           int tier, int aggregator);
  /// Codec variant: a write that passed through a codec stage — `bytes` is
  /// the raw production count, `encoded_bytes` the modeled post-codec size,
  /// `codec_seconds` the modeled encode cpu.
  void record_encoded_write(std::int64_t step, int level, int rank,
                            const std::string& path, std::uint64_t bytes,
                            std::uint64_t encoded_bytes, double codec_seconds,
                            int tier, int aggregator);
  /// Restart read: `bytes` is the decoded (raw) image size restored to the
  /// rank, `encoded_bytes` what was actually fetched off the PFS/tier (0 =
  /// no codec stage), `decode_seconds` the modeled decode cpu.
  void record_read(std::int64_t step, int level, int rank,
                   const std::string& path, std::uint64_t bytes,
                   std::uint64_t encoded_bytes, double decode_seconds,
                   int tier, int aggregator);
  /// OST→node prefetch of `bytes` (encoded sizes under a codec stage) ahead
  /// of BB-tier restart reads; `tier` is the staging tier the extent lands
  /// on (pfs::kTierBurstBuffer for every current caller).
  void record_prefetch(std::int64_t step, int level, int rank,
                       const std::string& path, std::uint64_t bytes, int tier,
                       int aggregator);

  /// Merged snapshot of all events in stable (step, rank) order; events of
  /// one rank keep their recording order. Deterministic across engines.
  std::vector<IoEvent> events() const;
  std::size_t size() const;
  void clear();

  /// Sum of bytes over all write events (a running counter, no event walk).
  std::uint64_t total_bytes() const;
  /// Sum of bytes over all read events — kept on its own counter so the
  /// write-side production totals stay unpolluted by restart read-back.
  std::uint64_t total_read_bytes() const;

 private:
  mutable std::mutex mu_;
  std::vector<IoEvent> events_;
  std::uint64_t write_bytes_ = 0;
  std::uint64_t read_bytes_ = 0;
};

}  // namespace amrio::iostats
