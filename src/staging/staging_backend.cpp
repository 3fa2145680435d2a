#include "staging/staging_backend.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace amrio::staging {

StagingBackend::StagingBackend(pfs::StorageBackend& final_store,
                               bool store_contents, codec::CodecSpec codec)
    : final_(&final_store),
      store_contents_(store_contents),
      codec_(codec::make_codec(codec)),
      stage_(std::make_unique<pfs::MemoryBackend>(store_contents)) {}

pfs::FileHandle StagingBackend::create(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mode_mu_);
    append_continuation_[path] = false;  // truncate: replaces any final copy
  }
  return stage_->create(path);
}

pfs::FileHandle StagingBackend::open_append(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mode_mu_);
    auto [it, inserted] = append_continuation_.try_emplace(path, false);
    if (inserted) {
      // First staged sight of this path: if the final store already holds it,
      // the staged bytes continue that file and must drain as an append.
      it->second = final_->exists(path);
    }
  }
  return stage_->open_append(path);
}

void StagingBackend::write(pfs::FileHandle handle,
                           std::span<const std::byte> data) {
  stage_->write(handle, data);
  // Commutative add only: the snapshot must not depend on rank order.
  if (probe_.metrics)
    probe_.metrics->add("staging.absorb_bytes",
                        static_cast<std::int64_t>(data.size()));
}

void StagingBackend::close(pfs::FileHandle handle) { stage_->close(handle); }

bool StagingBackend::exists(const std::string& path) const {
  return stage_->exists(path) || final_->exists(path);
}

bool StagingBackend::continues_final(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mode_mu_);
  const auto it = append_continuation_.find(path);
  return it != append_continuation_.end() && it->second;
}

std::uint64_t StagingBackend::size(const std::string& path) const {
  if (!stage_->exists(path)) return final_->size(path);
  // An append continuation extends the drained copy: the transparent view is
  // final prefix + staged suffix.
  std::uint64_t total = stage_->size(path);
  if (continues_final(path)) total += final_->size(path);
  return total;
}

std::vector<std::string> StagingBackend::list(const std::string& prefix) const {
  std::vector<std::string> merged = stage_->list(prefix);
  const std::vector<std::string> below = final_->list(prefix);
  merged.insert(merged.end(), below.begin(), below.end());
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

std::vector<std::byte> StagingBackend::read(const std::string& path) const {
  if (!stage_->exists(path)) return final_->read(path);
  if (!continues_final(path)) return stage_->read(path);
  std::vector<std::byte> out = final_->read(path);
  const std::vector<std::byte> suffix = stage_->read(path);
  out.insert(out.end(), suffix.begin(), suffix.end());
  return out;
}

std::uint64_t StagingBackend::pending_bytes() const {
  return stage_->total_bytes();
}

std::uint64_t StagingBackend::pending_files() const {
  return stage_->file_count();
}

std::vector<std::string> StagingBackend::pending() const {
  return stage_->list("");
}

std::uint64_t StagingBackend::pending_encoded_bytes() const {
  std::uint64_t total = 0;
  for (const auto& path : stage_->list(""))
    total += codec_->plan(stage_->size(path)).out_bytes;
  return total;
}

std::uint64_t StagingBackend::encoded_size(const std::string& path) const {
  return codec_->plan(stage_->size(path)).out_bytes;
}

codec::CodecStats StagingBackend::codec_stats() const {
  std::lock_guard<std::mutex> lock(mode_mu_);
  return codec_stats_;
}

std::vector<StagingBackend::DrainRecord> StagingBackend::drain_all() {
  std::vector<DrainRecord> drained;
  const auto paths = stage_->list("");  // sorted: deterministic replay order
  if (probe_.metrics) {
    // Drain entry is a driver-serial point: the staged image is complete, so
    // pending_bytes() here is the true per-drain peak and gauge_max commutes.
    probe_.metrics->gauge_max("staging.peak_pending_bytes",
                              static_cast<double>(pending_bytes()));
  }
  drained.reserve(paths.size());
  for (const auto& path : paths) {
    const std::uint64_t bytes = stage_->size(path);
    bool append = false;
    {
      std::lock_guard<std::mutex> lock(mode_mu_);
      const auto it = append_continuation_.find(path);
      append = it != append_continuation_.end() && it->second;
    }
    pfs::OutFile out(*final_, path,
                     append ? pfs::OpenMode::kAppend : pfs::OpenMode::kTruncate);
    if (store_contents_) {
      out.write(stage_->read(path));
    } else {
      // accounting mode: replay the exact size as zero bytes
      static const std::vector<std::byte> kZeros(1 << 16);
      std::uint64_t remaining = bytes;
      while (remaining > 0) {
        const std::size_t chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining, kZeros.size()));
        out.write(std::span<const std::byte>(kZeros.data(), chunk));
        remaining -= chunk;
      }
    }
    out.close();
    AMRIO_ENSURES(out.bytes_written() == bytes);
    const codec::CompressResult enc = codec_->plan(bytes);
    {
      std::lock_guard<std::mutex> lock(mode_mu_);
      codec_stats_.add(-1, -1, enc);
    }
    if (probe_.metrics) {
      probe_.metrics->add("staging.drain_files", 1);
      probe_.metrics->add("staging.drain_raw_bytes",
                          static_cast<std::int64_t>(bytes));
      probe_.metrics->add("staging.drain_encoded_bytes",
                          static_cast<std::int64_t>(enc.out_bytes));
    }
    drained.push_back(DrainRecord{path, bytes, enc.out_bytes});
  }
  stage_ = std::make_unique<pfs::MemoryBackend>(store_contents_);
  {
    std::lock_guard<std::mutex> lock(mode_mu_);
    append_continuation_.clear();
  }
  return drained;
}

std::vector<pfs::IoRequest> StagingBackend::drain_requests(double clock,
                                                           int client) const {
  std::vector<pfs::IoRequest> reqs;
  for (const auto& path : stage_->list("")) {
    reqs.push_back(pfs::IoRequest{client, clock, path,
                                  codec_->plan(stage_->size(path)).out_bytes,
                                  pfs::kTierBurstBuffer});
  }
  return reqs;
}

}  // namespace amrio::staging
