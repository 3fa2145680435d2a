#pragma once
/// \file calibrate.hpp
/// Single-parameter calibration of MACSio's `dataset_growth` against a
/// measured per-step output series — the paper's §IV-B procedure ("keeping the
/// initial data size fixed would lead to a single parameter optimization
/// problem"). A golden-section search minimizes the RMS relative error; every
/// iterate's proxy series is kept so Fig. 9's convergence curves can be drawn.

#include <span>
#include <vector>

#include "macsio/params.hpp"

namespace amrio::model {

struct CalibrationIterate {
  double growth = 1.0;
  double objective = 0.0;           ///< RMS relative per-step error
  std::vector<double> per_dump;     ///< proxy bytes per dump at this growth
};

struct CalibrationResult {
  double best_growth = 1.0;
  double best_objective = 0.0;
  std::vector<CalibrationIterate> iterates;  ///< in evaluation order
  macsio::Params params;                     ///< base params with best growth
};

/// RMS relative error between a proxy per-dump series and the target.
double series_objective(std::span<const double> proxy,
                        std::span<const double> target);

/// MACSio per-dump bytes of the task documents plus the root metadata for
/// `params`, computed through the serialization-size functions — no I/O
/// performed. Exact for unaggregated dumps. Under `aggregators > 0` the
/// driver also writes a per-dump aggregation index that this does not count:
/// add `macsio::aggregated_index_bytes(params)` (55 + 58·nprocs bytes) per
/// dump for the full aggregated dump size.
std::vector<double> macsio_per_dump_bytes(const macsio::Params& params);

/// Calibrate dataset_growth in [lo, hi] so the proxy's per-dump series tracks
/// `target_per_step` (whose length fixes num_dumps). Requires a positive
/// target series.
CalibrationResult calibrate_growth(macsio::Params base,
                                   std::span<const double> target_per_step,
                                   double lo = 1.0, double hi = 1.05,
                                   int max_iters = 16);

}  // namespace amrio::model
