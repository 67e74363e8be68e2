// Kernel probes run next to the traced replay: the shard SpMV pair, the
// fused dense kernel TRON streams, and an in-process streaming ceiling.
#pragma once

#include <cstddef>
#include <vector>

#include "data/dataset.hpp"

namespace perfbench {

struct RateProbe {
  double seconds = 0.0;  // median seconds of one probed unit of work
  double bytes = 0.0;    // computed bytes that unit moves
  std::size_t samples = 0;

  double Gbps() const { return bytes / seconds * 1e-9; }
};

/// One Multiply + TransposeMultiplyAdd pair on every shard at `x` (the
/// x-update's two SpMV passes); `seconds` is the median time of a whole
/// pass over all shards, repeated for about `budget_s`. Computed bytes
/// count each stored entry (value + column index) twice, the gathered x
/// and scattered output entries once each, and the row pointers and
/// row-length vectors of both passes.
RateProbe ProbeSpmv(const std::vector<psra::data::Dataset>& shards,
                    const std::vector<double>& x, double budget_s);

/// linalg::AxpyNormSq over vectors of length `dim` (24 bytes per element:
/// read x, read and write y).
RateProbe ProbeDense(std::size_t dim, double budget_s);

/// The same kernel over two arrays of `array_bytes` in total, far larger
/// than the caches: the achievable streaming bandwidth.
RateProbe ProbeStream(std::size_t array_bytes, double budget_s);

}  // namespace perfbench
