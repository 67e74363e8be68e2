// Four-lane double vector for the BLAS-1 reductions (DESIGN.md "FP
// determinism").
//
// The reductions in dense_ops.cpp and admm/common.cpp accumulate element i
// into lane i % 4 and fold (l0 + l1) + (l2 + l3) at the end. Written as four
// scalar accumulators, compilers shuffle the lanes apart and add them one by
// one; a GCC/Clang vector type makes each step one packed add instead, with
// the identical per-lane operation sequence, so results do not change by a
// bit. Lowered to two SSE2 halves on hosts without AVX; no ISA dispatch.
//
// The helpers take the vector by reference: passing a 32-byte vector by
// value has an ISA-dependent ABI (GCC's -Wpsabi).
#pragma once

#include <cstring>

namespace psra::linalg {

typedef double Lane4 __attribute__((vector_size(32)));

inline void Load4(Lane4& v, const double* p) { std::memcpy(&v, p, sizeof v); }

inline void Store4(double* p, const Lane4& v) { std::memcpy(p, &v, sizeof v); }

/// Final fold of a four-lane sum whose lane 0 continued through the scalar
/// tail as `lane0`: (lane0 + l1) + (l2 + l3).
inline double Fold4(const Lane4& acc, double lane0) {
  return (lane0 + acc[1]) + (acc[2] + acc[3]);
}

}  // namespace psra::linalg
