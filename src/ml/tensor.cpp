#include "ml/tensor.h"

#include <algorithm>
#include <vector>

#include "core/simd.h"
#include "core/threadpool.h"

namespace trimgrad::ml {

namespace {

using core::simd::GemmForm;

/// Minimum multiply-adds per parallel chunk; below this the dispatch
/// overhead dominates and parallel_for degrades to an inline call. Retuned
/// upward after the FunctionRef/latch pool rework: dispatch itself got
/// cheaper, but splitting a sub-128k-flop GEMM still loses more to cold B
/// slabs per chunk than it gains in parallelism.
constexpr std::size_t kGrainFlops = std::size_t{1} << 17;

std::size_t row_grain(std::size_t flops_per_row) noexcept {
  return std::max<std::size_t>(1, kGrainFlops / std::max<std::size_t>(1, flops_per_row));
}

/// Row-parallel driver: each chunk owns a contiguous block of C rows and
/// runs the core/simd row kernel on it, so no two chunks touch the same
/// output and the result is the same for every thread count.
void gemm_rows_parallel(GemmForm form, const float* a, std::size_t a_rs,
                        std::size_t a_ks, const float* b, float* c,
                        std::size_t m, std::size_t k, std::size_t n) noexcept {
  core::ThreadPool::global().parallel_for(
      m, row_grain(k * n), [&](std::size_t i0, std::size_t i1) {
        core::simd::gemm_rows(form, a + i0 * a_rs, a_rs, a_ks, b, c + i0 * n,
                              n, i1 - i0, k, n);
      });
}

/// Columns of B packed per panel in gemm_a_bt: one 32-wide AVX2 block.
constexpr std::size_t kPanel = 32;

}  // namespace

void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) noexcept {
  gemm_rows_parallel(GemmForm::kAccumulate, a, k, 1, b, c, m, k, n);
}

void gemm_at_b(const float* a, const float* b, float* c, std::size_t k,
               std::size_t m, std::size_t n) noexcept {
  gemm_rows_parallel(GemmForm::kAccumulate, a, 1, m, b, c, m, k, n);
}

void gemm_dot(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n) noexcept {
  gemm_rows_parallel(GemmForm::kDot, a, k, 1, b, c, m, k, n);
}

void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) noexcept {
  // Each chunk packs B(n×k) one k×kPanel panel at a time into a per-thread
  // buffer (the pool never hands a waiting caller another job, so the
  // buffer is not shared) and runs the dot kernel on that panel.
  core::ThreadPool::global().parallel_for(
      m, row_grain(k * n), [&](std::size_t i0, std::size_t i1) {
        thread_local std::vector<float> panel;
        panel.resize(k * kPanel);
        for (std::size_t j0 = 0; j0 < n; j0 += kPanel) {
          const std::size_t w = std::min(kPanel, n - j0);
          for (std::size_t j = 0; j < w; ++j) {
            const float* brow = b + (j0 + j) * k;
            for (std::size_t kk = 0; kk < k; ++kk) panel[kk * w + j] = brow[kk];
          }
          core::simd::gemm_rows(GemmForm::kDot, a + i0 * k, k, 1, panel.data(),
                                c + i0 * n + j0, n, i1 - i0, k, w);
        }
      });
}

}  // namespace trimgrad::ml
