// Minimal dense float tensor for the CPU training substrate.
//
// This library exists so the reproduction can *train a real model through
// the trimmable-gradient pipeline* without PyTorch/CUDA (see DESIGN.md
// substitutions). It is deliberately simple: row-major float storage,
// explicit shapes, no autograd graph — layers implement their own backward.
#pragma once

#include <cassert>
#include <cstddef>
#include <numeric>
#include <vector>

namespace trimgrad::ml {

struct Tensor {
  std::vector<std::size_t> shape;
  std::vector<float> data;

  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> s) : shape(std::move(s)) {
    data.assign(count(shape), 0.0f);
  }
  Tensor(std::vector<std::size_t> s, std::vector<float> d)
      : shape(std::move(s)), data(std::move(d)) {
    assert(data.size() == count(shape));
  }

  static std::size_t count(const std::vector<std::size_t>& s) noexcept {
    std::size_t n = 1;
    for (std::size_t d : s) n *= d;
    return n;
  }

  std::size_t size() const noexcept { return data.size(); }
  std::size_t dim(std::size_t i) const { return shape.at(i); }

  /// Reinterpret as a new shape with the same element count.
  Tensor reshaped(std::vector<std::size_t> s) const {
    assert(count(s) == size());
    return Tensor{std::move(s), data};
  }

  float* ptr() noexcept { return data.data(); }
  const float* ptr() const noexcept { return data.data(); }
};

// GEMMs. Every matrix is row-major float. Each entry point is a thin
// row-parallel wrapper over core::simd::gemm_rows, and each guarantees one
// exact per-element accumulation order — that order is the bit-exactness
// contract (every product is rounded before it is added; no FMA), so the
// results are identical for every thread count and every SIMD ISA.
// tests/ml/gemm_test.cpp checks each entry point byte for byte against the
// plain loop nests.

/// C(m×n) += A(m×k) · B(k×n), straight into C: for kk = 0 … k−1 in turn,
/// C(i,j) += A(i,kk) * B(kk,j), skipping every kk with A(i,kk) == 0.
void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) noexcept;

/// C(m×n) += Aᵀ · B(k×n) with A stored k×m (so Aᵀ(i,kk) = a[kk·m + i]).
/// Same order as gemm_accumulate: C(i,j) += A(kk,i) * B(kk,j) for
/// kk = 0 … k−1, skipping every kk with A(kk,i) == 0.
void gemm_at_b(const float* a, const float* b, float* c, std::size_t k,
               std::size_t m, std::size_t n) noexcept;

/// C(m×n) += A(m×k) · B(k×n) as dot products: s = +0, then
/// s += A(i,kk) * B(kk,j) for every kk = 0 … k−1 (no zero skip), then
/// C(i,j) += s.
void gemm_dot(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n) noexcept;

/// C(m×n) += A(m×k) · Bᵀ with B stored n×k: gemm_dot over B packed to k×n
/// (32 columns at a time, into a per-thread buffer), so
/// C(i,j) += (+0 + A(i,0)·B(j,0) + … + A(i,k−1)·B(j,k−1)), summed left to
/// right.
void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) noexcept;

}  // namespace trimgrad::ml
