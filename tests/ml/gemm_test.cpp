// Byte-for-byte property test of the ML layer's GEMM entry points.
//
// Each ml:: entry point is compared with memcmp against the plain loop
// nests it replaced, copied verbatim below, over every call-site shape of
// the perfbench workloads, a grid of ragged shapes, and inputs holding ±0,
// −0 in C and inf/NaN in B rows that only ever meet a zero A entry (which
// pins gemm_accumulate/gemm_at_b's zero skip). Every comparison runs on each
// ISA the binary and CPU can execute and at pool sizes 1, 2 and 8.
#include "ml/tensor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/prng.h"
#include "core/simd.h"
#include "core/threadpool.h"

namespace trimgrad::ml {
namespace {

// ---- reference: the loop nests the core/simd kernel replaced -------------

namespace ref {

constexpr std::size_t kKc = 128;
constexpr std::size_t kGrainFlops = std::size_t{1} << 17;

std::size_t row_grain(std::size_t flops_per_row) noexcept {
  return std::max<std::size_t>(1, kGrainFlops / std::max<std::size_t>(1, flops_per_row));
}

void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) noexcept {
  // Row-parallel: each chunk owns a contiguous block of C rows. Within a
  // chunk, i-k-j order with k blocking: unit-stride inner loop over both B
  // and C, B slab reused across the chunk's rows.
  core::ThreadPool::global().parallel_for(
      m, row_grain(k * n), [&](std::size_t i0, std::size_t i1) {
        for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
          const std::size_t k1 = std::min(k, k0 + kKc);
          for (std::size_t i = i0; i < i1; ++i) {
            float* crow = c + i * n;
            for (std::size_t kk = k0; kk < k1; ++kk) {
              const float av = a[i * k + kk];
              if (av == 0.0f) continue;
              const float* brow = b + kk * n;
              for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
            }
          }
        }
      });
}

void gemm_at_b(const float* a, const float* b, float* c, std::size_t k,
               std::size_t m, std::size_t n) noexcept {
  // C(m×n) += Aᵀ·B with A stored k×m. Parallel over C rows: each chunk
  // reads its own column strip of A, so no two chunks touch the same C row.
  core::ThreadPool::global().parallel_for(
      m, row_grain(k * n), [&](std::size_t i0, std::size_t i1) {
        for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
          const std::size_t k1 = std::min(k, k0 + kKc);
          for (std::size_t i = i0; i < i1; ++i) {
            float* crow = c + i * n;
            for (std::size_t kk = k0; kk < k1; ++kk) {
              const float av = a[kk * m + i];
              if (av == 0.0f) continue;
              const float* brow = b + kk * n;
              for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
            }
          }
        }
      });
}

void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) noexcept {
  // C(m×n) += A(m×k)·Bᵀ with B stored n×k: per-element dot products.
  // 2×2 register tile reuses each loaded A/B value twice; every element
  // keeps its own single accumulator running in ascending kk order.
  core::ThreadPool::global().parallel_for(
      m, row_grain(k * n), [&](std::size_t i0, std::size_t i1) {
        std::size_t i = i0;
        for (; i + 1 < i1; i += 2) {
          const float* ar0 = a + i * k;
          const float* ar1 = ar0 + k;
          float* cr0 = c + i * n;
          float* cr1 = cr0 + n;
          std::size_t j = 0;
          for (; j + 1 < n; j += 2) {
            const float* br0 = b + j * k;
            const float* br1 = br0 + k;
            float s00 = 0.0f, s01 = 0.0f, s10 = 0.0f, s11 = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk) {
              const float a0 = ar0[kk];
              const float a1 = ar1[kk];
              const float b0 = br0[kk];
              const float b1 = br1[kk];
              s00 += a0 * b0;
              s01 += a0 * b1;
              s10 += a1 * b0;
              s11 += a1 * b1;
            }
            cr0[j] += s00;
            cr0[j + 1] += s01;
            cr1[j] += s10;
            cr1[j + 1] += s11;
          }
          for (; j < n; ++j) {
            const float* brow = b + j * k;
            float s0 = 0.0f, s1 = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk) {
              s0 += ar0[kk] * brow[kk];
              s1 += ar1[kk] * brow[kk];
            }
            cr0[j] += s0;
            cr1[j] += s1;
          }
        }
        for (; i < i1; ++i) {
          const float* arow = a + i * k;
          float* crow = c + i * n;
          for (std::size_t j = 0; j < n; ++j) {
            const float* brow = b + j * k;
            float acc = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
            crow[j] += acc;
          }
        }
      });
}

}  // namespace ref

// ---- harness ---------------------------------------------------------------

enum class Entry { kAccumulate, kAtB, kABt, kDot };

const char* name(Entry e) {
  switch (e) {
    case Entry::kAccumulate: return "gemm_accumulate";
    case Entry::kAtB: return "gemm_at_b";
    case Entry::kABt: return "gemm_a_bt";
    case Entry::kDot: return "gemm_dot";
  }
  return "?";
}

/// One call: C(m×n) op= A·B with the entry's own storage of A and B.
struct Operands {
  std::size_t m = 0, k = 0, n = 0;
  std::vector<float> a, b, c;
};

/// Random operands for one call: A (m·k floats) is ReLU-sparse with zeros
/// of both signs; B (k·n) and C (m·n) are dense.
Operands make_operands(std::size_t m, std::size_t k, std::size_t n,
                       std::uint64_t seed) {
  core::Xoshiro256 rng(seed);
  Operands op{m, k, n, std::vector<float>(m * k), std::vector<float>(k * n),
              std::vector<float>(m * n)};
  for (float& x : op.a) {
    const double u = rng.uniform();
    x = u < 0.2 ? 0.0f : u < 0.3 ? -0.0f : static_cast<float>(rng.gaussian());
  }
  for (float& x : op.b) x = static_cast<float>(rng.gaussian());
  for (float& x : op.c) x = static_cast<float>(rng.gaussian());
  return op;
}

/// B transposed (k×n ↔ n×k): gemm_a_bt stores B n×k, gemm_dot k×n.
std::vector<float> transposed(const std::vector<float>& x, std::size_t rows,
                              std::size_t cols) {
  std::vector<float> t(x.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) t[c * rows + r] = x[r * cols + c];
  }
  return t;
}

/// Run one entry point on a copy of op.c. A is read as m×k for
/// accumulate/a_bt/dot and as k×m for at_b; B as k×n except a_bt's n×k.
std::vector<float> run(Entry e, const Operands& op, bool reference) {
  std::vector<float> c = op.c;
  const std::size_t m = op.m, k = op.k, n = op.n;
  switch (e) {
    case Entry::kAccumulate:
      (reference ? ref::gemm_accumulate : gemm_accumulate)(
          op.a.data(), op.b.data(), c.data(), m, k, n);
      break;
    case Entry::kAtB:
      (reference ? ref::gemm_at_b : gemm_at_b)(op.a.data(), op.b.data(),
                                               c.data(), k, m, n);
      break;
    case Entry::kABt:
      if (reference) {
        ref::gemm_a_bt(op.a.data(), op.b.data(), c.data(), m, k, n);
      } else {
        gemm_a_bt(op.a.data(), op.b.data(), c.data(), m, k, n);
      }
      break;
    case Entry::kDot: {
      // gemm_dot over B(k×n) is gemm_a_bt over the same B stored n×k.
      if (reference) {
        ref::gemm_a_bt(op.a.data(), transposed(op.b, k, n).data(), c.data(),
                       m, k, n);
      } else {
        gemm_dot(op.a.data(), op.b.data(), c.data(), m, k, n);
      }
      break;
    }
  }
  return c;
}

/// All ISAs the current binary+CPU can execute (scalar always).
std::vector<core::simd::Isa> runnable_isas() {
  const core::simd::Isa saved = core::simd::active_isa();
  std::vector<core::simd::Isa> isas = {core::simd::Isa::kScalar};
  const core::simd::Isa best = core::simd::set_isa(core::simd::compiled_isa());
  if (best != core::simd::Isa::kScalar) isas.push_back(best);
  core::simd::set_isa(saved);
  return isas;
}

/// Compare `e` with its reference on every runnable ISA and pool size.
void expect_matches_reference(Entry e, const Operands& op,
                              const std::string& what) {
  core::ThreadPool::set_global_threads(1);
  const std::vector<float> want = run(e, op, true);
  const core::simd::Isa saved = core::simd::active_isa();
  for (const core::simd::Isa isa : runnable_isas()) {
    core::simd::set_isa(isa);
    for (const std::size_t threads : {1, 2, 8}) {
      core::ThreadPool::set_global_threads(threads);
      const std::vector<float> got = run(e, op, false);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                               want.size() * sizeof(float)))
          << name(e) << " " << what << " m=" << op.m << " k=" << op.k
          << " n=" << op.n << " isa=" << core::simd::to_string(isa)
          << " threads=" << threads;
    }
  }
  core::simd::set_isa(saved);
  core::ThreadPool::set_global_threads(1);
}

// ---- shapes ----------------------------------------------------------------

struct Shape {
  Entry e;
  std::size_t m, k, n;
};

/// The GEMM calls Conv2d and Linear make (ml/layers.cpp) for every layer of
/// the perfbench workloads: vgg-inject's mini-VGG (width 6, 16×16×3 input,
/// 20 classes), mlp-inject's 768-256-128-20 MLP and fattree-loop's
/// 192-48-24-10 MLP, at the per-rank training batch and the eval batches.
std::vector<Shape> call_site_shapes() {
  std::vector<Shape> out;
  struct Conv {
    std::size_t cin, cout, hw;
  };
  for (const Conv& l : {Conv{3, 6, 256}, Conv{6, 6, 256}, Conv{6, 12, 64},
                        Conv{12, 12, 64}, Conv{12, 24, 16}}) {
    const std::size_t ck = l.cin * 9;
    out.push_back({Entry::kAccumulate, l.cout, ck, l.hw});  // forward
    out.push_back({Entry::kDot, l.cout, l.hw, ck});         // dW
    out.push_back({Entry::kAtB, ck, l.cout, l.hw});         // dcols
  }
  struct Lin {
    std::size_t in, out, train_batch;
    std::vector<std::size_t> eval_batches;
  };
  for (const Lin& l : {Lin{96, 48, 15, {256, 244}}, Lin{48, 20, 15, {256, 244}},
                       Lin{768, 256, 15, {256, 244}},
                       Lin{256, 128, 15, {256, 244}},
                       Lin{128, 20, 15, {256, 244}}, Lin{192, 48, 8, {80}},
                       Lin{48, 24, 8, {80}}, Lin{24, 10, 8, {80}}}) {
    const std::size_t b = l.train_batch;
    out.push_back({Entry::kABt, b, l.in, l.out});         // forward
    out.push_back({Entry::kAtB, l.out, b, l.in});         // dW
    out.push_back({Entry::kAccumulate, b, l.out, l.in});  // dx
    for (const std::size_t e : l.eval_batches) {
      out.push_back({Entry::kABt, e, l.in, l.out});
    }
  }
  return out;
}

TEST(Gemm, CallSiteShapesMatchReference) {
  std::uint64_t seed = 1;
  for (const Shape& s : call_site_shapes()) {
    expect_matches_reference(s.e, make_operands(s.m, s.k, s.n, seed++),
                             "call site");
  }
}

TEST(Gemm, RaggedShapesMatchReference) {
  // n mod 8 = 1…7 and n < 8 hit every masked-tail width; n > 32 mixes full
  // blocks with a tail; m = 1, k = 1 and k = 0 are the degenerate edges;
  // k = 130 crosses the reference's 128-deep k blocking.
  std::uint64_t seed = 100;
  for (const std::size_t m : {1, 2, 5, 17}) {
    for (const std::size_t k : {0, 1, 3, 130}) {
      for (const std::size_t n :
           {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 23, 31, 32, 33, 46, 67}) {
        for (const Entry e :
             {Entry::kAccumulate, Entry::kAtB, Entry::kABt, Entry::kDot}) {
          expect_matches_reference(e, make_operands(m, k, n, seed++),
                                   "ragged");
        }
      }
    }
  }
}

TEST(Gemm, SignedZerosAndSkippedNonFinitesMatchReference) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::uint64_t seed = 5000;
  for (const std::size_t n : {5, 8, 13, 37}) {
    for (const Entry e :
         {Entry::kAccumulate, Entry::kAtB, Entry::kABt, Entry::kDot}) {
      const std::size_t m = 6, k = 9;
      Operands op = make_operands(m, k, n, seed++);
      const bool transposed_a = e == Entry::kAtB;
      auto a_at = [&](std::size_t i, std::size_t kk) -> float& {
        return transposed_a ? op.a[kk * m + i] : op.a[i * k + kk];
      };
      // Row 0 of A is all −0 and row 1 all +0: with C holding −0 there, the
      // zero skip leaves −0 and the dot form turns it into +0.
      for (std::size_t kk = 0; kk < k; ++kk) {
        a_at(0, kk) = -0.0f;
        a_at(1, kk) = 0.0f;
      }
      for (std::size_t j = 0; j < n; ++j) op.c[j] = op.c[n + j] = -0.0f;
      op.c[2 * n] = -0.0f;
      if (e == Entry::kAccumulate || e == Entry::kAtB) {
        // A column kk = 4 is zero in every row, so B row 4 (inf and NaN) is
        // only ever skipped; any product with it would poison C.
        for (std::size_t i = 0; i < m; ++i) a_at(i, 4) = i % 2 ? -0.0f : 0.0f;
        for (std::size_t j = 0; j < n; ++j) op.b[4 * n + j] = j % 2 ? nan : -inf;
      } else {
        // No skip in the dot form: 0·inf is NaN in every element it meets.
        // Only inf is planted, so the one NaN in play is the default NaN
        // and its bits do not depend on operand order.
        const bool stored_nk = e == Entry::kABt;
        for (std::size_t j = 0; j < n; j += 3) {
          op.b[stored_nk ? j * k + 4 : 4 * n + j] = inf;
        }
      }
      expect_matches_reference(e, op, "signed zeros / non-finite");
    }
  }
}

}  // namespace
}  // namespace trimgrad::ml
