// SIMD kernel dispatch for the codec and ML-layer hot paths.
//
// Every inner loop that moves a gradient coordinate — FWHT butterflies,
// sign/magnitude splits, EDEN codebook quantization — and the one GEMM row
// kernel behind ml/tensor.h funnel through this header, so there is exactly
// one place where instruction sets are chosen. Each kernel has up to three
// implementations:
//
//   * AVX2 (x86-64)  — compiled with per-function target attributes, so the
//     default build carries the vector code even without -mavx2; it is only
//     *executed* after a runtime cpuid check.
//   * NEON (aarch64) — compiled when __ARM_NEON is available (the codec
//     kernels; the GEMM runs its scalar reference there).
//   * scalar         — the reference; always compiled, always available.
//
// Dispatch policy: at first use the active ISA is resolved as
// min(best compiled, best the CPU supports, TRIMGRAD_SIMD override). The
// TRIMGRAD_SIMD environment variable ("scalar", "avx2", "neon") exists so
// tests can run the same binary down both paths and assert bit-identity,
// and so a misbehaving vector path can be disabled in the field without a
// rebuild. set_isa() does the same programmatically (tests/benches).
//
// Determinism contract: every kernel here is *lane-parallel over
// independent elements* — element i of the output depends only on element i
// of the inputs, through the exact same IEEE-754 operations the scalar
// reference performs (adds/subs/multiplies/divides/compares/bit twiddles;
// never a reassociated reduction, never a fused multiply-add). The GEMM is
// lane-parallel over output columns: each lane runs one output element's
// multiply-then-add chain in ascending k, exactly as the scalar loop does.
// Vector and scalar paths therefore produce bit-identical results, which is
// what lets SIMD-vs-scalar builds (and any TRIMGRAD_THREADS) decode each
// other's packets and train the same weights. Reductions with
// order-sensitive rounding (row norms, EDEN's ⟨R,C⟩) deliberately stay
// scalar in their callers. The library is compiled with -ffp-contract=off so
// the compiler cannot fuse a multiply and an add behind the kernels' back.
// tests/core/simd_test.cpp enforces the contract kernel by kernel, and
// tests/ml/gemm_test.cpp pins the GEMM against the loop nests it replaced.
#pragma once

#include <cstddef>
#include <cstdint>

namespace trimgrad::core::simd {

enum class Isa : std::uint8_t { kScalar = 0, kNeon = 1, kAvx2 = 2 };

const char* to_string(Isa isa) noexcept;

/// Best ISA this binary was compiled with kernels for.
Isa compiled_isa() noexcept;

/// ISA the kernels will actually use (compiled ∧ CPU-supported ∧ override).
Isa active_isa() noexcept;

/// Force an ISA at or below what compiled/CPU support allows (requests are
/// clamped). Intended for tests and benches; returns the ISA now active.
Isa set_isa(Isa isa) noexcept;

// ---- FWHT ----------------------------------------------------------------

/// In-place unnormalized fast Walsh–Hadamard transform over n = 2^k floats.
/// Bit-identical to the textbook nested-loop form.
void fwht(float* data, std::size_t n) noexcept;

/// fwht with the 1/sqrt(n) scale fused into the final butterfly stage
/// (same multiply a separate scaling pass would do — one fewer sweep).
/// n must be >= 2; n == 1 is the identity with scale exactly 1.
void fwht_orthonormal(float* data, std::size_t n) noexcept;

// ---- sign/magnitude split & join (RHT and sign-scheme heads) -------------

/// heads[i] = (sign bit of r[i] clear) ? 1 : 0; mags[i] = bits & 0x7fffffff.
void split_sign_mag(const float* r, std::size_t n, std::uint8_t* heads,
                    std::uint32_t* mags) noexcept;

/// Inverse of split_sign_mag with per-coordinate trim fallback:
///   out[i] = trimmed[i] ? ±scale (sign from head) : float(head|tail bits).
void join_sign_mag(const std::uint8_t* heads, const std::uint32_t* tails,
                   const std::uint8_t* trimmed, float scale, float* out,
                   std::size_t n) noexcept;

// ---- scalar-scheme bulk encodes ------------------------------------------

/// Subtractive-dithering encode: heads[i] = (v[i] + dither[i] >= 0),
/// tails[i] = sign(1) | exponent(8) | mantissa[22..1] of v[i] (31 bits).
void encode_sd(const float* v, const float* dither, std::size_t n,
               std::uint8_t* heads, std::uint32_t* tails) noexcept;

// ---- EDEN codebook quantization ------------------------------------------

/// codes[i] = #{ j : boundaries[j] <= float(double(r[i]) / rms) } — exactly
/// the scalar upper_bound search over the codebook thresholds, with the
/// normalization performed in double precision like the scalar encoder.
/// boundaries must be ascending; rms must be > 0 and finite.
void eden_quantize(const float* r, std::size_t n, double rms,
                   const float* boundaries, std::size_t n_boundaries,
                   std::uint32_t* codes) noexcept;

// ---- GEMM row kernel (ml/tensor.h) ---------------------------------------

/// The two per-element accumulation orders the ML layer's GEMMs guarantee.
enum class GemmForm : std::uint8_t {
  /// C(i,j) += A(i,kk) * B(kk,j) for kk = 0, 1, …, k−1 in turn, straight
  /// into C; a kk with A(i,kk) == 0 (either sign) is skipped, so C keeps a
  /// −0 and ignores inf/NaN in that row of B.
  kAccumulate,
  /// s = +0; s += A(i,kk) * B(kk,j) for every kk = 0, …, k−1 (no skip);
  /// then C(i,j) += s.
  kDot,
};

/// Apply `form` to output rows i = 0 … rows−1, columns j = 0 … n−1.
/// A(i,kk) is a[i·a_row_stride + kk·a_k_stride] (so a transposed A needs no
/// copy), B is row-major k×n and C(i,j) is c[i·ldc + j]. Every product is
/// rounded to float before it is added (no FMA), so the result is
/// bit-identical on every ISA.
void gemm_rows(GemmForm form, const float* a, std::size_t a_row_stride,
               std::size_t a_k_stride, const float* b, float* c,
               std::size_t ldc, std::size_t rows, std::size_t k,
               std::size_t n) noexcept;

}  // namespace trimgrad::core::simd
