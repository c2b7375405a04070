#include "ml/layers.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace trimgrad::ml {

namespace {

/// He-normal initialization, the standard choice for ReLU nets.
void he_init(std::vector<float>& w, std::size_t fan_in,
             core::Xoshiro256& rng) {
  const float scale = std::sqrt(2.0f / static_cast<float>(fan_in));
  for (auto& x : w) x = scale * static_cast<float>(rng.gaussian());
}

}  // namespace

// ---------------------------------------------------------------- Linear --

Linear::Linear(std::size_t in, std::size_t out, core::Xoshiro256& rng)
    : in_(in), out_(out), w_(in * out), b_(out, 0.0f), gw_(in * out, 0.0f),
      gb_(out, 0.0f) {
  he_init(w_, in, rng);
}

Tensor Linear::forward(const Tensor& x) {
  const std::size_t batch = x.dim(0);
  x_cache_ = x;
  Tensor y({batch, out_});
  for (std::size_t i = 0; i < batch; ++i) {
    float* row = y.ptr() + i * out_;
    for (std::size_t o = 0; o < out_; ++o) row[o] = b_[o];
  }
  // y(B×out) += x(B×in) · Wᵀ, W stored out×in.
  gemm_a_bt(x.ptr(), w_.data(), y.ptr(), batch, in_, out_);
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  const std::size_t batch = grad_out.dim(0);
  // dW(out×in) += gradᵀ(out×B) · x(B×in)  ==  gemm_at_b(grad, x) with
  // grad stored B×out.
  gemm_at_b(grad_out.ptr(), x_cache_.ptr(), gw_.data(), batch, out_, in_);
  for (std::size_t i = 0; i < batch; ++i) {
    const float* row = grad_out.ptr() + i * out_;
    for (std::size_t o = 0; o < out_; ++o) gb_[o] += row[o];
  }
  // dx(B×in) = grad(B×out) · W(out×in).
  Tensor dx({batch, in_});
  gemm_accumulate(grad_out.ptr(), w_.data(), dx.ptr(), batch, out_, in_);
  return dx;
}

// ------------------------------------------------------------------ ReLU --

Tensor ReLU::forward(const Tensor& x) {
  // Branchless, so the loops vectorize: y = max(+0, x) is exactly
  // x > 0 ? x : +0 (NaN and −0 give +0).
  Tensor y = x;
  const std::size_t n = y.size();
  mask_.resize(n);
  float* v = y.ptr();
  std::uint8_t* m = mask_.data();
  for (std::size_t i = 0; i < n; ++i) m[i] = v[i] > 0.0f;
  for (std::size_t i = 0; i < n; ++i) v[i] = std::max(0.0f, v[i]);
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  // dx = mask ? g : +0, as a bit mask: mask bytes are 0 or 1.
  Tensor dx = grad_out;
  const std::size_t n = dx.size();
  float* g = dx.ptr();
  const std::uint8_t* m = mask_.data();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t keep = 0u - static_cast<std::uint32_t>(m[i]);
    g[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(g[i]) & keep);
  }
  return dx;
}

// ---------------------------------------------------------------- Conv2d --

Conv2d::Conv2d(std::size_t in_ch, std::size_t out_ch, core::Xoshiro256& rng)
    : cin_(in_ch), cout_(out_ch), w_(out_ch * in_ch * 9), b_(out_ch, 0.0f),
      gw_(w_.size(), 0.0f), gb_(out_ch, 0.0f) {
  he_init(w_, in_ch * 9, rng);
}

namespace {

/// One (channel, dh, dw) row of the 3×3/pad-1 lowering, as a flat run: for
/// every output pixel p = y*W + x whose source row y+dh is inside the image,
/// the source is plane[p + dh*W + dw]. That one shifted run covers all of
/// them at once; only the padding column (x = 0 for dw = −1, x = W−1 for
/// dw = +1) maps to a wrong neighbour and is fixed up by the callers.
struct FlatRun {
  std::size_t y0, y1;      ///< output rows with an in-image source row
  std::size_t p0, p1;      ///< the run [p0, p1) whose source is in bounds
  std::ptrdiff_t shift;    ///< source index − output index
  FlatRun(int dh, int dw, std::size_t h, std::size_t w)
      : y0(dh < 0 ? 1 : 0),
        y1(dh > 0 ? h - 1 : h),
        p0(y0 * w + (dw < 0 ? 1 : 0)),
        p1(y1 > y0 ? y1 * w - (dw > 0 ? 1 : 0) : p0),
        shift(static_cast<std::ptrdiff_t>(dh) * static_cast<std::ptrdiff_t>(w) +
              dw) {}
};

/// im2col for 3×3/stride1/pad1: cols[(c*9 + k)][h*W + w] = x[c][h+dh][w+dw].
void im2col_3x3(const float* x, std::size_t c_in, std::size_t h,
                std::size_t w, float* cols) {
  const std::size_t hw = h * w;
  for (std::size_t c = 0; c < c_in; ++c) {
    const float* plane = x + c * hw;
    for (int dh = -1; dh <= 1; ++dh) {
      for (int dw = -1; dw <= 1; ++dw) {
        const std::size_t k = static_cast<std::size_t>((dh + 1) * 3 + (dw + 1));
        float* crow = cols + (c * 9 + k) * hw;
        const FlatRun run(dh, dw, h, w);
        std::fill(crow, crow + run.y0 * w, 0.0f);
        std::fill(crow + run.y1 * w, crow + hw, 0.0f);
        if (run.p0 < run.p1) {
          std::memcpy(crow + run.p0,
                      plane + static_cast<std::ptrdiff_t>(run.p0) + run.shift,
                      (run.p1 - run.p0) * sizeof(float));
        }
        if (dw != 0) {
          const std::size_t edge = dw < 0 ? 0 : w - 1;
          for (std::size_t y = run.y0; y < run.y1; ++y) crow[y * w + edge] = 0.0f;
        }
      }
    }
  }
}

/// The same lowering transposed, as the weight-gradient GEMM reads it:
/// rows[h*W + w][c*9 + k] = x[c][h+dh][w+dw]. Each (c, dh) source row
/// fills one 3-wide window per output pixel; only the first and last pixel
/// of a row touch the padding.
void im2row_3x3(const float* x, std::size_t c_in, std::size_t h,
                std::size_t w, float* rows) {
  const std::size_t hw = h * w;
  const std::size_t ck = c_in * 9;
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t c = 0; c < c_in; ++c) {
      for (int dh = -1; dh <= 1; ++dh) {
        float* d = rows + y * w * ck + c * 9 +
                   static_cast<std::size_t>((dh + 1) * 3);
        const int sy = static_cast<int>(y) + dh;
        if (sy < 0 || sy >= static_cast<int>(h)) {
          for (std::size_t xx = 0; xx < w; ++xx, d += ck) {
            d[0] = d[1] = d[2] = 0.0f;
          }
          continue;
        }
        const float* src = x + c * hw + static_cast<std::size_t>(sy) * w;
        d[0] = 0.0f;
        d[1] = src[0];
        d[2] = w > 1 ? src[1] : 0.0f;
        if (w == 1) continue;
        d += ck;
        for (std::size_t xx = 1; xx + 1 < w; ++xx, d += ck) {
          d[0] = src[xx - 1];
          d[1] = src[xx];
          d[2] = src[xx + 1];
        }
        d[0] = src[w - 2];
        d[1] = src[w - 1];
        d[2] = 0.0f;
      }
    }
  }
}

/// Transpose of im2col: add column gradients back into the image. Written
/// as a gather: dx[t] += cols_k[t − shift_k] over the 9 taps k in (dh, dw)
/// order, which is the per-element order of the scatter loop that skips
/// padding. Every tap's flat run covers target t, except near the first and
/// last image row; there the taps are range-checked. Inside a run the
/// padding column maps to a wrong neighbour, so a first sweep sets those
/// entries of cols to +0 (cols is overwritten). That is bit-identical to
/// skipping them: dx starts at +0 and a round-to-nearest sum is −0 only
/// when both addends are, so no element of dx is ever −0 and adding +0
/// leaves it unchanged.
void col2im_3x3(float* cols, std::size_t c_in, std::size_t h, std::size_t w,
                float* dx) {
  const std::size_t hw = h * w;
  for (std::size_t c = 0; c < c_in; ++c) {
    for (int dh = -1; dh <= 1; ++dh) {
      for (int dw = -1; dw <= 1; dw += 2) {
        const std::size_t k = static_cast<std::size_t>((dh + 1) * 3 + (dw + 1));
        float* crow = cols + (c * 9 + k) * hw + (dw < 0 ? 0 : w - 1);
        for (std::size_t y = 0; y < h; ++y) crow[y * w] = 0.0f;
      }
    }
  }
  // Target range [lo, hi) and source offset of each tap.
  std::ptrdiff_t lo[9], hi[9], shift[9];
  std::ptrdiff_t mid_lo = 0, mid_hi = static_cast<std::ptrdiff_t>(hw);
  for (int dh = -1; dh <= 1; ++dh) {
    for (int dw = -1; dw <= 1; ++dw) {
      const int k = (dh + 1) * 3 + (dw + 1);
      const FlatRun run(dh, dw, h, w);
      shift[k] = run.shift;
      lo[k] = static_cast<std::ptrdiff_t>(run.p0) + run.shift;
      hi[k] = std::max(lo[k], static_cast<std::ptrdiff_t>(run.p1) + run.shift);
      mid_lo = std::max(mid_lo, lo[k]);
      mid_hi = std::min(mid_hi, hi[k]);
    }
  }
  // An empty tap's range can start past the plane (h or w of 1).
  mid_lo = std::min(mid_lo, static_cast<std::ptrdiff_t>(hw));
  mid_hi = std::max(mid_lo, mid_hi);
  for (std::size_t c = 0; c < c_in; ++c) {
    float* plane = dx + c * hw;
    const float* tap = cols + c * 9 * hw;
    const auto edge = [&](std::ptrdiff_t t0, std::ptrdiff_t t1) {
      for (std::ptrdiff_t t = t0; t < t1; ++t) {
        float acc = plane[t];
        for (int k = 0; k < 9; ++k) {
          if (t >= lo[k] && t < hi[k]) {
            acc += tap[static_cast<std::size_t>(k) * hw + t - shift[k]];
          }
        }
        plane[t] = acc;
      }
    };
    edge(0, mid_lo);
    for (std::ptrdiff_t t = mid_lo; t < mid_hi; ++t) {
      float acc = plane[t];
      for (int k = 0; k < 9; ++k) {
        acc += tap[static_cast<std::size_t>(k) * hw + t - shift[k]];
      }
      plane[t] = acc;
    }
    edge(mid_hi, static_cast<std::ptrdiff_t>(hw));
  }
}

}  // namespace

Tensor Conv2d::forward(const Tensor& x) {
  const std::size_t batch = x.dim(0);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t hw = h * w;
  const std::size_t ck = cin_ * 9;
  x_cache_ = x;
  cols_.resize(ck * hw);
  Tensor y({batch, cout_, h, w});
  for (std::size_t bidx = 0; bidx < batch; ++bidx) {
    im2col_3x3(x.ptr() + bidx * cin_ * hw, cin_, h, w, cols_.data());
    float* out = y.ptr() + bidx * cout_ * hw;
    for (std::size_t f = 0; f < cout_; ++f) {
      float* plane = out + f * hw;
      const float bias = b_[f];
      for (std::size_t i = 0; i < hw; ++i) plane[i] = bias;
    }
    // out(cout×hw) += W(cout×ck) · cols(ck×hw).
    gemm_accumulate(w_.data(), cols_.data(), out, cout_, ck, hw);
  }
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const std::size_t batch = grad_out.dim(0);
  const std::size_t h = grad_out.dim(2);
  const std::size_t w = grad_out.dim(3);
  const std::size_t hw = h * w;
  const std::size_t ck = cin_ * 9;
  Tensor dx({batch, cin_, h, w});
  cols_.resize(hw * ck);
  dcols_.resize(ck * hw);
  for (std::size_t bidx = 0; bidx < batch; ++bidx) {
    const float* gout = grad_out.ptr() + bidx * cout_ * hw;
    im2row_3x3(x_cache_.ptr() + bidx * cin_ * hw, cin_, h, w, cols_.data());
    // dW(cout×ck) += gout(cout×hw) · rows(hw×ck), one dot per weight.
    gemm_dot(gout, cols_.data(), gw_.data(), cout_, hw, ck);
    for (std::size_t f = 0; f < cout_; ++f) {
      const float* plane = gout + f * hw;
      float acc = 0.0f;
      for (std::size_t i = 0; i < hw; ++i) acc += plane[i];
      gb_[f] += acc;
    }
    // dcols(ck×hw) = Wᵀ(ck×cout) · gout(cout×hw).
    std::fill(dcols_.begin(), dcols_.end(), 0.0f);
    gemm_at_b(w_.data(), gout, dcols_.data(), cout_, ck, hw);
    col2im_3x3(dcols_.data(), cin_, h, w, dx.ptr() + bidx * cin_ * hw);
  }
  return dx;
}

// ------------------------------------------------------------- MaxPool2d --

Tensor MaxPool2d::forward(const Tensor& x) {
  const std::size_t batch = x.dim(0);
  const std::size_t c = x.dim(1);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t oh = h / 2;
  const std::size_t ow = w / 2;
  in_shape_ = x.shape;
  Tensor y({batch, c, oh, ow});
  argmax_.assign(y.size(), 0);
  for (std::size_t bc = 0; bc < batch * c; ++bc) {
    const float* in = x.ptr() + bc * h * w;
    float* out = y.ptr() + bc * oh * ow;
    std::size_t* amax = argmax_.data() + bc * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        std::size_t best_idx = (2 * oy) * w + 2 * ox;
        float best = in[best_idx];
        for (int dy = 0; dy < 2; ++dy) {
          for (int dxx = 0; dxx < 2; ++dxx) {
            const std::size_t idx = (2 * oy + dy) * w + 2 * ox + dxx;
            if (in[idx] > best) {
              best = in[idx];
              best_idx = idx;
            }
          }
        }
        out[oy * ow + ox] = best;
        amax[oy * ow + ox] = best_idx;
      }
    }
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  const std::size_t batch = in_shape_[0];
  const std::size_t c = in_shape_[1];
  const std::size_t h = in_shape_[2];
  const std::size_t w = in_shape_[3];
  const std::size_t oh = h / 2;
  const std::size_t ow = w / 2;
  Tensor dx({batch, c, h, w});
  for (std::size_t bc = 0; bc < batch * c; ++bc) {
    const float* g = grad_out.ptr() + bc * oh * ow;
    const std::size_t* amax = argmax_.data() + bc * oh * ow;
    float* out = dx.ptr() + bc * h * w;
    for (std::size_t i = 0; i < oh * ow; ++i) out[amax[i]] += g[i];
  }
  return dx;
}

// --------------------------------------------------------------- Flatten --

Tensor Flatten::forward(const Tensor& x) {
  in_shape_ = x.shape;
  return x.reshaped({x.dim(0), x.size() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(in_shape_);
}

// ------------------------------------------------------------ Sequential --

Tensor Sequential::forward(const Tensor& x) {
  Tensor cur = x;
  for (auto& layer : layers_) cur = layer->forward(cur);
  return cur;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor cur = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    cur = (*it)->backward(cur);
  }
  return cur;
}

std::vector<ParamView> Sequential::params() {
  std::vector<ParamView> out;
  for (auto& layer : layers_) {
    for (const auto& p : layer->params()) out.push_back(p);
  }
  return out;
}

std::size_t Sequential::param_count() {
  std::size_t n = 0;
  for (const auto& p : params()) n += p.values->size();
  return n;
}

void Sequential::zero_grads() {
  for (const auto& p : params())
    std::fill(p.grads->begin(), p.grads->end(), 0.0f);
}

std::vector<float> Sequential::flat_grads() {
  std::vector<float> out;
  out.reserve(param_count());
  for (const auto& p : params())
    out.insert(out.end(), p.grads->begin(), p.grads->end());
  return out;
}

void Sequential::set_flat_grads(std::span<const float> flat) {
  std::size_t off = 0;
  for (const auto& p : params()) {
    std::copy(flat.begin() + off, flat.begin() + off + p.grads->size(),
              p.grads->begin());
    off += p.grads->size();
  }
}

std::vector<float> Sequential::flat_params() {
  std::vector<float> out;
  out.reserve(param_count());
  for (const auto& p : params())
    out.insert(out.end(), p.values->begin(), p.values->end());
  return out;
}

void Sequential::set_flat_params(std::span<const float> flat) {
  std::size_t off = 0;
  for (const auto& p : params()) {
    std::copy(flat.begin() + off, flat.begin() + off + p.values->size(),
              p.values->begin());
    off += p.values->size();
  }
}

}  // namespace trimgrad::ml
