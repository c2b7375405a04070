// Layer correctness, including numerical gradient checks — the training
// substrate must backpropagate exactly or the figure reproductions measure
// noise, not trimming effects.
#include "ml/layers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "ml/loss.h"
#include "ml/model.h"

namespace trimgrad::ml {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  core::Xoshiro256 rng(seed);
  for (auto& x : t.data) x = static_cast<float>(rng.gaussian());
  return t;
}

/// Central-difference check of d loss / d input for an arbitrary layer
/// stack, where loss = sum(output * probe) for a fixed random probe.
void check_input_gradient(Sequential& net, Tensor x, double tol,
                          std::uint64_t seed) {
  const Tensor out0 = net.forward(x);
  Tensor probe = random_tensor(out0.shape, seed);
  net.zero_grads();
  Tensor analytic = net.backward(probe);

  core::Xoshiro256 pick(seed + 1);
  const float eps = 1e-3f;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t i = pick.below(x.size());
    Tensor xp = x;
    xp.data[i] += eps;
    Tensor xm = x;
    xm.data[i] -= eps;
    double lp = 0, lm = 0;
    const Tensor op = net.forward(xp);
    for (std::size_t j = 0; j < op.size(); ++j) lp += op.data[j] * probe.data[j];
    const Tensor om = net.forward(xm);
    for (std::size_t j = 0; j < om.size(); ++j) lm += om.data[j] * probe.data[j];
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(analytic.data[i], numeric,
                tol * (1.0 + std::fabs(numeric)))
        << "input coordinate " << i;
  }
  // Restore caches for any later use.
  net.forward(x);
}

/// Central-difference check of d loss / d params.
void check_param_gradient(Sequential& net, Tensor x, double tol,
                          std::uint64_t seed) {
  const Tensor out0 = net.forward(x);
  Tensor probe = random_tensor(out0.shape, seed);
  net.zero_grads();
  net.backward(probe);
  const auto analytic = net.flat_grads();
  auto params = net.flat_params();

  core::Xoshiro256 pick(seed + 2);
  const float eps = 1e-3f;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t i = pick.below(params.size());
    auto perturbed = params;
    perturbed[i] += eps;
    net.set_flat_params(perturbed);
    double lp = 0;
    {
      const Tensor o = net.forward(x);
      for (std::size_t j = 0; j < o.size(); ++j) lp += o.data[j] * probe.data[j];
    }
    perturbed[i] = params[i] - eps;
    net.set_flat_params(perturbed);
    double lm = 0;
    {
      const Tensor o = net.forward(x);
      for (std::size_t j = 0; j < o.size(); ++j) lm += o.data[j] * probe.data[j];
    }
    net.set_flat_params(params);
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, tol * (1.0 + std::fabs(numeric)))
        << "param " << i;
  }
}

TEST(Linear, ForwardMatchesManualComputation) {
  core::Xoshiro256 rng(1);
  Linear lin(2, 3, rng);
  // Overwrite with known weights: W[o][i], b[o].
  auto params = lin.params();
  *params[0].values = {1, 2, 3, 4, 5, 6};  // W = [[1,2],[3,4],[5,6]]
  *params[1].values = {0.5f, -0.5f, 0.0f};
  Tensor x({1, 2}, {10, 20});
  const Tensor y = lin.forward(x);
  EXPECT_FLOAT_EQ(y.data[0], 1 * 10 + 2 * 20 + 0.5f);
  EXPECT_FLOAT_EQ(y.data[1], 3 * 10 + 4 * 20 - 0.5f);
  EXPECT_FLOAT_EQ(y.data[2], 5 * 10 + 6 * 20 + 0.0f);
}

TEST(Linear, GradientsPassNumericalCheck) {
  Sequential net;
  core::Xoshiro256 rng(2);
  net.emplace<Linear>(6, 4, rng);
  check_input_gradient(net, random_tensor({3, 6}, 10), 1e-2, 100);
  check_param_gradient(net, random_tensor({3, 6}, 11), 1e-2, 101);
}

TEST(ReLU, ZeroesNegativesForwardAndBackward) {
  ReLU relu;
  Tensor x({1, 4}, {-1, 2, -3, 4});
  const Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y.data[0], 0);
  EXPECT_FLOAT_EQ(y.data[1], 2);
  Tensor g({1, 4}, {10, 10, 10, 10});
  const Tensor dx = relu.backward(g);
  EXPECT_FLOAT_EQ(dx.data[0], 0);
  EXPECT_FLOAT_EQ(dx.data[1], 10);
  EXPECT_FLOAT_EQ(dx.data[2], 0);
  EXPECT_FLOAT_EQ(dx.data[3], 10);
}

TEST(Conv2d, PreservesSpatialSize) {
  core::Xoshiro256 rng(3);
  Conv2d conv(3, 8, rng);
  const Tensor y = conv.forward(random_tensor({2, 3, 8, 8}, 12));
  EXPECT_EQ(y.shape, (std::vector<std::size_t>{2, 8, 8, 8}));
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  core::Xoshiro256 rng(4);
  Conv2d conv(1, 1, rng);
  auto params = conv.params();
  // 3x3 kernel with center 1: identity convolution.
  *params[0].values = {0, 0, 0, 0, 1, 0, 0, 0, 0};
  *params[1].values = {0};
  Tensor x = random_tensor({1, 1, 5, 5}, 13);
  const Tensor y = conv.forward(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_FLOAT_EQ(y.data[i], x.data[i]);
}

TEST(Conv2d, ZeroPaddingAtBorders) {
  core::Xoshiro256 rng(5);
  Conv2d conv(1, 1, rng);
  auto params = conv.params();
  // Kernel that picks the top-left neighbour.
  *params[0].values = {1, 0, 0, 0, 0, 0, 0, 0, 0};
  *params[1].values = {0};
  Tensor x({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Tensor y = conv.forward(x);
  EXPECT_FLOAT_EQ(y.data[0], 0.0f);  // top-left output: neighbour off-grid
  EXPECT_FLOAT_EQ(y.data[4], 1.0f);  // center output: top-left is x[0][0]
}

TEST(Conv2d, GradientsPassNumericalCheck) {
  Sequential net;
  core::Xoshiro256 rng(6);
  net.emplace<Conv2d>(2, 3, rng);
  check_input_gradient(net, random_tensor({2, 2, 4, 4}, 14), 2e-2, 102);
  check_param_gradient(net, random_tensor({2, 2, 4, 4}, 15), 2e-2, 103);
}

/// Conv2d written as direct loops, in the exact per-element operation order
/// of the im2col + GEMM formulation: forward adds each nonzero weight's
/// product (padding reads +0) onto the bias in ascending c*9+k; dW sums a
/// dot product from +0 over ascending pixels; the column gradient sums the
/// nonzero weights' products in ascending output channel and is then added
/// into dx in (c, dh, dw) order, skipping padding.
struct DirectConv {
  std::size_t cin, cout, h, w;
  float xval(const float* x, std::size_t q, std::size_t p) const {
    const std::size_t c = q / 9, k = q % 9;
    const int sy = static_cast<int>(p / w) + static_cast<int>(k / 3) - 1;
    const int sx = static_cast<int>(p % w) + static_cast<int>(k % 3) - 1;
    if (sy < 0 || sy >= static_cast<int>(h) || sx < 0 ||
        sx >= static_cast<int>(w)) {
      return 0.0f;
    }
    return x[c * h * w + static_cast<std::size_t>(sy) * w +
             static_cast<std::size_t>(sx)];
  }
  void forward(const float* x, const std::vector<float>& wt,
               const std::vector<float>& b, float* y) const {
    const std::size_t hw = h * w, ck = cin * 9;
    for (std::size_t f = 0; f < cout; ++f) {
      for (std::size_t p = 0; p < hw; ++p) {
        float acc = b[f];
        for (std::size_t q = 0; q < ck; ++q) {
          if (wt[f * ck + q] == 0.0f) continue;
          acc += wt[f * ck + q] * xval(x, q, p);
        }
        y[f * hw + p] = acc;
      }
    }
  }
  void backward(const float* x, const float* g, const std::vector<float>& wt,
                std::vector<float>& gw, std::vector<float>& gb,
                float* dx) const {
    const std::size_t hw = h * w, ck = cin * 9;
    for (std::size_t f = 0; f < cout; ++f) {
      for (std::size_t q = 0; q < ck; ++q) {
        float s = 0.0f;
        for (std::size_t p = 0; p < hw; ++p) s += g[f * hw + p] * xval(x, q, p);
        gw[f * ck + q] += s;
      }
      float acc = 0.0f;
      for (std::size_t p = 0; p < hw; ++p) acc += g[f * hw + p];
      gb[f] += acc;
    }
    for (std::size_t q = 0; q < ck; ++q) {
      const std::size_t c = q / 9, k = q % 9;
      for (std::size_t p = 0; p < hw; ++p) {
        float dcol = 0.0f;
        for (std::size_t f = 0; f < cout; ++f) {
          if (wt[f * ck + q] == 0.0f) continue;
          dcol += wt[f * ck + q] * g[f * hw + p];
        }
        const int sy = static_cast<int>(p / w) + static_cast<int>(k / 3) - 1;
        const int sx = static_cast<int>(p % w) + static_cast<int>(k % 3) - 1;
        if (sy < 0 || sy >= static_cast<int>(h) || sx < 0 ||
            sx >= static_cast<int>(w)) {
          continue;
        }
        dx[c * hw + static_cast<std::size_t>(sy) * w +
           static_cast<std::size_t>(sx)] += dcol;
      }
    }
  }
};

TEST(Conv2d, MatchesDirectLoopsBitForBit) {
  // Odd and degenerate sizes (1 wide, 1 high) exercise every padding edge
  // of the flat im2col/col2im runs; zero weights of both signs exercise
  // the GEMMs' zero skip.
  struct Shape {
    std::size_t cin, cout, h, w;
  };
  std::uint64_t seed = 40;
  for (const Shape s : {Shape{1, 1, 1, 1}, Shape{2, 3, 1, 5}, Shape{3, 2, 5, 1},
                        Shape{2, 2, 2, 3}, Shape{3, 4, 5, 7}, Shape{4, 6, 8, 8},
                        Shape{3, 5, 16, 16}}) {
    const std::size_t batch = 3;
    core::Xoshiro256 rng(seed);
    Conv2d conv(s.cin, s.cout, rng);
    auto params = conv.params();
    std::vector<float>& wt = *params[0].values;
    std::vector<float>& b = *params[1].values;
    for (std::size_t i = 0; i < wt.size(); i += 4) wt[i] = i % 8 ? 0.0f : -0.0f;
    for (float& v : b) v = static_cast<float>(rng.gaussian());
    const Tensor x = random_tensor({batch, s.cin, s.h, s.w}, seed + 1);
    const Tensor g = random_tensor({batch, s.cout, s.h, s.w}, seed + 2);
    seed += 3;

    const DirectConv ref{s.cin, s.cout, s.h, s.w};
    const std::size_t in_img = s.cin * s.h * s.w;
    const std::size_t out_img = s.cout * s.h * s.w;
    Tensor want_y({batch, s.cout, s.h, s.w});
    Tensor want_dx({batch, s.cin, s.h, s.w});
    std::vector<float> want_gw(wt.size(), 0.0f), want_gb(b.size(), 0.0f);
    for (std::size_t i = 0; i < batch; ++i) {
      ref.forward(x.ptr() + i * in_img, wt, b, want_y.ptr() + i * out_img);
      ref.backward(x.ptr() + i * in_img, g.ptr() + i * out_img, wt, want_gw,
                   want_gb, want_dx.ptr() + i * in_img);
    }

    const Tensor y = conv.forward(x);
    const Tensor dx = conv.backward(g);
    const auto same = [](const std::vector<float>& a,
                         const std::vector<float>& e) {
      return a.size() == e.size() &&
             std::memcmp(a.data(), e.data(), a.size() * sizeof(float)) == 0;
    };
    EXPECT_TRUE(same(y.data, want_y.data)) << "forward " << s.h << "x" << s.w;
    EXPECT_TRUE(same(dx.data, want_dx.data)) << "dx " << s.h << "x" << s.w;
    EXPECT_TRUE(same(*params[0].grads, want_gw)) << "dW " << s.h << "x" << s.w;
    EXPECT_TRUE(same(*params[1].grads, want_gb)) << "db " << s.h << "x" << s.w;
  }
}

TEST(MaxPool2d, SelectsMaxAndRoutesGradient) {
  MaxPool2d pool;
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  const Tensor y = pool.forward(x);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y.data[0], 5);
  Tensor g({1, 1, 1, 1}, {7});
  const Tensor dx = pool.backward(g);
  EXPECT_FLOAT_EQ(dx.data[0], 0);
  EXPECT_FLOAT_EQ(dx.data[1], 7);
  EXPECT_FLOAT_EQ(dx.data[2], 0);
  EXPECT_FLOAT_EQ(dx.data[3], 0);
}

TEST(Flatten, ReshapesWithoutTouchingData) {
  Flatten fl;
  Tensor x = random_tensor({2, 3, 4, 4}, 16);
  const Tensor y = fl.forward(x);
  EXPECT_EQ(y.shape, (std::vector<std::size_t>{2, 48}));
  EXPECT_EQ(y.data, x.data);
  const Tensor back = fl.backward(y);
  EXPECT_EQ(back.shape, x.shape);
}

TEST(Sequential, FullStackGradientCheck) {
  Sequential net;
  core::Xoshiro256 rng(7);
  net.emplace<Conv2d>(1, 2, rng);
  net.emplace<ReLU>();
  net.emplace<MaxPool2d>();
  net.emplace<Flatten>();
  net.emplace<Linear>(2 * 2 * 2, 3, rng);
  check_param_gradient(net, random_tensor({2, 1, 4, 4}, 17), 3e-2, 104);
}

TEST(Sequential, FlatGradsRoundTrip) {
  Sequential net;
  core::Xoshiro256 rng(8);
  net.emplace<Linear>(4, 3, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(3, 2, rng);
  EXPECT_EQ(net.param_count(), 4u * 3 + 3 + 3 * 2 + 2);
  net.forward(random_tensor({2, 4}, 18));
  net.zero_grads();
  net.backward(random_tensor({2, 2}, 19));
  const auto flat = net.flat_grads();
  EXPECT_EQ(flat.size(), net.param_count());
  // Scatter a modified bucket back and read it again.
  auto modified = flat;
  for (auto& g : modified) g *= 2.0f;
  net.set_flat_grads(modified);
  EXPECT_EQ(net.flat_grads(), modified);
}

TEST(Sequential, FlatParamsReplicateModelsExactly) {
  ModelConfig cfg;
  cfg.classes = 10;
  cfg.height = cfg.width = 8;
  auto a = make_mlp(cfg, 32);
  ModelConfig cfg_b = cfg;
  cfg_b.init_seed = 999;  // different init...
  auto b = make_mlp(cfg_b, 32);
  b->set_flat_params(a->flat_params());  // ...then cloned
  Tensor x = random_tensor({4, 3, 8, 8}, 20);
  const Tensor ya = a->forward(x);
  const Tensor yb = b->forward(x);
  EXPECT_EQ(ya.data, yb.data);
}

TEST(Models, MiniVggShapesComposeOnCifarSize) {
  ModelConfig cfg;
  auto net = make_mini_vgg(cfg, 8);
  const Tensor y = net->forward(random_tensor({2, 3, 32, 32}, 21));
  EXPECT_EQ(y.shape, (std::vector<std::size_t>{2, 100}));
  EXPECT_GT(net->param_count(), 10000u);
}

TEST(Models, MlpOutputsLogitsPerClass) {
  ModelConfig cfg;
  cfg.classes = 17;
  auto net = make_mlp(cfg);
  const Tensor y = net->forward(random_tensor({3, 3, 32, 32}, 22));
  EXPECT_EQ(y.shape, (std::vector<std::size_t>{3, 17}));
}

TEST(Models, InitIsDeterministicInSeed) {
  ModelConfig cfg;
  auto a = make_mini_vgg(cfg, 8);
  auto b = make_mini_vgg(cfg, 8);
  EXPECT_EQ(a->flat_params(), b->flat_params());
}

}  // namespace
}  // namespace trimgrad::ml
