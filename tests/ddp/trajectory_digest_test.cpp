// Pinned training trajectories: a few DDP rounds of the mini-VGG and the
// MLP over a trimming InjectChannel, reduced to one FNV-1a digest of the
// per-round loss bits, the final flat parameters of every replica and the
// logits of one evaluation forward pass.
//
// The other determinism suites compare a run against itself (across pool
// sizes, across SIMD ISAs), which a kernel change that moves every bit the
// same way would still pass. These constants were recorded before the GEMM
// kernel moved into core/simd, so they pin the arithmetic itself: any change
// to a GEMM's summation order, to the layers' im2col/col2im layout or to the
// codec's sign stream shows up here. They hold for every TRIMGRAD_THREADS and
// TRIMGRAD_SIMD value and for -march=native builds (the library is compiled
// with -ffp-contract=off). They also depend on the C library's exp and log
// (loss, Gaussian init), so a libm that rounds those differently needs new
// constants. A deliberate numeric change re-records them and says so in its
// change notes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "collective/inject_channel.h"
#include "core/threadpool.h"
#include "ddp/trainer.h"
#include "ml/data.h"
#include "ml/model.h"

namespace trimgrad::ddp {
namespace {

constexpr std::uint64_t kVggDigest = 6279125620288775123ull;
constexpr std::uint64_t kMlpDigest = 17816980818737019187ull;

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
};

std::uint64_t trajectory_digest(bool vgg) {
  ml::SynthCifarConfig dcfg;
  dcfg.classes = 10;
  dcfg.height = dcfg.width = vgg ? 16 : 8;
  dcfg.train_per_class = 4;
  dcfg.test_per_class = 2;
  const ml::SynthCifar data(dcfg);

  TrainerConfig tcfg;
  tcfg.world = 4;
  tcfg.global_batch = data.train_size();  // one round per epoch
  tcfg.eval_every = 0;
  tcfg.sgd.lr = 0.01f;
  tcfg.codec.scheme = core::Scheme::kRHT;
  tcfg.codec.rht_row_len = std::size_t{1} << 10;

  collective::InjectChannel::Config chcfg;
  chcfg.world = tcfg.world;
  chcfg.injector.trim_rate = 0.25;
  chcfg.injector.seed = 11;
  collective::InjectChannel channel(chcfg);

  DdpTrainer trainer(data, channel, tcfg, [&] {
    ml::ModelConfig mcfg;
    mcfg.classes = dcfg.classes;
    mcfg.height = dcfg.height;
    mcfg.width = dcfg.width;
    return vgg ? ml::make_mini_vgg(mcfg, 4) : ml::make_mlp(mcfg, 32);
  });

  Fnv1a fnv;
  for (std::size_t round = 0; round < 3; ++round) {
    const double loss = trainer.run_epoch(round).train_loss;
    fnv.bytes(&loss, sizeof loss);
  }
  for (int r = 0; r < tcfg.world; ++r) {
    const std::vector<float> p = trainer.replica(r).flat_params();
    fnv.bytes(p.data(), p.size() * sizeof(float));
  }
  std::vector<std::uint32_t> labels;
  const ml::Tensor logits =
      trainer.replica(0).forward(data.test_batch(0, data.test_size(), labels));
  fnv.bytes(logits.ptr(), logits.size() * sizeof(float));
  return fnv.h;
}

TEST(TrajectoryDigest, MiniVggMatchesPinnedConstant) {
  for (const std::size_t threads : {1, 8}) {
    core::ThreadPool::set_global_threads(threads);
    EXPECT_EQ(trajectory_digest(true), kVggDigest)
        << "at " << threads << " pool threads";
  }
  core::ThreadPool::set_global_threads(1);
}

TEST(TrajectoryDigest, MlpMatchesPinnedConstant) {
  for (const std::size_t threads : {1, 8}) {
    core::ThreadPool::set_global_threads(threads);
    EXPECT_EQ(trajectory_digest(false), kMlpDigest)
        << "at " << threads << " pool threads";
  }
  core::ThreadPool::set_global_threads(1);
}

}  // namespace
}  // namespace trimgrad::ddp
