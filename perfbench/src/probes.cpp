#include "probes.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <vector>

#include "collective/allreduce.h"
#include "collective/inject_channel.h"
#include "core/prng.h"
#include "probe_channel.h"

namespace perfbench {

using namespace trimgrad;

namespace {

/// Largest all-reduce error, relative to the RMS of the true mean, that
/// Q=31 tails leave after the parameter server's two codec passes. A clean
/// run measures ~1e-6; the self-test's 1.01 output scale gives ~3e-2.
constexpr double kMeanTolerance = 1e-4;
/// DESIGN.md deviation 2 constant and the codec tests' tolerance around it.
constexpr double kTrimmedNmse = std::numbers::pi / 2.0 - 1.0;
constexpr double kTrimmedNmseTolerance = 0.05;

/// Expected fully trimmed NMSE over `coords` coordinates cut into rows of
/// `row_len`. The last row is zero-padded to a power of two, and the
/// rotation spreads its error evenly over the padded length, so only the
/// share len/padded of that row's error lands on real coordinates.
double expected_trimmed_nmse(std::size_t coords, std::size_t row_len) {
  const std::size_t rem = coords % row_len;
  const double last = rem == 0 ? 0.0
                               : static_cast<double>(rem) * static_cast<double>(rem) /
                                     static_cast<double>(std::bit_ceil(rem));
  return kTrimmedNmse *
         (static_cast<double>(coords - rem) + last) / static_cast<double>(coords);
}

/// Damages the first delivery it can, once.
class FaultyChannel final : public collective::Channel {
 public:
  FaultyChannel(collective::Channel& inner, Fault fault)
      : inner_(inner), fault_(fault) {}

  std::vector<collective::Delivery> transfer(
      std::vector<collective::TransferRequest> batch) override {
    auto out = inner_.transfer(std::move(batch));
    for (collective::Delivery& d : out) {
      if (done_) break;
      if (fault_ == Fault::kDropUncounted && !d.packets.empty()) {
        d.packets.erase(d.packets.begin());
        done_ = true;
      }
      for (core::GradientPacket& p : d.packets) {
        if (fault_ != Fault::kFlipTailByte || done_) break;
        if (!p.tail_region.empty()) {
          p.tail_region[p.tail_region.size() / 2] ^= 0x10;
          done_ = true;
        }
      }
    }
    return out;
  }
  int world_size() const override { return inner_.world_size(); }
  core::NetFeedback take_feedback() override { return inner_.take_feedback(); }

 private:
  collective::Channel& inner_;
  Fault fault_;
  bool done_ = false;
};

std::vector<float> gaussian(std::size_t n, core::Xoshiro256& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

collective::InjectChannel::Config inject_config(int world, double trim,
                                                std::uint64_t seed) {
  collective::InjectChannel::Config cfg;
  cfg.world = world;
  cfg.injector.trim_rate = trim;
  cfg.injector.drop_rate = 0.0;
  cfg.injector.seed = seed;
  return cfg;
}

}  // namespace

std::string check_allreduce(const core::CodecConfig& codec, std::size_t coords,
                            int world, std::uint64_t seed, Fault fault,
                            double output_scale) {
  collective::InjectChannel lossless(inject_config(world, 0.0, seed));
  FaultyChannel faulty(lossless, fault);
  ProbeChannel probe(faulty, /*trace=*/true);
  collective::AllReducer reducer(probe, codec, collective::Algorithm::kPs);

  core::Xoshiro256 rng(seed);
  std::vector<std::vector<float>> grads;
  for (int r = 0; r < world; ++r) grads.push_back(gaussian(coords, rng));
  const auto result = reducer.run(grads, 1, 0);
  if (probe.violations() > 0) {
    return "delivery check: " + probe.first_violation();
  }

  std::vector<double> mean(coords, 0.0);
  for (const auto& g : grads) {
    for (std::size_t i = 0; i < coords; ++i) mean[i] += g[i];
  }
  double sq = 0;
  for (double& m : mean) {
    m /= world;
    sq += m * m;
  }
  const double rms = std::sqrt(sq / static_cast<double>(coords));
  double worst = 0;
  for (const auto& out : result.outputs) {
    if (out.size() != coords) return "all-reduce output has the wrong length";
    for (std::size_t i = 0; i < coords; ++i) {
      const double err = std::fabs(out[i] * output_scale - mean[i]) / rms;
      worst = std::isnan(err) ? INFINITY : std::max(worst, err);
    }
  }
  if (worst > kMeanTolerance) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "all-reduce output off the mean by %.3g x RMS (limit %.0e)",
                  worst, kMeanTolerance);
    return buf;
  }
  return {};
}

std::string check_trimmed_nmse(const core::CodecConfig& codec,
                               std::size_t coords, std::uint64_t seed) {
  if (codec.scheme != core::Scheme::kRHT) return {};
  core::Xoshiro256 rng(seed);
  const std::vector<float> x = gaussian(coords, rng);
  core::TrimmableEncoder enc(codec);
  collective::TransferRequest req{1, 0, enc.encode(x, 1, 0)};
  const std::size_t sent = req.message.packets.size();

  collective::InjectChannel trim_all(inject_config(2, 1.0, seed));
  ProbeChannel probe(trim_all, /*trace=*/true);
  std::vector<collective::TransferRequest> batch;
  batch.push_back(std::move(req));
  const auto out = probe.transfer(std::move(batch));
  if (probe.violations() > 0) {
    return "delivery check: " + probe.first_violation();
  }
  if (out.size() != 1 || out[0].trimmed_packets != sent) {
    return "trim-everything channel left packets untrimmed";
  }
  const auto dec =
      core::TrimmableDecoder(codec).decode(out[0].packets, out[0].meta);
  double err = 0, norm = 0;
  for (std::size_t i = 0; i < coords; ++i) {
    const double d = static_cast<double>(dec.values[i]) - x[i];
    err += d * d;
    norm += static_cast<double>(x[i]) * x[i];
  }
  const double nmse = err / norm;
  const double expected = expected_trimmed_nmse(coords, codec.rht_row_len);
  if (!(std::fabs(nmse - expected) <= kTrimmedNmseTolerance)) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "fully trimmed RHT NMSE %.4f, expected %.4f +- %.2f", nmse,
                  expected, kTrimmedNmseTolerance);
    return buf;
  }
  return {};
}

int self_test() {
  core::CodecConfig codec;
  codec.rht_row_len = std::size_t{1} << 12;
  constexpr std::size_t kCoords = 20000;
  constexpr int kWorld = 4;
  constexpr std::uint64_t kSeed = 12345;

  struct Case {
    const char* name;
    bool must_pass;
    std::string outcome;
  };
  const std::vector<Case> cases = {
      {"clean all-reduce", true, check_allreduce(codec, kCoords, kWorld, kSeed)},
      {"clean trimmed decode", true, check_trimmed_nmse(codec, kCoords, kSeed)},
      {"one tail byte flipped", false,
       check_allreduce(codec, kCoords, kWorld, kSeed, Fault::kFlipTailByte)},
      {"one packet dropped uncounted", false,
       check_allreduce(codec, kCoords, kWorld, kSeed, Fault::kDropUncounted)},
      {"all-reduce output x1.01", false,
       check_allreduce(codec, kCoords, kWorld, kSeed, Fault::kNone, 1.01)},
  };
  int bad = 0;
  for (const Case& c : cases) {
    const bool passed = c.outcome.empty();
    const bool ok = passed == c.must_pass;
    if (!ok) ++bad;
    std::printf("self-test %-30s %s (%s)\n", c.name, ok ? "ok" : "WRONG",
                passed ? "check passed" : c.outcome.c_str());
  }
  return bad;
}

}  // namespace perfbench
