// Codec and all-reduce probes, and the benchmark's self-test.
//
// The probes run on a workload's codec configuration and gradient length,
// with seeded Gaussian inputs, and check the program against values the
// benchmark computes itself:
//   * AllReducer::run over a loss-free inject channel reproduces the mean
//     of the inputs, computed here in double precision, to within what
//     Q=31 tails can carry;
//   * a fully trimmed RHT decode has NMSE near pi/2 - 1 ~= 0.571, the
//     unbiased-scale constant of DESIGN.md deviation 2.
// Each returns an empty string on success, otherwise what went wrong.
#pragma once

#include <cstdint>
#include <string>

#include "core/codec.h"

namespace perfbench {

/// Faults the self-test seeds between the probe channel and the channel
/// under test, or into the all-reduce output.
enum class Fault { kNone, kFlipTailByte, kDropUncounted };

std::string check_allreduce(const trimgrad::core::CodecConfig& codec,
                            std::size_t coords, int world,
                            std::uint64_t seed, Fault fault = Fault::kNone,
                            double output_scale = 1.0);

std::string check_trimmed_nmse(const trimgrad::core::CodecConfig& codec,
                               std::size_t coords, std::uint64_t seed);

/// Every check must pass on clean inputs and fail on each seeded fault.
/// Prints one line per case; returns the number of cases that misbehaved.
int self_test();

}  // namespace perfbench
