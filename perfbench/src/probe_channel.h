// ProbeChannel: a pass-through collective::Channel the benchmark puts
// between the trainer and the channel under test.
//
// Untraced, it only marks round boundaries (the trainer drains
// take_feedback() exactly once per round) and notes failed flows, so the
// end-to-end run pays one extra virtual call per transfer batch. Traced, it
// also keeps a copy of every batch it forwards, times the inner transfer()
// and checks each delivery against what was sent, independently of the
// program:
//   * packets received + packets dropped == packets sent;
//   * header fields and head regions arrive byte-identical;
//   * an untrimmed tail arrives byte-identical, a trimmed packet has none;
//   * the reliable metadata arrives intact.
// That is the trimming property: a switch may cut tails, nothing else
// changes, and no corrupted payload reaches the decoder.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "collective/channel.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class ProbeChannel final : public trimgrad::collective::Channel {
 public:
  /// What the traced mode counted, summed over every transfer batch.
  struct Totals {
    double transfer_s = 0;  ///< host time inside the inner transfer()
    double probe_s = 0;     ///< host time copying and checking (tracing cost)
    double lead_s = 0;      ///< host time from round start to its first transfer
    std::uint64_t messages = 0;
    std::uint64_t packets = 0;  ///< data packets offered by the senders
    std::uint64_t trimmed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t coords = 0;  ///< gradient coordinates the messages carry
  };

  /// `inner` must outlive the probe.
  ProbeChannel(trimgrad::collective::Channel& inner, bool trace)
      : inner_(inner), trace_(trace) {}

  std::vector<trimgrad::collective::Delivery> transfer(
      std::vector<trimgrad::collective::TransferRequest> batch) override;
  int world_size() const override { return inner_.world_size(); }
  /// Closes the current round, then forwards to the inner channel.
  trimgrad::core::NetFeedback take_feedback() override;

  /// Bracket DdpTrainer::run_epoch: the first round starts at begin_epoch,
  /// and the epoch-end bookkeeping after the last drain is billed to the
  /// last round, so an epoch's rounds sum to its host time.
  void begin_epoch() { mark_ = Clock::now(); }
  void end_epoch();

  const std::vector<double>& round_seconds() const { return round_s_; }
  /// Rounds that proceeded degraded: at least one flow failed.
  std::size_t failed_rounds() const { return failed_rounds_; }
  const Totals& totals() const { return totals_; }
  std::uint64_t violations() const { return violations_; }
  const std::string& first_violation() const { return first_violation_; }

 private:
  trimgrad::collective::Channel& inner_;
  bool trace_;
  Clock::time_point mark_ = Clock::now();
  std::vector<double> round_s_;
  bool round_failed_ = false;
  bool round_sent_ = false;  ///< the current round has called transfer()
  std::size_t failed_rounds_ = 0;
  Totals totals_;
  std::uint64_t violations_ = 0;
  std::string first_violation_;
};

}  // namespace perfbench
