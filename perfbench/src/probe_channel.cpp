#include "probe_channel.h"

#include <bit>
#include <unordered_map>

namespace perfbench {

using trimgrad::collective::Delivery;
using trimgrad::collective::TransferRequest;
using trimgrad::core::GradientPacket;
using trimgrad::core::MessageMeta;

namespace {

bool same_floats(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i]))
      return false;
  }
  return true;
}

bool same_meta(const MessageMeta& a, const MessageMeta& b) {
  return a.msg_id == b.msg_id && a.epoch == b.epoch && a.scheme == b.scheme &&
         a.total_coords == b.total_coords && a.row_len == b.row_len &&
         std::bit_cast<std::uint32_t>(a.scalar_scale) ==
             std::bit_cast<std::uint32_t>(b.scalar_scale) &&
         same_floats(a.row_scales, b.row_scales) && a.perm == b.perm &&
         a.lr_rows == b.lr_rows && a.lr_cols == b.lr_cols &&
         a.lr_rank == b.lr_rank && a.lr_head == b.lr_head &&
         same_floats(a.lr_q, b.lr_q);
}

bool same_header(const GradientPacket& a, const GradientPacket& b) {
  return a.msg_id == b.msg_id && a.row_id == b.row_id &&
         a.coord_base == b.coord_base && a.n_coords == b.n_coords &&
         a.seq == b.seq && a.scheme == b.scheme && a.p_bits == b.p_bits &&
         a.q_bits == b.q_bits;
}

/// Empty when `got` is a faithful (possibly trimmed) delivery of `sent`,
/// otherwise a one-line description of the first discrepancy.
std::string check_delivery(const TransferRequest& sent, const Delivery& got) {
  const auto& tx = sent.message.packets;
  if (got.src != sent.src || got.dst != sent.dst) return "endpoints changed";
  if (!same_meta(got.meta, sent.message.meta)) return "metadata altered";
  const std::size_t accounted = got.packets.size() + got.dropped_packets;
  // A failed flow may stop short; it still may not invent packets.
  if (accounted > tx.size() || (!got.flow_failed && accounted != tx.size())) {
    return "received " + std::to_string(got.packets.size()) + " + dropped " +
           std::to_string(got.dropped_packets) + " != sent " +
           std::to_string(tx.size());
  }
  std::unordered_map<std::uint16_t, std::size_t> by_seq;
  by_seq.reserve(tx.size());
  for (std::size_t i = 0; i < tx.size(); ++i) {
    if (!by_seq.emplace(tx[i].seq, i).second) return "sender reused a seq";
  }
  std::vector<bool> seen(tx.size(), false);
  std::size_t trimmed = 0;
  for (const GradientPacket& p : got.packets) {
    const auto it = by_seq.find(p.seq);
    if (it == by_seq.end()) return "packet with a seq never sent";
    if (seen[it->second]) return "packet delivered twice";
    seen[it->second] = true;
    const GradientPacket& s = tx[it->second];
    if (!same_header(p, s)) return "packet header altered";
    if (p.head_region != s.head_region) return "head region altered";
    if (p.trimmed) {
      ++trimmed;
      if (!p.tail_region.empty()) return "trimmed packet kept a tail";
    } else if (p.tail_region != s.tail_region) {
      return "untrimmed tail altered";
    }
  }
  if (trimmed != got.trimmed_packets) return "trimmed count disagrees";
  return {};
}

}  // namespace

std::vector<Delivery> ProbeChannel::transfer(std::vector<TransferRequest> batch) {
  if (!trace_) {
    auto out = inner_.transfer(std::move(batch));
    for (const Delivery& d : out) round_failed_ = round_failed_ || d.flow_failed;
    return out;
  }
  const auto t0 = Clock::now();
  if (!round_sent_) {
    totals_.lead_s += std::chrono::duration<double>(t0 - mark_).count();
    round_sent_ = true;
  }
  const std::vector<TransferRequest> sent = batch;
  const auto t1 = Clock::now();
  auto out = inner_.transfer(std::move(batch));
  const auto t2 = Clock::now();
  totals_.transfer_s += std::chrono::duration<double>(t2 - t1).count();
  if (out.size() != sent.size()) {
    ++violations_;
    if (first_violation_.empty()) first_violation_ = "delivery count != request count";
  }
  for (std::size_t i = 0; i < out.size() && i < sent.size(); ++i) {
    const Delivery& d = out[i];
    round_failed_ = round_failed_ || d.flow_failed;
    const std::string err = check_delivery(sent[i], d);
    if (!err.empty()) {
      ++violations_;
      if (first_violation_.empty()) first_violation_ = err;
    }
    ++totals_.messages;
    totals_.packets += sent[i].message.packets.size();
    totals_.trimmed += d.trimmed_packets;
    totals_.dropped += d.dropped_packets;
    totals_.retransmits += d.retransmits;
    totals_.wire_bytes += d.wire_bytes;
    totals_.coords += sent[i].message.meta.total_coords;
  }
  totals_.probe_s += std::chrono::duration<double>(t1 - t0).count() +
                     seconds_since(t2);
  return out;
}

trimgrad::core::NetFeedback ProbeChannel::take_feedback() {
  const auto now = Clock::now();
  round_s_.push_back(std::chrono::duration<double>(now - mark_).count());
  mark_ = now;
  if (round_failed_) ++failed_rounds_;
  round_failed_ = false;
  round_sent_ = false;
  return inner_.take_feedback();
}

void ProbeChannel::end_epoch() {
  if (!round_s_.empty()) round_s_.back() += seconds_since(mark_);
}

}  // namespace perfbench
