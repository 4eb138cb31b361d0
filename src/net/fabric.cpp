#include "net/fabric.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace sage::net {

Fabric::Fabric(int node_count, FabricModel model, TransportOptions transport)
    : node_count_(node_count),
      model_(std::move(model)),
      boxes_(node_count),
      link_seq_(static_cast<std::size_t>(node_count) * node_count, 0),
      link_stats_(static_cast<std::size_t>(node_count) * node_count),
      link_free_(static_cast<std::size_t>(node_count) * node_count, 0.0) {
  SAGE_CHECK_AS(CommError, node_count > 0, "fabric needs at least one node");
  // The sink every backend converges on: the destination mailbox. The
  // in-process backend calls it synchronously on the sender's thread
  // (the historical path, verbatim); shmem calls it from its
  // receive threads after the bytes crossed the process boundary.
  transport_ = make_transport(transport, node_count, pool_,
                              [this](int dst, Parcel&& parcel) {
                                Mailbox& box =
                                    boxes_[static_cast<std::size_t>(dst)];
                                std::lock_guard<std::mutex> lock(box.mu);
                                box.queue.push_back(std::move(parcel));
                                box.cv.notify_all();
                              });
}

void Fabric::set_fault_plan(std::shared_ptr<const FaultPlan> plan) {
  plan_ = std::move(plan);
}

std::uint64_t Fabric::next_link_seq_(int src, int dst) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return link_seq_[link_index_(src, dst)]++;
}

Payload Fabric::deliverable_(Payload payload, const FaultOutcome& outcome) {
  if (outcome.kind == FaultKind::kDrop) {
    // Tombstone: the payload was transmitted and lost; the receiver
    // learns of the loss only after its detection timeout.
    return Payload{};
  }
  if (outcome.kind == FaultKind::kCorrupt && !payload.empty()) {
    // Copy-on-write: the corrupted attempt gets its own block, so
    // fan-out sharers and retransmits keep the clean bytes.
    Payload corrupted = pool_.copy_of(payload.bytes());
    std::span<std::byte> flip = corrupted.writable();
    std::uint64_t state = outcome.draw;
    for (std::size_t i = 0; i < outcome.corrupt_bytes; ++i) {
      const std::uint64_t pos = support::splitmix64(state);
      flip[pos % flip.size()] ^= std::byte{0xFF};
    }
    return corrupted;
  }
  return payload;
}

support::VirtualSeconds Fabric::enqueue_(int src, int dst, int tag,
                                         Payload payload,
                                         std::size_t wire_bytes,
                                         support::VirtualSeconds now_vt,
                                         const SendOptions& options,
                                         const FaultOutcome& outcome,
                                         double extra_arrival_vt,
                                         int attempt) {
  SAGE_CHECK_AS(CommError, src >= 0 && src < node_count_, "bad src rank ", src);
  SAGE_CHECK_AS(CommError, dst >= 0 && dst < node_count_, "bad dst rank ", dst);

  const double overhead_factor =
      options.vendor_bulk ? model_.vendor_bulk_overhead_factor : 1.0;
  const double send_cost = model_.send_overhead_s * overhead_factor;
  const double recv_cost = model_.recv_overhead_s * overhead_factor;
  const support::VirtualSeconds sender_after = now_vt + send_cost;

  Parcel parcel;
  parcel.src = src;
  parcel.tag = tag;
  parcel.fault = outcome.kind;
  parcel.attempt = attempt;
  parcel.payload = std::move(payload);

  if (model_.model_contention && !model_.same_board(src, dst)) {
    // The board-pair channel serializes transfers: the bytes move when
    // both the sender has issued them and the link has drained. Links
    // are granted in send-call order (host order), a conservative
    // approximation of virtual-time arbitration.
    const int board_a = src / model_.nodes_per_board;
    const int board_b = dst / model_.nodes_per_board;
    const auto key = std::minmax(board_a, board_b);
    const double serialization =
        static_cast<double>(wire_bytes) / model_.bandwidth_Bps(src, dst);
    std::lock_guard<std::mutex> lock(stats_mu_);
    double& link_free = link_free_[link_index_(key.first, key.second)];
    const double start = std::max(sender_after, link_free);
    link_free = start + serialization;
    parcel.arrival_vt =
        start + serialization + model_.latency_s(src, dst) + recv_cost;
    ++total_messages_;
    total_bytes_ += wire_bytes;
    LinkStats& link = link_stats_[link_index_(src, dst)];
    ++link.messages;
    link.bytes += wire_bytes;
    link.busy_vt += serialization;
  } else {
    parcel.arrival_vt = sender_after +
                        model_.transfer_seconds(src, dst, wire_bytes) +
                        recv_cost;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++total_messages_;
    total_bytes_ += wire_bytes;
    LinkStats& link = link_stats_[link_index_(src, dst)];
    ++link.messages;
    link.bytes += wire_bytes;
  }
  parcel.arrival_vt += extra_arrival_vt;

  if (outcome.kind != FaultKind::kNone) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    switch (outcome.kind) {
      case FaultKind::kDrop: ++fault_counters_.drops; break;
      case FaultKind::kCorrupt: ++fault_counters_.corruptions; break;
      case FaultKind::kDelay: ++fault_counters_.delays; break;
      case FaultKind::kNone: break;
    }
  }

  transport_->deliver(dst, std::move(parcel));
  return sender_after;
}

support::VirtualSeconds Fabric::send(int src, int dst, int tag,
                                     std::span<const std::byte> bytes,
                                     support::VirtualSeconds now_vt,
                                     SendOptions options) {
  return send(src, dst, tag, pool_.copy_of(bytes), now_vt, options);
}

support::VirtualSeconds Fabric::send(int src, int dst, int tag,
                                     Payload payload,
                                     support::VirtualSeconds now_vt,
                                     SendOptions options) {
  FaultOutcome outcome;
  double extra = 0.0;
  if (plan_ && plan_->active() && !options.fault_exempt) {
    outcome = plan_->link_outcome(src, dst, next_link_seq_(src, dst));
    if (outcome.kind == FaultKind::kDrop) extra = plan_->detect_timeout_vt;
    if (outcome.kind == FaultKind::kDelay) extra = outcome.delay_vt;
  }
  const std::size_t wire_bytes = payload.size();
  return enqueue_(src, dst, tag, deliverable_(std::move(payload), outcome),
                  wire_bytes, now_vt, options, outcome, extra, 0);
}

SendReceipt Fabric::send_reliable(int src, int dst, int tag,
                                  std::span<const std::byte> bytes,
                                  support::VirtualSeconds now_vt,
                                  SendOptions options) {
  return send_reliable(src, dst, tag, pool_.copy_of(bytes), now_vt, options);
}

SendReceipt Fabric::send_reliable(int src, int dst, int tag, Payload payload,
                                  support::VirtualSeconds now_vt,
                                  SendOptions options) {
  SendReceipt receipt;
  const std::size_t wire_bytes = payload.size();
  if (!plan_ || !plan_->active() || options.fault_exempt) {
    receipt.sender_after = enqueue_(src, dst, tag, std::move(payload),
                                    wire_bytes, now_vt, options, {}, 0.0, 0);
    return receipt;
  }

  // Analytic ARQ: every attempt is resolved and enqueued right now, so
  // the receiver sees the full (deterministic) sequence of faulted
  // attempts followed by the clean one, and the sender pays the
  // detection timeout plus exponential backoff in virtual time without
  // ever blocking for an acknowledgement (sends stay eager, so the
  // fault layer introduces no new deadlock modes). All attempts share
  // the payload's block; faulted attempts tombstone or clone it.
  support::VirtualSeconds t = now_vt;
  double backoff = plan_->detect_timeout_vt;
  for (int attempt = 0;; ++attempt) {
    SAGE_CHECK_AS(CommError, attempt < plan_->max_attempts, "link ", src,
                  "->", dst, " tag ", tag, ": transfer still failing after ",
                  plan_->max_attempts,
                  " attempts (unrecoverable link failure under fault plan)");
    const FaultOutcome outcome =
        plan_->link_outcome(src, dst, next_link_seq_(src, dst));
    double extra = 0.0;
    if (outcome.kind == FaultKind::kDrop) extra = plan_->detect_timeout_vt;
    if (outcome.kind == FaultKind::kDelay) extra = outcome.delay_vt;
    t = enqueue_(src, dst, tag, deliverable_(payload, outcome), wire_bytes, t,
                 options, outcome, extra, attempt);
    receipt.attempts = attempt + 1;
    if (outcome.kind == FaultKind::kDrop ||
        outcome.kind == FaultKind::kCorrupt) {
      t += backoff;
      backoff *= plan_->backoff_factor;
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++fault_counters_.retransmits;
      ++link_stats_[link_index_(src, dst)].retransmits;
      continue;
    }
    break;
  }
  receipt.sender_after = t;
  return receipt;
}

Message Fabric::recv(int dst, int src, int tag, double timeout_wall_s) {
  SAGE_CHECK_AS(CommError, dst >= 0 && dst < node_count_, "bad dst rank ", dst);
  Mailbox& box = boxes_[static_cast<std::size_t>(dst)];
  std::unique_lock<std::mutex> lock(box.mu);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::duration<double>(timeout_wall_s));
  for (;;) {
    auto it = std::find_if(box.queue.begin(), box.queue.end(),
                           [&](const Parcel& p) { return match_(p, src, tag); });
    if (it != box.queue.end()) {
      Message out;
      out.src = it->src;
      out.tag = it->tag;
      out.payload = std::move(it->payload);
      out.arrival_vt = it->arrival_vt;
      out.fault = it->fault;
      out.attempt = it->attempt;
      box.queue.erase(it);
      return out;
    }
    if (box.cv.wait_until(lock, deadline) == std::cv_status::timeout) {
      raise<CommError>("recv timeout on rank ", dst, " waiting for src=", src,
                       " tag=", tag, " after ", timeout_wall_s,
                       "s wall time (likely emulated-network deadlock)");
    }
  }
}

std::optional<Message> Fabric::try_recv(int dst, int src, int tag) {
  SAGE_CHECK_AS(CommError, dst >= 0 && dst < node_count_, "bad dst rank ", dst);
  Mailbox& box = boxes_[static_cast<std::size_t>(dst)];
  std::lock_guard<std::mutex> lock(box.mu);
  auto it = std::find_if(box.queue.begin(), box.queue.end(),
                         [&](const Parcel& p) { return match_(p, src, tag); });
  if (it == box.queue.end()) return std::nullopt;
  Message out;
  out.src = it->src;
  out.tag = it->tag;
  out.payload = std::move(it->payload);
  out.arrival_vt = it->arrival_vt;
  out.fault = it->fault;
  out.attempt = it->attempt;
  box.queue.erase(it);
  return out;
}

std::size_t Fabric::pending(int dst) const {
  const Mailbox& box = boxes_[static_cast<std::size_t>(dst)];
  std::lock_guard<std::mutex> lock(box.mu);
  return box.queue.size();
}

std::uint64_t Fabric::total_messages() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return total_messages_;
}

std::uint64_t Fabric::total_bytes() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return total_bytes_;
}

FaultCounters Fabric::fault_counters() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return fault_counters_;
}

std::map<std::pair<int, int>, LinkStats> Fabric::link_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  std::map<std::pair<int, int>, LinkStats> out;
  for (int src = 0; src < node_count_; ++src) {
    for (int dst = 0; dst < node_count_; ++dst) {
      const LinkStats& link = link_stats_[link_index_(src, dst)];
      if (link == LinkStats{}) continue;
      out[{src, dst}] = link;
    }
  }
  return out;
}

void Fabric::reset() {
  // Settle the transport first: with an async backend (shmem rings),
  // accepted messages may still be crossing the wire, and a
  // parcel landing *after* the drain below would leak into the next
  // run's mailboxes -- breaking warm-run determinism.
  transport_->flush();
  for (Mailbox& box : boxes_) {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queue.clear();  // releases parcel payloads back to the pool
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  total_messages_ = 0;
  total_bytes_ = 0;
  fault_counters_ = {};
  std::fill(link_seq_.begin(), link_seq_.end(), 0);
  std::fill(link_stats_.begin(), link_stats_.end(), LinkStats{});
  std::fill(link_free_.begin(), link_free_.end(), 0.0);
}

}  // namespace sage::net
