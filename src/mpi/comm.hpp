// openSAGE -- minimpi: an MPI-like message-passing layer over the emulated
// fabric.
//
// One Communicator instance exists per (rank, communication context); the
// world communicator is created from a NodeContext. Sends are eager and
// buffered (payloads are copied into the fabric), so sendrecv-style
// exchange patterns cannot deadlock. All operations propagate virtual
// time: a blocking receive joins the receiver's clock with the message's
// modeled arrival time.
//
// Collectives follow MPI semantics: every rank of the communicator must
// call them in the same order. Implemented algorithms:
//   barrier      -- dissemination
//   bcast        -- binomial tree
//   reduce       -- binomial tree combine
//   allreduce    -- reduce + bcast
//   gather(v)/scatter -- linear to/from root
//   allgather    -- ring
//   alltoall     -- pairwise-XOR / ring-shift / vendor bulk (see alltoall.hpp)
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "net/machine.hpp"
#include "support/error.hpp"

namespace sage::mpi {

/// Upper bound (exclusive) for user-supplied tags; larger values are
/// reserved for collective-operation channels.
inline constexpr int kMaxUserTag = 4096;

inline constexpr int kAnySource = net::kAnySource;
inline constexpr int kAnyTag = net::kAnyTag;

/// Completion information for a receive.
struct Status {
  int source = 0;
  int tag = 0;
  std::size_t bytes = 0;
};

/// Binary reduction over raw elements; combines `count` elements of
/// `in` into `inout`.
using ReduceFn =
    std::function<void(const std::byte* in, std::byte* inout, std::size_t count)>;

class Request;

class Communicator {
 public:
  /// World communicator over all nodes of the machine.
  explicit Communicator(net::NodeContext& node);

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(group_.size()); }
  net::NodeContext& node() { return node_; }

  /// Host wall-clock budget for blocking receives before they throw
  /// sage::CommError (turns emulated-network deadlocks into failures).
  double recv_timeout() const { return recv_timeout_s_; }

  /// Splits into sub-communicators by color (ranks with equal color join
  /// the same new communicator; key orders ranks, ties broken by old
  /// rank). Collective. Returns nullptr for color < 0 (MPI_UNDEFINED).
  std::unique_ptr<Communicator> split(int color, int key);

  // --- point to point (byte level) ---------------------------------------
  void send_bytes(std::span<const std::byte> data, int dst, int tag);
  Status recv_bytes(std::span<std::byte> data, int src, int tag);
  /// Zero-copy receive: returns the pooled payload handle itself (the
  /// buffer goes back to the fabric's pool when the handle dies).
  net::Payload recv_payload(int src, int tag, Status* status = nullptr);
  /// Combined exchange (safe because sends are eager).
  Status sendrecv_bytes(std::span<const std::byte> send, int dst, int sendtag,
                        std::span<std::byte> recv, int src, int recvtag);

  // --- point to point (typed) ---------------------------------------------
  template <typename T>
  void send(std::span<const T> data, int dst, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(std::as_bytes(data), dst, tag);
  }

  template <typename T>
  Status recv(std::span<T> data, int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    return recv_bytes(std::as_writable_bytes(data), src, tag);
  }

  template <typename T>
  void send_value(const T& v, int dst, int tag) {
    send(std::span<const T>(&v, 1), dst, tag);
  }

  template <typename T>
  T recv_value(int src, int tag) {
    T v{};
    recv(std::span<T>(&v, 1), src, tag);
    return v;
  }

  // --- nonblocking ----------------------------------------------------------
  Request isend_bytes(std::span<const std::byte> data, int dst, int tag);
  Request irecv_bytes(std::span<std::byte> data, int src, int tag);

  // --- collectives (byte level) ----------------------------------------------
  void barrier();
  void bcast_bytes(std::span<std::byte> data, int root);
  void reduce_bytes(std::span<const std::byte> in, std::span<std::byte> out,
                    std::size_t elem_size, const ReduceFn& op, int root);
  void allreduce_bytes(std::span<const std::byte> in, std::span<std::byte> out,
                       std::size_t elem_size, const ReduceFn& op);
  /// Gathers equal-size blocks to root; `out` must hold size()*in.size()
  /// bytes at root and may be empty elsewhere.
  void gather_bytes(std::span<const std::byte> in, std::span<std::byte> out,
                    int root);
  void scatter_bytes(std::span<const std::byte> in, std::span<std::byte> out,
                     int root);
  void allgather_bytes(std::span<const std::byte> in, std::span<std::byte> out);
  /// Variable-size gather: rank r contributes counts[r] bytes, packed
  /// in rank order at the root. counts must agree on every rank.
  void gatherv_bytes(std::span<const std::byte> in, std::span<std::byte> out,
                     std::span<const std::size_t> counts, int root);
  /// Variable-size scatter: rank r receives counts[r] bytes.
  void scatterv_bytes(std::span<const std::byte> in, std::span<std::byte> out,
                      std::span<const std::size_t> counts, int root);

  // --- collectives (typed convenience) -----------------------------------------
  template <typename T>
  void bcast(std::span<T> data, int root) {
    bcast_bytes(std::as_writable_bytes(data), root);
  }

  template <typename T, typename Op>
  void allreduce(std::span<const T> in, std::span<T> out, Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    allreduce_bytes(std::as_bytes(in), std::as_writable_bytes(out), sizeof(T),
                    make_reduce_fn<T>(op));
  }

  template <typename T, typename Op>
  void reduce(std::span<const T> in, std::span<T> out, Op op, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    reduce_bytes(std::as_bytes(in), std::as_writable_bytes(out), sizeof(T),
                 make_reduce_fn<T>(op), root);
  }

  template <typename T>
  void gather(std::span<const T> in, std::span<T> out, int root) {
    gather_bytes(std::as_bytes(in), std::as_writable_bytes(out), root);
  }

  template <typename T>
  void scatter(std::span<const T> in, std::span<T> out, int root) {
    scatter_bytes(std::as_bytes(in), std::as_writable_bytes(out), root);
  }

  template <typename T>
  void allgather(std::span<const T> in, std::span<T> out) {
    allgather_bytes(std::as_bytes(in), std::as_writable_bytes(out));
  }

  // --- internals shared with the alltoall implementations -----------------
  /// Next per-collective sequence number (all ranks advance in lockstep
  /// because collectives are called in the same order everywhere).
  int next_collective_seq() { return collective_seq_++ & 0xFF; }
  /// Encodes a collective channel tag. `op` < 16, `seq` < 256.
  int collective_tag(int op, int seq) const {
    return kMaxUserTag + op * 256 + seq;
  }
  int world_rank_of(int comm_rank) const {
    return group_[static_cast<std::size_t>(comm_rank)];
  }
  int fabric_tag(int local_tag) const;
  void raw_send(int dst_comm_rank, int tag, std::span<const std::byte> data,
                bool vendor_bulk = false);
  /// Zero-copy variant: hands a pooled payload to the fabric by handle.
  void raw_send(int dst_comm_rank, int tag, net::Payload payload,
                bool vendor_bulk = false);
  Status raw_recv(std::span<std::byte> data, int src_comm_rank, int tag);

  template <typename T, typename Op>
  static ReduceFn make_reduce_fn(Op op) {
    return [op](const std::byte* in, std::byte* inout, std::size_t count) {
      const T* a = reinterpret_cast<const T*>(in);
      T* b = reinterpret_cast<T*>(inout);
      for (std::size_t i = 0; i < count; ++i) b[i] = op(a[i], b[i]);
    };
  }

 private:
  Communicator(net::NodeContext& node, std::vector<int> group, int rank,
               int context_id);

  int comm_rank_of_world(int world_rank) const;

  net::NodeContext& node_;
  std::vector<int> group_;  // comm rank -> world rank
  int rank_;                // my rank within this communicator
  int context_id_;
  int next_child_context_ = 1;
  int collective_seq_ = 0;
  double recv_timeout_s_ = 60.0;
};

/// Handle for a nonblocking operation. Sends complete immediately (eager
/// buffering); receives complete in wait().
class Request {
 public:
  /// Blocks until the operation completes; returns receive status
  /// (default Status for sends).
  Status wait();
  bool done() const { return done_; }

 private:
  friend class Communicator;
  Request() = default;

  Communicator* comm_ = nullptr;
  std::span<std::byte> recv_buffer_{};
  int src_ = 0;
  int tag_ = 0;
  bool is_recv_ = false;
  bool done_ = true;
  Status status_{};
};

}  // namespace sage::mpi
