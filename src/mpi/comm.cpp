#include "mpi/comm.hpp"

#include <algorithm>
#include <numeric>

namespace sage::mpi {

namespace {

// Collective opcodes used in channel tags.
enum CollectiveOp {
  kOpBarrier = 0,
  kOpBcast = 1,
  kOpReduce = 2,
  kOpGather = 3,
  kOpScatter = 4,
  kOpAllgather = 5,
  kOpAlltoall = 6,
  kOpSplit = 7,
};

}  // namespace

Communicator::Communicator(net::NodeContext& node) : node_(node) {
  group_.resize(static_cast<std::size_t>(node.size()));
  std::iota(group_.begin(), group_.end(), 0);
  rank_ = node.rank();
  context_id_ = 0;
}

Communicator::Communicator(net::NodeContext& node, std::vector<int> group,
                           int rank, int context_id)
    : node_(node), group_(std::move(group)), rank_(rank),
      context_id_(context_id) {}

int Communicator::fabric_tag(int local_tag) const {
  return (context_id_ << 16) | (local_tag & 0xFFFF);
}

int Communicator::comm_rank_of_world(int world_rank) const {
  auto it = std::find(group_.begin(), group_.end(), world_rank);
  SAGE_CHECK_AS(CommError, it != group_.end(),
                "world rank ", world_rank, " not in communicator");
  return static_cast<int>(it - group_.begin());
}

void Communicator::raw_send(int dst_comm_rank, int tag,
                            std::span<const std::byte> data,
                            bool vendor_bulk) {
  raw_send(dst_comm_rank, tag, node_.fabric().pool().copy_of(data),
           vendor_bulk);
}

void Communicator::raw_send(int dst_comm_rank, int tag, net::Payload payload,
                            bool vendor_bulk) {
  SAGE_CHECK_AS(CommError, dst_comm_rank >= 0 && dst_comm_rank < size(),
                "send: bad destination rank ", dst_comm_rank);
  net::SendOptions options;
  options.vendor_bulk = vendor_bulk;
  const auto after = node_.fabric().send(
      world_rank_of(rank_), world_rank_of(dst_comm_rank), fabric_tag(tag),
      std::move(payload), node_.now(), options);
  node_.clock().join(after);
}

Status Communicator::raw_recv(std::span<std::byte> data, int src_comm_rank,
                              int tag) {
  const int world_src = (src_comm_rank == kAnySource)
                            ? net::kAnySource
                            : world_rank_of(src_comm_rank);
  const int match_tag = (tag == kAnyTag) ? net::kAnyTag : fabric_tag(tag);
  net::Message msg =
      node_.fabric().recv(world_rank_of(rank_), world_src, match_tag,
                          recv_timeout_s_);
  SAGE_CHECK_AS(CommError, msg.fault == net::FaultKind::kNone,
                "recv: got a ", net::to_string(msg.fault),
                "-faulted message on the unreliable MPI path (rank ", rank_,
                ", tag ", tag, "); the mpi layer has no recovery -- exempt "
                "this traffic from the fault plan or use the session layer");
  SAGE_CHECK_AS(CommError, msg.payload.size() <= data.size(),
                "recv: message of ", msg.payload.size(),
                " bytes overflows buffer of ", data.size(), " bytes");
  if (!msg.payload.empty()) {
    std::memcpy(data.data(), msg.payload.data(), msg.payload.size());
  }
  node_.clock().join(msg.arrival_vt);

  Status status;
  status.source = comm_rank_of_world(msg.src);
  status.tag = msg.tag & 0xFFFF;
  status.bytes = msg.payload.size();
  return status;
}

void Communicator::send_bytes(std::span<const std::byte> data, int dst,
                              int tag) {
  SAGE_CHECK_AS(CommError, tag >= 0 && tag < kMaxUserTag,
                "user tag out of range: ", tag);
  raw_send(dst, tag, data);
}

Status Communicator::recv_bytes(std::span<std::byte> data, int src, int tag) {
  SAGE_CHECK_AS(CommError, tag == kAnyTag || (tag >= 0 && tag < kMaxUserTag),
                "user tag out of range: ", tag);
  return raw_recv(data, src, tag);
}

net::Payload Communicator::recv_payload(int src, int tag, Status* status_out) {
  const int world_src =
      (src == kAnySource) ? net::kAnySource : world_rank_of(src);
  const int match_tag = (tag == kAnyTag) ? net::kAnyTag : fabric_tag(tag);
  net::Message msg =
      node_.fabric().recv(world_rank_of(rank_), world_src, match_tag,
                          recv_timeout_s_);
  SAGE_CHECK_AS(CommError, msg.fault == net::FaultKind::kNone,
                "recv: got a ", net::to_string(msg.fault),
                "-faulted message on the unreliable MPI path (rank ", rank_,
                ", tag ", tag, "); the mpi layer has no recovery -- exempt "
                "this traffic from the fault plan or use the session layer");
  node_.clock().join(msg.arrival_vt);
  if (status_out != nullptr) {
    status_out->source = comm_rank_of_world(msg.src);
    status_out->tag = msg.tag & 0xFFFF;
    status_out->bytes = msg.payload.size();
  }
  return std::move(msg.payload);
}

Status Communicator::sendrecv_bytes(std::span<const std::byte> send, int dst,
                                    int sendtag, std::span<std::byte> recv,
                                    int src, int recvtag) {
  send_bytes(send, dst, sendtag);
  return recv_bytes(recv, src, recvtag);
}

Request Communicator::isend_bytes(std::span<const std::byte> data, int dst,
                                  int tag) {
  send_bytes(data, dst, tag);  // eager: completes immediately
  Request req;
  req.comm_ = this;
  req.done_ = true;
  return req;
}

Request Communicator::irecv_bytes(std::span<std::byte> data, int src,
                                  int tag) {
  Request req;
  req.comm_ = this;
  req.recv_buffer_ = data;
  req.src_ = src;
  req.tag_ = tag;
  req.is_recv_ = true;
  req.done_ = false;
  return req;
}

Status Request::wait() {
  if (done_) return status_;
  SAGE_CHECK_AS(CommError, comm_ != nullptr, "wait on empty request");
  if (is_recv_) {
    status_ = comm_->recv_bytes(recv_buffer_, src_, tag_);
  }
  done_ = true;
  return status_;
}

std::unique_ptr<Communicator> Communicator::split(int color, int key) {
  // Gather (color, key, rank) from everyone via allgather, then each rank
  // computes its new group locally -- the textbook implementation.
  struct Entry {
    int color;
    int key;
    int old_rank;
  };
  const Entry mine{color, key, rank_};
  std::vector<Entry> all(static_cast<std::size_t>(size()));
  allgather_bytes(std::as_bytes(std::span<const Entry>(&mine, 1)),
                  std::as_writable_bytes(std::span<Entry>(all)));

  if (color < 0) return nullptr;

  std::vector<Entry> members;
  for (const Entry& e : all) {
    if (e.color == color) members.push_back(e);
  }
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.old_rank < b.old_rank;
  });

  std::vector<int> group;
  int new_rank = -1;
  group.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    group.push_back(world_rank_of(members[i].old_rank));
    if (members[i].old_rank == rank_) new_rank = static_cast<int>(i);
  }
  SAGE_CHECK_AS(CommError, new_rank >= 0, "split: rank not found in group");

  // Deterministic child context: all ranks of this communicator have made
  // the same number of splits, and color selects disjoint channels.
  const int child_context = context_id_ * 64 + next_child_context_ + color % 8;
  next_child_context_ += 8;
  return std::unique_ptr<Communicator>(
      new Communicator(node_, std::move(group), new_rank, child_context));
}

// --- collectives -----------------------------------------------------------

void Communicator::barrier() {
  const int seq = next_collective_seq();
  const int tag = collective_tag(kOpBarrier, seq);
  const int n = size();
  std::byte token{};
  for (int k = 1; k < n; k <<= 1) {
    const int dst = (rank_ + k) % n;
    const int src = (rank_ - k + n) % n;
    raw_send(dst, tag, std::span<const std::byte>(&token, 1));
    raw_recv(std::span<std::byte>(&token, 1), src, tag);
  }
}

void Communicator::bcast_bytes(std::span<std::byte> data, int root) {
  const int seq = next_collective_seq();
  const int tag = collective_tag(kOpBcast, seq);
  const int n = size();
  const int rel = (rank_ - root + n) % n;

  // Binomial tree over relative ranks.
  int mask = 1;
  while (mask < n) {
    if (rel & mask) {
      const int src = ((rel - mask) + root) % n;
      raw_recv(data, src, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < n) {
      const int dst = ((rel + mask) + root) % n;
      raw_send(dst, tag, data);
    }
    mask >>= 1;
  }
}

void Communicator::reduce_bytes(std::span<const std::byte> in,
                                std::span<std::byte> out,
                                std::size_t elem_size, const ReduceFn& op,
                                int root) {
  SAGE_CHECK_AS(CommError, in.size() % elem_size == 0,
                "reduce: buffer not a whole number of elements");
  const int seq = next_collective_seq();
  const int tag = collective_tag(kOpReduce, seq);
  const int n = size();
  const int rel = (rank_ - root + n) % n;
  const std::size_t count = in.size() / elem_size;

  std::vector<std::byte> acc(in.begin(), in.end());
  std::vector<std::byte> incoming(in.size());

  // Binomial combine: children fold into parents by descending mask.
  int mask = 1;
  while (mask < n) {
    if (rel & mask) {
      const int dst = ((rel & ~mask) + root) % n;
      raw_send(dst, tag, acc);
      break;
    }
    if (rel + mask < n) {
      const int src = ((rel | mask) + root) % n;
      raw_recv(incoming, src, tag);
      op(incoming.data(), acc.data(), count);
    }
    mask <<= 1;
  }

  if (rank_ == root) {
    SAGE_CHECK_AS(CommError, out.size() == in.size(),
                  "reduce: output size mismatch at root");
    std::memcpy(out.data(), acc.data(), acc.size());
  }
}

void Communicator::allreduce_bytes(std::span<const std::byte> in,
                                   std::span<std::byte> out,
                                   std::size_t elem_size, const ReduceFn& op) {
  SAGE_CHECK_AS(CommError, out.size() == in.size(),
                "allreduce: output size mismatch");
  reduce_bytes(in, out, elem_size, op, /*root=*/0);
  bcast_bytes(out, /*root=*/0);
}

void Communicator::gather_bytes(std::span<const std::byte> in,
                                std::span<std::byte> out, int root) {
  const int seq = next_collective_seq();
  const int tag = collective_tag(kOpGather, seq);
  const int n = size();
  if (rank_ == root) {
    SAGE_CHECK_AS(CommError,
                  out.size() == in.size() * static_cast<std::size_t>(n),
                  "gather: root buffer must hold size()*block bytes");
    std::memcpy(out.data() + static_cast<std::size_t>(root) * in.size(),
                in.data(), in.size());
    for (int r = 0; r < n; ++r) {
      if (r == root) continue;
      raw_recv(out.subspan(static_cast<std::size_t>(r) * in.size(), in.size()),
               r, tag);
    }
  } else {
    raw_send(root, tag, in);
  }
}

void Communicator::scatter_bytes(std::span<const std::byte> in,
                                 std::span<std::byte> out, int root) {
  const int seq = next_collective_seq();
  const int tag = collective_tag(kOpScatter, seq);
  const int n = size();
  if (rank_ == root) {
    SAGE_CHECK_AS(CommError,
                  in.size() == out.size() * static_cast<std::size_t>(n),
                  "scatter: root buffer must hold size()*block bytes");
    for (int r = 0; r < n; ++r) {
      auto block =
          in.subspan(static_cast<std::size_t>(r) * out.size(), out.size());
      if (r == root) {
        std::memcpy(out.data(), block.data(), block.size());
      } else {
        raw_send(r, tag, block);
      }
    }
  } else {
    raw_recv(out, root, tag);
  }
}

void Communicator::gatherv_bytes(std::span<const std::byte> in,
                                 std::span<std::byte> out,
                                 std::span<const std::size_t> counts,
                                 int root) {
  const int seq = next_collective_seq();
  const int tag = collective_tag(kOpGather, seq);
  const int n = size();
  SAGE_CHECK_AS(CommError, static_cast<int>(counts.size()) == n,
                "gatherv: counts must have one entry per rank");
  SAGE_CHECK_AS(CommError,
                in.size() == counts[static_cast<std::size_t>(rank_)],
                "gatherv: contribution size does not match counts[rank]");
  if (rank_ == root) {
    std::size_t total = 0;
    for (std::size_t c : counts) total += c;
    SAGE_CHECK_AS(CommError, out.size() == total,
                  "gatherv: root buffer must hold the sum of counts");
    std::size_t offset = 0;
    for (int r = 0; r < n; ++r) {
      const std::size_t count = counts[static_cast<std::size_t>(r)];
      if (r == root) {
        std::memcpy(out.data() + offset, in.data(), count);
      } else if (count > 0) {
        raw_recv(out.subspan(offset, count), r, tag);
      }
      offset += count;
    }
  } else if (!in.empty()) {
    raw_send(root, tag, in);
  }
  // Ranks with a zero count send nothing; the root skips them.
}

void Communicator::scatterv_bytes(std::span<const std::byte> in,
                                  std::span<std::byte> out,
                                  std::span<const std::size_t> counts,
                                  int root) {
  const int seq = next_collective_seq();
  const int tag = collective_tag(kOpScatter, seq);
  const int n = size();
  SAGE_CHECK_AS(CommError, static_cast<int>(counts.size()) == n,
                "scatterv: counts must have one entry per rank");
  SAGE_CHECK_AS(CommError,
                out.size() == counts[static_cast<std::size_t>(rank_)],
                "scatterv: receive size does not match counts[rank]");
  if (rank_ == root) {
    std::size_t total = 0;
    for (std::size_t c : counts) total += c;
    SAGE_CHECK_AS(CommError, in.size() == total,
                  "scatterv: root buffer must hold the sum of counts");
    std::size_t offset = 0;
    for (int r = 0; r < n; ++r) {
      const std::size_t count = counts[static_cast<std::size_t>(r)];
      if (r == root) {
        std::memcpy(out.data(), in.data() + offset, count);
      } else if (count > 0) {
        raw_send(r, tag, in.subspan(offset, count));
      }
      offset += count;
    }
  } else if (!out.empty()) {
    raw_recv(out, root, tag);
  }
}

void Communicator::allgather_bytes(std::span<const std::byte> in,
                                   std::span<std::byte> out) {
  const int seq = next_collective_seq();
  const int tag = collective_tag(kOpAllgather, seq);
  const int n = size();
  const std::size_t block = in.size();
  SAGE_CHECK_AS(CommError, out.size() == block * static_cast<std::size_t>(n),
                "allgather: output must hold size()*block bytes");

  std::memcpy(out.data() + static_cast<std::size_t>(rank_) * block, in.data(),
              block);
  // Ring: at step s, forward the block that originated at rank-s.
  const int next = (rank_ + 1) % n;
  const int prev = (rank_ - 1 + n) % n;
  for (int s = 0; s < n - 1; ++s) {
    const int send_origin = (rank_ - s + n) % n;
    const int recv_origin = (rank_ - s - 1 + n) % n;
    raw_send(next, tag,
             out.subspan(static_cast<std::size_t>(send_origin) * block, block));
    raw_recv(out.subspan(static_cast<std::size_t>(recv_origin) * block, block),
             prev, tag);
  }
}

}  // namespace sage::mpi
