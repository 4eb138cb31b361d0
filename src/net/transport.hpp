// openSAGE -- pluggable fabric transports.
//
// The Fabric owns the *model*: virtual-time cost accounting, fault
// injection, per-link stats, and the tag-matched mailboxes receivers
// block on. A Transport owns the *mechanism*: how an accepted parcel's
// bytes travel from the sender to the destination mailbox. Two
// backends implement the seam:
//
//   kInProc -- the historical single-process fabric: the parcel (a
//              ref-counted pooled Payload handle) is pushed straight
//              into the destination mailbox. Zero-copy; fan-out sends
//              share one block. This path is byte-for-byte the
//              pre-transport behaviour.
//   kShmem  -- one forked *node communication processor* per emulated
//              node (the paper's machines hung a LANai/RACEway co-
//              processor off every compute node; the fork is its
//              moral equivalent). Parcels are serialized into fixed-
//              size SPSC byte rings in a shared mmap segment, relayed
//              through the destination node's process, and re-enter
//              the parent through a second ring -- every payload byte
//              crosses two real process boundaries, and `kill -9` of a
//              node process is a testable fault.
//
// Both deliver the same Parcel metadata (virtual arrival time,
// fault marking, attempt index) computed by the Fabric's deterministic
// model *before* the transport is involved, so the same CompiledProgram
// produces bit-identical results on either backend. Serialization
// happens only at real process boundaries: the wire format is the
// shared 16-byte magic/len/FNV-1a framing (net/framing.hpp) followed by
// a fixed parcel-metadata block and the payload bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "net/buffer_pool.hpp"
#include "net/fault.hpp"
#include "net/framing.hpp"
#include "support/clock.hpp"

namespace sage::net {

/// Which mechanism moves accepted parcels to their mailboxes.
enum class TransportKind : std::uint8_t { kInProc, kShmem };

const char* to_string(TransportKind kind);

/// Parses "inproc" / "shmem" (CLI spelling); nullopt otherwise.
std::optional<TransportKind> parse_transport_kind(std::string_view name);

/// Backend selection plus the knobs the non-trivial backends expose.
/// Defaults reproduce the historical in-process fabric exactly.
struct TransportOptions {
  TransportKind kind = TransportKind::kInProc;
  /// kShmem: capacity in bytes of each SPSC ring (one ring per directed
  /// link into a node process plus one return ring per node). Frames
  /// larger than a ring stream through it in chunks, so this bounds
  /// memory, not message size.
  std::size_t shmem_ring_bytes = std::size_t{1} << 16;

  bool operator==(const TransportOptions&) const = default;
};

/// One fabric message in flight: the payload plus the model-computed
/// delivery metadata. The Fabric resolves cost-model and fault-plan
/// decisions into this struct before handing it to the transport, so
/// every backend delivers identical parcels.
struct Parcel {
  int src = 0;
  int tag = 0;
  Payload payload;
  support::VirtualSeconds arrival_vt = 0.0;
  FaultKind fault = FaultKind::kNone;
  int attempt = 0;
};

/// Serialized size of a parcel's metadata block (follows the 16-byte
/// frame header, precedes the payload bytes):
///   i32 src | i32 tag | u32 fault | u32 attempt | f64 arrival_vt |
///   u64 payload_len
inline constexpr std::size_t kParcelMetaBytes = 32;

/// Encodes the metadata block into `meta` (exactly kParcelMetaBytes)
/// and returns the FNV-1a hash of the block (the start of the frame
/// body checksum; continue accumulating over the payload bytes).
std::uint64_t encode_parcel_meta(const Parcel& parcel,
                                 std::span<std::byte> meta);

/// Decodes a metadata block into `parcel` (payload untouched); returns
/// the payload length the block promises.
std::size_t decode_parcel_meta(std::span<const std::byte> meta,
                               Parcel& parcel);

/// The mechanism seam. deliver(dst, parcel) conveys one parcel to the
/// destination's mailbox -- synchronously (in-process) or via a
/// background receive path (shmem rings); the constructor-
/// provided sink is the only way parcels re-enter the Fabric. flush()
/// blocks until every accepted parcel has reached its sink (parcels
/// addressed to a dead node process are abandoned), so Fabric::reset()
/// can guarantee no stale message leaks into the next run.
class Transport {
 public:
  /// Pushes a received parcel into `dst`'s mailbox. Thread-safe (the
  /// mailboxes are mutex-guarded); called from sender threads (inproc)
  /// or transport receiver threads (shmem).
  using DeliverFn = std::function<void(int dst, Parcel&&)>;

  virtual ~Transport() = default;

  virtual TransportKind kind() const = 0;

  /// Accepts one parcel for `dst`. Throws sage::CommError when the
  /// destination's transport endpoint is gone (dead node process).
  virtual void deliver(int dst, Parcel&& parcel) = 0;

  /// Blocks until every accepted parcel has been handed to the sink
  /// (or its destination endpoint died). Call only while no new sends
  /// race in -- the Fabric resets between runs, node threads parked.
  virtual void flush() = 0;

  /// OS pid of the forked node process backing `rank` (kShmem), or -1
  /// when the backend has no per-node process. Test hook: `kill -9`
  /// of this pid is the real-world fault the recover() drill injects.
  virtual long node_pid(int rank) const {
    (void)rank;
    return -1;
  }

  /// True when `rank`'s transport endpoint is known dead (kShmem: the
  /// node process exited or was killed).
  virtual bool node_dead(int rank) const {
    (void)rank;
    return false;
  }
};

/// Builds the backend selected by `options`. `pool` allocates the
/// pooled payloads re-materialized on the receive side; `deliver` is
/// the fabric's mailbox sink. Throws sage::CommError when the backend
/// cannot come up (fork/mmap failure).
std::unique_ptr<Transport> make_transport(const TransportOptions& options,
                                          int node_count, BufferPool& pool,
                                          Transport::DeliverFn deliver);

}  // namespace sage::net
