#include "net/shmem_transport.hpp"

#include "support/error.hpp"

#ifndef __linux__

namespace sage::net {

std::unique_ptr<Transport> make_shmem_transport(const TransportOptions&, int,
                                                BufferPool&,
                                                Transport::DeliverFn) {
  raise<CommError>(
      "the shmem transport requires Linux (futex doorbells); "
      "use --transport inproc on this platform");
}

}  // namespace sage::net

#else  // __linux__

#include <linux/futex.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstring>
#include <ctime>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

namespace sage::net {

namespace {

// ---------------------------------------------------------------------
// Futex doorbells. The words live in the shared segment, so the waits
// must be cross-process (no FUTEX_PRIVATE_FLAG). Every wait is bounded
// by a timeout: wakeups are a latency optimization, never a correctness
// dependency -- each waiter re-checks its predicate (and peer liveness)
// on timeout, which is what keeps a `kill -9`ed node process from
// wedging anyone.

void futex_wait(std::atomic<std::uint32_t>& word, std::uint32_t seen,
                long timeout_ns) {
  timespec ts;
  ts.tv_sec = timeout_ns / 1000000000L;
  ts.tv_nsec = timeout_ns % 1000000000L;
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word), FUTEX_WAIT,
          seen, &ts, nullptr, 0);
}

void futex_wake_all(std::atomic<std::uint32_t>& word) {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word), FUTEX_WAKE,
          INT_MAX, nullptr, nullptr, 0);
}

/// Bumps an activity counter and wakes everyone waiting on it.
void ring_doorbell(std::atomic<std::uint32_t>& word) {
  word.fetch_add(1, std::memory_order_release);
  futex_wake_all(word);
}

// ---------------------------------------------------------------------
// SPSC byte ring in shared memory. head/tail are free-running byte
// counters (consumer owns head, producer owns tail); the data area
// follows the header in the segment. Byte-oriented so frames larger
// than the ring stream through in chunks.

struct alignas(64) RingHdr {
  std::atomic<std::uint64_t> head;  // bytes consumed
  char pad0[56];
  std::atomic<std::uint64_t> tail;  // bytes produced
  char pad1[56];
};
static_assert(sizeof(RingHdr) == 128);

struct RingView {
  RingHdr* hdr = nullptr;
  std::byte* data = nullptr;
  std::size_t cap = 0;
};

std::size_t ring_avail(const RingView& r) {
  return static_cast<std::size_t>(
      r.hdr->tail.load(std::memory_order_acquire) -
      r.hdr->head.load(std::memory_order_acquire));
}

/// Producer side: writes up to min(space, len) bytes, returns written.
std::size_t ring_push_some(const RingView& r, const std::byte* src,
                           std::size_t len) {
  const std::uint64_t head = r.hdr->head.load(std::memory_order_acquire);
  const std::uint64_t tail = r.hdr->tail.load(std::memory_order_relaxed);
  const std::size_t space = r.cap - static_cast<std::size_t>(tail - head);
  const std::size_t n = std::min(space, len);
  if (n == 0) return 0;
  const std::size_t pos = static_cast<std::size_t>(tail % r.cap);
  const std::size_t first = std::min(n, r.cap - pos);
  std::memcpy(r.data + pos, src, first);
  std::memcpy(r.data, src + first, n - first);
  r.hdr->tail.store(tail + n, std::memory_order_release);
  return n;
}

/// Consumer side: reads up to min(available, maxlen) bytes.
std::size_t ring_pop_some(const RingView& r, std::byte* dst,
                          std::size_t maxlen) {
  const std::uint64_t tail = r.hdr->tail.load(std::memory_order_acquire);
  const std::uint64_t head = r.hdr->head.load(std::memory_order_relaxed);
  const std::size_t avail = static_cast<std::size_t>(tail - head);
  const std::size_t n = std::min(avail, maxlen);
  if (n == 0) return 0;
  const std::size_t pos = static_cast<std::size_t>(head % r.cap);
  const std::size_t first = std::min(n, r.cap - pos);
  std::memcpy(dst, r.data + pos, first);
  std::memcpy(dst + first, r.data, n - first);
  r.hdr->head.store(head + n, std::memory_order_release);
  return n;
}

constexpr long kWaitNs = 50'000'000;  // 50ms predicate re-check bound
constexpr std::size_t kChunkBytes = 8192;  // child relay stack buffer

std::size_t round_up_64(std::size_t n) { return (n + 63) & ~std::size_t{63}; }

// ---------------------------------------------------------------------

class ShmemTransport final : public Transport {
 public:
  ShmemTransport(const TransportOptions& options, int node_count,
                 BufferPool& pool, DeliverFn deliver)
      : node_count_(node_count),
        ring_cap_(std::max<std::size_t>(options.shmem_ring_bytes, 4096)),
        pool_(pool),
        deliver_(std::move(deliver)),
        producer_mu_(static_cast<std::size_t>(node_count) * node_count) {
    const auto n = static_cast<std::size_t>(node_count_);
    pids_.assign(n, -1);
    dead_.reset(new std::atomic<bool>[n]);
    sent_.reset(new std::atomic<std::uint64_t>[n]);
    delivered_.reset(new std::atomic<std::uint64_t>[n]);
    drain_done_.reset(new std::atomic<bool>[n]);
    for (std::size_t i = 0; i < n; ++i) {
      dead_[i].store(false);
      sent_[i].store(0);
      delivered_[i].store(0);
      drain_done_[i].store(false);
    }
    map_segment_();
    try {
      fork_children_();
    } catch (...) {
      teardown_();
      throw;
    }
    drains_.reserve(n);
    for (int d = 0; d < node_count_; ++d) {
      drains_.emplace_back([this, d] { drain_loop_(d); });
    }
  }

  ~ShmemTransport() override { teardown_(); }

  TransportKind kind() const override { return TransportKind::kShmem; }

  void deliver(int dst, Parcel&& parcel) override {
    if (child_dead_(dst)) {
      raise<CommError>("shmem transport: node process for rank ", dst,
                       " (pid ", pids_[static_cast<std::size_t>(dst)],
                       ") is dead");
    }
    // Serialize into a per-thread scratch frame:
    //   header(16) | parcel meta(32) | payload bytes
    thread_local std::vector<std::byte> scratch;
    const std::size_t payload_len = parcel.payload.size();
    const std::size_t body = kParcelMetaBytes + payload_len;
    scratch.resize(kFrameHeaderBytes + body);
    std::span<std::byte> frame(scratch);
    std::uint64_t hash = encode_parcel_meta(
        parcel, frame.subspan(kFrameHeaderBytes, kParcelMetaBytes));
    if (payload_len != 0) {
      std::byte* at = frame.data() + kFrameHeaderBytes + kParcelMetaBytes;
      std::memcpy(at, parcel.payload.data(), payload_len);
      hash = fnv1a_accum(hash, at, payload_len);
    }
    write_frame_header(frame, body, hash);

    const int src = parcel.src;
    const RingView ring = in_ring_(src, dst);
    // One producer at a time per directed ring: Fabric::send is almost
    // always called from the source node's own thread, but the session
    // control plane may issue sends from the host thread too.
    std::lock_guard<std::mutex> lock(
        producer_mu_[static_cast<std::size_t>(src) *
                         static_cast<std::size_t>(node_count_) +
                     static_cast<std::size_t>(dst)]);
    const std::byte* at = frame.data();
    std::size_t left = frame.size();
    while (left > 0) {
      const std::uint32_t seen =
          act_in_(dst).load(std::memory_order_acquire);
      const std::size_t wrote = ring_push_some(ring, at, left);
      if (wrote > 0) {
        ring_doorbell(act_in_(dst));
        at += wrote;
        left -= wrote;
        continue;
      }
      if (child_dead_(dst)) {
        raise<CommError>("shmem transport: node process for rank ", dst,
                         " died mid-transfer");
      }
      futex_wait(act_in_(dst), seen, kWaitNs);
    }
    sent_[static_cast<std::size_t>(dst)].fetch_add(
        1, std::memory_order_release);
  }

  void flush() override {
    std::unique_lock<std::mutex> lock(flush_mu_);
    for (int d = 0; d < node_count_; ++d) {
      while (!flushed_(d)) {
        lock.unlock();
        child_dead_(d);  // a killed node unblocks its drain, then us
        lock.lock();
        flush_cv_.wait_for(lock, std::chrono::milliseconds(10),
                           [&] { return flushed_(d); });
      }
    }
  }

  long node_pid(int rank) const override {
    return pids_[static_cast<std::size_t>(rank)];
  }

  bool node_dead(int rank) const override {
    return const_cast<ShmemTransport*>(this)->child_dead_(rank);
  }

 private:
  // --- segment layout -------------------------------------------------
  //   [shutdown word][act_in x n][act_out x n]
  //   [in rings: (dst, src) x n*n][out rings x n]
  // every block 64-byte aligned.

  void map_segment_() {
    const auto n = static_cast<std::size_t>(node_count_);
    const std::size_t ring_block = round_up_64(sizeof(RingHdr) + ring_cap_);
    const std::size_t doorbells = 64 * (1 + 2 * n);
    segment_bytes_ = doorbells + ring_block * (n * n + n);
    void* mem = mmap(nullptr, segment_bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    SAGE_CHECK_AS(CommError, mem != MAP_FAILED,
                  "shmem transport: mmap of ", segment_bytes_,
                  " bytes failed");
    segment_ = static_cast<std::byte*>(mem);
    std::memset(segment_, 0, segment_bytes_);
    new (segment_) std::atomic<std::uint32_t>(0);  // shutdown word
    for (std::size_t i = 0; i < 2 * n; ++i) {
      new (segment_ + 64 * (1 + i)) std::atomic<std::uint32_t>(0);
    }
    rings_base_ = segment_ + doorbells;
    ring_block_ = ring_block;
    for (std::size_t i = 0; i < n * n + n; ++i) {
      new (rings_base_ + i * ring_block_) RingHdr{};
    }
  }

  std::atomic<std::uint32_t>& shutdown_word_() {
    return *reinterpret_cast<std::atomic<std::uint32_t>*>(segment_);
  }
  std::atomic<std::uint32_t>& act_in_(int node) {
    return *reinterpret_cast<std::atomic<std::uint32_t>*>(
        segment_ + 64 * (1 + static_cast<std::size_t>(node)));
  }
  std::atomic<std::uint32_t>& act_out_(int node) {
    return *reinterpret_cast<std::atomic<std::uint32_t>*>(
        segment_ + 64 * (1 + static_cast<std::size_t>(node_count_) +
                         static_cast<std::size_t>(node)));
  }
  RingView ring_at_(std::size_t index) {
    std::byte* block = rings_base_ + index * ring_block_;
    return {reinterpret_cast<RingHdr*>(block), block + sizeof(RingHdr),
            ring_cap_};
  }
  RingView in_ring_(int src, int dst) {
    return ring_at_(static_cast<std::size_t>(dst) *
                        static_cast<std::size_t>(node_count_) +
                    static_cast<std::size_t>(src));
  }
  RingView out_ring_(int node) {
    const auto n = static_cast<std::size_t>(node_count_);
    return ring_at_(n * n + static_cast<std::size_t>(node));
  }

  // --- node communication processors (forked children) ----------------

  void fork_children_() {
    for (int r = 0; r < node_count_; ++r) {
      const pid_t pid = fork();
      SAGE_CHECK_AS(CommError, pid >= 0,
                    "shmem transport: fork for node ", r, " failed");
      if (pid == 0) {
        // The child must not outlive a crashed parent as an orphan.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        child_loop_(r);  // never returns
      }
      pids_[static_cast<std::size_t>(r)] = pid;
    }
  }

  /// The forked node process: relays frames from its n inbound rings
  /// into its one outbound ring, one WHOLE frame at a time. The out
  /// ring is a single byte stream shared by every source, so a frame,
  /// once started, must be relayed to completion before any other
  /// source's bytes may follow -- interleaving would hand the parent
  /// drain a corrupt stream. Blocking on the tail of a started frame is
  /// safe: its producer wrote (or is actively writing) the full frame,
  /// and consuming is what frees the ring space the producer may be
  /// waiting for. Uses only the shared segment, stack buffers, the
  /// futex syscall, and _exit -- safe in a child forked from a
  /// threaded parent.
  [[noreturn]] void child_loop_(int rank) {
    std::byte buf[kChunkBytes];
    std::byte hdr[kFrameHeaderBytes];
    for (;;) {
      const std::uint32_t seen = act_in_(rank).load(std::memory_order_acquire);
      bool progress = false;
      for (int s = 0; s < node_count_; ++s) {
        const RingView in = in_ring_(s, rank);
        // A parent producer may have written only part of a header;
        // consume it only once all 16 bytes are in. The stream is
        // sequential per ring, so 16 available bytes at a frame
        // boundary are exactly the next header.
        if (ring_avail(in) < kFrameHeaderBytes) continue;
        ring_pop_some(in, hdr, kFrameHeaderBytes);
        ring_doorbell(act_in_(rank));  // space freed
        std::uint32_t body = 0;
        std::memcpy(&body, hdr + 4, sizeof body);
        child_forward_(rank, hdr, kFrameHeaderBytes);
        std::uint64_t left = body;
        while (left > 0) {
          const std::uint32_t mid =
              act_in_(rank).load(std::memory_order_acquire);
          const std::size_t want = static_cast<std::size_t>(
              std::min<std::uint64_t>(left, kChunkBytes));
          const std::size_t got = ring_pop_some(in, buf, want);
          if (got > 0) {
            ring_doorbell(act_in_(rank));
            child_forward_(rank, buf, got);
            left -= got;
            continue;
          }
          if (shutdown_word_().load(std::memory_order_acquire) != 0) {
            _exit(0);
          }
          futex_wait(act_in_(rank), mid, 100'000'000);
        }
        progress = true;
      }
      if (shutdown_word_().load(std::memory_order_acquire) != 0) _exit(0);
      if (!progress) futex_wait(act_in_(rank), seen, 100'000'000);
    }
  }

  /// Child-side blocking write into the node's outbound ring.
  void child_forward_(int rank, const std::byte* data, std::size_t len) {
    const RingView out = out_ring_(rank);
    while (len > 0) {
      const std::uint32_t seen =
          act_out_(rank).load(std::memory_order_acquire);
      const std::size_t wrote = ring_push_some(out, data, len);
      if (wrote > 0) {
        ring_doorbell(act_out_(rank));
        data += wrote;
        len -= wrote;
        continue;
      }
      if (shutdown_word_().load(std::memory_order_acquire) != 0) _exit(0);
      futex_wait(act_out_(rank), seen, 100'000'000);
    }
  }

  // --- parent receive path ---------------------------------------------

  /// Blocking read of exactly `len` bytes from node `d`'s outbound ring.
  /// Returns false (abandoning the read) when the transport is stopping
  /// or the node process died with the ring drained dry.
  bool pop_exact_(int d, std::byte* dst, std::size_t len) {
    const RingView out = out_ring_(d);
    while (len > 0) {
      const std::uint32_t seen = act_out_(d).load(std::memory_order_acquire);
      const std::size_t got = ring_pop_some(out, dst, len);
      if (got > 0) {
        ring_doorbell(act_out_(d));  // space freed for the child
        dst += got;
        len -= got;
        continue;
      }
      if (stop_.load(std::memory_order_acquire)) return false;
      if (child_dead_(d) && ring_avail(out) == 0) return false;
      futex_wait(act_out_(d), seen, kWaitNs);
    }
    return true;
  }

  /// Parent drain thread for node `d`: decodes frames off the outbound
  /// ring, re-materializes pooled payloads, and hands parcels to the
  /// mailbox sink.
  void drain_loop_(int d) {
    std::byte hdr[kFrameHeaderBytes];
    std::byte meta[kParcelMetaBytes];
    for (;;) {
      if (!pop_exact_(d, hdr, kFrameHeaderBytes)) break;
      const FrameHeader h = read_frame_header({hdr, kFrameHeaderBytes});
      if (h.magic != kFrameMagic || h.length < kParcelMetaBytes) {
        mark_protocol_error_(d, "bad frame header");
        break;
      }
      if (!pop_exact_(d, meta, kParcelMetaBytes)) break;
      Parcel parcel;
      const std::size_t payload_len =
          decode_parcel_meta({meta, kParcelMetaBytes}, parcel);
      if (payload_len != h.length - kParcelMetaBytes) {
        mark_protocol_error_(d, "frame/meta length mismatch");
        break;
      }
      std::uint64_t hash =
          fnv1a_accum(kFnvOffsetBasis, meta, kParcelMetaBytes);
      if (payload_len != 0) {
        Payload payload = pool_.acquire(payload_len);
        std::span<std::byte> bytes = payload.writable();
        if (!pop_exact_(d, bytes.data(), payload_len)) break;
        hash = fnv1a_accum(hash, bytes.data(), payload_len);
        parcel.payload = std::move(payload);
      }
      if (hash != h.checksum) {
        mark_protocol_error_(d, "frame checksum mismatch");
        break;
      }
      deliver_(d, std::move(parcel));
      delivered_[static_cast<std::size_t>(d)].fetch_add(
          1, std::memory_order_release);
      flush_cv_.notify_all();
    }
    drain_done_[static_cast<std::size_t>(d)].store(
        true, std::memory_order_release);
    flush_cv_.notify_all();
  }

  // --- liveness / teardown ---------------------------------------------

  bool flushed_(int d) {
    const auto i = static_cast<std::size_t>(d);
    if (delivered_[i].load(std::memory_order_acquire) >=
        sent_[i].load(std::memory_order_acquire)) {
      return true;
    }
    // A dead node's in-flight traffic is abandoned once its drain
    // thread has gone idle -- nothing further can reach the mailboxes.
    return drain_done_[i].load(std::memory_order_acquire);
  }

  bool child_dead_(int d) {
    const auto i = static_cast<std::size_t>(d);
    if (dead_[i].load(std::memory_order_acquire)) return true;
    std::lock_guard<std::mutex> lock(reap_mu_);
    if (dead_[i].load(std::memory_order_acquire)) return true;
    int status = 0;
    if (waitpid(pids_[i], &status, WNOHANG) == pids_[i]) {
      dead_[i].store(true, std::memory_order_release);
      // Unwedge everyone parked on this node's doorbells.
      futex_wake_all(act_in_(d));
      futex_wake_all(act_out_(d));
      flush_cv_.notify_all();
      return true;
    }
    return false;
  }

  void mark_protocol_error_(int d, const char* what) {
    (void)what;
    dead_[static_cast<std::size_t>(d)].store(true, std::memory_order_release);
    futex_wake_all(act_in_(d));
    futex_wake_all(act_out_(d));
  }

  void teardown_() {
    if (torn_down_) return;
    torn_down_ = true;
    stop_.store(true, std::memory_order_release);
    if (segment_ != nullptr) {
      shutdown_word_().store(1, std::memory_order_release);
      for (int d = 0; d < node_count_; ++d) {
        futex_wake_all(act_in_(d));
        futex_wake_all(act_out_(d));
      }
    }
    for (std::thread& t : drains_) t.join();
    drains_.clear();
    reap_children_();
    if (segment_ != nullptr) {
      munmap(segment_, segment_bytes_);
      segment_ = nullptr;
    }
  }

  void reap_children_() {
    // Children _exit on the shutdown word within their next wait slice;
    // SIGKILL is the backstop for a wedged one.
    for (std::size_t i = 0; i < pids_.size(); ++i) {
      if (pids_[i] < 0 || dead_[i].load(std::memory_order_acquire)) continue;
      bool reaped = false;
      for (int tries = 0; tries < 100; ++tries) {
        int status = 0;
        if (waitpid(pids_[i], &status, WNOHANG) == pids_[i]) {
          reaped = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (!reaped) {
        kill(pids_[i], SIGKILL);
        int status = 0;
        waitpid(pids_[i], &status, 0);
      }
      dead_[i].store(true, std::memory_order_release);
    }
  }

  int node_count_;
  std::size_t ring_cap_;
  BufferPool& pool_;
  DeliverFn deliver_;

  std::byte* segment_ = nullptr;
  std::size_t segment_bytes_ = 0;
  std::byte* rings_base_ = nullptr;
  std::size_t ring_block_ = 0;

  std::vector<pid_t> pids_;
  std::unique_ptr<std::atomic<bool>[]> dead_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> sent_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> delivered_;
  std::unique_ptr<std::atomic<bool>[]> drain_done_;

  std::vector<std::mutex> producer_mu_;  // one per directed in-ring
  std::mutex reap_mu_;
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  std::atomic<bool> stop_{false};
  bool torn_down_ = false;
  std::vector<std::thread> drains_;
};

}  // namespace

std::unique_ptr<Transport> make_shmem_transport(const TransportOptions& options,
                                                int node_count,
                                                BufferPool& pool,
                                                Transport::DeliverFn deliver) {
  return std::make_unique<ShmemTransport>(options, node_count, pool,
                                          std::move(deliver));
}

}  // namespace sage::net

#endif  // __linux__
