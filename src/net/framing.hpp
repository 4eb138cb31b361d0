// openSAGE -- the shared wire framing: a 16-byte header carrying a
// magic word, the body length, and an FNV-1a checksum of the body.
//
//   magic u32 ("SGEF") | body length u32 | FNV-1a(body) u64
//
// Two layers ride this format:
//   - the fault-mode transfer frames the runtime::Session wraps around
//     every data payload and flow-control credit under an active
//     FaultPlan (the checksum -- not fabric metadata -- is the
//     receiver's integrity oracle);
//   - the transport frames the shared-memory fabric backend wraps
//     around every parcel that crosses a real process boundary
//     (length-prefixed so a byte-stream receiver can delimit messages,
//     checksummed so wire corruption surfaces as a transport bug
//     instead of silent data damage).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace sage::net {

inline constexpr std::uint32_t kFrameMagic = 0x46454753u;  // "SGEF"
inline constexpr std::size_t kFrameHeaderBytes = 16;
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Folds `len` bytes into a running FNV-1a hash.
inline std::uint64_t fnv1a_accum(std::uint64_t h, const std::byte* data,
                                 std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    h ^= std::to_integer<std::uint64_t>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

/// Writes the 16-byte header into frame[0..16). `frame` must hold at
/// least kFrameHeaderBytes.
inline void write_frame_header(std::span<std::byte> frame,
                               std::size_t body_bytes,
                               std::uint64_t checksum) {
  const std::uint32_t magic = kFrameMagic;
  const auto length = static_cast<std::uint32_t>(body_bytes);
  std::memcpy(frame.data(), &magic, sizeof magic);
  std::memcpy(frame.data() + 4, &length, sizeof length);
  std::memcpy(frame.data() + 8, &checksum, sizeof checksum);
}

/// The decoded header fields (validity is the caller's judgement).
struct FrameHeader {
  std::uint32_t magic = 0;
  std::uint32_t length = 0;  ///< body bytes following the header
  std::uint64_t checksum = 0;
};

/// Decodes a 16-byte header. `bytes` must hold at least
/// kFrameHeaderBytes.
inline FrameHeader read_frame_header(std::span<const std::byte> bytes) {
  FrameHeader h;
  std::memcpy(&h.magic, bytes.data(), sizeof h.magic);
  std::memcpy(&h.length, bytes.data() + 4, sizeof h.length);
  std::memcpy(&h.checksum, bytes.data() + 8, sizeof h.checksum);
  return h;
}

/// True when `frame` (header + body, contiguous) carries the magic, a
/// length matching the span, and a body that hashes to the checksum.
inline bool frame_valid(std::span<const std::byte> frame) {
  if (frame.size() < kFrameHeaderBytes) return false;
  const FrameHeader h = read_frame_header(frame);
  if (h.magic != kFrameMagic) return false;
  if (h.length != frame.size() - kFrameHeaderBytes) return false;
  return fnv1a_accum(kFnvOffsetBasis, frame.data() + kFrameHeaderBytes,
                     frame.size() - kFrameHeaderBytes) == h.checksum;
}

}  // namespace sage::net
