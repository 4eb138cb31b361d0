#include "net/transport.hpp"

#include <cstring>
#include <utility>

#include "net/shmem_transport.hpp"
#include "support/error.hpp"

namespace sage::net {

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProc: return "inproc";
    case TransportKind::kShmem: return "shmem";
  }
  return "?";
}

std::optional<TransportKind> parse_transport_kind(std::string_view name) {
  if (name == "inproc") return TransportKind::kInProc;
  if (name == "shmem") return TransportKind::kShmem;
  return std::nullopt;
}

std::uint64_t encode_parcel_meta(const Parcel& parcel,
                                 std::span<std::byte> meta) {
  SAGE_CHECK_AS(CommError, meta.size() >= kParcelMetaBytes,
                "parcel meta buffer too small");
  const auto src = static_cast<std::int32_t>(parcel.src);
  const auto tag = static_cast<std::int32_t>(parcel.tag);
  const auto fault = static_cast<std::uint32_t>(parcel.fault);
  const auto attempt = static_cast<std::uint32_t>(parcel.attempt);
  const double arrival = parcel.arrival_vt;
  const auto len = static_cast<std::uint64_t>(parcel.payload.size());
  std::memcpy(meta.data() + 0, &src, 4);
  std::memcpy(meta.data() + 4, &tag, 4);
  std::memcpy(meta.data() + 8, &fault, 4);
  std::memcpy(meta.data() + 12, &attempt, 4);
  std::memcpy(meta.data() + 16, &arrival, 8);
  std::memcpy(meta.data() + 24, &len, 8);
  return fnv1a_accum(kFnvOffsetBasis, meta.data(), kParcelMetaBytes);
}

std::size_t decode_parcel_meta(std::span<const std::byte> meta,
                               Parcel& parcel) {
  SAGE_CHECK_AS(CommError, meta.size() >= kParcelMetaBytes,
                "parcel meta block truncated");
  std::int32_t src = 0;
  std::int32_t tag = 0;
  std::uint32_t fault = 0;
  std::uint32_t attempt = 0;
  double arrival = 0.0;
  std::uint64_t len = 0;
  std::memcpy(&src, meta.data() + 0, 4);
  std::memcpy(&tag, meta.data() + 4, 4);
  std::memcpy(&fault, meta.data() + 8, 4);
  std::memcpy(&attempt, meta.data() + 12, 4);
  std::memcpy(&arrival, meta.data() + 16, 8);
  std::memcpy(&len, meta.data() + 24, 8);
  parcel.src = src;
  parcel.tag = tag;
  parcel.fault = static_cast<FaultKind>(fault);
  parcel.attempt = static_cast<int>(attempt);
  parcel.arrival_vt = arrival;
  return static_cast<std::size_t>(len);
}

namespace {

/// The historical single-process path: hand the parcel (still a pooled,
/// ref-counted handle -- zero-copy end to end) straight to the mailbox
/// sink on the sender's thread. flush() is trivially a no-op: delivery
/// completed before deliver() returned.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(DeliverFn deliver) : deliver_(std::move(deliver)) {}

  TransportKind kind() const override { return TransportKind::kInProc; }

  void deliver(int dst, Parcel&& parcel) override {
    deliver_(dst, std::move(parcel));
  }

  void flush() override {}

 private:
  DeliverFn deliver_;
};

}  // namespace

std::unique_ptr<Transport> make_transport(const TransportOptions& options,
                                          int node_count, BufferPool& pool,
                                          Transport::DeliverFn deliver) {
  SAGE_CHECK_AS(CommError, node_count > 0,
                "transport needs at least one node");
  switch (options.kind) {
    case TransportKind::kInProc:
      return std::make_unique<InProcTransport>(std::move(deliver));
    case TransportKind::kShmem:
      return make_shmem_transport(options, node_count, pool,
                                  std::move(deliver));
  }
  raise<CommError>("unknown transport kind");
}

}  // namespace sage::net
