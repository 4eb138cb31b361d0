#include "net/buffer_pool.hpp"

#include <atomic>
#include <bit>
#include <cstring>

#include "support/error.hpp"

namespace sage::net {

/// One pooled block: bucket-sized storage plus an intrusive refcount,
/// so recycling a payload recycles the whole allocation -- no
/// control-block churn on the hot path. The storage is allocated for
/// overwrite (every acquirer fills its bytes before anything reads
/// them), so a prewarmed block costs no page until it is first used.
struct PoolBlock {
  std::unique_ptr<std::byte[]> storage;  // bucket-sized, never shrunk
  std::atomic<std::uint32_t> refs{0};
  BufferPool* pool = nullptr;
  std::uint32_t bucket = 0;
};

Payload::Payload(const Payload& other)
    : block_(other.block_), size_(other.size_) {
  if (block_ != nullptr) {
    block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
}

Payload& Payload::operator=(const Payload& other) {
  if (this == &other) return *this;
  Payload copy(other);
  std::swap(block_, copy.block_);
  std::swap(size_, copy.size_);
  return *this;
}

Payload::Payload(Payload&& other) noexcept
    : block_(other.block_), size_(other.size_) {
  other.block_ = nullptr;
  other.size_ = 0;
}

Payload& Payload::operator=(Payload&& other) noexcept {
  if (this == &other) return *this;
  reset();
  block_ = other.block_;
  size_ = other.size_;
  other.block_ = nullptr;
  other.size_ = 0;
  return *this;
}

Payload::~Payload() { reset(); }

const std::byte* Payload::data() const {
  return block_ != nullptr ? block_->storage.get() : nullptr;
}

std::span<std::byte> Payload::writable() {
  return block_ != nullptr ? std::span<std::byte>{block_->storage.get(), size_}
                           : std::span<std::byte>{};
}

void Payload::reset() {
  if (block_ != nullptr &&
      block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    block_->pool->release_(block_);
  }
  block_ = nullptr;
  size_ = 0;
}

BufferPool::BufferPool() = default;

BufferPool::~BufferPool() = default;

std::uint32_t BufferPool::bucket_of_(std::size_t size) {
  const std::size_t need = std::bit_ceil(std::max(size, kMinBlockBytes));
  const auto bucket = static_cast<std::uint32_t>(
      std::countr_zero(need / kMinBlockBytes));
  SAGE_CHECK(bucket < kBucketCount, "payload of ", size,
             " bytes exceeds the largest pool bucket");
  return bucket;
}

PoolBlock* BufferPool::allocate_block_(std::uint32_t bucket) {
  auto owned = std::make_unique<PoolBlock>();
  owned->pool = this;
  owned->bucket = bucket;
  const std::size_t bytes = kMinBlockBytes << bucket;
  owned->storage = std::make_unique_for_overwrite<std::byte[]>(bytes);
  bytes_reserved_ += bytes;
  PoolBlock* block = owned.get();
  blocks_.push_back(std::move(owned));
  return block;
}

Payload BufferPool::acquire(std::size_t size) {
  const std::uint32_t bucket = bucket_of_(size);
  PoolBlock* block = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<PoolBlock*>& parked = free_[bucket];
    if (!parked.empty()) {
      block = parked.back();
      parked.pop_back();
      ++hits_;
    } else {
      block = allocate_block_(bucket);
      ++misses_;
    }
  }
  block->refs.store(1, std::memory_order_relaxed);
  return Payload(block, size);
}

Payload BufferPool::copy_of(std::span<const std::byte> bytes) {
  Payload payload = acquire(bytes.size());
  if (!bytes.empty()) {
    std::memcpy(payload.writable().data(), bytes.data(), bytes.size());
  }
  return payload;
}

void BufferPool::reserve(std::size_t size, std::size_t count) {
  const std::uint32_t bucket = bucket_of_(size);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PoolBlock*>& parked = free_[bucket];
  while (parked.size() < count) parked.push_back(allocate_block_(bucket));
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  BufferPoolStats out;
  out.hits = hits_;
  out.misses = misses_;
  for (const auto& parked : free_) out.blocks_pooled += parked.size();
  out.blocks_live = blocks_.size() - out.blocks_pooled;
  out.bytes_reserved = bytes_reserved_;
  return out;
}

void BufferPool::release_(PoolBlock* block) {
  std::lock_guard<std::mutex> lock(mu_);
  free_[block->bucket].push_back(block);
}

}  // namespace sage::net
