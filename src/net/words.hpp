// Words: the pooled payload storage of the message runtime.
//
// Every protocol in this repository exchanges small u64 sequences —
// IDs, votes, hash tags, shares — so `Words` keeps the first
// kInlineCapacity words inline (the common case allocates nothing) and
// spills longer payloads into blocks drawn from a `WordArena`.  The
// arena is owned by the `net::Network` that carries the messages:
// spill blocks return to its free lists when delivered messages are
// destroyed on drain, so a warmed-up round loop performs no payload
// allocation at all — the payload-level counterpart of the outbox /
// inbox buffer recycling the runtime already does.
//
// Ownership rule: a spilled `Words` releases its block to the arena it
// was allocated from (the arena pointer travels with the object on
// move), so mixing arena-backed and heap-backed payloads in one
// container is safe.  Arena-backed payloads must not outlive their
// Network.  A `Words` with no arena (built outside a Network: inject()
// callers, tests) spills via plain heap new[]/delete[].
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <mutex>
#include <vector>

namespace tg::net {

/// Thread-safe free-list pool of spill blocks, bucketed by
/// power-of-two capacity class and SHARDED to keep wide executors off
/// a single mutex: each thread is pinned to a home shard (round-robin
/// at first contact) whose free lists serve its allocations, and
/// releases are scattered round-robin across shards so the drain
/// thread — which destroys most delivered payloads — feeds every
/// worker's shard instead of pooling all blocks in its own.  A shard
/// miss steals from siblings before touching the heap, so the
/// steady-state no-allocation guarantee of the single-pool arena is
/// preserved; only payloads longer than Words::kInlineCapacity ever
/// reach the arena at all.
class WordArena {
 public:
  struct Stats {
    std::uint64_t allocated = 0;  ///< spill blocks handed out
    std::uint64_t recycled = 0;   ///< of those, served from a free list
    std::uint64_t released = 0;   ///< blocks returned to the free lists
    std::uint64_t unpooled = 0;   ///< oversize blocks (plain heap)
  };

  /// Fixed shard fan-out; covers the executor widths the round-loop
  /// bench sweeps without making free_blocks() scans expensive.
  static constexpr std::size_t kShardCount = 8;

  WordArena() = default;
  WordArena(const WordArena&) = delete;
  WordArena& operator=(const WordArena&) = delete;
  ~WordArena();

  /// Return a block of at least `capacity` words; `capacity` is
  /// updated to the block's actual (class-rounded) capacity, which the
  /// caller must pass back to release().
  [[nodiscard]] std::uint64_t* allocate(std::size_t& capacity);
  void release(std::uint64_t* block, std::size_t capacity) noexcept;

  /// Aggregate counters across all shards.  `allocated`/`unpooled`
  /// are charged to the allocating thread's home shard and
  /// `recycled`/`released` to the shard that served/received the
  /// block, so per-shard rows may differ while aggregates stay exact.
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] Stats shard_stats(std::size_t shard) const;
  /// Blocks currently parked in the free lists (all shards).
  [[nodiscard]] std::size_t free_blocks() const;
  [[nodiscard]] std::size_t shard_free_blocks(std::size_t shard) const;
  /// Heap allocations that could not be served from a free list —
  /// flat in steady state, which is what the round-loop bench asserts.
  [[nodiscard]] std::uint64_t heap_allocations() const;

 private:
  static constexpr std::size_t kMinClassWords = 8;  // > Words inline
  static constexpr std::size_t kClassCount = 10;    // 8 .. 4096 words
  /// Index of the free list serving `capacity`, or -1 when the block
  /// is oversize and bypasses pooling.
  static int class_index(std::size_t capacity) noexcept;
  /// This thread's pinned allocation shard (round-robin on first use).
  static std::size_t home_slot() noexcept;
  /// Rotating release target (per thread, uniform across shards).
  static std::size_t release_slot() noexcept;

  struct Shard {
    mutable std::mutex mutex;
    std::vector<std::uint64_t*> free[kClassCount];
    Stats stats;
  };
  Shard shards_[kShardCount];
};

/// Small-buffer-optimized u64 sequence: the payload type of
/// `net::Message`.  Supports the subset of the std::vector interface
/// the protocols use (iteration, front/back, push_back, operator==,
/// brace-init), so migrated call sites stay mechanical.
class Words {
 public:
  using value_type = std::uint64_t;
  using iterator = std::uint64_t*;
  using const_iterator = const std::uint64_t*;

  /// Inline words before spilling: covers IDs, votes and 4-word hash
  /// tags plus metadata — every payload the repository's protocols
  /// send today.
  static constexpr std::size_t kInlineCapacity = 6;

  Words() noexcept = default;
  /// Empty payload whose future spill storage draws from `arena`
  /// (nullptr = plain heap).
  explicit Words(WordArena* arena) noexcept : arena_(arena) {}
  Words(std::initializer_list<std::uint64_t> init) {
    assign(init.begin(), init.size());
  }

  Words(const Words& other) : arena_(other.arena_) {
    assign(other.data_, other.size_);
  }

  Words(Words&& other) noexcept
      : size_(other.size_), capacity_(other.capacity_), arena_(other.arena_) {
    if (other.spilled()) {
      data_ = other.data_;
    } else {
      std::memcpy(inline_, other.inline_, size_ * sizeof(std::uint64_t));
    }
    other.reset_to_inline();
  }

  Words& operator=(const Words& other) {
    if (this == &other) return *this;
    clear();
    if (other.size_ > capacity_) grow_exact(other.size_);
    size_ = other.size_;
    std::memcpy(data_, other.data_, size_ * sizeof(std::uint64_t));
    return *this;
  }

  Words& operator=(Words&& other) noexcept {
    if (this == &other) return *this;
    release_storage();
    size_ = other.size_;
    capacity_ = other.capacity_;
    arena_ = other.arena_;
    if (other.spilled()) {
      data_ = other.data_;
    } else {
      data_ = inline_;
      std::memcpy(inline_, other.inline_, size_ * sizeof(std::uint64_t));
    }
    other.reset_to_inline();
    return *this;
  }

  Words& operator=(std::initializer_list<std::uint64_t> init) {
    assign(init.begin(), init.size());
    return *this;
  }

  ~Words() { release_storage(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// True when the payload outgrew the inline buffer.
  [[nodiscard]] bool spilled() const noexcept { return data_ != inline_; }
  [[nodiscard]] WordArena* arena() const noexcept { return arena_; }

  [[nodiscard]] iterator begin() noexcept { return data_; }
  [[nodiscard]] iterator end() noexcept { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }

  [[nodiscard]] std::uint64_t& operator[](std::size_t i) noexcept {
    return data_[i];
  }
  [[nodiscard]] std::uint64_t operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] std::uint64_t& front() noexcept { return data_[0]; }
  [[nodiscard]] std::uint64_t front() const noexcept { return data_[0]; }
  [[nodiscard]] std::uint64_t& back() noexcept { return data_[size_ - 1]; }
  [[nodiscard]] std::uint64_t back() const noexcept {
    return data_[size_ - 1];
  }

  void push_back(std::uint64_t word) {
    if (size_ == capacity_) grow_exact(capacity_ * 2);
    data_[size_++] = word;
  }

  void reserve(std::size_t capacity) {
    if (capacity > capacity_) grow_exact(capacity);
  }

  /// Drop the contents; capacity (and the spill block) is kept.
  void clear() noexcept { size_ = 0; }

  void assign(const std::uint64_t* words, std::size_t count) {
    clear();
    if (count > capacity_) grow_exact(count);
    std::memcpy(data_, words, count * sizeof(std::uint64_t));
    size_ = static_cast<std::uint32_t>(count);
  }

  /// Attach a pooling arena to an inline payload so later growth draws
  /// from it.  A payload that already spilled keeps its current
  /// storage owner — releasing a block to an arena it did not come
  /// from would corrupt the pool.
  void adopt_arena(WordArena* arena) noexcept {
    if (!spilled()) arena_ = arena;
  }

  friend bool operator==(const Words& a, const Words& b) noexcept {
    return a.size_ == b.size_ &&
           std::memcmp(a.data_, b.data_,
                       a.size_ * sizeof(std::uint64_t)) == 0;
  }

 private:
  void reset_to_inline() noexcept {
    data_ = inline_;
    size_ = 0;
    capacity_ = kInlineCapacity;
  }

  void release_storage() noexcept;
  /// Move to a block of at least `min_capacity` words.
  void grow_exact(std::size_t min_capacity);

  std::uint64_t inline_[kInlineCapacity];
  std::uint64_t* data_ = inline_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInlineCapacity;
  WordArena* arena_ = nullptr;
};

}  // namespace tg::net
