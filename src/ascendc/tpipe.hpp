// TPipe / TQue / TBuf — the AscendC memory-management abstractions (§3.2).
//
// A TQue manages `num` equal-size slots in the scratchpad backing its
// TPosition. The AllocTensor / EnQue / DeQue / FreeTensor protocol makes
// every producer-consumer dependency explicit; in this simulator the
// dependencies materialise as hazard edges on the slots' BufferStates, so a
// queue of depth 2 really does overlap the MTE and compute engines in
// simulated time (double buffering is "changing the queue capacity from one
// to two", exactly as the paper describes).
#pragma once

#include <array>
#include <cstdint>

#include "ascendc/context.hpp"
#include "ascendc/tensor.hpp"

namespace ascend::acc {

class TQue {
 public:
  /// Deepest queue supported; TPipe::InitBuffer rejects a deeper one. The
  /// slots and their FIFOs live inline, so a TQue never allocates.
  static constexpr int kMaxDepth = 4;

  TQue(KernelContext& ctx, TPosition pos) : ctx_(&ctx), pos_(pos) {}

  TQue(const TQue&) = delete;
  TQue& operator=(const TQue&) = delete;

  /// Allocates a free slot (the whole slot) as a typed tensor.
  template <typename T>
  LocalTensor<T> AllocTensor() {
    ASCAN_CHECK(!free_.empty(),
                "TQue(" << tposition_name(pos_)
                        << ") has no free slot: AllocTensor without a "
                           "matching FreeTensor, or depth too small");
    Slot& s = slots_[free_.pop()];
    return LocalTensor<T>(reinterpret_cast<T*>(s.data),
                          slot_bytes_ / sizeof(T), pos_, &s.state);
  }

  /// Publishes a produced tensor to the consumer side.
  template <typename T>
  void EnQue(const LocalTensor<T>& t) {
    queued_.push(slot_of(t.state()));
  }

  /// Retrieves the oldest published tensor.
  template <typename T>
  LocalTensor<T> DeQue() {
    ASCAN_CHECK(!queued_.empty(), "DeQue on empty TQue("
                                      << tposition_name(pos_) << ")");
    Slot& s = slots_[queued_.pop()];
    return LocalTensor<T>(reinterpret_cast<T*>(s.data),
                          slot_bytes_ / sizeof(T), pos_, &s.state);
  }

  /// Returns the slot to the allocator (hazard state is kept, so the next
  /// producer of this slot still orders after our last read).
  template <typename T>
  void FreeTensor(const LocalTensor<T>& t) {
    free_.push(slot_of(t.state()));
  }

  TPosition position() const { return pos_; }
  int depth() const { return depth_; }

 private:
  friend class TPipe;

  struct Slot {
    std::byte* data = nullptr;
    BufferState state;
  };

  /// FIFO of slot indices in a fixed ring: slots come back out in the
  /// order they went in, which fixes every slot's hazard history.
  class SlotFifo {
   public:
    bool empty() const { return count_ == 0; }
    void push(std::size_t slot) {
      ASCAN_CHECK(count_ < kMaxDepth,
                  "TQue: more tensors returned than it has slots");
      at_[(head_ + count_) % kMaxDepth] = static_cast<std::uint8_t>(slot);
      ++count_;
    }
    std::size_t pop() {
      const std::size_t slot = at_[head_];
      head_ = (head_ + 1) % kMaxDepth;
      --count_;
      return slot;
    }

   private:
    std::array<std::uint8_t, kMaxDepth> at_{};
    int head_ = 0;
    int count_ = 0;
  };

  std::size_t slot_of(const BufferState* st) const {
    for (std::size_t i = 0; i < static_cast<std::size_t>(depth_); ++i) {
      if (&slots_[i].state == st) return i;
    }
    throw Error("tensor does not belong to this TQue");
  }

  KernelContext* ctx_;
  TPosition pos_;
  std::size_t slot_bytes_ = 0;
  int depth_ = 0;
  std::array<Slot, kMaxDepth> slots_{};
  SlotFifo free_;
  SlotFifo queued_;
};

/// Persistent scratch buffer without queue semantics (AscendC TBuf).
class TBuf {
 public:
  TBuf(KernelContext& ctx, TPosition pos) : ctx_(&ctx), pos_(pos) {}

  TBuf(const TBuf&) = delete;
  TBuf& operator=(const TBuf&) = delete;

  template <typename T>
  LocalTensor<T> Get() {
    ASCAN_CHECK(data_ != nullptr, "TBuf used before TPipe::InitBuffer");
    return LocalTensor<T>(reinterpret_cast<T*>(data_), bytes_ / sizeof(T),
                          pos_, &state_);
  }
  template <typename T>
  LocalTensor<T> GetWithOffset(std::size_t offset_elems, std::size_t n) {
    return Get<T>().sub(offset_elems, n);
  }

  TPosition position() const { return pos_; }

 private:
  friend class TPipe;
  KernelContext* ctx_;
  TPosition pos_;
  std::byte* data_ = nullptr;
  std::size_t bytes_ = 0;
  BufferState state_;
};

/// Scratchpad allocator for one sub-core.
class TPipe {
 public:
  explicit TPipe(KernelContext& ctx) : ctx_(&ctx) {}

  void InitBuffer(TQue& que, int num, std::size_t bytes_per_slot) {
    ASCAN_CHECK(num >= 1 && bytes_per_slot > 0);
    ASCAN_CHECK(num <= TQue::kMaxDepth, "TQue depth " << num << " exceeds "
                                                     << TQue::kMaxDepth);
    ASCAN_CHECK(que.depth_ == 0, "TQue already initialised");
    que.slot_bytes_ = bytes_per_slot;
    que.depth_ = num;
    for (int i = 0; i < num; ++i) {
      TQue::Slot& s = que.slots_[static_cast<std::size_t>(i)];
      s.data = ctx_->arena_alloc(que.pos_, bytes_per_slot);
      track_extent(s.state, que.pos_, s.data, bytes_per_slot);
      que.free_.push(static_cast<std::size_t>(i));
    }
  }

  void InitBuffer(TBuf& buf, std::size_t bytes) {
    ASCAN_CHECK(buf.data_ == nullptr, "TBuf already initialised");
    buf.data_ = ctx_->arena_alloc(buf.pos_, bytes);
    buf.bytes_ = bytes;
    track_extent(buf.state_, buf.pos_, buf.data_, bytes);
  }

 private:
  /// Cube-side slots start with their whole size live and no reference.
  static void track_extent(BufferState& st, TPosition pos, std::byte* data,
                           std::size_t bytes) {
    if (!cube_side(pos)) return;
    st.base = data;
    st.bytes = bytes;
    st.extent = bytes;
    st.ref = nullptr;
  }

  KernelContext* ctx_;
};

}  // namespace ascend::acc
