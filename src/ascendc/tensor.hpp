// GlobalTensor / LocalTensor — the AscendC tensor abstractions (§3.2).
//
// GlobalTensor views a buffer in global memory; LocalTensor views a buffer in
// one of the core-local scratchpads (UB, L1, L0A/L0B/L0C). LocalTensors carry
// a pointer to the BufferState of the physical slot backing them, which the
// intrinsic layer uses to derive read-after-write / write-after-read hazard
// edges for the timing trace — this is what makes queue-based double
// buffering show up as genuine pipeline overlap in simulated time.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/check.hpp"
#include "ascendc/device.hpp"

namespace ascend::acc {

/// Logical buffer positions of the AscendC programming model, mapped to
/// physical scratchpads by the pipe allocator.
enum class TPosition : std::uint8_t {
  GM,       ///< global memory
  VECIN,    ///< UB, MTE2 destination
  VECCALC,  ///< UB, vector scratch
  VECOUT,   ///< UB, MTE3 source
  A1,       ///< L1, left-matrix staging
  B1,       ///< L1, right-matrix staging
  A2,       ///< L0A, left matrix
  B2,       ///< L0B, right matrix
  CO1,      ///< L0C, cube accumulator
};

constexpr const char* tposition_name(TPosition p) {
  switch (p) {
    case TPosition::GM: return "GM";
    case TPosition::VECIN: return "VECIN";
    case TPosition::VECCALC: return "VECCALC";
    case TPosition::VECOUT: return "VECOUT";
    case TPosition::A1: return "A1";
    case TPosition::B1: return "B1";
    case TPosition::A2: return "A2";
    case TPosition::B2: return "B2";
    case TPosition::CO1: return "CO1";
  }
  return "?";
}

/// Cube-side positions: the L1 and L0 buffers of the AIC core.
constexpr bool cube_side(TPosition p) {
  return p == TPosition::A1 || p == TPosition::B1 || p == TPosition::A2 ||
         p == TPosition::B2 || p == TPosition::CO1;
}

/// Hazard-tracking state of one physical buffer slot.
///
/// A cube-side slot also carries a content descriptor, which says what the
/// slot holds where that differs from its memory:
/// - a zero-tail extent: bytes [0, extent) of the slot hold whatever memory
///   holds, bytes past it read as zero, so a padded tile costs host work
///   only for its live rows;
/// - a reference: the slot holds a Device constant (U_s, L_s^-, 1_s) whose
///   bytes stay in the ConstMatrix, so staging it copies nothing. The extent
///   of a by-reference slot is its full size.
/// Every slot starts a launch at its full size and without a reference; the
/// cube intrinsics change both (rules in intrinsics.hpp). Slots with a null
/// `base` (UB, ad-hoc views) are not tracked and always read as memory
/// holds.
struct BufferState {
  std::uint32_t last_write_op = 0;
  std::uint32_t last_read_op = 0;
  std::byte* base = nullptr;  ///< slot start, or null when untracked
  std::size_t bytes = 0;      ///< slot size
  std::size_t extent = 0;     ///< zero-tail extent in bytes, <= bytes
  const ConstMatrix* ref = nullptr;  ///< constant held by reference, if any
};

template <typename T>
class GlobalTensor {
 public:
  GlobalTensor() = default;
  /// `vaddr` is the deterministic virtual GM address of `data` (see
  /// gm_space.hpp); it defaults to the host address only for ad-hoc views
  /// not backed by a GlobalBuffer.
  /// `constant` marks a whole view of a Device constant (see ConstBuffer).
  GlobalTensor(T* data, std::size_t n, std::uint64_t vaddr = 0,
               const ConstMatrix* constant = nullptr)
      : data_(data), size_(n),
        vaddr_(vaddr != 0 ? vaddr : reinterpret_cast<std::uint64_t>(data)),
        constant_(constant) {}

  void SetGlobalBuffer(T* data, std::size_t n) {
    data_ = data;
    size_ = n;
    vaddr_ = reinterpret_cast<std::uint64_t>(data);
    constant_ = nullptr;
  }

  T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool valid() const { return data_ != nullptr; }
  /// The Device constant this tensor views whole, or null.
  const ConstMatrix* constant() const { return constant_; }

  /// Sub-view starting at `offset` with `n` elements. Only a whole view
  /// keeps the constant mark.
  GlobalTensor sub(std::size_t offset, std::size_t n) const {
    ASCAN_ASSERT(offset + n <= size_, "GlobalTensor slice out of range: off="
                                          << offset << " n=" << n
                                          << " size=" << size_);
    return GlobalTensor(data_ + offset, n, vaddr_ + offset * sizeof(T),
                        offset == 0 && n == size_ ? constant_ : nullptr);
  }
  GlobalTensor operator[](std::size_t offset) const {
    return sub(offset, size_ - offset);
  }

  /// Address used by the L2 model: the buffer's virtual GM address, never
  /// the host heap address (which varies with ASLR/allocator state and
  /// would make simulated times nondeterministic).
  std::uint64_t gm_addr() const { return vaddr_; }

  template <typename U>
  GlobalTensor<U> reinterpret() const {
    return GlobalTensor<U>(reinterpret_cast<U*>(data_),
                           size_ * sizeof(T) / sizeof(U), vaddr_);
  }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::uint64_t vaddr_ = 0;
  const ConstMatrix* constant_ = nullptr;
};

template <typename T>
GlobalTensor<T> GlobalBuffer<T>::tensor() {
  return GlobalTensor<T>(data_.data(), data_.size(), vaddr_);
}

template <typename T>
GlobalTensor<T> ConstBuffer<T>::tensor() const {
  return GlobalTensor<T>(const_cast<T*>(m_->data<T>()), m_->s * m_->s, vaddr_,
                         m_);
}

template <typename T>
class LocalTensor {
 public:
  LocalTensor() = default;
  LocalTensor(T* data, std::size_t n, TPosition pos, BufferState* state)
      : data_(data), size_(n), pos_(pos), state_(state) {}

  T* data() const { return data_; }
  std::size_t size() const { return size_; }
  TPosition position() const { return pos_; }
  BufferState* state() const { return state_; }
  bool valid() const { return data_ != nullptr; }

  T& operator[](std::size_t i) const {
    ASCAN_ASSERT(i < size_);
    return data_[i];
  }

  /// Sub-view; shares the hazard state of the parent slot.
  LocalTensor sub(std::size_t offset, std::size_t n) const {
    ASCAN_ASSERT(offset + n <= size_, "LocalTensor slice out of range");
    return LocalTensor(data_ + offset, n, pos_, state_);
  }

  template <typename U>
  LocalTensor<U> reinterpret() const {
    return LocalTensor<U>(reinterpret_cast<U*>(data_),
                          size_ * sizeof(T) / sizeof(U), pos_, state_);
  }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
  TPosition pos_ = TPosition::VECCALC;
  BufferState* state_ = nullptr;
};

}  // namespace ascend::acc
