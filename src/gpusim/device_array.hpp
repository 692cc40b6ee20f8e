#pragma once
/// \file device_array.hpp
/// Host-backed "device" buffers with a deterministic virtual address space.
///
/// Simulated kernels access these through WarpCtx::ld/st, which both moves
/// real values (so computation is genuine) and feeds the coalescer with the
/// buffer's *virtual device addresses* (so transaction counts are genuine
/// too). Virtual addresses come from a bump allocator with 256-byte
/// alignment — like cudaMalloc — which makes coalescing and cache-conflict
/// behaviour bit-identical across runs (real heap addresses would wobble
/// with ASLR and allocation history).
///
/// Each thread has its own address space, so a simulated run's layout is
/// set only by the allocations its own thread made, in order. The serving
/// engine prices cold plans on its workers while clients and other workers
/// allocate; with one shared counter their allocations could land between
/// a problem's reservations, shift B and C against A, and change which
/// accesses conflict in the simulated caches. Ranges reserved on different
/// threads may overlap, so every array one launch touches is reserved on
/// one thread (the one that builds its problem).
///
/// Two tagged constructors skip work a caller does not need:
///  - `AddressOnly` reserves exactly the range an n-element buffer would
///    and holds no host storage. A pricing run reads only a launch's
///    metrics, and no simulated kernel branches on a dense operand's
///    values, so B and C can be address-only: every counter and modelled
///    time is bit-identical while nothing is allocated or zero-filled.
///    WarpCtx loads from such an array return zeros and its stores are
///    discarded. Address-only is a state of its own (`address_only()`),
///    never inferred from `empty()`: a moved-from array is empty too.
///  - `Uninitialized` allocates without the zero fill, for buffers the
///    caller overwrites in full before anything reads them. Builds without
///    NDEBUG fill them with 0xFF bytes instead (a NaN in every float), so an
///    element the caller fails to write shows up in bitwise tests.
/// Every other constructor, and `resize` growth, zero-fills as before.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace gespmm::gpusim {

namespace detail {
inline constexpr std::uint64_t kArenaBase = 0x1000'0000ull;
/// The calling thread's next free virtual device address.
inline std::uint64_t& device_arena() {
  thread_local std::uint64_t next = kArenaBase;
  return next;
}
}  // namespace detail

/// Reserve a 256-byte-aligned virtual device range of `bytes` bytes in the
/// calling thread's address space.
inline std::uint64_t allocate_device_address(std::size_t bytes) {
  const std::uint64_t len = (static_cast<std::uint64_t>(bytes) + 255u) & ~255ull;
  std::uint64_t& next = detail::device_arena();
  const std::uint64_t base = next;
  next += len + 256u;
  return base;
}

/// Reset the calling thread's virtual address space. Only safe when no
/// simulated launch on this thread's arrays is in flight; used by
/// tests/benches that need identical addresses across repeated in-process
/// experiments.
inline void reset_device_address_space() { detail::device_arena() = detail::kArenaBase; }

/// Tag: reserve an array's device range without host storage.
struct AddressOnly {
  explicit AddressOnly() = default;
};
inline constexpr AddressOnly address_only{};

/// Tag: allocate an array's host storage without zero-filling it.
struct Uninitialized {
  explicit Uninitialized() = default;
};
inline constexpr Uninitialized uninitialized{};

namespace detail {
/// std::allocator whose value-less construct default-initializes, so a
/// vector of trivially copyable elements grows without writing them; only
/// the constructors that pass an explicit value pay for a fill.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};
}  // namespace detail

/// A typed device buffer. Element type must be trivially copyable and its
/// size must divide the 32-byte transaction size (4- and 8-byte elements),
/// so a naturally aligned element never straddles a transaction boundary.
template <typename T>
class DeviceArray {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(32 % sizeof(T) == 0, "element must not straddle transactions");

 public:
  DeviceArray() : base_(allocate_device_address(0)), reserved_(0) {}
  explicit DeviceArray(std::size_t n) : data_(n, T{}) { reserve_addresses(); }
  DeviceArray(std::size_t n, T fill) : data_(n, fill) { reserve_addresses(); }
  DeviceArray(std::size_t n, Uninitialized) : data_(n) {
#ifndef NDEBUG
    if (n > 0) std::memset(static_cast<void*>(data_.data()), 0xFF, n * sizeof(T));
#endif
    reserve_addresses();
  }
  DeviceArray(std::size_t n, AddressOnly) : address_only_(true) { reserve_addresses(n); }
  explicit DeviceArray(std::span<const T> host) : data_(host.begin(), host.end()) {
    reserve_addresses();
  }

  DeviceArray(const DeviceArray& o) : data_(o.data_), address_only_(o.address_only_) {
    reserve_addresses(o.size());
  }
  DeviceArray& operator=(const DeviceArray& o) {
    data_ = o.data_;
    address_only_ = o.address_only_;
    reserve_addresses(o.size());
    return *this;
  }
  DeviceArray(DeviceArray&&) noexcept = default;
  DeviceArray& operator=(DeviceArray&&) noexcept = default;

  std::size_t size() const { return address_only_ ? reserved_ / sizeof(T) : data_.size(); }
  bool empty() const { return size() == 0; }
  /// True for an array built with AddressOnly: it has a device range and a
  /// size but no host elements.
  bool address_only() const { return address_only_; }

  /// Virtual device byte address of element 0 (256-byte aligned, unique).
  std::uint64_t base_addr() const { return base_; }

  // Host-side access for setup and verification (no elements when
  // address-only).
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  std::span<T> host() { return {data_.data(), data_.size()}; }
  std::span<const T> host() const { return {data_.data(), data_.size()}; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  void assign(std::span<const T> host) {
    data_.assign(host.begin(), host.end());
    if (data_.size() * sizeof(T) > reserved_) reserve_addresses();
  }
  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }
  void resize(std::size_t n) {
    data_.resize(n, T{});
    if (n * sizeof(T) > reserved_) reserve_addresses();
  }

 private:
  void reserve_addresses() { reserve_addresses(data_.size()); }
  void reserve_addresses(std::size_t n) {
    reserved_ = n * sizeof(T);
    base_ = allocate_device_address(reserved_);
  }

  std::vector<T, detail::DefaultInitAllocator<T>> data_;
  std::uint64_t base_ = 0;
  /// Bytes reserved at base_; an address-only array's size is derived
  /// from it.
  std::size_t reserved_ = 0;
  bool address_only_ = false;
};

}  // namespace gespmm::gpusim
