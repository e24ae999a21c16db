// Binary serialization primitives for checkpoint images.
//
// Checkpoint images must round-trip exactly: the restart engine compares the
// restored process state byte-for-byte against the checkpointed state in the
// test suite.  The encoding is little-endian, length-prefixed, and versioned
// at the image level (storage/image.hpp), not here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ckpt::util {

/// Error thrown when a deserializer runs past the end of its buffer or a
/// length prefix is implausible.  Storage backends convert this into a
/// corrupted-image failure.
class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only byte sink with primitive encoders.
class Serializer {
 public:
  Serializer() = default;

  /// Adopt `reuse` as the backing buffer: contents are cleared, capacity is
  /// retained (pair with util::BufferPool to kill per-checkpoint regrowth).
  explicit Serializer(std::vector<std::byte> reuse) : bytes_(std::move(reuse)) {
    bytes_.clear();
  }

  /// Pre-size the backing buffer (see SizeCounter for exact estimation).
  void reserve(std::size_t n) { bytes_.reserve(n); }

  template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  void put(T value) {
    using U = std::make_unsigned_t<typename std::conditional_t<
        std::is_enum_v<T>, std::underlying_type<T>, std::type_identity<T>>::type>;
    auto u = static_cast<U>(value);
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      bytes_.push_back(static_cast<std::byte>((u >> (8 * i)) & 0xFF));
    }
  }

  void put_double(double value) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    __builtin_memcpy(&bits, &value, sizeof(bits));
    put(bits);
  }

  void put_bytes(std::span<const std::byte> data) {
    put<std::uint64_t>(data.size());
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  void put_string(std::string_view s) {
    put_bytes(std::span(reinterpret_cast<const std::byte*>(s.data()), s.size()));
  }

  /// Raw append without a length prefix (caller encodes its own framing).
  void put_raw(std::span<const std::byte> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  template <typename T, typename Fn>
  void put_vector(const std::vector<T>& items, Fn&& encode_one) {
    put<std::uint64_t>(items.size());
    for (const T& item : items) encode_one(*this, item);
  }

  [[nodiscard]] std::span<const std::byte> bytes() const { return bytes_; }
  [[nodiscard]] std::vector<std::byte> take() && { return std::move(bytes_); }
  [[nodiscard]] std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<std::byte> bytes_;
};

/// Serializer-shaped sink that only counts bytes.  Encoders written against
/// a generic sink (`template <typename Sink>`) run once against a
/// SizeCounter to learn the exact output size, then once against a
/// Serializer whose buffer was reserve()d to that size — one allocation,
/// zero regrowth on the image hot path.
class SizeCounter {
 public:
  template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  void put(T) {
    using U = std::make_unsigned_t<typename std::conditional_t<
        std::is_enum_v<T>, std::underlying_type<T>, std::type_identity<T>>::type>;
    size_ += sizeof(U);
  }

  void put_double(double) { size_ += sizeof(std::uint64_t); }

  void put_bytes(std::span<const std::byte> data) {
    size_ += sizeof(std::uint64_t) + data.size();
  }

  void put_string(std::string_view s) { size_ += sizeof(std::uint64_t) + s.size(); }

  void put_raw(std::span<const std::byte> data) { size_ += data.size(); }

  template <typename T, typename Fn>
  void put_vector(const std::vector<T>& items, Fn&& encode_one) {
    size_ += sizeof(std::uint64_t);
    for (const T& item : items) encode_one(*this, item);
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Sequential reader over a byte span; throws SerializeError on underrun.
class Deserializer {
 public:
  explicit Deserializer(std::span<const std::byte> data) : data_(data) {}

  template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  T get() {
    using U = std::make_unsigned_t<typename std::conditional_t<
        std::is_enum_v<T>, std::underlying_type<T>, std::type_identity<T>>::type>;
    require(sizeof(U));
    U u = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      u |= static_cast<U>(std::to_integer<std::uint64_t>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(U);
    return static_cast<T>(u);
  }

  double get_double() {
    const auto bits = get<std::uint64_t>();
    double value;
    __builtin_memcpy(&value, &bits, sizeof(value));
    return value;
  }

  std::vector<std::byte> get_bytes() {
    const auto n = get<std::uint64_t>();
    require(n);
    std::vector<std::byte> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                               data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  std::string get_string() {
    const auto raw = get_bytes();
    return {reinterpret_cast<const char*>(raw.data()), raw.size()};
  }

  std::span<const std::byte> get_raw(std::size_t n) {
    require(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// An item-count prefix.  Every item takes at least one byte, so a count
  /// the remaining bytes cannot hold is rejected here — before any caller
  /// reserves storage for it.
  std::uint64_t get_count() {
    const auto n = get<std::uint64_t>();
    if (n > remaining()) {
      throw SerializeError("count prefix exceeds remaining bytes");
    }
    return n;
  }

  template <typename T, typename Fn>
  std::vector<T> get_vector(Fn&& decode_one) {
    const std::uint64_t n = get_count();
    std::vector<T> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) out.push_back(decode_one(*this));
    return out;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

 private:
  void require(std::size_t n) const {
    // pos_ <= size() always holds, so this cannot wrap (pos_ + n could).
    if (n > data_.size() - pos_) {
      throw SerializeError("deserializer underrun");
    }
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace ckpt::util
