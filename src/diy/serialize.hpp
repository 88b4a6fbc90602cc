// Flat binary serialization buffers for block I/O.
//
// Blocks are serialized rank-locally into a Buffer, concatenated into one
// file at exscan-computed offsets, and deserialized by the reader. Only
// trivially copyable scalars and vectors thereof are supported, which is
// all the tessellation data model needs.
#pragma once

#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace tess::diy {

class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::vector<std::byte> data) : data_(std::move(data)) {}

  [[nodiscard]] const std::vector<std::byte>& data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

  template <typename T>
  void write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    append_bytes(&value, sizeof(T));
  }

  template <typename T>
  void write_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write<std::uint64_t>(v.size());
    append_bytes(v.data(), v.size() * sizeof(T));
  }

  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> read_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = read<std::uint64_t>();
    require(n * sizeof(T));
    std::vector<T> v(n);
    if (n > 0) std::memcpy(v.data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

 private:
  // resize + memcpy rather than a range insert: gcc 12 reports a false
  // -Wstringop-overflow for the inlined insert in Release builds.
  void append_bytes(const void* src, std::size_t bytes) {
    if (bytes == 0) return;
    const std::size_t at = data_.size();
    data_.resize(at + bytes);
    std::memcpy(data_.data() + at, src, bytes);
  }

  void require(std::size_t bytes) const {
    if (pos_ + bytes > data_.size())
      throw std::runtime_error("Buffer: read past end (offset " +
                               std::to_string(pos_) + " + " +
                               std::to_string(bytes) + " > " +
                               std::to_string(data_.size()) + ")");
  }

  std::vector<std::byte> data_;
  std::size_t pos_ = 0;
};

/// Non-owning read cursor over externally managed bytes — the zero-copy
/// counterpart of Buffer's read side, used to deserialize blocks directly
/// out of a memory-mapped file (diy::MappedBlockFile) without staging them
/// through a heap copy. The caller guarantees the bytes outlive the view.
class BufferView {
 public:
  BufferView(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == size_; }

  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> read_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = read<std::uint64_t>();
    require(n * sizeof(T));
    std::vector<T> v(n);
    if (n > 0) std::memcpy(v.data(), data_ + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

 private:
  void require(std::size_t bytes) const {
    if (pos_ + bytes > size_)
      throw std::runtime_error("BufferView: read past end (offset " +
                               std::to_string(pos_) + " + " +
                               std::to_string(bytes) + " > " +
                               std::to_string(size_) + ")");
  }

  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace tess::diy
