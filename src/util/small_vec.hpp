// A small vector with inline storage, used for mesh coordinates.
//
// Mesh dimension d is tiny (1..8 in every experiment), so coordinates are
// hot, short, and allocated by the million while building paths. SmallVec
// keeps up to `N` elements inline and only spills to the heap beyond that,
// so coordinate math never touches the allocator in practice.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "util/check.hpp"

namespace oblivious {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is designed for trivially copyable element types");
  static_assert(N > 0, "inline capacity must be positive");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() = default;

  explicit SmallVec(std::size_t count, const T& value = T{}) {
    resize(count, value);
  }

  SmallVec(std::initializer_list<T> init) {
    reserve(init.size());
    for (const T& v : init) push_back(v);
  }

  SmallVec(const SmallVec& other) { assign_from(other); }

  SmallVec(SmallVec&& other) noexcept { move_from(std::move(other)); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      clear_storage();
      assign_from(other);
    }
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      clear_storage();
      move_from(std::move(other));
    }
    return *this;
  }

  ~SmallVec() { clear_storage(); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }
  bool is_inline() const { return data_ == inline_data(); }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  T& at(std::size_t i) {
    OBLV_REQUIRE(i < size_, "SmallVec index out of range");
    return data_[i];
  }
  const T& at(std::size_t i) const {
    OBLV_REQUIRE(i < size_, "SmallVec index out of range");
    return data_[i];
  }

  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }
  const_iterator cbegin() const { return data_; }
  const_iterator cend() const { return data_ + size_; }

  void push_back(const T& value) {
    if (size_ == capacity_) grow(capacity_ * 2);
    data_[size_++] = value;
  }

  void pop_back() {
    OBLV_REQUIRE(size_ > 0, "pop_back on empty SmallVec");
    --size_;
  }

  void clear() { size_ = 0; }

  void resize(std::size_t count, const T& value = T{}) {
    if (count > capacity_) grow(count);
    for (std::size_t i = size_; i < count; ++i) data_[i] = value;
    size_ = count;
  }

  void reserve(std::size_t count) {
    if (count > capacity_) grow(count);
  }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const SmallVec& a, const SmallVec& b) { return !(a == b); }

 private:
  const T* inline_data() const { return reinterpret_cast<const T*>(inline_storage_); }
  T* inline_data() { return reinterpret_cast<T*>(inline_storage_); }

  void grow(std::size_t min_capacity) {
    const std::size_t new_capacity = std::max<std::size_t>(min_capacity, capacity_ * 2);
    T* heap = new T[new_capacity];
    std::copy(data_, data_ + size_, heap);
    if (!is_inline()) delete[] data_;
    data_ = heap;
    capacity_ = new_capacity;
  }

  void clear_storage() {
    if (!is_inline()) delete[] data_;
    data_ = inline_data();
    capacity_ = N;
    size_ = 0;
  }

  void assign_from(const SmallVec& other) {
    reserve(other.size_);
    std::copy(other.data_, other.data_ + other.size_, data_);
    size_ = other.size_;
  }

  void move_from(SmallVec&& other) noexcept {
    if (other.is_inline()) {
      std::copy(other.data_, other.data_ + other.size_, inline_data());
      data_ = inline_data();
      capacity_ = N;
      size_ = other.size_;
    } else {
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.data_ = other.inline_data();
      other.capacity_ = N;
      other.size_ = 0;
    }
  }

  alignas(T) std::byte inline_storage_[N * sizeof(T)];
  T* data_ = inline_data();
  std::size_t capacity_ = N;
  std::size_t size_ = 0;
};

}  // namespace oblivious
