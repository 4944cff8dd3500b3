// Exact-input memoization: a small process-wide cache for pure kernels
// whose inputs repeat byte for byte.
//
// The replicated-data decomposition has every rank evaluate the same
// physics, and a factorial sweep replays the same deterministic
// trajectory for every platform cell, so some kernels see the very same
// input bytes many times. ExactMemo maps those bytes to the kernel's
// stored output. Its contract:
//
//   - The key is a short list of byte spans, hashed (util::fnv1a_bytes,
//     util::hash_combine) over every byte as a cheap pre-filter.
//   - A hit requires every span to match in size and byte for byte. So
//     -0.0 and 0.0 are different keys, and a NaN matches only a NaN with
//     the same payload: a hit returns exactly the value the kernel would
//     have computed, never a near miss.
//   - Empty spans never reach memcmp (their data pointer may be null).
//   - One mutex guards the entries (sweep workers run kernels
//     concurrently); FIFO eviction at the capacity fixed at construction.
//   - find() returns a shared_ptr, so a value stays alive for as long as a
//     caller holds it, even after eviction.
//
// Key bytes must carry no padding: indeterminate padding would turn
// repeats into misses. Scalars go in one std::array (see key_bytes), and
// element types of spanned arrays must be padding-free.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/hash.hpp"

namespace repro::util {

// The bytes of `count` elements at `data`, for use in a MemoKey. T is a
// plain value type (no pointers, no padding).
template <class T>
std::span<const std::byte> key_bytes(const T* data, std::size_t count) {
  static_assert(std::is_standard_layout_v<T>);
  return {reinterpret_cast<const std::byte*>(data), count * sizeof(T)};
}

template <class T>
std::span<const std::byte> key_bytes(const std::vector<T>& v) {
  return key_bytes(v.data(), v.size());
}

template <class T, std::size_t N>
std::span<const std::byte> key_bytes(const std::array<T, N>& a) {
  return key_bytes(a.data(), N);
}

// A lookup key: views of the caller's bytes (not copied until insert) and
// their hash. The viewed bytes must outlive the key and stay unchanged.
class MemoKey {
 public:
  MemoKey(std::initializer_list<std::span<const std::byte>> spans)
      : spans_(spans) {
    for (const auto& s : spans_) {
      hash_ = hash_combine(hash_, s.size());
      hash_ = hash_combine(hash_, fnv1a_bytes(s.data(), s.size()));
    }
  }

 private:
  template <class Value>
  friend class ExactMemo;

  std::vector<std::span<const std::byte>> spans_;
  std::uint64_t hash_ = 0;
};

template <class Value>
class ExactMemo {
 public:
  explicit ExactMemo(std::size_t capacity) : capacity_(capacity) {}

  // The stored value for exactly these key bytes, or null.
  std::shared_ptr<const Value> find(const MemoKey& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : entries_) {
      if (e.hash == key.hash_ && matches(e, key)) {
        ++hits_;
        return e.value;
      }
    }
    ++misses_;
    return nullptr;
  }

  // Stores `value` under a copy of the key bytes, evicting the oldest
  // entry at capacity, and returns the stored value.
  std::shared_ptr<const Value> insert(const MemoKey& key, Value value) {
    Entry e;
    e.hash = key.hash_;
    e.value = std::make_shared<const Value>(std::move(value));
    std::size_t nbytes = 0;
    for (const auto& s : key.spans_) nbytes += s.size();
    e.sizes.reserve(key.spans_.size());
    e.bytes.reserve(nbytes);  // exactly the key: entries stay resident
    for (const auto& s : key.spans_) {
      e.sizes.push_back(s.size());
      e.bytes.insert(e.bytes.end(), s.begin(), s.end());
    }
    std::shared_ptr<const Value> stored = e.value;
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.size() >= capacity_) entries_.pop_front();
    entries_.push_back(std::move(e));
    return stored;
  }

  std::uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }

  std::uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::vector<std::size_t> sizes;  // one per key span
    std::vector<std::byte> bytes;    // the key spans, concatenated
    std::shared_ptr<const Value> value;
  };

  static bool matches(const Entry& e, const MemoKey& key) {
    if (e.sizes.size() != key.spans_.size()) return false;
    std::size_t at = 0;
    for (std::size_t i = 0; i < e.sizes.size(); ++i) {
      const auto& s = key.spans_[i];
      if (e.sizes[i] != s.size()) return false;
      if (!s.empty() &&
          std::memcmp(e.bytes.data() + at, s.data(), s.size()) != 0) {
        return false;
      }
      at += s.size();
    }
    return true;
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::deque<Entry> entries_;
  mutable std::uint64_t hits_ = 0;    // guarded by mu_
  mutable std::uint64_t misses_ = 0;  // guarded by mu_
};

}  // namespace repro::util
