// An open-addressing hash map from 64-bit keys, for per-event tables keyed
// by packed ids or linkage contexts (the FlowLedger's dedup filter and
// causal frontier, the analysis' union-find). Slots live in one array with
// linear probing, so a lookup touches one or two cache lines and an insert
// allocates only when the table doubles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dcpl {

/// `V` must be default-constructible. References returned by find() and
/// try_emplace() stay valid until the next insert, erase_if() or clear().
template <typename V>
class FlatMap64 {
 public:
  /// The value for `key`, value-initialised and inserted if absent, and
  /// whether it was inserted.
  std::pair<V*, bool> try_emplace(std::uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    Slot* s = probe(key);
    if (s->used) return {&s->value, false};
    *s = Slot{key, V{}, true};
    ++size_;
    return {&s->value, true};
  }

  V* find(std::uint64_t key) {
    if (slots_.empty()) return nullptr;
    Slot* s = probe(key);
    return s->used ? &s->value : nullptr;
  }
  const V* find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->find(key);
  }

  /// Erases every entry whose key satisfies `pred`, by rebuilding the table
  /// (linear probing has no cheap single erase); O(capacity).
  template <typename Pred>
  void erase_if(Pred pred) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size(), Slot{});
    size_ = 0;
    for (Slot& s : old) {
      if (!s.used || pred(s.key)) continue;
      *probe(s.key) = std::move(s);
      ++size_;
    }
  }

  /// Drops every entry and the slot array.
  void clear() {
    slots_.clear();
    slots_.shrink_to_fit();
    size_ = 0;
  }

  std::size_t size() const { return size_; }

 private:
  struct Slot {
    std::uint64_t key = 0;
    V value{};
    bool used = false;
  };

  static std::size_t mix(std::uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    return static_cast<std::size_t>(k);
  }

  /// The slot holding `key`, or the empty slot where it would go.
  Slot* probe(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix(key) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (!s.used || s.key == key) return &s;
    }
  }

  /// Doubles the slot array (16 slots at first); keeps load at most 1/2.
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
    for (Slot& s : old) {
      if (s.used) *probe(s.key) = std::move(s);
    }
  }

  std::vector<Slot> slots_;  // power-of-two size, or empty
  std::size_t size_ = 0;
};

}  // namespace dcpl
