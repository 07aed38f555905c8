// Interning: each distinct key gets a dense 32-bit id, once.
//
// The simulator interns every address (net::AddressInterner), and the
// knowledge plane interns parties and atoms (core::SymbolTable and the
// FlowLedger's own names), so the tables behind them index vectors and
// flat hashes by id instead of hashing or comparing strings per event.
//
// Interning is append-only and deterministic: ids are assigned in first-use
// order, which is itself deterministic for a fixed workload, so switching a
// table from names to ids cannot perturb event ordering.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dcpl {

/// Bidirectional key ⇄ dense-id map. Ids are stable and contiguous from 0;
/// `name()` references stay valid for the interner's lifetime, moves
/// included (the keys live in node-based map storage). Not copyable: a
/// copy's name table would point into the original's nodes.
template <typename Key, typename Hash = std::hash<Key>>
class Interner {
 public:
  using Id = std::uint32_t;

  Interner() = default;
  Interner(Interner&&) noexcept = default;
  Interner& operator=(Interner&&) noexcept = default;
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  /// Id for `key`, interning (copying) it on first use.
  Id intern(const Key& key) {
    auto [it, inserted] = ids_.try_emplace(key, next_id());
    if (inserted) names_.push_back(&it->first);
    return it->second;
  }

  /// Id for `key`; moves it in only when it is new.
  Id intern(Key&& key) {
    auto [it, inserted] = ids_.try_emplace(std::move(key), next_id());
    if (inserted) names_.push_back(&it->first);
    return it->second;
  }

  /// Id for `key` if already interned; never interns (safe on const paths).
  std::optional<Id> lookup(const Key& key) const {
    auto it = ids_.find(key);
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }

  /// The key interned as `id`. Throws std::out_of_range for ids this
  /// interner never issued.
  const Key& name(Id id) const {
    if (id >= names_.size()) {
      throw std::out_of_range("Interner: unknown id " + std::to_string(id));
    }
    return *names_[id];
  }

  /// Number of interned keys (== the smallest id not yet issued).
  std::size_t size() const { return names_.size(); }

 private:
  Id next_id() const { return static_cast<Id>(names_.size()); }

  std::unordered_map<Key, Id, Hash> ids_;
  std::vector<const Key*> names_;  // id -> key in ids_ (node-stable)
};

}  // namespace dcpl
