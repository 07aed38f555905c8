// Address interning: the hot-path currency of the network layer.
//
// Wire-visible addresses stay human-readable strings (`Address`) because
// observation logs, traces, and the paper's tables are all keyed by them.
// But a million-user simulation pays for string hashing and allocation on
// every send if the simulator's internal state is string-keyed, so the
// simulator interns each address once into a dense `AddressId` and keys
// every hot-path table (node lookup, link latency/bandwidth/impairment,
// per-link byte counters) by id — or by a packed id pair for links.
//
// Interning is append-only and deterministic: ids are assigned in first-use
// order, which is itself deterministic for a fixed workload, so switching
// the simulator's internals to ids cannot perturb event ordering or fault
// rolls.
#pragma once

#include <cstdint>
#include <string>

#include "common/interner.hpp"

namespace dcpl::net {

/// Node address ("who the IP layer says you are").
using Address = std::string;

/// Virtual time in microseconds.
using Time = std::uint64_t;

/// Dense interned address handle, assigned in first-use order.
using AddressId = std::uint32_t;

/// Packs a directed link into one 64-bit key for flat-hash lookup.
constexpr std::uint64_t pack_link(AddressId src, AddressId dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}

/// The destination half of a packed link key.
constexpr AddressId link_dst(std::uint64_t key) {
  return static_cast<AddressId>(key & 0xffffffffu);
}

/// The source half of a packed link key.
constexpr AddressId link_src(std::uint64_t key) {
  return static_cast<AddressId>(key >> 32);
}

/// Bidirectional address ⇄ dense-id map (common/interner.hpp).
using AddressInterner = Interner<Address>;

}  // namespace dcpl::net
