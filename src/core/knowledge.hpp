// The paper's §2.4 notation, as data.
//
//   ▲  sensitive user identity      (AtomKind::SensitiveIdentity)
//   △  non-sensitive user identity  (AtomKind::BenignIdentity)
//   ●  sensitive data               (AtomKind::SensitiveData)
//   ⊙  non-sensitive data           (AtomKind::BenignData)
//
// An Atom is one concrete piece of identity/data (e.g. "user:alice" or
// "query:embarrassing.example"). Parties accumulate Observations of atoms;
// the DecouplingAnalysis in analysis.hpp turns observation logs into the
// paper's knowledge tuples.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>

namespace dcpl::core {

enum class AtomKind : std::uint8_t {
  kSensitiveIdentity,  // ▲
  kBenignIdentity,     // △
  kSensitiveData,      // ●
  kBenignData,         // ⊙
};

/// The paper's symbol for an atom kind (UTF-8).
const char* kind_symbol(AtomKind kind);

/// One concrete piece of knowledge.
struct Atom {
  AtomKind kind{};
  std::string label;  // e.g. "user:alice", "query:example.com"
  std::string facet;  // optional subdivision, e.g. "human"/"network" in PGPP

  auto operator<=>(const Atom&) const = default;
};

/// Hash over all three fields, for interning atoms (core::SymbolTable).
struct AtomHash {
  std::size_t operator()(const Atom& atom) const noexcept;
};

/// Convenience constructors matching the paper's four symbols.
Atom sensitive_identity(std::string label, std::string facet = "");
Atom benign_identity(std::string label, std::string facet = "");
Atom sensitive_data(std::string label, std::string facet = "");
Atom benign_data(std::string label, std::string facet = "");

}  // namespace dcpl::core
