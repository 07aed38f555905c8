#include "core/knowledge.hpp"

#include <functional>

namespace dcpl::core {

const char* kind_symbol(AtomKind kind) {
  switch (kind) {
    case AtomKind::kSensitiveIdentity:
      return "▲";  // ▲
    case AtomKind::kBenignIdentity:
      return "△";  // △
    case AtomKind::kSensitiveData:
      return "●";  // ●
    case AtomKind::kBenignData:
      return "⊙";  // ⊙
  }
  return "?";
}

std::size_t AtomHash::operator()(const Atom& atom) const noexcept {
  const std::hash<std::string> h;
  std::size_t seed = h(atom.label);
  seed ^= h(atom.facet) + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
  return seed ^ static_cast<std::size_t>(atom.kind);
}

Atom sensitive_identity(std::string label, std::string facet) {
  return Atom{AtomKind::kSensitiveIdentity, std::move(label), std::move(facet)};
}
Atom benign_identity(std::string label, std::string facet) {
  return Atom{AtomKind::kBenignIdentity, std::move(label), std::move(facet)};
}
Atom sensitive_data(std::string label, std::string facet) {
  return Atom{AtomKind::kSensitiveData, std::move(label), std::move(facet)};
}
Atom benign_data(std::string label, std::string facet) {
  return Atom{AtomKind::kBenignData, std::move(label), std::move(facet)};
}

}  // namespace dcpl::core
