#include "core/analysis.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "common/flat_map.hpp"

namespace dcpl::core {

namespace {

/// Minimal union-find over arbitrary context ids.
class UnionFind {
 public:
  std::uint64_t find(std::uint64_t x) {
    auto [slot, inserted] = parent_.try_emplace(x);
    if (inserted) {
      *slot = x;
      return x;
    }
    std::uint64_t root = x;
    for (std::uint64_t up = *slot; up != root; up = *parent_.find(root)) {
      root = up;
    }
    while (x != root) {  // path compression
      std::uint64_t* p = parent_.find(x);
      x = *p;
      *p = root;
    }
    return root;
  }

  void unite(std::uint64_t a, std::uint64_t b) {
    const std::uint64_t rb = find(b);
    const std::uint64_t ra = find(a);
    *parent_.find(ra) = rb;
  }

 private:
  FlatMap64<std::uint64_t> parent_;
};

/// Counts UTF-8 codepoints (each paper symbol renders one column wide).
std::size_t display_width(const std::string& s) {
  std::size_t w = 0;
  for (unsigned char c : s) {
    if ((c & 0xc0) != 0x80) ++w;  // count non-continuation bytes
  }
  return w;
}

}  // namespace

void KnowledgeTuple::add(AtomKind kind) {
  switch (kind) {
    case AtomKind::kSensitiveIdentity: sensitive_identity = true; break;
    case AtomKind::kBenignIdentity: benign_identity = true; break;
    case AtomKind::kSensitiveData: sensitive_data = true; break;
    case AtomKind::kBenignData: benign_data = true; break;
  }
}

std::string KnowledgeTuple::to_string() const {
  // ▲ dominates △: once a party can identify the user, also knowing benign
  // identifiers adds nothing (matches the paper's single-symbol cells).
  std::string identity;
  if (sensitive_identity) {
    identity = "▲";
  } else if (benign_identity) {
    identity = "△";
  } else {
    identity = "-";
  }
  std::string data;
  if (benign_data && sensitive_data) {
    data = "⊙/●";
  } else if (sensitive_data) {
    data = "●";
  } else if (benign_data) {
    data = "⊙";
  } else {
    data = "-";
  }
  return "(" + identity + ", " + data + ")";
}

DecouplingAnalysis::DecouplingAnalysis(const ObservationLog& log)
    : log_(&log) {}

std::vector<std::optional<KnowledgeTuple>> DecouplingAnalysis::fold() const {
  const SymbolTable& sym = log_->symbols();
  std::vector<std::optional<KnowledgeTuple>> out(sym.party_count());
  for (const Observation& o : log_->observations()) {
    auto& t = out[o.party];
    if (!t) t.emplace();
    t->add(sym.atom(o.atom).kind);
  }
  for (const ContextLink& l : log_->links()) {
    if (!out[l.party]) out[l.party].emplace();
  }
  return out;
}

std::vector<bool> DecouplingAnalysis::mask(
    const std::vector<Party>& names) const {
  const SymbolTable& sym = log_->symbols();
  std::vector<bool> out(sym.party_count(), false);
  for (const Party& name : names) {
    if (auto id = sym.find_party(name)) out[*id] = true;
  }
  return out;
}

KnowledgeTuple DecouplingAnalysis::tuple_for(const Party& party) const {
  KnowledgeTuple t;
  const SymbolTable& sym = log_->symbols();
  const auto id = sym.find_party(party);
  if (!id) return t;
  for (const Observation& o : log_->observations()) {
    if (o.party == *id) t.add(sym.atom(o.atom).kind);
  }
  return t;
}

std::string DecouplingAnalysis::faceted_tuple(
    const Party& party,
    const std::vector<std::pair<std::string, std::string>>& facets) const {
  const SymbolTable& sym = log_->symbols();
  const auto id = sym.find_party(party);
  std::vector<KnowledgeTuple> by_facet(facets.size());
  KnowledgeTuple all;
  for (const Observation& o : log_->observations()) {
    if (!id || o.party != *id) continue;
    const Atom& a = sym.atom(o.atom);
    all.add(a.kind);
    for (std::size_t i = 0; i < facets.size(); ++i) {
      if (a.facet == facets[i].first) by_facet[i].add(a.kind);
    }
  }
  std::string out = "(";
  for (std::size_t i = 0; i < facets.size(); ++i) {
    const KnowledgeTuple& t = by_facet[i];
    out += t.sensitive_identity ? "▲" : (t.benign_identity ? "△" : "-");
    out += facets[i].second;
    out += ", ";
  }
  const bool sdata = all.sensitive_data, bdata = all.benign_data;
  out += sdata && bdata ? "⊙/●" : (sdata ? "●" : (bdata ? "⊙" : "-"));
  out += ")";
  return out;
}

bool DecouplingAnalysis::is_decoupled(const Party& user) const {
  return violating_parties(user).empty();
}

bool DecouplingAnalysis::is_decoupled(const std::vector<Party>& users) const {
  return violating_parties(users).empty();
}

std::vector<Party> DecouplingAnalysis::violating_parties(
    const Party& user) const {
  return violating_parties(std::vector<Party>{user});
}

std::vector<Party> DecouplingAnalysis::violating_parties(
    const std::vector<Party>& users) const {
  const std::vector<std::optional<KnowledgeTuple>> tuples = fold();
  const std::vector<bool> exempt = mask(users);
  std::vector<Party> out;
  for (PartyId p = 0; p < tuples.size(); ++p) {
    const auto& t = tuples[p];
    if (!exempt[p] && t && t->sensitive_identity && t->sensitive_data) {
      out.push_back(log_->symbols().party(p));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t DecouplingAnalysis::coupled_pairs(const std::vector<bool>& members,
                                              std::size_t first_observation,
                                              std::size_t first_link) const {
  const SymbolTable& sym = log_->symbols();
  UnionFind uf;
  const auto& links = log_->links();
  for (std::size_t i = first_link; i < links.size(); ++i) {
    if (members[links[i].party]) uf.unite(links[i].a, links[i].b);
  }

  // The members' ▲ and ● observations as (root component, label) pairs;
  // atoms that differ only in facet share a label.
  std::unordered_map<std::string_view, std::uint32_t> labels;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> identities, data;
  const auto& observations = log_->observations();
  for (std::size_t i = first_observation; i < observations.size(); ++i) {
    const Observation& o = observations[i];
    if (!members[o.party]) continue;
    const Atom& atom = sym.atom(o.atom);
    auto* side = atom.kind == AtomKind::kSensitiveIdentity ? &identities
                 : atom.kind == AtomKind::kSensitiveData   ? &data
                                                           : nullptr;
    if (side == nullptr) continue;
    const auto label = labels.try_emplace(atom.label, labels.size()).first;
    side->emplace_back(uf.find(o.context), label->second);
  }
  for (auto* side : {&identities, &data}) {
    std::sort(side->begin(), side->end());
    side->erase(std::unique(side->begin(), side->end()), side->end());
  }

  // Join on the root: every (identity, data) label pair sharing one.
  std::vector<std::uint64_t> pairs;
  auto d = data.begin();
  for (auto i = identities.begin(); i != identities.end();) {
    const std::uint64_t root = i->first;
    auto i_end = i;
    while (i_end != identities.end() && i_end->first == root) ++i_end;
    while (d != data.end() && d->first < root) ++d;
    for (auto dj = d; dj != data.end() && dj->first == root; ++dj) {
      for (auto ij = i; ij != i_end; ++ij) {
        pairs.push_back(std::uint64_t{ij->second} << 32 | dj->second);
      }
    }
    i = i_end;
  }
  std::sort(pairs.begin(), pairs.end());
  return static_cast<std::size_t>(
      std::unique(pairs.begin(), pairs.end()) - pairs.begin());
}

std::size_t DecouplingAnalysis::coalition_coupled_records(
    const std::vector<Party>& coalition) const {
  return coupled_pairs(mask(coalition), 0, 0);
}

bool DecouplingAnalysis::coalition_recouples(
    const std::vector<Party>& coalition) const {
  return coalition_coupled_records(coalition) > 0;
}

std::optional<std::size_t> DecouplingAnalysis::min_recoupling_coalition(
    const Party& user) const {
  std::vector<Party> others;
  for (const Party& p : parties()) {
    if (p != user) others.push_back(p);
  }
  const std::size_t n = others.size();
  if (n > 20) return std::nullopt;  // guard against exponential blowup

  std::optional<std::size_t> best;
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    const std::size_t size =
        static_cast<std::size_t>(__builtin_popcount(mask));
    if (best && size >= *best) continue;
    std::vector<Party> coalition;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) coalition.push_back(others[i]);
    }
    if (coalition_recouples(coalition)) best = size;
  }
  return best;
}

BreachReport DecouplingAnalysis::breach(const Party& party) const {
  BreachReport report;
  report.party = party;
  report.tuple = tuple_for(party);
  report.coupled_records = coalition_coupled_records({party});
  return report;
}

BreachReport DecouplingAnalysis::live_breach(const Party& party) const {
  BreachReport report;
  report.party = party;
  const auto mark = log_->compromise_mark(party);
  if (!mark) return report;

  // The same tuple and pair count as breach(), restricted to the post-mark
  // suffix of both the observation and the link streams.
  const SymbolTable& sym = log_->symbols();
  const auto id = sym.find_party(party);
  const auto& observations = log_->observations();
  for (std::size_t i = mark->observation_index; i < observations.size(); ++i) {
    const Observation& o = observations[i];
    if (id && o.party == *id) report.tuple.add(sym.atom(o.atom).kind);
  }
  report.coupled_records =
      coupled_pairs(mask({party}), mark->observation_index, mark->link_index);
  return report;
}

std::string DecouplingAnalysis::render_table(
    const std::vector<Party>& party_order) const {
  const std::vector<std::optional<KnowledgeTuple>> tuples = fold();
  std::vector<std::string> cells;
  for (const Party& p : party_order) {
    const auto id = log_->symbols().find_party(p);
    const bool present = id && tuples[*id];
    cells.push_back(present ? tuples[*id]->to_string() : "(-)");
  }

  std::ostringstream head, sep, row;
  head << "|";
  sep << "|";
  row << "|";
  for (std::size_t i = 0; i < party_order.size(); ++i) {
    const std::size_t w =
        std::max(display_width(party_order[i]), display_width(cells[i]));
    auto pad = [&](const std::string& s) {
      std::string out = " " + s;
      out.append(w - display_width(s) + 1, ' ');
      return out;
    };
    head << pad(party_order[i]) << "|";
    sep << std::string(w + 2, '-') << "|";
    row << pad(cells[i]) << "|";
  }
  return head.str() + "\n" + sep.str() + "\n" + row.str() + "\n";
}

std::string DecouplingAnalysis::render_report(
    const std::string& title, const std::vector<Party>& users) const {
  std::ostringstream out;
  out << "# " << title << "\n\n";
  out << render_table(parties()) << "\n";

  const std::vector<Party> violators = violating_parties(users);
  if (violators.empty()) {
    out << "verdict: DECOUPLED — only the user holds (▲, ●)\n\n";
  } else {
    out << "verdict: NOT decoupled — coupling at:";
    for (const Party& p : violators) out << " " << p;
    out << "\n\n";
  }

  out << "single-party breach exposure:\n";
  for (const Party& p : parties()) {
    if (std::find(users.begin(), users.end(), p) != users.end()) continue;
    BreachReport r = breach(p);
    out << "  " << p << ": " << r.coupled_records
        << " coupled (identity, data) records"
        << (r.coupled() ? "  ** EXPOSED **" : "") << "\n";
  }

  if (!users.empty()) {
    auto min_c = min_recoupling_coalition(users.front());
    out << "minimal re-coupling coalition: "
        << (min_c ? std::to_string(*min_c) + " parties"
                  : std::string("none (unlinkable)"))
        << "\n";
  }
  return out.str();
}

}  // namespace dcpl::core
