#include "core/observation.hpp"

#include <algorithm>
#include <atomic>

namespace dcpl::core {

namespace {

std::uint64_t next_table_serial() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

SymbolTable::SymbolTable() : serial_(next_table_serial()) {}

ObservationLog::ObservationLog() : symbols_(std::make_unique<SymbolTable>()) {}

void ObservationLog::append(PartyId party, AtomId atom,
                            std::uint64_t context) {
  observations_.push_back(Observation{symbols_.get(), party, atom, context});
  if (sink_) sink_->on_observe(observations_.back());
}

void ObservationLog::observe(const Party& party, Atom&& atom,
                             std::uint64_t context) {
  append(symbols_->party_id(party), symbols_->atom_id(std::move(atom)),
         context);
}

void ObservationLog::observe(const Party& party, const Atom& atom,
                             std::uint64_t context) {
  append(symbols_->party_id(party), symbols_->atom_id(atom), context);
}

void ObservationLog::link(const Party& party, std::uint64_t a,
                          std::uint64_t b) {
  links_.push_back(
      ContextLink{symbols_.get(), symbols_->party_id(party), a, b});
  if (sink_) sink_->on_link(links_.back());
}

std::vector<Party> ObservationLog::parties() const {
  std::vector<bool> present(symbols_->party_count(), false);
  for (const auto& o : observations_) present[o.party] = true;
  for (const auto& l : links_) present[l.party] = true;
  std::vector<Party> out;
  for (PartyId id = 0; id < present.size(); ++id) {
    if (present[id]) out.push_back(symbols_->party(id));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ObservationView> ObservationLog::for_party(
    const Party& party) const {
  std::vector<ObservationView> out;
  const auto id = symbols_->find_party(party);
  if (!id) return out;
  for (const auto& o : observations_) {
    if (o.party == *id) {
      out.push_back({symbols_->party(o.party), symbols_->atom(o.atom),
                     o.context});
    }
  }
  return out;
}

std::set<Atom> ObservationLog::atoms_of(const Party& party) const {
  std::set<Atom> out;
  const auto id = symbols_->find_party(party);
  if (!id) return out;
  for (const auto& o : observations_) {
    if (o.party == *id) out.insert(symbols_->atom(o.atom));
  }
  return out;
}

void ObservationLog::mark_compromised(const Party& party) {
  auto [it, inserted] = compromised_.try_emplace(
      party, CompromiseMark{observations_.size(), links_.size()});
  if (inserted && sink_) sink_->on_compromise(party);
}

std::optional<CompromiseMark> ObservationLog::compromise_mark(
    const Party& party) const {
  auto it = compromised_.find(party);
  if (it == compromised_.end()) return std::nullopt;
  return it->second;
}

}  // namespace dcpl::core
