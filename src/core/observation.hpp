// Observation logs: the empirical record of what each party could see.
//
// Parties never *declare* their knowledge; protocol code calls observe() at
// exactly the points where plaintext is in scope (after decryption, when
// reading a packet's source address, ...). The analysis layer then derives
// the paper's knowledge tuples from these logs — the paper's tables become
// *outputs* of running the system, not assumptions.
//
// `context` models linkability: two observations made under the same context
// id are trivially linkable by that party (same connection / same message in
// flight). A party that maps an inbound flow to an outbound flow (a relay)
// records a link() edge — this is precisely the knowledge a coalition needs
// to re-couple identities with data (§4.1, §5.1).
//
// The log is id-native. observe() and link() keep their string signatures,
// but the log interns each party and atom once into its SymbolTable, so an
// Observation is a 24-byte POD record {table, party id, atom id, context}
// and a ContextLink one of {table, party id, a, b}. Each record names the
// table its ids come from, so a sink fed by several logs (a FlowLedger
// behind per-node logs) can resolve them. Names come back only on export
// paths: parties(), for_party(), atoms_of() and SymbolTable's accessors.
// The log is append-only; ids and table entries never change once issued.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/interner.hpp"
#include "core/knowledge.hpp"

namespace dcpl::core {

using Party = std::string;

/// Dense ids a SymbolTable hands out, in first-use order.
using PartyId = std::uint32_t;
using AtomId = std::uint32_t;

/// The party and atom names one log's ids refer to.
class SymbolTable {
 public:
  SymbolTable();

  PartyId party_id(const Party& party) { return parties_.intern(party); }
  AtomId atom_id(const Atom& atom) { return atoms_.intern(atom); }
  AtomId atom_id(Atom&& atom) { return atoms_.intern(std::move(atom)); }
  std::optional<PartyId> find_party(const Party& party) const {
    return parties_.lookup(party);
  }

  const Party& party(PartyId id) const { return parties_.name(id); }
  const Atom& atom(AtomId id) const { return atoms_.name(id); }
  std::size_t party_count() const { return parties_.size(); }
  std::size_t atom_count() const { return atoms_.size(); }

  /// Unique per table over the process: tells a table apart from a later
  /// one allocated at the same address.
  std::uint64_t serial() const { return serial_; }

 private:
  Interner<Party> parties_;
  Interner<Atom, AtomHash> atoms_;
  std::uint64_t serial_;
};

struct Observation {
  const SymbolTable* table;  // resolves `party` and `atom`
  PartyId party;
  AtomId atom;
  std::uint64_t context;
};

/// "party knows contexts a and b carry the same flow".
struct ContextLink {
  const SymbolTable* table;  // resolves `party`
  PartyId party;
  std::uint64_t a;
  std::uint64_t b;
};

/// An observation with its ids resolved (export path). The references
/// point into the log's table and live as long as the log.
struct ObservationView {
  const Party& party;
  const Atom& atom;
  std::uint64_t context;
};

/// Log position at which a party's observer became compromised: a live
/// implant (net::BreachEvent, §3.3) sees only observations and links
/// recorded at or after these indices.
struct CompromiseMark {
  std::size_t observation_index = 0;
  std::size_t link_index = 0;
};

/// Streaming listener for log mutations. The observability layer's
/// FlowLedger implements this to turn the end-state log into a provenance
/// event stream; core itself has no opinion about what sinks do. Callbacks
/// fire after the record is appended, so the sink may inspect the log.
class ObservationSink {
 public:
  virtual ~ObservationSink() = default;
  virtual void on_observe(const Observation& o) = 0;
  virtual void on_link(const ContextLink& l) = 0;
  /// Fired only when the mark is newly placed (first mark wins).
  virtual void on_compromise(const Party& party) = 0;
};

class ObservationLog {
 public:
  ObservationLog();

  /// Records that `party` saw `atom` within linkage context `context`. The
  /// atom is copied (or moved) into the table only the first time it is seen.
  void observe(const Party& party, Atom&& atom, std::uint64_t context);
  void observe(const Party& party, const Atom& atom, std::uint64_t context);

  /// Records that `party` can link contexts `a` and `b`.
  void link(const Party& party, std::uint64_t a, std::uint64_t b);

  const std::vector<Observation>& observations() const { return observations_; }
  const std::vector<ContextLink>& links() const { return links_; }
  const SymbolTable& symbols() const { return *symbols_; }

  /// All parties that appear in the log, sorted.
  std::vector<Party> parties() const;

  /// Observations made by one party.
  std::vector<ObservationView> for_party(const Party& party) const;

  /// Distinct atoms a party observed.
  std::set<Atom> atoms_of(const Party& party) const;

  /// Marks `party` compromised from this point in the log onward (the
  /// usual caller is a Simulator breach handler reacting to a
  /// net::BreachEvent). The first mark wins; later calls are no-ops.
  void mark_compromised(const Party& party);

  /// The party's compromise mark, or nullopt if it was never breached.
  std::optional<CompromiseMark> compromise_mark(const Party& party) const;

  std::size_t size() const { return observations_.size(); }

  /// Attaches (or, with nullptr, detaches) a streaming listener. The sink
  /// must outlive the log or be detached first.
  void set_sink(ObservationSink* sink) { sink_ = sink; }
  ObservationSink* sink() const { return sink_; }

 private:
  void append(PartyId party, AtomId atom, std::uint64_t context);

  // On the heap so the records' table pointer survives moving the log.
  std::unique_ptr<SymbolTable> symbols_;
  std::vector<Observation> observations_;
  std::vector<ContextLink> links_;
  std::map<Party, CompromiseMark> compromised_;
  ObservationSink* sink_ = nullptr;
};

}  // namespace dcpl::core
