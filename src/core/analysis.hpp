// Decoupling analysis: derives the paper's knowledge tuples, verdicts,
// collusion closures, and breach reports from observation logs.
//
// It works on the log's ids: one pass over the observations folds every
// party's tuple into a vector indexed by party id, coalitions are masks
// over party ids, and coupled records are counted over (context root,
// label) pairs of ints. Names are looked up only for the parties a caller
// names and the ones a result reports.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/observation.hpp"

namespace dcpl::core {

/// What a party holds, in the paper's four-symbol notation. `facets` refines
/// the identity columns when a system decomposes ▲ (PGPP's ▲H / ▲N).
struct KnowledgeTuple {
  bool sensitive_identity = false;  // ▲
  bool benign_identity = false;     // △
  bool sensitive_data = false;      // ●
  bool benign_data = false;         // ⊙

  /// Sets the column an atom of `kind` fills.
  void add(AtomKind kind);

  /// Renders like the paper: "(▲, ⊙)" — identity column first, then data.
  /// A party holding both data kinds renders "⊙/●" in the data column.
  std::string to_string() const;

  bool operator==(const KnowledgeTuple&) const = default;
};

/// Result of breaching (or legally compelling) a single party: everything in
/// that party's logs, plus whether those logs alone couple a sensitive
/// identity to sensitive data.
struct BreachReport {
  Party party;
  KnowledgeTuple tuple;
  /// Number of (sensitive identity, sensitive data) atom pairs connected
  /// through the party's own linkage contexts.
  std::size_t coupled_records = 0;
  bool coupled() const { return coupled_records > 0; }
};

class DecouplingAnalysis {
 public:
  explicit DecouplingAnalysis(const ObservationLog& log);

  /// The knowledge tuple a single party derives from its own observations.
  KnowledgeTuple tuple_for(const Party& party) const;

  std::vector<Party> parties() const { return log_->parties(); }

  /// Renders a tuple with identity facets split out, reproducing the
  /// paper's §3.2.3 ▲H/▲N decomposition. `facets` gives (facet name,
  /// rendered subscript) in column order, e.g. {{"human","H"},
  /// {"network","N"}}. The data column renders as in
  /// KnowledgeTuple::to_string().
  std::string faceted_tuple(
      const Party& party,
      const std::vector<std::pair<std::string, std::string>>& facets) const;

  /// Paper §2.4 verdict: the system is decoupled iff only `user` holds
  /// (▲, ●); every other party holds at most one of ▲ / ●.
  bool is_decoupled(const Party& user) const;

  /// Multi-user variant: every party in `users` is exempt (each user
  /// trivially holds its own (▲, ●)).
  bool is_decoupled(const std::vector<Party>& users) const;

  /// Parties other than `user` violating the §2.4 condition.
  std::vector<Party> violating_parties(const Party& user) const;

  /// Multi-user variant of violating_parties.
  std::vector<Party> violating_parties(const std::vector<Party>& users) const;

  /// §4.1/§5.1: does this coalition, pooling logs and joining flows through
  /// shared linkage contexts, connect a sensitive identity atom to a
  /// sensitive data atom?
  bool coalition_recouples(const std::vector<Party>& coalition) const;

  /// Count of (▲ atom, ● atom) pairs a coalition can couple.
  std::size_t coalition_coupled_records(
      const std::vector<Party>& coalition) const;

  /// Smallest coalition (excluding `user`) that re-couples, or nullopt if
  /// no coalition of the other parties ever does. Brute force over subsets;
  /// fine for the paper's 3-6 party systems.
  std::optional<std::size_t> min_recoupling_coalition(const Party& user) const;

  /// Single-party breach (§1: "individually breach-proof").
  BreachReport breach(const Party& party) const;

  /// Live-implant variant of breach() (§3.3 empirical): the attacker sees
  /// only what `party` logged at or after its compromise mark
  /// (ObservationLog::mark_compromised, typically set by a net::BreachEvent
  /// handler). A party with no mark yields an empty report — the implant
  /// never ran. breach() remains the stored-logs model (full history).
  BreachReport live_breach(const Party& party) const;

  /// Renders the paper-style table for the given party order (parties not
  /// in the log render as "(-)").
  std::string render_table(const std::vector<Party>& party_order) const;

  /// Renders a complete markdown report: knowledge table, decoupling
  /// verdict, per-party breach exposure, and the minimal re-coupling
  /// coalition. `users` are exempt from the verdict (§2.4).
  std::string render_report(const std::string& title,
                            const std::vector<Party>& users) const;

 private:
  /// One pass: every party's tuple, indexed by the log's party ids;
  /// nullopt for ids that appear in no observation or link.
  std::vector<std::optional<KnowledgeTuple>> fold() const;
  /// The parties named in `names`, as a mask over the log's party ids.
  std::vector<bool> mask(const std::vector<Party>& names) const;
  /// (▲ label, ● label) pairs that `members`' observations from
  /// `first_observation` on share through their own links from
  /// `first_link` on.
  std::size_t coupled_pairs(const std::vector<bool>& members,
                            std::size_t first_observation,
                            std::size_t first_link) const;

  const ObservationLog* log_;
};

}  // namespace dcpl::core
