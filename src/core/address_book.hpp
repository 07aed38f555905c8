// Maps network addresses to identity atoms.
//
// When a node receives a packet it sees the source address (IP-header
// reality). Whether that constitutes ▲ or △ depends on whose address it is:
// a user's own address is a sensitive network identity; a relay's address is
// benign. Systems register this mapping once and call observe_src() from
// their packet handlers: one hash lookup of the source, then the registered
// atom goes to the log by reference, which copies it into its table only
// the first time it sees it. Lookups are const, so per-node logs on
// different shards may share one book.
#pragma once

#include <string>
#include <unordered_map>

#include "core/knowledge.hpp"
#include "core/observation.hpp"

namespace dcpl::core {

class AddressBook {
 public:
  /// Registers `address` as belonging to the given identity atom.
  void set(const std::string& address, Atom atom) {
    atoms_.insert_or_assign(address, std::move(atom));
  }

  /// Logs the identity atom of `src_address` as observed by `party` within
  /// `context`. Unregistered addresses log as a benign identity.
  void observe_src(ObservationLog& log, const Party& party,
                   const std::string& src_address,
                   std::uint64_t context) const {
    auto it = atoms_.find(src_address);
    if (it != atoms_.end()) {
      log.observe(party, it->second, context);
    } else {
      log.observe(party, benign_identity("addr:" + src_address), context);
    }
  }

 private:
  std::unordered_map<std::string, Atom> atoms_;
};

}  // namespace dcpl::core
