#include "obs/flow.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "obs/json.hpp"

namespace dcpl::obs {

static_assert(std::is_trivially_copyable_v<FlowRecord>);
static_assert(sizeof(FlowRecord) == 64, "one ring record per cache line");

const char* flow_cause_name(FlowCause cause) {
  switch (cause) {
    case FlowCause::kProtocolStep: return "protocol_step";
    case FlowCause::kBreachImplant: return "breach_implant";
    case FlowCause::kCollusionMerge: return "collusion_merge";
  }
  return "?";
}

const char* flow_event_kind_name(FlowEventKind kind) {
  switch (kind) {
    case FlowEventKind::kExposure: return "exposure";
    case FlowEventKind::kLink: return "link";
    case FlowEventKind::kCompromise: return "compromise";
  }
  return "?";
}

namespace {

std::uint64_t seen_key(core::PartyId party, core::AtomId atom) {
  return std::uint64_t{party} << 32 | atom;
}

/// Grows a per-id vector so `id` indexes it.
template <typename T>
T& at_id(std::vector<T>& v, std::uint32_t id, const T& fill = T{}) {
  if (id >= v.size()) v.resize(std::size_t{id} + 1, fill);
  return v[id];
}

}  // namespace

std::map<core::Party, core::KnowledgeTuple> fold_tuples(
    const std::vector<FlowEvent>& events) {
  std::map<core::Party, core::KnowledgeTuple> out;
  for (const FlowEvent& ev : events) {
    switch (ev.kind) {
      case FlowEventKind::kExposure: out[ev.party].add(ev.atom.kind); break;
      case FlowEventKind::kLink:
        out[ev.party];  // link-only parties appear with an empty tuple
        break;
      case FlowEventKind::kCompromise: break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// FlowLedger
// ---------------------------------------------------------------------------

thread_local std::uint32_t FlowLedger::tls_lane_ = 0;

FlowLedger::FlowLedger(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  protocols_.intern(std::string());  // id 0: no tag
}

void FlowLedger::set_lane(std::uint32_t lane) { tls_lane_ = lane; }

std::uint32_t FlowLedger::lane() { return tls_lane_; }

void FlowLedger::begin_staging(std::uint32_t lanes) {
  lanes_.reset(lanes == 0 ? 1 : lanes);
  staging_ = true;
}

bool FlowLedger::stage(StagedOp op) {
  if (!staging_) return false;
  op.time = clock_ ? clock_() : 0;
  lanes_.push(tls_lane_ < lanes_.lanes() ? tls_lane_ : 0, std::move(op));
  return true;
}

void FlowLedger::replay_op(StagedOp& op) {
  switch (op.kind) {
    case StagedOp::Kind::kExposure:
      if (op.table != nullptr) {
        SourceMap& src = source(*op.table);
        const core::PartyId party = map_party(src, op.party);
        expose(party, map_atom(src, op.atom), op.context);
      } else {
        record_exposure(op.name, std::move(op.atom_value), op.context);
      }
      break;
    case StagedOp::Kind::kLink:
      if (op.table != nullptr) {
        link(map_party(source(*op.table), op.party), op.context, op.context_b);
      } else {
        record_link(op.name, op.context, op.context_b);
      }
      break;
    case StagedOp::Kind::kCompromise:
      record_compromise(op.name, op.cause);
      break;
    case StagedOp::Kind::kBeginDelivery:
      begin_delivery(op.name);
      break;
    case StagedOp::Kind::kEndDelivery:
      end_delivery();
      break;
  }
}

void FlowLedger::commit_staged_before(std::uint64_t cutoff) {
  if (!staging_) return;
  // Ops of one delivery share a lane and a timestamp, so its begin/
  // exposures/end stay contiguous in the merged order.
  staging_ = false;  // replay through the immediate path
  lanes_.commit_before(cutoff, [this](StagedOp& op) {
    time_override_ = &op.time;
    replay_op(op);
  });
  time_override_ = nullptr;
  staging_ = true;
}

void FlowLedger::end_staging() {
  if (!staging_) return;
  commit_staged_before(~std::uint64_t{0});
  staging_ = false;
  lanes_.reset(0);
}

FlowLedger::SourceMap& FlowLedger::source(const core::SymbolTable& table) {
  if (last_source_ < sources_.size() &&
      sources_[last_source_].table == &table &&
      sources_[last_source_].serial == table.serial()) {
    return sources_[last_source_];
  }
  std::size_t i = 0;
  while (i < sources_.size() && sources_[i].table != &table) ++i;
  if (i == sources_.size()) sources_.emplace_back();
  SourceMap& src = sources_[i];
  if (src.table != &table || src.serial != table.serial()) {
    src = SourceMap{&table, table.serial(), {}, {}};  // a new table
  }
  last_source_ = i;
  return src;
}

core::PartyId FlowLedger::map_party(SourceMap& src, core::PartyId id) {
  core::PartyId& mapped = at_id(src.parties, id, kUnmapped);
  if (mapped == kUnmapped) mapped = party_id(src.table->party(id));
  return mapped;
}

core::AtomId FlowLedger::map_atom(SourceMap& src, core::AtomId id) {
  core::AtomId& mapped = at_id(src.atoms, id, kUnmapped);
  if (mapped == kUnmapped) mapped = atoms_.intern(src.table->atom(id));
  return mapped;
}

core::PartyId FlowLedger::party_id(const core::Party& party) {
  const core::PartyId id = parties_.intern(party);
  at_id(tuples_, id);
  at_id(compromise_events_, id);
  return id;
}

void FlowLedger::on_observe(const core::Observation& o) {
  if (staging_) {
    StagedOp op;
    op.kind = StagedOp::Kind::kExposure;
    op.table = o.table;
    op.party = o.party;
    op.atom = o.atom;
    op.context = o.context;
    stage(std::move(op));
    return;
  }
  SourceMap& src = source(*o.table);
  const core::PartyId party = map_party(src, o.party);
  expose(party, map_atom(src, o.atom), o.context);
}

void FlowLedger::on_link(const core::ContextLink& l) {
  if (staging_) {
    StagedOp op;
    op.kind = StagedOp::Kind::kLink;
    op.table = l.table;
    op.party = l.party;
    op.context = l.a;
    op.context_b = l.b;
    stage(std::move(op));
    return;
  }
  link(map_party(source(*l.table), l.party), l.a, l.b);
}

void FlowLedger::on_compromise(const core::Party& party) {
  record_compromise(party, FlowCause::kBreachImplant);
}

FlowLedger::Frontier& FlowLedger::frontier_entry(std::uint64_t context) {
  if (frontier_.size() > retention_limit_) frontier_.clear();
  return *frontier_.try_emplace(context).first;
}

const FlowRecord& FlowLedger::append(FlowRecord ev) {
  ev.id = next_id_++;
  ev.virtual_time =
      time_override_ ? *time_override_ : (clock_ ? clock_() : 0);
  if (in_delivery_) ev.protocol = delivery_protocol_;
  if (!recording_) {
    scratch_ = ev;
    return scratch_;
  }
  const std::size_t slot_index =
      static_cast<std::size_t>((ev.id - 1) % capacity_);
  if (slot_index >= ring_.size()) {
    if (slot_index >= ring_.capacity()) {
      ring_.reserve(std::min(capacity_, 2 * slot_index + 16));
    }
    ring_.resize(slot_index + 1);
  }
  FlowRecord& slot = ring_[slot_index];
  if (slot.id != 0) ++evicted_;
  else ++resident_;
  slot = ev;
  return slot;
}

void FlowLedger::notify(const FlowRecord& ev) {
  if (monitor_) monitor_->on_event(*this, ev);
}

void FlowLedger::record_exposure(const core::Party& party, core::Atom atom,
                                 std::uint64_t context) {
  if (staging_) {
    StagedOp op;
    op.kind = StagedOp::Kind::kExposure;
    op.name = party;
    op.atom_value = std::move(atom);
    op.context = context;
    stage(std::move(op));
    return;
  }
  const core::PartyId id = party_id(party);
  expose(id, atoms_.intern(std::move(atom)), context);
}

void FlowLedger::expose(core::PartyId party, core::AtomId atom,
                        std::uint64_t context) {
  if (!seen_.try_emplace(seen_key(party, atom)).second) {
    // Idempotent repeat (e.g. a retry_run resend re-decrypted by the same
    // relay): no new knowledge, no event, frontier left untouched.
    ++deduped_;
    return;
  }
  const bool release = seen_.size() > retention_limit_;
  if (release) seen_.clear();

  FlowRecord ev;
  ev.kind = FlowEventKind::kExposure;
  ev.party = party;
  ev.atom = atom;
  ev.context = context;
  core::KnowledgeTuple& tuple = tuples_[party];
  tuple.add(atoms_.name(atom).kind);
  ev.tuple_after = tuple;

  // Take the frontier snapshot before append (append never mutates
  // frontier_, but entry creation might clear it under the retention cap).
  Frontier& f = frontier_entry(context);
  ev.hop_index = f.depth;
  ev.parent_id = f.last_event_id;

  ++exposures_;
  const FlowRecord& stored = append(ev);
  f.last_event_id = stored.id;
  notify(stored);
  // After the event is resident, so its own atom survives the rebuild.
  if (release) rebuild_atoms();
}

void FlowLedger::record_link(const core::Party& party, std::uint64_t a,
                             std::uint64_t b) {
  if (staging_) {
    StagedOp op;
    op.kind = StagedOp::Kind::kLink;
    op.name = party;
    op.context = a;
    op.context_b = b;
    stage(std::move(op));
    return;
  }
  link(party_id(party), a, b);
}

void FlowLedger::link(core::PartyId party, std::uint64_t a, std::uint64_t b) {
  FlowRecord ev;
  ev.kind = FlowEventKind::kLink;
  ev.party = party;
  ev.context = a;
  ev.context_b = b;
  ev.tuple_after = tuples_[party];  // links add no atoms

  const Frontier upstream = frontier_entry(a);
  ev.hop_index = upstream.depth;
  ev.parent_id = upstream.last_event_id;

  ++links_;
  const FlowRecord& stored = append(ev);
  // The link extends a's chain and opens b one hop deeper: exposures made
  // under the downstream context now trace back through this event.
  frontier_entry(a).last_event_id = stored.id;
  frontier_entry(b) = Frontier{stored.id, upstream.depth + 1};
  notify(stored);
}

void FlowLedger::record_compromise(const core::Party& party, FlowCause cause) {
  if (staging_) {
    StagedOp op;
    op.kind = StagedOp::Kind::kCompromise;
    op.name = party;
    op.cause = cause;
    stage(std::move(op));
    return;
  }
  compromise(party_id(party), cause);
}

void FlowLedger::compromise(core::PartyId party, FlowCause cause) {
  if (compromise_events_[party] != 0) return;  // first implant wins

  FlowRecord ev;
  ev.kind = FlowEventKind::kCompromise;
  ev.cause = cause;
  ev.party = party;
  ev.tuple_after = tuples_[party];

  ++compromises_;
  const FlowRecord& stored = append(ev);
  compromise_events_[party] = stored.id;
  // Drop the party's dedup entries: what it observes from here on is new
  // knowledge in the attacker's frame (mirroring live_breach, which counts
  // only post-compromise records), so repeats of pre-implant atoms must
  // re-enter the event stream — and reach a kLiveImplant monitor. They
  // leave the filter's size, and so the retention count, with them.
  seen_.erase_if([party](std::uint64_t key) { return key >> 32 == party; });
  notify(stored);
}

void FlowLedger::rebuild_atoms() {
  Interner<core::Atom, core::AtomHash> kept;
  for (FlowRecord& r : ring_) {
    if (r.id != 0 && r.kind == FlowEventKind::kExposure) {
      r.atom = kept.intern(atoms_.name(r.atom));
    }
  }
  atoms_ = std::move(kept);
  for (SourceMap& src : sources_) src.atoms.clear();
}

void FlowLedger::set_clock(std::function<std::uint64_t()> clock) {
  clock_ = std::move(clock);
}

void FlowLedger::begin_delivery(std::string_view protocol) {
  if (staging_) {
    StagedOp op;
    op.kind = StagedOp::Kind::kBeginDelivery;
    op.name.assign(protocol.data(), protocol.size());
    stage(std::move(op));
    return;
  }
  in_delivery_ = true;
  if (protocols_.name(delivery_protocol_) != protocol) {
    delivery_protocol_ = protocols_.intern(std::string(protocol));
  }
}

void FlowLedger::end_delivery() {
  if (staging_) {
    StagedOp op;
    op.kind = StagedOp::Kind::kEndDelivery;
    stage(std::move(op));
    return;
  }
  in_delivery_ = false;
}

void FlowLedger::attach_monitor(DecouplingMonitor* monitor) {
  monitor_ = monitor;
}

std::uint64_t FlowLedger::dropped() const { return evicted_; }

std::size_t FlowLedger::size() const {
  return static_cast<std::size_t>(resident_);
}

const FlowRecord* FlowLedger::find_record(std::uint64_t id) const {
  if (id == 0 || id >= next_id_) return nullptr;
  const std::size_t slot_index = static_cast<std::size_t>((id - 1) % capacity_);
  if (slot_index >= ring_.size()) return nullptr;
  const FlowRecord& slot = ring_[slot_index];
  return slot.id == id ? &slot : nullptr;
}

FlowEvent FlowLedger::resolve(const FlowRecord& r) const {
  FlowEvent ev;
  ev.id = r.id;
  ev.virtual_time = r.virtual_time;
  ev.kind = r.kind;
  ev.cause = r.cause;
  ev.party = parties_.name(r.party);
  if (r.kind == FlowEventKind::kExposure) ev.atom = atoms_.name(r.atom);
  ev.context = r.context;
  ev.context_b = r.context_b;
  ev.hop_index = r.hop_index;
  ev.parent_id = r.parent_id;
  ev.protocol = protocols_.name(r.protocol);
  ev.tuple_after = r.tuple_after;
  return ev;
}

std::optional<FlowEvent> FlowLedger::find(std::uint64_t id) const {
  const FlowRecord* r = find_record(id);
  if (r == nullptr) return std::nullopt;
  return resolve(*r);
}

std::vector<const FlowRecord*> FlowLedger::resident_records() const {
  std::vector<const FlowRecord*> out;
  out.reserve(static_cast<std::size_t>(resident_));
  for (const FlowRecord& slot : ring_) {
    if (slot.id != 0) out.push_back(&slot);
  }
  std::sort(out.begin(), out.end(),
            [](const FlowRecord* x, const FlowRecord* y) {
              return x->id < y->id;
            });
  return out;
}

std::vector<FlowEvent> FlowLedger::events() const {
  std::vector<FlowEvent> out;
  out.reserve(static_cast<std::size_t>(resident_));
  for (const FlowRecord* r : resident_records()) out.push_back(resolve(*r));
  return out;
}

std::vector<FlowEvent> FlowLedger::chain_of(std::uint64_t id) const {
  std::vector<FlowEvent> out;
  for (const FlowRecord* r = find_record(id); r != nullptr;
       r = find_record(r->parent_id)) {  // nullptr: ancestor wrapped away
    out.push_back(resolve(*r));
  }
  return out;
}

std::map<core::Party, core::KnowledgeTuple> FlowLedger::tuples() const {
  std::map<core::Party, core::KnowledgeTuple> out;
  for (core::PartyId id = 0; id < tuples_.size(); ++id) {
    out.emplace(parties_.name(id), tuples_[id]);
  }
  return out;
}

std::optional<std::uint64_t> FlowLedger::compromise_event(
    const core::Party& party) const {
  const auto id = parties_.lookup(party);
  if (!id || compromise_events_[*id] == 0) return std::nullopt;
  return compromise_events_[*id];
}

void FlowLedger::write_jsonl(std::string& out,
                             std::string_view run_label) const {
  for (const FlowRecord* r : resident_records()) {
    const FlowRecord& ev = *r;
    JsonWriter w;
    w.begin_object();
    if (!run_label.empty()) w.kv("run", run_label);
    w.kv("id", ev.id);
    w.kv("t_us", ev.virtual_time);
    w.kv("type", flow_event_kind_name(ev.kind));
    w.kv("cause", flow_cause_name(ev.cause));
    w.kv("party", parties_.name(ev.party));
    if (ev.kind == FlowEventKind::kExposure) {
      const core::Atom& atom = atoms_.name(ev.atom);
      w.kv("symbol", core::kind_symbol(atom.kind));
      w.kv("label", atom.label);
      if (!atom.facet.empty()) w.kv("facet", atom.facet);
      w.kv("message_id", ev.context);
      w.kv("hop", ev.hop_index);
    } else if (ev.kind == FlowEventKind::kLink) {
      w.kv("ctx_a", ev.context);
      w.kv("ctx_b", ev.context_b);
      w.kv("hop", ev.hop_index);
    }
    w.kv("parent", ev.parent_id);
    if (ev.protocol != 0) w.kv("protocol", protocols_.name(ev.protocol));
    w.kv("tuple", ev.tuple_after.to_string());
    w.end_object();
    out += w.str();
    out += '\n';
  }
}

bool FlowLedger::write_jsonl_file(const std::string& path,
                                  std::string_view run_label) const {
  std::string text;
  write_jsonl(text, run_label);
  return write_file(path, text);
}

// ---------------------------------------------------------------------------
// DecouplingMonitor
// ---------------------------------------------------------------------------

DecouplingMonitor::DecouplingMonitor(Mode mode) : mode_(mode) {}

void DecouplingMonitor::exempt(const core::Party& user) {
  exempt(std::vector<core::Party>{user});
}

void DecouplingMonitor::exempt(const std::vector<core::Party>& users) {
  exempt_.insert(exempt_.end(), users.begin(), users.end());
  std::sort(exempt_.begin(), exempt_.end());
  exempt_.erase(std::unique(exempt_.begin(), exempt_.end()), exempt_.end());
  for (PartyState& s : parties_) s.exempt = PartyState::Exempt::kUnresolved;
}

bool DecouplingMonitor::tripped(const core::Party& party) const {
  return std::any_of(violations_.begin(), violations_.end(),
                     [&](const Violation& v) { return v.party == party; });
}

void DecouplingMonitor::on_event(const FlowLedger& ledger,
                                 const FlowRecord& ev) {
  if (ev.kind != FlowEventKind::kExposure) return;
  PartyState& state = at_id(parties_, ev.party);
  if (state.exempt == PartyState::Exempt::kUnresolved) {
    state.exempt = std::binary_search(exempt_.begin(), exempt_.end(),
                                      ledger.parties_.name(ev.party))
                       ? PartyState::Exempt::kYes
                       : PartyState::Exempt::kNo;
  }
  if (state.exempt == PartyState::Exempt::kYes) return;

  std::uint64_t implant = 0;
  if (mode_ == Mode::kLiveImplant) {
    implant = ledger.compromise_events_[ev.party];
    if (implant == 0) return;  // implant never ran: the attacker saw nothing
  }

  ++counted_exposures_;
  core::KnowledgeTuple& tuple = state.counted;
  tuple.add(ledger.atoms_.name(ev.atom).kind);
  if (!(tuple.sensitive_identity && tuple.sensitive_data)) return;
  if (state.violated) return;  // already fired
  state.violated = true;

  Violation v;
  v.party = ledger.parties_.name(ev.party);
  v.event_id = ev.id;
  v.virtual_time = ev.virtual_time;
  v.tuple = tuple;
  v.cause = ev.cause;
  for (const FlowRecord* r = ledger.find_record(ev.id); r != nullptr;
       r = ledger.find_record(r->parent_id)) {
    v.chain.push_back(r->id);
  }
  // Recording may be off (flight recorder disabled): still identify the
  // tripping event even though its record was not retained.
  if (v.chain.empty()) v.chain.push_back(ev.id);
  if (implant != 0) {
    v.implant_event_id = implant;
    v.chain.push_back(implant);
  }
  violations_.push_back(std::move(v));
}

}  // namespace dcpl::obs
