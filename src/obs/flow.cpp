#include "obs/flow.hpp"

#include <algorithm>
#include <utility>

#include "obs/json.hpp"

namespace dcpl::obs {

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

void apply_atom(core::KnowledgeTuple& t, const core::Atom& atom) {
  switch (atom.kind) {
    case core::AtomKind::kSensitiveIdentity: t.sensitive_identity = true; break;
    case core::AtomKind::kBenignIdentity: t.benign_identity = true; break;
    case core::AtomKind::kSensitiveData: t.sensitive_data = true; break;
    case core::AtomKind::kBenignData: t.benign_data = true; break;
  }
}

}  // namespace

std::map<core::Party, core::KnowledgeTuple> fold_tuples(
    const std::vector<FlowEvent>& events) {
  std::map<core::Party, core::KnowledgeTuple> out;
  for (const FlowEvent& ev : events) {
    switch (ev.kind) {
      case FlowEventKind::kExposure: apply_atom(out[ev.party], ev.atom); break;
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
  ring_.resize(capacity_);
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

void FlowLedger::replay_op(const StagedOp& op) {
  switch (op.kind) {
    case StagedOp::Kind::kExposure:
      record_exposure(op.party, op.atom, op.context);
      break;
    case StagedOp::Kind::kLink:
      record_link(op.party, op.context, op.context_b);
      break;
    case StagedOp::Kind::kCompromise:
      record_compromise(op.party, op.cause);
      break;
    case StagedOp::Kind::kBeginDelivery:
      begin_delivery(op.context, op.protocol);
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
  lanes_.commit_before(cutoff, [this](const StagedOp& op) {
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

void FlowLedger::on_observe(const core::Observation& o) {
  record_exposure(o.party, o.atom, o.context);
}

void FlowLedger::on_link(const core::ContextLink& l) {
  record_link(l.party, l.a, l.b);
}

void FlowLedger::on_compromise(const core::Party& party) {
  record_compromise(party, FlowCause::kBreachImplant);
}

FlowLedger::Frontier& FlowLedger::frontier_entry(std::uint64_t context) {
  if (frontier_.size() > retention_limit_) frontier_.clear();
  return frontier_[context];
}

FlowEvent& FlowLedger::append(FlowEvent ev) {
  ev.id = next_id_++;
  ev.virtual_time =
      time_override_ ? *time_override_ : (clock_ ? clock_() : 0);
  if (in_delivery_ && ev.protocol.empty()) ev.protocol = delivery_protocol_;
  if (!recording_) {
    scratch_ = std::move(ev);
    return scratch_;
  }
  FlowEvent& slot = ring_[static_cast<std::size_t>((ev.id - 1) % capacity_)];
  if (slot.id != 0) ++evicted_;
  else ++resident_;
  slot = std::move(ev);
  return slot;
}

void FlowLedger::notify(const FlowEvent& ev) {
  if (monitor_) monitor_->on_event(*this, ev);
}

void FlowLedger::record_exposure(const core::Party& party, core::Atom atom,
                                 std::uint64_t context) {
  if (staging_) {
    StagedOp op;
    op.kind = StagedOp::Kind::kExposure;
    op.party = party;
    op.atom = std::move(atom);
    op.context = context;
    stage(std::move(op));
    return;
  }
  {
    auto& seen = seen_[party];
    if (!seen.insert(atom).second) {
      // Idempotent repeat (e.g. a retry_run resend re-decrypted by the same
      // relay): no new knowledge, no event, frontier left untouched.
      ++deduped_;
      return;
    }
    if (++seen_count_ > retention_limit_) {
      seen_.clear();
      seen_count_ = 0;
    }
  }

  FlowEvent ev;
  ev.kind = FlowEventKind::kExposure;
  ev.cause = FlowCause::kProtocolStep;
  ev.party = party;
  ev.atom = std::move(atom);
  ev.context = context;

  core::KnowledgeTuple& tuple = tuples_[party];
  apply_atom(tuple, ev.atom);
  ev.tuple_after = tuple;

  // Take the frontier snapshot before append (append never mutates
  // frontier_, but entry creation might clear it under the retention cap).
  Frontier& f = frontier_entry(context);
  ev.hop_index = f.depth;
  ev.parent_id = f.last_event_id;

  ++exposures_;
  FlowEvent& stored = append(std::move(ev));
  f.last_event_id = stored.id;
  notify(stored);
}

void FlowLedger::record_link(const core::Party& party, std::uint64_t a,
                             std::uint64_t b) {
  if (staging_) {
    StagedOp op;
    op.kind = StagedOp::Kind::kLink;
    op.party = party;
    op.context = a;
    op.context_b = b;
    stage(std::move(op));
    return;
  }
  FlowEvent ev;
  ev.kind = FlowEventKind::kLink;
  ev.cause = FlowCause::kProtocolStep;
  ev.party = party;
  ev.context = a;
  ev.context_b = b;
  ev.tuple_after = tuples_[party];  // links add no atoms

  const Frontier upstream = frontier_entry(a);
  ev.hop_index = upstream.depth;
  ev.parent_id = upstream.last_event_id;

  ++links_;
  FlowEvent& stored = append(std::move(ev));
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
    op.party = party;
    op.cause = cause;
    stage(std::move(op));
    return;
  }
  if (compromise_events_.count(party) > 0) return;  // first implant wins

  FlowEvent ev;
  ev.kind = FlowEventKind::kCompromise;
  ev.cause = cause;
  ev.party = party;
  ev.tuple_after = tuples_[party];

  ++compromises_;
  FlowEvent& stored = append(std::move(ev));
  compromise_events_[party] = stored.id;
  // Reset the party's dedup set: what it observes from here on is new
  // knowledge in the attacker's frame (mirroring live_breach, which counts
  // only post-compromise records), so repeats of pre-implant atoms must
  // re-enter the event stream — and reach a kLiveImplant monitor.
  seen_.erase(party);
  notify(stored);
}

void FlowLedger::set_clock(std::function<std::uint64_t()> clock) {
  clock_ = std::move(clock);
}

void FlowLedger::begin_delivery(std::uint64_t context,
                                std::string_view protocol) {
  if (staging_) {
    StagedOp op;
    op.kind = StagedOp::Kind::kBeginDelivery;
    op.context = context;
    op.protocol.assign(protocol.data(), protocol.size());
    stage(std::move(op));
    return;
  }
  in_delivery_ = true;
  delivery_context_ = context;
  delivery_protocol_.assign(protocol.data(), protocol.size());
}

void FlowLedger::end_delivery() {
  if (staging_) {
    StagedOp op;
    op.kind = StagedOp::Kind::kEndDelivery;
    stage(std::move(op));
    return;
  }
  in_delivery_ = false;
  delivery_context_ = 0;
  delivery_protocol_.clear();
}

void FlowLedger::attach_monitor(DecouplingMonitor* monitor) {
  monitor_ = monitor;
}

std::uint64_t FlowLedger::dropped() const { return evicted_; }

std::size_t FlowLedger::size() const {
  return static_cast<std::size_t>(resident_);
}

const FlowEvent* FlowLedger::find(std::uint64_t id) const {
  if (id == 0 || id >= next_id_) return nullptr;
  const FlowEvent& slot =
      ring_[static_cast<std::size_t>((id - 1) % capacity_)];
  return slot.id == id ? &slot : nullptr;
}

std::vector<FlowEvent> FlowLedger::events() const {
  std::vector<FlowEvent> out;
  out.reserve(static_cast<std::size_t>(resident_));
  for (const FlowEvent& slot : ring_) {
    if (slot.id != 0) out.push_back(slot);
  }
  std::sort(out.begin(), out.end(),
            [](const FlowEvent& x, const FlowEvent& y) { return x.id < y.id; });
  return out;
}

std::vector<FlowEvent> FlowLedger::chain_of(std::uint64_t id) const {
  std::vector<FlowEvent> out;
  const FlowEvent* ev = find(id);
  while (ev != nullptr) {
    out.push_back(*ev);
    if (ev->parent_id == 0) break;
    ev = find(ev->parent_id);  // nullptr => ancestor wrapped away: truncate
  }
  return out;
}

std::optional<std::uint64_t> FlowLedger::compromise_event(
    const core::Party& party) const {
  auto it = compromise_events_.find(party);
  if (it == compromise_events_.end()) return std::nullopt;
  return it->second;
}

void FlowLedger::clear() {
  ring_.assign(capacity_, FlowEvent{});
  next_id_ = 1;
  resident_ = 0;
  evicted_ = 0;
  exposures_ = links_ = compromises_ = deduped_ = 0;
  in_delivery_ = false;
  delivery_context_ = 0;
  delivery_protocol_.clear();
  seen_.clear();
  seen_count_ = 0;
  frontier_.clear();
  tuples_.clear();
  compromise_events_.clear();
}

void FlowLedger::write_jsonl(std::string& out,
                             std::string_view run_label) const {
  for (const FlowEvent& ev : events()) {
    JsonWriter w;
    w.begin_object();
    if (!run_label.empty()) w.kv("run", run_label);
    w.kv("id", ev.id);
    w.kv("t_us", ev.virtual_time);
    w.kv("type", flow_event_kind_name(ev.kind));
    w.kv("cause", flow_cause_name(ev.cause));
    w.kv("party", ev.party);
    if (ev.kind == FlowEventKind::kExposure) {
      w.kv("symbol", core::kind_symbol(ev.atom.kind));
      w.kv("label", ev.atom.label);
      if (!ev.atom.facet.empty()) w.kv("facet", ev.atom.facet);
      w.kv("message_id", ev.context);
      w.kv("hop", ev.hop_index);
    } else if (ev.kind == FlowEventKind::kLink) {
      w.kv("ctx_a", ev.context);
      w.kv("ctx_b", ev.context_b);
      w.kv("hop", ev.hop_index);
    }
    w.kv("parent", ev.parent_id);
    if (!ev.protocol.empty()) w.kv("protocol", ev.protocol);
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
  exempt_.insert(user);
}

void DecouplingMonitor::exempt(const std::vector<core::Party>& users) {
  exempt_.insert(users.begin(), users.end());
}

void DecouplingMonitor::clear() {
  counted_.clear();
  violated_.clear();
  violations_.clear();
  counted_exposures_ = 0;
}

void DecouplingMonitor::on_event(const FlowLedger& ledger,
                                 const FlowEvent& ev) {
  if (ev.kind != FlowEventKind::kExposure) return;
  if (exempt_.count(ev.party) > 0) return;

  std::optional<std::uint64_t> implant;
  if (mode_ == Mode::kLiveImplant) {
    implant = ledger.compromise_event(ev.party);
    if (!implant) return;  // implant never ran: the attacker saw nothing
  }

  ++counted_exposures_;
  core::KnowledgeTuple& tuple = counted_[ev.party];
  apply_atom(tuple, ev.atom);
  if (!(tuple.sensitive_identity && tuple.sensitive_data)) return;
  if (!violated_.insert(ev.party).second) return;  // already fired

  Violation v;
  v.party = ev.party;
  v.event_id = ev.id;
  v.virtual_time = ev.virtual_time;
  v.tuple = tuple;
  v.cause = ev.cause;
  for (const FlowEvent& link : ledger.chain_of(ev.id)) {
    v.chain.push_back(link.id);
  }
  // Recording may be off (flight recorder disabled): still identify the
  // tripping event even though its record was not retained.
  if (v.chain.empty()) v.chain.push_back(ev.id);
  if (implant) {
    v.implant_event_id = *implant;
    v.chain.push_back(*implant);
  }
  violations_.push_back(std::move(v));
}

}  // namespace dcpl::obs
