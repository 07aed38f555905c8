// Knowledge-flow provenance: the §3 tables as an auditable event stream.
//
// The end-state ObservationLog answers *what* each party ended up knowing;
// the FlowLedger answers *when, via which message, and through which causal
// chain* it learned it. Every exposure/link/compromise becomes a FlowEvent
// with a virtual timestamp, the linkage context (message id) it happened
// under, the hop depth of that context, and a parent event id — so "how did
// the gateway learn the client's URL" is a walk up parent pointers, not a
// post-hoc reconstruction.
//
// The ledger is a bounded ring-buffer flight recorder: a fixed number of
// most-recent events stay resident (JSONL-exportable), while the per-party
// knowledge tuples, the dedup filter, and the attached DecouplingMonitor are
// maintained incrementally and stay exact even after the ring wraps or when
// recording is switched off. Folding the event stream therefore reproduces
// the DecouplingAnalysis end-state tables event-by-event (cross-validated in
// bench_tables T1–T8), and the monitor re-checks the paper's §2.4 invariant
// — only the user may hold ▲∧● — on every single event, flagging the exact
// event at which a party (e.g. the VPN locus mid-breach) trips it.
//
// The ledger is id-native. It interns parties, atoms and protocol tags into
// its own tables, and the ring holds 64-byte POD FlowRecords of those ids;
// the ring grows on demand, up to its capacity. Per-party tuples and
// compromise ids are vectors indexed by party id; the dedup filter (keyed
// by packed (party, atom) ids) and the causal frontier (keyed by context)
// are flat hash tables. An Observation names the SymbolTable its ids come
// from, so the ledger maps each source table into its own through vectors
// it fills the first time it sees an id. Strings come back only on export:
// events(), find(), chain_of(), tuples() and the JSONL.
//
// Feeding the ledger:
//   * core::ObservationLog::set_sink(&ledger) streams every observe/link/
//     mark_compromised from all eight systems with no per-system wiring;
//   * net::Simulator::set_flow(&ledger) supplies the virtual clock, stamps
//     each event with the delivering packet's protocol, and records breach
//     implants fired by the fault plan;
//   * record_exposure()/record_link()/record_compromise() allow direct
//     emission (synthetic scale workloads, tests).
//
// Idempotent resends (retry_run) re-observe the same (party, atom): the
// ledger dedups those, so exposure counts stay meaningful under loss and
// the causal frontier is not advanced by a resend. The ledger's state,
// its name tables included, changes only on the thread that commits: the
// serial path, or the sharded coordinator while the workers are parked.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_map.hpp"
#include "common/interner.hpp"
#include "common/time_lanes.hpp"
#include "core/analysis.hpp"
#include "core/observation.hpp"

namespace dcpl::obs {

/// Why an event entered the ledger.
enum class FlowCause : std::uint8_t {
  kProtocolStep,    // ordinary protocol processing exposed the atom
  kBreachImplant,   // a net::BreachEvent implant (§3.3) fired
  kCollusionMerge,  // parties pooled logs into a coalition view (§4.1)
};

enum class FlowEventKind : std::uint8_t { kExposure, kLink, kCompromise };

const char* flow_cause_name(FlowCause cause);
const char* flow_event_kind_name(FlowEventKind kind);

/// One provenance record, as exported with its names. `id`s are 1-based
/// and strictly increasing; `parent_id == 0` means a causal root (no
/// recorded predecessor).
struct FlowEvent {
  std::uint64_t id = 0;
  std::uint64_t virtual_time = 0;  // us, from the attached clock (0 if none)
  FlowEventKind kind = FlowEventKind::kExposure;
  FlowCause cause = FlowCause::kProtocolStep;
  core::Party party;
  core::Atom atom;              // kExposure only; core::Atom{} otherwise
  std::uint64_t context = 0;    // message id (exposure) / upstream ctx a (link)
  std::uint64_t context_b = 0;  // kLink only: the downstream context b
  std::uint32_t hop_index = 0;  // forwarding depth of `context` (0 = origin)
  std::uint64_t parent_id = 0;
  std::string protocol;  // delivering packet's protocol tag, if inside one
  core::KnowledgeTuple tuple_after;  // party's accumulated tuple after this
};

/// The ring's record: a FlowEvent with the ledger's ids in place of names.
struct FlowRecord {
  std::uint64_t id = 0;  // 0 marks an empty ring slot
  std::uint64_t virtual_time = 0;
  std::uint64_t context = 0;
  std::uint64_t context_b = 0;
  std::uint64_t parent_id = 0;
  core::PartyId party = 0;
  core::AtomId atom = 0;      // kExposure only
  std::uint32_t hop_index = 0;
  std::uint32_t protocol = 0;  // 0 = no protocol tag
  FlowEventKind kind = FlowEventKind::kExposure;
  FlowCause cause = FlowCause::kProtocolStep;
  core::KnowledgeTuple tuple_after;
};

/// Folds an exported event slice back into per-party knowledge tuples —
/// the inverse of what DecouplingAnalysis::tuple_for derives from the
/// end-state log. (Exact only if the slice contains every exposure, i.e.
/// the ring did not wrap; FlowLedger::tuples() stays exact regardless.)
std::map<core::Party, core::KnowledgeTuple> fold_tuples(
    const std::vector<FlowEvent>& events);

class DecouplingMonitor;

class FlowLedger final : public core::ObservationSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit FlowLedger(std::size_t capacity = kDefaultCapacity);

  // --- feeding -----------------------------------------------------------

  // core::ObservationSink: attach with log.set_sink(&ledger). The ids in
  // `o` and `l` are resolved against the table the record names.
  void on_observe(const core::Observation& o) override;
  void on_link(const core::ContextLink& l) override;
  void on_compromise(const core::Party& party) override;

  /// Direct emission, bypassing an ObservationLog.
  void record_exposure(const core::Party& party, core::Atom atom,
                       std::uint64_t context);
  void record_link(const core::Party& party, std::uint64_t a, std::uint64_t b);
  /// First compromise per party wins; repeats are no-ops. A compromise
  /// removes the party's entries from the dedup filter, so post-implant
  /// repeats of already-seen atoms re-enter the event stream (they are new
  /// knowledge in the attacker's frame — the counterpart of core's
  /// live_breach).
  void record_compromise(const core::Party& party,
                         FlowCause cause = FlowCause::kBreachImplant);

  // --- wiring ------------------------------------------------------------

  /// Virtual-time source (net::Simulator::set_flow installs sim.now()).
  void set_clock(std::function<std::uint64_t()> clock);

  /// Delivery scope: between begin/end, events are stamped with `protocol`.
  /// Installed around Node::on_packet by the simulator.
  void begin_delivery(std::string_view protocol);
  void end_delivery();

  /// At most one monitor; it sees every accepted event, even while
  /// recording is off. Pass nullptr to detach.
  void attach_monitor(DecouplingMonitor* monitor);

  // --- sharded capture ----------------------------------------------------
  //
  // The sharded net::Simulator runs Node::on_packet on worker threads, so
  // record_*/begin_delivery calls would otherwise race on the ledger.
  // Between begin_staging(lanes) and end_staging(), every mutating call
  // appends a timestamped op to its calling thread's lane of a TimeLanes
  // (common/time_lanes.hpp; the lane is set per thread with set_lane, and
  // lanes never share a cache line) instead of touching ledger state. The
  // coordinator commits them at window barriers, all workers parked,
  // through the normal dedup/frontier/monitor path in (capture time, lane,
  // capture order): a total order independent of thread interleaving, so
  // event ids, chains, and monitor verdicts are bit-stable for a fixed
  // shard count.

  /// Enters staged mode with `lanes` producer lanes (one per shard, plus
  /// the simulator's coordinator lane).
  void begin_staging(std::uint32_t lanes);
  /// Incremental barrier commit: replays and erases only the ops with
  /// capture time < cutoff, merged k-way from the lanes. Every op left
  /// behind carries time >= cutoff, so successive commits concatenate into
  /// the sequence one final commit would replay, and barrier work is
  /// O(newly safe ops). Only call with producers parked.
  void commit_staged_before(std::uint64_t cutoff);
  /// Commits any remaining ops and leaves staged mode.
  void end_staging();
  bool staging() const { return staging_; }
  /// Binds the calling thread to a lane index (thread-local, process-wide:
  /// at most one sharded run is in flight at a time).
  static void set_lane(std::uint32_t lane);
  /// The calling thread's current lane binding (save/restore idiom for the
  /// coordinator, which runs on whichever worker thread reached the
  /// barrier last).
  static std::uint32_t lane();

  /// When off, the ring stops accumulating (a wrapped flight recorder that
  /// has been switched off), but dedup, per-party tuples, and the monitor
  /// keep running — invariant checking does not require event retention.
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }

  /// Caps the dedup filter and the causal-frontier index (both grow with
  /// distinct (party, atom) pairs / distinct contexts). When a table
  /// exceeds the limit it is cleared: chains truncate and a repeat may be
  /// recorded once more, but memory stays bounded on 10M-event runs. When
  /// the dedup filter clears, the atom table is rebuilt from the ring's
  /// resident events, so a stream of unique atoms keeps it within the limit
  /// plus the resident events.
  void set_retention_limit(std::size_t limit) { retention_limit_ = limit; }

  // --- accessors ---------------------------------------------------------

  std::uint64_t events_recorded() const { return next_id_ - 1; }
  std::uint64_t exposures() const { return exposures_; }
  std::uint64_t links() const { return links_; }
  std::uint64_t compromises() const { return compromises_; }
  /// Suppressed idempotent repeats (same party re-observing the same atom).
  std::uint64_t deduped() const { return deduped_; }
  /// Events overwritten by ring wraparound (id < oldest resident id).
  std::uint64_t dropped() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  /// Resident event by id; nullopt if never assigned, wrapped away, or
  /// accepted while recording was off.
  std::optional<FlowEvent> find(std::uint64_t id) const;

  /// Resident events, oldest first.
  std::vector<FlowEvent> events() const;

  /// The causal chain ending at `id`: the event itself, then its parents,
  /// newest first. Truncates at the first non-resident ancestor.
  std::vector<FlowEvent> chain_of(std::uint64_t id) const;

  /// Exact per-party tuples folded incrementally from every exposure ever
  /// accepted (immune to ring wrap and recording toggles), by party name.
  std::map<core::Party, core::KnowledgeTuple> tuples() const;

  /// Event id of the party's compromise, if one was recorded.
  std::optional<std::uint64_t> compromise_event(const core::Party& party) const;

  /// Atoms the ledger's table holds (bounded under the retention limit).
  std::size_t interned_atoms() const { return atoms_.size(); }

  // --- export ------------------------------------------------------------

  /// Appends one JSON object per resident event to `out`. `run_label` tags
  /// each line (ids restart per ledger, so multi-run files need it).
  void write_jsonl(std::string& out, std::string_view run_label = "") const;
  bool write_jsonl_file(const std::string& path,
                        std::string_view run_label = "") const;

 private:
  friend class DecouplingMonitor;

  struct Frontier {
    std::uint64_t last_event_id = 0;
    std::uint32_t depth = 0;
  };

  /// One buffered mutating call captured while staging. Records from a log
  /// carry its table and ids, which are mapped only at commit; direct
  /// calls carry their names.
  struct StagedOp {
    enum class Kind : std::uint8_t {
      kExposure,
      kLink,
      kCompromise,
      kBeginDelivery,
      kEndDelivery,
    };
    Kind kind = Kind::kExposure;
    std::uint64_t time = 0;  // clock_() at capture
    const core::SymbolTable* table = nullptr;  // null: names below
    core::PartyId party = 0;
    core::AtomId atom = 0;
    core::Party name;  // party, or kBeginDelivery's protocol
    core::Atom atom_value;
    std::uint64_t context = 0;    // exposure ctx / link a
    std::uint64_t context_b = 0;  // kLink
    FlowCause cause = FlowCause::kProtocolStep;  // kCompromise
  };

  /// How one source table's ids map to the ledger's (kUnmapped: not yet).
  struct SourceMap {
    const core::SymbolTable* table = nullptr;
    std::uint64_t serial = 0;
    std::vector<core::PartyId> parties;
    std::vector<core::AtomId> atoms;
  };
  static constexpr std::uint32_t kUnmapped = ~std::uint32_t{0};

  SourceMap& source(const core::SymbolTable& table);
  core::PartyId map_party(SourceMap& src, core::PartyId id);
  core::AtomId map_atom(SourceMap& src, core::AtomId id);
  core::PartyId party_id(const core::Party& party);

  void expose(core::PartyId party, core::AtomId atom, std::uint64_t context);
  void link(core::PartyId party, std::uint64_t a, std::uint64_t b);
  void compromise(core::PartyId party, FlowCause cause);

  const FlowRecord& append(FlowRecord ev);  // assigns id, stores if recording
  void notify(const FlowRecord& ev);
  const FlowRecord* find_record(std::uint64_t id) const;
  FlowEvent resolve(const FlowRecord& r) const;
  std::vector<const FlowRecord*> resident_records() const;
  /// Re-interns only the atoms resident events name, and forgets every
  /// source's atom mapping.
  void rebuild_atoms();

  /// Captures a staged op on the calling thread's lane. Returns false when
  /// not staging (caller proceeds down the immediate path).
  bool stage(StagedOp op);
  void replay_op(StagedOp& op);

  Frontier& frontier_entry(std::uint64_t context);

  std::size_t capacity_;
  // Slot i only ever holds events with id ≡ i+1 (mod capacity_); id 0 marks
  // an empty slot. Residency is checked by comparing the slot's id, which
  // stays correct even when recording toggles make resident ids sparse.
  // The vector grows to capacity_ as ids reach new slots.
  std::vector<FlowRecord> ring_;
  std::uint64_t next_id_ = 1;
  std::uint64_t resident_ = 0;  // slots currently holding an event
  std::uint64_t evicted_ = 0;   // events overwritten by wraparound
  bool recording_ = true;

  std::uint64_t exposures_ = 0, links_ = 0, compromises_ = 0, deduped_ = 0;

  std::function<std::uint64_t()> clock_;
  bool in_delivery_ = false;
  std::uint32_t delivery_protocol_ = 0;

  // The ledger's names. Protocol id 0 is the empty tag.
  Interner<core::Party> parties_;
  Interner<core::Atom, core::AtomHash> atoms_;
  Interner<std::string> protocols_;
  std::vector<SourceMap> sources_;
  std::size_t last_source_ = 0;

  FlatMap64<char> seen_;  // dedup filter: (party << 32 | atom)
  FlatMap64<Frontier> frontier_;  // per-context causal head
  std::size_t retention_limit_ = 1u << 22;

  // By party id.
  std::vector<core::KnowledgeTuple> tuples_;
  std::vector<std::uint64_t> compromise_events_;  // 0 = none

  DecouplingMonitor* monitor_ = nullptr;
  FlowRecord scratch_;  // returned by append() when not recording

  // Staged-capture state. During replay, time_override_ points at the op's
  // captured timestamp so append() stamps capture time, not commit time.
  bool staging_ = false;
  TimeLanes<StagedOp> lanes_;
  const std::uint64_t* time_override_ = nullptr;
  static thread_local std::uint32_t tls_lane_;
};

/// Online §2.4 invariant checker: only exempt parties (the users) may hold
/// ▲∧●; any other party reaching both trips a violation carrying the full
/// causal chain that produced it. Attach with FlowLedger::attach_monitor.
class DecouplingMonitor {
 public:
  enum class Mode {
    /// Stored-logs model (DecouplingAnalysis::breach): every exposure
    /// counts toward a party's monitored tuple.
    kStoredLogs,
    /// Live-implant model (§3.3, live_breach): only exposures by parties
    /// with a recorded compromise count — the monitor then answers "what
    /// did the implant see", and each violation's chain ends at the
    /// breach-implant event.
    kLiveImplant,
  };

  struct Violation {
    core::Party party;
    std::uint64_t event_id = 0;      // the exposure that completed ▲∧●
    std::uint64_t virtual_time = 0;
    core::KnowledgeTuple tuple;      // monitored tuple at the trip
    FlowCause cause = FlowCause::kProtocolStep;  // of the tripping event
    /// Causal chain: tripping event id, then parent ids walking back, and —
    /// in kLiveImplant mode — the compromise event id appended last (the
    /// implant is what made the exposure attacker-visible). Chains truncate
    /// at events the ring no longer holds.
    std::vector<std::uint64_t> chain;
    std::uint64_t implant_event_id = 0;  // kLiveImplant only
  };

  explicit DecouplingMonitor(Mode mode = Mode::kStoredLogs);

  void exempt(const core::Party& user);
  void exempt(const std::vector<core::Party>& users);

  Mode mode() const { return mode_; }
  const std::vector<Violation>& violations() const { return violations_; }
  bool tripped(const core::Party& party) const;
  /// Exposures the monitor counted (post-filter view of the stream).
  std::uint64_t counted_exposures() const { return counted_exposures_; }

 private:
  friend class FlowLedger;
  void on_event(const FlowLedger& ledger, const FlowRecord& ev);

  /// Per ledger party id. `exempt` is resolved against the sorted exempt
  /// names the first time the party shows up.
  struct PartyState {
    enum class Exempt : std::uint8_t { kUnresolved, kYes, kNo };
    Exempt exempt = Exempt::kUnresolved;
    bool violated = false;  // fire at most once per party
    core::KnowledgeTuple counted;
  };

  Mode mode_;
  std::vector<core::Party> exempt_;  // sorted, unique
  std::vector<PartyState> parties_;
  std::vector<Violation> violations_;
  std::uint64_t counted_exposures_ = 0;
};

}  // namespace dcpl::obs
