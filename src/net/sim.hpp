// Deterministic discrete-event network simulator.
//
// The paper's decoupling analyses are statements about *which entity can see
// which bytes and metadata*. This simulator reproduces exactly that
// visibility structure: nodes exchange packets over links with latency, a
// packet's source address is visible to its receiver (like an IP header),
// payloads are opaque bytes (encrypted payloads are indistinguishable from
// noise to anyone without the key), and wiretap observers can be attached to
// record traffic metadata for traffic-analysis experiments.
//
// Everything is ordered by (time, sequence-number), so runs are exactly
// reproducible. There is one engine: a Shard holds a calendar queue,
// payload pool, clock and fault-RNG stream, and every engine operation
// runs against the Shard executing it. A serial run is the main shard run
// inline on the caller's thread; set_shards(n>1) runs one worker Shard per
// topology shard on its own thread, advancing in lookahead-bounded windows
// and merging cross-shard deliveries in a deterministic
// (time, src_shard, src_seq) order — equally bit-reproducible for a fixed
// shard count (see DESIGN.md §13).
//
// Hot-path layout: the public API speaks string addresses (observation logs
// and traces need them), but internally every address is interned once into
// a dense AddressId (net/address.hpp). The node table is a vector indexed
// by id, and latency, bandwidth, and per-link impairment all live in one
// LinkState resolved by a single flat-hash lookup on a packed
// (src_id<<32)|dst_id key per send(). Interning happens in deterministic
// first-use order, so the id layer cannot perturb event ordering or fault
// rolls — a fixed (workload, plan) pair replays bit-identically.
//
// Event engine (net/engine.hpp): scheduled work is a typed EngineEvent —
// the common DeliveryEvent is flat POD (packed link key, pooled payload
// handle, interned protocol id) pushed O(1) onto a calendar wheel; only the
// rare CallbackEvent (at()) still carries a std::function, parked in a
// recycled slot pool. Payload bytes live in a free-list BufferPool
// (net/pool.hpp), so fault duplication and shared resends reference one
// buffer instead of deep-copying it. Pop order is exactly (time, seq) —
// byte-identical to the seed heap engine (tests/test_engine.cpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "net/address.hpp"
#include "net/engine.hpp"
#include "net/faults.hpp"
#include "net/mailbox.hpp"
#include "net/pool.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dcpl::obs {
class FlowLedger;
class TimeSeriesSampler;
}

namespace dcpl::net {

/// A network packet. `context` is the link-layer flow identifier (think
/// 5-tuple / TCP connection): an observer that sees two packets with the
/// same context can trivially link them.
struct Packet {
  Address src;
  Address dst;
  Bytes payload;
  std::uint64_t context = 0;
  std::string protocol;  // trace label, e.g. "dns", "http", "mix"
};

class Simulator;
class EngineProfiler;
class LatencyTracer;
struct LatencyLane;

/// A participant in the network. Systems subclass this per party
/// (client, relay, resolver, ...). Nodes are owned by the systems that
/// create them; the simulator holds non-owning pointers.
class Node {
 public:
  explicit Node(Address address) : address_(std::move(address)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const Address& address() const { return address_; }

  /// Invoked when a packet addressed to this node is delivered. The packet
  /// (including its payload buffer) is only valid for the duration of the
  /// call — copy what must outlive it.
  virtual void on_packet(const Packet& packet, Simulator& sim) = 0;

 private:
  Address address_;
};

/// Record of one packet delivery, for wiretaps and traffic analysis.
struct TraceEntry {
  Time time;
  Address src;
  Address dst;
  std::size_t size;
  std::uint64_t context;
  std::string protocol;
};

/// Event-driven simulator: the main shard, run inline, or one worker shard
/// per thread under set_shards(n>1).
///
/// Observability: every simulator feeds the "sim" scope of the global
/// metrics registry (events processed, packets/bytes delivered, per-link
/// bytes, queue depth) and — when the global tracer is enabled — emits one
/// trace span per packet delivery plus a span per run(), all carrying
/// virtual timestamps so traces show where simulated time goes. Spans come
/// from the main shard only (the tracer is single-threaded).
class Simulator {
 public:
  Simulator();
  ~Simulator();

  /// Registers a node. The caller retains ownership and must keep the node
  /// alive until run() returns.
  void add_node(Node& node);

  /// Sets one-way latency between two addresses (both directions).
  /// Calling it again for the same pair replaces the previous latency.
  void connect(const Address& a, const Address& b, Time latency_us);

  /// True iff connect() was called for this pair (checked directionally,
  /// but connect() always installs both directions).
  bool has_link(const Address& a, const Address& b) const;

  /// The explicitly configured latency for the pair, or nullopt when no
  /// link exists — unlike the delivery-time path, which silently falls back
  /// to the default latency for unknown pairs.
  std::optional<Time> link_latency(const Address& a, const Address& b) const;

  /// Optional link bandwidth in bytes per millisecond (both directions);
  /// adds a serialization delay of size/bandwidth to each packet. 0 (the
  /// default everywhere) means infinite bandwidth.
  void set_bandwidth(const Address& a, const Address& b,
                     std::uint64_t bytes_per_ms);

  /// Default latency used for address pairs without an explicit link.
  void set_default_latency(Time latency_us) { default_latency_ = latency_us; }

  /// Queues a packet for delivery after link latency (plus `extra_delay`).
  /// Throws std::out_of_range if the destination is unknown.
  void send(Packet packet, Time extra_delay = 0);

  /// Moves `bytes` into this simulator's payload pool and returns a
  /// refcounted handle to it. The handle must not outlive the simulator.
  PayloadRef make_payload(Bytes bytes);

  /// Like send(), but the payload is a pooled buffer shared by reference —
  /// the idiom for retry resends, which fire the same bytes many times
  /// without ever copying them. Consumes the same fault rolls and produces
  /// the same delivery ordering as an equivalent send(). Throws
  /// std::invalid_argument if `payload` came from another simulator's pool.
  void send_shared(const Address& src, const Address& dst,
                   const PayloadRef& payload, std::uint64_t context,
                   const std::string& protocol, Time extra_delay = 0);

  /// Pass prefix_len to keep the whole delivered payload.
  static constexpr std::size_t kWholePayload = ~std::size_t{0};

  /// Detaches the payload of the packet currently being delivered, trimmed
  /// to its first `prefix_len` bytes — the zero-copy intake for relays and
  /// mix hops. When this delivery holds the buffer's sole pool reference
  /// (the common case; a pending fault-duplicate shares it) the heap buffer
  /// is *moved* out, never copied, and the delivered packet's payload is
  /// left empty — detach last, after every read of packet.payload. Only
  /// callable inside Node::on_packet (throws std::logic_error otherwise).
  Bytes detach_payload(std::size_t prefix_len = kWholePayload);

  /// Zero-copy forward: detach_payload() + send() in one call. The relay
  /// idiom — the delivered buffer travels on to the next hop by move, and a
  /// cross-shard forward moves the same heap buffer through the mailbox
  /// ShardEvent instead of deep-copying it. Same fault rolls, delivery
  /// ordering, and wire bytes as copying the payload into a fresh send().
  void forward(const Address& src, const Address& dst, std::uint64_t context,
               const std::string& protocol, Time extra_delay = 0,
               std::size_t prefix_len = kWholePayload);

  /// Schedules an arbitrary callback at absolute time `t` (>= now).
  void at(Time t, std::function<void()> fn);

  /// Like at(), but tags the callback with an address so a sharded run
  /// executes it on the shard owning that address (serial runs are
  /// byte-identical to at()). The idiom for workload kickoffs: a client's
  /// first send should originate on the client's own shard, not shard 0,
  /// or every kickoff becomes a cross-shard push.
  void at_node(const Address& affine, Time t, std::function<void()> fn);

  /// Runs until the event queue drains. Returns the final virtual time.
  /// With set_shards(n>1) the events fan out to worker threads; the
  /// default single-shard run is byte-identical to the seed engine. A
  /// handler exception propagates out of run() and leaves the simulator
  /// reusable.
  Time run();

  /// Current virtual time. On a shard worker thread this is the shard's
  /// local clock (the time of the event being processed).
  Time now() const;

  /// Fresh linkage-context id (never zero). On a shard worker thread the
  /// id is drawn from a shard-namespaced range — (shard+1) << 48 | counter
  /// — so concurrent allocations never collide and stay deterministic;
  /// outside worker threads it is a plain counter.
  std::uint64_t new_context();

  // ---- Sharded parallel execution (conservative synchronization) ----

  /// Splits the topology into `n` shards, one worker thread each, for the
  /// next run(). Workers advance their calendar queues in lockstep windows
  /// of one lookahead (the minimum latency any cross-shard delivery can
  /// take), exchanging cross-shard deliveries through bounded mailboxes
  /// and merging them in deterministic (time, src_shard, src_seq) order —
  /// a fixed shard count replays bit-identically regardless of thread
  /// interleaving. n == 1 (default) is the serial engine. Must not be
  /// called while a run is in progress.
  void set_shards(std::uint32_t n);
  std::uint32_t shards() const { return shards_; }

  /// Pins an address to a shard (reduced modulo the shard count at run
  /// time, so "relay i -> shard i" pinning is count-agnostic). Unpinned
  /// addresses default to interned-id order round-robin (id % shards).
  void set_shard_affinity(const Address& address, std::uint32_t shard);

  /// The shard owning `id` under the current shard count. Precedence:
  /// explicit pin, then the auto-affinity placement (if a policy is set),
  /// then id-modulo round-robin.
  std::uint32_t shard_of_id(AddressId id) const;

  /// How unpinned addresses map to shards. kModulo (default) is blanket
  /// id % shards. kMinCut runs a net::ShardPartitioner over the link
  /// table (plus affinity hints and an optional recorded traffic matrix)
  /// at the start of each sharded run — deterministic, so a fixed shard
  /// count still replays bit-identically. Explicit pins stay
  /// authoritative under every policy.
  enum class AffinityPolicy : std::uint8_t { kModulo, kMinCut };
  void set_auto_affinity(AffinityPolicy policy) { affinity_policy_ = policy; }
  AffinityPolicy auto_affinity() const { return affinity_policy_; }

  /// Adds a partitioner-only edge between two addresses. For traffic the
  /// link table cannot see: pairs that exchange packets over the default
  /// latency without an explicit connect() (bench_scale clients are the
  /// motivating case). No effect under kModulo or in serial runs.
  void add_affinity_hint(const Address& a, const Address& b,
                         std::uint64_t weight);

  /// Seeds the kMinCut partitioner with a measured shard traffic matrix
  /// from a previous run at the same topology (ShardRunStats::traffic,
  /// e.g. via `bench_scale --affinity-from=report.json`). Edges between
  /// addresses whose previous shards exchanged heavy traffic are
  /// up-weighted, steering the cut toward the hot pairs.
  void set_affinity_traffic(std::vector<std::vector<std::uint64_t>> matrix) {
    affinity_traffic_ = std::move(matrix);
  }

  /// Summary of the last sharded run (empty if none ran).
  struct ShardRunStats {
    std::uint32_t shards = 0;
    Time lookahead_us = 0;  ///< min pairwise lookahead (window floor)
    std::uint64_t windows = 0;     ///< barrier rounds executed
    AffinityPolicy policy = AffinityPolicy::kModulo;  ///< placement used
    std::vector<std::uint64_t> events;        ///< per shard, all kinds
    /// Per-shard deliveries and send split. cross_sends/local_sends are
    /// derived from the traffic matrix (row sum minus diagonal / the
    /// diagonal), so the three views can never disagree.
    std::vector<std::uint64_t> deliveries;    ///< per shard
    std::vector<std::uint64_t> cross_sends;   ///< per shard, mailbox pushes
    std::vector<std::uint64_t> local_sends;   ///< per shard, same-shard pushes
    // Contention telemetry (wall-clock, excluded from determinism checks
    // like wall_ms): where each worker's time went, and how often its
    // cross-shard pushes hit a full mailbox.
    std::vector<std::uint64_t> busy_ns;             ///< per shard
    std::vector<std::uint64_t> barrier_wait_ns;     ///< per shard
    std::vector<std::uint64_t> mailbox_full_stalls; ///< per shard
    /// Deterministic shard traffic matrix: traffic[src][dst] counts events
    /// pushed from shard src to shard dst — off-diagonal cells are mailbox
    /// pushes (per destination-shard pair, feeding the partitioner), the
    /// diagonal is same-shard pushes.
    std::vector<std::vector<std::uint64_t>> traffic;
  };
  const ShardRunStats& shard_stats() const { return shard_stats_; }

  /// Live contention aggregates over the current/last sharded run, for
  /// TimeSeriesSampler probes. Mid-run reads are barrier-consistent (the
  /// sampler fires in the window-barrier completion, workers parked); all
  /// return 0 before any sharded run.
  std::uint64_t worker_busy_ns() const {
    return sum_over_workers(&Shard::busy_ns);
  }
  std::uint64_t barrier_wait_ns() const {
    return sum_over_workers(&Shard::barrier_ns);
  }
  std::uint64_t mailbox_backpressure() const {
    return sum_over_workers(&Shard::mailbox_full_stalls);
  }

  /// Adds a passive observer of all deliveries (a global wiretap).
  void add_wiretap(std::function<void(const TraceEntry&)> tap);

  /// Full delivery trace (recorded by default; see set_trace_recording).
  const std::vector<TraceEntry>& trace() const { return trace_; }

  /// Toggles accumulation of the in-memory delivery trace (on by default).
  /// Wiretaps, metrics, and packet/byte totals are unaffected. Scale
  /// workloads (bench_scale) turn it off so million-user runs stay bounded
  /// in memory.
  void set_trace_recording(bool on) { record_trace_ = on; }

  /// Toggles per-link labeled byte counters (on by default). One labeled
  /// counter exists per directed address pair, so workloads with ~10^6
  /// distinct endpoints turn this off; the aggregate packet/byte counters
  /// and totals are unaffected.
  void set_link_byte_accounting(bool on) { link_byte_accounting_ = on; }

  std::size_t packets_delivered() const { return packets_delivered_; }
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }

  /// The interner mapping this simulator's addresses to dense ids. Ids are
  /// assigned in deterministic first-use order and are stable for the
  /// simulator's lifetime.
  const AddressInterner& interner() const { return interner_; }

  /// The main shard's payload pool, which backs in-flight packet bytes of
  /// serial runs and every make_payload() outside a threaded run
  /// (observability/tests: live() must return to the count of outstanding
  /// PayloadRefs once the queue drains).
  const BufferPool& payload_pool() const { return main_.pool; }

  /// Events currently pending in the engine queue (telemetry probes).
  /// During a sharded run: the sum over shard queues, valid at barriers.
  std::size_t queue_depth() const;

  /// Trace labels for every interned protocol, indexed by ProtocolId — the
  /// name table EngineProfiler::write_json resolves its buckets against.
  std::vector<std::string> protocol_names() const;

  /// Attaches a virtual-time telemetry sampler (nullptr detaches). The run
  /// loop polls it once per event — a single compare until virtual time
  /// crosses the sampler's next deadline — so registered probes see the
  /// simulation mid-flight at a fixed virtual cadence. The sampler must
  /// outlive the simulator or be detached first.
  void set_sampler(obs::TimeSeriesSampler* sampler);
  obs::TimeSeriesSampler* sampler() const { return sampler_; }

  /// Attaches a per-event-kind cost profiler (nullptr detaches). Passive:
  /// event order, fault rolls, and virtual time are unaffected. The
  /// profiler must outlive the simulator or be detached first.
  void set_profiler(EngineProfiler* profiler) { profiler_ = profiler; }
  EngineProfiler* profiler() const { return profiler_; }

  /// Attaches a request-latency tracer (nullptr detaches). While attached,
  /// every top-level send opens a TraceContext that rides the event PODs
  /// hop by hop (sends issued inside a delivery continue the delivering
  /// packet's trace); terminal hops record end-to-end virtual latency into
  /// the tracer's per-protocol LatencyRecorders, and every hop stamps its
  /// link / non-link virtual components into the stage recorders. Trace
  /// ids derive from deterministic sequence counters (shard-namespaced
  /// under sharding), never wall clock, so percentiles are reproducible.
  /// The tracer must outlive the simulator or be detached first.
  void set_latency_tracer(LatencyTracer* tracer) { latency_ = tracer; }
  LatencyTracer* latency_tracer() const { return latency_; }

  /// Redirects this simulator's metrics into `registry` (default: the
  /// "sim" scope of the global registry). Handles are re-resolved lazily.
  void set_metrics(obs::Registry& registry);

  /// The registry currently receiving this simulator's metrics. The retry
  /// layer resolves its counters here so scoped-bench registries see retry
  /// activity instead of a stale global handle.
  obs::Registry& metrics_registry() const { return *metrics_; }

  /// Redirects span output (default: the global tracer).
  void set_tracer(obs::Tracer& tracer) { tracer_ = &tracer; }

  /// Attaches a knowledge-flow ledger (nullptr detaches). The simulator
  /// installs its virtual clock on the ledger, brackets every Node::
  /// on_packet with a delivery scope (so exposures logged while a packet is
  /// being processed carry that packet's protocol tag and message context),
  /// and records a breach-implant flow event when a fault-plan BreachEvent
  /// fires — *before* the breach handler runs, so the implant event
  /// causally precedes everything the implant sees. The ledger must outlive
  /// the simulator or be detached first.
  void set_flow(obs::FlowLedger* ledger);
  obs::FlowLedger* flow() const { return flow_; }

  /// Installs a fault plan governing every subsequent send(): impairment
  /// rolls come from a dedicated XoshiroRng seeded by the plan, so a fixed
  /// seed replays the exact same fault sequence. BreachEvents are scheduled
  /// immediately; a breach time already in the past (a plan installed
  /// mid-run) is clamped to fire at now().
  void set_fault_plan(FaultPlan plan);
  bool has_fault_plan() const { return fault_plan_.has_value(); }

  /// Counters for every fault injected so far this run.
  const FaultStats& fault_stats() const { return fault_stats_; }

  /// Invoked when a scheduled BreachEvent fires (at its virtual time,
  /// during run()). Typical wiring: mark the party's observation log
  /// compromised so core::DecouplingAnalysis::live_breach sees only the
  /// post-breach suffix.
  void set_breach_handler(std::function<void(const BreachEvent&)> handler) {
    breach_handler_ = std::move(handler);
  }

  /// Whether (and when) a breach event has fired for `party`. Flat
  /// id-indexed lookups — no string-compare tree walk on the hot path.
  bool is_breached(const Address& party) const;
  std::optional<Time> breached_at(const Address& party) const;

 private:
  /// The queue-depth gauge is sampled every 2^10 queue operations (and
  /// force-flushed at drain) instead of being rewritten on every push/pop;
  /// the exact high-watermark is tracked in Shard::queue_peak and published
  /// through obs::Gauge::peak() when the queue drains.
  static constexpr std::uint64_t kQueueSampleMask = (1u << 10) - 1;

  static constexpr Time kNotBreached = ~Time{0};

  /// Everything send() needs to know about one directed link, resolved by
  /// a single flat-hash lookup on pack_link(src_id, dst_id). `impairment`
  /// points into the installed FaultPlan (per-link override) or is null
  /// (use the plan's global impairment).
  struct LinkState {
    Time latency = 0;
    std::uint64_t bandwidth = 0;  // bytes per ms; 0 = infinite
    const Impairment* impairment = nullptr;
    bool has_latency = false;  // connect() was called for this pair
  };

  /// Outcome of the pre-schedule half of a send: fault rolls consumed,
  /// stats/spans recorded, delivery times computed.
  struct SendPlan {
    bool dropped = false;
    bool duplicated = false;
    Time deliver_at = 0;
    Time dup_at = 0;
  };

  /// One interned protocol label; `deliver_label` ("deliver:" + name) is
  /// concatenated once here instead of once per traced delivery.
  struct ProtocolInfo {
    std::string name;
    std::string deliver_label;
  };

  /// What wiretaps, the trace and link-byte accounting learn about one
  /// delivery. The main shard emits it inline; workers buffer it for the
  /// coordinator to replay at the next barrier in (time, shard, seq) order,
  /// so observers see one causally ordered stream. Flow-ledger ops take
  /// the FlowLedger staging path instead (see obs/flow.hpp).
  struct DeliveryRecord {
    Time time = 0;
    std::uint64_t link_key = 0;
    std::size_t size = 0;
    std::uint64_t context = 0;
    ProtocolId protocol = 0;
  };

  /// One engine: calendar queue, payload pool, callback slots, fault-RNG
  /// stream, clock and sequence counters, the delivery in flight, and
  /// counters that fold() adds to the registry. main_ is the shard serial
  /// runs execute inline; a threaded run builds one worker per topology
  /// shard. Between barriers a worker touches only its own Shard — plus
  /// other shards' mailboxes (internally locked) and the simulator's
  /// read-only tables (nodes, links, fault windows).
  struct Shard {
    std::uint32_t id = 0;
    /// Namespace of new_context() and fresh trace ids: 0 for main_ and
    /// (i+1) << 48 for worker i, so concurrent allocations never collide.
    std::uint64_t id_base = 0;
    Simulator* sim = nullptr;
    // pool before callbacks: parked callbacks may hold PayloadRefs into it.
    BufferPool pool;
    CalendarQueue queue;
    std::vector<std::function<void()>> callbacks;  // at() slot pool
    std::vector<std::uint32_t> callback_free;
    std::uint64_t event_seq = 0;  // local (time, seq) tiebreaker
    Time now = 0;
    std::uint64_t context_counter = 0;
    std::unique_ptr<XoshiroRng> fault_rng;
    Packet scratch;  // re-materialized per delivery; capacity is recycled
    /// Handle of the delivery currently inside Node::on_packet (kInvalid
    /// outside one) — what detach_payload() consults to steal or share.
    PayloadHandle current_handle = BufferPool::kInvalid;
    std::size_t queue_peak = 0;
    // Tracing plane: the trace-id counter, the trace of the delivery
    // currently inside on_packet, and (workers only) a private recorder
    // lane so hop recording never shares cache lines across threads; the
    // main shard records into the tracer directly.
    std::uint64_t trace_seq = 0;
    obs::TraceContext cur_trace;
    bool trace_continued = false;
    std::unique_ptr<LatencyLane> lane;
    // Counted here on the hot path; fold() adds them to the registry and
    // the simulator's totals, then zeroes them.
    std::uint64_t events = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t delivered_bytes = 0;
    FaultStats stats;
    obs::Histogram latency_hist{std::vector<double>{}};
    // Worker exchange: the inbox (bounded: big enough that barrier-rate
    // draining never backpressures in practice, small enough to bound
    // memory under a pathological window), drained-but-not-enqueued
    // events, the outgoing merge key, and buffered delivery records.
    ShardMailbox inbox{16384};
    std::vector<ShardEvent> staged;
    std::uint64_t xfer_seq = 0;
    std::vector<DeliveryRecord> deferred;
    // Contention telemetry: wall time split between processing and barrier
    // waits, failed mailbox pushes, and the outgoing traffic row
    // (traffic[dst] = events pushed to shard dst, diagonal = same-shard
    // pushes — deterministic; cross/local send counts derive from it).
    std::uint64_t busy_ns = 0;
    std::uint64_t barrier_ns = 0;
    std::uint64_t mailbox_full_stalls = 0;
    std::vector<std::uint64_t> traffic;
    std::exception_ptr error;

    std::function<void()> take_callback(std::uint32_t slot);
  };

  /// The shard executing on this thread: the worker's own during a
  /// threaded run, main_ everywhere else (including another simulator's
  /// worker thread).
  Shard& current();
  const Shard& current() const;
  /// Whether `sh` emits spans: only main_, and only with the tracer on.
  bool spans_on(const Shard& sh) const;
  std::uint64_t sum_over_workers(std::uint64_t Shard::*field) const;

  // Interner and protocol-table access. The tables are shared by every
  // shard, so these take the table's lock during a threaded run and skip
  // it otherwise.
  std::shared_lock<std::shared_mutex> read_lock(std::shared_mutex& mu) const;
  std::unique_lock<std::shared_mutex> write_lock(std::shared_mutex& mu) const;
  AddressId intern(const Address& name);
  std::optional<AddressId> lookup(const Address& name) const;
  const Address& name_of(AddressId id) const;
  ProtocolId intern_protocol(const std::string& name);
  const ProtocolInfo& protocol_info(ProtocolId id) const;
  /// The id of a registered node, without interning anything: throws
  /// std::out_of_range for an unknown destination.
  AddressId destination(const Address& dst) const;

  LinkState& ensure_link(AddressId a, AddressId b);
  bool partitioned_at(std::uint64_t link_key, Time t) const;
  bool offline_at_id(AddressId id, Time t) const;
  void rebuild_fault_tables();
  void bind_metrics();
  void bind_fault_metrics();
  /// Installs `plan` and schedules its breaches on `home` (not before
  /// `floor`). Folds every running shard first, so the registry keeps the
  /// faults the old plan injected while fault_stats() starts over.
  void install_plan(FaultPlan plan, Shard& home, Time floor);
  void reseed(Shard& sh);

  /// Link resolution, partition/crash checks, and the loss/dup/jitter
  /// rolls — in exactly the seed engine's order, so a fixed (workload,
  /// plan) pair consumes the identical roll sequence on sh's stream.
  SendPlan plan_send(Shard& sh, std::uint64_t link_key, AddressId src_id,
                     std::size_t payload_size, Time extra_delay);
  void fault_span(const Shard& sh, const char* what, std::uint64_t link_key);

  /// Trace context for a send issued on `sh` now: inherits the in-delivery
  /// trace with hop+1, or opens a fresh one (id_base | counter) when a
  /// tracer is attached; inactive otherwise. Marks the current delivery's
  /// trace as continued, which is what terminal-hop detection keys off.
  obs::TraceContext next_trace(Shard& sh);

  /// The send path after address validation: fault rolls, then a push on
  /// `sh` or a hand-off to the owning worker's mailbox. `shared` names a
  /// slot in sh.pool to reference instead of `payload` (kInvalid: none).
  void transmit(Shard& sh, AddressId src_id, AddressId dst_id, Bytes payload,
                PayloadHandle shared, std::uint64_t context,
                const std::string& protocol, Time extra_delay);
  /// The shard that delivers to `dst_id`. main_ owns every address, so
  /// serial sends skip the placement lookup.
  std::uint32_t owner(const Shard& sh, AddressId dst_id) const;
  void push_delivery(Shard& sh, Time deliver_at, std::uint64_t link_key,
                     PayloadHandle h, std::uint64_t context,
                     ProtocolId protocol, const obs::TraceContext& tc);
  void push_remote(Shard& sh, std::uint32_t dst_shard, ShardEvent ev);
  void enqueue(Shard& sh, const EngineEvent& ev);
  void schedule(Shard& sh, Time t, std::uint64_t tag, std::function<void()> fn);
  void note_queue_op();
  /// Pops and runs sh's next event. On main_ it also drives the queue
  /// gauges, the sampler and the profiler, which are single-threaded.
  void step(Shard& sh);
  void dispatch(Shard& sh, const EngineEvent& ev);
  void deliver(Shard& sh, const EngineEvent& ev);
  void emit(const DeliveryRecord& rec);
  void fire_breach(Shard& sh, const BreachEvent& ev);
  obs::Counter& link_bytes_counter(std::uint64_t link_key, const Address& src,
                                   const Address& dst);

  /// Adds sh's shard-local counters to the registry and the simulator's
  /// totals (and a worker's to its shard_stats_ row), then zeroes them.
  void fold(Shard& sh);
  void sample(Time t);  // folds main_, then takes a sampler tick at t

  /// The end of every run: folds the shards that ran, publishes the queue
  /// and pool gauges, and takes the final sampler tick. A threaded run
  /// first replays the last deferred records and fills shard_stats_.
  void finish_run(bool threaded, std::uint64_t windows);

  // ---- Threaded runs ----

  Time run_sharded();
  /// Pairwise conservative lookahead: L[src][dst] = the minimum latency any
  /// src-shard → dst-shard delivery can take (default latency floor for
  /// pairs without an explicit link). Diagonal entries are unused.
  std::vector<std::vector<Time>> compute_lookahead_matrix() const;
  /// Runs the ShardPartitioner over links_ + affinity hints (+ recorded
  /// traffic) and fills auto_shard_. Called at the start of run_sharded
  /// when the policy is kMinCut; pins are pre-seeded and stay authoritative.
  void compute_auto_affinity();
  void build_shards();
  void redistribute_initial_events();
  void drain_inbox_into_queue(Shard& sh);
  /// Replays deferred delivery records with time < cutoff in global
  /// (time, shard, buffer-order) order and erases the replayed prefixes.
  /// Per-shard buffers are time-nondecreasing (shard clocks are monotone),
  /// so a prefix cutoff at the next window's start commits exactly the
  /// records no future event can precede. Pass ~Time{0} to drain fully.
  void replay_deferred(Time cutoff);

  AddressInterner interner_;
  mutable std::shared_mutex interner_mu_;  // see read_lock()
  std::vector<Node*> nodes_;  // dense, indexed by AddressId; null = no node
  std::unordered_map<std::uint64_t, LinkState> links_;  // pack_link keys
  Time default_latency_ = 10'000;  // 10 ms
  // unique_ptr per entry: references to a ProtocolInfo stay valid across
  // the table growing, which threaded runs rely on to read labels outside
  // the protocol lock.
  std::vector<std::unique_ptr<ProtocolInfo>> protocols_;
  std::unordered_map<std::string, ProtocolId> protocol_ids_;
  mutable std::shared_mutex protocol_mu_;  // see read_lock()

  // The main shard: takes every event scheduled outside a threaded run,
  // executes serial runs inline, and during a threaded run stays frozen
  // (its pool still backs PayloadRefs made before the run). Declared
  // before shard_v_, so worker shards and the PayloadRefs parked in their
  // callbacks are torn down first.
  Shard main_;
  std::uint64_t queue_ops_ = 0;  // main_'s pushes + pops, for gauge sampling

  std::vector<std::function<void(const TraceEntry&)>> wiretaps_;
  std::vector<TraceEntry> trace_;
  bool record_trace_ = true;
  bool link_byte_accounting_ = true;
  // Folded totals (fold() adds each shard's counts).
  std::size_t packets_delivered_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  FaultStats fault_stats_;

  // Fault injection. Each shard rolls on its own RNG stream, separate from
  // every protocol RNG so installing a plan never perturbs protocol-level
  // randomness; the fast path stays untouched when no plan is installed.
  // Partition and crash windows are re-keyed by interned id at
  // set_fault_plan time; the pointed-to vectors live inside fault_plan_.
  // Breach times are a flat AddressId-indexed vector (kNotBreached =
  // never).
  std::optional<FaultPlan> fault_plan_;
  std::function<void(const BreachEvent&)> breach_handler_;
  std::vector<Time> breached_;
  std::unordered_map<std::uint64_t, const std::vector<Window>*> partitions_m_;
  std::unordered_map<AddressId, const std::vector<Window>*> offline_m_;

  obs::FlowLedger* flow_ = nullptr;

  // Telemetry plane. sampler_next_ caches the sampler's deadline so the
  // per-event poll is one compare against a member, no indirect call.
  obs::TimeSeriesSampler* sampler_ = nullptr;
  Time sampler_next_ = ~Time{0};
  EngineProfiler* profiler_ = nullptr;
  LatencyTracer* latency_ = nullptr;

  // Observability sinks: metric handles are cached (stable for the
  // registry's lifetime) so folding costs one add each. Per-link byte
  // counters are pre-resolved into a flat id-pair-keyed cache — the
  // "src->dst" label string is built once per pair, never per packet.
  obs::Registry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* events_processed_m_ = nullptr;
  obs::Counter* packets_m_ = nullptr;
  obs::Counter* bytes_m_ = nullptr;
  obs::Gauge* queue_depth_m_ = nullptr;
  obs::Gauge* queue_depth_peak_m_ = nullptr;
  obs::Gauge* pool_live_m_ = nullptr;
  obs::Gauge* pool_slots_m_ = nullptr;
  obs::Histogram* delivery_latency_m_ = nullptr;
  std::unordered_map<std::uint64_t, obs::Counter*> link_bytes_m_;
  // Fault counters, in FaultStats field order, are only registered once a
  // plan is installed, so fault-free runs keep their metric snapshots
  // unchanged.
  std::array<obs::Counter*, 6> faults_m_{};

  // Threaded-run state.
  std::uint32_t shards_ = 1;
  std::unordered_map<AddressId, std::uint32_t> shard_pin_;
  // Auto-affinity placement (kMinCut): recomputed at the start of each
  // sharded run; dense by AddressId with kUnassignedShard for addresses
  // the partitioner never saw (those fall through to id-modulo).
  static constexpr std::uint32_t kUnassignedShard = ~std::uint32_t{0};
  AffinityPolicy affinity_policy_ = AffinityPolicy::kModulo;
  std::vector<std::uint32_t> auto_shard_;
  struct AffinityHint {
    AddressId a;
    AddressId b;
    std::uint64_t weight;
  };
  std::vector<AffinityHint> affinity_hints_;
  std::vector<std::vector<std::uint64_t>> affinity_traffic_;
  std::vector<std::unique_ptr<Shard>> shard_v_;
  ShardRunStats shard_stats_;
  bool sharded_running_ = false;
  std::optional<FaultPlan> pending_plan_;
  mutable std::mutex pending_mu_;           // guards pending_plan_
  std::atomic<bool>* run_abort_ = nullptr;  // live only inside run_sharded()

  /// The worker shard this thread is executing (null on every other
  /// thread); current() resolves it.
  static thread_local Shard* tls_shard_;
};

}  // namespace dcpl::net
