// The million-user scale workload, shared by bench_scale (throughput sweep)
// and bench_profile (telemetry-plane profiling of the same sweep).
//
// N synthetic users each run one round of OHTTP-shaped traffic
// (client -> relay -> gateway -> origin and back, 6 packets) and one
// mix-net-shaped send (an onion through a 1/2/3-hop mix chain to a sink,
// shrinking 48 B per hop), all through a small shared infrastructure of
// relays/gateways/origins/mixes. The nodes are wire-pattern replicas, not
// the real protocol stacks: the workload measures the simulator's interned
// hot path (node table, flat link states, fault-free send/deliver), where
// per-user HPKE at 10^6 users would only add constant crypto cost that
// bench_crypto already measures. Trace recording and per-link byte counters
// are switched off so memory stays bounded by live state, not by history.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/knowledge.hpp"
#include "net/sim.hpp"
#include "net/tracing.hpp"
#include "obs/flow.hpp"
#include "obs/metrics.hpp"

namespace dcpl::bench::scale {

constexpr int kRelays = 16;
constexpr int kGateways = 4;
constexpr int kOrigins = 4;
constexpr int kMixes = 16;
// Mixes form disjoint 4-cycles (mix0-3, mix4-7, ...), not one global ring:
// chains of up to kMaxHops stay inside one cycle, so the tightly-linked
// subgraph decomposes into per-cycle components a shard partitioner can
// place whole. Hop counts, message counts, and wire bytes per send are
// identical to a global ring.
constexpr int kMixRing = 4;
constexpr int kMaxHops = 3;
static_assert(kMaxHops < kMixRing,
              "a chain must not lap its mix cycle");
constexpr std::size_t kRequestBytes = 256;
constexpr std::size_t kResponseBytes = 1024;
constexpr std::size_t kOnionBytes = 512;
constexpr std::size_t kOnionShrink = 48;  // stripped layer per mix hop

// The tallies of one sweep point. Each mix and the sink count into a Tally
// of their own, and each client counts its responses, all as plain fields:
// a node's on_packet always runs on the one shard that owns it, so on the
// sharded engine no two workers ever write the same counter. run_point sums
// them into the point's Tally after run().
struct Tally {
  std::uint64_t ohttp_responses = 0;
  // Indexed by the chain's total hop count (1..kMaxHops).
  std::uint64_t sink_arrivals[kMaxHops + 1] = {};
  std::uint64_t mix_forwards[kMaxHops + 1] = {};
  std::uint64_t mix_wire_bytes[kMaxHops + 1] = {};

  void add(const Tally& o) {
    ohttp_responses += o.ohttp_responses;
    for (int h = 0; h <= kMaxHops; ++h) {
      sink_arrivals[h] += o.sink_arrivals[h];
      mix_forwards[h] += o.mix_forwards[h];
      mix_wire_bytes[h] += o.mix_wire_bytes[h];
    }
  }
};

// Onion payload layout: [0] = remaining mix forwards, [1] = total hop count
// (constant through the chain, used to bucket the tallies), rest padding.

class ScaleOrigin : public net::Node {
 public:
  using Node::Node;
  void on_packet(const net::Packet& p, net::Simulator& sim) override {
    sim.send(net::Packet{address(), p.src, Bytes(kResponseBytes), p.context,
                         "ohttp-r"});
  }
};

// Relay and gateway share the forward/return shape: requests go to a fixed
// next hop under a fresh linkage context, responses are matched back to the
// inbound (requester, context) pair — the decoupling move, minus crypto.
class ScaleForwarder : public net::Node {
 public:
  ScaleForwarder(std::string address, std::string next)
      : Node(std::move(address)), next_(std::move(next)) {}

  void on_packet(const net::Packet& p, net::Simulator& sim) override {
    // forward() moves the delivered buffer into the outgoing send (and, on
    // the sharded engine, through the cross-shard mailbox) — the relay hop
    // never copies payload bytes.
    if (p.protocol == "ohttp") {
      const std::uint64_t fwd = sim.new_context();
      pending_.emplace(fwd, Inbound{p.src, p.context});
      sim.forward(address(), next_, fwd, "ohttp");
    } else {
      auto it = pending_.find(p.context);
      if (it == pending_.end()) return;
      sim.forward(address(), it->second.requester, it->second.context,
                  "ohttp-r");
      pending_.erase(it);
    }
  }

 private:
  struct Inbound {
    std::string requester;
    std::uint64_t context;
  };
  std::string next_;
  std::unordered_map<std::uint64_t, Inbound> pending_;
};

class ScaleMix : public net::Node {
 public:
  ScaleMix(std::string address, std::string next_mix, std::string sink)
      : Node(std::move(address)),
        next_mix_(std::move(next_mix)),
        sink_(std::move(sink)) {}

  void on_packet(const net::Packet& p, net::Simulator& sim) override {
    const int total_hops = p.payload[1];
    ++counts_.mix_forwards[total_hops];
    counts_.mix_wire_bytes[total_hops] += p.payload.size();
    // Peel by trimming the delivered buffer in place: detach_payload moves
    // the heap buffer out of the pool (shrunk one layer), so a hop costs
    // zero allocations instead of a fresh copy of the remaining onion.
    Bytes peeled = sim.detach_payload(p.payload.size() - kOnionShrink);
    if (peeled[0] == 0) {
      sim.send(
          net::Packet{address(), sink_, std::move(peeled), p.context, "mix"});
    } else {
      --peeled[0];
      sim.send(net::Packet{address(), next_mix_, std::move(peeled), p.context,
                           "mix"});
    }
  }

  const Tally& counts() const { return counts_; }

 private:
  std::string next_mix_;
  std::string sink_;
  Tally counts_;
};

class ScaleSink : public net::Node {
 public:
  using Node::Node;
  void on_packet(const net::Packet& p, net::Simulator&) override {
    const int total_hops = p.payload[1];
    ++counts_.sink_arrivals[total_hops];
    counts_.mix_wire_bytes[total_hops] += p.payload.size();
  }

  const Tally& counts() const { return counts_; }

 private:
  Tally counts_;
};

class ScaleClient : public net::Node {
 public:
  ScaleClient(std::string address, std::string relay, std::string first_mix,
              int hops)
      : Node(std::move(address)),
        relay_(std::move(relay)),
        first_mix_(std::move(first_mix)),
        hops_(hops) {}

  void start(net::Simulator& sim) {
    sim.send(net::Packet{address(), relay_, Bytes(kRequestBytes),
                         sim.new_context(), "ohttp"});
    Bytes onion(kOnionBytes);
    onion[0] = static_cast<std::uint8_t>(hops_ - 1);
    onion[1] = static_cast<std::uint8_t>(hops_);
    sim.send(net::Packet{address(), first_mix_, std::move(onion),
                         sim.new_context(), "mix"});
  }

  void on_packet(const net::Packet& p, net::Simulator&) override {
    if (p.protocol == "ohttp-r") ++responses_;
  }

  std::uint64_t responses() const { return responses_; }

 private:
  std::string relay_;
  std::string first_mix_;
  int hops_;
  std::uint64_t responses_ = 0;
};

struct PointResult {
  std::size_t users = 0;
  double wall_ms = 0;
  double sim_ms = 0;
  double events = 0;
  double events_per_sec = 0;
  double bytes_per_sec = 0;
  double peak_queue_depth = 0;
  bool ohttp_complete = false;
  bool mix_complete = false;
  bool overhead_exact = false;
  // Populated when the point ran on the sharded engine (shards > 1).
  std::uint32_t shards = 1;
  net::Simulator::AffinityPolicy policy =
      net::Simulator::AffinityPolicy::kModulo;
  double lookahead_us = 0;
  std::uint64_t windows = 0;
  std::uint64_t total_deliveries = 0;
  std::vector<std::uint64_t> shard_events;
  std::vector<std::uint64_t> shard_deliveries;
  std::vector<std::uint64_t> shard_cross_sends;
  std::vector<std::uint64_t> shard_local_sends;
  // Contention telemetry (wall-clock, machine-dependent — reported, never
  // baselined): per-worker busy vs barrier-wait time, mailbox backpressure
  // stalls, and the cross-shard traffic matrix.
  std::vector<std::uint64_t> shard_busy_ns;
  std::vector<std::uint64_t> shard_barrier_ns;
  std::vector<std::uint64_t> shard_mailbox_stalls;
  std::vector<std::vector<std::uint64_t>> shard_traffic;
};

/// Attachments for one sweep point. `registry` receives the simulator's
/// metrics (per-size scopes of the global registry, so the report's
/// "metrics" section carries real per-point numbers — a throwaway local is
/// used when null). `on_ready` runs after the topology is built but before
/// the clock starts, with the live simulator and the sink — the hook
/// bench_profile uses to register telemetry probes. A probe may read the
/// sink's counters: sampler ticks run with every shard worker parked.
struct PointOptions {
  obs::Registry* registry = nullptr;
  obs::FlowLedger* ledger = nullptr;
  /// Attaches the request-tracing plane for the point: every client send
  /// opens a trace, terminal hops record end-to-end virtual latency, and
  /// sampled traces emit waterfall spans. Caller-owned; reset it between
  /// points unless accumulating a whole sweep is intended.
  net::LatencyTracer* tracer = nullptr;
  /// > 1 runs the point on the sharded engine. Under kModulo the
  /// infrastructure nodes are pinned round-robin across shards and the
  /// unpinned clients fall to their id-modulo shard; under kMinCut nothing
  /// is pinned and the traffic-aware partitioner places every node from the
  /// link table plus per-client affinity hints.
  std::uint32_t shards = 1;
  net::Simulator::AffinityPolicy affinity =
      net::Simulator::AffinityPolicy::kModulo;
  /// Optional recorded traffic matrix (a prior run's per-shard send rows)
  /// used to scale the partitioner's edge weights under kMinCut.
  std::vector<std::vector<std::uint64_t>> affinity_traffic;
  std::function<void(net::Simulator&, const ScaleSink&)> on_ready;
  /// Runs after sim.run() returns (telemetry already detached) with the
  /// drained simulator and the summed tally — the hook bench_profile uses
  /// to capture run-scoped state like the interned protocol-name table.
  std::function<void(net::Simulator&, const Tally&)> on_done;
};

inline PointResult run_point(std::size_t n_users,
                             const PointOptions& opts = {}) {
  PointResult r;
  r.users = n_users;

  net::Simulator sim;
  obs::Registry local;
  obs::Registry& registry = opts.registry ? *opts.registry : local;
  sim.set_metrics(registry);
  sim.set_trace_recording(false);
  sim.set_link_byte_accounting(false);
  if (opts.tracer != nullptr) sim.set_latency_tracer(opts.tracer);
  if (opts.ledger != nullptr) {
    // Worst-case ledger load: every delivery becomes an exposure with a
    // per-context label, so nothing dedups and the causal frontier grows
    // with the context space.
    obs::FlowLedger* ledger = opts.ledger;
    sim.set_flow(ledger);
    sim.add_wiretap([ledger](const net::TraceEntry& e) {
      ledger->record_exposure(
          e.dst, core::benign_data("pkt:" + std::to_string(e.context)),
          e.context);
    });
  }

  std::vector<std::unique_ptr<net::Node>> infra;
  std::vector<const ScaleMix*> mix_nodes;
  std::vector<std::string> relays, mixes;

  ScaleSink sink("sink");
  sim.add_node(sink);
  for (int i = 0; i < kOrigins; ++i) {
    infra.push_back(
        std::make_unique<ScaleOrigin>("origin" + std::to_string(i)));
    sim.add_node(*infra.back());
  }
  for (int i = 0; i < kGateways; ++i) {
    infra.push_back(std::make_unique<ScaleForwarder>(
        "gw" + std::to_string(i), "origin" + std::to_string(i % kOrigins)));
    sim.add_node(*infra.back());
  }
  for (int i = 0; i < kRelays; ++i) {
    relays.push_back("relay" + std::to_string(i));
    infra.push_back(std::make_unique<ScaleForwarder>(
        relays.back(), "gw" + std::to_string(i % kGateways)));
    sim.add_node(*infra.back());
  }
  for (int i = 0; i < kMixes; ++i) mixes.push_back("mix" + std::to_string(i));
  const auto ring_next = [](int i) {
    const int base = i - i % kMixRing;
    return base + (i - base + 1) % kMixRing;
  };
  for (int i = 0; i < kMixes; ++i) {
    auto mix =
        std::make_unique<ScaleMix>(mixes[i], mixes[ring_next(i)], "sink");
    mix_nodes.push_back(mix.get());
    sim.add_node(*mix);
    infra.push_back(std::move(mix));
  }
  if (opts.shards > 1) {
    if (opts.affinity == net::Simulator::AffinityPolicy::kMinCut) {
      // No pins: the partitioner owns placement, seeded by the link table
      // (and, when supplied, a recorded traffic matrix). Per-client hints
      // land below, once the clients exist.
      sim.set_auto_affinity(net::Simulator::AffinityPolicy::kMinCut);
      if (!opts.affinity_traffic.empty()) {
        sim.set_affinity_traffic(opts.affinity_traffic);
      }
    } else {
      // Pin the shared infrastructure round-robin (count-agnostic: affinity
      // is reduced modulo the shard count at run time); clients stay
      // unpinned and spread by interned-id order. The sink takes shard 0
      // alongside the run callbacks.
      sim.set_shard_affinity("sink", 0);
      for (int i = 0; i < kOrigins; ++i) {
        sim.set_shard_affinity("origin" + std::to_string(i),
                               static_cast<std::uint32_t>(i));
      }
      for (int i = 0; i < kGateways; ++i) {
        sim.set_shard_affinity("gw" + std::to_string(i),
                               static_cast<std::uint32_t>(i));
      }
      for (int i = 0; i < kRelays; ++i) {
        sim.set_shard_affinity(relays[i], static_cast<std::uint32_t>(i));
      }
      for (int i = 0; i < kMixes; ++i) {
        sim.set_shard_affinity(mixes[i], static_cast<std::uint32_t>(i));
      }
    }
    sim.set_shards(opts.shards);
  }
  // Infra links get explicit latencies; the user edge falls back to the
  // simulator default, so the link table stays O(infrastructure).
  for (int i = 0; i < kRelays; ++i) {
    sim.connect(relays[i], "gw" + std::to_string(i % kGateways), 5'000);
  }
  for (int i = 0; i < kGateways; ++i) {
    sim.connect("gw" + std::to_string(i),
                "origin" + std::to_string(i % kOrigins), 5'000);
  }
  // Mix cycles get explicit links; the mix -> sink hand-off rides the
  // default latency (like the user edges), so the tight 5 ms subgraph
  // stays a union of per-cycle and per-gateway components — exactly the
  // structure that lets the min-cut policy place it with zero tight-link
  // cuts, which in turn widens every shard pair's lookahead window.
  for (int i = 0; i < kMixes; ++i) {
    sim.connect(mixes[i], mixes[ring_next(i)], 5'000);
  }

  std::vector<std::unique_ptr<ScaleClient>> clients;
  clients.reserve(n_users);
  std::uint64_t expected_forwards[kMaxHops + 1] = {};
  std::size_t class_counts[kMaxHops + 1] = {};
  for (std::size_t i = 0; i < n_users; ++i) {
    const int hops = 1 + static_cast<int>(i % kMaxHops);
    ++class_counts[hops];
    expected_forwards[hops] += static_cast<std::uint64_t>(hops);
    // Align each client's mix cycle with its relay's gateway group: the
    // tight 5 ms subgraph (relay->gw->origin trees, mix cycles) plus the
    // clients hanging off it then decomposes into kGateways components
    // with coherent placement pulls — a traffic-aware partition can keep
    // every tight link internal. Per-mix load stays uniform.
    const int tree = static_cast<int>(i % static_cast<std::size_t>(kGateways));
    const int mix_idx =
        tree * kMixRing +
        static_cast<int>((i / static_cast<std::size_t>(kGateways)) %
                         static_cast<std::size_t>(kMixRing));
    clients.push_back(std::make_unique<ScaleClient>(
        "u" + std::to_string(i), relays[i % kRelays], mixes[mix_idx], hops));
    sim.add_node(*clients.back());
    if (opts.shards > 1 &&
        opts.affinity == net::Simulator::AffinityPolicy::kMinCut) {
      // Client edges ride the default link, so they never appear in the
      // link table; hint the partitioner with the client's real per-round
      // send pattern (2 packets to/from its relay, 1 into its first mix).
      sim.add_affinity_hint(clients.back()->address(), relays[i % kRelays],
                            2);
      sim.add_affinity_hint(clients.back()->address(), mixes[mix_idx], 1);
    }
  }
  // Stagger starts across 1 s of virtual time so the event queue holds an
  // in-flight window, not the whole population. at_node lands each kickoff
  // on its client's own shard (under either placement policy), so the
  // start burst is spread instead of serialized through shard 0 — and on
  // the serial engine it degrades to a plain at().
  for (std::size_t i = 0; i < n_users; ++i) {
    ScaleClient* c = clients[i].get();
    sim.at_node(c->address(), (i % 1000) * 1'000, [c, &sim] { c->start(sim); });
  }

  if (opts.on_ready) opts.on_ready(sim, sink);

  const auto t0 = std::chrono::steady_clock::now();
  const net::Time end = sim.run();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Detach the point-scoped telemetry before `sim` outlives this frame's
  // attachments (on_ready-registered probes may reference `sink`).
  sim.set_sampler(nullptr);
  sim.set_profiler(nullptr);
  sim.set_latency_tracer(nullptr);
  Tally tally = sink.counts();
  for (const ScaleMix* m : mix_nodes) tally.add(m->counts());
  for (const auto& c : clients) tally.ohttp_responses += c->responses();
  if (opts.on_done) opts.on_done(sim, tally);

  r.wall_ms = wall_s * 1e3;
  r.sim_ms = static_cast<double>(end) / 1e3;
  r.events = static_cast<double>(registry.counter("events_processed").value());
  r.events_per_sec = wall_s > 0 ? r.events / wall_s : 0;
  r.bytes_per_sec =
      wall_s > 0 ? static_cast<double>(sim.bytes_delivered()) / wall_s : 0;
  // The live queue_depth gauge is zeroed at drain; the run's high-water
  // mark lives on the dedicated peak gauge.
  r.peak_queue_depth = registry.gauge("queue_depth_peak").peak();

  if (opts.shards > 1) {
    const net::Simulator::ShardRunStats& ss = sim.shard_stats();
    r.shards = ss.shards;
    r.policy = ss.policy;
    r.lookahead_us = static_cast<double>(ss.lookahead_us);
    r.windows = ss.windows;
    r.total_deliveries = sim.packets_delivered();
    r.shard_events = ss.events;
    r.shard_deliveries = ss.deliveries;
    r.shard_cross_sends = ss.cross_sends;
    r.shard_local_sends = ss.local_sends;
    r.shard_busy_ns = ss.busy_ns;
    r.shard_barrier_ns = ss.barrier_wait_ns;
    r.shard_mailbox_stalls = ss.mailbox_full_stalls;
    r.shard_traffic = ss.traffic;
  }

  r.ohttp_complete = tally.ohttp_responses == n_users;
  std::uint64_t sink_total = 0;
  r.overhead_exact = true;
  for (int h = 1; h <= kMaxHops; ++h) {
    sink_total += tally.sink_arrivals[h];
    // A chain of h mixes means exactly h+1 wire messages per send: one per
    // mix arrival plus the hand-off to the sink. Wire bytes shrink one
    // 48 B layer per mix, so the end-to-end byte cost is exact too.
    r.overhead_exact &= tally.sink_arrivals[h] == class_counts[h];
    r.overhead_exact &= tally.mix_forwards[h] == expected_forwards[h];
    std::uint64_t per_send_bytes = 0;
    for (int k = 0; k <= h; ++k) {
      per_send_bytes += kOnionBytes - kOnionShrink * k;
    }
    r.overhead_exact &=
        tally.mix_wire_bytes[h] == class_counts[h] * per_send_bytes;
  }
  r.mix_complete = sink_total == n_users;
  return r;
}

inline std::size_t parse_users(int argc, char** argv,
                               std::size_t fallback = 100'000) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--users") == 0) {
      const long long v = std::atoll(argv[i + 1]);
      if (v > 0) return static_cast<std::size_t>(v);
    }
  }
  return fallback;
}

/// --shards <n>: cap of the shard sweep bench_scale appends at the largest
/// population point (1 = skip the sharded sweep, the default).
inline std::uint32_t parse_shards(int argc, char** argv,
                                  std::uint32_t fallback = 1) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0) {
      const long v = std::atol(argv[i + 1]);
      if (v > 0) return static_cast<std::uint32_t>(v);
    }
  }
  return fallback;
}

/// Shard counts to sweep under `cap`: powers of two up to and including it.
inline std::vector<std::uint32_t> shard_counts(std::uint32_t cap) {
  std::vector<std::uint32_t> counts;
  for (std::uint32_t s = 2; s <= cap; s *= 2) counts.push_back(s);
  if (!counts.empty() && counts.back() != cap) counts.push_back(cap);
  return counts;
}

/// The standard 1k -> 1M sweep, clipped to `cap` (which is always included
/// as the final point).
inline std::vector<std::size_t> sweep_sizes(std::size_t cap) {
  std::vector<std::size_t> sweep;
  for (std::size_t n : {std::size_t{1'000}, std::size_t{10'000},
                        std::size_t{100'000}, std::size_t{1'000'000}}) {
    if (n <= cap) sweep.push_back(n);
  }
  if (sweep.empty() || sweep.back() != cap) sweep.push_back(cap);
  return sweep;
}

}  // namespace dcpl::bench::scale
