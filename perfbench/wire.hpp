// The `wire` and `wire-s4` workloads: the wire-pattern topology of
// bench/scale_workload.hpp (relays -> gateways -> origins, mix 4-cycles, a
// sink), mirrored here as a closed loop. Each user makes kFetches chained
// OHTTP-shaped round trips, each sent from the previous reply, and then one
// onion through 1-3 mixes to the sink. No crypto runs: nearly all the time
// is the simulator's.
//
// Every payload carries a header the benchmark's nodes read and keep:
//   [0] remaining mix forwards, [1] total mix hops,
//   [2..5] user index (little endian), [6..7] response size (requests only).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/sim.hpp"
#include "probe.hpp"
#include "workload.hpp"

namespace perfbench::wire {

namespace net = dcpl::net;
using dcpl::Bytes;

constexpr int kRelays = 16;
constexpr int kGateways = 4;
constexpr int kOrigins = 4;
constexpr int kMixes = 16;
constexpr int kMixRing = 4;
constexpr int kMaxHops = 3;
constexpr int kFetches = 2;
constexpr std::size_t kRequestBytes = 256;
constexpr std::size_t kMinResponse = 256;
constexpr std::size_t kMaxResponse = 4096;
constexpr std::size_t kOnionBytes = 512;
constexpr std::size_t kOnionShrink = 48;
constexpr net::Time kInfraLatency = 5'000;
constexpr net::Time kDefaultLatency = 10'000;  // the simulator's default
constexpr std::size_t kHeader = 8;

/// One user's generated inputs.
struct User {
  net::Time start_us = 0;
  std::uint8_t relay = 0;
  std::uint8_t first_mix = 0;
  std::uint8_t hops = 1;
  std::uint16_t response_bytes[kFetches] = {};
};

inline std::vector<User> generate(std::uint64_t seed, std::size_t users) {
  SplitMix rng(seed);
  std::vector<User> out(users);
  for (User& u : out) {
    u.start_us = rng.below(1'000'000);
    u.relay = static_cast<std::uint8_t>(rng.below(kRelays));
    // A user's mix cycle is its relay's gateway group, as in the scale
    // workload, so a traffic-aware partition can keep tight links internal.
    u.first_mix = static_cast<std::uint8_t>((u.relay % kGateways) * kMixRing +
                                            rng.below(kMixRing));
    u.hops = static_cast<std::uint8_t>(1 + rng.below(kMaxHops));
    for (auto& r : u.response_bytes) {
      r = static_cast<std::uint16_t>(
          kMinResponse + rng.below(kMaxResponse - kMinResponse + 1));
    }
  }
  return out;
}

inline int ring_next(int i) {
  const int base = i - i % kMixRing;
  return base + (i - base + 1) % kMixRing;
}

inline void put_user(Bytes& b, std::uint32_t user) {
  for (int k = 0; k < 4; ++k) b[2 + k] = static_cast<std::uint8_t>(user >> (8 * k));
}
inline std::uint32_t get_user(const Bytes& b) {
  std::uint32_t u = 0;
  for (int k = 0; k < 4; ++k) u |= std::uint32_t{b[2 + k]} << (8 * k);
  return u;
}

/// Closed-form aggregates for a generated population.
inline Aggregates expected(const std::vector<User>& users) {
  Aggregates a;
  for (const User& u : users) {
    a.packets += 6 * kFetches + u.hops + 1;
    for (std::uint16_t r : u.response_bytes) a.bytes += 3 * (kRequestBytes + r);
    for (int k = 0; k <= u.hops; ++k) a.bytes += kOnionBytes - kOnionShrink * k;
    const net::Time rtt = 2 * (kDefaultLatency + 2 * kInfraLatency);
    const net::Time mix = 2 * kDefaultLatency + kInfraLatency * (u.hops - 1);
    a.virtual_us = std::max(a.virtual_us, u.start_us + kFetches * rtt + mix);
  }
  a.events = a.packets + users.size();  // deliveries plus one kickoff each
  return a;
}

/// Probe hooks shared by the benchmark's nodes (all null when untraced).
struct Hooks {
  Probe* probe = nullptr;
  Layer* send = nullptr;
};

class Origin final : public net::Node {
 public:
  Origin(std::string address, const Hooks& hooks)
      : Node(std::move(address)), hooks_(hooks) {}
  void on_packet(const net::Packet& p, net::Simulator& sim) override {
    const std::size_t size = p.payload[6] | (std::size_t{p.payload[7]} << 8);
    Bytes response(size);
    put_user(response, get_user(p.payload));
    Scope s(hooks_.probe, hooks_.send);
    sim.send(net::Packet{address(), p.src, std::move(response), p.context,
                         "ohttp-r"});
  }

 private:
  Hooks hooks_;
};

/// Relay and gateway: requests go on under a fresh context, responses are
/// matched back to the inbound (requester, context) pair.
class Forwarder final : public net::Node {
 public:
  Forwarder(std::string address, std::string next, const Hooks& hooks)
      : Node(std::move(address)), next_(std::move(next)), hooks_(hooks) {}

  void on_packet(const net::Packet& p, net::Simulator& sim) override {
    if (p.protocol == "ohttp") {
      const std::uint64_t fwd = sim.new_context();
      pending_.emplace(fwd, Inbound{p.src, p.context});
      Scope s(hooks_.probe, hooks_.send);
      sim.forward(address(), next_, fwd, "ohttp");
    } else {
      auto it = pending_.find(p.context);
      if (it == pending_.end()) return;
      {
        Scope s(hooks_.probe, hooks_.send);
        sim.forward(address(), it->second.requester, it->second.context,
                    "ohttp-r");
      }
      pending_.erase(it);
    }
  }

  std::size_t pending() const { return pending_.size(); }

 private:
  struct Inbound {
    std::string requester;
    std::uint64_t context;
  };
  std::string next_;
  Hooks hooks_;
  std::unordered_map<std::uint64_t, Inbound> pending_;
};

class Mix final : public net::Node {
 public:
  Mix(std::string address, std::string next_mix, std::string sink,
      const Hooks& hooks)
      : Node(std::move(address)),
        next_mix_(std::move(next_mix)),
        sink_(std::move(sink)),
        hooks_(hooks) {}

  void on_packet(const net::Packet& p, net::Simulator& sim) override {
    Bytes peeled = sim.detach_payload(p.payload.size() - kOnionShrink);
    const bool last = peeled[0] == 0;
    if (!last) --peeled[0];
    Scope s(hooks_.probe, hooks_.send);
    sim.send(net::Packet{address(), last ? sink_ : next_mix_,
                         std::move(peeled), p.context, "mix"});
  }

 private:
  std::string next_mix_;
  std::string sink_;
  Hooks hooks_;
};

/// Terminal of every onion: counts arrivals per user and wire bytes.
class Sink final : public net::Node {
 public:
  Sink(std::string address, std::size_t users)
      : Node(std::move(address)), arrivals_(users, 0) {}
  void on_packet(const net::Packet& p, net::Simulator&) override {
    const std::uint32_t u = get_user(p.payload);
    if (u < arrivals_.size() && arrivals_[u] < 255) ++arrivals_[u];
    expected_size_ok_ &= p.payload.size() == kOnionBytes - kOnionShrink * p.payload[1];
  }
  const std::vector<std::uint8_t>& arrivals() const { return arrivals_; }
  bool sizes_ok() const { return expected_size_ok_; }

 private:
  std::vector<std::uint8_t> arrivals_;
  bool expected_size_ok_ = true;
};

class Client final : public net::Node {
 public:
  Client(std::string address, std::uint32_t index, const User& user,
         std::string relay, std::string first_mix, const Hooks& hooks)
      : Node(std::move(address)),
        index_(index),
        user_(&user),
        relay_(std::move(relay)),
        first_mix_(std::move(first_mix)),
        hooks_(hooks) {}

  void start(net::Simulator& sim) { send_request(sim); }

  void on_packet(const net::Packet& p, net::Simulator& sim) override {
    if (p.protocol != "ohttp-r") return;
    if (fetched_ < kFetches &&
        p.payload.size() == user_->response_bytes[fetched_] &&
        get_user(p.payload) == index_) {
      ++ok_;
    }
    if (++fetched_ < kFetches) {
      send_request(sim);
      return;
    }
    if (fetched_ > kFetches) return;  // a duplicate reply; counted as failed
    Bytes onion(kOnionBytes);
    onion[0] = static_cast<std::uint8_t>(user_->hops - 1);
    onion[1] = user_->hops;
    put_user(onion, index_);
    Scope s(hooks_.probe, hooks_.send);
    sim.send(net::Packet{address(), first_mix_, std::move(onion),
                         sim.new_context(), "mix"});
  }

  int fetched() const { return fetched_; }
  int ok() const { return ok_; }

 private:
  void send_request(net::Simulator& sim) {
    Bytes req(kRequestBytes);
    put_user(req, index_);
    const std::uint16_t size = user_->response_bytes[fetched_];
    req[6] = static_cast<std::uint8_t>(size);
    req[7] = static_cast<std::uint8_t>(size >> 8);
    Scope s(hooks_.probe, hooks_.send);
    sim.send(net::Packet{address(), relay_, std::move(req), sim.new_context(),
                         "ohttp"});
  }

  std::uint32_t index_;
  const User* user_;
  std::string relay_;
  std::string first_mix_;
  Hooks hooks_;
  int fetched_ = 0;
  int ok_ = 0;
};

inline Outcome run(const Options& opt, std::uint32_t shards) {
  Outcome out;
  SetupClock setup(opt);
  const std::vector<User> users = generate(opt.seed, opt.users);

  std::unique_ptr<Probe> probe;
  if (opt.trace) probe = std::make_unique<Probe>(kSpanPeriod, kSpanCapacity);
  Hooks hooks;
  Layer* role_client = nullptr;
  std::unordered_map<std::string, Layer*> roles;
  if (probe) {
    hooks.probe = probe.get();
    hooks.send = &probe->layer("net.send");
    for (const char* r : {"client", "forwarder", "origin", "mix", "sink"}) {
      roles[r] = &probe->layer(std::string("systems.") + r);
    }
    role_client = roles["client"];
  }

  net::Simulator sim;
  dcpl::obs::Registry registry;
  sim.set_metrics(registry);
  sim.set_trace_recording(false);
  sim.set_link_byte_accounting(false);
  std::unique_ptr<net::EngineProfiler> profiler;
  if (probe) {
    profiler = std::make_unique<net::EngineProfiler>(0, 6, false);
    sim.set_profiler(profiler.get());
  }

  // Parties. Construction is the wire workload's "keygen": it has no keys.
  std::uint64_t t = now_ns();
  Sink sink("sink", users.size());
  std::vector<std::unique_ptr<net::Node>> infra;
  std::vector<std::pair<net::Node*, const char*>> parties;
  parties.emplace_back(&sink, "sink");
  for (int i = 0; i < kOrigins; ++i) {
    infra.push_back(std::make_unique<Origin>("origin" + std::to_string(i), hooks));
    parties.emplace_back(infra.back().get(), "origin");
  }
  for (int i = 0; i < kGateways; ++i) {
    infra.push_back(std::make_unique<Forwarder>(
        "gw" + std::to_string(i), "origin" + std::to_string(i % kOrigins), hooks));
    parties.emplace_back(infra.back().get(), "forwarder");
  }
  for (int i = 0; i < kRelays; ++i) {
    infra.push_back(std::make_unique<Forwarder>(
        "relay" + std::to_string(i), "gw" + std::to_string(i % kGateways), hooks));
    parties.emplace_back(infra.back().get(), "forwarder");
  }
  for (int i = 0; i < kMixes; ++i) {
    infra.push_back(std::make_unique<Mix>("mix" + std::to_string(i),
                                          "mix" + std::to_string(ring_next(i)),
                                          "sink", hooks));
    parties.emplace_back(infra.back().get(), "mix");
  }
  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    const User& u = users[i];
    clients.push_back(std::make_unique<Client>(
        "u" + std::to_string(i), static_cast<std::uint32_t>(i), u,
        "relay" + std::to_string(u.relay), "mix" + std::to_string(u.first_mix),
        hooks));
  }
  out.layers["setup.keygen_ns"] = static_cast<double>(now_ns() - t);

  // Topology: nodes (behind timing proxies when traced), links, placement.
  t = now_ns();
  std::vector<std::unique_ptr<TimedNode>> proxies;
  const auto payload_user = [](const net::Packet& p) -> std::uint64_t {
    return p.payload.size() >= kHeader ? get_user(p.payload) + 1 : kNoRequest;
  };
  const auto add = [&](net::Node& n, Layer* role) {
    if (!probe) {
      sim.add_node(n);
      return;
    }
    proxies.push_back(std::make_unique<TimedNode>(n, *probe, *role, payload_user));
    sim.add_node(*proxies.back());
  };
  for (auto& [node, role] : parties) add(*node, roles[role]);
  for (auto& c : clients) add(*c, role_client);
  const bool sharded = shards > 1;
  if (sharded) {
    sim.set_auto_affinity(net::Simulator::AffinityPolicy::kMinCut);
    sim.set_shards(shards);
  }
  for (int i = 0; i < kRelays; ++i) {
    sim.connect("relay" + std::to_string(i), "gw" + std::to_string(i % kGateways),
                kInfraLatency);
  }
  for (int i = 0; i < kGateways; ++i) {
    sim.connect("gw" + std::to_string(i), "origin" + std::to_string(i % kOrigins),
                kInfraLatency);
  }
  for (int i = 0; i < kMixes; ++i) {
    sim.connect("mix" + std::to_string(i), "mix" + std::to_string(ring_next(i)),
                kInfraLatency);
  }
  if (sharded) {
    // Client edges ride the default link, so hint the partitioner with each
    // client's per-round send pattern.
    for (std::size_t i = 0; i < users.size(); ++i) {
      sim.add_affinity_hint(clients[i]->address(),
                            "relay" + std::to_string(users[i].relay), 2 * kFetches);
      sim.add_affinity_hint(clients[i]->address(),
                            "mix" + std::to_string(users[i].first_mix), 1);
    }
  }
  out.layers["setup.topology_ns"] = static_cast<double>(now_ns() - t);

  // Kickoffs, each on its client's own shard.
  t = now_ns();
  for (std::size_t i = 0; i < users.size(); ++i) {
    Client* c = clients[i].get();
    Probe* p = probe.get();
    const std::uint64_t req = i + 1;
    sim.at_node(c->address(), users[i].start_us, [c, &sim, p, role_client, req] {
      Scope s(p, role_client, req, true);
      c->start(sim);
    });
  }
  out.layers["setup.schedule_ns"] = static_cast<double>(now_ns() - t);

  setup.done(out);
  const std::uint64_t r0 = now_ns();
  const net::Time end = sim.run();
  out.run_ns = now_ns() - r0;
  sim.set_profiler(nullptr);

  // Output checks.
  const Aggregates want = expected(users);
  out.got.packets = sim.packets_delivered();
  out.got.bytes = sim.bytes_delivered();
  out.got.virtual_us = end;
  out.got.events = registry.counter("events_processed").value();
  for (std::size_t i = 0; i < users.size(); ++i) {
    out.attempted += kFetches + 1;
    const Client& c = *clients[i];
    if (c.fetched() == kFetches) out.completed += static_cast<std::uint64_t>(c.ok());
    if (sink.arrivals()[i] == 1) ++out.completed;
  }
  std::size_t open_pending = 0;
  for (auto& n : infra) {
    if (auto* f = dynamic_cast<Forwarder*>(n.get())) open_pending += f->pending();
  }
  out.check("every_request_completes_once", out.completed == out.attempted);
  out.check("onion_sizes", sink.sizes_ok());
  out.check("no_pending_state", open_pending == 0);
  out.check("packets_delivered", out.got.packets == want.packets);
  out.check("bytes_delivered", out.got.bytes == want.bytes);
  out.check("virtual_time", out.got.virtual_us == want.virtual_us);
  out.check("events", out.got.events == want.events);

  out.layers["net.queue_peak"] = registry.gauge("queue_depth_peak").peak();
  out.layers["net.pool_slots_peak"] = registry.gauge("pool_slots").peak();
  if (sharded) out.shard = sim.shard_stats();
  if (probe) out.collect(*probe, profiler.get());
  out.write_spans(opt, probe.get());
  return out;
}

}  // namespace perfbench::wire
