// Shared determinism-oracle workloads for the simulator's event engine.
//
// Both workloads were recorded once against the seed binary-heap engine
// (std::priority_queue of type-erased closures) and their outputs frozen
// into tests/test_engine.cpp as goldens. Any event-engine rewrite must
// reproduce them exactly: the delivered (time, src, dst, size, context,
// protocol) sequence *is* the observable behaviour every table, figure,
// and fault experiment in this repo folds over.
//
// The small workload is human-readable (one log line per delivery,
// callback, and breach) and deliberately hits the engine's awkward spots:
// ties at identical timestamps, a send timed to land exactly on the
// calendar wheel's 2^20 us horizon boundary, far-future events that must
// ride the overflow rung, and a fault plan installed mid-run whose
// loss/dup/jitter rolls are consumed in send order. The big workload is a
// seeded-random 40-node forwarding mesh (~20k deliveries across several
// wheel rotations) folded into one FNV-1a hash.
#pragma once

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/faults.hpp"
#include "net/sim.hpp"
#include "obs/metrics.hpp"

namespace dcpl::testing {

inline std::uint64_t fnv_init() { return 1469598103934665603ull; }

inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
}

inline void fnv_mix(std::uint64_t& h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  fnv_mix(h, s.size());
}

/// Logs every delivery; replies to "ping" with a one-byte-larger "pong",
/// and forwards "hop" packets (payload[0] = remaining hops) to `next`.
class OracleNode : public net::Node {
 public:
  OracleNode(net::Address a, std::vector<std::string>* log)
      : Node(std::move(a)), log_(log) {}

  std::string next;

  void on_packet(const net::Packet& p, net::Simulator& sim) override {
    std::ostringstream os;
    os << "D " << sim.now() << " " << p.src << " " << p.dst << " "
       << p.payload.size() << " " << p.context << " " << p.protocol;
    log_->push_back(os.str());
    if (p.protocol == "ping") {
      sim.send(net::Packet{address(), p.src, Bytes(p.payload.size() + 1),
                           p.context, "pong"});
    } else if (p.protocol == "hop" && !p.payload.empty() && p.payload[0] > 0 &&
               !next.empty()) {
      Bytes b = p.payload;
      --b[0];
      sim.send(net::Packet{address(), next, std::move(b), p.context, "hop"});
    }
  }

 private:
  std::vector<std::string>* log_;
};

/// The readable oracle: returns the full ordered event log. Metrics go to
/// `registry` when given (the registry golden reads them), else to a
/// private registry.
inline std::vector<std::string> oracle_small_trace(
    obs::Registry* registry = nullptr) {
  std::vector<std::string> log;
  net::Simulator sim;
  obs::Registry reg;
  sim.set_metrics(registry != nullptr ? *registry : reg);

  OracleNode a("a", &log), b("b", &log), c("c", &log), d("d", &log),
      far("far", &log);
  for (OracleNode* n : {&a, &b, &c, &d, &far}) sim.add_node(*n);
  a.next = "b";
  b.next = "c";
  c.next = "d";
  sim.connect("a", "b", 100);
  sim.connect("b", "c", 250);
  sim.connect("c", "d", 1'000);
  sim.connect("a", "far", 2'500'000);  // rides the overflow rung
  sim.set_default_latency(10'000);
  sim.set_breach_handler([&](const net::BreachEvent& ev) {
    log.push_back("B " + std::to_string(sim.now()) + " " + ev.party);
  });
  auto cb = [&](const std::string& tag) {
    log.push_back("C " + std::to_string(sim.now()) + " " + tag);
  };

  // Ties: three same-latency sends all land at t=100 in seq order, with a
  // callback at exactly t=100 scheduled between the second and third send.
  sim.send(net::Packet{"a", "b", Bytes(1), sim.new_context(), "tie"});
  sim.send(net::Packet{"a", "b", Bytes(2), sim.new_context(), "tie"});
  sim.at(100, [&] { cb("tie"); });
  sim.send(net::Packet{"a", "b", Bytes(3), sim.new_context(), "tie"});

  // A 3-hop forwarding chain and a ping/pong round trip.
  sim.send(net::Packet{"a", "b", Bytes{2, 9}, sim.new_context(), "hop"});
  sim.send(net::Packet{"c", "b", Bytes(5), sim.new_context(), "ping"});

  // Wheel-rollover boundary: callbacks straddling the 2^20 us horizon, and
  // a send timed to deliver exactly at it (1'048'400 + 100 + 76 = 2^20).
  sim.at(1'048'575, [&] { cb("pre-roll"); });
  sim.at(1'048'576, [&] { cb("roll"); });
  sim.at(1'048'577, [&] { cb("post-roll"); });
  sim.at(1'048'400, [&] {
    cb("roll-send");
    sim.send(net::Packet{"a", "b", Bytes(7), sim.new_context(), "roll"}, 76);
  });

  // Overflow rung: a 2.5 s link plus a far-future callback that sends again.
  sim.send(net::Packet{"a", "far", Bytes(11), sim.new_context(), "deep"});
  sim.at(3'500'000, [&] {
    cb("deep");
    sim.send(net::Packet{"a", "far", Bytes(13), sim.new_context(), "deep"});
  });

  // Mid-run fault plan: stochastic loss/dup/jitter, a b<->c partition, a
  // crash window on d, and a breach on c. Installed at virtual t=2s, after
  // thousands of fault-free events have already drained.
  sim.at(2'000'000, [&] {
    cb("plan");
    net::FaultPlan plan(42);
    plan.impair({0.25, 0.25, 0.5, 500});
    plan.partition("b", "c", 2'200'000, 2'400'000);
    plan.crash("d", 2'600'000, 2'700'000);
    plan.breach("c", 2'500'000);
    sim.set_fault_plan(std::move(plan));
  });
  for (int i = 0; i < 16; ++i) {
    const net::Time t = 2'050'000 + 50'000 * static_cast<net::Time>(i);
    sim.at(t, [&sim, i] {
      sim.send(net::Packet{"a", "b", Bytes(static_cast<std::size_t>(1 + i)),
                           sim.new_context(), "ping"});
      sim.send(net::Packet{"b", "c", Bytes(4), sim.new_context(), "data"});
      sim.send(net::Packet{"c", "d", Bytes(6), sim.new_context(), "data"});
    });
  }

  const net::Time end = sim.run();
  log.push_back("E " + std::to_string(end));
  const net::FaultStats& fs = sim.fault_stats();
  log.push_back("F " + std::to_string(fs.lost) + " " +
                std::to_string(fs.duplicated) + " " +
                std::to_string(fs.jittered) + " " +
                std::to_string(fs.partition_dropped) + " " +
                std::to_string(fs.offline_dropped) + " " +
                std::to_string(fs.breaches_fired));
  log.push_back("X c " + std::to_string(sim.is_breached("c")) + " " +
                (sim.breached_at("c") ? std::to_string(*sim.breached_at("c"))
                                      : std::string("-")));
  log.push_back("X a " + std::to_string(sim.is_breached("a")) + " -");
  return log;
}

/// The big oracle: a seeded-random forwarding mesh under a fault plan,
/// folded into one order-sensitive hash.
inline std::uint64_t oracle_big_hash() {
  constexpr int kNodes = 40;
  std::uint64_t h = fnv_init();

  struct HashNode : net::Node {
    std::uint64_t* hash;
    net::Address next;
    HashNode(net::Address a, std::uint64_t* fold)
        : Node(std::move(a)), hash(fold) {}
    void on_packet(const net::Packet& p, net::Simulator& sim) override {
      fnv_mix(*hash, sim.now());
      fnv_mix(*hash, p.src);
      fnv_mix(*hash, p.dst);
      fnv_mix(*hash, p.payload.size());
      fnv_mix(*hash, p.context);
      fnv_mix(*hash, p.protocol);
      if (!p.payload.empty() && p.payload[0] > 0) {
        Bytes b = p.payload;
        --b[0];
        sim.send(net::Packet{address(), next, std::move(b), p.context, "fwd"});
      }
    }
  };

  net::Simulator sim;
  obs::Registry reg;
  sim.set_metrics(reg);
  std::vector<std::unique_ptr<HashNode>> nodes;
  nodes.reserve(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    nodes.push_back(std::make_unique<HashNode>("n" + std::to_string(i), &h));
  }
  for (int i = 0; i < kNodes; ++i) {
    nodes[i]->next = "n" + std::to_string((i + 1) % kNodes);
    sim.add_node(*nodes[i]);
    sim.connect("n" + std::to_string(i), "n" + std::to_string((i + 1) % kNodes),
                50 + (i * 37) % 400);
  }
  net::FaultPlan plan(99);
  plan.impair({0.1, 0.1, 0.3, 300});
  plan.partition("n3", "n4", 100'000, 3'000'000);
  plan.crash("n7", 500'000, 1'500'000);
  plan.breach("n5", 2'000'000);
  sim.set_fault_plan(std::move(plan));

  XoshiroRng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const net::Time t = rng.below(4'000'000);
    HashNode* n = nodes[rng.below(kNodes)].get();
    const std::uint8_t ttl = static_cast<std::uint8_t>(rng.below(6));
    const std::size_t size = 1 + static_cast<std::size_t>(rng.below(96));
    sim.at(t, [&sim, n, ttl, size] {
      Bytes b(size);
      b[0] = ttl;
      sim.send(net::Packet{n->address(), n->next, std::move(b),
                           sim.new_context(), "fwd"});
    });
  }
  const net::Time end = sim.run();
  fnv_mix(h, end);
  const net::FaultStats& fs = sim.fault_stats();
  for (std::uint64_t v :
       {fs.lost, fs.duplicated, fs.jittered, fs.partition_dropped,
        fs.offline_dropped, fs.breaches_fired}) {
    fnv_mix(h, v);
  }
  return h;
}

}  // namespace dcpl::testing
