// Discrete-event simulator: ordering, latency, wiretaps, determinism.
#include "net/sim.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/tracing.hpp"
#include "obs/trace.hpp"

namespace dcpl::net {
namespace {

/// Records deliveries and optionally echoes back.
class EchoNode final : public Node {
 public:
  EchoNode(Address addr, bool echo) : Node(std::move(addr)), echo_(echo) {}

  void on_packet(const Packet& p, Simulator& sim) override {
    received.push_back(p);
    times.push_back(sim.now());
    if (echo_) {
      Packet reply{address(), p.src, p.payload, p.context, p.protocol};
      sim.send(std::move(reply));
    }
  }

  std::vector<Packet> received;
  std::vector<Time> times;

 private:
  bool echo_;
};

TEST(Simulator, DeliversWithLinkLatency) {
  Simulator sim;
  EchoNode a("a", false), b("b", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.connect("a", "b", 5000);

  sim.send(Packet{"a", "b", to_bytes("hi"), 1, "test"});
  Time end = sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.times[0], 5000u);
  EXPECT_EQ(end, 5000u);
  EXPECT_EQ(to_string(b.received[0].payload), "hi");
}

TEST(Simulator, RequestResponseRoundTrip) {
  Simulator sim;
  EchoNode client("client", false), server("server", true);
  sim.add_node(client);
  sim.add_node(server);
  sim.connect("client", "server", 7000);

  sim.send(Packet{"client", "server", to_bytes("ping"), 1, "test"});
  sim.run();
  ASSERT_EQ(client.received.size(), 1u);
  EXPECT_EQ(client.times[0], 14000u);  // there and back
}

TEST(Simulator, DefaultLatencyForUnconnectedPairs) {
  Simulator sim;
  sim.set_default_latency(123);
  EchoNode a("a", false), b("b", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.send(Packet{"a", "b", {}, 0, ""});
  sim.run();
  ASSERT_EQ(b.times.size(), 1u);
  EXPECT_EQ(b.times[0], 123u);
}

TEST(Simulator, HasLinkDistinguishesConfiguredPairs) {
  Simulator sim;
  sim.connect("a", "b", 5000);
  EXPECT_TRUE(sim.has_link("a", "b"));
  EXPECT_TRUE(sim.has_link("b", "a"));  // connect installs both directions
  EXPECT_FALSE(sim.has_link("a", "c"));
  EXPECT_FALSE(sim.has_link("c", "a"));
}

TEST(Simulator, LinkLatencyIsNulloptForUnknownPairs) {
  Simulator sim;
  sim.set_default_latency(123);
  sim.connect("a", "b", 5000);
  // Explicit link: the configured value.
  EXPECT_EQ(sim.link_latency("a", "b"), 5000u);
  EXPECT_EQ(sim.link_latency("b", "a"), 5000u);
  // Unknown pair: nullopt, NOT the default-latency fallback that
  // latency_between applies at delivery time.
  EXPECT_EQ(sim.link_latency("a", "c"), std::nullopt);
}

TEST(Simulator, ReconnectReplacesLatencyExplicitly) {
  Simulator sim;
  EchoNode a("a", false), b("b", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.connect("a", "b", 5000);
  sim.connect("a", "b", 900);  // documented: replaces the previous latency
  EXPECT_EQ(sim.link_latency("a", "b"), 900u);
  EXPECT_EQ(sim.link_latency("b", "a"), 900u);
  sim.send(Packet{"a", "b", to_bytes("hi"), 1, "test"});
  sim.run();
  ASSERT_EQ(b.times.size(), 1u);
  EXPECT_EQ(b.times[0], 900u);
}

TEST(Simulator, ExtraDelayAddsToLatency) {
  Simulator sim;
  EchoNode a("a", false), b("b", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.connect("a", "b", 1000);
  sim.send(Packet{"a", "b", {}, 0, ""}, 250);
  sim.run();
  EXPECT_EQ(b.times.at(0), 1250u);
}

TEST(Simulator, FifoOrderForSimultaneousEvents) {
  Simulator sim;
  EchoNode a("a", false), b("b", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.connect("a", "b", 100);
  for (int i = 0; i < 10; ++i) {
    sim.send(Packet{"a", "b", Bytes{static_cast<std::uint8_t>(i)}, 0, ""});
  }
  sim.run();
  ASSERT_EQ(b.received.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(b.received[i].payload[0], i);
}

TEST(Simulator, UnknownDestinationThrows) {
  Simulator sim;
  EchoNode a("a", false);
  sim.add_node(a);
  EXPECT_THROW(sim.send(Packet{"a", "nowhere", {}, 0, ""}), std::out_of_range);
}

TEST(Simulator, DuplicateAddressThrows) {
  Simulator sim;
  EchoNode a1("a", false), a2("a", false);
  sim.add_node(a1);
  EXPECT_THROW(sim.add_node(a2), std::invalid_argument);
}

TEST(Simulator, ScheduledCallbacksRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(300, [&] { order.push_back(3); });
  sim.at(100, [&] { order.push_back(1); });
  sim.at(200, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_THROW(sim.at(0, [] {}), std::invalid_argument);
}

TEST(Simulator, WiretapSeesMetadataOnly) {
  Simulator sim;
  EchoNode a("a", false), b("b", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.connect("a", "b", 10);

  std::vector<TraceEntry> tapped;
  sim.add_wiretap([&](const TraceEntry& e) { tapped.push_back(e); });

  sim.send(Packet{"a", "b", to_bytes("secret payload"), 42, "proto"});
  sim.run();
  ASSERT_EQ(tapped.size(), 1u);
  EXPECT_EQ(tapped[0].src, "a");
  EXPECT_EQ(tapped[0].dst, "b");
  EXPECT_EQ(tapped[0].size, 14u);
  EXPECT_EQ(tapped[0].context, 42u);
  EXPECT_EQ(tapped[0].protocol, "proto");
}

TEST(Simulator, TraceAccumulatesAndCountsBytes) {
  Simulator sim;
  EchoNode a("a", false), b("b", true);
  sim.add_node(a);
  sim.add_node(b);
  sim.send(Packet{"a", "b", Bytes(10), 0, ""});
  sim.run();
  EXPECT_EQ(sim.packets_delivered(), 2u);
  EXPECT_EQ(sim.bytes_delivered(), 20u);
}

TEST(Simulator, ContextIdsAreUniqueAndNonZero) {
  Simulator sim;
  std::uint64_t c1 = sim.new_context();
  std::uint64_t c2 = sim.new_context();
  EXPECT_NE(c1, 0u);
  EXPECT_NE(c1, c2);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator sim;
    EchoNode a("a", false), b("b", true), c("c", true);
    sim.add_node(a);
    sim.add_node(b);
    sim.add_node(c);
    sim.connect("a", "b", 11);
    sim.connect("a", "c", 13);
    sim.send(Packet{"a", "b", Bytes(3), 1, "x"});
    sim.send(Packet{"a", "c", Bytes(5), 2, "y"});
    sim.run();
    std::string log;
    for (const auto& e : sim.trace()) {
      log += std::to_string(e.time) + e.src + e.dst + ";";
    }
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}


TEST(Simulator, BandwidthAddsSerializationDelay) {
  Simulator sim;
  EchoNode a("a", false), b("b", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.connect("a", "b", 1000);
  sim.set_bandwidth("a", "b", 10);  // 10 bytes/ms

  sim.send(Packet{"a", "b", Bytes(100), 0, ""});  // 100 B / 10 B/ms = 10 ms
  sim.run();
  ASSERT_EQ(b.times.size(), 1u);
  EXPECT_EQ(b.times[0], 1000u + 10'000u);
}

TEST(Simulator, ZeroBandwidthMeansInfinite) {
  Simulator sim;
  EchoNode a("a", false), b("b", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.connect("a", "b", 1000);
  sim.set_bandwidth("a", "b", 0);
  sim.send(Packet{"a", "b", Bytes(100000), 0, ""});
  sim.run();
  EXPECT_EQ(b.times.at(0), 1000u);
}

TEST(Simulator, BandwidthIsPerLink) {
  Simulator sim;
  EchoNode a("a", false), b("b", false), c("c", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.add_node(c);
  sim.connect("a", "b", 1000);
  sim.connect("a", "c", 1000);
  sim.set_bandwidth("a", "b", 1);  // slow
  sim.send(Packet{"a", "b", Bytes(50), 0, ""});
  sim.send(Packet{"a", "c", Bytes(50), 0, ""});
  sim.run();
  EXPECT_EQ(b.times.at(0), 51'000u);
  EXPECT_EQ(c.times.at(0), 1000u);
}

TEST(Simulator, TraceRecordingOffKeepsCountersAndWiretaps) {
  Simulator sim;
  EchoNode a("a", false), b("b", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.set_trace_recording(false);

  std::vector<TraceEntry> tapped;
  sim.add_wiretap([&](const TraceEntry& e) { tapped.push_back(e); });
  sim.send(Packet{"a", "b", Bytes(100), 1, "t"});
  sim.send(Packet{"a", "b", Bytes(28), 2, "t"});
  sim.run();

  // The in-memory history is off, but totals and taps see every delivery.
  EXPECT_TRUE(sim.trace().empty());
  EXPECT_EQ(sim.packets_delivered(), 2u);
  EXPECT_EQ(sim.bytes_delivered(), 128u);
  ASSERT_EQ(tapped.size(), 2u);
  EXPECT_EQ(tapped[0].size, 100u);
  EXPECT_EQ(tapped[1].context, 2u);
  EXPECT_EQ(b.received.size(), 2u);

  // Re-enabling resumes accumulation from here.
  sim.set_trace_recording(true);
  sim.send(Packet{"a", "b", Bytes(1), 3, "t"});
  sim.run();
  ASSERT_EQ(sim.trace().size(), 1u);
  EXPECT_EQ(sim.trace()[0].context, 3u);
  EXPECT_EQ(sim.packets_delivered(), 3u);
}

TEST(Simulator, InternedButNodelessDestinationThrows) {
  Simulator sim;
  EchoNode a("a", false);
  sim.add_node(a);
  // connect() interns "ghost" without registering a node for it; sending
  // there must still throw, not index past the node table.
  sim.connect("a", "ghost", 5'000);
  ASSERT_TRUE(sim.interner().lookup("ghost").has_value());
  EXPECT_THROW(sim.send(Packet{"a", "ghost", {}, 0, ""}), std::out_of_range);
}

/// Throws out of on_packet on its first delivery, then counts.
class ThrowOnceNode final : public Node {
 public:
  explicit ThrowOnceNode(Address addr) : Node(std::move(addr)) {}

  void on_packet(const Packet&, Simulator&) override {
    if (!thrown_) {
      thrown_ = true;
      throw std::runtime_error("handler failed");
    }
    ++delivered;
  }

  int delivered = 0;

 private:
  bool thrown_ = false;
};

// A handler throwing out of run() must not leave the run behind: the
// tracer would keep a virtual clock pointing into the simulator (read by
// the next span, possibly after the simulator is gone), and the next
// top-level send would continue the dead delivery's request trace.
TEST(Simulator, RunIsExceptionSafe) {
  for (std::uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    obs::Tracer spans;
    LatencyTracer latency(/*waterfall_period=*/0);
    Simulator sim;
    sim.set_tracer(spans);
    sim.set_latency_tracer(&latency);
    EchoNode a("a", false);
    ThrowOnceNode b("b");
    sim.add_node(a);
    sim.add_node(b);
    sim.connect("a", "b", 100);
    sim.set_shards(shards);

    sim.send(Packet{"a", "b", Bytes(1), 1, "t"});
    EXPECT_THROW(sim.run(), std::runtime_error);
    EXPECT_FALSE(spans.has_virtual_clock());

    // A fresh trace: one 100 us hop end to end, not 200 us since the dead
    // trace's origin.
    sim.send(Packet{"a", "b", Bytes(1), 2, "t"});
    sim.run();
    EXPECT_FALSE(spans.has_virtual_clock());
    EXPECT_EQ(b.delivered, 1);
    EXPECT_EQ(latency.e2e(0).count(), 1u);
    EXPECT_EQ(latency.e2e(0).max(), 100u);
  }
}

/// Makes every call that must be rejected without side effects: sends and
/// a forward to an unknown destination, and an at_node in the past, all
/// naming addresses the simulator has never seen (prefixed by `tag`).
/// Returns how many threw the expected exception.
int make_rejected_calls(Simulator& sim, const std::string& tag,
                        bool in_delivery) {
  const Address src = tag + "-src";
  const Address nowhere = tag + "-nowhere";
  int rejected = 0;
  try {
    sim.send(Packet{src, nowhere, Bytes(1), 0, "t"});
  } catch (const std::out_of_range&) {
    ++rejected;
  }
  try {
    sim.send_shared(src, nowhere, sim.make_payload(Bytes{1}), 0, "t");
  } catch (const std::out_of_range&) {
    ++rejected;
  }
  if (in_delivery) {
    try {
      sim.forward(src, nowhere, 0, "t");
    } catch (const std::out_of_range&) {
      ++rejected;
    }
  }
  if (sim.now() > 0) {
    try {
      sim.at_node(tag + "-node", sim.now() - 1, [] {});
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  return rejected;
}

/// Makes every call that writes a table or an observer setting workers read
/// without a lock; the table writes name addresses the simulator has never
/// seen or the existing a-b link. Only valid inside a threaded run, where
/// each must throw before writing.
/// Returns how many threw the run-in-progress std::logic_error.
int make_rejected_table_writes(Simulator& sim) {
  EchoNode extra("handler-node", false);
  obs::Registry registry;
  const std::vector<std::function<void()>> calls = {
      [&] { sim.add_node(extra); },
      [&] { sim.connect("a", "handler-peer", 100); },
      [&] { sim.set_bandwidth("a", "b", 1); },
      [&] { sim.set_default_latency(1); },
      [&] { sim.set_shard_affinity("handler-pin", 0); },
      [&] { sim.add_affinity_hint("a", "handler-hint", 1); },
      [&] { sim.add_wiretap([](const TraceEntry&) {}); },
      [&] { sim.set_trace_recording(false); },
      [&] { sim.set_link_byte_accounting(false); },
      [&] { sim.set_metrics(registry); },
      [&] { sim.set_flow(nullptr); },
      [&] { sim.set_sampler(nullptr); },
      [&] { sim.set_profiler(nullptr); },
      [&] { sim.set_latency_tracer(nullptr); },
  };
  int rejected = 0;
  for (const auto& call : calls) {
    try {
      call();
    } catch (const std::logic_error& e) {
      if (std::string(e.what()).find("run in progress") != std::string::npos) {
        ++rejected;
      }
    }
  }
  return rejected;
}

/// Makes the rejected calls from inside its first delivery — on a worker
/// thread, the table writes too — and records the interner size and the
/// link table around them.
class RejectingNode final : public Node {
 public:
  explicit RejectingNode(Address addr) : Node(std::move(addr)) {}

  void on_packet(const Packet&, Simulator& sim) override {
    size_before = sim.interner().size();
    rejected = make_rejected_calls(sim, "handler", /*in_delivery=*/true);
    if (sim.shards() > 1) rejected += make_rejected_table_writes(sim);
    size_after = sim.interner().size();
    peer_linked = sim.has_link("a", "handler-peer");
  }

  std::size_t size_before = 0;
  std::size_t size_after = 0;
  int rejected = 0;
  bool peer_linked = true;
};

// Interning a name shifts every later AddressId (and with it id-modulo
// shard placement), and on a worker thread it would stage the name until
// the next barrier — so a rejected call must validate before it interns.
// Mid-run table writes from a worker are rejected outright: the other
// workers read those tables without a lock.
TEST(Simulator, RejectedCallsLeaveInternerUnchanged) {
  for (std::uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Simulator sim;
    EchoNode a("a", false);
    RejectingNode b("b");
    sim.add_node(a);
    sim.add_node(b);
    sim.connect("a", "b", 100);
    sim.set_shards(shards);

    const std::size_t interned = sim.interner().size();
    EXPECT_EQ(make_rejected_calls(sim, "before", /*in_delivery=*/false), 2);
    EXPECT_EQ(sim.interner().size(), interned);

    sim.send(Packet{"a", "b", Bytes(1), 1, "t"});
    sim.run();
    EXPECT_EQ(b.rejected, shards > 1 ? 4 + 14 : 4);
    EXPECT_EQ(b.size_after, b.size_before);
    EXPECT_FALSE(b.peer_linked);
    EXPECT_FALSE(sim.has_link("a", "handler-peer"));
    EXPECT_EQ(sim.link_latency("a", "b").value_or(0), 100u);

    // After the run the clock is past zero, so at_node can be in the past.
    EXPECT_EQ(make_rejected_calls(sim, "after", /*in_delivery=*/false), 3);
    EXPECT_EQ(sim.interner().size(), interned);
  }
}

}  // namespace
}  // namespace dcpl::net
