// The `stack` workload: the real parties of systems::privacypass,
// systems::ohttp and systems::mixnet on the serial engine, with a FlowLedger
// and a live DecouplingMonitor attached. Each user runs a closed loop, every
// step sent from the previous step's completion callback:
//   1. obtain one Privacy Pass token (RSA-1024 blind signature) and redeem it;
//   2. make 2-4 chained OHTTP fetches whose response bodies (256 B - 64 KiB,
//      log-uniform) come from the seed, so both X25519-bound and bulk
//      ChaCha20/Poly1305 work happen;
//   3. send one message through a 3-mix cascade of batching mixes.
// After the run, DecouplingAnalysis gives the verdict over the logs with the
// users exempt.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/address_book.hpp"
#include "core/analysis.hpp"
#include "core/observation.hpp"
#include "http/message.hpp"
#include "net/sim.hpp"
#include "obs/flow.hpp"
#include "probe.hpp"
#include "systems/mixnet/mixnet.hpp"
#include "systems/ohttp/ohttp.hpp"
#include "systems/privacypass/privacypass.hpp"
#include "workload.hpp"

namespace perfbench::stack {

namespace net = dcpl::net;
namespace core = dcpl::core;
namespace ohttp = dcpl::systems::ohttp;
namespace pp = dcpl::systems::privacypass;
namespace mixnet = dcpl::systems::mixnet;

constexpr int kRelays = 4;
constexpr int kGateways = 2;
constexpr int kOrigins = 2;
constexpr int kMixLayers = 3;
constexpr int kMixesPerLayer = 2;
constexpr std::size_t kMixBatch = 4;
constexpr net::Time kMixHold = 20'000;
constexpr net::Time kLatency = 10'000;  // the simulator's default, every link
constexpr net::Time kTokenTimeout = 100'000;
constexpr int kMinFetches = 2;
constexpr int kMaxFetches = 4;
constexpr std::size_t kRsaBits = 1024;

struct User {
  net::Time start_us = 0;
  std::uint8_t relay = 0;
  std::uint8_t mixes[kMixLayers] = {};
  std::vector<std::uint32_t> response_bytes;  // one per fetch
  std::vector<std::uint8_t> origin;           // one per fetch
};

inline std::vector<User> generate(std::uint64_t seed, std::size_t users) {
  SplitMix rng(seed);
  std::vector<User> out(users);
  for (User& u : out) {
    u.start_us = rng.below(1'000'000);
    u.relay = static_cast<std::uint8_t>(rng.below(kRelays));
    for (auto& m : u.mixes) m = static_cast<std::uint8_t>(rng.below(kMixesPerLayer));
    const int fetches = kMinFetches + static_cast<int>(rng.below(kMaxFetches - kMinFetches + 1));
    for (int k = 0; k < fetches; ++k) {
      // Log-uniform in [2^8, 2^16].
      const double e = 8.0 + 8.0 * static_cast<double>(rng.below(1 << 20)) / (1 << 20);
      u.response_bytes.push_back(static_cast<std::uint32_t>(std::exp2(e)));
      u.origin.push_back(static_cast<std::uint8_t>(rng.below(kOrigins)));
    }
  }
  return out;
}

inline std::string origin_name(int o) { return "origin" + std::to_string(o) + ".example"; }
inline std::string mix_name(int layer, int i) {
  return "mix" + std::to_string(layer) + "-" + std::to_string(i);
}

/// One user's three client-side parties and closed-loop progress.
struct UserState {
  std::size_t index = 0;
  const User* in = nullptr;
  std::unique_ptr<pp::Client> token;
  std::unique_ptr<ohttp::Client> web;
  std::unique_ptr<mixnet::Sender> mix;
  int issued = 0;
  int served = 0;
  std::vector<int> fetch_ok;  // per fetch: replies with the expected body
  int fetch_replies = 0;
};

inline Outcome run(const Options& opt) {
  Outcome out;
  SetupClock setup(opt);
  const std::vector<User> users = generate(opt.seed, opt.users);

  std::unique_ptr<Probe> probe;
  std::unordered_map<std::string, Layer*> roles;
  Layer* issue = nullptr;
  if (opt.trace) {
    probe = std::make_unique<Probe>(kSpanPeriod, kSpanCapacity);
    for (const char* r : {"client", "relay", "gateway", "origin", "issuer",
                          "redeemer", "mix", "receiver"}) {
      roles[r] = &probe->layer(std::string("systems.") + r);
    }
    issue = &probe->layer("systems.issue");
  }
  Probe* pr = probe.get();

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

  core::ObservationLog log;
  core::AddressBook book;
  dcpl::obs::FlowLedger ledger;
  dcpl::obs::DecouplingMonitor monitor;
  ledger.attach_monitor(&monitor);
  std::unique_ptr<TimingSink> sink;
  if (probe) {
    sink = std::make_unique<TimingSink>(ledger, *probe);
    log.set_sink(sink.get());
  } else {
    log.set_sink(&ledger);
  }
  sim.set_flow(&ledger);

  // Parties. Key material is fixed infrastructure, not a workload input, so
  // key generation costs the same for every seed.
  std::uint64_t t = now_ns();
  std::vector<std::pair<net::Node*, const char*>> parties;
  pp::Issuer issuer("issuer.example", kRsaBits, log, book, 0x1551e7);
  pp::Origin redeemer("redeemer.example", "redeemer.example",
                      issuer.public_key(), log, book);
  parties.emplace_back(&issuer, "issuer");
  parties.emplace_back(&redeemer, "redeemer");
  std::vector<std::unique_ptr<ohttp::OriginServer>> origins;
  for (int o = 0; o < kOrigins; ++o) {
    origins.push_back(std::make_unique<ohttp::OriginServer>(
        origin_name(o),
        [](const dcpl::http::Request& req) {
          dcpl::http::Response resp;
          const std::size_t size = std::stoul(req.path.substr(5));  // "/obj/N"
          resp.body.assign(size, static_cast<std::uint8_t>(size));
          return resp;
        },
        log, book));
    parties.emplace_back(origins.back().get(), "origin");
  }
  std::vector<std::unique_ptr<ohttp::Gateway>> gateways;
  for (int g = 0; g < kGateways; ++g) {
    gateways.push_back(std::make_unique<ohttp::Gateway>(
        "gateway" + std::to_string(g) + ".example", log, book, 0x6a7e + g));
    for (int o = 0; o < kOrigins; ++o) {
      gateways.back()->add_origin(origin_name(o), origin_name(o));
    }
    parties.emplace_back(gateways.back().get(), "gateway");
  }
  std::vector<std::unique_ptr<ohttp::Relay>> relays;
  for (int r = 0; r < kRelays; ++r) {
    relays.push_back(std::make_unique<ohttp::Relay>(
        "relay" + std::to_string(r) + ".example",
        gateways[r % kGateways]->address(), log, book));
    parties.emplace_back(relays.back().get(), "relay");
  }
  std::vector<std::unique_ptr<mixnet::MixNode>> mixes;
  std::vector<mixnet::HopInfo> mix_info[kMixLayers];
  for (int l = 0; l < kMixLayers; ++l) {
    for (int i = 0; i < kMixesPerLayer; ++i) {
      mixes.push_back(std::make_unique<mixnet::MixNode>(
          mix_name(l, i), kMixBatch, kMixHold, log, book, 0x313 + 16 * l + i));
      mix_info[l].push_back({mixes.back()->address(), mixes.back()->key().public_key});
      parties.emplace_back(mixes.back().get(), "mix");
    }
  }
  mixnet::Receiver receiver("receiver.example", log, book, 0x7ec);
  parties.emplace_back(&receiver, "receiver");
  const mixnet::HopInfo receiver_info{receiver.address(), receiver.key().public_key};

  std::vector<std::unique_ptr<UserState>> states;
  states.reserve(users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    auto s = std::make_unique<UserState>();
    s->index = i;
    s->in = &users[i];
    s->fetch_ok.assign(users[i].response_bytes.size(), 0);
    const std::string u = "u" + std::to_string(i);
    const ohttp::Gateway& gw = *gateways[users[i].relay % kGateways];
    s->token = std::make_unique<pp::Client>(u + ".pp", "acct" + std::to_string(i),
                                            issuer.address(), issuer.public_key(),
                                            log, 0xa000000 + i);
    s->web = std::make_unique<ohttp::Client>(
        u + ".web", u, relays[users[i].relay]->address(), gw.key().public_key,
        log, 0xb000000 + i);
    s->mix = std::make_unique<mixnet::Sender>(u + ".mix", u, log, 0xc000000 + i);
    states.push_back(std::move(s));
  }
  out.layers["setup.keygen_ns"] = static_cast<double>(now_ns() - t);

  // Topology. Token clients reach the redeemer over an anonymity-preserving
  // path (as in the paper's Figure 2), so their address is benign; the web
  // and mix clients' addresses are the user's network identity.
  t = now_ns();
  std::vector<std::unique_ptr<TimedNode>> proxies;
  const auto add = [&](net::Node& n, Layer* role, TimedNode::RequestOf req) {
    if (!probe) {
      sim.add_node(n);
      return;
    }
    proxies.push_back(std::make_unique<TimedNode>(n, *probe, *role, std::move(req)));
    sim.add_node(*proxies.back());
  };
  TimingSink* ts = sink.get();
  for (auto& [node, role] : parties) {
    book.set(node->address(), core::benign_identity("addr:" + node->address()));
    add(*node, roles[role], [ts](const net::Packet& p) { return ts->request_of(p.context); });
  }
  std::vector<core::Party> exempt;
  exempt.reserve(3 * states.size());
  for (auto& s : states) {
    const std::uint64_t req = s->index + 1;
    const auto mine = [req](const net::Packet&) { return req; };
    const std::string u = "u" + std::to_string(s->index);
    issuer.register_account("acct" + std::to_string(s->index));
    book.set(s->token->address(), core::benign_identity("addr:" + s->token->address()));
    book.set(s->web->address(), core::sensitive_identity("ip:" + u, "network"));
    book.set(s->mix->address(), core::sensitive_identity("ip:" + u, "network"));
    for (net::Node* n : {static_cast<net::Node*>(s->token.get()),
                         static_cast<net::Node*>(s->web.get()),
                         static_cast<net::Node*>(s->mix.get())}) {
      add(*n, roles["client"], mine);
      exempt.push_back(n->address());
    }
  }
  monitor.exempt(exempt);
  out.layers["setup.topology_ns"] = static_cast<double>(now_ns() - t);

  // The closed loop. Each step's callback issues the next request.
  dcpl::systems::RetryPolicy token_policy;
  token_policy.max_attempts = 1;
  token_policy.initial_timeout_us = kTokenTimeout;
  token_policy.jitter = 0;
  std::function<void(UserState*, std::size_t)> fetch;
  const auto send_mix = [&](UserState* s) {
    Scope sc(pr, issue);
    std::vector<mixnet::HopInfo> chain;
    for (int l = 0; l < kMixLayers; ++l) chain.push_back(mix_info[l][s->in->mixes[l]]);
    s->mix->send_message("m:" + std::to_string(s->index), chain, receiver_info, sim);
  };
  fetch = [&](UserState* s, std::size_t k) {
    Scope sc(pr, issue);
    dcpl::http::Request req;
    req.authority = origin_name(s->in->origin[k]);
    req.path = "/obj/" + std::to_string(s->in->response_bytes[k]);
    s->web->fetch(req, sim, [&, s, k](const dcpl::http::Response& resp) {
      ++s->fetch_replies;
      if (resp.body.size() == s->in->response_bytes[k]) ++s->fetch_ok[k];
      if (k + 1 < s->fetch_ok.size()) {
        fetch(s, k + 1);
      } else {
        send_mix(s);
      }
    });
  };
  const auto redeem = [&](UserState* s) {
    Scope sc(pr, issue, s->index + 1, true);
    s->token->access(redeemer.address(), "/r", sim, [&, s](bool served) {
      if (!served) return;
      ++s->served;
      fetch(s, 0);
    });
  };
  t = now_ns();
  for (auto& sp : states) {
    UserState* s = sp.get();
    sim.at(s->in->start_us, [&, s] {
      Scope sc(pr, issue, s->index + 1, true);
      s->token->request_token_reliable(
          sim, token_policy, [&, s](dcpl::Result<pp::Token> tok) {
            if (!tok.ok()) return;
            ++s->issued;
            // The token enters the wallet after this callback returns.
            sim.at(sim.now(), [&, s] { redeem(s); });
          });
    });
  }
  out.layers["setup.schedule_ns"] = static_cast<double>(now_ns() - t);

  setup.done(out);
  const std::uint64_t r0 = now_ns();
  const net::Time end = sim.run();
  out.run_ns = now_ns() - r0;
  sim.set_profiler(nullptr);

  // Output checks.
  out.got.packets = sim.packets_delivered();
  out.got.bytes = sim.bytes_delivered();
  out.got.virtual_us = end;
  out.got.events = registry.counter("events_processed").value();
  std::vector<int> arrivals(states.size(), 0);
  for (const auto& d : receiver.deliveries()) {
    const std::size_t i = std::stoul(d.message.substr(2));
    if (i < arrivals.size()) ++arrivals[i];
  }
  std::uint64_t want_packets = 0, body_bytes = 0;
  net::Time lower = 0, upper = 0;
  for (auto& s : states) {
    const std::size_t f = s->fetch_ok.size();
    out.attempted += f + 2;
    out.completed += (s->issued == 1 && s->served == 1) ? 1 : 0;
    if (s->fetch_replies == static_cast<int>(f)) {
      for (int ok : s->fetch_ok) out.completed += ok == 1 ? 1 : 0;
    }
    out.completed += arrivals[s->index] == 1 ? 1 : 0;
    want_packets += 2 + 2 + 6 * f + (kMixLayers + 1);
    for (auto b : s->in->response_bytes) body_bytes += b;
    // Token, redemption, fetches and the mix path at one link latency per
    // packet; each batching mix may hold a message up to kMixHold.
    const net::Time chain = (4 + 6 * f + kMixLayers + 1) * kLatency;
    lower = std::max({lower, s->in->start_us + chain, s->in->start_us + kTokenTimeout});
    upper = std::max({upper, s->in->start_us + chain + kMixLayers * kMixHold,
                      s->in->start_us + kTokenTimeout});
  }
  out.check("every_request_completes_once", out.completed == out.attempted);
  out.check("packets_delivered", out.got.packets == want_packets);
  // Every body crosses origin -> gateway -> relay -> client.
  out.check("bytes_cover_bodies", out.got.bytes >= 3 * body_bytes);
  out.check("virtual_time_bounds", end >= lower && end <= upper);
  out.check("monitor_no_violations", monitor.violations().empty());
  out.check("ledger_saw_exposures", ledger.exposures() > 0);
  out.check("tokens_issued", issuer.tokens_issued() == states.size());

  t = now_ns();
  const core::DecouplingAnalysis analysis(log);
  const bool decoupled = analysis.is_decoupled(exempt);
  out.layers["core.analysis_ns"] = static_cast<double>(now_ns() - t);
  out.check("verdict_decoupled", decoupled);
  out.layers["core.observations"] = static_cast<double>(log.size() + log.links().size());
  out.layers["flow.violations"] = static_cast<double>(monitor.violations().size());
  out.layers["net.queue_peak"] = registry.gauge("queue_depth_peak").peak();
  out.layers["net.pool_slots_peak"] = registry.gauge("pool_slots").peak();
  if (probe) out.collect(*probe, profiler.get());
  out.write_spans(opt, pr);
  log.set_sink(nullptr);
  sim.set_flow(nullptr);
  return out;
}

}  // namespace perfbench::stack
