// E3 (§1, §3.3): breach-proofness. Breach every party in the VPN, MPR, and
// ODoH deployments after an identical browsing/query workload and count the
// (sensitive identity, sensitive data) records the attacker walks away with.
// The paper's claim: decoupled providers are *individually breach-proof*.
#include <cstdio>
#include <memory>

#include "core/analysis.hpp"
#include "report_util.hpp"
#include "systems/mpr/mpr.hpp"
#include "systems/odoh/odoh.hpp"

using namespace dcpl;

namespace {

constexpr std::size_t kUsers = 6;
constexpr std::size_t kFetchesPerUser = 3;

void print_breaches(const char* system, const core::DecouplingAnalysis& a,
                    const std::vector<core::Party>& parties) {
  for (const auto& p : parties) {
    core::BreachReport report = a.breach(p);
    std::printf("  %-18s breach of %-18s -> %4zu coupled (who,what) records "
                "%s\n",
                system, p.c_str(), report.coupled_records,
                report.coupled() ? "  ** EXPOSED **" : "");
  }
}

// Returns coupled records for (vpn breach, worst single MPR party breach).
std::pair<std::size_t, std::size_t> run_web(bool& shape_ok,
                                            bench::Report& rep) {
  using namespace systems::mpr;
  net::Simulator sim;
  core::ObservationLog log;
  core::AddressBook book;
  book.set("origin.example", core::benign_identity("addr:origin.example"));
  book.set("relay1.example", core::benign_identity("addr:relay1.example"));
  book.set("relay2.example", core::benign_identity("addr:relay2.example"));
  book.set("vpn.example", core::benign_identity("addr:vpn.example"));

  SecureOrigin origin(
      "origin.example",
      [](const http::Request&) { return http::Response{}; }, log, book, 1);
  OnionRelay relay1("relay1.example", log, book, 10);
  OnionRelay relay2("relay2.example", log, book, 11);
  VpnServer vpn("vpn.example", log, book, 99);
  sim.add_node(origin);
  sim.add_node(relay1);
  sim.add_node(relay2);
  sim.add_node(vpn);

  std::vector<RelayInfo> chain = {
      {"relay1.example", relay1.key().public_key},
      {"relay2.example", relay2.key().public_key}};
  RelayInfo vpn_info{"vpn.example", vpn.key().public_key};

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<core::Party> users;
  for (std::size_t i = 0; i < kUsers; ++i) {
    std::string addr = "10.0.0." + std::to_string(i + 1);
    book.set(addr, core::sensitive_identity("user:u" + std::to_string(i),
                                            "network"));
    clients.push_back(std::make_unique<Client>(
        addr, "user:u" + std::to_string(i), log, 40 + i));
    sim.add_node(*clients.back());
    users.push_back(addr);
  }
  bench::FlowHarness flow(sim, log, users);
  for (std::size_t i = 0; i < kUsers; ++i) {
    for (std::size_t j = 0; j < kFetchesPerUser; ++j) {
      http::Request req;
      req.authority = "origin.example";
      req.path = "/u" + std::to_string(i) + "/p" + std::to_string(j);
      // Same workload twice: once through the VPN, once through the MPR.
      clients[i]->fetch_via_vpn(req, vpn_info, "origin.example",
                                origin.key().public_key, sim, nullptr);
      clients[i]->fetch_via_relays(req, chain, "origin.example",
                                   origin.key().public_key, sim, nullptr);
    }
  }
  sim.run();

  core::DecouplingAnalysis a(log);
  std::printf("web browsing workload: %zu users x %zu fetches, via VPN and "
              "via 2-hop MPR\n",
              kUsers, kFetchesPerUser);
  print_breaches("vpn", a, {"vpn.example"});
  print_breaches("mpr", a,
                 {"relay1.example", "relay2.example", "origin.example"});

  const std::size_t vpn_exposed = a.breach("vpn.example").coupled_records;
  std::size_t mpr_worst = 0;
  for (const char* p :
       {"relay1.example", "relay2.example", "origin.example"}) {
    mpr_worst = std::max(mpr_worst, a.breach(p).coupled_records);
  }
  // The VPN couples every user to the destination they visited (one
  // distinct pair per user here, since all fetches hit one origin).
  shape_ok &= vpn_exposed == kUsers;
  shape_ok &= mpr_worst == 0;

  // The stored-logs monitor must have flagged the VPN's (▲, ●) locus the
  // instant it completed — and nothing else: the MPR parties each stay
  // below the invariant even with every event on the ledger.
  const auto& viols = flow.monitor.violations();
  shape_ok &= rep.check("web_flow_fold_matches_observer",
                        bench::flow_fold_matches(flow.ledger, a));
  shape_ok &= rep.check("web_monitor_fired_vpn_only",
                        viols.size() == 1 && viols[0].party == "vpn.example" &&
                            !viols[0].chain.empty() &&
                            viols[0].chain.front() == viols[0].event_id);
  rep.flow(flow.ledger, &flow.monitor, "web");
  return {vpn_exposed, mpr_worst};
}

void run_dns(bool& shape_ok, bench::Report& rep) {
  using namespace systems::odoh;
  net::Simulator sim;
  core::ObservationLog log;
  core::AddressBook book;
  for (const char* x : {"198.41.0.4", "192.5.6.30", "192.0.2.53",
                        "resolver.example", "target.example",
                        "proxy.example"}) {
    book.set(x, core::benign_identity(std::string("addr:") + x));
  }

  dns::Zone root_zone("");
  root_zone.delegate("com", "a.gtld-servers.net", "192.5.6.30");
  dns::Zone com_zone("com");
  com_zone.delegate("example.com", "ns1.example.com", "192.0.2.53");
  dns::Zone example_zone("example.com");
  for (int i = 0; i < 8; ++i) {
    example_zone.add_a("site" + std::to_string(i) + ".example.com",
                       "203.0.113." + std::to_string(10 + i));
  }

  AuthorityNode root("198.41.0.4", std::move(root_zone), log, book);
  AuthorityNode tld("192.5.6.30", std::move(com_zone), log, book);
  AuthorityNode auth("192.0.2.53", std::move(example_zone), log, book);
  ResolverNode resolver("resolver.example", "198.41.0.4", log, book, 1);
  ResolverNode target("target.example", "198.41.0.4", log, book, 2);
  OdohProxy proxy("proxy.example", "target.example", log, book);
  for (net::Node* n : std::vector<net::Node*>{&root, &tld, &auth, &resolver,
                                              &target, &proxy}) {
    sim.add_node(*n);
  }

  std::vector<std::unique_ptr<StubClient>> clients;
  std::vector<core::Party> users;
  for (std::size_t i = 0; i < kUsers; ++i) {
    std::string addr = "10.0.5." + std::to_string(i + 1);
    book.set(addr, core::sensitive_identity("user:d" + std::to_string(i),
                                            "network"));
    clients.push_back(std::make_unique<StubClient>(
        addr, "user:d" + std::to_string(i), log, 70 + i));
    sim.add_node(*clients.back());
    users.push_back(addr);
  }
  bench::FlowHarness flow(sim, log, users);
  for (std::size_t i = 0; i < kUsers; ++i) {
    std::string qname = "site" + std::to_string(i) + ".example.com";
    // Do53 to the classic resolver, and the same query via ODoH.
    clients[i]->query(qname, Mode::kDo53, "resolver.example",
                      resolver.key().public_key, "", sim, nullptr);
    clients[i]->query(qname, Mode::kOdoh, "", target.key().public_key,
                      "proxy.example", sim, nullptr);
  }
  sim.run();

  core::DecouplingAnalysis a(log);
  std::printf("\ndns workload: %zu users, same query via Do53 and via "
              "ODoH\n",
              kUsers);
  print_breaches("do53", a, {"resolver.example"});
  print_breaches("odoh", a, {"proxy.example", "target.example"});

  shape_ok &= a.breach("resolver.example").coupled_records == kUsers;
  shape_ok &= !a.breach("proxy.example").coupled();
  shape_ok &= !a.breach("target.example").coupled();

  // Same split, seen online: only the classic Do53 resolver — which gets
  // both the client address and the query — trips the monitor; the ODoH
  // pair never does.
  const auto& viols = flow.monitor.violations();
  shape_ok &= rep.check("dns_flow_fold_matches_observer",
                        bench::flow_fold_matches(flow.ledger, a));
  shape_ok &= rep.check("dns_monitor_fired_do53_resolver_only",
                        viols.size() == 1 &&
                            viols[0].party == "resolver.example");
  rep.flow(flow.ledger, &flow.monitor, "dns");
}

// §3.3 empirical: instead of scripting "the attacker reads the stored
// logs", run the workload under a FaultPlan that drops/delays packets AND
// plants a live implant (BreachEvent) in the VPN mid-run. The implant only
// sees what the VPN logs from the compromise onward, so live exposure is a
// strict subset of the stored-log exposure — and every number comes from an
// actual impaired run, with the injected-fault counters in the report.
std::pair<std::size_t, std::size_t> run_live_breach(bool& shape_ok,
                                                    bench::Report& rep) {
  using namespace systems::mpr;
  net::Simulator sim;
  core::ObservationLog log;
  core::AddressBook book;
  book.set("origin.example", core::benign_identity("addr:origin.example"));
  book.set("vpn.example", core::benign_identity("addr:vpn.example"));

  SecureOrigin origin(
      "origin.example",
      [](const http::Request&) { return http::Response{}; }, log, book, 1);
  VpnServer vpn("vpn.example", log, book, 99);
  sim.add_node(origin);
  sim.add_node(vpn);
  RelayInfo vpn_info{"vpn.example", vpn.key().public_key};

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<core::Party> users;
  for (std::size_t i = 0; i < kUsers; ++i) {
    std::string addr = "10.0.9." + std::to_string(i + 1);
    book.set(addr, core::sensitive_identity("user:b" + std::to_string(i),
                                            "network"));
    clients.push_back(std::make_unique<Client>(
        addr, "user:b" + std::to_string(i), log, 140 + i));
    sim.add_node(*clients.back());
    users.push_back(addr);
  }
  // Live-implant mode: exposures only count once the party carries a
  // breach-implant compromise event, so round-1 VPN traffic is invisible
  // to the monitor and round 2 must trip it.
  bench::FlowHarness flow(sim, log, users,
                          obs::DecouplingMonitor::Mode::kLiveImplant);

  constexpr net::Time kBreachAt = 300'000;  // between the two rounds
  net::FaultPlan plan(/*seed=*/42);
  plan.impair(net::Impairment{/*loss=*/0.05, /*duplicate=*/0.0,
                              /*jitter=*/1.0, /*jitter_max_us=*/5'000});
  plan.breach("vpn.example", kBreachAt);
  sim.set_breach_handler([&log](const net::BreachEvent& e) {
    log.mark_compromised(e.party);
  });
  sim.set_fault_plan(plan);

  // The VPN couples one record per user (it sees the tunnel destination,
  // not per-fetch paths), so the live/stored split is driven by WHO browses
  // after the implant lands: everyone browses pre-compromise, only half
  // come back post-compromise.
  auto browse = [&](std::size_t round, std::size_t users) {
    for (std::size_t i = 0; i < users; ++i) {
      http::Request req;
      req.authority = "origin.example";
      req.path = "/b" + std::to_string(i) + "/r" + std::to_string(round);
      clients[i]->fetch_via_vpn(req, vpn_info, "origin.example",
                                origin.key().public_key, sim, nullptr);
    }
  };
  browse(0, kUsers);  // pre-compromise
  sim.at(600'000, [&browse] { browse(1, kUsers / 2); });  // post-compromise
  sim.run();

  core::DecouplingAnalysis a(log);
  const std::size_t full = a.breach("vpn.example").coupled_records;
  const std::size_t live = a.live_breach("vpn.example").coupled_records;
  const net::FaultStats& stats = sim.fault_stats();
  std::printf("\nlive-implant workload: %zu users x 2 rounds via VPN under "
              "5%% loss; implant lands at t=%.0fms\n",
              kUsers, kBreachAt / 1000.0);
  std::printf("  stored-log breach of vpn  -> %4zu coupled records\n", full);
  std::printf("  live implant in vpn       -> %4zu coupled records "
              "(round-2 traffic only)\n",
              live);
  std::printf("  faults injected: %llu lost, %llu jittered, %llu breach "
              "event(s)\n",
              static_cast<unsigned long long>(stats.lost),
              static_cast<unsigned long long>(stats.jittered),
              static_cast<unsigned long long>(stats.breaches_fired));

  // The implant saw some round-2 traffic, but strictly less than the full
  // stored history; a never-breached party yields an empty live report.
  shape_ok &= live >= 1;
  shape_ok &= live <= kUsers / 2;
  shape_ok &= live < full;
  shape_ok &= a.live_breach("origin.example").coupled_records == 0;
  shape_ok &= stats.breaches_fired == 1;
  shape_ok &= stats.jittered > 0;

  // The implant-mode monitor pinpoints the exact event where the breached
  // VPN re-completed ▲∧●: strictly after the implant landed, with the
  // causal chain terminating at the implant's compromise event.
  const auto& viols = flow.monitor.violations();
  bool implant_ok = viols.size() == 1 && viols[0].party == "vpn.example" &&
                    viols[0].virtual_time >= kBreachAt &&
                    viols[0].implant_event_id != 0 && !viols[0].chain.empty() &&
                    viols[0].chain.back() == viols[0].implant_event_id;
  if (implant_ok) {
    const auto implant = flow.ledger.find(viols[0].chain.back());
    implant_ok = implant.has_value() &&
                 implant->kind == obs::FlowEventKind::kCompromise &&
                 implant->cause == obs::FlowCause::kBreachImplant;
  }
  shape_ok &= rep.check("live_flow_fold_matches_observer",
                        bench::flow_fold_matches(flow.ledger, a));
  shape_ok &= rep.check("live_monitor_chain_ends_at_implant", implant_ok);
  if (implant_ok) {
    std::printf("  monitor: violation at event #%llu (t=%.0fms), chain ends "
                "at breach implant event #%llu\n",
                static_cast<unsigned long long>(viols[0].event_id),
                viols[0].virtual_time / 1000.0,
                static_cast<unsigned long long>(viols[0].implant_event_id));
  }
  rep.faults(stats);
  rep.flow(flow.ledger, &flow.monitor, "live");
  return {full, live};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report rep("bench_breach", argc, argv);
  std::printf("E3 (§1/§3.3): single-party breach exposure — coupled "
              "(identity, data) records per breached party.\n\n");
  bool shape_ok = true;
  bool web_ok = true;
  auto [vpn, mpr] = run_web(web_ok, rep);
  shape_ok &= rep.check("web_breach_shape", web_ok);
  bool dns_ok = true;
  run_dns(dns_ok, rep);
  shape_ok &= rep.check("dns_breach_shape", dns_ok);
  bool live_ok = true;
  auto [stored_exposure, live_exposure] = run_live_breach(live_ok, rep);
  shape_ok &= rep.check("live_breach_shape", live_ok);
  rep.value("vpn_breach_records", static_cast<double>(vpn));
  rep.value("mpr_worst_breach_records", static_cast<double>(mpr));
  rep.value("vpn_stored_breach_records",
            static_cast<double>(stored_exposure));
  rep.value("vpn_live_breach_records", static_cast<double>(live_exposure));

  std::printf("\nshape: breaching the VPN exposes the full (who, what) log "
              "(%zu records); breaching any\nsingle decoupled party exposes "
              "%zu — the Decoupling Principle makes providers\n"
              "individually breach-proof.\n",
              vpn, mpr);
  std::printf("\nbench_breach: %s\n",
              shape_ok ? "SHAPE REPRODUCED" : "SHAPE MISMATCH");
  return rep.finish(shape_ok);
}
