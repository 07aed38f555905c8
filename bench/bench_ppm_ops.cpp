// PPM hot-path microbenchmarks: field ops, sharing, and the client-side
// cost of a sealed submission as the aggregator count grows — the
// CPU-side complement to E2's message-count sweep.
//
// Self-timed like bench_crypto (bench::time_op): a throughput report with
// no expected column. It emits the shared dcpl-bench-report/2 schema with
// ppm_*_ops_per_sec values; --budget-ms sets the wall time per op.
#include <cstdio>
#include <string>
#include <vector>

#include "crypto/csprng.hpp"
#include "hpke/hpke.hpp"
#include "report_util.hpp"
#include "systems/ppm/field.hpp"

namespace {

using namespace dcpl;
using namespace dcpl::systems::ppm;
using bench::consume;

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("bench_ppm_ops", argc, argv);
  const double budget_ms = bench::budget_ms_flag(argc, argv, 120.0);

  bool ok = true;
  auto run = [&](const std::string& name, auto&& fn) {
    const bench::OpResult r = bench::time_op(name, 0, budget_ms, fn);
    bench::print_row(r);
    report.value("ppm_" + name + "_ops_per_sec", r.ops_per_sec);
    ok &= report.check("ppm_" + name + "_measured",
                       r.iters > 0 && r.ops_per_sec > 0);
  };

  std::printf("== PPM hot path (budget %.0f ms/op)\n", budget_ms);
  {
    crypto::ChaChaRng rng(1);
    Fp a = Fp::random(rng);
    const Fp b = Fp::random(rng);
    run("field_mul", [&](std::uint64_t) {
      a = a * b;
      consume(a.value());
    });
  }
  {
    crypto::ChaChaRng rng(2);
    for (std::size_t k : {2, 4, 8}) {
      run("share_value_k" + std::to_string(k), [&](std::uint64_t) {
        consume(share_value(Fp{1}, k, rng).back().value());
      });
    }
  }
  {
    crypto::ChaChaRng rng(3);
    for (std::size_t k : {2, 8}) {
      const std::vector<Fp> shares = share_value(Fp{1}, k, rng);
      run("combine_shares_k" + std::to_string(k), [&](std::uint64_t) {
        consume(combine_shares(shares).value());
      });
    }
  }
  // Full client-side submission cost: k sharings + k HPKE seals.
  {
    crypto::ChaChaRng rng(4);
    for (std::size_t k : {1, 2, 4, 8}) {
      std::vector<hpke::KeyPair> keys;
      for (std::size_t i = 0; i < k; ++i) {
        keys.push_back(hpke::KeyPair::generate(rng));
      }
      run("client_submission_k" + std::to_string(k), [&](std::uint64_t) {
        const std::vector<Fp> x = share_value(Fp{1}, k, rng);
        const std::vector<Fp> x2 = share_value(Fp{1}, k, rng);
        for (std::size_t i = 0; i < k; ++i) {
          const Bytes inner = concat(
              {be_encode(x[i].value(), 8), be_encode(x2[i].value(), 8)});
          consume(hpke::seal(keys[i].public_key, {}, {}, inner, rng));
        }
      });
    }
  }
  return report.finish(ok);
}
