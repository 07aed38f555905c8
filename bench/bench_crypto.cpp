// E6/E13: cost of the crypto substrate every decoupled hop pays — hashes,
// AEAD (including the fused in-place seal the wire path uses), X25519, HPKE
// single-shot vs multi-message session contexts, and RSA blind signatures.
//
// Unlike the paper-table benches this one has no expected column; it is a
// throughput report. It emits the shared dcpl-bench-report/2 schema with a
// "crypto" section (per-op iters / ns_per_op / ops_per_sec) plus flat
// "values" keys named crypto_*_ops_per_sec, which report_check --baseline
// gates against the committed BENCH_crypto.json exactly like the scale
// sweep is gated by BENCH_scale.json.
#include <cstdio>
#include <string>
#include <vector>

#include "crypto/aead.hpp"
#include "crypto/blind_rsa.hpp"
#include "crypto/csprng.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "hpke/hpke.hpp"
#include "obs/json.hpp"
#include "report_util.hpp"
#include "systems/channel.hpp"

namespace {

using namespace dcpl;
using namespace dcpl::crypto;
using bench::consume;
using bench::OpResult;

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("bench_crypto", argc, argv);
  const double budget_ms = bench::budget_ms_flag(argc, argv, 120.0);

  std::vector<OpResult> ops;
  auto run = [&](const std::string& name, std::uint64_t bytes_per_op,
                 auto&& fn) {
    ops.push_back(bench::time_op(name, bytes_per_op, budget_ms, fn));
    bench::print_row(ops.back());
    report.value("crypto_" + name + "_ops_per_sec", ops.back().ops_per_sec);
    return ops.back().ops_per_sec;
  };

  std::printf("== crypto substrate throughput (budget %.0f ms/op)\n",
              budget_ms);

  // --- hashes / KDF ---------------------------------------------------------
  {
    ChaChaRng rng(1);
    Bytes data = rng.bytes(1024);
    run("sha256_1k", data.size(),
        [&](std::uint64_t) { consume(Sha256::hash(data)); });
    Bytes prk = hkdf_extract(to_bytes("salt"), to_bytes("ikm"));
    run("hkdf_expand_32", 0,
        [&](std::uint64_t) { consume(hkdf_expand(prk, to_bytes("info"), 32)); });
  }

  // --- AEAD: allocating seal vs fused in-place seal_append ------------------
  double seal_ops = 0, seal_append_ops = 0;
  {
    ChaChaRng rng(2);
    Bytes key = rng.bytes(kAeadKeySize), nonce = rng.bytes(kAeadNonceSize);
    Bytes pt = rng.bytes(1500);
    seal_ops = run("aead_seal_1500", pt.size(), [&](std::uint64_t) {
      consume(aead_seal(key, nonce, {}, pt));
    });
    // The wire path's fused variant: ciphertext lands in a reused frame, no
    // intermediate mac_input copy, no fresh allocation per packet.
    Bytes frame;
    frame.reserve(pt.size() + kAeadTagSize);
    seal_append_ops =
        run("aead_seal_append_1500", pt.size(), [&](std::uint64_t) {
          frame.clear();
          aead_seal_append(key, nonce, {}, pt, frame);
          consume(frame);
        });
    Bytes ct = aead_seal(key, nonce, {}, pt);
    run("aead_open_1500", pt.size(), [&](std::uint64_t) {
      auto opened = aead_open(key, nonce, {}, ct);
      consume(opened.ok() ? BytesView(opened.value()) : BytesView{});
    });
  }

  // --- Key agreement --------------------------------------------------------
  {
    ChaChaRng rng(3);
    auto kp = X25519KeyPair::generate(rng);
    auto peer = X25519KeyPair::generate(rng);
    run("x25519", 0, [&](std::uint64_t) {
      consume(x25519(kp.private_key, peer.public_key));
    });
  }

  // --- HPKE: per-message KEM vs amortized session context -------------------
  double single_seal_ops = 0, context_seal_ops = 0;
  {
    ChaChaRng rng(4);
    auto kp = hpke::KeyPair::generate(rng);
    Bytes pt = rng.bytes(256);
    single_seal_ops = run("hpke_single_seal_256", pt.size(), [&](std::uint64_t) {
      consume(hpke::seal(kp.public_key, {}, {}, pt, rng));
    });
    Bytes ct = hpke::seal(kp.public_key, {}, {}, rng.bytes(256), rng);
    run("hpke_single_open_256", 0, [&](std::uint64_t) {
      auto opened = hpke::open(kp, {}, {}, ct);
      consume(opened.ok() ? BytesView(opened.value()) : BytesView{});
    });
    // RFC 9180 §5.2 multi-message context: one KEM setup amortized across
    // every frame, sealing into a reused buffer.
    hpke::Sender session = hpke::setup_base_sender(kp.public_key, {}, rng);
    Bytes frame;
    frame.reserve(pt.size() + hpke::kNt);
    context_seal_ops =
        run("hpke_context_seal_256", pt.size(), [&](std::uint64_t) {
          frame.clear();
          session.context.seal_append({}, pt, frame);
          consume(frame);
        });
  }

  // --- Session channel frame (varint framing + context AEAD) ----------------
  {
    ChaChaRng rng(5);
    auto kp = hpke::KeyPair::generate(rng);
    systems::SessionSender sender(kp.public_key, to_bytes("bench"), rng);
    Bytes msg = rng.bytes(256);
    run("session_frame_256", msg.size(),
        [&](std::uint64_t) { consume(sender.seal(msg)); });
  }

  // --- RSA blind signatures (Privacy Pass substrate) ------------------------
  {
    ChaChaRng rng(6);
    RsaPrivateKey key = rsa_generate(1024, rng);
    Bytes msg = rng.bytes(32);
    run("rsa1024_blind", 0,
        [&](std::uint64_t) { consume(blind(key.pub, msg, rng).blinded_message); });
    BlindingState st = blind(key.pub, msg, rng);
    run("rsa1024_blind_sign", 0, [&](std::uint64_t) {
      auto sig = blind_sign(key, st.blinded_message);
      consume(sig.ok() ? BytesView(sig.value()) : BytesView{});
    });
    Bytes sig = finalize(key.pub, msg, st,
                         blind_sign(key, st.blinded_message).value())
                    .value();
    run("rsa1024_verify", 0, [&](std::uint64_t) {
      consume(static_cast<std::uint64_t>(blind_verify(key.pub, msg, sig)));
    });
  }

  // Derived amortization ratios: the headline numbers for DESIGN.md §14.
  const double amortization =
      single_seal_ops > 0 ? context_seal_ops / single_seal_ops : 0;
  const double fused_gain = seal_ops > 0 ? seal_append_ops / seal_ops : 0;
  std::printf("\n  hpke context vs single-shot: %.1fx\n", amortization);
  std::printf("  fused seal_append vs seal:   %.2fx\n", fused_gain);
  report.value("crypto_hpke_amortization_x", amortization);
  report.value("crypto_fused_seal_gain_x", fused_gain);

  bool ok = true;
  for (const OpResult& r : ops) {
    ok &= report.check("crypto_" + r.name + "_measured",
                       r.iters > 0 && r.ops_per_sec > 0);
  }
  // The session context must beat paying a KEM per message by a wide
  // margin — that is the reason the batched wire path exists.
  ok &= report.check("hpke_context_amortizes", amortization > 2.0);

  // Machine-readable "crypto" section (validated by report_check
  // --require-crypto).
  {
    obs::JsonWriter w;
    w.begin_object();
    w.kv("budget_ms", budget_ms);
    w.key("ops");
    w.begin_object();
    for (const OpResult& r : ops) {
      w.key(r.name);
      w.begin_object();
      w.kv("iters", r.iters);
      w.kv("ns_per_op", r.ns_per_op);
      w.kv("ops_per_sec", r.ops_per_sec);
      if (r.mb_per_sec > 0) w.kv("mib_per_sec", r.mb_per_sec);
      w.end_object();
    }
    w.end_object();
    w.kv("hpke_amortization_x", amortization);
    w.kv("fused_seal_gain_x", fused_gain);
    w.end_object();
    report.section("crypto", w.take());
  }

  return report.finish(ok);
}
