// E6/E13: cost of the crypto substrate every decoupled hop pays — hashes,
// AEAD (including the fused in-place seal the wire path uses), X25519, HPKE
// single-shot vs multi-message session contexts, and RSA blind signatures.
//
// SHA-256 has a CPU-dependent compression (SHA-NI or portable), so the
// hash keys are named for the path they measured: sha256_1k always runs
// the portable compression, and keys measured through SHA-NI carry a
// _shani suffix. X25519 is named the same way: x25519 always runs the
// portable ladder and x25519_ifma the AVX-512 IFMA one; x25519_base (the
// comb on B alone) and x25519_pair (X25519(k, 9) and X25519(k, u) through a
// peer's comb table, a seal's two operations) always run the portable comb,
// and their _ifma keys the IFMA comb; the single-shot HPKE keys carry an
// _ifma suffix when the dispatched ladder and comb are IFMA.
// x25519_table_build is the one-off cost of a peer's table, which the first
// seal to a key pays. The bulk AEAD is named the same way: the unsuffixed
// aead_*, chacha20_16k and poly1305_16k keys always run the portable
// ChaCha20 and Poly1305; chacha20_16k_avx512 runs the 16-block AVX-512
// ChaCha20, poly1305_16k_ifma the eight-lane IFMA Poly1305, and the aead_*
// keys ending in _avx512 the dispatched pair when its ChaCha20 is AVX-512
// (with it, the IFMA Poly1305 wherever the CPU has IFMA). The HPKE keys
// run the dispatched AEAD. RSA's CRT pair is named the same
// way: rsa1024_blind_sign always runs the portable pair (two Montgomery
// exponentiations) and rsa1024_blind_sign_ifma the two-lane IFMA one. A
// baseline recorded on a host with these extensions and a run on a host
// without them then share only like-for-like keys.
//
// Unlike the paper-table benches this one has no expected column; it is a
// throughput report. It emits the shared dcpl-bench-report/2 schema with a
// "crypto" section (per-op iters / ns_per_op / ops_per_sec) plus flat
// "values" keys named crypto_*_ops_per_sec, which report_check --baseline
// gates against the committed BENCH_crypto.json exactly like the scale
// sweep is gated by BENCH_scale.json.
#include <cstdio>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "crypto/aead.hpp"
#include "crypto/blind_rsa.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/csprng.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "hpke/hpke.hpp"
#include "obs/json.hpp"
#include "report_util.hpp"

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

  const Sha256Compress shani = sha256_compress_shani();
  const bool dispatched_shani = sha256_compress_dispatched() == shani;
  const std::string dispatched_sfx = dispatched_shani ? "_shani" : "";
  const char* compression = dispatched_shani ? "sha-ni" : "portable";
  const X25519Ladder ifma = x25519_ladder_ifma();
  const bool dispatched_ifma = x25519_ladder_dispatched() == ifma;
  const std::string ladder_sfx = dispatched_ifma ? "_ifma" : "";
  const char* ladder = dispatched_ifma ? "ifma" : "portable";
  const X25519Comb comb_ifma = x25519_comb_ifma();
  const char* comb =
      x25519_comb_dispatched() == comb_ifma ? "ifma" : "portable";
  const ChaCha20Xor chacha_avx512 = chacha20_xor_avx512();
  const bool dispatched_avx512 = chacha20_xor_dispatched() == chacha_avx512;
  const char* chacha = dispatched_avx512 ? "avx512" : "portable";
  const Poly1305Blocks poly_ifma = poly1305_blocks_ifma();
  const char* poly =
      poly1305_blocks_dispatched() == poly_ifma ? "ifma" : "portable";
  const ModExpPair crt_ifma = mod_exp_pair_ifma();
  const char* crt =
      mod_exp_pair_dispatched() == crt_ifma ? "ifma" : "portable";
  std::printf("== crypto substrate throughput (budget %.0f ms/op)\n",
              budget_ms);
  std::printf("   sha256 compression: %s (dispatched)\n", compression);
  std::printf("   x25519 ladder: %s (dispatched)\n", ladder);
  std::printf("   x25519 comb: %s (dispatched)\n", comb);
  std::printf("   chacha20: %s (dispatched)\n", chacha);
  std::printf("   poly1305: %s (dispatched)\n", poly);
  std::printf("   rsa crt: %s (dispatched)\n", crt);

  // --- hashes / KDF ---------------------------------------------------------
  {
    ChaChaRng rng(1);
    Bytes data = rng.bytes(1024);
    auto hash_with = [&](Sha256Compress compress) {
      Sha256 ctx(compress);
      ctx.update(data);
      const auto d = ctx.digest();
      consume(BytesView(d.data(), d.size()));
    };
    run("sha256_1k", data.size(),
        [&](std::uint64_t) { hash_with(sha256_compress_portable); });
    if (shani != nullptr) {
      run("sha256_1k_shani", data.size(),
          [&](std::uint64_t) { hash_with(shani); });
    }
    // The two HMAC-bound ops below run the dispatched compression.
    Bytes key = rng.bytes(32), msg = rng.bytes(64);
    run("hmac_sha256_64" + dispatched_sfx, msg.size(),
        [&](std::uint64_t) { consume(hmac_sha256(key, msg)); });
    Bytes prk = hkdf_extract(to_bytes("salt"), to_bytes("ikm"));
    run("hkdf_expand_32" + dispatched_sfx, 0,
        [&](std::uint64_t) { consume(hkdf_expand(prk, to_bytes("info"), 32)); });
  }

  // --- AEAD: allocating seal vs fused in-place seal_append ------------------
  // Each AEAD op runs on the portable pair, and again with an _avx512 key on
  // the dispatched pair when that is vector code.
  double seal_ops = 0, seal_append_ops = 0;
  {
    ChaChaRng rng(2);
    Bytes key = rng.bytes(kAeadKeySize), nonce = rng.bytes(kAeadNonceSize);
    Bytes pt = rng.bytes(1500);
    // stack's HTTP bodies run from 256 B to 64 KiB; 16 KiB is a mid-size
    // response, where the ChaCha20 and Poly1305 block loops dominate.
    Bytes big = rng.bytes(16 * 1024);
    Bytes frame;
    frame.reserve(pt.size() + kAeadTagSize);
    auto aead_ops = [&](const std::string& sfx, AeadKernels kernels) {
      const double seal =
          run("aead_seal_1500" + sfx, pt.size(), [&](std::uint64_t) {
            consume(aead_seal(key, nonce, {}, pt, kernels));
          });
      // The wire path's fused variant: ciphertext lands in a reused frame,
      // no intermediate mac_input copy, no fresh allocation per packet.
      const double seal_append =
          run("aead_seal_append_1500" + sfx, pt.size(), [&](std::uint64_t) {
            frame.clear();
            aead_seal_append(key, nonce, {}, pt, frame, kernels);
            consume(frame);
          });
      Bytes ct = aead_seal(key, nonce, {}, pt, kernels);
      run("aead_open_1500" + sfx, pt.size(), [&](std::uint64_t) {
        auto opened = aead_open(key, nonce, {}, ct, kernels);
        consume(opened.ok() ? BytesView(opened.value()) : BytesView{});
      });
      run("aead_seal_16k" + sfx, big.size(), [&](std::uint64_t) {
        consume(aead_seal(key, nonce, {}, big, kernels));
      });
      Bytes big_ct = aead_seal(key, nonce, {}, big, kernels);
      run("aead_open_16k" + sfx, big.size(), [&](std::uint64_t) {
        auto opened = aead_open(key, nonce, {}, big_ct, kernels);
        consume(opened.ok() ? BytesView(opened.value()) : BytesView{});
      });
      return std::make_pair(seal, seal_append);
    };
    std::tie(seal_ops, seal_append_ops) = aead_ops("", kAeadPortable);
    if (dispatched_avx512) aead_ops("_avx512", aead_kernels_dispatched());

    const ChaChaState state = chacha20_state(key, 1, nonce);
    Bytes out(big.size());
    auto chacha_op = [&](const std::string& name, ChaCha20Xor kernel) {
      run(name, big.size(), [&](std::uint64_t) {
        kernel(state, big, out.data());
        consume(out);
      });
    };
    chacha_op("chacha20_16k", chacha20_xor_portable);
    if (chacha_avx512 != nullptr) {
      chacha_op("chacha20_16k_avx512", chacha_avx512);
    }
    auto poly_op = [&](const std::string& name, Poly1305Blocks blocks) {
      run(name, big.size(), [&](std::uint64_t) {
        Poly1305 mac(key, blocks);
        mac.update(big);
        const auto tag = mac.finish();
        consume(BytesView(tag.data(), tag.size()));
      });
    };
    poly_op("poly1305_16k", poly1305_blocks_portable);
    if (poly_ifma != nullptr) poly_op("poly1305_16k_ifma", poly_ifma);
  }

  // --- Key agreement --------------------------------------------------------
  {
    ChaChaRng rng(3);
    auto kp = X25519KeyPair::generate(rng);
    auto peer = X25519KeyPair::generate(rng);
    run("x25519", 0, [&](std::uint64_t) {
      consume(x25519_ladder_portable(kp.private_key, peer.public_key));
    });
    if (ifma != nullptr) {
      run("x25519_ifma", 0, [&](std::uint64_t) {
        consume(ifma(kp.private_key, peer.public_key));
      });
    }
    // The fixed-base comb behind every key pair.
    run("x25519_base", 0, [&](std::uint64_t) {
      consume(x25519_comb_portable(kp.private_key, nullptr).public_key);
    });
    if (comb_ifma != nullptr) {
      run("x25519_base_ifma", 0, [&](std::uint64_t) {
        consume(comb_ifma(kp.private_key, nullptr).public_key);
      });
    }
    // A seal's two operations, enc and the shared secret, through the
    // recipient's table, and the one-off cost of that table.
    run("x25519_table_build", 0, [&](std::uint64_t) {
      consume(static_cast<std::uint64_t>(
          x25519_comb_table(peer.public_key) != nullptr));
    });
    const auto table = x25519_comb_table(peer.public_key);
    run("x25519_pair", 0, [&](std::uint64_t) {
      consume(x25519_comb_portable(kp.private_key, table.get()).shared);
    });
    if (comb_ifma != nullptr) {
      run("x25519_pair_ifma", 0, [&](std::uint64_t) {
        consume(comb_ifma(kp.private_key, table.get()).shared);
      });
    }
  }

  // --- HPKE: per-message KEM vs amortized session context -------------------
  // A single-shot seal runs the dispatched comb pair through the recipient's
  // cached table (built by the first seal, before the timed passes); an open
  // runs the dispatched X25519 ladder.
  double single_seal_ops = 0, context_seal_ops = 0;
  {
    ChaChaRng rng(4);
    auto kp = hpke::KeyPair::generate(rng);
    Bytes pt = rng.bytes(256);
    single_seal_ops = run("hpke_single_seal_256" + ladder_sfx, pt.size(),
                          [&](std::uint64_t) {
                            consume(hpke::seal(kp.public_key, {}, {}, pt, rng));
                          });
    Bytes ct = hpke::seal(kp.public_key, {}, {}, rng.bytes(256), rng);
    run("hpke_single_open_256" + ladder_sfx, 0, [&](std::uint64_t) {
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

  // --- RSA blind signatures (Privacy Pass substrate) ------------------------
  {
    ChaChaRng rng(6);
    RsaPrivateKey key = rsa_generate(1024, rng);
    // The inverse of a blinding factor, most of blind()'s cost (r from its
    // own stream, so the ops below see the same draws as before).
    ChaChaRng r_rng(7);
    const BigInt r = BigInt::random_below(key.pub.n, r_rng);
    run("rsa1024_mod_inverse", 0, [&](std::uint64_t) {
      const std::optional<BigInt> inv = r.try_mod_inverse(key.pub.n);
      consume(inv ? inv->bit_length() : 0);
    });
    Bytes msg = rng.bytes(32);
    run("rsa1024_blind", 0,
        [&](std::uint64_t) { consume(blind(key.pub, msg, rng).blinded_message); });
    BlindingState st = blind(key.pub, msg, rng);
    auto sign_op = [&](const std::string& name, ModExpPair pair) {
      run(name, 0, [&](std::uint64_t) {
        auto sig = blind_sign(key, st.blinded_message, pair);
        consume(sig.ok() ? BytesView(sig.value()) : BytesView{});
      });
    };
    sign_op("rsa1024_blind_sign", mod_exp_pair_portable);
    if (crt_ifma != nullptr) sign_op("rsa1024_blind_sign_ifma", crt_ifma);
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
    w.kv("sha256_compression", compression);
    w.kv("x25519_ladder", ladder);
    w.kv("x25519_comb", comb);
    w.kv("chacha20", chacha);
    w.kv("poly1305", poly);
    w.kv("rsa_crt", crt);
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
