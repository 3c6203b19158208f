// Crypto workloads: ss-r3 and peos-r3.
//
// Both run in this process on a ThreadPool of nproc threads. A round is
// one call into the protocol's public entry point — RunSequentialShuffle
// for SS (Table III oracle: SOLH ε=4, d=915, d'=16; n/4 fake reports;
// server-planted spot-check dummies) and ShuffleDpCollector::Collect for
// PEOS (planner-chosen plan for PrivacyGoals{}, d=915, r=3) — so its
// wall time covers client encode, every shuffler hop and the server's
// decode and calibration. Per-round key generation is protocol work and
// stays inside the round.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/shuffle_dp.h"
#include "crypto/bigint.h"
#include "crypto/ecies.h"
#include "crypto/paillier.h"
#include "crypto/secure_random.h"
#include "data/datasets.h"
#include "dp/amplification.h"
#include "ldp/local_hash.h"
#include "shuffle/oblivious_shuffle.h"
#include "shuffle/peos.h"
#include "shuffle/sequential_shuffle.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

using namespace shuffledp;

namespace {

constexpr uint64_t kDomain = 915;
constexpr uint32_t kShufflers = 3;
constexpr uint64_t kReplayStream = 2;
/// The mse gate: the mean per-round mse must lie within this factor of
/// the analytical per-value variance, in either direction.
constexpr double kMseFactor = 2.0;

struct CryptoConfig {
  bool ss = false;
  uint64_t n = 0;
  uint64_t dummies = 0;  ///< SS spot-check dummies
  uint64_t min_rounds = 0;
};

CryptoConfig ConfigFor(const std::string& workload, bool small) {
  CryptoConfig c;
  c.ss = workload == "ss-r3";
  if (c.ss) {
    c.n = small ? 200 : 1200;
    c.dummies = small ? 8 : 32;
  } else {
    c.n = small ? 1000 : 4000;
  }
  c.min_rounds = small ? 2 : 20;
  return c;
}

/// Everything a round needs besides its seed.
struct Protocol {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<ldp::LocalHash> ss_oracle;
  std::unique_ptr<core::ShuffleDpCollector> peos;
  uint64_t n_r = 0;
};

struct RoundOutcome {
  double wall_s = 0.0;
  shuffle::CostReport costs;
  double server_decode_s = 0.0;
  std::vector<double> estimates;
  std::string error;
};

RoundOutcome RunRound(const CryptoConfig& c, const Protocol& proto,
                      const std::vector<uint64_t>& values, uint64_t seed,
                      uint64_t round_id, Tracer* tracer) {
  RoundOutcome o;
  crypto::SecureRandom rng(seed);
  const int round_span = tracer->Begin("round", round_id);
  const double t0 = Now();
  if (c.ss) {
    shuffle::SequentialShuffleConfig cfg;
    cfg.num_shufflers = kShufflers;
    cfg.fake_reports_total = proto.n_r;
    cfg.spot_check_dummies = c.dummies;
    cfg.pool = proto.pool.get();
    Result<shuffle::SequentialShuffleResult> res = Status::Internal("unset");
    {
      ScopedSpan span(tracer, "shuffle.ss_protocol", round_id);
      res = shuffle::RunSequentialShuffle(*proto.ss_oracle, values, cfg, &rng);
    }
    o.wall_s = Now() - t0;
    if (!res.ok()) {
      o.error = "RunSequentialShuffle: " + res.status().ToString();
    } else if (!res->spot_check_passed) {
      o.error = "SS spot check failed on an honest run";
    } else if (res->reports_at_server != values.size() + proto.n_r) {
      o.error = "SS server decoded " + std::to_string(res->reports_at_server) +
                " reports, expected n + n_r = " +
                std::to_string(values.size() + proto.n_r);
    } else {
      o.costs = res->costs;
      o.server_decode_s = res->streaming.decode_seconds;
      o.estimates = std::move(res->estimates);
    }
  } else {
    Result<shuffle::PeosResult> res = Status::Internal("unset");
    {
      ScopedSpan span(tracer, "shuffle.peos_protocol", round_id);
      res = proto.peos->Collect(values, &rng);
    }
    o.wall_s = Now() - t0;
    if (!res.ok()) {
      o.error = "Collect: " + res.status().ToString();
    } else if (res->reports_decoded + res->reports_invalid !=
               values.size() + proto.n_r) {
      o.error = "PEOS server counted " +
                std::to_string(res->reports_decoded + res->reports_invalid) +
                " rows, expected n + n_r = " +
                std::to_string(values.size() + proto.n_r);
    } else {
      o.costs = res->costs;
      o.server_decode_s = res->streaming.decode_seconds;
      o.estimates = std::move(res->estimates);
    }
  }
  tracer->End(round_span);
  return o;
}

/// Unit costs of the ECIES layer (serial, one thread), for attribution.
struct EciesCosts {
  double encrypt_us = 0, decrypt_us = 0, peel_us = 0;
  std::string error;
};

EciesCosts ReplayEcies(uint64_t seed) {
  EciesCosts out;
  crypto::SecureRandom rng(seed);
  std::vector<crypto::EciesKeyPair> keys;
  std::vector<crypto::P256Point> layers;
  for (uint32_t i = 0; i <= kShufflers; ++i) {
    keys.push_back(crypto::EciesGenerateKeyPair(&rng));
    layers.push_back(keys.back().public_key);
  }
  constexpr size_t kCount = 256;
  std::vector<Bytes> payloads(kCount, Bytes(16));
  for (auto& p : payloads) rng.Fill(p.data(), p.size());

  const double t0 = Now();
  std::vector<Bytes> blobs = crypto::EciesEncryptBatch(
      keys.back().public_key, payloads, &rng, nullptr);
  out.encrypt_us = (Now() - t0) * 1e6 / kCount;
  std::vector<double> decrypt, peel;
  for (size_t i = 0; i < kCount; ++i) {
    const double d0 = Now();
    auto plain = crypto::EciesDecrypt(keys.back().private_key, blobs[i]);
    decrypt.push_back((Now() - d0) * 1e6);
    if (!plain.ok() || *plain != payloads[i]) {
      out.error = "ECIES replay did not round-trip";
      return out;
    }
  }
  std::vector<Bytes> onions =
      crypto::OnionEncryptBatch(layers, payloads, &rng, nullptr);
  for (size_t i = 0; i < kCount; ++i) {
    const double p0 = Now();
    auto inner = crypto::OnionPeel(keys[0].private_key, onions[i]);
    peel.push_back((Now() - p0) * 1e6);
    if (!inner.ok()) {
      out.error = "onion peel failed: " + inner.status().ToString();
      return out;
    }
  }
  out.decrypt_us = Median(decrypt);
  out.peel_us = Median(peel);
  return out;
}

/// Unit costs of the Paillier layer: key generation and the server's
/// packed share decryption (ell = 64, slot headroom for EosRounds(r)).
struct PaillierCosts {
  double keygen_s = 0, decrypt_packed_us = 0;
  std::string error;
};

PaillierCosts ReplayPaillier(uint64_t seed) {
  PaillierCosts out;
  crypto::SecureRandom rng(seed);
  std::vector<double> keygen;
  Result<crypto::PaillierKeyPair> keys = Status::Internal("unset");
  for (int k = 0; k < 3; ++k) {
    const double t0 = Now();
    keys = crypto::PaillierGenerateKeyPair(1024, &rng);
    keygen.push_back(Now() - t0);
    if (!keys.ok()) {
      out.error = "Paillier keygen: " + keys.status().ToString();
      return out;
    }
  }
  out.keygen_s = Median(keygen);

  constexpr unsigned kEll = 64;
  unsigned extra = 0;
  while ((uint64_t{1} << extra) < shuffle::EosRounds(kShufflers) + 1) ++extra;
  const unsigned slot_bits = kEll + extra + 1;
  constexpr size_t kCount = 512;
  std::vector<crypto::PaillierCiphertext> cts;
  std::vector<uint64_t> plain(kCount);
  for (size_t i = 0; i < kCount; ++i) {
    plain[i] = rng.NextU64();
    cts.push_back(keys->pub.TrivialEncrypt(crypto::BigInt(plain[i])));
  }
  std::vector<uint64_t> got(kCount);
  const double t0 = Now();
  Status st = keys->priv.DecryptPackedMod2EllBatch(cts.data(), kCount,
                                                   slot_bits, kEll, got.data());
  out.decrypt_packed_us = (Now() - t0) * 1e6 / kCount;
  if (!st.ok() || got != plain) {
    out.error = "packed decryption replay did not round-trip";
  }
  return out;
}

}  // namespace

int RunCrypto(const Args& args, RunResult* out) {
  const CryptoConfig c = ConfigFor(args.workload, args.small);
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  Metrics& e2e = out->e2e;
  Metrics& L = out->layers;

  // -- Set-up (planner or oracle, and the pool), several times.
  constexpr int kSetups = 51;
  std::vector<double> setup_s, plan_s;
  Protocol proto;
  for (int k = 0; k < kSetups; ++k) {
    proto = Protocol();
    const double t0 = Now();
    proto.pool = std::make_unique<ThreadPool>(threads);
    const double plan_t0 = Now();
    if (c.ss) {
      proto.ss_oracle =
          std::make_unique<ldp::LocalHash>(4.0, kDomain, 16, "SOLH");
      proto.n_r = c.n / 4 / kShufflers * kShufflers;
    } else {
      core::ShuffleDpCollector::Options options;
      options.num_shufflers = kShufflers;
      options.pool = proto.pool.get();
      auto col = core::ShuffleDpCollector::Create(core::PrivacyGoals{}, c.n,
                                                  kDomain, options);
      if (!col.ok()) {
        out->Fail("planner: " + col.status().ToString());
        return 1;
      }
      proto.peos = std::move(*col);
      proto.n_r = proto.peos->plan().n_r;
    }
    plan_s.push_back(Now() - plan_t0);
    setup_s.push_back(Now() - t0);
  }
  out->Note("users_per_round", std::to_string(c.n));
  out->Note("fake_reports_per_round", std::to_string(proto.n_r));
  out->Note("domain", std::to_string(kDomain));
  out->Note("shufflers", std::to_string(kShufflers));
  out->Note("pool_threads", std::to_string(threads));
  out->Note("setups", std::to_string(kSetups));
  if (c.ss) {
    out->Note("oracle", "\"SOLH eps=4 d'=16 (Table III)\"");
    out->Note("spot_check_dummies", std::to_string(c.dummies));
  } else {
    out->Note("plan", JsonString(proto.peos->plan().ToString()));
  }

  Rng dataset_rng(DeriveSeed(args.seed, kDatasetStream, 0));
  const std::vector<uint64_t> values =
      data::MakeZipfDataset("perfbench", c.n, kDomain, 1.0,
                            dataset_rng.NextU64())
          .values;
  const std::vector<double> truth = TrueFrequencies(values, kDomain);

  Tracer traced(args.trace);
  Tracer untraced(false);
  std::vector<RoundOutcome> samples;
  std::vector<bool> sample_traced;
  auto run_one = [&](uint64_t index, bool timed, Tracer* tracer) {
    ++out->attempted;
    RoundOutcome o = RunRound(c, proto, values,
                              DeriveSeed(args.seed, kRoundStream, index),
                              index, tracer);
    if (!o.error.empty()) {
      ++out->failed;
      out->Fail("round " + std::to_string(index) + ": " + o.error);
      return false;
    }
    if (timed) {
      samples.push_back(std::move(o));
      sample_traced.push_back(tracer->on());
    }
    return true;
  };
  if (!run_one(0, false, &untraced)) return 1;

  const ProcSample before = ReadProc(getpid());
  const double timed_t0 = Now();
  for (uint64_t index = 1;
       samples.size() < c.min_rounds || Now() - timed_t0 < args.seconds;
       ++index) {
    Tracer* tracer = args.trace && index % 2 == 1 ? &traced : &untraced;
    if (!run_one(index, true, tracer)) break;
  }
  const double timed_wall = Now() - timed_t0;
  const ProcSample after = ReadProc(getpid());

  // -- Correctness gate: the utility of the estimates against the
  // oracle's analytical variance (fake reports included).
  double analytic = 0.0;
  if (c.ss) {
    analytic = dp::LocalHashVarianceLocal(4.0, c.n, 16) *
               static_cast<double>(c.n + proto.n_r) /
               static_cast<double>(c.n);
  } else {
    analytic = proto.peos->plan().predicted_variance;
  }
  if (args.perturb_reference) analytic *= 100.0;
  std::vector<double> walls, closes, mses, walls_traced, walls_untraced;
  std::vector<double> user_ms, shuffler_s, server_s, server_decode_s;
  std::vector<double> user_bytes, shuffler_mb, server_mb, wire;
  for (size_t i = 0; i < samples.size(); ++i) {
    const RoundOutcome& o = samples[i];
    walls.push_back(o.wall_s);
    (sample_traced[i] ? walls_traced : walls_untraced).push_back(o.wall_s);
    closes.push_back(o.costs.server_comp_seconds * 1e3);
    mses.push_back(Mse(o.estimates, truth));
    user_ms.push_back(o.costs.user_comp_ms_per_user);
    shuffler_s.push_back(o.costs.aux_comp_seconds);
    server_s.push_back(o.costs.server_comp_seconds);
    server_decode_s.push_back(o.server_decode_s);
    user_bytes.push_back(static_cast<double>(o.costs.user_comm_bytes_per_user));
    shuffler_mb.push_back(o.costs.aux_comm_mb_per_shuffler);
    server_mb.push_back(o.costs.server_comm_mb);
    // Every channel's bytes: what users send plus what every shuffler
    // sends (the server only receives).
    wire.push_back(static_cast<double>(o.costs.user_comm_bytes_per_user) +
                   o.costs.aux_comm_mb_per_shuffler * 1024.0 * 1024.0 *
                       kShufflers / static_cast<double>(c.n));
  }
  const double mse = Mean(mses);
  const double ratio = analytic > 0 ? mse / analytic : INFINITY;
  out->Note("mse_over_analytic_variance", std::to_string(ratio));
  out->Note("mse_gate_factor", std::to_string(kMseFactor));
  if (!samples.empty() &&
      !(ratio <= kMseFactor && ratio >= 1.0 / kMseFactor)) {
    out->Fail("mse " + std::to_string(mse) + " is not within " +
              std::to_string(kMseFactor) + "x of the analytical variance " +
              std::to_string(analytic));
    out->failed = out->attempted;
  }

  const double wall = Median(walls);
  e2e.Set("users_per_s", wall > 0 ? static_cast<double>(c.n) / wall : 0.0,
          "1/s");
  e2e.Set("close_ms_p50", Median(closes), "ms");
  size_t tail_windows = 0;
  e2e.Set("close_ms_p95", CloseTail(closes, &tail_windows), "ms");
  e2e.Set("setup_s", Median(setup_s), "s");
  e2e.Set("peak_rss_mb", ReadProc(getpid()).hwm_mb, "MB");
  e2e.Set("wire_bytes_per_user", Median(wire), "bytes");
  e2e.Set("mse", mse, "1");
  e2e.Set("rounds_ok_frac",
          out->attempted ? 1.0 - static_cast<double>(out->failed) /
                                     static_cast<double>(out->attempted)
                         : 0.0,
          "1");
  out->Note("timed_rounds", std::to_string(samples.size()));
  out->Note("close_samples", std::to_string(closes.size()));
  out->Note("close_ms_p95_windows", std::to_string(tail_windows));
  out->Note("round_wall_s", JsonArray(walls));

  const double rounds =
      static_cast<double>(std::max<size_t>(1, samples.size()));
  const std::string p = c.ss ? "ss." : "peos.";
  L.Set("core.plan_s", Median(plan_s), "s");
  L.Set(p + "user_ms_per_user", Median(user_ms), "ms");
  L.Set(p + "shuffler_s", Median(shuffler_s), "s");
  L.Set(p + "server_s", Median(server_s), "s");
  if (!c.ss) L.Set("peos.server_decode_s", Median(server_decode_s), "s");
  L.Set("comm.user_bytes_per_user", Median(user_bytes), "bytes");
  L.Set("comm.shuffler_mb", Median(shuffler_mb), "MB");
  L.Set("comm.server_mb", Median(server_mb), "MB");
  L.Set("os.gen.cpu_s", (after.cpu_s - before.cpu_s) / rounds, "s");
  L.Set("os.gen.cpu_util",
        timed_wall > 0 ? (after.cpu_s - before.cpu_s) / timed_wall : 0.0,
        "ratio");
  L.Set("os.gen.ctx_invol",
        static_cast<double>(after.ctx_invol - before.ctx_invol) / rounds,
        "count");

  if (args.trace && out->failed == 0) {
    const RoundAttribution at = AttributeRounds(traced);
    const double rw = Median(at.wall);
    L.Set("round.wall_s", rw, "s");
    L.Set("round.unattributed_s", Median(at.unattributed), "s");
    L.Set("trace.sum_error_s", Percentile(at.sum_error, 1.0), "s");
    if (!walls_traced.empty() && !walls_untraced.empty()) {
      L.Set("trace.overhead_frac",
            Median(walls_traced) / Median(walls_untraced) - 1.0, "ratio");
    }
    const uint64_t n_plus = c.n + proto.n_r;
    if (rw > 0) {
      L.Set("share.unattributed", Median(at.unattributed) / rw, "ratio");
      L.Set("share.user", Median(user_ms) * 1e-3 * c.n / rw, "ratio");
      L.Set("share.shuffler", Median(shuffler_s) * kShufflers / rw, "ratio");
      L.Set("share.server", Median(server_s) / rw, "ratio");
    }
    const uint64_t replay_seed = DeriveSeed(args.seed, kReplayStream, 0);
    if (c.ss) {
      EciesCosts e = ReplayEcies(replay_seed);
      if (!e.error.empty()) {
        out->Fail(e.error);
        ++out->failed;
      }
      L.Set("ecies.encrypt_us", e.encrypt_us, "us");
      L.Set("ecies.decrypt_us", e.decrypt_us, "us");
      L.Set("onion.peel_us", e.peel_us, "us");
      // ECIES layers per round: users and dummies carry r + 1 layers,
      // shuffler i's n_r/r fakes carry the r - i + 1 still ahead; each
      // layer is encrypted once and peeled once.
      double layers_total =
          static_cast<double>((c.n + c.dummies) * (kShufflers + 1));
      for (uint32_t i = 1; i <= kShufflers; ++i) {
        layers_total += static_cast<double>(proto.n_r / kShufflers) *
                        (kShufflers - i + 1);
      }
      const double cpu_s = layers_total * (e.encrypt_us + e.peel_us) * 1e-6;
      if (rw > 0) L.Set("share.crypto", cpu_s / threads / rw, "ratio");
    } else {
      PaillierCosts pc = ReplayPaillier(replay_seed);
      if (!pc.error.empty()) {
        out->Fail(pc.error);
        ++out->failed;
      }
      L.Set("paillier.keygen_s", pc.keygen_s, "s");
      L.Set("paillier.decrypt_packed_us", pc.decrypt_packed_us, "us");
      // Key generation (serial) plus the server's packed decryption of
      // every row (pool-parallel); the shufflers' homomorphic work is not
      // replayed, so this share is a lower bound.
      const double cpu_s =
          pc.keygen_s +
          static_cast<double>(n_plus) * pc.decrypt_packed_us * 1e-6 / threads;
      if (rw > 0) L.Set("share.crypto", cpu_s / rw, "ratio");
    }
    if (!args.spans_out.empty()) traced.Write(args.spans_out);
  }
  return out->correct ? 0 : 1;
}

}  // namespace perfbench
