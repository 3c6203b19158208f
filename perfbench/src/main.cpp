// End-to-end collection benchmark.
//
//   perfbench_e2e --workload <solh-bulk|grr-rounds|ss-r3|peos-r3>
//                 --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//                 [--spans <file>] [--small] [--perturb-reference]
//
// Prints one JSON record as its last line: the run's end-to-end and
// per-layer metrics (each with its unit), rounds attempted and failed,
// the correctness verdict, the seed, and the host/build record. Exits 0
// only when every round and every correctness gate passed. perfbench/run.py
// builds this program and turns the record into the benchmark's result
// line.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {

void RunResult::Fail(const std::string& why) {
  correct = false;
  if (gate_error.empty()) gate_error = why;
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
}

bool IsFleetWorkload(const std::string& name) {
  return name == "solh-bulk" || name == "grr-rounds";
}

bool IsCryptoWorkload(const std::string& name) {
  return name == "ss-r3" || name == "peos-r3";
}

void DeclareLayerMetrics(Metrics* layers) {
  static const struct {
    const char* name;
    const char* unit;
  } kLayerMetrics[] = {
      {"core.plan_s", "s"},
      {"ldp.encode_s", "s"},
      {"ldp.support_evals", "count"},
      {"ldp.ns_per_eval", "ns"},
      {"worker.support_eval_s", "s"},
      {"worker.decode_s", "s"},
      {"worker.busy_s", "s"},
      {"worker.backpressure_waits", "count"},
      {"worker.queue_high_water", "count"},
      {"transport.send_s", "s"},
      {"transport.frames", "count"},
      {"transport.protocol_errors", "count"},
      {"transport.evictions", "count"},
      {"transport.batches_deduped", "count"},
      {"coordinator.close_s", "s"},
      {"coordinator.merge_calibrate_ms", "ms"},
      {"service.query_ms", "ms"},
      {"wal.append_us_p50", "us"},
      {"wal.sync_ms_p50", "ms"},
      {"round_store.append_ms_p50", "ms"},
      {"round_store.finalize_ms_p50", "ms"},
      {"round_store.compact_ms_p50", "ms"},
      {"round_store.load_all_s", "s"},
      {"round_store.query_ms_p50", "ms"},
      {"os.write_bytes", "bytes"},
      {"ecies.encrypt_us", "us"},
      {"ecies.decrypt_us", "us"},
      {"onion.peel_us", "us"},
      {"ss.user_ms_per_user", "ms"},
      {"ss.shuffler_s", "s"},
      {"ss.server_s", "s"},
      {"paillier.keygen_s", "s"},
      {"paillier.decrypt_packed_us", "us"},
      {"peos.user_ms_per_user", "ms"},
      {"peos.shuffler_s", "s"},
      {"peos.server_s", "s"},
      {"peos.server_decode_s", "s"},
      {"comm.user_bytes_per_user", "bytes"},
      {"comm.shuffler_mb", "MB"},
      {"comm.server_mb", "MB"},
      {"os.gen.cpu_s", "s"},
      {"os.gen.cpu_util", "ratio"},
      {"os.gen.ctx_invol", "count"},
      {"os.ep0.cpu_s", "s"},
      {"os.ep0.cpu_util", "ratio"},
      {"os.ep0.ctx_invol", "count"},
      {"os.ep1.cpu_s", "s"},
      {"os.ep1.cpu_util", "ratio"},
      {"os.ep1.ctx_invol", "count"},
      {"round.wall_s", "s"},
      {"round.unattributed_s", "s"},
      {"trace.sum_error_s", "s"},
      {"trace.overhead_frac", "ratio"},
      {"share.ldp_encode", "ratio"},
      {"share.transport_send", "ratio"},
      {"share.coordinator_close", "ratio"},
      {"share.service_query", "ratio"},
      {"share.unattributed", "ratio"},
      {"share.support_eval", "ratio"},
      {"share.worker_decode", "ratio"},
      {"share.round_store", "ratio"},
      {"share.user", "ratio"},
      {"share.shuffler", "ratio"},
      {"share.server", "ratio"},
      {"share.crypto", "ratio"},
  };
  for (const auto& m : kLayerMetrics) layers->Set(m.name, 0.0, m.unit);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--endpoint") == 0) {
      return EndpointMain(argc, argv);
    }
  }
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--workload" && next) {
      args.workload = argv[++i];
    } else if (a == "--seed" && next) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && next) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && next) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--scratch" && next) {
      args.scratch = argv[++i];
    } else if (a == "--spans" && next) {
      args.spans_out = argv[++i];
    } else if (a == "--small") {
      args.small = true;
    } else if (a == "--perturb-reference") {
      args.perturb_reference = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (args.scratch.empty() ||
      !(IsFleetWorkload(args.workload) || IsCryptoWorkload(args.workload))) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload "
                 "<solh-bulk|grr-rounds|ss-r3|peos-r3> --seed N --seconds S "
                 "--trace 0|1 --scratch DIR\n");
    return 2;
  }

  RunResult result;
  DeclareLayerMetrics(&result.layers);
  const int rc = IsFleetWorkload(args.workload) ? RunFleet(args, &result)
                                                : RunCrypto(args, &result);
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %.17g, \"trace\": %s, "
      "\"small\": %s, \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"gate_error\": %s, \"host\": %s, \"run\": {%s}, \"e2e\": %s, "
      "\"layers\": %s}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? "true" : "false", args.small ? "true" : "false",
      result.correct && rc == 0 ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      JsonString(result.gate_error).c_str(), HostJson(args.scratch).c_str(),
      result.record.c_str(), result.e2e.Json().c_str(),
      result.layers.Json().c_str());
  std::fflush(stdout);
  return result.correct && rc == 0 ? 0 : 1;
}
