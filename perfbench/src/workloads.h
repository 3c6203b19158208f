// Workload entry points of the end-to-end benchmark.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

/// What one run reports. `e2e` and `layers` carry every metric the
/// benchmark declares (a layer a workload does not exercise reads 0);
/// `record` holds the run's extra JSON fields (sample counts, plan,
/// gate details) as `"key": value` pairs joined by commas.
struct RunResult {
  Metrics e2e;
  Metrics layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string record;

  void Note(const std::string& key, const std::string& json_value) {
    record += (record.empty() ? "" : ", ") + JsonString(key) + ": " +
              json_value;
  }
  /// Marks the run incorrect and records why (first reason wins the
  /// "gate_error" field; later ones are still counted).
  void Fail(const std::string& why);
  std::string gate_error;
};

/// Sets every declared per-layer metric to 0 so a layer the workload
/// does not exercise is still reported.
void DeclareLayerMetrics(Metrics* layers);

/// solh-bulk and grr-rounds: endpoint processes + routing client +
/// merge coordinator over loopback TCP with durable round stores.
int RunFleet(const Args& args, RunResult* out);

/// ss-r3 and peos-r3: the crypto protocols in-process on a thread pool.
int RunCrypto(const Args& args, RunResult* out);

/// Child-process mode: one partition endpoint (CollectionServer).
int EndpointMain(int argc, char** argv);

bool IsFleetWorkload(const std::string& name);
bool IsCryptoWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
