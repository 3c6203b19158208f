// Shared pieces of the end-to-end benchmark: run arguments, the span
// tracer, sample summaries, the metric sink, /proc readers and the
// host/build record.
//
// Every measurement here is taken from outside the library: spans wrap
// the benchmark's own calls into a layer's public functions, counters
// come from what the library already exposes, and OS counters come from
// /proc. Nothing in src/ is instrumented.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test-sized inputs (the benchmark's own test); the timed contract
  /// runs always use the full sizes.
  bool small = false;
  /// Deliberately perturbs the correctness gate's reference estimates,
  /// so the test can check that the gate fails.
  bool perturb_reference = false;
  /// Per-run scratch directory (round stores, WAL replays); created by
  /// the caller, removed by the caller.
  std::string scratch;
  /// Where the traced run writes its spans (empty = not written).
  std::string spans_out;
};

/// Seconds on the steady clock since the first call.
double Now();

/// Seed of item `index` of stream `stream`, derived from the workload
/// seed (SplitMix64 finalizer, so neighbouring indices decorrelate).
uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t index);
/// Seed streams: the dataset, then one encoding seed per round.
constexpr uint64_t kDatasetStream = 0;
constexpr uint64_t kRoundStream = 1;

/// Frequency of each value in [0, d) among `values`.
std::vector<double> TrueFrequencies(const std::vector<uint64_t>& values,
                                    uint64_t d);
/// Mean squared error of `est` against `truth`; infinity when the
/// lengths differ.
double Mse(const std::vector<double>& est, const std::vector<double>& truth);

/// In-memory span recorder. Spans are opened and closed on one thread
/// in LIFO order (the benchmark's generator thread), so a span's
/// children never overlap and its self time is its duration minus the
/// sum of its children's.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    uint64_t round = 0;
  };

  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }
  /// Opens a span under the innermost open span; returns its id, or -1
  /// when tracing is off.
  int Begin(const std::string& name, uint64_t round);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span (duration minus its children's durations).
  std::vector<double> SelfTimes() const;
  /// Writes the spans as one JSON document.
  bool Write(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Per-round attribution of a traced run: for every top-level span (a
/// round), its wall time, its own self time (the part no child span
/// covers: round.unattributed_s), the summed self time of its
/// descendants by span name, and |descendants' self + own self - wall|,
/// which is 0 up to rounding when the stages add up to the wall time.
struct RoundAttribution {
  std::vector<double> wall, unattributed, sum_error;
  std::map<std::string, std::vector<double>> self_by_name;

  /// Median per-round self time of spans named `name` (0 if none).
  double MedianSelf(const std::string& name) const;
};
RoundAttribution AttributeRounds(const Tracer& tracer);

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t round)
      : tracer_(tracer), id_(tracer->Begin(name, round)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty vector.
double Percentile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) {
  return Percentile(v, 0.5);
}
double Mean(const std::vector<double>& v);
/// The close-latency tail reported as close_ms_p95. With at least two
/// windows of 200 consecutive samples, the p95 of each window (ten
/// samples beyond it) and the median over the windows, so a burst of
/// host interference confined to a few windows does not move it.
/// Otherwise the highest quantile, at most 0.95, that leaves ten samples
/// beyond it over all samples — the median below 20. `windows_out`
/// receives the window count (0 for the whole-sample rule).
double CloseTail(const std::vector<double>& samples, size_t* windows_out);

/// Named metrics with units, in insertion order of first use.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::map<std::string, size_t> index_;
};

/// OS counters of one process, from /proc/<pid>/{stat,status,io}.
struct ProcSample {
  double cpu_s = 0.0;          ///< utime + stime
  uint64_t ctx_invol = 0;      ///< nonvoluntary_ctxt_switches (all threads)
  uint64_t write_bytes = 0;    ///< bytes sent to the block layer
  double hwm_mb = 0.0;         ///< VmHWM
};
ProcSample ReadProc(pid_t pid);

/// JSON string literal (quotes and escapes).
std::string JsonString(const std::string& s);
/// JSON array of numbers, every digit kept.
std::string JsonArray(const std::vector<double>& v);

/// Host and build record: core count, CPU model and the ISA flags the
/// library's dispatchers key on, the active AES/SHA/support-kernel/
/// Montgomery backends, build type and the store directory's filesystem.
std::string HostJson(const std::string& store_dir);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
