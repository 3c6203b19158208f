// Fleet workloads: solh-bulk and grr-rounds.
//
// Load comes from one process: this process runs a single generator
// thread (client encode + PartitionRoutingClient) and the
// MergeCoordinator, while each partition endpoint (CollectionServer with
// a durable SegmentedRoundStore, one event thread, serial consumer) runs
// in a child process of its own. The system under test is therefore
// measured apart from its load, and each side's CPU, context switches,
// disk writes and peak memory are readable from /proc.
//
// A round is: encode every user's report and the plan's fake blanket in
// 4096-report batches, ship each batch through SendBatch, close the
// round through FinishRound (merge + calibrate), and, on grr-rounds,
// read the closed round back with QueryRound on separate connections.
// The producer reproduces ShuffleDpCollector's deterministic batch
// seeding, so the merged estimates of any round can be checked bitwise
// against CollectStreaming on the same seed.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/shuffle_dp.h"
#include "data/datasets.h"
#include "ldp/wire.h"
#include "service/coordinator.h"
#include "service/partition.h"
#include "service/partition_worker.h"
#include "service/round_store.h"
#include "service/transport.h"
#include "service/wal.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

using namespace shuffledp;

namespace {

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

struct FleetConfig {
  uint64_t d = 0;
  uint64_t n = 0;
  service::PartitionMode mode = service::PartitionMode::kByClient;
  uint32_t partitions = 2;
  /// Timed rounds a run makes at least, whatever --seconds says.
  uint64_t min_rounds = 0;
  /// Read every closed round back through kQuery.
  bool query_after_close = false;
  /// Rounds the traced run replays through the worker and store.
  uint64_t replay_rounds = 0;
};

FleetConfig ConfigFor(const std::string& workload, bool small) {
  FleetConfig c;
  if (workload == "solh-bulk") {
    // Support evaluation is O(reports × d): the kernels carry the round.
    c.d = 4096;
    c.n = small ? 20000 : 1000000;
    c.mode = service::PartitionMode::kByClient;
    c.min_rounds = small ? 2 : 5;
    c.replay_rounds = 1;
  } else {
    // GRR support is a histogram: frames, the WAL's per-record fsync,
    // finalize, compaction and the coordinator carry the round.
    c.d = 64;
    c.n = 20000;  // the planner picks GRR from here up
    c.mode = service::PartitionMode::kByValue;
    c.min_rounds = small ? 20 : 3000;
    c.query_after_close = true;
    c.replay_rounds = small ? 5 : 40;
  }
  return c;
}

constexpr size_t kBatchSize = 4096;  // StreamingOptions' default

core::ShuffleDpCollector::Options CollectorOptions(ThreadPool* pool) {
  core::ShuffleDpCollector::Options options;
  options.streaming.batch_size = kBatchSize;
  options.pool = pool;
  return options;
}

Result<std::unique_ptr<core::ShuffleDpCollector>> PlanFleet(
    const FleetConfig& c, ThreadPool* pool) {
  return core::ShuffleDpCollector::Create(core::PrivacyGoals{}, c.n, c.d,
                                          CollectorOptions(pool));
}

// ---------------------------------------------------------------------------
// Producer: ShuffleDpCollector's deterministic batch encoding, one batch
// at a time so encode and send can be timed apart.
// ---------------------------------------------------------------------------

class Producer {
 public:
  Producer(const ldp::ScalarFrequencyOracle& oracle,
           const std::vector<uint64_t>& values, uint64_t n_r, uint64_t seed)
      : oracle_(oracle), values_(values), n_r_(n_r) {
    Rng rng(seed);
    // CollectStreaming draws exactly these two words, in this order.
    base_seed_ = rng.NextU64();
    fake_seed_ = rng.NextU64();
  }

  /// Encodes the next batch into `out`; false when the round is done.
  bool Next(std::vector<uint64_t>* out) {
    out->clear();
    const uint64_t n = values_.size();
    if (lo_ < n) {
      const uint64_t hi = std::min<uint64_t>(n, lo_ + kBatchSize);
      Rng batch_rng(base_seed_ ^ (lo_ * 0x9E3779B97F4A7C15ULL));
      out->reserve(hi - lo_);
      for (uint64_t i = lo_; i < hi; ++i) {
        out->push_back(
            oracle_.PackOrdinal(oracle_.Encode(values_[i], &batch_rng)));
      }
      lo_ = hi;
      return true;
    }
    if (fake_lo_ < n_r_) {
      const uint64_t hi = std::min<uint64_t>(n_r_, fake_lo_ + kBatchSize);
      const unsigned bits = oracle_.PackedBits();
      Rng batch_rng(fake_seed_ ^ (fake_lo_ * 0x9E3779B97F4A7C15ULL + 1));
      out->reserve(hi - fake_lo_);
      for (uint64_t i = fake_lo_; i < hi; ++i) {
        out->push_back(bits >= 64 ? batch_rng.NextU64()
                                  : batch_rng.UniformU64(uint64_t{1} << bits));
      }
      fake_lo_ = hi;
      return true;
    }
    return false;
  }

 private:
  const ldp::ScalarFrequencyOracle& oracle_;
  const std::vector<uint64_t>& values_;
  uint64_t n_r_;
  uint64_t base_seed_ = 0;
  uint64_t fake_seed_ = 0;
  uint64_t lo_ = 0;
  uint64_t fake_lo_ = 0;
};

size_t VarintLen(uint64_t v) {
  size_t len = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++len;
  }
  return len;
}

/// Exact kBatchIndexed bytes for one producer batch across the fleet:
/// per endpoint a 24-byte header, the varint batch index and the
/// SerializeOrdinals payload of the ordinals it owns.
uint64_t BatchWireBytes(const ldp::ScalarFrequencyOracle& oracle,
                        const service::PartitionMap& map, uint64_t batch_index,
                        const std::vector<uint64_t>& ordinals) {
  uint64_t bytes = 0;
  for (const auto& group : map.Route(batch_index, ordinals)) {
    bytes += 24 + VarintLen(batch_index) +
             ldp::SerializeOrdinals(oracle, group).size();
  }
  return bytes;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Endpoint child processes
// ---------------------------------------------------------------------------

/// Reads one '\n'-terminated line from `fd` within `timeout_s`.
bool ReadLine(int fd, double timeout_s, std::string* line) {
  line->clear();
  const double deadline = Now() + timeout_s;
  for (;;) {
    const double left = deadline - Now();
    if (left <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    int r = poll(&p, 1, static_cast<int>(left * 1000) + 1);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    char c = 0;
    ssize_t got = read(fd, &c, 1);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    if (c == '\n') return true;
    *line += c;
  }
}

/// One endpoint child: spawned from this binary in --endpoint mode,
/// driven over its stdin/stdout, reaped by the destructor on every path
/// (EOF on stdin asks it to shut down; SIGKILL after a grace period).
class EndpointProcess {
 public:
  static std::unique_ptr<EndpointProcess> Spawn(
      const std::vector<std::string>& args, std::string* error) {
    int to_child[2], from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0) {
      *error = "pipe failed";
      return nullptr;
    }
    if (pipe2(from_child, O_CLOEXEC) != 0) {
      close(to_child[0]);
      close(to_child[1]);
      *error = "pipe failed";
      return nullptr;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
    std::vector<char*> argv;
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_t pid = -1;
    int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                         argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(to_child[0]);
    close(from_child[1]);
    if (rc != 0) {
      close(to_child[1]);
      close(from_child[0]);
      *error = std::string("posix_spawn failed: ") + std::strerror(rc);
      return nullptr;
    }
    std::unique_ptr<EndpointProcess> ep(
        new EndpointProcess(pid, to_child[1], from_child[0]));
    std::string line;
    if (!ReadLine(ep->out_fd_, 60.0, &line) || line.rfind("port ", 0) != 0) {
      *error = "endpoint did not start: " + line;
      return nullptr;  // the destructor reaps the child
    }
    ep->port_ = static_cast<uint16_t>(std::strtoul(line.c_str() + 5,
                                                   nullptr, 10));
    return ep;
  }

  ~EndpointProcess() { (void)Stop(); }
  EndpointProcess(const EndpointProcess&) = delete;
  EndpointProcess& operator=(const EndpointProcess&) = delete;

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

  /// Sends one command line and returns the child's one-line reply.
  std::string Request(const std::string& command) {
    const std::string line = command + "\n";
    if (write(in_fd_, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
      return "";
    }
    std::string reply;
    ReadLine(out_fd_, 30.0, &reply);
    return reply;
  }

  /// Asks the child to shut down and reaps it; true on a clean exit 0.
  bool Stop() {
    if (pid_ <= 0) return exit_ok_;
    if (in_fd_ >= 0) close(in_fd_);
    in_fd_ = -1;
    int status = 0;
    bool reaped = false;
    for (double deadline = Now() + 20.0; Now() < deadline;) {
      pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        reaped = true;
        break;
      }
      usleep(2000);
    }
    if (!reaped) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
    pid_ = -1;
    exit_ok_ = reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return exit_ok_;
  }

 private:
  EndpointProcess(pid_t pid, int in_fd, int out_fd)
      : pid_(pid), in_fd_(in_fd), out_fd_(out_fd) {}

  pid_t pid_;
  int in_fd_;
  int out_fd_;
  uint16_t port_ = 0;
  bool exit_ok_ = false;
};

uint64_t JsonU64(const std::string& json, const std::string& key) {
  size_t pos = json.find("\"" + key + "\":");
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + key.size() + 3, nullptr, 10);
}

/// Endpoints + routing client + coordinator: one fleet set-up. Members
/// are destroyed in reverse order: the query connections, the
/// coordinator and the routing client first, then the endpoint processes
/// are asked to exit and reaped.
struct Fleet {
  std::vector<std::unique_ptr<EndpointProcess>> endpoints;
  std::unique_ptr<service::PartitionRoutingClient> routing;
  std::unique_ptr<service::MergeCoordinator> coordinator;
  std::vector<std::unique_ptr<service::CollectorClient>> query_clients;
};

std::string MakeDir(const std::string& path) {
  mkdir(path.c_str(), 0755);
  return path;
}

/// Planner, endpoint processes (each opens its store and recovers),
/// connections and kHello handshakes — everything before the first
/// report is ready to send.
bool SetUpFleet(const Args& args, const FleetConfig& c,
                const ldp::ScalarFrequencyOracle& oracle,
                const service::PartitionMap& map, const std::string& dir,
                Fleet* fleet, std::string* error) {
  MakeDir(dir);
  std::vector<service::EndpointAddress> addresses;
  for (uint32_t p = 0; p < c.partitions; ++p) {
    std::vector<std::string> argv = {
        "perfbench_endpoint", "--endpoint",  args.workload,
        "--partition",        std::to_string(p), "--store",
        MakeDir(dir + "/p" + std::to_string(p))};
    if (args.small) argv.push_back("--small");
    auto ep = EndpointProcess::Spawn(argv, error);
    if (ep == nullptr) return false;
    addresses.push_back({"127.0.0.1", ep->port()});
    fleet->endpoints.push_back(std::move(ep));
  }
  auto routing =
      service::PartitionRoutingClient::Connect(oracle, map, addresses);
  if (!routing.ok()) {
    *error = "fleet handshake failed: " + routing.status().ToString();
    return false;
  }
  fleet->routing = std::move(*routing);
  fleet->coordinator = std::make_unique<service::MergeCoordinator>(
      oracle, fleet->routing.get());
  if (c.query_after_close) {
    for (const auto& a : addresses) {
      auto client = service::CollectorClient::Connect(a.host, a.port);
      if (!client.ok()) {
        *error = "query connection failed: " + client.status().ToString();
        return false;
      }
      fleet->query_clients.push_back(std::move(*client));
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Rounds
// ---------------------------------------------------------------------------

struct RoundSample {
  double wall_s = 0.0;   ///< encode start -> calibrated estimate
  double close_s = 0.0;  ///< FinishRound
  uint64_t wire_bytes = 0;
  double mse = 0.0;
  bool traced = false;
};

/// One live round. Failures are returned as a message; the caller
/// counts them.
std::string RunRound(const FleetConfig& c, const core::ShuffleDpCollector& col,
                     const service::PartitionMap& map, Fleet* fleet,
                     const std::vector<uint64_t>& values,
                     const std::vector<double>& truth, uint64_t round_id,
                     uint64_t producer_seed, Tracer* tracer, RoundSample* s,
                     service::RoundResult* result_out) {
  const auto& oracle = col.oracle();
  const uint64_t n_r = col.plan().n_r;
  Producer producer(oracle, values, n_r, producer_seed);
  std::vector<std::vector<uint64_t>> sent;
  std::string error;

  const int round_span = tracer->Begin("round", round_id);
  s->traced = tracer->on();
  const double t0 = Now();
  uint64_t batch_index = 0;
  for (;;) {
    std::vector<uint64_t> batch;
    bool more;
    {
      ScopedSpan span(tracer, "ldp.encode", round_id);
      more = producer.Next(&batch);
    }
    if (!more) break;
    Status st;
    {
      ScopedSpan span(tracer, "transport.send", round_id);
      st = fleet->routing->SendBatch(round_id, batch_index, batch);
    }
    if (!st.ok()) {
      error = "SendBatch: " + st.ToString();
      break;
    }
    sent.push_back(std::move(batch));
    ++batch_index;
  }
  Result<service::RoundResult> result = Status::Internal("not closed");
  if (error.empty()) {
    ScopedSpan span(tracer, "coordinator.close", round_id);
    const double c0 = Now();
    result = fleet->coordinator->FinishRound(round_id, values.size(), n_r,
                                             service::Calibration::kOrdinal);
    s->close_s = Now() - c0;
  }
  s->wall_s = Now() - t0;
  if (error.empty() && !result.ok()) {
    error = "FinishRound: " + result.status().ToString();
  }
  if (error.empty() && c.query_after_close) {
    ScopedSpan span(tracer, "service.query", round_id);
    uint64_t decoded = 0;
    for (auto& client : fleet->query_clients) {
      auto q = client->QueryRound(round_id);
      if (!q.ok() || q->status != service::RoundStatus::kFinalized) {
        error = "QueryRound: " +
                (q.ok() ? std::string("round not finalized")
                        : q.status().ToString());
        break;
      }
      decoded += q->result.reports_decoded;
    }
    if (error.empty() && decoded != result->reports_decoded) {
      error = "QueryRound: stored rows disagree with the merged result";
    }
  }
  tracer->End(round_span);
  if (!error.empty()) return error;

  const uint64_t offered = values.size() + n_r;
  if (result->reports_decoded + result->reports_invalid != offered) {
    return "lost rows: decoded + invalid = " +
           std::to_string(result->reports_decoded + result->reports_invalid) +
           ", offered " + std::to_string(offered);
  }
  if (!fleet->coordinator->last_round_health().all_healthy()) {
    return "unhealthy round: " +
           fleet->coordinator->last_round_health().ToString();
  }
  for (uint64_t b = 0; b < sent.size(); ++b) {
    s->wire_bytes += BatchWireBytes(oracle, map, b, sent[b]);
  }
  s->mse = Mse(result->estimates, truth);
  if (!std::isfinite(s->mse)) return "estimates have the wrong size";
  *result_out = std::move(*result);
  return "";
}

// ---------------------------------------------------------------------------
// Traced-run replays: what the endpoints do out of sight, re-run through
// the layers' public functions on the same generated inputs.
// ---------------------------------------------------------------------------

/// RoundStore decorator that times every call the worker makes and
/// keeps the serialized deltas for the WAL replay.
class TimedStore : public service::RoundStore {
 public:
  explicit TimedStore(std::shared_ptr<service::RoundStore> inner)
      : inner_(std::move(inner)) {}

  bool WantsDeltas() const override { return inner_->WantsDeltas(); }
  Status AppendDelta(const service::RoundDelta& delta,
                     const SnapshotFn& snapshot) override {
    const double t0 = Now();
    Status st = inner_->AppendDelta(delta, snapshot);
    std::lock_guard<std::mutex> lock(mu);
    append_ms.push_back((Now() - t0) * 1e3);
    if (deltas.size() < 256) deltas.push_back(SerializeRoundDelta(delta));
    return st;
  }
  Status FinalizeRound(const service::RoundJournal& journal,
                       uint64_t batches_consumed) override {
    const double t0 = Now();
    Status st = inner_->FinalizeRound(journal, batches_consumed);
    std::lock_guard<std::mutex> lock(mu);
    finalize_ms.push_back((Now() - t0) * 1e3);
    return st;
  }
  Status CloseRound(uint64_t round_id) override {
    const double t0 = Now();
    Status st = inner_->CloseRound(round_id);
    std::lock_guard<std::mutex> lock(mu);
    close_ms.push_back((Now() - t0) * 1e3);
    return st;
  }
  Status AbandonRound(uint64_t round_id) override {
    return inner_->AbandonRound(round_id);
  }
  Result<std::vector<service::StoredRound>> LoadAll() override {
    return inner_->LoadAll();
  }
  Result<service::RoundLookup> Query(uint64_t round_id) override {
    return inner_->Query(round_id);
  }

  std::mutex mu;  ///< guards the samples below
  std::vector<double> append_ms, finalize_ms, close_ms;
  std::vector<Bytes> deltas;

 private:
  std::shared_ptr<service::RoundStore> inner_;
};

struct PartitionReplay {
  service::SegmentedRoundStore* segmented = nullptr;  ///< owned by `store`
  std::shared_ptr<TimedStore> store;
  std::unique_ptr<service::PartitionWorker> worker;
  std::vector<service::StreamingStats> stats;
  std::vector<std::vector<uint64_t>> supports;  ///< per replayed round
  std::vector<uint64_t> decoded, invalid;
  std::vector<double> compact_ms;
  std::string error;
};

service::ReportBatch OrdinalBatch(const ldp::ScalarFrequencyOracle& oracle,
                                  std::vector<uint64_t> ordinals) {
  auto shared = std::make_shared<std::vector<uint64_t>>(std::move(ordinals));
  const ldp::ScalarFrequencyOracle* o = &oracle;
  service::ReportBatch batch;
  batch.count = shared->size();
  batch.decode = [shared, o](uint64_t i) -> Result<service::DecodedRow> {
    service::DecodedRow row;
    auto rep = o->UnpackOrdinal((*shared)[i]);
    if (!rep.ok()) return row;  // padding ordinal: an invalid row
    row.report = *rep;
    row.valid = true;
    return row;
  };
  return batch;
}

}  // namespace

// ---------------------------------------------------------------------------
// Endpoint mode
// ---------------------------------------------------------------------------

int EndpointMain(int argc, char** argv) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  std::string workload, store;
  uint32_t partition = 0;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--endpoint" && i + 1 < argc) workload = argv[++i];
    else if (a == "--partition" && i + 1 < argc)
      partition = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    else if (a == "--store" && i + 1 < argc) store = argv[++i];
    else if (a == "--small") small = true;
  }
  const FleetConfig c = ConfigFor(workload, small);
  auto col = PlanFleet(c, nullptr);
  if (!col.ok()) {
    std::printf("error planner: %s\n", col.status().ToString().c_str());
    return 1;
  }
  auto map = service::PartitionMap::Create((*col)->oracle(), c.mode,
                                           c.partitions);
  if (!map.ok()) {
    std::printf("error map: %s\n", map.status().ToString().c_str());
    return 1;
  }
  service::CollectionServerOptions options;
  options.partition_map = *map;
  options.partition_id = partition;
  options.event_threads = 1;
  options.streaming.batch_size = kBatchSize;
  options.streaming.pool = nullptr;  // serial consumer
  options.streaming.round_store.dir = store;
  auto server = service::CollectionServer::Start((*col)->oracle(), options);
  if (!server.ok()) {
    std::printf("error start: %s\n", server.status().ToString().c_str());
    return 1;
  }
  std::printf("port %u\n", (*server)->port());
  std::fflush(stdout);
  char line[256];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    if (std::strncmp(line, "stats", 5) == 0) {
      const service::CollectionServerStats s = (*server)->stats();
      std::printf(
          "{\"frames_handled\": %llu, \"protocol_errors\": %llu, "
          "\"evictions\": %llu, \"batches_deduped\": %llu, "
          "\"connections_accepted\": %llu}\n",
          static_cast<unsigned long long>(s.frames_handled),
          static_cast<unsigned long long>(s.protocol_errors),
          static_cast<unsigned long long>(s.evicted_idle + s.evicted_slow +
                                          s.evicted_overflow),
          static_cast<unsigned long long>(s.batches_deduped),
          static_cast<unsigned long long>(s.connections_accepted));
      std::fflush(stdout);
    }
  }
  (*server)->Shutdown();
  return 0;
}

// ---------------------------------------------------------------------------
// The fleet run
// ---------------------------------------------------------------------------

namespace {

struct ReplayResult {
  std::vector<double> decode_s, busy_s, support_eval_s, backpressure,
      high_water, support_evals;
  double store_s = 0.0;  ///< slowest partition's store time per round
  std::vector<double> append_ms, finalize_ms, compact_ms, query_ms;
  std::vector<double> wal_append_us, wal_sync_ms;
  double load_all_s = 0.0;
  std::vector<double> merge_calibrate_ms;
  std::string error;
};

/// Replays live rounds' inputs (one producer seed per round) into one
/// PartitionWorker per partition (the endpoints' StreamingOptions, each
/// with a timed SegmentedRoundStore in a fresh directory), then times
/// compaction, LoadAll, Query, raw WAL appends/fsyncs and merge +
/// calibrate. The last seed's merge must reproduce `last_live` bitwise.
ReplayResult ReplayLayers(const FleetConfig& c,
                          const core::ShuffleDpCollector& col,
                          const service::PartitionMap& map,
                          const std::vector<uint64_t>& values,
                          const std::vector<uint64_t>& seeds,
                          const service::RoundResult& last_live,
                          const std::string& dir) {
  ReplayResult out;
  const auto& oracle = col.oracle();
  const uint64_t n_r = col.plan().n_r;
  MakeDir(dir);
  std::vector<PartitionReplay> parts(c.partitions);
  for (uint32_t p = 0; p < c.partitions; ++p) {
    const service::PartitionSlice slice = map.SliceOf(p);
    service::RoundStoreOptions so;
    so.dir = MakeDir(dir + "/store" + std::to_string(p));
    so.partition_index = p;
    so.partition_count = c.partitions;
    so.slice_lo = slice.full_domain() ? 0 : slice.lo;
    so.slice_width = slice.full_domain() ? c.d : slice.hi - slice.lo;
    auto opened = service::SegmentedRoundStore::Open(so);
    if (!opened.ok()) {
      out.error = "replay store open: " + opened.status().ToString();
      return out;
    }
    parts[p].segmented = opened->get();
    std::shared_ptr<service::RoundStore> inner(std::move(*opened));
    parts[p].store = std::make_shared<TimedStore>(inner);
    service::StreamingOptions opts;
    opts.batch_size = kBatchSize;
    opts.pool = nullptr;
    opts.partition = slice;
    opts.store = parts[p].store;
    parts[p].worker = std::make_unique<service::PartitionWorker>(oracle, opts);
  }

  for (size_t r = 0; r < seeds.size(); ++r) {
    // Route the round's batches exactly as the routing client does.
    std::vector<std::vector<std::vector<uint64_t>>> routed(c.partitions);
    Producer producer(oracle, values, n_r, seeds[r]);
    std::vector<uint64_t> batch;
    for (uint64_t b = 0; producer.Next(&batch); ++b) {
      auto groups = map.Route(b, batch);
      for (uint32_t p = 0; p < c.partitions; ++p) {
        routed[p].push_back(std::move(groups[p]));
      }
    }
    // Partitions replay concurrently, like the endpoints.
    std::vector<std::thread> feeders;
    for (uint32_t p = 0; p < c.partitions; ++p) {
      feeders.emplace_back([&, p] {
        PartitionReplay& pr = parts[p];
        for (auto& group : routed[p]) {
          Status st = pr.worker->Offer(OrdinalBatch(oracle, std::move(group)));
          if (!st.ok()) {
            pr.error = st.ToString();
            return;
          }
        }
        auto res = pr.worker->FinishRound(values.size(), n_r,
                                          service::Calibration::kNone);
        if (!res.ok()) {
          pr.error = res.status().ToString();
          return;
        }
        pr.stats.push_back(res->stats);
        pr.supports.push_back(std::move(res->supports));
        pr.decoded.push_back(res->reports_decoded);
        pr.invalid.push_back(res->reports_invalid);
        const double t0 = Now();
        Status st = pr.segmented->CompactNow();
        pr.compact_ms.push_back((Now() - t0) * 1e3);
        if (!st.ok()) pr.error = "CompactNow: " + st.ToString();
      });
    }
    for (auto& t : feeders) t.join();
    for (auto& pr : parts) {
      if (!pr.error.empty()) {
        out.error = "replay: " + pr.error;
        return out;
      }
    }
  }

  for (size_t r = 0; r < seeds.size(); ++r) {
    double decode = 0, busy = 0, support = 0, evals = 0;
    double waits = 0, high = 0;
    for (uint32_t p = 0; p < c.partitions; ++p) {
      const service::StreamingStats& s = parts[p].stats[r];
      const service::PartitionSlice slice = map.SliceOf(p);
      const double width = slice.full_domain()
                               ? static_cast<double>(c.d)
                               : static_cast<double>(slice.hi - slice.lo);
      // The slowest partition sets the round's time: report the max.
      decode = std::max(decode, s.decode_seconds);
      busy = std::max(busy, s.busy_seconds);
      support = std::max(support, s.support_eval_seconds);
      evals += static_cast<double>(s.rows_aggregated) * width;
      waits += static_cast<double>(s.backpressure_waits);
      high = std::max(high, static_cast<double>(s.queue_high_water));
    }
    out.decode_s.push_back(decode);
    out.busy_s.push_back(busy);
    out.support_eval_s.push_back(support);
    out.support_evals.push_back(evals);
    out.backpressure.push_back(waits);
    out.high_water.push_back(high);
  }
  // Store time per round: appends + finalize + close + compaction, of
  // the slowest partition.
  for (auto& pr : parts) {
    std::lock_guard<std::mutex> lock(pr.store->mu);
    double sum_ms = 0.0;
    for (const auto* samples : {&pr.store->append_ms, &pr.store->finalize_ms,
                                &pr.store->close_ms, &pr.compact_ms}) {
      for (double x : *samples) sum_ms += x;
    }
    out.store_s = std::max(
        out.store_s, sum_ms / 1e3 / static_cast<double>(seeds.size()));
    out.append_ms.insert(out.append_ms.end(), pr.store->append_ms.begin(),
                         pr.store->append_ms.end());
    out.finalize_ms.insert(out.finalize_ms.end(),
                           pr.store->finalize_ms.begin(),
                           pr.store->finalize_ms.end());
    out.compact_ms.insert(out.compact_ms.end(), pr.compact_ms.begin(),
                          pr.compact_ms.end());
  }

  // LoadAll and Query over partition 0's store (what recovery and the
  // kQuery handler read).
  {
    const double t0 = Now();
    auto all = parts[0].segmented->LoadAll();
    out.load_all_s = Now() - t0;
    if (!all.ok()) {
      out.error = "LoadAll: " + all.status().ToString();
      return out;
    }
    for (const auto& stored : *all) {
      for (int k = 0; k < 5; ++k) {
        const double q0 = Now();
        auto q = parts[0].segmented->Query(stored.round_id());
        out.query_ms.push_back((Now() - q0) * 1e3);
        if (!q.ok()) {
          out.error = "Query: " + q.status().ToString();
          return out;
        }
      }
    }
  }

  // Raw WAL: the recorded delta payloads appended and fsynced one by one
  // (the store's default sync_every_records=1 cadence).
  {
    service::WriteAheadLog::Options wo;
    wo.path = dir + "/raw-wal.log";
    auto wal = service::WriteAheadLog::Open(wo);
    if (!wal.ok()) {
      out.error = "WAL open: " + wal.status().ToString();
      return out;
    }
    uint64_t lsn = 1;
    for (const Bytes& payload : parts[0].store->deltas) {
      const double t0 = Now();
      Status st =
          (*wal)->Append(service::WalRecordType::kDelta, lsn++, payload);
      const double t1 = Now();
      if (st.ok()) st = (*wal)->Sync();
      const double t2 = Now();
      if (!st.ok()) {
        out.error = "WAL: " + st.ToString();
        return out;
      }
      out.wal_append_us.push_back((t1 - t0) * 1e6);
      out.wal_sync_ms.push_back((t2 - t1) * 1e3);
    }
  }

  // Merge + calibrate of the last replayed round; must reproduce the
  // live round's estimates bitwise.
  {
    const size_t r = seeds.size() - 1;
    std::vector<std::vector<uint64_t>> per_part;
    uint64_t decoded = 0, invalid = 0;
    for (auto& pr : parts) {
      per_part.push_back(pr.supports[r]);
      decoded += pr.decoded[r];
      invalid += pr.invalid[r];
    }
    service::RoundResult merged_result;
    for (int k = 0; k < 21; ++k) {
      const double t0 = Now();
      auto merged = map.MergeSupports(per_part);
      if (!merged.ok()) {
        out.error = "MergeSupports: " + merged.status().ToString();
        return out;
      }
      merged_result = service::FinalizeRoundResult(
          oracle, std::move(*merged), values.size(), n_r,
          service::Calibration::kOrdinal, decoded, invalid, 0, 0);
      out.merge_calibrate_ms.push_back((Now() - t0) * 1e3);
    }
    if (!BitwiseEqual(merged_result.estimates, last_live.estimates) ||
        merged_result.supports != last_live.supports) {
      out.error = "replayed merge + calibrate differs from the live round";
    }
  }
  return out;
}

}  // namespace

int RunFleet(const Args& args, RunResult* out) {
  const FleetConfig c = ConfigFor(args.workload, args.small);
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool reference_pool(threads);
  Metrics& e2e = out->e2e;
  Metrics& L = out->layers;

  // -- Set-up, several times; the last fleet stays up for the rounds.
  constexpr int kSetups = 5;
  std::vector<double> setup_s, plan_s;
  std::unique_ptr<core::ShuffleDpCollector> col;
  std::unique_ptr<service::PartitionMap> map;
  std::unique_ptr<Fleet> fleet_ptr;
  for (int k = 0; k < kSetups; ++k) {
    fleet_ptr.reset();  // reaps the previous set-up's endpoints
    fleet_ptr = std::make_unique<Fleet>();
    const double t0 = Now();
    auto planned = PlanFleet(c, &reference_pool);
    if (!planned.ok()) {
      out->Fail("planner: " + planned.status().ToString());
      return 1;
    }
    plan_s.push_back(Now() - t0);
    col = std::move(*planned);
    auto m = service::PartitionMap::Create(col->oracle(), c.mode, c.partitions);
    if (!m.ok()) {
      out->Fail("partition map: " + m.status().ToString());
      return 1;
    }
    map = std::make_unique<service::PartitionMap>(*m);
    std::string error;
    if (!SetUpFleet(args, c, col->oracle(), *map,
                    args.scratch + "/fleet" + std::to_string(k),
                    fleet_ptr.get(),
                    &error)) {
      out->Fail(error);
      return 1;
    }
    setup_s.push_back(Now() - t0);
  }
  Fleet& fleet = *fleet_ptr;
  const uint64_t n_r = col->plan().n_r;
  out->Note("plan", JsonString(col->plan().ToString()));
  out->Note("users_per_round", std::to_string(c.n));
  out->Note("fake_reports_per_round", std::to_string(n_r));
  out->Note("domain", std::to_string(c.d));
  out->Note("partitions", std::to_string(c.partitions));
  out->Note("partition_mode", c.mode == service::PartitionMode::kByValue
                                  ? "\"by-value\""
                                  : "\"by-client\"");
  out->Note("endpoint", "{\"event_threads\": 1, \"consumer\": \"serial\", "
                        "\"store\": \"segmented, sync_every_records=1\"}");
  out->Note("setups", std::to_string(kSetups));

  Rng dataset_rng(DeriveSeed(args.seed, kDatasetStream, 0));
  const std::vector<uint64_t> values =
      data::MakeZipfDataset("perfbench", c.n, c.d, 1.0,
                            dataset_rng.NextU64())
          .values;
  const std::vector<double> truth = TrueFrequencies(values, c.d);

  Tracer traced(args.trace);
  Tracer untraced(false);
  uint64_t round_id = fleet.routing->round_id(0);

  // -- Warm-up round (round index 0): not timed, always gated.
  std::vector<uint64_t> seeds;       // producer seed per round index
  std::vector<service::RoundResult> gate_results;
  std::vector<uint64_t> gate_rounds;  // round indices kept for the gate
  std::vector<RoundSample> samples;
  auto run_one = [&](uint64_t index, bool timed, Tracer* tracer) {
    const uint64_t seed = DeriveSeed(args.seed, kRoundStream, index);
    seeds.push_back(seed);
    RoundSample s;
    service::RoundResult result;
    ++out->attempted;
    const std::string error = RunRound(c, *col, *map, &fleet, values, truth,
                                       round_id, seed, tracer, &s, &result);
    ++round_id;
    if (!error.empty()) {
      ++out->failed;
      out->Fail("round " + std::to_string(index) + ": " + error);
      return false;
    }
    const bool keep = index == 0 || index % 100 == 1;
    if (keep) {
      gate_rounds.push_back(index);
      gate_results.push_back(std::move(result));
    }
    if (timed) samples.push_back(s);
    return true;
  };
  if (!run_one(0, false, &untraced)) return 1;

  // -- Timed rounds; the traced run alternates traced/untraced rounds so
  // the tracing overhead is measured inside one run.
  std::vector<ProcSample> before;
  before.push_back(ReadProc(getpid()));
  for (auto& ep : fleet.endpoints) before.push_back(ReadProc(ep->pid()));
  const double timed_t0 = Now();
  uint64_t index = 1;
  while (samples.size() < c.min_rounds || Now() - timed_t0 < args.seconds) {
    Tracer* tracer = args.trace && index % 2 == 1 ? &traced : &untraced;
    if (!run_one(index, true, tracer)) break;
    ++index;
  }
  const double timed_wall = Now() - timed_t0;
  std::vector<ProcSample> after;
  after.push_back(ReadProc(getpid()));
  for (auto& ep : fleet.endpoints) after.push_back(ReadProc(ep->pid()));

  // Endpoint counters.
  uint64_t frames = 0, protocol_errors = 0, evictions = 0, deduped = 0;
  for (auto& ep : fleet.endpoints) {
    const std::string s = ep->Request("stats");
    frames += JsonU64(s, "frames_handled");
    protocol_errors += JsonU64(s, "protocol_errors");
    evictions += JsonU64(s, "evictions");
    deduped += JsonU64(s, "batches_deduped");
  }
  double peak_rss_mb = 0.0;
  for (auto& ep : fleet.endpoints) peak_rss_mb += ReadProc(ep->pid()).hwm_mb;
  if (protocol_errors + evictions > 0) {
    out->Fail("endpoints counted " + std::to_string(protocol_errors) +
              " protocol errors and " + std::to_string(evictions) +
              " evictions");
    out->failed = std::min(out->attempted,
                           out->failed + protocol_errors + evictions);
  }

  // -- Correctness gate (outside the timed rounds): bitwise against the
  // in-process CollectStreaming on the same seeds.
  for (size_t g = 0; g < gate_rounds.size(); ++g) {
    Rng rng(seeds[gate_rounds[g]]);
    auto reference = col->CollectStreaming(values, &rng);
    if (!reference.ok()) {
      out->Fail("CollectStreaming: " + reference.status().ToString());
      ++out->failed;
      continue;
    }
    if (args.perturb_reference && !reference->estimates.empty()) {
      reference->estimates[0] =
          std::nextafter(reference->estimates[0], INFINITY);
    }
    if (!BitwiseEqual(gate_results[g].estimates, reference->estimates) ||
        gate_results[g].supports != reference->supports) {
      out->Fail("round " + std::to_string(gate_rounds[g]) +
                ": fleet estimates differ from CollectStreaming");
      out->failed = std::min(out->attempted, out->failed + 1);
    }
  }
  out->Note("gate_rounds_checked_bitwise", std::to_string(gate_rounds.size()));

  // -- End-to-end metrics (median timed round).
  std::vector<double> walls, closes, bytes, mses;
  std::vector<double> walls_traced, walls_untraced;
  for (const auto& s : samples) {
    walls.push_back(s.wall_s);
    closes.push_back(s.close_s * 1e3);
    bytes.push_back(static_cast<double>(s.wire_bytes));
    mses.push_back(s.mse);
    (s.traced ? walls_traced : walls_untraced).push_back(s.wall_s);
  }
  const double wall = Median(walls);
  e2e.Set("users_per_s", wall > 0 ? static_cast<double>(c.n) / wall : 0.0,
          "1/s");
  e2e.Set("close_ms_p50", Median(closes), "ms");
  size_t tail_windows = 0;
  e2e.Set("close_ms_p95", CloseTail(closes, &tail_windows), "ms");
  e2e.Set("setup_s", Median(setup_s), "s");
  e2e.Set("peak_rss_mb", peak_rss_mb, "MB");
  e2e.Set("wire_bytes_per_user",
          Median(bytes) / static_cast<double>(c.n), "bytes");
  e2e.Set("mse", Mean(mses), "1");
  e2e.Set("rounds_ok_frac",
          out->attempted ? 1.0 - static_cast<double>(out->failed) /
                                     static_cast<double>(out->attempted)
                         : 0.0,
          "1");
  out->Note("timed_rounds", std::to_string(samples.size()));
  out->Note("close_samples", std::to_string(closes.size()));
  out->Note("close_ms_p95_windows", std::to_string(tail_windows));
  out->Note("close_ms_quantiles_50_90_95_99_999",
            JsonArray({Median(closes), Percentile(closes, 0.9),
                       Percentile(closes, 0.95), Percentile(closes, 0.99),
                       Percentile(closes, 0.999)}));
  out->Note("round_wall_s_quartiles",
            JsonArray({Percentile(walls, 0.25), Median(walls),
                       Percentile(walls, 0.75)}));
  {
    // Recorded, not gated: the bitwise gate above pins the estimates.
    const double predicted = col->plan().predicted_variance;
    out->Note("predicted_variance", JsonArray({predicted}));
    out->Note("mse_over_predicted_variance",
              JsonArray({predicted > 0 ? Mean(mses) / predicted : 0.0}));
  }

  // -- Per-layer metrics.
  const double rounds =
      static_cast<double>(std::max<size_t>(1, samples.size()));
  L.Set("core.plan_s", Median(plan_s), "s");
  L.Set("transport.frames",
        static_cast<double>(frames) / static_cast<double>(out->attempted),
        "count");
  L.Set("transport.protocol_errors", static_cast<double>(protocol_errors),
        "count");
  L.Set("transport.evictions", static_cast<double>(evictions), "count");
  L.Set("transport.batches_deduped", static_cast<double>(deduped), "count");
  const char* proc_names[] = {"os.gen", "os.ep0", "os.ep1"};
  for (size_t i = 0; i < before.size() && i < 3; ++i) {
    const double cpu = after[i].cpu_s - before[i].cpu_s;
    L.Set(std::string(proc_names[i]) + ".cpu_s", cpu / rounds, "s");
    L.Set(std::string(proc_names[i]) + ".cpu_util",
          timed_wall > 0 ? cpu / timed_wall : 0.0, "ratio");
    L.Set(std::string(proc_names[i]) + ".ctx_invol",
          static_cast<double>(after[i].ctx_invol - before[i].ctx_invol) /
              rounds,
          "count");
  }
  uint64_t written = 0;
  for (size_t i = 1; i < before.size(); ++i) {
    written += after[i].write_bytes - before[i].write_bytes;
  }
  L.Set("os.write_bytes", static_cast<double>(written) / rounds, "bytes");

  if (args.trace && out->failed == 0) {
    // Live span attribution over the traced rounds.
    const RoundAttribution at = AttributeRounds(traced);
    const double rw = Median(at.wall);
    L.Set("round.wall_s", rw, "s");
    L.Set("round.unattributed_s", Median(at.unattributed), "s");
    L.Set("trace.sum_error_s", Percentile(at.sum_error, 1.0), "s");
    L.Set("ldp.encode_s", at.MedianSelf("ldp.encode"), "s");
    L.Set("transport.send_s", at.MedianSelf("transport.send"), "s");
    L.Set("coordinator.close_s", at.MedianSelf("coordinator.close"), "s");
    L.Set("service.query_ms", at.MedianSelf("service.query") * 1e3, "ms");
    if (rw > 0) {
      L.Set("share.ldp_encode", at.MedianSelf("ldp.encode") / rw, "ratio");
      L.Set("share.transport_send", at.MedianSelf("transport.send") / rw,
            "ratio");
      L.Set("share.coordinator_close",
            at.MedianSelf("coordinator.close") / rw, "ratio");
      L.Set("share.service_query", at.MedianSelf("service.query") / rw,
            "ratio");
      L.Set("share.unattributed", Median(at.unattributed) / rw, "ratio");
    }
    if (!walls_untraced.empty() && !walls_traced.empty()) {
      L.Set("trace.overhead_frac",
            Median(walls_traced) / Median(walls_untraced) - 1.0, "ratio");
    }

    // Replay the endpoints' hidden layers on live rounds' inputs: rounds
    // 2..replay_rounds for store-cadence samples, then round 1, whose
    // live result the gate kept, last (its merge is compared bitwise).
    std::vector<uint64_t> replay_seeds;
    for (uint64_t k = 2; k <= c.replay_rounds && k < seeds.size(); ++k) {
      replay_seeds.push_back(seeds[k]);
    }
    const auto first = std::find(gate_rounds.begin(), gate_rounds.end(), 1);
    if (first == gate_rounds.end()) {
      out->Fail("traced run has no round to replay");
      return 1;
    }
    replay_seeds.push_back(seeds[1]);
    ReplayResult rep = ReplayLayers(
        c, *col, *map, values, replay_seeds,
        gate_results[first - gate_rounds.begin()], args.scratch + "/replay");
    if (!rep.error.empty()) {
      out->Fail(rep.error);
      ++out->failed;
    } else {
      L.Set("worker.decode_s", Median(rep.decode_s), "s");
      L.Set("worker.busy_s", Median(rep.busy_s), "s");
      L.Set("worker.support_eval_s", Median(rep.support_eval_s), "s");
      L.Set("worker.backpressure_waits", Median(rep.backpressure), "count");
      L.Set("worker.queue_high_water", Percentile(rep.high_water, 1.0),
            "count");
      const double evals = Median(rep.support_evals);
      L.Set("ldp.support_evals", evals, "count");
      L.Set("ldp.ns_per_eval",
            evals > 0 ? Median(rep.support_eval_s) * 1e9 /
                            (evals / c.partitions)
                      : 0.0,
            "ns");
      L.Set("round_store.append_ms_p50", Median(rep.append_ms), "ms");
      L.Set("round_store.finalize_ms_p50", Median(rep.finalize_ms), "ms");
      L.Set("round_store.compact_ms_p50", Median(rep.compact_ms), "ms");
      L.Set("round_store.load_all_s", rep.load_all_s, "s");
      L.Set("round_store.query_ms_p50", Median(rep.query_ms), "ms");
      L.Set("wal.append_us_p50", Median(rep.wal_append_us), "us");
      L.Set("wal.sync_ms_p50", Median(rep.wal_sync_ms), "ms");
      L.Set("coordinator.merge_calibrate_ms", Median(rep.merge_calibrate_ms),
            "ms");
      if (rw > 0) {
        L.Set("share.support_eval", Median(rep.support_eval_s) / rw, "ratio");
        L.Set("share.worker_decode", Median(rep.decode_s) / rw, "ratio");
        L.Set("share.round_store", rep.store_s / rw, "ratio");
      }
    }
    if (!args.spans_out.empty()) traced.Write(args.spans_out);
  }

  // -- Tear down: every endpoint must exit cleanly.
  for (auto& ep : fleet.endpoints) {
    if (!ep->Stop()) out->Fail("endpoint did not exit cleanly");
  }
  return out->correct ? 0 : 1;
}

}  // namespace perfbench
