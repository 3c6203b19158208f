#include "common.h"

#include <dirent.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "crypto/aes.h"
#include "crypto/montgomery.h"
#include "crypto/sha256.h"
#include "ldp/support_kernels.h"

namespace perfbench {

double Now() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream * 0x100000001B3ULL +
                                               index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int Tracer::Begin(const std::string& name, uint64_t round) {
  if (!on_) return -1;
  Span span;
  span.name = name;
  span.round = round;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = Now();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[id].end = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::SelfTimes() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end - s.start;
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": %s, \"round\": %llu, "
                 "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                 i, JsonString(s.name).c_str(),
                 static_cast<unsigned long long>(s.round), s.parent, s.start,
                 s.end, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::vector<double> TrueFrequencies(const std::vector<uint64_t>& values,
                                    uint64_t d) {
  std::vector<double> f(d, 0.0);
  for (uint64_t v : values) f[v] += 1.0;
  for (double& x : f) x /= static_cast<double>(values.size());
  return f;
}

double Mse(const std::vector<double>& est, const std::vector<double>& truth) {
  if (est.size() != truth.size() || truth.empty()) return INFINITY;
  double s = 0.0;
  for (size_t i = 0; i < est.size(); ++i) {
    const double e = est[i] - truth[i];
    s += e * e;
  }
  return s / static_cast<double>(truth.size());
}

RoundAttribution AttributeRounds(const Tracer& tracer) {
  RoundAttribution out;
  const auto& spans = tracer.spans();
  const std::vector<double> self = tracer.SelfTimes();
  std::vector<std::string> names;
  for (const auto& s : spans) {
    if (std::find(names.begin(), names.end(), s.name) == names.end()) {
      names.push_back(s.name);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != -1) continue;
    // A round's descendants are the spans that follow it until the next
    // top-level span (one thread, LIFO nesting).
    std::map<std::string, double> by_name;
    double descendants = 0.0;
    for (size_t j = i + 1; j < spans.size() && spans[j].parent != -1; ++j) {
      by_name[spans[j].name] += self[j];
      descendants += self[j];
    }
    const double wall = spans[i].end - spans[i].start;
    out.wall.push_back(wall);
    out.unattributed.push_back(self[i]);
    out.sum_error.push_back(std::fabs(descendants + self[i] - wall));
    for (const auto& name : names) {
      if (name != spans[i].name) {
        out.self_by_name[name].push_back(by_name[name]);
      }
    }
  }
  return out;
}

double RoundAttribution::MedianSelf(const std::string& name) const {
  auto it = self_by_name.find(name);
  return it == self_by_name.end() ? 0.0 : Median(it->second);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double CloseTail(const std::vector<double>& samples, size_t* windows_out) {
  constexpr size_t kWindow = 200;
  *windows_out = 0;
  if (samples.size() < 2 * kWindow) {
    if (samples.size() < 20) return Median(samples);
    return Percentile(samples,
                      std::min(0.95, 1.0 - 10.0 / static_cast<double>(
                                                      samples.size())));
  }
  std::vector<double> window_p95;
  for (size_t lo = 0; lo + kWindow <= samples.size(); lo += kWindow) {
    const auto first = samples.begin() + static_cast<ptrdiff_t>(lo);
    window_p95.push_back(Percentile(
        std::vector<double>(first, first + kWindow), 0.95));
  }
  *windows_out = window_p95.size();
  return Median(window_p95);
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    entries_[it->second] = {name, value, unit};
    return;
  }
  index_[name] = entries_.size();
  entries_.push_back({name, value, unit});
}

std::string Metrics::Json() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    char value[64];
    // %.17g keeps every digit of the measurement.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    out << (i ? ", " : "") << JsonString(e.name) << ": {\"value\": " << value
        << ", \"unit\": " << JsonString(e.unit) << "}";
  }
  out << "}";
  return out.str();
}

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

uint64_t FieldU64(const std::string& text, const std::string& key) {
  size_t pos = text.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + key.size(), nullptr, 10);
}

}  // namespace

ProcSample ReadProc(pid_t pid) {
  ProcSample s;
  const std::string dir = "/proc/" + std::to_string(pid);
  const std::string stat = ReadFile(dir + "/stat");
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  size_t close = stat.rfind(')');
  if (close != std::string::npos) {
    std::istringstream rest(stat.substr(close + 2));
    std::string field;
    uint64_t utime = 0, stime = 0;
    for (int i = 3; i <= 15 && (rest >> field); ++i) {
      if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
      if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
    }
    s.cpu_s = static_cast<double>(utime + stime) /
              static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  s.hwm_mb = static_cast<double>(FieldU64(ReadFile(dir + "/status"),
                                          "VmHWM:")) /
             1024.0;
  s.write_bytes = FieldU64(ReadFile(dir + "/io"), "\nwrite_bytes:");
  if (DIR* tasks = opendir((dir + "/task").c_str())) {
    while (dirent* e = readdir(tasks)) {
      if (e->d_name[0] == '.') continue;
      s.ctx_invol += FieldU64(
          ReadFile(dir + "/task/" + e->d_name + "/status"),
          "nonvoluntary_ctxt_switches:");
    }
    closedir(tasks);
  }
  return s;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.9g", i ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

namespace {

std::string FsType(const std::string& path) {
  struct statfs fs;
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

}  // namespace

std::string HostJson(const std::string& store_dir) {
  const std::string cpuinfo = ReadFile("/proc/cpuinfo");
  std::string model = "unknown";
  size_t pos = cpuinfo.find("model name");
  if (pos != std::string::npos) {
    size_t colon = cpuinfo.find(':', pos);
    size_t eol = cpuinfo.find('\n', pos);
    if (colon != std::string::npos && colon + 2 <= eol) {
      model = cpuinfo.substr(colon + 2, eol - colon - 2);
    }
  }
  std::string flags_line;
  pos = cpuinfo.find("\nflags");
  if (pos != std::string::npos) {
    flags_line = " " + cpuinfo.substr(pos, cpuinfo.find('\n', pos + 1) - pos) +
                 " ";
  }
  auto has = [&](const char* flag) {
    return flags_line.find(std::string(" ") + flag + " ") != std::string::npos;
  };
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << JsonString(model)
      << ", \"avx2\": " << (has("avx2") ? "true" : "false")
      << ", \"avx512f\": " << (has("avx512f") ? "true" : "false")
      << ", \"avx512dq\": " << (has("avx512dq") ? "true" : "false")
      << ", \"aes_ni\": " << (has("aes") ? "true" : "false")
      << ", \"sha_ni\": " << (has("sha_ni") ? "true" : "false")
      << ", \"aes_backend\": "
      << JsonString(shuffledp::crypto::AesBackendName(
             shuffledp::crypto::ActiveAesBackend()))
      << ", \"sha_backend\": "
      << JsonString(shuffledp::crypto::ShaBackendName(
             shuffledp::crypto::ActiveShaBackend()))
      << ", \"support_backend\": "
      << JsonString(shuffledp::ldp::SupportBackendName(
             shuffledp::ldp::ActiveSupportBackend()))
      << ", \"montgomery_backend\": "
      << JsonString(shuffledp::crypto::MontBackendName(
             shuffledp::crypto::ActiveMontBackend()))
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"store_fs\": " << JsonString(FsType(store_dir)) << "}";
  return out.str();
}

}  // namespace perfbench
