// Measurement plumbing for perfbench: clocks, percentiles,
// in-memory spans, host/process diagnostics and the one-line JSON
// result. Nothing here knows about the engine; perfbench.cc does.
#ifndef VODAK_PERFBENCH_HARNESS_H_
#define VODAK_PERFBENCH_HARNESS_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// Nearest-rank percentile (p in (0, 1]) of `values`; 0 when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  rank = std::min(values.size(), std::max<size_t>(rank, 1));
  std::nth_element(values.begin(), values.begin() + (rank - 1),
                   values.end());
  return values[rank - 1];
}

/// Samples strictly above the nearest-rank p-th percentile: how many
/// observations the tail percentile rests on.
inline size_t SamplesBeyond(const std::vector<double>& values, double p) {
  const double cut = Percentile(values, p);
  return static_cast<size_t>(
      std::count_if(values.begin(), values.end(),
                    [cut](double v) { return v > cut; }));
}

/// One timed interval around a call into a layer. Spans of one
/// operation share `op`; `parent` indexes the enclosing span (-1 for
/// the operation's root).
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  uint32_t op;
};

/// Spans kept in memory for the whole traced phase and written out
/// once when the run ends, so the hot loop never touches a file.
class Tracer {
 public:
  explicit Tracer(size_t reserve) { spans_.reserve(reserve); }

  int32_t Open(const char* name, int32_t parent, uint32_t op) {
    spans_.push_back(Span{name, NowNs(), 0, parent, op});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  double Close(int32_t index) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = NowNs();
    return MsBetween(span.start_ns, span.end_ns);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per span and line: client, name, start/end (ns,
  /// steady clock), parent index and operation id.
  void AppendJsonLines(std::FILE* f, size_t client) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"client\":%zu,\"id\":%zu,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                   "\"op\":%u}\n",
                   client, i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent, s.op);
    }
  }

 private:
  std::vector<Span> spans_;
};

/// Process CPU time and host CPU accounting at one instant; the
/// difference of two samples brackets a timed window.
struct HostSample {
  double process_cpu_s = 0.0;
  uint64_t host_steal = 0;
  uint64_t host_total = 0;
};

inline HostSample SampleHost() {
  HostSample sample;
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    sample.process_cpu_s =
        static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
        static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
            1e6;
  }
  // First line of /proc/stat: "cpu user nice system idle iowait irq
  // softirq steal ..." in clock ticks, summed over all CPUs.
  std::ifstream stat("/proc/stat");
  std::string line;
  if (std::getline(stat, line)) {
    std::istringstream in(line);
    std::string label;
    in >> label;
    uint64_t field = 0;
    for (int i = 0; in >> field; ++i) {
      if (i < 8) sample.host_total += field;  // guest time is in user
      if (i == 7) sample.host_steal = field;
    }
  }
  return sample;
}

/// Peak resident set of this process (VmHWM), in MiB.
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The contract line: the last line of standard output.
inline void PrintResultLine(bool correct, uint64_t attempted,
                            uint64_t failed,
                            const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench

#endif  // VODAK_PERFBENCH_HARNESS_H_
