// Shared pieces of the benchmark program: options, the result report,
// sample statistics and the host/build stamp.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  // Measurement budget of one run; the serving ladders split it across
  // their rungs (and across the untraced and traced passes in a traced
  // run). The train workload runs a fixed epoch schedule instead, so its
  // quality metric stays exact.
  double seconds = 10.0;
  bool trace = false;
  // Small sizes for the benchmark's own self-test.
  bool tiny = false;
  // Scratch directory inside the checkout (snapshots, sockets, spans).
  std::string work_dir;
  // dgnn_serve binary launched as shard workers.
  std::string serve_bin;
  // Self-test hook: corrupt the reference of this workload's output
  // check so the run must report correct=false.
  bool inject_mismatch = false;
  int nproc = 1;
};

// Sample statistics over per-sample values.
double Median(std::vector<double> v);
// Nearest-rank quantile of an ascending-sorted sample.
double QuantileSorted(const std::vector<double>& sorted, double q);
// "p99=1.23" style summary of the highest of p99.9/p99/p95/p90/p50 that
// has at least ten samples beyond it ("" when fewer than 20 samples).
std::string TailSummary(std::vector<double> v);

struct MetricValue {
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
  std::string tail;  // highest well-supported percentile, for timings
};

// Everything one run reports. Serialized as the program's last stdout
// line; perfbench/run.py turns it into the benchmark's result line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              int64_t samples = 1, const std::string& tail = "");
  // A median-of-samples metric with its count and tail.
  void MedianMetric(const std::string& name, const std::vector<double>& v,
                    const std::string& unit);
  void Check(const std::string& name, bool ok, const std::string& detail);
  void AddAttempts(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const;
  std::string Json(const Options& opts) const;

 private:
  std::map<std::string, MetricValue> metrics_;
  struct CheckResult {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<CheckResult> checks_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// Host + build stamp: nproc, active kernel ISA, kernel mode, compiler,
// build type and workload seed. The source revision is added by run.py,
// which knows the checkout.
std::string HostStampJson(const Options& opts);

double PeakRssMb();

// User + system CPU seconds of this process so far (all threads).
double ProcessCpuSeconds();

// Host speed probe. The reference host's speed drifts by tens of percent
// over minutes (shared virtual CPUs), and CPU time per unit of work
// drifts with it. SampleHostSpeed() times a fixed single-threaded
// computation; workloads call it between measurements throughout a run.
// HostSpeedFactor() is the nominal probe time over the median sampled
// one: multiplying a CPU time by it expresses the time at the host's
// nominal speed, which cancels the drift.
void SampleHostSpeed();
double HostProbeMs();  // median of the samples so far
double HostSpeedFactor();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
