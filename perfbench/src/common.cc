#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "kernels/kernels.h"
#include "serve/replay.h"
#include "util/json.h"
#include "util/strings.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(rank == 0 ? 0 : rank - 1, sorted.size() - 1)];
}

std::string TailSummary(std::vector<double> v) {
  static const struct {
    double q;
    const char* label;
  } kTails[] = {{0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"},
                {0.90, "p90"},    {0.50, "p50"}};
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const auto& t : kTails) {
    if (n * (1.0 - t.q) >= 10.0) {
      return dgnn::util::StrFormat("%s=%.4g", t.label,
                                   QuantileSorted(v, t.q));
    }
  }
  return "";
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, int64_t samples,
                    const std::string& tail) {
  if (!std::isfinite(value)) {
    Check("finite." + name, false, "metric is not finite");
    value = 0.0;
  }
  metrics_[name] = MetricValue{value, unit, samples, tail};
}

void Report::MedianMetric(const std::string& name,
                          const std::vector<double>& v,
                          const std::string& unit) {
  Metric(name, Median(v), unit, static_cast<int64_t>(v.size()),
         TailSummary(v));
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back(CheckResult{name, ok, detail});
}

bool Report::correct() const {
  if (checks_.empty()) return false;
  for (const CheckResult& c : checks_) {
    if (!c.ok) return false;
  }
  return true;
}

std::string Report::Json(const Options& opts) const {
  dgnn::util::JsonObject metrics;
  for (const auto& [name, m] : metrics_) {
    dgnn::util::JsonObject o;
    o.Set("value", m.value).Set("unit", m.unit).Set("samples", m.samples);
    if (!m.tail.empty()) o.Set("tail", m.tail);
    metrics.SetRaw(name, o.Build());
  }
  std::string checks = "[";
  for (size_t i = 0; i < checks_.size(); ++i) {
    dgnn::util::JsonObject o;
    o.Set("name", checks_[i].name)
        .Set("ok", checks_[i].ok)
        .Set("detail", checks_[i].detail);
    if (i > 0) checks += ',';
    checks += o.Build();
  }
  checks += ']';
  dgnn::util::JsonObject out;
  out.Set("workload", opts.workload)
      .Set("trace", opts.trace)
      .Set("correct", correct())
      .Set("attempted", attempted_)
      .Set("failed", failed_)
      .SetRaw("stamp", HostStampJson(opts))
      .SetRaw("checks", checks)
      .SetRaw("metrics", metrics.Build());
  return out.Build();
}

std::string HostStampJson(const Options& opts) {
  dgnn::util::JsonObject o;
  o.Set("nproc", opts.nproc)
      .Set("isa", dgnn::kernels::IsaName(dgnn::kernels::ActiveIsa()))
      .Set("kernel_mode",
           dgnn::kernels::Deterministic() ? "deterministic" : "fast")
      .Set("compiler", PERFBENCH_COMPILER)
      .Set("build_type", PERFBENCH_BUILD_TYPE)
      .Set("seed", static_cast<int64_t>(opts.seed))
      .Set("tiny", opts.tiny);
  return o.Build();
}

double PeakRssMb() {
  return static_cast<double>(dgnn::serve::PeakRssBytes()) / (1024.0 * 1024.0);
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

namespace {
std::vector<double> g_probe_ms;
// Median probe time on the reference host (4 vCPUs, GNU 12,
// RelWithDebInfo) in its usual state.
constexpr double kNominalProbeMs = 20.0;
}  // namespace

void SampleHostSpeed() {
  // Streams a 32 MB buffer (larger than the last-level cache) with four
  // independent accumulators: the probe is bound by memory bandwidth,
  // the resource the workloads lose when the host is busy.
  static const std::vector<float> buf(1 << 23, 1.0001f);
  const auto t0 = Clock::now();
  float acc[4] = {0, 0, 0, 0};
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t i = 0; i < buf.size(); i += 4) {
      for (int j = 0; j < 4; ++j) acc[j] += buf[i + j];
    }
  }
  const auto t1 = Clock::now();
  volatile float sink = acc[0] + acc[1] + acc[2] + acc[3];
  (void)sink;
  g_probe_ms.push_back(MsBetween(t0, t1));
}

double HostProbeMs() { return Median(g_probe_ms); }

double HostSpeedFactor() {
  const double probe = HostProbeMs();
  return probe > 0 ? kNominalProbeMs / probe : 1.0;
}

}  // namespace perfbench
