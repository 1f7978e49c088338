// perfbench: the repository benchmark's program. perfbench/run.py
// builds it and runs one workload per invocation:
//
//   perfbench --workload=W --seed=N --seconds=S --trace=0|1 [--tiny]
//             [--work_dir=D] [--serve_bin=B] [--inject_mismatch]
//
// The last stdout line is one JSON object: the metrics with units and
// sample counts, the output checks, attempted/failed counts and the host
// stamp.

#include <sched.h>

#include <cstdio>
#include <thread>

#include "common.h"
#include "util/flags.h"
#include "workloads.h"

namespace perfbench {

void EmitTrainLayers(const TrainLayers& t, Report* report) {
  report->Metric("data.sample_epoch_ms", t.sample_epoch_ms, "ms");
  report->Metric("core.forward_ms", t.forward_ms, "ms");
  report->Metric("train.loss_ms", t.loss_ms, "ms");
  report->Metric("ag.backward_ms", t.backward_ms, "ms");
  report->Metric("ag.adam_step_ms", t.adam_step_ms, "ms");
  report->Metric("train.batch_ms", t.batch_ms, "ms");
  report->Metric("train.unattributed_ms", t.unattributed_ms, "ms");
  report->Metric("ag.gemm_ms", t.gemm_ms, "ms");
  report->Metric("ag.gemm_calls", t.gemm_calls, "count");
  report->Metric("ag.spmm_ms", t.spmm_ms, "ms");
  report->Metric("ag.spmm_calls", t.spmm_calls, "count");
  report->Metric("graph.spmm_edges", t.spmm_edges, "count");
  report->Metric("util.pool_regions", t.pool_regions, "count");
  report->Metric("util.pool_chunks", t.pool_chunks, "count");
  report->Metric("util.pool_submit_stalls", t.pool_submit_stalls, "count");
  report->Metric("train.eval_ms", t.eval_ms, "ms");
  report->Metric("train.time_to_hr10_s", t.time_to_hr10_s, "s");
}

void EmitRungLayers(const std::string& rung, const RungLayers& r,
                    Report* report) {
  auto m = [&](const char* name, double v, const char* unit) {
    report->Metric(std::string(name) + "." + rung, v, unit);
  };
  m("serve.client_ms", r.client_ms, "ms");
  m("serve.client_p50_ms", r.client_p50_ms, "ms");
  m("serve.client_p99_ms", r.client_p99_ms, "ms");
  m("replay.lateness_ms", r.lateness_ms, "ms");
  m("replay.late_frac", r.late_frac, "frac");
  m("serve.handle_ms", r.handle_ms, "ms");
  m("serve.e2e_ms", r.e2e_ms, "ms");
  m("serve.wakeup_ms", r.wakeup_ms, "ms");
  m("serve.unattributed_ms", r.unattributed_ms, "ms");
  m("serve.stage.queue_ms", r.queue_ms, "ms");
  m("serve.stage.recal_ms", r.recal_ms, "ms");
  m("serve.stage.compute_ms", r.compute_ms, "ms");
  m("serve.stage.rank_ms", r.rank_ms, "ms");
  m("serve.stage.reply_ms", r.reply_ms, "ms");
  m("serve.stage.other_ms", r.stage_other_ms, "ms");
  m("serve.batch_size", r.batch_size, "count");
  m("serve.cache_hit_ratio", r.cache_hit_ratio, "frac");
  m("serve.degraded_ratio", r.degraded_ratio, "frac");
  m("serve.swap_window_p99_ms", r.swap_window_p99_ms, "ms");
  m("router.handle_ms", r.router_handle_ms, "ms");
  m("shard.engine_e2e_ms", r.shard_engine_e2e_ms, "ms");
  m("shard.wire_ms", r.shard_wire_ms, "ms");
  m("router.retries", r.router_retries, "count");
  m("router.hedges", r.router_hedges, "count");
  m("router.failovers", r.router_failovers, "count");
  m("router.degraded", r.router_degraded, "count");
}

void EmitRunLayers(const RunLayers& r, Report* report) {
  report->Metric("serve.swap_ms", r.swap_ms, "ms");
  report->Metric("router.swap_ms", r.router_swap_ms, "ms");
  report->Metric("quant.resident_mb", r.resident_mb, "MB");
  report->Metric("setup.generate_s", r.generate_s, "s");
  report->Metric("setup.model_s", r.model_s, "s");
  report->Metric("setup.index_s", r.index_s, "s");
  report->Metric("setup.quantize_s", r.quantize_s, "s");
  report->Metric("setup.write_s", r.write_s, "s");
  report->Metric("setup.load_s", r.load_s, "s");
  report->Metric("setup.fleet_s", r.fleet_s, "s");
  report->Metric("error_rate", r.error_rate, "frac");
  report->Metric("trace_overhead_frac", r.trace_overhead_frac, "frac");
}

namespace {

int OnlineCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  dgnn::util::Flags flags(argc, argv);
  Options opts;
  opts.workload = flags.GetString("workload", "");
  opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  opts.seconds = flags.GetDouble("seconds", 10.0);
  opts.trace = flags.GetInt("trace", 0) != 0;
  opts.tiny = flags.GetBool("tiny", false);
  opts.work_dir = flags.GetString("work_dir", "");
  opts.serve_bin = flags.GetString("serve_bin", "");
  opts.inject_mismatch = flags.GetBool("inject_mismatch", false);
  opts.nproc = OnlineCpus();

  Report report;
  if (opts.workload == "train") {
    RunTrain(opts, &report);
  } else if (IsServeWorkload(opts.workload)) {
    RunServe(opts, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opts.workload.c_str());
    return 2;
  }
  std::printf("%s\n", report.Json(opts).c_str());
  return 0;
}
