// The benchmark's workloads. Each one generates its inputs from the
// seed, sets up the program, measures, checks the program's outputs and
// fills the report.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "common.h"

namespace perfbench {

// `train`: DGNN training at the paper defaults (Table IV's cost).
void RunTrain(const Options& opts, Report* report);

// `serve-retrieval` and `serve-mixed` (whose traced run also drives the
// sharded path).
void RunServe(const Options& opts, Report* report);

bool IsServeWorkload(const std::string& name);

// Per-layer metric families. Every traced run prints every per-layer
// metric; a workload that does not exercise a layer reports it as 0
// through the same emitter.
struct TrainLayers {
  double sample_epoch_ms = 0, forward_ms = 0, loss_ms = 0, backward_ms = 0;
  double adam_step_ms = 0, batch_ms = 0, unattributed_ms = 0;
  double gemm_ms = 0, gemm_calls = 0, spmm_ms = 0, spmm_calls = 0;
  double spmm_edges = 0, pool_regions = 0, pool_chunks = 0;
  double pool_submit_stalls = 0, eval_ms = 0, time_to_hr10_s = 0;
};
void EmitTrainLayers(const TrainLayers& t, Report* report);

// One serving rung ("low" or "high"), per client request unless noted.
struct RungLayers {
  double client_ms = 0, client_p50_ms = 0, client_p99_ms = 0;
  double lateness_ms = 0, late_frac = 0;
  double handle_ms = 0, e2e_ms = 0, wakeup_ms = 0, unattributed_ms = 0;
  double queue_ms = 0, recal_ms = 0, compute_ms = 0, rank_ms = 0;
  double reply_ms = 0, stage_other_ms = 0;
  double batch_size = 0, cache_hit_ratio = 0, degraded_ratio = 0;
  double swap_window_p99_ms = 0;
  double router_handle_ms = 0, shard_engine_e2e_ms = 0, shard_wire_ms = 0;
  double router_retries = 0, router_hedges = 0, router_failovers = 0;
  double router_degraded = 0;
};
void EmitRungLayers(const std::string& rung, const RungLayers& r,
                    Report* report);

// Whole-run per-layer metrics shared by every workload.
struct RunLayers {
  double swap_ms = 0, router_swap_ms = 0, resident_mb = 0;
  double generate_s = 0, model_s = 0, index_s = 0, quantize_s = 0;
  double write_s = 0, load_s = 0, fleet_s = 0;
  double error_rate = 0, trace_overhead_frac = 0;
};
void EmitRunLayers(const RunLayers& r, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
