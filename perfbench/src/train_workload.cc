// `train`: DGNN at the paper defaults (d=16, L=2, |M|=8, batch 2048) on a
// generated yelp-shaped social graph. Every batch runs a full-graph
// forward through the memory encoder, typed SpMM, norm, BPR loss,
// backward and Adam — the per-epoch cost of the paper's Table IV.
//
// Untraced run: one warm-up epoch, then a fixed number of timed
// Trainer::TrainEpoch calls, each followed by an HR@10 evaluation; then
// one replica epoch on a single pool thread and one on every pool thread
// for the per-batch latency distribution.
//
// Traced run: the same Trainer schedule untraced, then the benchmark's
// replica batch loop (the Trainer's batch, step by step through public
// calls, each inside a span) on a second model from the same seed. The
// replica's losses must be bit-identical to the Trainer's, which proves
// the traced run measures the same program.

#include <cmath>
#include <cstring>
#include <memory>

#include "ag/adam.h"
#include "ag/tape.h"
#include "core/model_zoo.h"
#include "data/sampler.h"
#include "data/synthetic.h"
#include "graph/hetero_graph.h"
#include "kernels/kernels.h"
#include "spans.h"
#include "train/evaluator.h"
#include "train/trainer.h"
#include "util/strings.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace telemetry = dgnn::telemetry;

// HR@10 that time_to_hr10_s waits for. The seed's curve on this graph
// passes it at the second or third timed epoch on every seed tried.
constexpr double kHr10Target = 0.60;

struct TrainSizes {
  int32_t users, items, batch, timed_epochs;
};

TrainSizes SizesFor(const Options& opts) {
  if (opts.tiny) return {300, 600, 256, 2};
  return {3000, 6000, 2048, 8};
}

struct TrainSetup {
  std::unique_ptr<dgnn::data::Dataset> dataset;
  std::unique_ptr<dgnn::graph::HeteroGraph> graph;
  std::unique_ptr<dgnn::models::RecModel> model;

  // The model refers to the graph and dataset: release it first.
  void Reset() {
    model.reset();
    graph.reset();
    dataset.reset();
  }
};

dgnn::core::ZooConfig ZooFor(const Options& opts) {
  dgnn::core::ZooConfig z;  // paper defaults: d=16, L=2, |M|=8
  z.seed = opts.seed;
  return z;
}

// One complete set-up: generation, graph and model build.
TrainSetup Setup(const Options& opts, double* generate_s, double* model_s) {
  const TrainSizes sz = SizesFor(opts);
  dgnn::data::SyntheticConfig cfg = dgnn::data::SyntheticConfig::YelpSmall();
  cfg.num_users = sz.users;
  cfg.num_items = sz.items;
  cfg.seed = opts.seed;
  TrainSetup s;
  const auto t0 = Clock::now();
  s.dataset = std::make_unique<dgnn::data::Dataset>(
      dgnn::data::GenerateSynthetic(cfg));
  const auto t1 = Clock::now();
  s.graph = std::make_unique<dgnn::graph::HeteroGraph>(*s.dataset);
  s.model = dgnn::core::CreateModelByName("DGNN", *s.dataset, *s.graph,
                                          ZooFor(opts));
  const auto t2 = Clock::now();
  *generate_s = SecondsBetween(t0, t1);
  *model_s = SecondsBetween(t1, t2);
  return s;
}

dgnn::train::TrainConfig TrainConfigFor(const Options& opts) {
  dgnn::train::TrainConfig c;
  c.batch_size = SizesFor(opts).batch;
  c.seed = opts.seed;
  return c;
}

// The Trainer's batch (trainer.cc TrainBatch), through public calls with
// a span around each layer.
double ReplicaBatch(dgnn::models::RecModel* model,
                    dgnn::ag::AdamOptimizer* optimizer,
                    const dgnn::train::TrainConfig& config,
                    const dgnn::data::BprBatch& batch) {
  dgnn::ag::Tape tape;
  dgnn::models::ForwardResult fwd;
  {
    spans::Scope span("core.forward");
    fwd = model->Forward(tape, /*training=*/true);
  }
  dgnn::ag::VarId loss;
  {
    spans::Scope span("train.loss");
    dgnn::ag::VarId u = tape.GatherRows(fwd.users, batch.users);
    dgnn::ag::VarId p = tape.GatherRows(fwd.items, batch.pos_items);
    dgnn::ag::VarId n = tape.GatherRows(fwd.items, batch.neg_items);
    // Same op order as the Trainer: the tape's backward accumulation
    // order, and so the bits of every gradient, follow it.
    dgnn::ag::VarId pos = tape.RowDot(u, p);
    dgnn::ag::VarId neg = tape.RowDot(u, n);
    loss = tape.BprLoss(pos, neg);
    if (config.l2_reg > 0.0f) {
      dgnn::ag::VarId reg = tape.AddN({tape.L2(u), tape.L2(p), tape.L2(n)});
      loss = tape.Add(
          loss, tape.ScalarMul(reg, config.l2_reg /
                                        static_cast<float>(batch.size())));
    }
    if (fwd.aux_loss >= 0) loss = tape.Add(loss, fwd.aux_loss);
  }
  const double value = tape.val(loss).scalar();
  {
    spans::Scope span("ag.backward");
    tape.Backward(loss);
  }
  {
    spans::Scope span("ag.adam_step");
    optimizer->Step();
  }
  return value;
}

// Replica of Trainer::TrainEpoch's loop around ReplicaBatch.
struct ReplicaEpoch {
  double mean_loss = 0.0;
  int64_t batches = 0;
  int64_t nonfinite = 0;
  std::vector<double> batch_ms;
};

ReplicaEpoch RunReplicaEpoch(dgnn::models::RecModel* model,
                             dgnn::data::BprSampler* sampler,
                             dgnn::ag::AdamOptimizer* optimizer,
                             const dgnn::train::TrainConfig& config,
                             int64_t* batch_index) {
  ReplicaEpoch out;
  std::vector<dgnn::data::BprBatch> batches;
  {
    spans::Scope span("data.sample_epoch");
    batches = sampler->SampleEpoch(config.batch_size);
  }
  double loss_sum = 0.0;
  for (const dgnn::data::BprBatch& b : batches) {
    const auto t0 = Clock::now();
    double loss;
    {
      spans::Scope span("train.batch", (*batch_index)++);
      loss = ReplicaBatch(model, optimizer, config, b);
    }
    out.batch_ms.push_back(MsBetween(t0, Clock::now()));
    if (!std::isfinite(loss)) ++out.nonfinite;
    loss_sum += loss;
    ++out.batches;
  }
  out.mean_loss = out.batches > 0 ? loss_sum / out.batches : 0.0;
  return out;
}

dgnn::ag::AdamConfig AdamFor(const dgnn::train::TrainConfig& c) {
  dgnn::ag::AdamConfig a;  // as the Trainer builds it
  a.learning_rate = c.learning_rate;
  a.weight_decay = c.weight_decay;
  return a;
}

// Kernel and pool counters from the telemetry registry.
struct KernelCounters {
  double gemm_s = 0, spmm_s = 0;
  int64_t gemm_calls = 0, spmm_calls = 0, edges = 0;
  int64_t regions = 0, chunks = 0, stalls = 0;

  static KernelCounters Read() {
    KernelCounters k;
    const telemetry::Timer* gemm = telemetry::GetTimer("ag.gemm");
    const telemetry::Timer* spmm = telemetry::GetTimer("ag.spmm");
    k.gemm_s = gemm->total_seconds();
    k.gemm_calls = gemm->count();
    k.spmm_s = spmm->total_seconds();
    k.spmm_calls = spmm->count();
    k.edges = telemetry::GetCounter("graph.spmm_edges_processed")->value();
    k.regions = telemetry::GetCounter("threadpool.regions")->value();
    k.chunks = telemetry::GetCounter("threadpool.chunks_run")->value();
    k.stalls = telemetry::GetCounter("threadpool.submit_stalls")->value();
    return k;
  }
  void AddDelta(const KernelCounters& a, const KernelCounters& b) {
    gemm_s += b.gemm_s - a.gemm_s;
    spmm_s += b.spmm_s - a.spmm_s;
    gemm_calls += b.gemm_calls - a.gemm_calls;
    spmm_calls += b.spmm_calls - a.spmm_calls;
    edges += b.edges - a.edges;
    regions += b.regions - a.regions;
    chunks += b.chunks - a.chunks;
    stalls += b.stalls - a.stalls;
  }
};

// The untraced Trainer schedule: warm-up, then timed epochs each
// followed by an HR@10 evaluation.
struct TrainerPass {
  std::vector<double> epoch_s;
  double epoch_cpu_s = 0.0;  // process CPU time per timed epoch
  std::vector<double> losses;  // warm-up first
  std::vector<double> hr10;    // after each timed epoch
  double time_to_hr10_s = 0.0;  // 0 when the target was never reached
  int64_t nonfinite_epochs = 0;
};

TrainerPass RunTrainerPass(const Options& opts, TrainSetup* s) {
  const dgnn::train::TrainConfig cfg = TrainConfigFor(opts);
  dgnn::train::Trainer trainer(s->model.get(), *s->dataset, cfg);
  dgnn::train::Evaluator evaluator(*s->dataset);
  TrainerPass p;
  p.losses.push_back(trainer.TrainEpoch());
  const auto start = Clock::now();
  for (int e = 0; e < SizesFor(opts).timed_epochs; ++e) {
    SampleHostSpeed();
    const auto t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    p.losses.push_back(trainer.TrainEpoch());
    p.epoch_cpu_s += ProcessCpuSeconds() - cpu0;
    const auto t1 = Clock::now();
    const dgnn::train::Metrics m = evaluator.EvaluateModel(*s->model, {10});
    const auto t2 = Clock::now();
    p.epoch_s.push_back(SecondsBetween(t0, t1));
    p.hr10.push_back(m.hr.at(10));
    if (p.time_to_hr10_s == 0.0 && m.hr.at(10) >= kHr10Target) {
      p.time_to_hr10_s = SecondsBetween(start, t2);
    }
  }
  for (double l : p.losses) {
    if (!std::isfinite(l)) ++p.nonfinite_epochs;
  }
  p.epoch_cpu_s /= static_cast<double>(p.epoch_s.size());
  return p;
}

void RunTimed(const Options& opts, TrainSetup* s, Report* report) {
  const TrainerPass pass = RunTrainerPass(opts, s);
  report->Metric("refresh_cpu_s", pass.epoch_cpu_s * HostSpeedFactor(), "s",
                 static_cast<int64_t>(pass.epoch_s.size()));
  report->Metric("refresh_cpu_s.raw", pass.epoch_cpu_s, "s",
                 static_cast<int64_t>(pass.epoch_s.size()));
  report->MedianMetric("epoch_s", pass.epoch_s, "s");
  report->Metric("quality_at_10", pass.hr10.back(), "frac");
  report->Metric("throughput_per_s",
                 static_cast<double>(s->dataset->train.size()) /
                     Median(pass.epoch_s),
                 "1/s", static_cast<int64_t>(pass.epoch_s.size()));

  // Per-batch latency: replica epochs on one pool thread ("low") and on
  // every pool thread ("high"), interleaved so a slow spell of the host
  // lands on both.
  const dgnn::train::TrainConfig cfg = TrainConfigFor(opts);
  dgnn::data::BprSampler sampler(*s->dataset, opts.seed + 1);
  dgnn::ag::AdamOptimizer optimizer(&s->model->params(), AdamFor(cfg));
  int64_t batch_index = 0;
  int64_t batches = 0, nonfinite = 0;
  std::vector<double> batch_ms[2];  // [0] low, [1] high
  double cpu_s[2] = {0, 0};
  for (int e = 0; e < 4; ++e) {
    const int rung = e % 2;
    dgnn::util::SetNumThreads(rung == 0 ? 1 : opts.nproc);
    SampleHostSpeed();
    const double cpu0 = ProcessCpuSeconds();
    const ReplicaEpoch ep = RunReplicaEpoch(s->model.get(), &sampler,
                                            &optimizer, cfg, &batch_index);
    cpu_s[rung] += ProcessCpuSeconds() - cpu0;
    batches += ep.batches;
    nonfinite += ep.nonfinite;
    batch_ms[rung].insert(batch_ms[rung].end(), ep.batch_ms.begin(),
                          ep.batch_ms.end());
  }
  dgnn::util::SetNumThreads(opts.nproc);
  for (int rung = 0; rung < 2; ++rung) {
    std::vector<double> sorted = batch_ms[rung];
    std::sort(sorted.begin(), sorted.end());
    const std::string r = rung == 0 ? "low" : "high";
    const auto n = static_cast<int64_t>(sorted.size());
    report->Metric("p50_ms." + r, QuantileSorted(sorted, 0.50), "ms", n,
                   TailSummary(sorted));
    report->Metric("p99_ms." + r, QuantileSorted(sorted, 0.99), "ms", n,
                   TailSummary(sorted));
    const double cpu_ms = cpu_s[rung] * 1e3 / static_cast<double>(n);
    report->Metric("cpu_ms." + r, cpu_ms * HostSpeedFactor(), "ms", n);
    report->Metric("cpu_ms." + r + ".raw", cpu_ms, "ms", n);
  }

  report->Metric("host_probe_ms", HostProbeMs(), "ms");

  const int64_t epoch_batches =
      (static_cast<int64_t>(s->dataset->train.size()) + cfg.batch_size - 1) /
      cfg.batch_size;
  const int64_t trainer_batches =
      epoch_batches * static_cast<int64_t>(pass.losses.size());
  const int64_t attempted = batches + trainer_batches;
  const int64_t failed = nonfinite + pass.nonfinite_epochs * epoch_batches;
  report->AddAttempts(attempted, failed);
  report->Metric("success_rate",
                 1.0 - static_cast<double>(failed) / attempted, "frac",
                 attempted);
  report->Check("train.losses_finite", failed == 0,
                std::to_string(failed) + " non-finite batches");
  report->Check("train.hr10_in_range",
                pass.hr10.back() > 0.0 && pass.hr10.back() <= 1.0,
                "hr10=" + std::to_string(pass.hr10.back()));
}

void RunTraced(const Options& opts, TrainSetup* s, Report* report,
               RunLayers* run) {
  const TrainerPass pass = RunTrainerPass(opts, s);

  // Second model from the same seed, trained by the replica loop with
  // telemetry and spans on.
  double unused_gen = 0, unused_model = 0;
  TrainSetup b = Setup(opts, &unused_gen, &unused_model);
  const dgnn::train::TrainConfig cfg = TrainConfigFor(opts);
  dgnn::data::BprSampler sampler(*b.dataset, cfg.seed);
  dgnn::ag::AdamOptimizer optimizer(&b.model->params(), AdamFor(cfg));
  dgnn::train::Evaluator evaluator(*b.dataset);
  telemetry::SetEnabled(true);
  spans::SetEnabled(true);

  std::vector<double> losses, hr10, epoch_s;
  int64_t batch_index = 0, batches = 0, nonfinite = 0;
  KernelCounters kernels;
  std::vector<spans::Span> timed_spans;
  for (int e = 0; e <= SizesFor(opts).timed_epochs; ++e) {
    const KernelCounters before = KernelCounters::Read();
    const auto t0 = Clock::now();
    const ReplicaEpoch ep = RunReplicaEpoch(b.model.get(), &sampler,
                                            &optimizer, cfg, &batch_index);
    const auto t1 = Clock::now();
    const KernelCounters after = KernelCounters::Read();
    dgnn::train::Metrics m;
    {
      spans::Scope span("train.eval");
      m = evaluator.EvaluateModel(*b.model, {10});
    }
    losses.push_back(ep.mean_loss);
    nonfinite += ep.nonfinite;
    std::vector<spans::Span> epoch_spans = spans::Drain();
    if (e == 0) continue;  // warm-up epoch: checked, not measured
    hr10.push_back(m.hr.at(10));
    epoch_s.push_back(SecondsBetween(t0, t1));
    batches += ep.batches;
    kernels.AddDelta(before, after);
    timed_spans.insert(timed_spans.end(), epoch_spans.begin(),
                       epoch_spans.end());
  }
  spans::SetEnabled(false);
  telemetry::SetEnabled(false);

  if (opts.inject_mismatch) {
    uint64_t bits;
    std::memcpy(&bits, &losses[0], sizeof(bits));
    bits ^= 1;
    std::memcpy(&losses[0], &bits, sizeof(bits));
  }
  bool same = losses.size() == pass.losses.size();
  for (size_t i = 0; same && i < losses.size(); ++i) {
    same = std::memcmp(&losses[i], &pass.losses[i], sizeof(double)) == 0;
  }
  std::string detail = "replica batch loop vs Trainer::TrainEpoch, " +
                       std::to_string(losses.size()) + " epochs:";
  for (size_t i = 0; i < losses.size() && i < pass.losses.size(); ++i) {
    detail += dgnn::util::StrFormat(" %.17g/%.17g", losses[i],
                                    pass.losses[i]);
  }
  report->Check("train.replica_losses_bit_identical", same, detail);
  report->Check("train.replica_hr10_identical", hr10 == pass.hr10,
                "HR@10 after every timed epoch");

  const auto layers = spans::SelfTimes(timed_spans);
  auto self_ms = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_ms;
  };
  auto total_ms = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.total_ms;
  };
  const double nb = static_cast<double>(batches);
  const double ne = static_cast<double>(epoch_s.size());
  TrainLayers t;
  t.sample_epoch_ms = total_ms("data.sample_epoch") / ne;
  t.forward_ms = self_ms("core.forward") / nb;
  t.loss_ms = self_ms("train.loss") / nb;
  t.backward_ms = self_ms("ag.backward") / nb;
  t.adam_step_ms = self_ms("ag.adam_step") / nb;
  t.batch_ms = total_ms("train.batch") / nb;
  t.unattributed_ms = self_ms("train.batch") / nb;
  t.gemm_ms = kernels.gemm_s * 1e3 / nb;
  t.gemm_calls = static_cast<double>(kernels.gemm_calls) / nb;
  t.spmm_ms = kernels.spmm_s * 1e3 / nb;
  t.spmm_calls = static_cast<double>(kernels.spmm_calls) / nb;
  t.spmm_edges = static_cast<double>(kernels.edges) / nb;
  t.pool_regions = static_cast<double>(kernels.regions) / nb;
  t.pool_chunks = static_cast<double>(kernels.chunks) / nb;
  t.pool_submit_stalls = static_cast<double>(kernels.stalls) / nb;
  t.eval_ms = total_ms("train.eval") / ne;
  t.time_to_hr10_s = pass.time_to_hr10_s;
  EmitTrainLayers(t, report);

  // Reconciliation: the layers' self times plus the unattributed
  // remainder give the batch time, and the remainder stays small.
  const double parts = t.forward_ms + t.loss_ms + t.backward_ms +
                       t.adam_step_ms + t.unattributed_ms;
  report->Check("reconcile.train_batch",
                std::fabs(parts - t.batch_ms) <= 1e-6 * t.batch_ms,
                "layers+unattributed=" + std::to_string(parts) +
                    " ms, batch=" + std::to_string(t.batch_ms) + " ms");
  const double epoch_ms = Median(epoch_s) * 1e3;
  report->Check("reconcile.train_unattributed_small",
                t.unattributed_ms < 0.05 * t.batch_ms,
                "unattributed " + std::to_string(t.unattributed_ms) +
                    " ms of " + std::to_string(t.batch_ms) + " ms per batch");

  run->error_rate = batches > 0 ? static_cast<double>(nonfinite) /
                                      static_cast<double>(batches)
                                : 0.0;
  run->trace_overhead_frac = epoch_ms / (Median(pass.epoch_s) * 1e3) - 1.0;
  report->AddAttempts(batches, nonfinite);

  if (!opts.work_dir.empty()) {
    spans::WriteChromeTrace(timed_spans, opts.work_dir + "/spans.json");
  }
}

}  // namespace

void RunTrain(const Options& opts, Report* report) {
  dgnn::util::SetNumThreads(opts.nproc);
  dgnn::kernels::SetDeterministic(true);

  // Set-up runs three times; the median is setup_s and the last one is
  // the program that gets measured.
  std::vector<double> setup_s, gen_s, model_s;
  TrainSetup s;
  for (int rep = 0; rep < 3; ++rep) {
    s.Reset();
    double g = 0, m = 0;
    s = Setup(opts, &g, &m);
    gen_s.push_back(g);
    model_s.push_back(m);
    setup_s.push_back(g + m);
  }
  if (opts.trace) {
    RunLayers run;
    run.generate_s = Median(gen_s);
    run.model_s = Median(model_s);
    RunTraced(opts, &s, report, &run);
    EmitRunLayers(run, report);
    EmitRungLayers("low", RungLayers{}, report);
    EmitRungLayers("high", RungLayers{}, report);
  } else {
    report->MedianMetric("setup_s", setup_s, "s");
    RunTimed(opts, &s, report);
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  }
}

}  // namespace perfbench
