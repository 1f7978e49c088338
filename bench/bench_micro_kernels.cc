// Microbenchmarks of the kernels behind Section IV-D's complexity claims:
// SpMM propagation (O(|E| d)), dense transforms (O(|V| d^2)), the memory
// encoder (one SpMM per edge type plus a gate mix: O(|E| d + |V| |M| d)
// for diagonal transforms, O(|E| d + |V| |M| d^2) for dense) and segment
// softmax (O(|E|)), plus
// direct GEMM/SpMM kernel sweeps over transpose combination and numeric
// mode (deterministic vs fast). All kernels dispatch to the active ISA
// variant (shown in each benchmark's label); force a level with the
// DGNN_SIMD env var to compare — e.g. DGNN_SIMD=off vs DGNN_SIMD=avx2 is
// the speedup quoted in EXPERIMENTS.md.

#include <benchmark/benchmark.h>

#include <string>

#include "ag/tape.h"
#include "core/memory_encoder.h"
#include "data/synthetic.h"
#include "graph/hetero_graph.h"
#include "kernels/kernels.h"

namespace {

using dgnn::ag::ParamStore;
using dgnn::ag::Tape;
using dgnn::ag::Tensor;

std::string ModeLabel(bool det) {
  return std::string(dgnn::kernels::IsaName(dgnn::kernels::ActiveIsa())) +
         (det ? "/det" : "/fast");
}

struct Fixture {
  Fixture() : dataset(dgnn::data::GenerateSynthetic(MakeConfig())),
              graph(dataset),
              adj(dgnn::graph::HeteroGraph::RowNormalized(graph.user_item())),
              adj_t(adj.Transposed()) {}

  static dgnn::data::SyntheticConfig MakeConfig() {
    auto c = dgnn::data::SyntheticConfig::CiaoSmall();
    return c;
  }

  dgnn::data::Dataset dataset;
  dgnn::graph::HeteroGraph graph;
  dgnn::graph::CsrMatrix adj, adj_t;
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void BM_SpMM(benchmark::State& state) {
  Fixture& f = GetFixture();
  const int64_t d = state.range(0);
  dgnn::util::Rng rng(1);
  Tensor x = Tensor::GaussianInit(f.adj.cols(), d, 0.1f, rng);
  Tensor y(f.adj.rows(), d);
  for (auto _ : state) {
    f.adj.Multiply(x.data(), d, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * f.adj.nnz() * d);
}
BENCHMARK(BM_SpMM)->Arg(8)->Arg(16)->Arg(32);

void BM_DenseTransform(benchmark::State& state) {
  const int64_t d = state.range(0);
  dgnn::util::Rng rng(2);
  Fixture& f = GetFixture();
  const int64_t n = f.graph.num_items();
  ParamStore store;
  auto* w = store.CreateXavier("w", d, d, rng);
  Tensor h = Tensor::GaussianInit(n, d, 0.1f, rng);
  for (auto _ : state) {
    Tape tape;
    auto out = tape.MatMul(tape.Constant(h), tape.Param(w));
    benchmark::DoNotOptimize(tape.val(out).data());
  }
  state.SetItemsProcessed(state.iterations() * n * d * d);
}
BENCHMARK(BM_DenseTransform)->Arg(8)->Arg(16)->Arg(32);

// Full memory-encoder propagation (forward only), sweeping |M|: only the
// O(|V| |M| d) gate mix grows with |M|; the single SpMM does not.
void BM_MemoryEncoderPropagate(benchmark::State& state) {
  const int num_units = static_cast<int>(state.range(0));
  const int64_t d = 16;
  dgnn::util::Rng rng(3);
  Fixture& f = GetFixture();
  ParamStore store;
  dgnn::core::MemoryEncoder enc("enc", d, num_units,
                                dgnn::core::MemoryGateSide::kTarget, 0.2f,
                                &store, &rng);
  Tensor h_item = Tensor::GaussianInit(f.graph.num_items(), d, 0.1f, rng);
  Tensor h_user = Tensor::GaussianInit(f.graph.num_users(), d, 0.1f, rng);
  for (auto _ : state) {
    Tape tape;
    auto out = enc.Propagate(tape, tape.Constant(h_item),
                             tape.Constant(h_user), &f.adj, &f.adj_t);
    benchmark::DoNotOptimize(tape.val(out).data());
  }
}
BENCHMARK(BM_MemoryEncoderPropagate)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Memory-encoder forward+backward — the per-batch training cost driver.
void BM_MemoryEncoderTrainStep(benchmark::State& state) {
  const int num_units = static_cast<int>(state.range(0));
  const int64_t d = 16;
  dgnn::util::Rng rng(4);
  Fixture& f = GetFixture();
  ParamStore store;
  dgnn::core::MemoryEncoder enc("enc", d, num_units,
                                dgnn::core::MemoryGateSide::kTarget, 0.2f,
                                &store, &rng);
  auto* h_item =
      store.Create("h_item", Tensor::GaussianInit(f.graph.num_items(), d,
                                                  0.1f, rng));
  auto* h_user =
      store.Create("h_user", Tensor::GaussianInit(f.graph.num_users(), d,
                                                  0.1f, rng));
  for (auto _ : state) {
    Tape tape;
    auto out = enc.Propagate(tape, tape.Param(h_item), tape.Param(h_user),
                             &f.adj, &f.adj_t);
    tape.Backward(tape.MeanAll(out));
    store.ZeroGrad();
  }
}
BENCHMARK(BM_MemoryEncoderTrainStep)->Arg(2)->Arg(8);

// Raw dispatched GEMM, every transpose combination, deterministic and
// fast mode. Shapes mirror the library's real call sites: tall-skinny
// activations (nodes x d) against square d x d weights.
void BM_GemmKernel(benchmark::State& state) {
  const bool ta = state.range(0) != 0;
  const bool tb = state.range(1) != 0;
  const bool det = state.range(2) != 0;
  const int64_t rows = 8192;
  const int64_t d = 32;
  dgnn::util::Rng rng(6);
  // op(A): rows x d, op(B): d x d, out: rows x d.
  Tensor a = ta ? Tensor::GaussianInit(d, rows, 0.1f, rng)
                : Tensor::GaussianInit(rows, d, 0.1f, rng);
  Tensor b = Tensor::GaussianInit(d, d, 0.1f, rng);
  Tensor out(rows, d);
  dgnn::kernels::SetDeterministic(det);
  for (auto _ : state) {
    dgnn::kernels::GemmAcc(a.data(), a.rows(), a.cols(), ta, b.data(),
                           b.rows(), b.cols(), tb, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  dgnn::kernels::SetDeterministic(true);
  state.SetLabel(ModeLabel(det));
  state.SetItemsProcessed(state.iterations() * rows * d * d);
}
BENCHMARK(BM_GemmKernel)->ArgsProduct({{0, 1}, {0, 1}, {0, 1}});

// Raw dispatched SpMM at serving/training feature widths, both modes.
void BM_SpmmKernel(benchmark::State& state) {
  Fixture& f = GetFixture();
  const int64_t d = state.range(0);
  const bool det = state.range(1) != 0;
  dgnn::util::Rng rng(7);
  Tensor x = Tensor::GaussianInit(f.adj.cols(), d, 0.1f, rng);
  Tensor y(f.adj.rows(), d);
  dgnn::kernels::SetDeterministic(det);
  for (auto _ : state) {
    f.adj.Multiply(x.data(), d, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  dgnn::kernels::SetDeterministic(true);
  state.SetLabel(ModeLabel(det));
  state.SetItemsProcessed(state.iterations() * f.adj.nnz() * d);
}
BENCHMARK(BM_SpmmKernel)->ArgsProduct({{8, 16, 32, 64}, {0, 1}});

void BM_SegmentSoftmax(benchmark::State& state) {
  Fixture& f = GetFixture();
  auto edges = f.graph.ItemToUserEdges();
  dgnn::util::Rng rng(5);
  Tensor scores = Tensor::GaussianInit(edges.size(), 1, 1.0f, rng);
  for (auto _ : state) {
    Tape tape;
    auto out = tape.SegmentSoftmax(tape.Constant(scores), edges.dst,
                                   f.graph.num_users());
    benchmark::DoNotOptimize(tape.val(out).data());
  }
  state.SetItemsProcessed(state.iterations() * edges.size());
}
BENCHMARK(BM_SegmentSoftmax);

}  // namespace
