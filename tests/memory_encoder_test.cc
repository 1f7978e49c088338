// Tests for the paper's core building block (Eq. 3). The key property:
// the factorized implementation — one SpMM per Propagate plus a per-node
// gate mix, O(|E| d + |V| |M| d) for diagonal transforms and
// O(|E| d + |V| |M| d^2) for dense ones — must equal the literal per-edge
// sum of gated transforms, for both transform kinds and both gate sides.

#include "core/memory_encoder.h"

#include <cmath>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "ag/grad_check.h"
#include "graph/coo.h"

namespace dgnn::core {
namespace {

constexpr float kSlope = 0.2f;

float LeakyReluF(float x) { return x >= 0.0f ? x : kSlope * x; }

using Kind = DgnnConfig::TransformKind;

struct EncoderFixture {
  EncoderFixture(int num_units, MemoryGateSide side, Kind kind,
                 bool gated = true)
      : rng(42),
        encoder("enc", kDim, num_units, side, kSlope, &store, &rng, gated,
                kind) {
    graph::CooMatrix coo;
    coo.rows = kTargets;
    coo.cols = kSources;
    coo.Add(0, 1, 0.5f);
    coo.Add(0, 3, 0.5f);
    coo.Add(1, 0, 1.0f);
    coo.Add(2, 2, 0.7f);
    coo.Add(2, 4, 0.3f);
    // Target 3 has no neighbors.
    adj = graph::CsrMatrix::FromCoo(coo);
    adj_t = adj.Transposed();
    h_src = store.Create("h_src",
                         ag::Tensor::GaussianInit(kSources, kDim, 0.5f, rng));
    h_tgt = store.Create("h_tgt",
                         ag::Tensor::GaussianInit(kTargets, kDim, 0.5f, rng));
  }

  static constexpr int64_t kDim = 5;
  static constexpr int64_t kSources = 5;
  static constexpr int64_t kTargets = 4;

  dgnn::util::Rng rng;
  ag::ParamStore store;
  MemoryEncoder encoder;
  graph::CsrMatrix adj, adj_t;
  ag::Parameter* h_src;
  ag::Parameter* h_tgt;
};

// h_s W1_m at column c; a 1 x d W1_m is the diagonal diag(w1_m).
float TransformedAt(const ag::Tensor& h, int64_t row, const ag::Tensor& w1,
                    int64_t c) {
  if (w1.rows() == 1) return h.at(row, c) * w1.at(0, c);
  float transformed = 0.0f;
  for (int64_t k = 0; k < h.cols(); ++k) {
    transformed += h.at(row, k) * w1.at(k, c);
  }
  return transformed;
}

// Literal Eq. 3: per edge (s -> t) with weight w, message =
// w * sum_m eta(gate_node)_m * (h_s W1_m), summed into t. Self-propagation
// is the same sum over an identity adjacency with src = tgt.
ag::Tensor NaivePropagate(EncoderFixture& s, const graph::CsrMatrix& adj,
                          const ag::Tensor& src, const ag::Tensor& tgt,
                          MemoryGateSide side, int num_units) {
  ag::Tensor out(adj.rows(), EncoderFixture::kDim);
  const ag::Tensor& w2 = s.store.Find("enc.w2")->value;
  const ag::Tensor& bias = s.store.Find("enc.b")->value;
  for (int64_t t = 0; t < adj.rows(); ++t) {
    for (int64_t i = adj.indptr()[t]; i < adj.indptr()[t + 1]; ++i) {
      const int32_t src_id = adj.indices()[i];
      const float w = adj.values()[i];
      const ag::Tensor& gate_node_emb = side == MemoryGateSide::kTarget
                                            ? tgt
                                            : src;
      const int64_t gate_row =
          side == MemoryGateSide::kTarget ? t : src_id;
      for (int m = 0; m < num_units; ++m) {
        // eta = LeakyReLU(h . w2[:, m] + b_m)
        float gate = bias.at(0, m);
        for (int64_t c = 0; c < EncoderFixture::kDim; ++c) {
          gate += gate_node_emb.at(gate_row, c) * w2.at(c, m);
        }
        gate = LeakyReluF(gate);
        const ag::Tensor& w1 =
            s.store.Find("enc.w1_" + std::to_string(m))->value;
        for (int64_t c = 0; c < EncoderFixture::kDim; ++c) {
          out.at(t, c) += w * gate * TransformedAt(src, src_id, w1, c);
        }
      }
    }
  }
  return out;
}

ag::Tensor NaivePropagate(EncoderFixture& s, MemoryGateSide side,
                          int num_units) {
  return NaivePropagate(s, s.adj, s.h_src->value, s.h_tgt->value, side,
                        num_units);
}

int64_t CountOps(const ag::Tape& tape, const std::string& op) {
  int64_t n = 0;
  for (ag::VarId id = 0; id < tape.num_nodes(); ++id) {
    if (op == tape.op_name(id)) ++n;
  }
  return n;
}

// Every test runs for the paper's dense W1_m and the default diagonal one.
class MemoryEncoderTest : public ::testing::TestWithParam<Kind> {};

TEST_P(MemoryEncoderTest, FactorizedMatchesLiteralEq3TargetGate) {
  EncoderFixture s(3, MemoryGateSide::kTarget, GetParam());
  ag::Tape tape;
  ag::VarId out =
      s.encoder.Propagate(tape, tape.Param(s.h_src), tape.Param(s.h_tgt),
                          &s.adj, &s.adj_t);
  ag::Tensor naive = NaivePropagate(s, MemoryGateSide::kTarget, 3);
  EXPECT_LT(tape.val(out).MaxAbsDiff(naive), 1e-4f);
}

TEST_P(MemoryEncoderTest, FactorizedMatchesLiteralEq3SourceGate) {
  EncoderFixture s(3, MemoryGateSide::kSource, GetParam());
  ag::Tape tape;
  ag::VarId out =
      s.encoder.Propagate(tape, tape.Param(s.h_src), tape.Param(s.h_tgt),
                          &s.adj, &s.adj_t);
  ag::Tensor naive = NaivePropagate(s, MemoryGateSide::kSource, 3);
  EXPECT_LT(tape.val(out).MaxAbsDiff(naive), 1e-4f);
}

TEST_P(MemoryEncoderTest, SelfPropagateMatchesLiteralEq3) {
  EncoderFixture s(3, MemoryGateSide::kTarget, GetParam());
  ag::Tape tape;
  ag::VarId out = s.encoder.SelfPropagate(tape, tape.Param(s.h_tgt));
  graph::CsrMatrix id = graph::CsrMatrix::Identity(EncoderFixture::kTargets);
  ag::Tensor naive = NaivePropagate(s, id, s.h_tgt->value, s.h_tgt->value,
                                    MemoryGateSide::kTarget, 3);
  EXPECT_LT(tape.val(out).MaxAbsDiff(naive), 1e-4f);
}

// The gated sum collapses to one SpMM per edge type; an |M|-way fan-out
// of SpMMs would show up here as num_units nodes.
TEST_P(MemoryEncoderTest, PropagateEmitsOneSpMM) {
  for (MemoryGateSide side : {MemoryGateSide::kTarget,
                              MemoryGateSide::kSource}) {
    for (bool gated : {true, false}) {
      EncoderFixture s(4, side, GetParam(), gated);
      ag::Tape tape;
      s.encoder.Propagate(tape, tape.Param(s.h_src), tape.Param(s.h_tgt),
                          &s.adj, &s.adj_t);
      EXPECT_EQ(CountOps(tape, "SpMM"), 1)
          << "gated=" << gated << " source_side="
          << (side == MemoryGateSide::kSource);
    }
  }
}

TEST_P(MemoryEncoderTest, GateSidesDiffer) {
  // Same seed -> same params.
  EncoderFixture target(3, MemoryGateSide::kTarget, GetParam());
  EncoderFixture source(3, MemoryGateSide::kSource, GetParam());
  ag::Tape t1, t2;
  ag::VarId o1 = target.encoder.Propagate(
      t1, t1.Param(target.h_src), t1.Param(target.h_tgt), &target.adj,
      &target.adj_t);
  ag::VarId o2 = source.encoder.Propagate(
      t2, t2.Param(source.h_src), t2.Param(source.h_tgt), &source.adj,
      &source.adj_t);
  EXPECT_GT(t1.val(o1).MaxAbsDiff(t2.val(o2)), 1e-4f);
}

TEST_P(MemoryEncoderTest, IsolatedTargetsGetZeroMessages) {
  EncoderFixture s(3, MemoryGateSide::kTarget, GetParam());
  ag::Tape tape;
  ag::VarId out =
      s.encoder.Propagate(tape, tape.Param(s.h_src), tape.Param(s.h_tgt),
                          &s.adj, &s.adj_t);
  // Target 3 has no incoming edges.
  for (int64_t c = 0; c < EncoderFixture::kDim; ++c) {
    EXPECT_EQ(tape.val(out).at(3, c), 0.0f);
  }
}

TEST_P(MemoryEncoderTest, UngatedModeIsSingleLinearTransform) {
  EncoderFixture s(4, MemoryGateSide::kTarget, GetParam(), /*gated=*/false);
  EXPECT_EQ(s.encoder.num_units(), 1);
  EXPECT_FALSE(s.encoder.gated());
  ag::Tape tape;
  ag::VarId out =
      s.encoder.Propagate(tape, tape.Param(s.h_src), tape.Param(s.h_tgt),
                          &s.adj, &s.adj_t);
  // out = A (h_src W1_0)
  const ag::Tensor& w1 = s.store.Find("enc.w1_0")->value;
  ag::Tensor transformed(EncoderFixture::kSources, EncoderFixture::kDim);
  for (int64_t r = 0; r < EncoderFixture::kSources; ++r) {
    for (int64_t c = 0; c < EncoderFixture::kDim; ++c) {
      transformed.at(r, c) = TransformedAt(s.h_src->value, r, w1, c);
    }
  }
  ag::Tensor expected(EncoderFixture::kTargets, EncoderFixture::kDim);
  s.adj.Multiply(transformed.data(), EncoderFixture::kDim, expected.data());
  EXPECT_LT(tape.val(out).MaxAbsDiff(expected), 1e-4f);
}

TEST_P(MemoryEncoderTest, SelfPropagateUsesOwnEmbedding) {
  EncoderFixture s(2, MemoryGateSide::kTarget, GetParam());
  ag::Tape tape;
  ag::VarId out = s.encoder.SelfPropagate(tape, tape.Param(s.h_tgt));
  // Equivalent to Propagate over an identity adjacency.
  graph::CsrMatrix id = graph::CsrMatrix::Identity(EncoderFixture::kTargets);
  ag::VarId via_identity = s.encoder.Propagate(
      tape, tape.Param(s.h_tgt), tape.Param(s.h_tgt), &id, &id);
  EXPECT_LT(tape.val(out).MaxAbsDiff(tape.val(via_identity)), 1e-4f);
}

TEST_P(MemoryEncoderTest, GatesShapeAndActivation) {
  EncoderFixture s(4, MemoryGateSide::kTarget, GetParam());
  ag::Tape tape;
  ag::VarId gates = s.encoder.Gates(tape, tape.Param(s.h_tgt));
  EXPECT_EQ(tape.val(gates).rows(), EncoderFixture::kTargets);
  EXPECT_EQ(tape.val(gates).cols(), 4);
}

// Numeric gradients of mean(out^2) with respect to every parameter,
// including the input embeddings.
void ExpectGradientsMatchNumeric(
    EncoderFixture& s, const std::function<ag::VarId(ag::Tape&)>& forward) {
  std::vector<ag::Parameter*> params;
  for (const auto& p : s.store.params()) params.push_back(p.get());
  auto result = ag::CheckGradients(params, [&](ag::Tape& tape) {
    ag::VarId out = forward(tape);
    return tape.MeanAll(tape.Mul(out, out));
  });
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST_P(MemoryEncoderTest, GradientsMatchNumeric) {
  EncoderFixture s(2, MemoryGateSide::kTarget, GetParam());
  ExpectGradientsMatchNumeric(s, [&](ag::Tape& tape) {
    return s.encoder.Propagate(tape, tape.Param(s.h_src),
                               tape.Param(s.h_tgt), &s.adj, &s.adj_t);
  });
}

TEST_P(MemoryEncoderTest, SourceGateGradientsMatchNumeric) {
  EncoderFixture s(2, MemoryGateSide::kSource, GetParam());
  ExpectGradientsMatchNumeric(s, [&](ag::Tape& tape) {
    return s.encoder.Propagate(tape, tape.Param(s.h_src),
                               tape.Param(s.h_tgt), &s.adj, &s.adj_t);
  });
}

TEST_P(MemoryEncoderTest, SelfPropagateGradientsMatchNumeric) {
  EncoderFixture s(2, MemoryGateSide::kTarget, GetParam());
  ExpectGradientsMatchNumeric(s, [&](ag::Tape& tape) {
    return s.encoder.SelfPropagate(tape, tape.Param(s.h_tgt));
  });
}

TEST_P(MemoryEncoderTest, UngatedGradientsMatchNumeric) {
  EncoderFixture s(2, MemoryGateSide::kTarget, GetParam(), /*gated=*/false);
  ExpectGradientsMatchNumeric(s, [&](ag::Tape& tape) {
    return s.encoder.Propagate(tape, tape.Param(s.h_src),
                               tape.Param(s.h_tgt), &s.adj, &s.adj_t);
  });
}

INSTANTIATE_TEST_SUITE_P(
    TransformKinds, MemoryEncoderTest,
    ::testing::Values(Kind::kDense, Kind::kDiagonal),
    [](const ::testing::TestParamInfo<Kind>& info) {
      return std::string(info.param == Kind::kDense ? "Dense" : "Diagonal");
    });

}  // namespace
}  // namespace dgnn::core
