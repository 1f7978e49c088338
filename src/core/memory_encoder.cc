#include "core/memory_encoder.h"

#include "util/strings.h"

namespace dgnn::core {

MemoryEncoder::MemoryEncoder(const std::string& name, int64_t dim,
                             int num_units, MemoryGateSide gate_side,
                             float leaky_slope, ag::ParamStore* store,
                             util::Rng* rng, bool gated,
                             DgnnConfig::TransformKind transform_kind,
                             float mask_lr_scale, float gate_lr_scale)
    : dim_(dim),
      num_units_(gated ? num_units : 1),
      gated_(gated),
      gate_side_(gate_side),
      leaky_slope_(leaky_slope),
      transform_kind_(transform_kind) {
  DGNN_CHECK_GT(num_units_, 0);
  // Initialization matters here: with generic random transforms and zero
  // gate biases, the layer's aggregated message is near-zero noise at
  // initialization and propagation *hurts* until the transforms align,
  // which small-step training never fully recovers from. Instead, each
  // W1_m starts at I/|M| plus small noise and gate biases start at 1, so
  // sum_m eta_m W1_m ~ I: the layer begins as mean neighborhood
  // aggregation. All encoder parameters are L2-SP anchored to this prior
  // (weight decay pulls toward it, not toward zero).
  w1_.reserve(static_cast<size_t>(num_units_));
  const float identity_scale = 1.0f / static_cast<float>(num_units_);
  const float noise_scale = 0.2f * identity_scale;
  for (int m = 0; m < num_units_; ++m) {
    ag::Tensor init;
    if (transform_kind_ == DgnnConfig::TransformKind::kDense) {
      init = ag::Tensor::XavierUniform(dim, dim, *rng);
      init.Scale(noise_scale);
      for (int64_t i = 0; i < dim; ++i) init.at(i, i) += identity_scale;
    } else {
      init = ag::Tensor(1, dim);
      for (int64_t i = 0; i < dim; ++i) {
        init.at(0, i) =
            identity_scale + rng->UniformFloat(-noise_scale, noise_scale);
      }
    }
    ag::Parameter* p = store->Create(
        util::StrFormat("%s.w1_%d", name.c_str(), m), std::move(init));
    p->anchor = p->value;
    p->lr_scale = mask_lr_scale;
    w1_.push_back(p);
  }
  if (gated_) {
    w2_ = store->CreateXavier(name + ".w2", dim, num_units_, *rng);
    w2_->anchor = w2_->value;
    w2_->lr_scale = gate_lr_scale;
    bias_ = store->CreateFull(name + ".b", 1, num_units_, 1.0f);
    bias_->anchor = bias_->value;
    bias_->lr_scale = gate_lr_scale;
  } else {
    w2_ = nullptr;
    bias_ = nullptr;
  }
}

ag::VarId MemoryEncoder::Gates(ag::Tape& tape, ag::VarId h) const {
  DGNN_CHECK(gated_) << "ungated encoder has no memory gates";
  ag::VarId proj = tape.MatMul(h, tape.Param(w2_));
  proj = tape.AddRowBroadcast(proj, tape.Param(bias_));
  return tape.LeakyRelu(proj, leaky_slope_);
}

ag::VarId MemoryEncoder::Mix(ag::Tape& tape, ag::VarId x,
                             ag::VarId gates) const {
  const bool dense = transform_kind_ == DgnnConfig::TransformKind::kDense;
  if (gates < 0) {
    return dense ? tape.MatMul(x, tape.Param(w1_[0]))
                 : tape.MulRowBroadcast(x, tape.Param(w1_[0]));
  }
  if (!dense) {
    // Row i scales x by sum_m eta[i, m] w1_m: (n x M)(M x d), then one
    // elementwise product.
    std::vector<ag::VarId> masks;
    masks.reserve(w1_.size());
    for (ag::Parameter* w : w1_) masks.push_back(tape.Param(w));
    return tape.Mul(x, tape.MatMul(gates, tape.ConcatRows(masks)));
  }
  std::vector<ag::VarId> terms;
  terms.reserve(w1_.size());
  for (size_t m = 0; m < w1_.size(); ++m) {
    terms.push_back(tape.RowScale(tape.MatMul(x, tape.Param(w1_[m])),
                                  tape.Col(gates, static_cast<int64_t>(m))));
  }
  return tape.AddN(terms);
}

ag::VarId MemoryEncoder::Propagate(ag::Tape& tape, ag::VarId h_src,
                                   ag::VarId h_tgt,
                                   const graph::CsrMatrix* adj,
                                   const graph::CsrMatrix* adj_t) const {
  if (gated_ && gate_side_ == MemoryGateSide::kTarget) {
    // mix(A H_src, eta_tgt)
    return Mix(tape, tape.SpMM(adj, adj_t, h_src), Gates(tape, h_tgt));
  }
  // A mix(H_src, eta_src)
  return tape.SpMM(adj, adj_t,
                   Mix(tape, h_src, gated_ ? Gates(tape, h_src) : -1));
}

ag::VarId MemoryEncoder::SelfPropagate(ag::Tape& tape, ag::VarId h) const {
  return Mix(tape, h, gated_ ? Gates(tape, h) : -1);
}

}  // namespace dgnn::core
