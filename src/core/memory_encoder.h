// The memory-augmented relation heterogeneity encoder of Eq. 3 — the
// paper's central building block. One encoder instance holds the
// non-shared parameter space of a single (edge type, layer) pair:
//
//   phi(H[t], H[s]) = ( sum_m eta(H[t], m) * W1_m ) H[s]
//   eta(H[t], m)    = LeakyReLU( H[t] . W2_m + b_m )
//
// Implementation notes:
//  * Applying a gated sum of M transforms per *edge* would cost
//    O(|E| M d^2). Because the gates depend on only one endpoint and SpMM
//    is linear, the aggregation over a normalized adjacency A factorizes
//    into a single SpMM plus a per-node mixing step
//      mix(X, eta) = sum_m diag(eta[:, m]) (X W1_m):
//      target-gated:  out = mix(A H_src, eta_tgt)
//      source-gated:  out = A mix(H_src, eta_src)
//    For diagonal W1_m the mix is X .* (eta [w1_0; ...; w1_{M-1}]), one
//    (n x M)(M x d) product, so a layer costs O(|E| d + |V| M d); dense
//    W1_m cost O(|E| d + |V| M d^2). A unit test checks this form against
//    the literal per-edge Eq. 3 and that one Propagate emits one SpMM.
//  * W1_m is either the paper's dense d x d matrix or (default) a
//    diagonal per-dimension factor mask — see DgnnConfig::TransformKind
//    for the tradeoff. Both start at (1/|M|) * I with small noise and are
//    L2-SP anchored to that prior, so an untrained encoder behaves as
//    mean aggregation.

#ifndef DGNN_CORE_MEMORY_ENCODER_H_
#define DGNN_CORE_MEMORY_ENCODER_H_

#include <string>
#include <vector>

#include "ag/tape.h"
#include "core/dgnn_config.h"
#include "graph/csr.h"

namespace dgnn::core {

class MemoryEncoder {
 public:
  // Creates the encoder's parameters in `store` under names prefixed with
  // `name` (e.g. "l0.user_from_item"). `dim` is d, `num_units` is |M|.
  // With gated=false the encoder degenerates to a single ungated linear
  // transform per edge type — the "-M" ablation of Fig. 4.
  MemoryEncoder(const std::string& name, int64_t dim, int num_units,
                MemoryGateSide gate_side, float leaky_slope,
                ag::ParamStore* store, util::Rng* rng, bool gated = true,
                DgnnConfig::TransformKind transform_kind =
                    DgnnConfig::TransformKind::kDiagonal,
                float mask_lr_scale = 1.0f, float gate_lr_scale = 1.0f);

  // Messages aggregated into each target: adj is (num_targets x
  // num_sources), already normalized; adj_t its transpose. h_src / h_tgt
  // are the current-layer embeddings of the two endpoint types.
  ag::VarId Propagate(ag::Tape& tape, ag::VarId h_src, ag::VarId h_tgt,
                      const graph::CsrMatrix* adj,
                      const graph::CsrMatrix* adj_t) const;

  // Self-propagation (Eq. 7's phi(H[v]) term): the adjacency is the
  // identity, so gates and transforms both read the node's own embedding.
  ag::VarId SelfPropagate(ag::Tape& tape, ag::VarId h) const;

  // The gate matrix eta(h, .) of shape (n x num_units); exposed for the
  // Fig. 10 memory-attention case study. Requires gated().
  ag::VarId Gates(ag::Tape& tape, ag::VarId h) const;

  int num_units() const { return num_units_; }
  bool gated() const { return gated_; }

 private:
  // sum_m diag(gates[:, m]) (x W1_m); an ungated encoder (gates < 0)
  // applies its single W1_0.
  ag::VarId Mix(ag::Tape& tape, ag::VarId x, ag::VarId gates) const;

  int64_t dim_;
  int num_units_;
  bool gated_;
  MemoryGateSide gate_side_;
  float leaky_slope_;
  DgnnConfig::TransformKind transform_kind_;
  std::vector<ag::Parameter*> w1_;  // M transforms: d x d dense or 1 x d
                                    // diagonal masks
  ag::Parameter* w2_;               // d x M gate projection
  ag::Parameter* bias_;             // 1 x M gate bias
};

}  // namespace dgnn::core

#endif  // DGNN_CORE_MEMORY_ENCODER_H_
