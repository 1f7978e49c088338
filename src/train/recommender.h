// Recommender — the in-process serving API: computes final embeddings once
// and answers top-K queries, excluding items the user already interacted
// with. This is what a downstream application uses after Trainer::Fit().
// For the out-of-process path (snapshot export, batched online serving),
// see src/serve/.

#ifndef DGNN_TRAIN_RECOMMENDER_H_
#define DGNN_TRAIN_RECOMMENDER_H_

#include <vector>

#include "ag/tensor.h"
#include "data/dataset.h"
#include "models/rec_model.h"
#include "serve/ranking.h"

namespace dgnn::train {

// Ranking is shared with the serving engine: both call the one item scan
// and the one user scan in serve/ranking.h, so the two surfaces order
// candidates identically by construction.
using serve::ScoredItem;

class Recommender {
 public:
  // Runs one inference forward pass and snapshots the final embeddings.
  // `dataset` supplies the seen-item exclusion lists; it must outlive the
  // recommender. Re-construct after further training to refresh.
  Recommender(models::RecModel& model, const data::Dataset& dataset);

  // Top-k unseen items for a user, scores descending (deterministic ties:
  // lower item id first).
  std::vector<ScoredItem> TopK(int32_t user, int k) const;

  // Score of a single (user, item) pair.
  float Score(int32_t user, int32_t item) const;

  // Users most similar to `user` by cosine of final embeddings (excluding
  // the user itself) — handy for "people like you" surfaces and for
  // debugging social effects. Uses per-user L2 norms precomputed at
  // construction, so each call is a single pass over the user table.
  std::vector<ScoredItem> SimilarUsers(int32_t user, int k) const;

  const ag::Tensor& user_embeddings() const { return users_; }
  const ag::Tensor& item_embeddings() const { return items_; }

 private:
  const data::Dataset* dataset_;
  ag::Tensor users_;
  ag::Tensor items_;
  std::vector<std::vector<int32_t>> seen_;  // sorted per user
  std::vector<float> user_norms_;           // L2 norm of each user row
};

}  // namespace dgnn::train

#endif  // DGNN_TRAIN_RECOMMENDER_H_
