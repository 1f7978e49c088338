// Ranking primitives shared by every scoring surface: the in-process
// train::Recommender and the online serve::ServingEngine (its TopK,
// SimilarUsers and shard-worker partial ops, whose per-shard answers the
// shard router merges with SelectTopK).
//
// There is ONE item scan, TopKUnseenFromView, and ONE user scan,
// SimilarUsersByCosine, both over EmbeddingView (a dense-or-quantized
// read-only matrix). Every production caller ranks through them, so the
// offline and online top-K are bit-identical by construction (the
// serving acceptance bar), not by coincidence of two copies staying in
// sync.
//
// TopKUnseenItems is the brute-force REFERENCE over a dense tensor: the
// tests, the recall baselines and the benchmark's output checks compare
// the item scan against it. No serving or training code calls it
// (ci/check_serve.sh enforces this), so it can never become a second
// production path.
//
// Determinism: every scan scores candidates with a sequential
// per-candidate dot product inside a fixed-grain ParallelFor (disjoint
// output slots), then filters and selects serially — results are
// bit-identical for any thread count (see src/util/thread_pool.h).

#ifndef DGNN_SERVE_RANKING_H_
#define DGNN_SERVE_RANKING_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ag/tensor.h"
#include "kernels/kernels.h"
#include "quant/quant.h"
#include "util/thread_pool.h"

namespace dgnn::serve {

struct ScoredItem {
  int32_t item = 0;
  float score = 0.0f;
};

// Candidate rows scored per ParallelFor chunk in the catalog scans; fixed
// so scores are computed identically for any thread count.
inline constexpr int64_t kScanGrain = 256;

// Deterministic ordering: score descending, ties broken by lower id.
inline bool ScoreGreater(const ScoredItem& a, const ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

// Both scoring surfaces call the same dispatched kernel, so train-time
// and serve-time scores stay bit-identical by construction in either
// numeric mode (deterministic: serial index order on every ISA; fast:
// the same multi-lane FMA sum on both surfaces).
inline float Dot(const float* a, const float* b, int64_t d) {
  return kernels::Dot(a, b, d);
}

// Keeps the k best entries of `scored` under ScoreGreater (k clamped to
// the candidate count), sorted descending.
inline void SelectTopK(std::vector<ScoredItem>& scored, int k) {
  const size_t keep =
      std::min<size_t>(static_cast<size_t>(std::max(k, 0)), scored.size());
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<int64_t>(keep),
                    scored.end(), ScoreGreater);
  scored.resize(keep);
}

// Reference top-k: the k best rows of `items` by dot product with `u`
// (length items.cols()), excluding ids present in the sorted `seen` list.
// Plain brute force over a dense tensor — the yardstick the item scan
// below is checked against, never called on a serving or training path.
inline std::vector<ScoredItem> TopKUnseenItems(
    const float* u, const ag::Tensor& items,
    const std::vector<int32_t>& seen, int k) {
  std::vector<float> scores(static_cast<size_t>(items.rows()));
  util::ParallelFor(0, items.rows(), kScanGrain, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      scores[static_cast<size_t>(i)] = Dot(u, items.row(i), items.cols());
    }
  });
  std::vector<ScoredItem> scored;
  scored.reserve(static_cast<size_t>(items.rows()));
  for (int32_t i = 0; i < items.rows(); ++i) {
    if (std::binary_search(seen.begin(), seen.end(), i)) continue;
    scored.push_back({i, scores[static_cast<size_t>(i)]});
  }
  SelectTopK(scored, k);
  return scored;
}

// Read-only view over an embedding matrix that is EITHER a dense fp32
// tensor or a quantized section — the one type every scan ranks against,
// so brute-force and IVF candidate scans share code across both storage
// formats. Non-owning and cheap to build: callers that own a tensor make
// one per call; the engine keeps one per snapshot, which outlives it.
class EmbeddingView {
 public:
  EmbeddingView() = default;
  explicit EmbeddingView(const ag::Tensor* dense) : dense_(dense) {}
  explicit EmbeddingView(const quant::QuantizedMatrix* q) : quant_(q) {}

  int64_t rows() const {
    return dense_ != nullptr ? dense_->rows()
           : quant_ != nullptr ? quant_->rows
                               : 0;
  }
  int64_t cols() const {
    return dense_ != nullptr ? dense_->cols()
           : quant_ != nullptr ? quant_->cols
                               : 0;
  }
  bool dense() const { return dense_ != nullptr; }

  // dot(u, row r) — exact for dense, approximate (codec precision) for
  // quantized storage.
  float Score(const float* u, int64_t r) const {
    return dense_ != nullptr ? Dot(u, dense_->row(r), dense_->cols())
                             : quant_->Dot(u, r);
  }

  // out[i] = Score(u, row) for i in [b, e), where row is ids[i], or i
  // itself when `ids` is null. Storage and addressing are resolved once
  // per call, so the per-row loop carries no branch beyond the kernel.
  void ScoreRows(const float* u, const int32_t* ids, int64_t b, int64_t e,
                 float* out) const {
    auto scan = [&](auto row_of) {
      if (dense_ != nullptr) {
        const float* base = dense_->data();
        const int64_t d = dense_->cols();
        for (int64_t i = b; i < e; ++i) {
          out[i] = Dot(u, base + row_of(i) * d, d);
        }
      } else {
        for (int64_t i = b; i < e; ++i) out[i] = quant_->Dot(u, row_of(i));
      }
    };
    if (ids == nullptr) {
      scan([](int64_t i) { return i; });
    } else {
      scan([ids](int64_t i) { return static_cast<int64_t>(ids[i]); });
    }
  }

  // Row r as fp32: dense rows are returned in place; quantized rows are
  // decoded into `scratch` (cols() floats), which is returned.
  const float* Row(int64_t r, float* scratch) const {
    if (dense_ != nullptr) return dense_->row(r);
    quant_->DequantizeRow(r, scratch);
    return scratch;
  }

  // Copies row r as fp32 into `out` (cols() floats).
  void DecodeRow(int64_t r, float* out) const {
    const float* row = Row(r, out);
    if (row != out) std::copy(row, row + cols(), out);
  }

 private:
  const ag::Tensor* dense_ = nullptr;
  const quant::QuantizedMatrix* quant_ = nullptr;
};

// The item scan: top-k unseen items scored against `view`. `candidates`
// null scans the full catalog; non-null scans only those ids (the IVF
// shortlist path). For quantized views a two-phase rank runs: the
// (approximate) quantized scores select a shortlist of max(rerank, k)
// survivors, whose rows are then decoded to fp32 and re-scored exactly —
// so codec noise can demote items INTO the shortlist boundary but never
// reorders the final top-k within it. Dense views skip the rerank (their
// scores are already exact) and, on a full-catalog scan, match the
// TopKUnseenItems reference bit-for-bit.
//
// `compute_seconds` / `rank_seconds`, when non-null, receive how the
// call split between the parallel scoring pass and the serial filter +
// select (+ rerank) for per-stage serving attribution; when both are
// null no clock is read. Timing never changes scores or order.
inline std::vector<ScoredItem> TopKUnseenFromView(
    const float* u, const EmbeddingView& view,
    const std::vector<int32_t>* candidates,
    const std::vector<int32_t>& seen, int k, int rerank = 0,
    double* compute_seconds = nullptr, double* rank_seconds = nullptr) {
  using Clock = std::chrono::steady_clock;
  const bool timed = compute_seconds != nullptr || rank_seconds != nullptr;
  Clock::time_point t0;
  if (timed) t0 = Clock::now();
  const int32_t* ids = candidates != nullptr ? candidates->data() : nullptr;
  const int64_t n = candidates != nullptr
                        ? static_cast<int64_t>(candidates->size())
                        : view.rows();
  std::vector<float> scores(static_cast<size_t>(n));
  util::ParallelFor(0, n, kScanGrain, [&](int64_t b, int64_t e) {
    view.ScoreRows(u, ids, b, e, scores.data());
  });
  Clock::time_point t1;
  if (timed) t1 = Clock::now();
  std::vector<ScoredItem> scored;
  scored.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const int32_t item = ids != nullptr ? ids[i] : static_cast<int32_t>(i);
    if (std::binary_search(seen.begin(), seen.end(), item)) continue;
    scored.push_back({item, scores[static_cast<size_t>(i)]});
  }
  if (view.dense()) {
    SelectTopK(scored, k);
  } else {
    SelectTopK(scored, std::max(rerank, k));
    // Exact rerank: decode each surviving row to fp32 and re-score with
    // the same dispatched Dot both scoring surfaces use. Serial loop —
    // deterministic for any thread count.
    std::vector<float> row(static_cast<size_t>(view.cols()));
    for (ScoredItem& s : scored) {
      s.score = Dot(u, view.Row(s.item, row.data()), view.cols());
    }
    SelectTopK(scored, k);
  }
  if (timed) {
    const Clock::time_point t2 = Clock::now();
    if (compute_seconds != nullptr) {
      *compute_seconds = std::chrono::duration<double>(t1 - t0).count();
    }
    if (rank_seconds != nullptr) {
      *rank_seconds = std::chrono::duration<double>(t2 - t1).count();
    }
  }
  return scored;
}

// Per-row L2 norms of `m`, precomputed once per matrix by both scoring
// surfaces so the user scan never re-derives norms. Dense rows are read
// in place; quantized rows are decoded, so the norm is that of the fp32
// row the exact-rerank path scores against.
inline std::vector<float> ComputeRowNorms(const EmbeddingView& m) {
  std::vector<float> norms(static_cast<size_t>(m.rows()));
  util::ParallelFor(0, m.rows(), kScanGrain, [&](int64_t b, int64_t e) {
    std::vector<float> scratch(static_cast<size_t>(m.cols()));
    for (int64_t r = b; r < e; ++r) {
      const float* row = m.Row(r, scratch.data());
      norms[static_cast<size_t>(r)] = std::sqrt(Dot(row, row, m.cols()));
    }
  });
  return norms;
}

// The user scan: top-k rows of `users` by cosine with the query `u`,
// given its norm `u_norm` and the per-row `norms` from ComputeRowNorms.
// The query and its norm come from the caller — the user's own row on a
// single process, or another shard's answer relayed by the router — so
// every shard divides by the exact same float and a scatter/gathered
// result merges bit-identically with the single-process scan.
// `exclude_row` (-1 = none) skips the query user's own row when `users`
// holds it. Returned items are ROW indices into `users`; sharded callers
// map them to global ids.
inline std::vector<ScoredItem> SimilarUsersByCosine(
    const float* u, float u_norm, const EmbeddingView& users,
    const std::vector<float>& norms, int64_t exclude_row, int k) {
  std::vector<float> scores(static_cast<size_t>(users.rows()));
  util::ParallelFor(0, users.rows(), kScanGrain, [&](int64_t b, int64_t e) {
    users.ScoreRows(u, nullptr, b, e, scores.data());
    for (int64_t v = b; v < e; ++v) {
      const float denom = u_norm * norms[static_cast<size_t>(v)];
      float& s = scores[static_cast<size_t>(v)];
      s = denom > 1e-12f ? s / denom : 0.0f;
    }
  });
  std::vector<ScoredItem> scored;
  scored.reserve(static_cast<size_t>(users.rows()));
  for (int32_t v = 0; v < users.rows(); ++v) {
    if (v == exclude_row) continue;
    scored.push_back({v, scores[static_cast<size_t>(v)]});
  }
  SelectTopK(scored, k);
  return scored;
}

}  // namespace dgnn::serve

#endif  // DGNN_SERVE_RANKING_H_
