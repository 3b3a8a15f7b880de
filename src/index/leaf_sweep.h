// The one place every leaf-page sweep goes through.
//
// Before this helper, the quantized/exact decision would have been
// duplicated across five call-sites (HsKnn, RkvKnn, BallQuery,
// RangeQuery/partial-match, and the coalesced batch expander — the R*
// reinsert's center-distance sort operates on a scratch entry buffer,
// not a LeafBlock, so it is not a leaf sweep in this sense). SweepLeaf*
// centralizes it: on a plain block the sweep is the familiar
// ComparableMany / ComparableBlock / Contains pass; on a quantized block
// (LeafBlock::has_sq8) it first runs the integer SQ8 reduction over the
// uint8 mirror, prunes every candidate whose comparable-space lower
// bound (Sq8Bound::LowerBound, applied through its reduction-space
// inversion PruneCutoff so the hot loop is one compare per candidate)
// exceeds the caller's current threshold, and re-ranks only survivors
// through the exact float kernels. Because
// the bound never exceeds the exact comparable distance, a pruned
// candidate is exactly one the caller's threshold test would have
// rejected — emitted keys, result sets, and page accesses are
// bit-identical to the exact sweep.
//
// Each sweep returns (or fills) LeafSweepStats; callers book them with
// AddLeafSweep, into the stats sink of the disk AccessNode routed the
// leaf to, so exact re-ranks meter simulated CPU
// (distance_computations) and the prune/re-rank/bytes counters reach the
// per-query stats. The integer bound computations charge no simulated
// CPU: they are the cost the quantized path removes, and the counters
// make the removal auditable instead of invisible.

#ifndef PARSIM_SRC_INDEX_LEAF_SWEEP_H_
#define PARSIM_SRC_INDEX_LEAF_SWEEP_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "src/geometry/metric.h"
#include "src/geometry/rect.h"
#include "src/geometry/sq8.h"
#include "src/index/leaf_block.h"
#include "src/io/disk_model.h"
#include "src/util/phase_timer.h"

namespace parsim {

/// What one leaf sweep did, for cost charging and stats plumbing.
struct LeafSweepStats {
  /// Exact float kernel evaluations: all candidates on the exact path,
  /// only re-ranked survivors on the quantized path (containment sweeps
  /// charge none, matching RangeQuery's pre-quantization accounting).
  std::uint64_t exact_distances = 0;
  /// Candidates eliminated by the SQ8 lower bound before exact work
  /// (total across stages: always base_pruned + prefix_pruned +
  /// sq8_pruned, and identical whether or not the prefix stage ran).
  std::uint64_t quantized_pruned = 0;
  /// Stage split of quantized_pruned. base_pruned: killed by the
  /// candidate-independent base term alone (whole-block prune at entry,
  /// or rest-of-block when the threshold tightens mid-sweep past the
  /// base) — no per-candidate kernel work. prefix_pruned: killed by the
  /// prefix-dimension cascade stage's d'-byte reduction. sq8_pruned:
  /// killed by the full-dimension reduction (the only kernel stage when
  /// no prefix is built, and the range sweep's code-interval prefilter).
  std::uint64_t base_pruned = 0;
  std::uint64_t prefix_pruned = 0;
  std::uint64_t sq8_pruned = 0;
  /// Bound survivors re-ranked through the exact float kernel.
  std::uint64_t reranked = 0;
  /// Approximate tier only (approx_factor > 1): of the pruned
  /// candidates, how many the LOSSLESS cutoff derived from the same
  /// running threshold provably would have pruned too (always <=
  /// quantized_pruned). Conservative: a whole-block relaxed base prune
  /// skips the integer kernel, so when the exact contract would have
  /// needed it, nothing is counted as exactly proven.
  std::uint64_t approx_pruned_exactly = 0;
  /// Bytes the sweep streamed: count * dim * sizeof(Scalar) on the exact
  /// path; count * dim code bytes plus the re-ranked float rows on the
  /// quantized path (zero when the query's base term pruned the whole
  /// block before the mirror was read). Bookkeeping only — simulated
  /// time still derives from page counts and distance computations.
  std::uint64_t leaf_bytes_scanned = 0;
};

/// Books one sweep into a stats sink: exact re-ranks as simulated CPU
/// (distance_computations), the rest as bookkeeping counters. The one
/// LeafSweepStats -> DiskStats mapping; block_kernel_invocations stays
/// with the caller, which alone knows how many kernel calls it issued.
inline void AddLeafSweep(DiskStats* stats, const LeafSweepStats& sweep) {
  stats->distance_computations += sweep.exact_distances;
  stats->quantized_pruned += sweep.quantized_pruned;
  stats->base_pruned += sweep.base_pruned;
  stats->prefix_pruned += sweep.prefix_pruned;
  stats->sq8_pruned += sweep.sq8_pruned;
  stats->reranked += sweep.reranked;
  stats->leaf_bytes_scanned += sweep.leaf_bytes_scanned;
  stats->approx_pruned_exactly += sweep.approx_pruned_exactly;
}

namespace detail {

/// Best-effort readahead for loops that touch scattered survivor rows
/// (cold lines: the cascade streams only the prefix codes, so a
/// survivor's full code/float row is usually not cached). No-op where
/// the builtin is unavailable; never affects results.
inline void PrefetchRow(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
  (void)p;
#endif
}

/// Grow-only resize for scratch vectors that are always written before
/// they are read: plain resize() value-initializes every element past
/// the old size, and with per-call sizes that fluctuate block to block
/// that memset re-runs on almost every sweep. Keeping the size at its
/// high-water mark makes the steady state allocation- and memset-free.
template <typename T>
inline void GrowTo(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

/// "Row not in the gathered union" sentinel of the batched cascade's
/// union slot map (block rows are far below 2^32 - 1).
inline constexpr std::uint32_t kNoUnionSlot = 0xffffffffu;

/// Packs the code rows listed in `rows` contiguously into `dst`
/// (n x dim bytes). A variable-length memcpy per row compiles to a
/// libc call — tens of nanoseconds each, which dominates a cascade
/// full stage that gathers only a handful of survivors — so the common
/// code widths dispatch once per call to a fixed-size copy the
/// compiler inlines to one or two vector moves.
inline void GatherRows(const std::uint8_t* codes, std::size_t dim,
                       const std::uint32_t* rows, std::size_t n,
                       std::uint8_t* dst) {
  switch (dim) {
    case 8:
      for (std::size_t s = 0; s < n; ++s) {
        std::memcpy(dst + s * 8, codes + rows[s] * std::size_t{8}, 8);
      }
      break;
    case 16:
      for (std::size_t s = 0; s < n; ++s) {
        std::memcpy(dst + s * 16, codes + rows[s] * std::size_t{16}, 16);
      }
      break;
    case 32:
      for (std::size_t s = 0; s < n; ++s) {
        std::memcpy(dst + s * 32, codes + rows[s] * std::size_t{32}, 32);
      }
      break;
    default:
      for (std::size_t s = 0; s < n; ++s) {
        if (s + 8 < n) PrefetchRow(codes + rows[s + 8] * dim);
        std::memcpy(dst + s * dim, codes + rows[s] * dim, dim);
      }
  }
}

/// Per-thread buffers of the sweep templates below, so steady-state
/// sweeps allocate nothing (the pattern ScanLeafBlock used before).
struct LeafSweepScratch {
  std::vector<double> dists;
  std::vector<std::uint32_t> reductions;
  Sq8Query query;
  std::vector<std::uint8_t> qcodes;    // batched sweeps: members x dim
  std::vector<Sq8Bound> bounds;        // batched sweeps: one per member
  std::vector<std::uint32_t> survivors;  // bound survivors of one sweep
  std::vector<std::uint32_t> active;   // members surviving the base prune
  std::vector<std::uint8_t> qprefix;   // cascade: query codes gathered to
                                       // prefix order (members x d')
  std::vector<std::uint32_t> full_reductions;  // cascade stage 2: full-d
                                               // reductions of survivors
  std::vector<std::uint8_t> gathered;  // cascade stage 2: survivor code
                                       // rows packed contiguous so the
                                       // many-kernel (not the slower
                                       // per-pair call) reduces them
  std::vector<std::uint32_t> surv_counts;  // batched cascade: survivors
                                           // per active member
  std::vector<double> dcuts;           // batched cascade: stage-1 cutoff
                                       // per active member
  std::vector<std::uint32_t> union_slot;   // block row -> slot in the
                                           // gathered union (or kNoSlot)
  std::vector<std::uint32_t> union_rows;   // union of survivor rows, in
                                           // first-appearance order
};

LeafSweepScratch& SweepScratch();

/// Reduction-space prune cutoff as an exact integer: for any uint32
/// reduction r, double(r) > cutoff <=> r > IntCutoff(cutoff) (truncation
/// is floor for the non-negative values PruneCutoff returns; cutoffs at
/// or past 2^32 - 1, including +infinity, saturate to UINT32_MAX which
/// prunes nothing).
std::uint32_t IntCutoff(double cutoff);

/// Appends to `out` (capacity >= count) every index i with
/// reductions[i] <= cutoff, ascending, and returns how many. The prune
/// hot loop: AVX2 compares 8 reductions per instruction and compresses
/// the clear mask bits where available; the survivor list is identical
/// to the scalar scan's.
std::size_t CollectSurvivors(const std::uint32_t* reductions,
                             std::size_t count, std::uint32_t cutoff,
                             std::uint32_t* out);

/// How many of `count` reductions are <= cutoff (the survivor count of
/// CollectSurvivors without materializing the list). The approximate
/// tier's exact-attribution pass: it re-scores already-computed
/// reductions against the lossless cutoff, so it runs only when
/// approx_factor > 1 and never touches the exact path.
std::size_t CountSurvivors(const std::uint32_t* reductions,
                           std::size_t count, std::uint32_t cutoff);

}  // namespace detail

/// Sweeps one leaf block for a distance-threshold query (k-NN, ball).
/// `threshold()` is the caller's CURRENT comparable-space cutoff — a
/// candidate strictly above it can no longer matter (k-th best bound, or
/// the ball radius); it is re-read after every emit — the only point it
/// can tighten — so each candidate is tested against the threshold in
/// force when the sweep reaches it, exactly as a per-candidate re-read
/// would. `emit(i, comparable)` receives every surviving candidate
/// with its exact comparable distance, in block order — bit-identical,
/// on both paths, to what the exact kernels compute.
///
/// `approx_factor` > 1 enables the approximate tier's bound relaxation
/// (quantized blocks only; the exact path has no cutoff to relax): the
/// SQ8/prefix prune cutoff derives from threshold()/approx_factor
/// instead of threshold(), so candidates whose lower bound clears the
/// exact threshold but not the relaxed one are dropped without a
/// re-rank — deliberately lossy, measured by the recall harness
/// (src/eval/recall.h). approx_pruned_exactly counts, among the pruned,
/// those the lossless cutoff at the same running threshold would also
/// have killed. At 1.0 (the default) every approx branch is dead and
/// the sweep is bit-identical to the pre-approx code.
template <typename ThresholdFn, typename EmitFn>
LeafSweepStats SweepLeafDistances(const LeafBlock& block, PointView query,
                                  const Metric& metric,
                                  ThresholdFn&& threshold, EmitFn&& emit,
                                  double approx_factor = 1.0) {
  LeafSweepStats sweep;
  detail::LeafSweepScratch& scratch = detail::SweepScratch();
  if (!block.has_sq8) {
    ScopedPhase phase(Phase::kSweepRerank);
    detail::GrowTo(scratch.dists, block.count);
    metric.ComparableMany(query, block.coords.data(), block.count, block.dim,
                          scratch.dists.data());
    for (std::size_t i = 0; i < block.count; ++i) {
      emit(i, scratch.dists[i]);
    }
    sweep.exact_distances = block.count;
    sweep.leaf_bytes_scanned = block.count * block.dim * sizeof(Scalar);
    return sweep;
  }
  {
    ScopedPhase phase(Phase::kSweepPrep);
    scratch.query.Prepare(block.sq8, query, metric.kind());
  }
  // When the query's candidate-independent `base` term already exceeds
  // the threshold (a query far outside the block's lattice range —
  // PruneCutoff's negative sentinel), every candidate prunes without the
  // integer kernel ever running: the sweep costs one query preparation.
  const bool approx = approx_factor > 1.0;
  double last_threshold = threshold();
  double dcut = scratch.query.bound.PruneCutoff(
      approx ? last_threshold / approx_factor : last_threshold);
  if (dcut < 0.0) {
    sweep.base_pruned = block.count;
    sweep.quantized_pruned = block.count;
    if (approx && scratch.query.bound.PruneCutoff(last_threshold) < 0.0) {
      sweep.approx_pruned_exactly = block.count;
    }
    return sweep;
  }
  // One SIMD pass compresses the survivor indices under the cutoff in
  // force at block entry; the emit loop then re-checks each survivor
  // against the current cutoff, which only tightens when an emit lands.
  // Per candidate this decides exactly what the naive interleaved loop
  // decides: a candidate pruned at entry is pruned under any later
  // (tighter) cutoff too, and one that entry-survives but reaches the
  // emit loop after a tightening is caught by the re-check — so counters
  // and emitted keys are identical, at one compare per candidate plus
  // one per survivor.
  //
  // With a prefix stage (the progressive precision cascade), the entry
  // pass reduces only the d' gathered prefix dimensions: a prefix
  // reduction above the cutoff implies the full-dimension reduction is
  // too (subset of nonnegative terms, same Sq8Bound), so prefix kills
  // are exactly candidates the full kernel would have killed. Prefix
  // survivors then get their full-dimension reduction from the pair
  // kernel, and the emit loop below is IDENTICAL on both shapes — it
  // sees full-dimension reductions either way, so emits, thresholds,
  // and total prune counts match the SQ8-only path bit for bit. Prefix
  // survivors that a tightened cutoff would have entry-killed under the
  // full reduction are caught by the loop's re-check (the entry cutoff
  // only loosens relative to later ones), never emitted.
  const ComparableFn exact = metric.comparable_fn();
  std::uint32_t cutoff = detail::IntCutoff(dcut);
  // Exact-attribution twin of `cutoff` (approx only): the integer
  // cutoff the lossless contract would use at the same threshold.
  // PruneCutoff is monotone in its threshold and the relaxed cutoff was
  // non-negative, so the exact one is too, ecut >= cutoff, and the
  // exactly-proven prunes are a subset of the relaxed prunes.
  std::uint32_t ecut = 0;
  if (approx) {
    ecut = detail::IntCutoff(scratch.query.bound.PruneCutoff(last_threshold));
  }
  const Sq8Mirror& sq8 = block.sq8;
  const bool cascade = sq8.prefix_dim > 0;
  detail::GrowTo(scratch.survivors, block.count);
  std::size_t nsurv;
  if (cascade) {
    {
      ScopedPhase phase(Phase::kSweepPrefix);
      const std::size_t pd = sq8.prefix_dim;
      detail::GrowTo(scratch.qprefix, pd);
      for (std::size_t p = 0; p < pd; ++p) {
        scratch.qprefix[p] = scratch.query.codes[sq8.order[p]];
      }
      detail::GrowTo(scratch.reductions, block.count);
      metric.Sq8Many(scratch.qprefix.data(), sq8.prefix_codes.data(),
                     block.count, pd, scratch.reductions.data());
      nsurv = detail::CollectSurvivors(scratch.reductions.data(), block.count,
                                       cutoff, scratch.survivors.data());
    }
    sweep.prefix_pruned += block.count - nsurv;
    if (approx) {
      sweep.approx_pruned_exactly += block.count - detail::CountSurvivors(
          scratch.reductions.data(), block.count, ecut);
    }
    ScopedPhase phase(Phase::kSweepFull);
    // Pack the survivors' full code rows contiguously and make ONE
    // many-kernel call: the gather is a dim-byte copy per survivor,
    // and the many-kernel's fast paths beat a per-survivor call
    // through the pair-function pointer severalfold. Integer kernels
    // are exact, so each reduction matches the pair call bit for bit.
    detail::GrowTo(scratch.full_reductions, nsurv);
    detail::GrowTo(scratch.gathered, nsurv * block.dim);
    detail::GatherRows(sq8.codes.data(), block.dim, scratch.survivors.data(),
                       nsurv, scratch.gathered.data());
    metric.Sq8Many(scratch.query.codes.data(), scratch.gathered.data(), nsurv,
                   block.dim, scratch.full_reductions.data());
  } else {
    ScopedPhase phase(Phase::kSweepFull);
    detail::GrowTo(scratch.reductions, block.count);
    metric.Sq8Many(scratch.query.codes.data(), sq8.codes.data(), block.count,
                   block.dim, scratch.reductions.data());
    nsurv = detail::CollectSurvivors(scratch.reductions.data(), block.count,
                                     cutoff, scratch.survivors.data());
    sweep.sq8_pruned += block.count - nsurv;
    if (approx) {
      sweep.approx_pruned_exactly += block.count - detail::CountSurvivors(
          scratch.reductions.data(), block.count, ecut);
    }
  }
  {
    ScopedPhase phase(Phase::kSweepRerank);
    // The threshold can only tighten when an emit lands, so it is
    // re-read exactly once per emit instead of once per survivor —
    // every survivor still sees the same (cutoff, dcut) state as the
    // read-every-iteration loop, and the counters match it exactly.
    for (std::size_t s = 0; s < nsurv; ++s) {
      const std::size_t i = scratch.survivors[s];
      const std::uint32_t reduction =
          cascade ? scratch.full_reductions[s] : scratch.reductions[i];
      if (reduction > cutoff) {
        ++sweep.sq8_pruned;
        if (approx && reduction > ecut) ++sweep.approx_pruned_exactly;
        continue;
      }
      ++sweep.reranked;
      emit(i, exact(query.data(), block.row(i).data(), block.dim));
      const double t = threshold();
      if (t != last_threshold) {
        last_threshold = t;
        dcut = scratch.query.bound.PruneCutoff(approx ? t / approx_factor : t);
        if (dcut < 0.0) {
          sweep.base_pruned += nsurv - s - 1;
          if (approx) {
            // Exact attribution of the rest-of-block drop: the exact
            // base may not have crossed yet, in which case each
            // remaining survivor's already-computed reduction decides.
            const double ed = scratch.query.bound.PruneCutoff(t);
            if (ed < 0.0) {
              sweep.approx_pruned_exactly += nsurv - s - 1;
            } else {
              const std::uint32_t ec = detail::IntCutoff(ed);
              for (std::size_t r = s + 1; r < nsurv; ++r) {
                const std::uint32_t red =
                    cascade ? scratch.full_reductions[r]
                            : scratch.reductions[scratch.survivors[r]];
                if (red > ec) ++sweep.approx_pruned_exactly;
              }
            }
          }
          break;
        }
        cutoff = detail::IntCutoff(dcut);
        if (approx) {
          ecut = detail::IntCutoff(scratch.query.bound.PruneCutoff(t));
        }
      }
    }
  }
  sweep.quantized_pruned =
      sweep.base_pruned + sweep.prefix_pruned + sweep.sq8_pruned;
  sweep.exact_distances = sweep.reranked;
  // Honest byte accounting per shape: the cascade streams d' code bytes
  // per candidate plus full code rows only for prefix survivors, so its
  // bytes differ from the SQ8-only path (identity checks cover results,
  // distances, and pages — not bytes).
  const std::uint64_t code_bytes =
      cascade ? block.count * sq8.prefix_dim + nsurv * block.dim
              : block.count * block.dim;
  sweep.leaf_bytes_scanned =
      code_bytes + sweep.reranked * block.dim * sizeof(Scalar);
  return sweep;
}

/// Sweeps one leaf block for a containment query (range / partial
/// match), appending matching ids to `out`. On a quantized block a
/// conservative per-dimension code-interval prefilter runs over the
/// uint8 mirror first; survivors go through the exact float Contains, so
/// the id set matches the exact sweep exactly.
LeafSweepStats SweepLeafRange(const LeafBlock& block, const Rect& query,
                              std::vector<PointId>* out);

/// Batched variant of SweepLeafDistances: `members` queries (row-major,
/// members x block.dim scalars) against one block, one many-to-many
/// kernel call. `threshold(m)` and `emit(m, i, comparable)` are the
/// per-member analogues; for each member, candidates arrive in block
/// order (members in ascending order), so the per-member emit sequence
/// matches the single-query sweep exactly. `stats` must have `members`
/// entries; entry m accumulates member m's share. `approx_factor` is
/// the approximate tier's bound relaxation, exactly as in
/// SweepLeafDistances (1.0 = exact, bit-identical to the pre-approx
/// code).
template <typename ThresholdFn, typename EmitFn>
void SweepLeafBlockMany(const LeafBlock& block, const Scalar* queries,
                        std::size_t members, const Metric& metric,
                        ThresholdFn&& threshold, EmitFn&& emit,
                        LeafSweepStats* stats, double approx_factor = 1.0) {
  detail::LeafSweepScratch& scratch = detail::SweepScratch();
  const std::size_t dim = block.dim;
  const bool approx = approx_factor > 1.0;
  if (!block.has_sq8) {
    ScopedPhase phase(Phase::kSweepRerank);
    detail::GrowTo(scratch.dists, members * block.count);
    metric.ComparableBlock(queries, members, block.coords.data(), block.count,
                           dim, scratch.dists.data());
    for (std::size_t m = 0; m < members; ++m) {
      const double* row = scratch.dists.data() + m * block.count;
      for (std::size_t i = 0; i < block.count; ++i) {
        emit(m, i, row[i]);
      }
      stats[m].exact_distances += block.count;
      stats[m].leaf_bytes_scanned += block.count * dim * sizeof(Scalar);
    }
    return;
  }
  {
    ScopedPhase phase(Phase::kSweepPrep);
    detail::GrowTo(scratch.qcodes, members * dim);
    detail::GrowTo(scratch.bounds, members);
    PrepareSq8QueryMany(block.sq8, queries, members, metric.kind(),
                        scratch.qcodes.data(), scratch.bounds.data());
  }
  // Member-level base prune: a member whose candidate-independent `base`
  // term already exceeds its threshold (PruneCutoff's negative sentinel)
  // prunes the whole block before the integer kernel runs. Survivors are
  // compacted in place (ascending, so each code row moves down or stays
  // put) and one many-to-many kernel call covers just them — on hot-spot
  // batches most member/block pairs end here, at the cost of one query
  // preparation and one compare.
  scratch.active.clear();
  for (std::size_t m = 0; m < members; ++m) {
    const double t = threshold(m);
    if (scratch.bounds[m].PruneCutoff(approx ? t / approx_factor : t) < 0.0) {
      stats[m].quantized_pruned += block.count;
      stats[m].base_pruned += block.count;
      if (approx && scratch.bounds[m].PruneCutoff(t) < 0.0) {
        stats[m].approx_pruned_exactly += block.count;
      }
    } else {
      scratch.active.push_back(static_cast<std::uint32_t>(m));
    }
  }
  const std::size_t nactive = scratch.active.size();
  if (nactive == 0) {
    return;
  }
  for (std::size_t a = 0; a < nactive; ++a) {
    const std::size_t m = scratch.active[a];
    if (m != a) {
      std::memcpy(scratch.qcodes.data() + a * dim,
                  scratch.qcodes.data() + m * dim, dim);
    }
  }
  // Cascade stage 1 (when the block carries a prefix stage): the
  // many-to-many pass reduces only the d' gathered prefix dimensions —
  // same lossless contract as the single-query sweep; the per-member
  // loop below then sees full-dimension reductions either way.
  const Sq8Mirror& sq8 = block.sq8;
  const bool cascade = sq8.prefix_dim > 0;
  const std::size_t red_dim = cascade ? sq8.prefix_dim : dim;
  const std::uint8_t* red_codes =
      cascade ? sq8.prefix_codes.data() : sq8.codes.data();
  const std::uint8_t* red_queries = scratch.qcodes.data();
  if (cascade) {
    ScopedPhase phase(Phase::kSweepPrefix);
    const std::size_t pd = sq8.prefix_dim;
    detail::GrowTo(scratch.qprefix, nactive * pd);
    for (std::size_t a = 0; a < nactive; ++a) {
      const std::uint8_t* src = scratch.qcodes.data() + a * dim;
      std::uint8_t* dst = scratch.qprefix.data() + a * pd;
      for (std::size_t p = 0; p < pd; ++p) {
        dst[p] = src[sq8.order[p]];
      }
    }
    red_queries = scratch.qprefix.data();
  }
  {
    ScopedPhase phase(cascade ? Phase::kSweepPrefix : Phase::kSweepFull);
    detail::GrowTo(scratch.reductions, nactive * block.count);
    metric.Sq8Block(red_queries, nactive, red_codes, block.count, red_dim,
                    scratch.reductions.data());
  }
  const ComparableFn exact = metric.comparable_fn();
  // Single active member — the dominant shape once a hot-spot batch has
  // spread over distinct leaves (most rounds group only one or two
  // queries per page). Fully fused cascade path with none of the
  // multi-member bookkeeping (survivor arena strides, per-member cut
  // and count stores, union slot map): collect, gather, one full-d
  // kernel, rerank — per-candidate decisions and every counter exactly
  // as in the general loop below.
  if (cascade && nactive == 1) {
    const std::size_t m = scratch.active[0];
    const Scalar* qrow = queries + m * dim;
    std::uint64_t base_pruned = 0;
    std::uint64_t prefix_pruned = 0;
    std::uint64_t sq8_pruned = 0;
    std::uint64_t reranked = 0;
    std::uint64_t approx_exact = 0;
    std::size_t nsurv = 0;
    double last_threshold = threshold(m);
    double dcut = scratch.bounds[m].PruneCutoff(
        approx ? last_threshold / approx_factor : last_threshold);
    if (dcut < 0.0) {
      base_pruned = block.count;
      if (approx && scratch.bounds[m].PruneCutoff(last_threshold) < 0.0) {
        approx_exact = block.count;
      }
    } else {
      std::uint32_t cutoff = detail::IntCutoff(dcut);
      std::uint32_t ecut = 0;
      if (approx) {
        ecut = detail::IntCutoff(scratch.bounds[m].PruneCutoff(last_threshold));
      }
      detail::GrowTo(scratch.survivors, block.count);
      {
        ScopedPhase phase(Phase::kSweepPrefix);
        nsurv = detail::CollectSurvivors(scratch.reductions.data(),
                                         block.count, cutoff,
                                         scratch.survivors.data());
      }
      prefix_pruned = block.count - nsurv;
      if (approx) {
        approx_exact += block.count - detail::CountSurvivors(
            scratch.reductions.data(), block.count, ecut);
      }
      if (nsurv > 0) {
        ScopedPhase phase(Phase::kSweepFull);
        detail::GrowTo(scratch.gathered, nsurv * dim);
        detail::GatherRows(sq8.codes.data(), dim, scratch.survivors.data(),
                           nsurv, scratch.gathered.data());
        detail::GrowTo(scratch.full_reductions, nsurv);
        metric.Sq8Many(scratch.qcodes.data(), scratch.gathered.data(), nsurv,
                       dim, scratch.full_reductions.data());
      }
      ScopedPhase phase(Phase::kSweepRerank);
      for (std::size_t s = 0; s < nsurv; ++s) {
        const std::size_t i = scratch.survivors[s];
        if (scratch.full_reductions[s] > cutoff) {
          ++sq8_pruned;
          if (approx && scratch.full_reductions[s] > ecut) ++approx_exact;
          continue;
        }
        ++reranked;
        emit(m, i, exact(qrow, block.row(i).data(), dim));
        const double t = threshold(m);
        if (t != last_threshold) {
          last_threshold = t;
          dcut = scratch.bounds[m].PruneCutoff(approx ? t / approx_factor : t);
          if (dcut < 0.0) {
            base_pruned += nsurv - s - 1;
            if (approx) {
              const double ed = scratch.bounds[m].PruneCutoff(t);
              if (ed < 0.0) {
                approx_exact += nsurv - s - 1;
              } else {
                const std::uint32_t ec = detail::IntCutoff(ed);
                for (std::size_t r = s + 1; r < nsurv; ++r) {
                  if (scratch.full_reductions[r] > ec) ++approx_exact;
                }
              }
            }
            break;
          }
          cutoff = detail::IntCutoff(dcut);
          if (approx) {
            ecut = detail::IntCutoff(scratch.bounds[m].PruneCutoff(t));
          }
        }
      }
    }
    stats[m].exact_distances += reranked;
    stats[m].quantized_pruned += base_pruned + prefix_pruned + sq8_pruned;
    stats[m].base_pruned += base_pruned;
    stats[m].prefix_pruned += prefix_pruned;
    stats[m].sq8_pruned += sq8_pruned;
    stats[m].reranked += reranked;
    stats[m].approx_pruned_exactly += approx_exact;
    stats[m].leaf_bytes_scanned += block.count * sq8.prefix_dim +
                                   nsurv * dim +
                                   reranked * dim * sizeof(Scalar);
    return;
  }
  std::size_t union_size = 0;
  if (cascade) {
    // Batched full stage: with a handful of survivors per member, one
    // gather + many-kernel launch per member is dominated by launch
    // overhead (resize, tail handling, call dispatch). Instead collect
    // every member's stage-1 survivors first, gather the UNION of
    // surviving rows once, and reduce the whole (active x union) slab
    // with a single full-dimension block kernel. The reductions are
    // pure integer functions of (query codes, row codes) — independent
    // of the heap thresholds — so hoisting them before the rerank pass
    // cannot change any decision, and each member's rerank reads the
    // exact same uint32 it would have computed for itself.
    ScopedPhase phase(Phase::kSweepPrefix);
    detail::GrowTo(scratch.survivors, nactive * block.count);
    detail::GrowTo(scratch.surv_counts, nactive);
    detail::GrowTo(scratch.dcuts, nactive);
    // union_slot holds the invariant "every entry is kNoUnionSlot
    // between calls": new entries are born with it (resize fill) and
    // the tail of this function restores the touched ones, so no
    // per-call memset over the whole block.
    if (scratch.union_slot.size() < block.count) {
      scratch.union_slot.resize(block.count, detail::kNoUnionSlot);
    }
    detail::GrowTo(scratch.union_rows, block.count);
    std::uint32_t nunion = 0;
    for (std::size_t a = 0; a < nactive; ++a) {
      const std::size_t m = scratch.active[a];
      const std::uint32_t* row = scratch.reductions.data() + a * block.count;
      std::uint32_t* surv = scratch.survivors.data() + a * block.count;
      // Hoisting the threshold read is sound: only member m's own emits
      // move threshold(m), and nothing emits between here and m's
      // rerank pass below (the rerank recomputes the exact-attribution
      // cutoff from the same unchanged threshold).
      const double t = threshold(m);
      const double dcut =
          scratch.bounds[m].PruneCutoff(approx ? t / approx_factor : t);
      scratch.dcuts[a] = dcut;
      std::size_t nsurv = 0;
      if (dcut >= 0.0) {
        nsurv = detail::CollectSurvivors(row, block.count,
                                         detail::IntCutoff(dcut), surv);
        for (std::size_t s = 0; s < nsurv; ++s) {
          const std::uint32_t i = surv[s];
          if (scratch.union_slot[i] == detail::kNoUnionSlot) {
            scratch.union_slot[i] = nunion;
            scratch.union_rows[nunion++] = i;
          }
        }
      }
      scratch.surv_counts[a] = static_cast<std::uint32_t>(nsurv);
    }
    if (nunion > 0) {
      union_size = nunion;
      ScopedPhase full_phase(Phase::kSweepFull);
      detail::GrowTo(scratch.gathered, union_size * dim);
      detail::GatherRows(sq8.codes.data(), dim, scratch.union_rows.data(),
                         union_size, scratch.gathered.data());
      detail::GrowTo(scratch.full_reductions, nactive * union_size);
      metric.Sq8Block(scratch.qcodes.data(), nactive, scratch.gathered.data(),
                      union_size, dim, scratch.full_reductions.data());
    }
  } else {
    detail::GrowTo(scratch.survivors, block.count);
  }
  for (std::size_t a = 0; a < nactive; ++a) {
    const std::size_t m = scratch.active[a];
    const std::uint32_t* row = scratch.reductions.data() + a * block.count;
    const Scalar* qrow = queries + m * dim;
    std::uint64_t base_pruned = 0;
    std::uint64_t prefix_pruned = 0;
    std::uint64_t sq8_pruned = 0;
    std::uint64_t reranked = 0;
    std::uint64_t approx_exact = 0;
    std::size_t nsurv = 0;
    // Same compress-then-recheck structure as SweepLeafDistances, and
    // the same per-candidate decisions as the naive interleaved loop.
    double last_threshold = threshold(m);
    double dcut = cascade ? scratch.dcuts[a]
                          : scratch.bounds[m].PruneCutoff(
                                approx ? last_threshold / approx_factor
                                       : last_threshold);
    const std::uint32_t* surv = scratch.survivors.data();
    const std::uint32_t* full_row = nullptr;
    if (dcut < 0.0) {
      base_pruned += block.count;
      if (approx && scratch.bounds[m].PruneCutoff(last_threshold) < 0.0) {
        approx_exact += block.count;
      }
    } else {
      std::uint32_t cutoff = detail::IntCutoff(dcut);
      std::uint32_t ecut = 0;
      if (approx) {
        ecut = detail::IntCutoff(scratch.bounds[m].PruneCutoff(last_threshold));
      }
      if (cascade) {
        nsurv = scratch.surv_counts[a];
        surv = scratch.survivors.data() + a * block.count;
        full_row = scratch.full_reductions.data() + a * union_size;
        prefix_pruned += block.count - nsurv;
      } else {
        nsurv = detail::CollectSurvivors(row, block.count, cutoff,
                                         scratch.survivors.data());
        sq8_pruned += block.count - nsurv;
      }
      if (approx) {
        // Exact attribution of the stage-1 kills: the stage-1 (prefix
        // or full) reductions of the WHOLE block are still in `row`.
        approx_exact +=
            block.count - detail::CountSurvivors(row, block.count, ecut);
      }
      ScopedPhase phase(Phase::kSweepRerank);
      // Threshold re-read once per emit (it can only change on an
      // emit), as in the single-query sweep — same decisions, same
      // counters, one callback per emit instead of per survivor.
      for (std::size_t s = 0; s < nsurv; ++s) {
        const std::size_t i = surv[s];
        // Full-d reduction source: the union slot map on the cascade,
        // the stage-1 row otherwise — the same uint32 either way.
        const std::uint32_t reduction =
            cascade ? full_row[scratch.union_slot[i]] : row[i];
        if (reduction > cutoff) {
          ++sq8_pruned;
          if (approx && reduction > ecut) ++approx_exact;
          continue;
        }
        ++reranked;
        emit(m, i, exact(qrow, block.row(i).data(), dim));
        const double t = threshold(m);
        if (t != last_threshold) {
          last_threshold = t;
          dcut = scratch.bounds[m].PruneCutoff(approx ? t / approx_factor : t);
          if (dcut < 0.0) {
            base_pruned += nsurv - s - 1;
            if (approx) {
              const double ed = scratch.bounds[m].PruneCutoff(t);
              if (ed < 0.0) {
                approx_exact += nsurv - s - 1;
              } else {
                const std::uint32_t ec = detail::IntCutoff(ed);
                for (std::size_t r = s + 1; r < nsurv; ++r) {
                  const std::uint32_t red =
                      cascade ? full_row[scratch.union_slot[surv[r]]]
                              : row[surv[r]];
                  if (red > ec) ++approx_exact;
                }
              }
            }
            break;
          }
          cutoff = detail::IntCutoff(dcut);
          if (approx) {
            ecut = detail::IntCutoff(scratch.bounds[m].PruneCutoff(t));
          }
        }
      }
    }
    stats[m].exact_distances += reranked;
    stats[m].quantized_pruned += base_pruned + prefix_pruned + sq8_pruned;
    stats[m].base_pruned += base_pruned;
    stats[m].prefix_pruned += prefix_pruned;
    stats[m].sq8_pruned += sq8_pruned;
    stats[m].reranked += reranked;
    stats[m].approx_pruned_exactly += approx_exact;
    // Cascade bytes stay attributed per member's own surviving demand
    // (the shared union fetch is charged to each member that needed the
    // row), keeping the counter independent of how the kernel batches.
    const std::uint64_t code_bytes =
        cascade ? block.count * sq8.prefix_dim + nsurv * dim
                : block.count * dim;
    stats[m].leaf_bytes_scanned +=
        code_bytes + reranked * dim * sizeof(Scalar);
  }
  if (cascade) {
    // Restore the union_slot invariant (all kNoUnionSlot) by touching
    // only the slots this call assigned.
    for (std::size_t s = 0; s < union_size; ++s) {
      scratch.union_slot[scratch.union_rows[s]] = detail::kNoUnionSlot;
    }
  }
}

/// Symmetric self-sweep of one leaf block for the all-pairs similarity
/// join: every unordered pair (i, j), i < j, of the block's own points,
/// computed ONCE via the triangle kernels (Metric::ComparableBlockSelf /
/// Sq8BlockSelf) — the diagonal's self-pairs are skipped entirely.
/// `threshold` is the join's FIXED comparable-space cutoff
/// (ToComparable(epsilon)); unlike the k-NN sweeps it never tightens, so
/// no emit-loop re-read is needed. `emit(i, j, comparable)` receives
/// pairs in lexicographic block order with the exact float comparable
/// distance: on the exact path every pair, on the quantized path every
/// bound survivor (the caller applies the final comparable <= threshold
/// test either way). Pruning uses the same Sq8Bound contract as the
/// query sweeps — each block row is prepared as a query against its own
/// block's mirror — so a pruned pair provably exceeds the threshold and
/// the emitted pair set matches the exact path's.
template <typename EmitFn>
LeafSweepStats SweepLeafBlockSelf(const LeafBlock& block, const Metric& metric,
                                  double threshold, EmitFn&& emit) {
  LeafSweepStats sweep;
  const std::size_t n = block.count;
  if (n < 2) return sweep;
  const std::size_t dim = block.dim;
  detail::LeafSweepScratch& scratch = detail::SweepScratch();
  const std::uint64_t total_pairs =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  if (!block.has_sq8) {
    ScopedPhase phase(Phase::kSweepRerank);
    detail::GrowTo(scratch.dists, n * n);
    metric.ComparableBlockSelf(block.coords.data(), n, dim,
                               scratch.dists.data());
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double* row = scratch.dists.data() + i * n;
      for (std::size_t j = i + 1; j < n; ++j) {
        emit(i, j, row[j]);
      }
    }
    sweep.exact_distances = total_pairs;
    sweep.leaf_bytes_scanned = n * dim * sizeof(Scalar);
    return sweep;
  }
  {
    // Every row doubles as a query against its own block's mirror: the
    // prepared codes/bounds are exactly what a ball query from that
    // point would use, so the per-pair lower bounds inherit the query
    // sweeps' lossless-pruning proof unchanged.
    ScopedPhase phase(Phase::kSweepPrep);
    detail::GrowTo(scratch.qcodes, n * dim);
    detail::GrowTo(scratch.bounds, n);
    PrepareSq8QueryMany(block.sq8, block.coords.data(), n, metric.kind(),
                        scratch.qcodes.data(), scratch.bounds.data());
  }
  const Sq8Mirror& sq8 = block.sq8;
  const bool cascade = sq8.prefix_dim > 0;
  const std::uint8_t* red_queries = scratch.qcodes.data();
  const std::uint8_t* red_codes = sq8.codes.data();
  std::size_t red_dim = dim;
  if (cascade) {
    ScopedPhase phase(Phase::kSweepPrefix);
    const std::size_t pd = sq8.prefix_dim;
    detail::GrowTo(scratch.qprefix, n * pd);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t* src = scratch.qcodes.data() + i * dim;
      std::uint8_t* dst = scratch.qprefix.data() + i * pd;
      for (std::size_t p = 0; p < pd; ++p) {
        dst[p] = src[sq8.order[p]];
      }
    }
    red_queries = scratch.qprefix.data();
    red_codes = sq8.prefix_codes.data();
    red_dim = pd;
  }
  {
    // Stage-1 reductions for the whole strict upper triangle in one
    // symmetric kernel call (prefix dimensions on the cascade, full
    // dimensions otherwise). Block rows sit inside their own lattice
    // range, so the per-row base term is 0 and the base prune below
    // fires only on degenerate lattices — computing the triangle before
    // the base checks wastes nothing in practice.
    ScopedPhase phase(cascade ? Phase::kSweepPrefix : Phase::kSweepFull);
    detail::GrowTo(scratch.reductions, n * n);
    metric.Sq8BlockSelf(red_queries, red_codes, n, red_dim,
                        scratch.reductions.data());
  }
  const ComparableFn exact = metric.comparable_fn();
  detail::GrowTo(scratch.survivors, n);
  std::uint64_t gathered_rows = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::size_t tail = n - i - 1;
    const double dcut = scratch.bounds[i].PruneCutoff(threshold);
    if (dcut < 0.0) {
      sweep.base_pruned += tail;
      continue;
    }
    const std::uint32_t cutoff = detail::IntCutoff(dcut);
    const std::uint32_t* row = scratch.reductions.data() + i * n + i + 1;
    std::size_t nsurv;
    {
      ScopedPhase phase(cascade ? Phase::kSweepPrefix : Phase::kSweepFull);
      nsurv = detail::CollectSurvivors(row, tail, cutoff,
                                       scratch.survivors.data());
    }
    if (cascade) {
      sweep.prefix_pruned += tail - nsurv;
      if (nsurv == 0) continue;
      // Survivor indices are tail-relative; shift to block rows, then
      // gather + one full-dimension many-kernel call, as in the query
      // sweeps' cascade stage 2.
      for (std::size_t s = 0; s < nsurv; ++s) {
        scratch.survivors[s] += static_cast<std::uint32_t>(i + 1);
      }
      {
        ScopedPhase phase(Phase::kSweepFull);
        detail::GrowTo(scratch.gathered, nsurv * dim);
        detail::GatherRows(sq8.codes.data(), dim, scratch.survivors.data(),
                           nsurv, scratch.gathered.data());
        detail::GrowTo(scratch.full_reductions, nsurv);
        metric.Sq8Many(scratch.qcodes.data() + i * dim,
                       scratch.gathered.data(), nsurv, dim,
                       scratch.full_reductions.data());
      }
      gathered_rows += nsurv;
      ScopedPhase phase(Phase::kSweepRerank);
      const Scalar* qrow = block.row(i).data();
      for (std::size_t s = 0; s < nsurv; ++s) {
        if (scratch.full_reductions[s] > cutoff) {
          ++sweep.sq8_pruned;
          continue;
        }
        const std::size_t j = scratch.survivors[s];
        ++sweep.reranked;
        emit(i, j, exact(qrow, block.row(j).data(), dim));
      }
    } else {
      sweep.sq8_pruned += tail - nsurv;
      // The fixed threshold never tightens, so stage-1 survivors go
      // straight to the exact re-rank — no cutoff re-check loop.
      ScopedPhase phase(Phase::kSweepRerank);
      const Scalar* qrow = block.row(i).data();
      for (std::size_t s = 0; s < nsurv; ++s) {
        const std::size_t j = i + 1 + scratch.survivors[s];
        ++sweep.reranked;
        emit(i, j, exact(qrow, block.row(j).data(), dim));
      }
    }
  }
  sweep.quantized_pruned =
      sweep.base_pruned + sweep.prefix_pruned + sweep.sq8_pruned;
  sweep.exact_distances = sweep.reranked;
  const std::uint64_t code_bytes =
      cascade ? total_pairs * sq8.prefix_dim + gathered_rows * dim
              : total_pairs * dim;
  sweep.leaf_bytes_scanned =
      code_bytes + sweep.reranked * dim * sizeof(Scalar);
  return sweep;
}

}  // namespace parsim

#endif  // PARSIM_SRC_INDEX_LEAF_SWEEP_H_
