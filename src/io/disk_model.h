// Cost model for one simulated disk.
//
// The paper's experiments ran on a cluster of 16 HP 735/755 workstations
// with local disks; its performance metric is "the disk which accesses
// most pages during query processing ... we used the search time of this
// disk as the search time of the whole parallel X-tree" (Section 5).
// We reproduce exactly that metric on one machine: every page access is
// charged to the owning simulated disk, and elapsed time is derived from
// the page count through this cost model.

#ifndef PARSIM_SRC_IO_DISK_MODEL_H_
#define PARSIM_SRC_IO_DISK_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace parsim {

/// Page size used throughout, matching the paper ("The block size used is
/// 4 KBytes", Section 5).
inline constexpr std::size_t kPageSizeBytes = 4096;

/// Timing parameters of one simulated disk. Defaults approximate a
/// mid-1990s SCSI disk (the paper's era): ~8 ms average seek, ~4 ms
/// average rotational latency (7200 rpm half-rotation), ~5 MB/s sustained
/// transfer (0.8 ms for a 4 KB page).
struct DiskParameters {
  double avg_seek_ms = 8.0;
  double avg_rotational_ms = 4.0;
  double transfer_ms_per_page = 0.8;
  /// CPU cost charged per distance computation during search; models the
  /// (small but nonzero) CPU share of nearest-neighbor search.
  double cpu_ms_per_distance = 0.001;
  /// Cost of one timed-out read attempt against a failed disk before the
  /// engine fails over to a replica (fail-fast detection, not a full SCSI
  /// timeout — the array learns quickly that a disk is dead).
  double failover_timeout_ms = 1.0;

  /// Cost of one random page read.
  double PageAccessMs() const {
    return avg_seek_ms + avg_rotational_ms + transfer_ms_per_page;
  }
};

// ---------------------------------------------------------------------------
// Fault injection.

/// Health of one simulated disk.
enum class DiskHealth {
  kHealthy = 0,
  /// Serves every request, but `slow_factor` times slower (a degraded
  /// spindle, a congested node).
  kSlow,
  /// Serves nothing; reads must fail over to a replica or go unavailable.
  kFailed,
};

const char* DiskHealthToString(DiskHealth health);

/// Injected state of one disk.
struct DiskFault {
  DiskHealth health = DiskHealth::kHealthy;
  /// Elapsed-time multiplier, applied when health == kSlow (>= 1).
  double slow_factor = 1.0;

  /// Multiplier this fault applies to the disk's elapsed time (1.0 for
  /// healthy and failed disks — a failed disk does no work at all).
  double TimeScale() const {
    return health == DiskHealth::kSlow ? slow_factor : 1.0;
  }
};

/// A deterministic per-disk fault schedule, injectable into a DiskArray.
/// An empty (default) plan means every disk is healthy. The seeded
/// factories make fault runs exactly reproducible: the same
/// (num_disks, count, seed) triple always yields the same plan.
class FaultPlan {
 public:
  /// Empty plan: all disks healthy, applies to an array of any size.
  FaultPlan() = default;

  /// All-healthy plan for `num_disks` disks.
  explicit FaultPlan(std::size_t num_disks) : faults_(num_disks) {}

  /// `failures` distinct disks failed, chosen by a seeded shuffle.
  static FaultPlan WithRandomFailures(std::size_t num_disks,
                                      std::size_t failures,
                                      std::uint64_t seed);

  /// `slow` distinct disks slowed by `factor`, chosen by a seeded shuffle.
  static FaultPlan WithRandomSlowdowns(std::size_t num_disks,
                                       std::size_t slow, double factor,
                                       std::uint64_t seed);

  std::size_t num_disks() const { return faults_.size(); }
  bool empty() const { return faults_.empty(); }

  void FailDisk(std::uint32_t disk);
  void SlowDisk(std::uint32_t disk, double factor);
  void HealDisk(std::uint32_t disk);

  /// The fault of `disk`. On an empty plan any disk id answers healthy
  /// (the empty plan covers arrays of every size); a non-empty plan
  /// requires disk < num_disks().
  const DiskFault& fault(std::uint32_t disk) const;
  bool IsFailed(std::uint32_t disk) const;

  std::size_t NumFailed() const;
  std::size_t NumSlow() const;

  /// "disk 3: FAILED, disk 7: SLOW x4.0" (healthy disks omitted).
  std::string ToString() const;

 private:
  std::vector<DiskFault> faults_;
};

/// Cumulative access statistics of one disk (or of a whole array).
struct DiskStats {
  std::uint64_t data_pages_read = 0;
  std::uint64_t directory_pages_read = 0;
  std::uint64_t pages_written = 0;
  std::uint64_t distance_computations = 0;
  /// Pages served from the disk's main-memory buffer (no I/O charged).
  std::uint64_t buffer_hit_pages = 0;
  /// Of data_pages_read: pages this disk served as the replica of a
  /// failed primary (tag-along counter; already inside data_pages_read).
  std::uint64_t replica_pages_read = 0;
  /// Timed-out read attempts against a failed primary that this disk
  /// absorbed before serving the failover (each costs failover_timeout_ms).
  std::uint64_t failed_read_attempts = 0;
  /// Pages that could not be served at all: the disk failed and no
  /// healthy replica existed. Queries that saw any unavailable page
  /// report an error through the engine's TryQuery. (The shared-tree
  /// engine still charges the would-be page reads to the failed primary
  /// for accounting continuity; the federated engines skip the
  /// partition's work entirely and record only this counter.)
  std::uint64_t unavailable_pages = 0;
  /// Pages this query obtained for free because another query of the same
  /// coalesced batch round paid for the fetch (batched execution path).
  /// Not part of TotalPagesRead() — coalescing is exactly the removal of
  /// these reads from the cost model — but kept so the saving is visible
  /// and auditable: per query, pages_read + coalesced_pages equals the
  /// pages the single-query path would have read.
  std::uint64_t coalesced_pages = 0;
  /// Many-to-many kernel calls (Metric::ComparableBlock) issued on this
  /// query's behalf: one per (leaf group, member) pair per batch round.
  std::uint64_t block_kernel_invocations = 0;
  /// Leaf candidates eliminated by the SQ8 lower bound before any exact
  /// float distance was computed (quantized leaf blocks only; see
  /// src/index/leaf_sweep.h). distance_computations then counts only the
  /// re-ranked survivors, so pruned + reranked recovers the exact path's
  /// distance count for k-NN/ball sweeps.
  std::uint64_t quantized_pruned = 0;
  /// Per-stage split of quantized_pruned (base_pruned + sq8_pruned ==
  /// quantized_pruned): candidates killed by the candidate-independent
  /// base term alone (whole-block or rest-of-block drops, no kernel
  /// work), and by the full-dimension SQ8 kernel test.
  std::uint64_t base_pruned = 0;
  std::uint64_t sq8_pruned = 0;
  /// Leaf candidates that survived the SQ8 bound and went through the
  /// exact float kernel (equals distance_computations' leaf share on the
  /// quantized path).
  std::uint64_t reranked = 0;
  /// Bytes leaf sweeps streamed on this query's behalf: full float rows
  /// on the exact path, code bytes plus re-ranked float rows on the
  /// quantized path. Bookkeeping only — never enters ElapsedMs; the cost
  /// model stays pages + distance_computations.
  std::uint64_t leaf_bytes_scanned = 0;
  /// HS frontier traffic booked on this query's behalf: priority-queue
  /// pushes (points and nodes) and pops. Bookkeeping only — never enters
  /// ElapsedMs.
  std::uint64_t frontier_pushes = 0;
  std::uint64_t frontier_pops = 0;
  /// Interior children whose MINDIST provably exceeded the running
  /// k-th-best cutoff and were dropped before frontier insertion (the
  /// descent fast path; result-neutral, see src/index/knn.cc).
  std::uint64_t cutoff_skipped_nodes = 0;
  /// Approximate-tier accounting (zero unless EngineOptions::approx is
  /// enabled with epsilon > 0; see src/parallel/engine.h). Nodes the
  /// early-termination mode dropped because their MINDIST exceeded the
  /// RELAXED cutoff bound/(1+eps) — each such drop may lose true
  /// neighbors, which is exactly what the recall harness measures.
  std::uint64_t approx_skipped_nodes = 0;
  /// Of the leaf candidates the relaxed SQ8 cutoff pruned, how many the
  /// lossless cutoff (derived from the same running threshold) provably
  /// would have pruned too. quantized_pruned - approx_pruned_exactly is
  /// an upper bound on the prunes attributable to the approximation; the
  /// count is conservative (a whole-block relaxed base prune whose exact
  /// counterpart would have needed the kernel contributes zero).
  std::uint64_t approx_pruned_exactly = 0;

  std::uint64_t TotalPagesRead() const {
    return data_pages_read + directory_pages_read;
  }

  DiskStats& operator+=(const DiskStats& other) {
    data_pages_read += other.data_pages_read;
    directory_pages_read += other.directory_pages_read;
    pages_written += other.pages_written;
    distance_computations += other.distance_computations;
    buffer_hit_pages += other.buffer_hit_pages;
    replica_pages_read += other.replica_pages_read;
    failed_read_attempts += other.failed_read_attempts;
    unavailable_pages += other.unavailable_pages;
    coalesced_pages += other.coalesced_pages;
    block_kernel_invocations += other.block_kernel_invocations;
    quantized_pruned += other.quantized_pruned;
    base_pruned += other.base_pruned;
    sq8_pruned += other.sq8_pruned;
    reranked += other.reranked;
    leaf_bytes_scanned += other.leaf_bytes_scanned;
    frontier_pushes += other.frontier_pushes;
    frontier_pops += other.frontier_pops;
    cutoff_skipped_nodes += other.cutoff_skipped_nodes;
    approx_skipped_nodes += other.approx_skipped_nodes;
    approx_pruned_exactly += other.approx_pruned_exactly;
    return *this;
  }
};

/// Simulated elapsed time at healthy rates: page and CPU work only, no
/// fault penalties. This is the paper's original cost formula.
inline double HealthyElapsedMs(const DiskStats& stats,
                               const DiskParameters& params) {
  return static_cast<double>(stats.TotalPagesRead()) * params.PageAccessMs() +
         static_cast<double>(stats.distance_computations) *
             params.cpu_ms_per_distance;
}

/// Simulated elapsed time including failover retry penalties. Identical
/// (bit for bit) to HealthyElapsedMs when no faults were encountered.
inline double ElapsedMs(const DiskStats& stats, const DiskParameters& params) {
  return HealthyElapsedMs(stats, params) +
         static_cast<double>(stats.failed_read_attempts) *
             params.failover_timeout_ms;
}

}  // namespace parsim

#endif  // PARSIM_SRC_IO_DISK_MODEL_H_
