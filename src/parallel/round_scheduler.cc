#include "src/parallel/round_scheduler.h"

#include <algorithm>
#include <utility>

#include "src/index/leaf_block.h"
#include "src/index/leaf_sweep.h"
#include "src/util/check.h"

namespace parsim {

HsRoundScheduler::HsRoundScheduler(const TreeBase& tree, const Metric& metric,
                                   const ApproxContext& approx,
                                   PhaseAccumulator* phases)
    : tree_(tree),
      metric_(metric),
      approx_(approx),
      phases_(phases),
      dim_(tree.dim()) {}

// Points pop into the result; the first node the frontier needs pauses
// the query with `request` set (Step fetches and expands it).
void HsRoundScheduler::Advance(QueryState* q) {
  q->request = q->frontier.NextNode(metric_, &q->result);
  if (q->request == kInvalidNodeId) q->done = true;
}

void HsRoundScheduler::ExpireState(QueryState* q) {
  if (q->done) return;
  q->done = true;
  q->expired = true;
  q->request = kInvalidNodeId;
}

std::size_t HsRoundScheduler::Add(PointView query, std::size_t k,
                                  QueryCostAccumulator* acc,
                                  std::uint64_t max_pages) {
  PARSIM_CHECK(k >= 1);
  PARSIM_CHECK(acc != nullptr);
  PARSIM_CHECK(query.size() == dim_);
  ScopedPhaseCapture phase_capture(phases_);
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = states_.size();
    states_.emplace_back();
  }
  QueryState& s = states_[slot];
  s.frontier.Reset(k, tree_.root_id(), approx_.node_factor);
  s.query.assign(query.begin(), query.end());
  s.result.clear();
  s.acc = acc;
  s.max_pages = max_pages;
  s.live = true;
  s.done = false;
  s.expired = false;
  ++occupied_;
  Advance(&s);
  if (!s.done) ++running_;
  return slot;
}

void HsRoundScheduler::Expire(std::size_t slot) {
  QueryState& s = states_[slot];
  PARSIM_CHECK(s.live);
  if (s.done) return;
  ExpireState(&s);
  --running_;
}

KnnResult HsRoundScheduler::Take(std::size_t slot) {
  QueryState& s = states_[slot];
  PARSIM_CHECK(s.live && s.done);
  // Frontier traffic books into the query's host slot — the same sink
  // single-query HsKnn books into.
  s.frontier.Book(&s.acc->slot(s.acc->num_slots() - 1));
  s.live = false;
  s.acc = nullptr;
  --occupied_;
  free_slots_.push_back(slot);
  return std::move(s.result);
}

std::size_t HsRoundScheduler::Step(ThreadPool* pool) {
  ScopedPhaseCapture phase_capture(phases_);

  requests_.clear();
  for (std::size_t i = 0; i < states_.size(); ++i) {
    QueryState& s = states_[i];
    if (!s.live || s.done) continue;
    // Page budgets expire at round granularity: a query at or past its
    // budget stops before fetching another page, keeping its best-first
    // prefix as the partial result.
    if (s.max_pages > 0 && s.acc->TotalPagesTouched() >= s.max_pages) {
      ExpireState(&s);
      continue;
    }
    requests_.emplace_back(s.request, i);
  }
  if (requests_.empty()) {
    std::size_t running = 0;
    for (const QueryState& s : states_) {
      if (s.live && !s.done) ++running;
    }
    running_ = running;
    return running_;
  }
  // Ascending (node id, slot index): the grouping — and with it the
  // buffer-pool access order below — is a pure function of the
  // frontiers and the admission order, so the whole schedule is
  // deterministic at any thread count.
  std::sort(requests_.begin(), requests_.end());
  groups_.clear();
  for (std::size_t i = 0; i < requests_.size();) {
    std::size_t j = i;
    while (j < requests_.size() && requests_[j].first == requests_[i].first) {
      ++j;
    }
    groups_.push_back(Group{requests_[i].first, i, j, nullptr, {}});
    i = j;
  }

  // Phase 1 (serial): each group fetches its node once. The leader —
  // the group's lowest slot index — pays the read through the normal
  // buffered, fault-aware path; every other member books the pages it
  // was spared as coalesced_pages (plus its share of the degraded-read
  // accounting, which stays per-query). This is the only phase that
  // touches shared state (the buffer-pool LRU), so running it in sorted
  // group order keeps buffered costs reproducible. Retry penalties of a
  // failed primary (failed_read_attempts) are paid once per group by
  // the leader — coalescing collapses the per-query retry storm by
  // design.
  {
    ScopedPhase io_phase(Phase::kIo);
    for (Group& g : groups_) {
      const std::size_t leader = requests_[g.begin].second;
      {
        ScopedCostCapture capture(states_[leader].acc);
        g.accessed = &tree_.AccessNode(g.node, &g.route);
      }
      const std::size_t slot = g.route.disk->id();
      for (std::size_t m = g.begin + 1; m < g.end; ++m) {
        DiskStats& s = states_[requests_[m].second].acc->slot(slot);
        s.coalesced_pages += g.accessed->pages;
        if (g.route.failover) s.replica_pages_read += g.accessed->pages;
        if (g.route.unavailable) s.unavailable_pages += g.accessed->pages;
      }
    }
  }

  // Phase 2 (parallelizable): expand each group into its members'
  // frontiers. Every query sits in exactly one group per round, so
  // groups touch disjoint states/accumulators; leaf blocks come from
  // the tree's concurrent-read-safe cache.
  const auto expand = [&](std::size_t gi) {
    // Pool workers do not inherit the scheduler thread's thread-local
    // phase capture; re-install it so their sweep/descent/frontier time
    // lands in the same accumulator.
    ScopedPhaseCapture pc(phases_);
    const Group& g = groups_[gi];
    const Node& node = *g.accessed;
    const std::size_t members = g.end - g.begin;
    const std::size_t slot = g.route.disk->id();
    if (node.IsLeaf()) {
      const LeafBlock& block = tree_.LeafBlockOf(node);
      // One many-to-many kernel call scores every member query against
      // every point of the page (uint8 q x n reduction first on a
      // quantized block, with per-member bound pruning — see
      // src/index/leaf_sweep.h). Scratch is thread-local: the rounds
      // allocate nothing in steady state.
      thread_local std::vector<Scalar> qbuf;
      thread_local std::vector<LeafSweepStats> sweeps;
      qbuf.resize(members * dim_);
      for (std::size_t m = 0; m < members; ++m) {
        const QueryState& state = states_[requests_[g.begin + m].second];
        std::copy(state.query.begin(), state.query.end(),
                  qbuf.data() + m * dim_);
      }
      sweeps.assign(members, LeafSweepStats{});
      SweepLeafBlockMany(
          block, qbuf.data(), members, metric_,
          [&](std::size_t m) {
            // Member m's running k-th best point key. Emits only
            // tighten m's own bound, so reading it per candidate matches
            // the single-query sweep exactly.
            return states_[requests_[g.begin + m].second].frontier.Cutoff();
          },
          [&](std::size_t m, std::size_t i, double key) {
            states_[requests_[g.begin + m].second].frontier.PushPoint(
                key, block.ids[i]);
          },
          sweeps.data(), approx_.sweep_factor);
      for (std::size_t m = 0; m < members; ++m) {
        const std::size_t qi = requests_[g.begin + m].second;
        DiskStats& s = states_[qi].acc->slot(slot);
        AddLeafSweep(&s, sweeps[m]);
        s.block_kernel_invocations += 1;
        Advance(&states_[qi]);
      }
    } else {
      const DirBlock& block = tree_.DirBlockOf(node);
      for (std::size_t m = 0; m < members; ++m) {
        QueryState& state = states_[requests_[g.begin + m].second];
        state.frontier.ExpandInterior(block, PointView(state.query), metric_);
        Advance(&state);
      }
    }
  };
  if (pool != nullptr && groups_.size() > 1) {
    pool->ParallelFor(0, groups_.size(), expand);
  } else {
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) expand(gi);
  }

  std::size_t running = 0;
  for (const QueryState& s : states_) {
    if (s.live && !s.done) ++running;
  }
  running_ = running;
  return running_;
}

}  // namespace parsim
