// The service layer's per-layer probe: one open-loop pass of Poisson
// arrivals into a started QueryService, at a fixed absolute rate. The
// mix is 80% interactive k=10 queries with a wall deadline and 20% bulk
// k=100 queries. The rate below was chosen once, on a 4-CPU Intel Xeon
// (see perfbench/README.md), and is never recalibrated per run.

#include <algorithm>
#include <string>
#include <vector>

#include "perfbench/src/open_loop.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workloads.h"
#include "src/parallel/engine.h"
#include "src/service/query_service.h"

namespace perfbench {
namespace {

using parsim::ParallelSearchEngine;
using parsim::PointSet;

constexpr std::size_t kK = 10;
constexpr std::size_t kBulkK = 100;
constexpr double kBulkFraction = 0.2;
constexpr double kDeadlineMs = 50.0;
/// Offered load (queries/s), about a quarter of the capacity measured for
/// one dispatcher over a 200k-point, d=8 engine with SQ8 leaf blocks.
constexpr double kNominalQps = 2000.0;
constexpr std::size_t kOracleSamples = 48;

parsim::ServiceQueryOptions InteractiveOptions() {
  parsim::ServiceQueryOptions o;
  o.k = kK;
  o.priority = parsim::QueryClass::kInteractive;
  o.deadline_ms = kDeadlineMs;
  return o;
}

parsim::ServiceQueryOptions BulkOptions() {
  parsim::ServiceQueryOptions o;
  o.k = kBulkK;
  o.priority = parsim::QueryClass::kBulk;
  return o;
}

/// Checks sampled served answers against engine.Query: an Ok answer must
/// equal it and an expired one must be a prefix of it.
void CheckServed(const ParallelSearchEngine& engine, const PointSet& queries,
                 const std::vector<Sent>& sent, std::uint64_t seed,
                 Report* report) {
  for (const std::size_t i : SampleIndices(sent.size(), kOracleSamples, seed)) {
    const Sent& s = sent[i];
    if (!s.accepted) continue;
    const std::size_t k = s.arrival.bulk ? kBulkK : kK;
    const parsim::KnnResult exact = engine.Query(queries[s.arrival.query], k);
    const parsim::KnnResult& got = s.served.neighbors;
    if (s.served.status.ok()) {
      if (!SameKnn(got, exact)) {
        report->Fail("service: served answer differs from engine.Query");
      }
    } else if (s.served.status.code() ==
               parsim::StatusCode::kDeadlineExceeded) {
      const parsim::KnnResult prefix(
          exact.begin(),
          exact.begin() + static_cast<std::ptrdiff_t>(
                              std::min(got.size(), exact.size())));
      if (got.size() > exact.size() || !SameKnn(got, prefix)) {
        report->Fail("service: expired answer is not a prefix");
      }
    }
  }
}

}  // namespace

void ProbeService(const ParallelSearchEngine& engine,
                  parsim::QueryService& service, const PointSet& queries,
                  double pass_s, std::uint64_t seed, Tracer* tracer,
                  Report* report) {
  const parsim::ServiceMetrics m0 = service.metrics();
  const std::vector<Sent> sent = DriveOpenLoop(
      service, queries,
      PoissonSchedule(kNominalQps, pass_s, kBulkFraction, queries.size(),
                      seed),
      InteractiveOptions(), BulkOptions(), tracer, 1);
  const parsim::ServiceMetrics m1 = service.metrics();
  std::vector<double> queue_ms, exec_ms, lag_ms;
  double rounds = 0.0;
  std::size_t rejected = 0, expired = 0, failed = 0;
  for (const Sent& s : sent) {
    lag_ms.push_back(s.lag_ms);
    if (!s.accepted || !s.served.status.ok()) ++failed;
    if (!s.accepted) {
      ++rejected;
      continue;
    }
    if (s.served.status.code() == parsim::StatusCode::kDeadlineExceeded) {
      ++expired;
    }
    queue_ms.push_back(s.served.queue_ms);
    exec_ms.push_back(s.served.latency_ms - s.served.queue_ms);
    rounds += static_cast<double>(s.served.rounds);
  }
  report->AddPercentile("service.queue_ms_p50", Percentile(queue_ms, 0.5),
                        "ms", queue_ms.size());
  report->AddPercentile("service.queue_ms_p99", Percentile(queue_ms, 0.99),
                        "ms", queue_ms.size());
  report->AddPercentile("service.exec_ms_p50", Percentile(exec_ms, 0.5),
                        "ms", exec_ms.size());
  report->AddPercentile("loadgen.lag_p99_ms", Percentile(lag_ms, 0.99), "ms",
                        lag_ms.size());
  const double served =
      static_cast<double>(std::max<std::size_t>(1, queue_ms.size()));
  report->Add("service.rounds_per_query", rounds / served, "count");
  const double service_rounds = static_cast<double>(m1.rounds - m0.rounds);
  report->Add("service.queries_per_round",
              service_rounds > 0 ? rounds / service_rounds : 0.0, "count");
  const double attempted =
      static_cast<double>(std::max<std::size_t>(1, sent.size()));
  report->Add("service.rejected_frac",
              static_cast<double>(rejected) / attempted, "ratio");
  report->Add("service.expired_frac",
              static_cast<double>(expired) / attempted, "ratio");
  report->attempted += sent.size();
  report->failed += failed;
  CheckServed(engine, queries, sent, seed, report);
}

}  // namespace perfbench
