// Self-checks of the benchmark's own logic: the percentile and
// sample-count rule, span self-time arithmetic, and determinism of the
// open-loop arrival schedule. Exits non-zero on the first failure.

#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/src/open_loop.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/trace.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAIL: %s\n", what);
    ++g_failures;
  }
}

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void PercentileRule() {
  // Nearest rank: the smallest rank r with r >= p * n.
  Check(NearestRank(0.5, 20) == 10, "median rank of 20");
  Check(NearestRank(0.99, 1000) == 990, "p99 rank of 1000");
  Check(NearestRank(0.9, 101) == 91, "p90 rank of 101");
  // Ten samples beyond the rank, or no value.
  Check(SamplesNeeded(0.5) == 20, "median needs 20 samples");
  Check(SamplesNeeded(0.99) == 1000, "p99 needs 1000 samples");
  Check(SamplesNeeded(0.9) == 100, "p90 needs 100 samples");
  Check(SamplesNeeded(0.75) == 40, "p75 needs 40 samples");
  Check(!Percentile(Ramp(19), 0.5).has_value(), "median of 19 refused");
  Check(Percentile(Ramp(20), 0.5) == 10.0, "median of 1..20 is 10");
  Check(!Percentile(Ramp(999), 0.99).has_value(), "p99 of 999 refused");
  Check(Percentile(Ramp(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  Check(!Percentile({}, 0.5).has_value(), "empty refused");
  // Three segments of two samples each, with rates 1, 10 and 2.
  Check(MedianSegmentRate({1, 1, 10, 10, 2, 2}, {1, 1, 1, 1, 1, 1}, 3) ==
            2.0,
        "median of segment rates");
  Check(MedianSegmentRate({1, 3, 8}, {1, 1, 2}, 1) == 3.0,
        "one segment is total work over total time");
  Check(MedianSegmentRate({1, 2}, {1, 1}, 3) == 0.0, "too few samples");
}

void SelfTimes() {
  // Union coverage: overlapping and nested children count once, and
  // parts outside the parent do not count.
  Check(CoveredNs({{10, 20}, {15, 30}, {40, 50}}, 0, 100) == 30,
        "overlapping intervals covered once");
  Check(CoveredNs({{10, 20}, {12, 18}}, 0, 100) == 10, "nested interval");
  Check(CoveredNs({{0, 20}, {90, 120}}, 10, 100) == 20, "clipped to parent");
  Check(CoveredNs({}, 0, 100) == 0, "no children");

  // parent [0,100) with children [10,30) and [20,50) (concurrent) and a
  // grandchild [12,17) under the first child.
  std::vector<Span> spans(4);
  spans[0] = {"bench.op", 0, 100, kNoParent, 1};
  spans[1] = {"parallel.QueryBatch", 10, 30, 0, 1};
  spans[2] = {"parallel.QueryBatch", 20, 50, 0, 1};
  spans[3] = {"index.HsKnn", 12, 17, 1, 1};
  const std::vector<std::uint64_t> self = SelfTimesNs(spans);
  Check(self[0] == 60, "parent self time = 100 - union(10..50)");
  Check(self[1] == 15, "child self time = 20 - 5");
  Check(self[2] == 30, "leaf child self time = duration");
  Check(self[3] == 5, "grandchild self time = duration");
  Check(LayerOf("parallel.QueryBatch") == "parallel", "layer prefix");
  Check(LayerOf("bench") == "bench", "layer without a dot");

  // The recorder nests spans on one thread and restores the parent.
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "bench.op", 7);
    { ScopedSpan inner(&tracer, "index.HsKnn", 7); }
    { ScopedSpan inner(&tracer, "geometry.Sq8Many", 7); }
  }
  { ScopedSpan next(&tracer, "bench.op", 8); }
  const std::vector<Span> rec = tracer.spans();
  Check(rec.size() == 4, "four spans recorded");
  Check(rec[1].parent == 0 && rec[2].parent == 0, "children point at outer");
  Check(rec[3].parent == kNoParent, "parent restored after scope");
  Check(rec[0].start_ns <= rec[1].start_ns && rec[2].end_ns <= rec[0].end_ns,
        "children inside the parent interval");
  ScopedSpan off(nullptr, "bench.op");  // a null tracer records nothing
}

void ScheduleDeterminism() {
  const std::vector<Arrival> a = PoissonSchedule(2000.0, 2.0, 0.2, 4096, 42);
  const std::vector<Arrival> b = PoissonSchedule(2000.0, 2.0, 0.2, 4096, 42);
  const std::vector<Arrival> c = PoissonSchedule(2000.0, 2.0, 0.2, 4096, 43);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].at_s == b[i].at_s && a[i].bulk == b[i].bulk &&
           a[i].query == b[i].query;
  }
  Check(same, "one seed gives one schedule");
  Check(a.size() != c.size() || a[0].at_s != c[0].at_s,
        "another seed gives another schedule");
  // About rate * duration arrivals (4000 +- 5 sigma), ascending, in range.
  Check(std::fabs(static_cast<double>(a.size()) - 4000.0) < 5 * 63.3,
        "arrival count near rate * duration");
  bool ascending = true, in_range = true;
  std::size_t bulk = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].at_s < a[i - 1].at_s) ascending = false;
    if (a[i].at_s < 0.0 || a[i].at_s >= 2.0 || a[i].query >= 4096) {
      in_range = false;
    }
    bulk += a[i].bulk ? 1 : 0;
  }
  Check(ascending, "arrivals ascending");
  Check(in_range, "arrivals and query indices in range");
  const double share = static_cast<double>(bulk) / static_cast<double>(a.size());
  Check(share > 0.15 && share < 0.25, "bulk share near 0.2");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PercentileRule();
  perfbench::SelfTimes();
  perfbench::ScheduleDeterminism();
  if (perfbench::g_failures > 0) return 1;
  std::printf("perfbench selftest: ok\n");
  return 0;
}
