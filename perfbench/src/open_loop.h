// Open-loop load generator over QueryService::Submit.
//
// The arrival schedule (Poisson arrival times plus each arrival's class
// and query index) is drawn up front from a seed, so the generator does
// no random work while sending, and two runs with one seed offer the
// same load. Latency is timed from each query's scheduled send time,
// not from Submit: a generator that falls behind still charges the delay
// to the queries it delayed, and the lag itself is reported.

#ifndef PERFBENCH_SRC_OPEN_LOOP_H_
#define PERFBENCH_SRC_OPEN_LOOP_H_

#include <cstdint>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/geometry/point.h"
#include "src/service/query_service.h"

namespace perfbench {

struct Arrival {
  /// Scheduled send time, seconds from the start of the run.
  double at_s = 0.0;
  bool bulk = false;
  /// Index into the query set.
  std::size_t query = 0;
};

/// Poisson arrivals at `rate_qps` over [0, duration_s); each arrival is
/// bulk with probability `bulk_fraction` and draws a query index
/// uniformly from [0, num_queries). Pure function of its arguments.
std::vector<Arrival> PoissonSchedule(double rate_qps, double duration_s,
                                     double bulk_fraction,
                                     std::size_t num_queries,
                                     std::uint64_t seed);

/// One sent query and what became of it.
struct Sent {
  Arrival arrival;
  /// Actual send time minus scheduled send time.
  double lag_ms = 0.0;
  /// Submit accepted the query (false: rejected by admission control).
  bool accepted = false;
  parsim::ServedResult served;
  /// Scheduled send -> resolution.
  double latency_ms = 0.0;
};

/// Sends `schedule` into a started `service`, then waits for every
/// accepted query to resolve. Spans (when `tracer` is set) carry request
/// ids first_request, first_request + 1, ...
std::vector<Sent> DriveOpenLoop(
    parsim::QueryService& service, const parsim::PointSet& queries,
    const std::vector<Arrival>& schedule,
    const parsim::ServiceQueryOptions& interactive,
    const parsim::ServiceQueryOptions& bulk, Tracer* tracer,
    std::uint64_t first_request);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_OPEN_LOOP_H_
