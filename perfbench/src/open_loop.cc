#include "perfbench/src/open_loop.h"

#include <chrono>
#include <future>
#include <thread>

#include "src/util/random.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

namespace {

/// Sleeps until shortly before `due`, then spins: a sleeping thread wakes
/// up to a millisecond late on a loaded machine, which would show up as
/// generator lag in every latency. The generator owns one CPU of the
/// thread budget, so spinning costs the program under test nothing.
void WaitUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(300);
  if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

}  // namespace

std::vector<Arrival> PoissonSchedule(double rate_qps, double duration_s,
                                     double bulk_fraction,
                                     std::size_t num_queries,
                                     std::uint64_t seed) {
  parsim::Rng rng(seed);
  std::vector<Arrival> out;
  double t = rng.NextExponential(rate_qps);
  while (t < duration_s) {
    Arrival a;
    a.at_s = t;
    a.bulk = rng.NextBernoulli(bulk_fraction);
    a.query = static_cast<std::size_t>(rng.NextBounded(num_queries));
    out.push_back(a);
    t += rng.NextExponential(rate_qps);
  }
  return out;
}

std::vector<Sent> DriveOpenLoop(parsim::QueryService& service,
                                const parsim::PointSet& queries,
                                const std::vector<Arrival>& schedule,
                                const parsim::ServiceQueryOptions& interactive,
                                const parsim::ServiceQueryOptions& bulk,
                                Tracer* tracer, std::uint64_t first_request) {
  std::vector<Sent> sent(schedule.size());
  std::vector<std::future<parsim::ServedResult>> futures(schedule.size());
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& a = schedule[i];
    const Clock::time_point due =
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(a.at_s));
    WaitUntil(due);
    sent[i].arrival = a;
    sent[i].lag_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    ScopedSpan span(tracer, "service.Submit", first_request + i);
    sent[i].accepted =
        service.Submit(queries[a.query], a.bulk ? bulk : interactive,
                       &futures[i])
            .ok();
  }
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (!sent[i].accepted) continue;
    sent[i].served = futures[i].get();
    sent[i].latency_ms = sent[i].lag_ms + sent[i].served.latency_ms;
  }
  return sent;
}

}  // namespace perfbench
