// QueryService: the production front-end around ParallelSearchEngine.
// Pins the service contract — bit-identity with QueryBatch when no
// deadline fires, kResourceExhausted backpressure on a full admission
// queue, page budgets / wall deadlines resolving to kDeadlineExceeded
// with a true top-m prefix, weighted priority admission (interactive
// first, bulk not starved), and determinism at any worker-thread count.
// The threaded Start/Submit/Stop test doubles as the TSAN target.

#include <algorithm>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/parsim/parsim.h"

namespace parsim {
namespace {

constexpr std::size_t kK = 10;

std::unique_ptr<ParallelSearchEngine> MakeEngine(const PointSet& data,
                                                 std::uint32_t disks = 8,
                                                 bool quantized = false) {
  EngineOptions options;
  options.architecture = Architecture::kSharedTree;
  options.bulk_load = true;
  options.coalesced_batch = true;
  options.quantized_leaf_blocks = quantized;
  auto engine = std::make_unique<ParallelSearchEngine>(
      data.dim(), std::make_unique<NearOptimalDeclusterer>(data.dim(), disks),
      options);
  EXPECT_TRUE(engine->Build(data).ok());
  return engine;
}

TEST(QueryServiceTest, BitIdenticalToQueryBatchWhenNoDeadline) {
  const PointSet data = GenerateUniform(5000, 8, 9001);
  const PointSet queries = GenerateUniformQueries(32, 8, 9002);
  const auto engine = MakeEngine(data);

  std::vector<QueryStats> batch_stats;
  const std::vector<KnnResult> batch =
      engine->QueryBatch(queries, kK, &batch_stats);

  // Width covers the whole submission, so the service admits everything
  // into one closed schedule — per-query stats must match QueryBatch's
  // coalesced numbers exactly, not just the answers.
  ServiceOptions service_options;
  service_options.round_width = queries.size();
  QueryService service(*engine, service_options);
  std::vector<std::future<ServedResult>> futures(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(service.Submit(queries[i], {}, &futures[i]).ok());
  }
  EXPECT_EQ(service.Drain(), queries.size());

  for (std::size_t q = 0; q < queries.size(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    const ServedResult served = futures[q].get();
    ASSERT_TRUE(served.status.ok()) << served.status.ToString();
    ASSERT_EQ(served.neighbors.size(), batch[q].size());
    for (std::size_t i = 0; i < batch[q].size(); ++i) {
      EXPECT_EQ(served.neighbors[i].id, batch[q][i].id);
      EXPECT_EQ(served.neighbors[i].distance, batch[q][i].distance);
    }
    EXPECT_EQ(served.stats.parallel_ms, batch_stats[q].parallel_ms);
    EXPECT_EQ(served.stats.total_pages, batch_stats[q].total_pages);
    EXPECT_EQ(served.stats.directory_pages, batch_stats[q].directory_pages);
    EXPECT_EQ(served.stats.coalesced_reads, batch_stats[q].coalesced_reads);
    EXPECT_EQ(served.stats.pages_per_disk, batch_stats[q].pages_per_disk);
    EXPECT_GT(served.finish_seq, 0u);
    EXPECT_GT(served.rounds, 0u);
  }

  const ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.submitted, queries.size());
  EXPECT_EQ(metrics.completed, queries.size());
  EXPECT_EQ(metrics.rejected, 0u);
  EXPECT_EQ(metrics.expired, 0u);
  EXPECT_GT(metrics.rounds, 0u);
}

TEST(QueryServiceTest, AdaptiveAdmissionStillExactAnswers) {
  const PointSet data = GenerateUniform(4000, 6, 9011);
  const PointSet queries = GenerateUniformQueries(48, 6, 9012);
  const auto engine = MakeEngine(data);

  const std::vector<KnnResult> batch = engine->QueryBatch(queries, kK);

  // A narrow continuous width: queries join and leave rounds
  // continuously, so round composition differs completely from the
  // closed batch — the answers must not.
  ServiceOptions service_options;
  service_options.round_width = 3;
  QueryService service(*engine, service_options);
  std::vector<std::future<ServedResult>> futures(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(service.Submit(queries[i], {}, &futures[i]).ok());
  }
  service.Drain();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    const ServedResult served = futures[q].get();
    ASSERT_TRUE(served.status.ok());
    ASSERT_EQ(served.neighbors.size(), batch[q].size());
    for (std::size_t i = 0; i < batch[q].size(); ++i) {
      EXPECT_EQ(served.neighbors[i].id, batch[q][i].id);
      EXPECT_EQ(served.neighbors[i].distance, batch[q][i].distance);
    }
  }
}

TEST(QueryServiceTest, ContinuousWidthCapsOccupancyOnQuantizedEngine) {
  // A quantized engine prunes most leaf candidates, the signal a
  // prune-rate controller would widen rounds on. The continuous width is
  // fixed: no round runs more than round_width queries, so the average
  // occupancy (query-rounds over rounds) stays at or below it even when
  // far more than max_batch queries wait from the start.
  const PointSet data = GenerateUniform(5000, 8, 9021);
  const PointSet queries = GenerateUniformQueries(80, 8, 9022);
  const auto engine = MakeEngine(data, 8, /*quantized=*/true);

  ServiceOptions service_options;
  service_options.round_width = 4;
  service_options.max_batch = 16;
  QueryService service(*engine, service_options);
  ASSERT_GT(queries.size(), service_options.max_batch);
  std::vector<std::future<ServedResult>> futures(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(service.Submit(queries[i], {}, &futures[i]).ok());
  }
  EXPECT_EQ(service.Drain(), queries.size());
  std::size_t query_rounds = 0;
  for (auto& f : futures) {
    const ServedResult served = f.get();
    ASSERT_TRUE(served.status.ok());
    EXPECT_GT(served.stats.quantized_pruned, 0u);
    query_rounds += served.rounds;
  }
  const ServiceMetrics metrics = service.metrics();
  ASSERT_GT(metrics.rounds, 0u);
  EXPECT_LE(static_cast<double>(query_rounds) /
                static_cast<double>(metrics.rounds),
            static_cast<double>(service_options.round_width));
}

TEST(QueryServiceTest, BackpressureRejectsWhenQueueFull) {
  const PointSet data = GenerateUniform(1000, 4, 9021);
  const PointSet queries = GenerateUniformQueries(10, 4, 9022);
  const auto engine = MakeEngine(data, 4);

  ServiceOptions service_options;
  service_options.max_queue = 4;
  QueryService service(*engine, service_options);
  std::vector<std::future<ServedResult>> futures(queries.size());
  std::size_t accepted = 0, rejected = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Status s = service.Submit(queries[i], {}, &futures[i]);
    if (s.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(rejected, 6u);
  EXPECT_EQ(service.Drain(), 4u);
  for (std::size_t i = 0; i < accepted; ++i) {
    EXPECT_TRUE(futures[i].get().status.ok());
  }
  const ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.submitted, 4u);
  EXPECT_EQ(metrics.rejected, 6u);
  EXPECT_EQ(metrics.completed, 4u);
}

// One malformed request from any client is its own kInvalidArgument,
// never a process abort, and never counts as backpressure.
TEST(QueryServiceTest, MalformedSubmitReturnsInvalidArgument) {
  const PointSet data = GenerateUniform(1000, 4, 9025);
  const PointSet queries = GenerateUniformQueries(1, 4, 9026);
  const auto engine = MakeEngine(data, 4);
  QueryService service(*engine);

  const PointView good = queries[0];
  std::vector<Scalar> long_query(good.begin(), good.end());
  long_query.push_back(0.5f);
  std::vector<Scalar> nan_query(good.begin(), good.end());
  nan_query[0] = std::numeric_limits<float>::quiet_NaN();
  std::vector<Scalar> inf_query(good.begin(), good.end());
  inf_query[2] = std::numeric_limits<float>::infinity();
  ServiceQueryOptions zero_k;
  zero_k.k = 0;
  ServiceQueryOptions negative_deadline;
  negative_deadline.deadline_ms = -1.0;
  ServiceQueryOptions nan_deadline;
  nan_deadline.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  const struct {
    const char* what;
    PointView query;
    ServiceQueryOptions opts;
  } cases[] = {{"wrong dimension", PointView(long_query), {}},
               {"k == 0", good, zero_k},
               {"NaN coordinate", PointView(nan_query), {}},
               {"infinite coordinate", PointView(inf_query), {}},
               {"negative deadline", good, negative_deadline},
               {"NaN deadline", good, nan_deadline}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    std::future<ServedResult> future;
    const Status s = service.Submit(c.query, c.opts, &future);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(future.valid());
  }

  // Well-formed requests still run, an infinite deadline meaning "none".
  ServiceQueryOptions no_deadline;
  no_deadline.deadline_ms = std::numeric_limits<double>::infinity();
  std::future<ServedResult> future;
  ASSERT_TRUE(service.Submit(good, no_deadline, &future).ok());
  EXPECT_EQ(service.Drain(), 1u);
  const ServedResult served = future.get();
  EXPECT_TRUE(served.status.ok());
  const KnnResult direct = engine->Query(good, no_deadline.k);
  ASSERT_EQ(served.neighbors.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(served.neighbors[i].id, direct[i].id);
    EXPECT_EQ(served.neighbors[i].distance, direct[i].distance);
  }
  const ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.submitted, 1u);
  EXPECT_EQ(metrics.rejected, 0u);
  EXPECT_EQ(metrics.completed, 1u);
}

TEST(QueryServiceTest, PageBudgetStopsEarlyWithTruePrefix) {
  const PointSet data = GenerateUniform(20000, 8, 9031);
  const PointSet queries = GenerateUniformQueries(4, 8, 9032);
  const auto engine = MakeEngine(data);

  for (std::size_t q = 0; q < queries.size(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    // Unbudgeted reference run.
    QueryService full_service(*engine);
    std::future<ServedResult> full_future;
    ASSERT_TRUE(full_service.Submit(queries[q], {}, &full_future).ok());
    full_service.Drain();
    const ServedResult full = full_future.get();
    ASSERT_TRUE(full.status.ok());
    ASSERT_EQ(full.neighbors.size(), kK);

    // Tight page budget: must expire, must have read strictly fewer
    // pages, and whatever it did return must be the true best-first
    // prefix of the full answer.
    QueryService budget_service(*engine);
    ServiceQueryOptions opts;
    opts.max_pages = 8;
    std::future<ServedResult> budget_future;
    ASSERT_TRUE(budget_service.Submit(queries[q], opts, &budget_future).ok());
    budget_service.Drain();
    const ServedResult budgeted = budget_future.get();
    EXPECT_EQ(budgeted.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_LT(budgeted.stats.total_pages, full.stats.total_pages);
    EXPECT_LE(budgeted.neighbors.size(), full.neighbors.size());
    for (std::size_t i = 0; i < budgeted.neighbors.size(); ++i) {
      EXPECT_EQ(budgeted.neighbors[i].id, full.neighbors[i].id);
      EXPECT_EQ(budgeted.neighbors[i].distance, full.neighbors[i].distance);
    }
    EXPECT_EQ(budget_service.metrics().expired, 1u);

    // A generous budget never fires and stays bit-identical.
    QueryService loose_service(*engine);
    // Upper bound on TotalPagesTouched: total_pages misses the host
    // slot's directory reads, so add directory_pages (which double
    // counts the disks' share — fine for a bound that must not fire).
    opts.max_pages = full.stats.total_pages + full.stats.directory_pages +
                     full.stats.buffer_hit_pages + full.stats.coalesced_reads +
                     1;
    std::future<ServedResult> loose_future;
    ASSERT_TRUE(loose_service.Submit(queries[q], opts, &loose_future).ok());
    loose_service.Drain();
    const ServedResult loose = loose_future.get();
    ASSERT_TRUE(loose.status.ok());
    ASSERT_EQ(loose.neighbors.size(), full.neighbors.size());
    for (std::size_t i = 0; i < loose.neighbors.size(); ++i) {
      EXPECT_EQ(loose.neighbors[i].id, full.neighbors[i].id);
      EXPECT_EQ(loose.neighbors[i].distance, full.neighbors[i].distance);
    }
  }
}

TEST(QueryServiceTest, ExpiredWallDeadlineResolvesBeforeAnyRound) {
  const PointSet data = GenerateUniform(2000, 4, 9041);
  const PointSet queries = GenerateUniformQueries(1, 4, 9042);
  const auto engine = MakeEngine(data, 4);

  QueryService service(*engine);
  ServiceQueryOptions opts;
  opts.deadline_ms = 1e-9;  // already past by the first round check
  std::future<ServedResult> future;
  ASSERT_TRUE(service.Submit(queries[0], opts, &future).ok());
  service.Drain();
  const ServedResult served = future.get();
  EXPECT_EQ(served.status.code(), StatusCode::kDeadlineExceeded);
  // Expired before reading any data page: only the already-paid root
  // access can appear.
  EXPECT_LE(served.stats.total_pages, 1u);
}

TEST(QueryServiceTest, InteractiveQueriesFinishBeforeBulk) {
  const PointSet data = GenerateUniform(4000, 6, 9051);
  const PointSet queries = GenerateUniformQueries(8, 6, 9052);
  const auto engine = MakeEngine(data);

  // Width 1: strictly one query in service at a time, so admission
  // order IS completion order. Bulk submitted first, interactive second
  // — the weighted dequeue must still serve all interactive first.
  ServiceOptions service_options;
  service_options.round_width = 1;
  service_options.interactive_weight = 100;  // no bulk preemption here
  QueryService service(*engine, service_options);
  std::vector<std::future<ServedResult>> bulk_futures(4);
  std::vector<std::future<ServedResult>> interactive_futures(4);
  ServiceQueryOptions bulk_opts;
  bulk_opts.priority = QueryClass::kBulk;
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.Submit(queries[i], bulk_opts, &bulk_futures[i]).ok());
  }
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        service.Submit(queries[4 + i], {}, &interactive_futures[i]).ok());
  }
  service.Drain();
  std::uint64_t max_interactive_seq = 0;
  std::uint64_t min_bulk_seq = ~0ull;
  for (auto& f : interactive_futures) {
    max_interactive_seq = std::max(max_interactive_seq, f.get().finish_seq);
  }
  for (auto& f : bulk_futures) {
    min_bulk_seq = std::min(min_bulk_seq, f.get().finish_seq);
  }
  EXPECT_LT(max_interactive_seq, min_bulk_seq);
}

TEST(QueryServiceTest, BulkNotStarvedUnderWeight) {
  const PointSet data = GenerateUniform(2000, 4, 9061);
  const PointSet queries = GenerateUniformQueries(8, 4, 9062);
  const auto engine = MakeEngine(data, 4);

  // interactive_weight 1: the dequeue alternates I, B, I, B — a bulk
  // query finishes before the last interactive one.
  ServiceOptions service_options;
  service_options.round_width = 1;
  service_options.interactive_weight = 1;
  QueryService service(*engine, service_options);
  std::vector<std::future<ServedResult>> bulk_futures(4);
  std::vector<std::future<ServedResult>> interactive_futures(4);
  ServiceQueryOptions bulk_opts;
  bulk_opts.priority = QueryClass::kBulk;
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.Submit(queries[i], bulk_opts, &bulk_futures[i]).ok());
  }
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        service.Submit(queries[4 + i], {}, &interactive_futures[i]).ok());
  }
  service.Drain();
  std::uint64_t max_interactive_seq = 0;
  std::uint64_t min_bulk_seq = ~0ull;
  for (auto& f : interactive_futures) {
    max_interactive_seq = std::max(max_interactive_seq, f.get().finish_seq);
  }
  for (auto& f : bulk_futures) {
    min_bulk_seq = std::min(min_bulk_seq, f.get().finish_seq);
  }
  EXPECT_LT(min_bulk_seq, max_interactive_seq);
}

TEST(QueryServiceTest, DeterministicAcrossWorkerThreads) {
  const PointSet data = GenerateUniform(5000, 8, 9071);
  const PointSet queries = GenerateUniformQueries(24, 8, 9072);
  const auto engine = MakeEngine(data);

  auto run = [&](unsigned threads) {
    ServiceOptions service_options;
    service_options.round_width = 5;
    service_options.threads = threads;
    QueryService service(*engine, service_options);
    std::vector<std::future<ServedResult>> futures(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(service.Submit(queries[i], {}, &futures[i]).ok());
    }
    service.Drain();
    std::vector<ServedResult> out;
    out.reserve(queries.size());
    for (auto& f : futures) out.push_back(f.get());
    return out;
  };

  const std::vector<ServedResult> serial = run(0);
  const std::vector<ServedResult> threaded = run(8);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t q = 0; q < serial.size(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    ASSERT_EQ(serial[q].neighbors.size(), threaded[q].neighbors.size());
    for (std::size_t i = 0; i < serial[q].neighbors.size(); ++i) {
      EXPECT_EQ(serial[q].neighbors[i].id, threaded[q].neighbors[i].id);
      EXPECT_EQ(serial[q].neighbors[i].distance,
                threaded[q].neighbors[i].distance);
    }
    EXPECT_EQ(serial[q].stats.parallel_ms, threaded[q].stats.parallel_ms);
    EXPECT_EQ(serial[q].stats.total_pages, threaded[q].stats.total_pages);
    EXPECT_EQ(serial[q].stats.coalesced_reads,
              threaded[q].stats.coalesced_reads);
    EXPECT_EQ(serial[q].stats.pages_per_disk,
              threaded[q].stats.pages_per_disk);
    EXPECT_EQ(serial[q].finish_seq, threaded[q].finish_seq);
    EXPECT_EQ(serial[q].rounds, threaded[q].rounds);
  }
}

// TSAN target: concurrent Submit from many threads against a running
// dispatcher, then graceful Stop.
TEST(QueryServiceTest, ConcurrentSubmitWithDispatcher) {
  const PointSet data = GenerateUniform(3000, 6, 9081);
  const PointSet queries = GenerateUniformQueries(32, 6, 9082);
  const auto engine = MakeEngine(data);

  ServiceOptions service_options;
  service_options.max_queue = 1024;
  service_options.threads = 4;
  QueryService service(*engine, service_options);
  service.Start();

  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kPerThread = 8;
  std::vector<std::vector<std::future<ServedResult>>> futures(kSubmitters);
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    futures[s].resize(kPerThread);
    submitters.emplace_back([&, s] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        ServiceQueryOptions opts;
        opts.priority =
            (i % 2 == 0) ? QueryClass::kInteractive : QueryClass::kBulk;
        if (i % 4 == 3) opts.max_pages = 4;  // a few expire mid-flight
        const Status st = service.Submit(queries[s * kPerThread + i], opts,
                                         &futures[s][i]);
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  std::size_t completed = 0, expired = 0;
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) {
      const ServedResult served = f.get();
      ++completed;
      if (served.status.code() == StatusCode::kDeadlineExceeded) ++expired;
      EXPECT_TRUE(served.status.ok() ||
                  served.status.code() == StatusCode::kDeadlineExceeded)
          << served.status.ToString();
    }
  }
  service.Stop();
  EXPECT_EQ(completed, kSubmitters * kPerThread);
  const ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.submitted, kSubmitters * kPerThread);
  EXPECT_EQ(metrics.completed, kSubmitters * kPerThread);
  EXPECT_EQ(metrics.expired, expired);
  EXPECT_GT(expired, 0u);
}

TEST(QueryServiceTest, StopDrainsOutstandingWork) {
  const PointSet data = GenerateUniform(2000, 4, 9091);
  const PointSet queries = GenerateUniformQueries(12, 4, 9092);
  const auto engine = MakeEngine(data, 4);

  QueryService service(*engine);
  std::vector<std::future<ServedResult>> futures(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(service.Submit(queries[i], {}, &futures[i]).ok());
  }
  service.Start();
  service.Stop();  // must drain everything submitted before returning
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().status.ok());
  }
  EXPECT_EQ(service.metrics().completed, queries.size());
}

}  // namespace
}  // namespace parsim
