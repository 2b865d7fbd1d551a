// Tests for the util foundation: Status/Result, RNG, statistics, timer,
// cancellation tokens, and the bounded-queue executor.

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/cancellation.h"
#include "util/executor.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/timer.h"

namespace whyprov::util {
namespace {

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_TRUE(Status::Ok().message().empty());
  const Status error = Status::Error("boom");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.message(), "boom");
}

TEST(StatusTest, CodesAndConvenienceConstructors) {
  EXPECT_EQ(Status::Ok().code(), StatusCode::kOk);
  EXPECT_EQ(Status::Error("x").code(), StatusCode::kUnknown);
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Error(StatusCode::kNotFound, "y").code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(Status::NotFound("x").ok());
}

TEST(StatusTest, CodeNames) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeName(StatusCode::kUnknown), "UNKNOWN");
  EXPECT_EQ(StatusCodeName(StatusCode::kInvalidArgument),
            "INVALID_ARGUMENT");
  EXPECT_EQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_EQ(StatusCodeName(StatusCode::kParseError), "PARSE_ERROR");
  EXPECT_EQ(StatusCodeName(StatusCode::kResourceExhausted),
            "RESOURCE_EXHAUSTED");
}

TEST(ResultTest, ValueOr) {
  Result<int> good = 42;
  EXPECT_EQ(good.value_or(7), 42);
  Result<int> bad = Status::NotFound("nope");
  EXPECT_EQ(bad.value_or(7), 7);
  Result<std::string> text = Status::Error("nope");
  EXPECT_EQ(text.value_or("fallback"), "fallback");
  EXPECT_EQ(Result<std::string>(std::string("hit")).value_or("miss"), "hit");
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  Result<int> bad = Status::Error("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(), "nope");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> result = std::vector<int>{1, 2, 3};
  ASSERT_TRUE(result.ok());
  std::vector<int> moved = std::move(result).value();
  EXPECT_EQ(moved.size(), 3u);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(124);
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) differs |= a2.Next() != c.Next();
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.UniformInt(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  // All residues should occur in 1000 draws.
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(13);
  std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int> original = items;
  rng.Shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, original);
}

TEST(StatsTest, EmptySummaryIsZero) {
  SampleSet samples;
  const Summary s = samples.Summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.median, 0);
}

TEST(StatsTest, SingleSample) {
  SampleSet samples;
  samples.Add(5.0);
  const Summary s = samples.Summarize();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, 5.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_EQ(s.median, 5.0);
  EXPECT_EQ(s.mean, 5.0);
}

TEST(StatsTest, QuartilesOfUniformRamp) {
  SampleSet samples;
  for (int i = 0; i <= 100; ++i) samples.Add(static_cast<double>(i));
  const Summary s = samples.Summarize();
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_NEAR(s.q1, 25.0, 1.0);
  EXPECT_NEAR(s.median, 50.0, 1.0);
  EXPECT_NEAR(s.q3, 75.0, 1.0);
  EXPECT_NEAR(s.mean, 50.0, 0.01);
}

TEST(StatsTest, SummaryIsOrderInvariant) {
  SampleSet ascending;
  SampleSet shuffled;
  const std::vector<double> values{9, 1, 7, 3, 5, 2, 8};
  for (double v : values) shuffled.Add(v);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double v : sorted) ascending.Add(v);
  EXPECT_EQ(ascending.Summarize().median, shuffled.Summarize().median);
  EXPECT_EQ(ascending.Summarize().q1, shuffled.Summarize().q1);
}

TEST(StatsTest, FormatSummaryRowContainsFields) {
  SampleSet samples;
  samples.Add(1.0);
  samples.Add(2.0);
  const std::string row =
      FormatSummaryRow("label", samples.Summarize(), "ms");
  EXPECT_NE(row.find("label"), std::string::npos);
  EXPECT_NE(row.find("n=2"), std::string::npos);
  EXPECT_NE(row.find("ms"), std::string::npos);
}

TEST(TimerTest, ElapsedIsMonotone) {
  Timer timer;
  const double a = timer.ElapsedSeconds();
  const double b = timer.ElapsedSeconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
  timer.Reset();
  EXPECT_GE(timer.ElapsedMillis(), 0.0);
  EXPECT_GE(timer.ElapsedMicros(), 0.0);
}

TEST(CancellationTest, EmptyTokenNeverStops) {
  const CancellationToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.expired());
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_TRUE(token.InterruptionStatus().ok());
}

TEST(CancellationTest, CancelReachesEveryToken) {
  CancellationSource source;
  const CancellationToken a = source.token();
  const CancellationToken b = source.token();
  EXPECT_FALSE(a.ShouldStop());
  source.Cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  EXPECT_EQ(a.InterruptionStatus().code(), StatusCode::kCancelled);
}

TEST(CancellationTest, DeadlineExpiryIsDeadlineExceeded) {
  CancellationSource source;
  source.SetTimeout(1e-9);
  const CancellationToken token = source.token();
  EXPECT_TRUE(token.expired());
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.InterruptionStatus().code(),
            StatusCode::kDeadlineExceeded);
  // An explicit cancel outranks the expired deadline.
  source.Cancel();
  EXPECT_EQ(token.InterruptionStatus().code(), StatusCode::kCancelled);
}

TEST(MutexTest, TryLockReflectsOwnership) {
  // Written with direct `if (TryLock())` branches rather than gtest
  // ASSERT wrappers: the thread-safety analysis only tracks a
  // try-acquire used as a branch condition.
  Mutex mutex;
  if (!mutex.TryLock()) {
    FAIL() << "uncontended TryLock failed";
  } else {
    // Contended try-lock must fail without blocking — probe from
    // another thread; a same-thread retry would be undefined.
    bool contended_acquired = false;
    std::thread prober([&mutex, &contended_acquired] {
      if (mutex.TryLock()) {
        contended_acquired = true;
        mutex.Unlock();
      }
    });
    prober.join();
    EXPECT_FALSE(contended_acquired);
    mutex.Unlock();
  }
  // After release, a fresh probe from another thread succeeds.
  bool reacquired = false;
  std::thread reprober([&mutex, &reacquired] {
    if (mutex.TryLock()) {
      reacquired = true;
      mutex.Unlock();
    }
  });
  reprober.join();
  EXPECT_TRUE(reacquired);
}

TEST(MutexTest, MutexLockExcludesConcurrentCriticalSections) {
  Mutex mutex;
  int counter = 0;
  std::vector<std::thread> threads;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 1000;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mutex, &counter] {
      for (int i = 0; i < kIncrements; ++i) {
        const MutexLock lock(mutex);
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const MutexLock lock(mutex);
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(CondVarTest, DeadlineWaitTimesOutWhenNeverNotified) {
  Mutex mutex;
  CondVar cv;
  const MutexLock lock(mutex);
  // WaitFor returns true iff the deadline passed; nobody notifies, so
  // both a short and an already-expired deadline must report timeout.
  EXPECT_TRUE(cv.WaitFor(mutex, 0.01));
  EXPECT_TRUE(cv.WaitFor(mutex, -1.0));
  EXPECT_TRUE(cv.WaitUntil(mutex, std::chrono::steady_clock::now()));
}

TEST(CondVarTest, ContendedWakeReachesEveryWaiter) {
  Mutex mutex;
  CondVar cv;
  bool released = false;
  int awake = 0;
  std::vector<std::thread> waiters;
  constexpr int kWaiters = 4;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      const MutexLock lock(mutex);
      while (!released) cv.Wait(mutex);
      ++awake;
    });
  }
  {
    const MutexLock lock(mutex);
    released = true;
  }
  cv.NotifyAll();
  for (std::thread& waiter : waiters) waiter.join();
  const MutexLock lock(mutex);
  EXPECT_EQ(awake, kWaiters);
}

TEST(CondVarTest, NotifyOneWakesABlockedDeadlineWaiter) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  bool timed_out = true;
  std::thread waiter([&] {
    const MutexLock lock(mutex);
    while (!ready) {
      // A generous deadline that only expires if the notify is lost.
      if (cv.WaitFor(mutex, 30.0)) {
        timed_out = true;
        return;
      }
    }
    timed_out = false;
  });
  {
    const MutexLock lock(mutex);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  EXPECT_FALSE(timed_out);
}

TEST(ExecutorTest, TrySubmitRefusesWhenTheQueueIsFull) {
  Executor executor({/*num_threads=*/1, /*queue_capacity=*/1});
  Mutex mutex;
  CondVar cv;
  bool release = false;
  // Park the single worker...
  ASSERT_TRUE(executor
                  .TrySubmit([&] {
                    const MutexLock lock(mutex);
                    while (!release) cv.Wait(mutex);
                  })
                  .ok());
  // ...wait until it actually picked the task up (pending -> 0)...
  while (executor.pending() != 0) {
    std::this_thread::yield();
  }
  // ...fill the one queue slot, then watch the bound refuse.
  std::atomic<bool> ran{false};
  ASSERT_TRUE(executor.TrySubmit([&ran] { ran.store(true); }).ok());
  const Status refused = executor.TrySubmit([] {});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  {
    const MutexLock lock(mutex);
    release = true;
  }
  cv.NotifyAll();
  executor.Shutdown();  // drains the queued task before joining
  EXPECT_TRUE(ran.load());
  // After shutdown, admission is closed for good.
  EXPECT_FALSE(executor.TrySubmit([] {}).ok());
}

}  // namespace
}  // namespace whyprov::util
