// Tests of the multi-tenant QoS subsystem (src/qos/): deficit-weighted
// fair queueing (weight-proportional throughput under saturation), the
// batch lane's anti-starvation escape, cost-based admission with
// refund-on-cancel, exact per-tenant gauges, and the FIFO-equivalence
// invariant — a scheduler seeing only default
// tags must pop in exact push order, which is what keeps default-class
// traffic bit-identical to the pre-QoS service. The CI runs this binary
// under ThreadSanitizer.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "qos/cost.h"
#include "qos/qos.h"
#include "qos/scheduler.h"
#include "util/executor.h"
#include "whyprov.h"

namespace whyprov {
namespace {

util::TaskTag Tag(qos::QosClass lane, std::string tenant) {
  util::TaskTag tag;
  tag.lane = static_cast<std::uint8_t>(lane);
  tag.tenant = std::move(tenant);
  return tag;
}

/// A task that appends its label to `log` when the test pops and runs it.
std::function<void()> Record(std::vector<std::string>& log,
                             std::string label) {
  return [&log, label = std::move(label)] { log.push_back(label); };
}

// --- scheduler: weighted fairness ----------------------------------------

TEST(FairSchedulerTest, ThroughputSharesAreWeightProportional) {
  qos::QosOptions options;
  options.quantum = 1.0;
  options.tenant_weights = {{"heavy", 3.0}, {"light", 1.0}};
  qos::FairScheduler scheduler(options);

  std::vector<std::string> log;
  for (int i = 0; i < 40; ++i) {
    scheduler.Push(Record(log, "heavy"),
                   Tag(qos::QosClass::kInteractive, "heavy"));
    scheduler.Push(Record(log, "light"),
                   Tag(qos::QosClass::kInteractive, "light"));
  }
  // A saturated window: both tenants have work queued throughout.
  for (int i = 0; i < 40; ++i) scheduler.Pop()();

  int heavy = 0;
  int light = 0;
  for (const std::string& label : log) (label == "heavy" ? heavy : light)++;
  // Deficit round robin with quantum 1 serves the 3.0-weight tenant
  // exactly three unit tasks per rotation and the 1.0-weight tenant one.
  EXPECT_EQ(heavy, 30);
  EXPECT_EQ(light, 10);
  EXPECT_EQ(scheduler.size(), 40u);
}

// --- scheduler: lanes ----------------------------------------------------

TEST(FairSchedulerTest, BatchLaneIsStarvationFreeUnderInteractiveFlood) {
  qos::QosOptions options;
  options.batch_escape = 4;
  qos::FairScheduler scheduler(options);

  std::vector<std::string> log;
  for (int i = 0; i < 40; ++i) {
    scheduler.Push(Record(log, "interactive"),
                   Tag(qos::QosClass::kInteractive, ""));
  }
  for (int i = 0; i < 8; ++i) {
    scheduler.Push(Record(log, "batch"), Tag(qos::QosClass::kBatch, "b"));
  }
  while (scheduler.size() > 0) scheduler.Pop()();

  ASSERT_EQ(log.size(), 48u);
  // After every batch_escape consecutive interactive pops one batch task
  // is served: batch task k lands at position 4 + 5k, a bounded trickle
  // instead of waiting for the interactive flood to end.
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(log[4 + 5 * k], "batch") << "batch task " << k;
  }
}

TEST(FairSchedulerTest, ZeroEscapeMeansStrictPriority) {
  qos::QosOptions options;
  options.batch_escape = 0;  // disables the escape hatch
  qos::FairScheduler scheduler(options);

  std::vector<std::string> log;
  for (int i = 0; i < 10; ++i) {
    scheduler.Push(Record(log, "batch"), Tag(qos::QosClass::kBatch, "b"));
    scheduler.Push(Record(log, "interactive"),
                   Tag(qos::QosClass::kInteractive, ""));
  }
  while (scheduler.size() > 0) scheduler.Pop()();
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(log[i], "interactive") << "position " << i;
    EXPECT_EQ(log[10 + i], "batch") << "position " << (10 + i);
  }
}

// --- scheduler: the FIFO-equivalence invariant ---------------------------

TEST(FairSchedulerTest, DefaultTagsPopInExactPushOrder) {
  // Architecture invariant 6: with only default tags (one lane, one
  // tenant) every scheduling level degenerates and the pop
  // order IS the push order — what keeps default-class behaviour (and
  // the bit-identical transcripts) unchanged from the pre-QoS FIFO.
  qos::FairScheduler scheduler(qos::QosOptions{});
  std::vector<std::string> log;
  for (int i = 0; i < 64; ++i) {
    scheduler.Push(Record(log, std::to_string(i)), util::TaskTag());
  }
  while (scheduler.size() > 0) scheduler.Pop()();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(log[static_cast<std::size_t>(i)], std::to_string(i));
  }
}

// --- admission: budget, rate, refund -------------------------------------

TEST(AdmissionControllerTest, OutstandingBudgetRefusesAndRefunds) {
  qos::QosOptions options;
  options.tenant_cost_budget = 10.0;
  qos::AdmissionController admission(options);

  EXPECT_TRUE(admission.Admit("t", 6.0).ok());
  const util::Status refused = admission.Admit("t", 6.0);
  EXPECT_EQ(refused.code(), util::StatusCode::kResourceExhausted);
  // A refusal charges nothing, and budgets are per tenant.
  EXPECT_DOUBLE_EQ(admission.Outstanding("t"), 6.0);
  EXPECT_TRUE(admission.Admit("other", 6.0).ok());

  admission.Release("t", 6.0);
  EXPECT_DOUBLE_EQ(admission.Outstanding("t"), 0.0);
  EXPECT_TRUE(admission.Admit("t", 6.0).ok());
}

TEST(AdmissionControllerTest, TokenBucketLimitsAdmittedCostPerSecond) {
  qos::QosOptions options;
  options.refill_per_second = 1.0;
  options.burst = 2.0;
  qos::AdmissionController admission(options);

  EXPECT_TRUE(admission.AdmitAt("t", 1.0, 0.0).ok());
  EXPECT_TRUE(admission.AdmitAt("t", 1.0, 0.0).ok());
  const util::Status refused = admission.AdmitAt("t", 1.0, 0.0);
  EXPECT_EQ(refused.code(), util::StatusCode::kResourceExhausted);
  // Two seconds later the bucket refilled (capped at the burst depth).
  EXPECT_TRUE(admission.AdmitAt("t", 1.0, 2.0).ok());
  EXPECT_TRUE(admission.AdmitAt("t", 1.0, 2.0).ok());
  EXPECT_EQ(admission.AdmitAt("t", 1.0, 2.0).code(),
            util::StatusCode::kResourceExhausted);
}

// --- service: cost admission and refund-on-cancel ------------------------

constexpr const char* kDiamondProgram = R"(
  path(X, Y) :- edge(X, Y).
  path(X, Y) :- edge(X, Z), path(Z, Y).
)";
constexpr const char* kDiamondDatabase = R"(
  edge(a, m1). edge(m1, b).
  edge(a, m2). edge(m2, b).
  edge(a, m3). edge(m3, b).
)";

Engine MakeEngine() {
  auto engine =
      Engine::FromText(kDiamondProgram, kDiamondDatabase, "path");
  EXPECT_TRUE(engine.ok()) << engine.status().message();
  return std::move(engine).value();
}

Request EnumerateOp(std::string tenant,
                    qos::QosClass lane = qos::QosClass::kInteractive) {
  EnumerateRequest enumerate;
  enumerate.target_text = "path(a, b)";
  Request request;
  request.op = std::move(enumerate);
  request.qos_class = lane;
  request.tenant = std::move(tenant);
  return request;
}

TEST(ServiceQosTest, CostAdmissionRejectsAndCancelRefunds) {
  ServiceOptions options;
  // Two workers: one carries the deliberately-blocked stream below, the
  // other keeps serving everything else.
  options.num_threads = 2;
  // Room for one in-flight diamond query (estimated cost a little above
  // the 1.0 floor) but not two.
  options.qos.tenant_cost_budget = 1.5;
  Service service(MakeEngine(), options);

  // r1: a streaming enumeration holds its admission charge while the
  // bounded stream (capacity 1) blocks the producer.
  auto stream = std::make_shared<MemberStream>(/*capacity=*/1);
  auto streamed = service.Submit(EnumerateOp("t"), stream);
  ASSERT_TRUE(streamed.ok()) << streamed.status().message();
  Ticket ticket = std::move(streamed).value();
  ASSERT_TRUE(stream->Pop().has_value());  // the producer is live

  // r2: the same tenant exceeds its outstanding budget — refused at
  // Submit, nothing queued.
  auto rejected = service.Submit(EnumerateOp("t"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kResourceExhausted);

  // Other tenants are unaffected by t's budget.
  auto other = service.Submit(EnumerateOp("u"));
  ASSERT_TRUE(other.ok()) << other.status().message();
  EXPECT_TRUE(other.value().Wait().status.ok());

  // Cancel r1: its terminal response refunds the charge...
  ticket.Cancel();
  while (stream->Pop().has_value()) {
  }
  EXPECT_EQ(ticket.Wait().status.code(), util::StatusCode::kCancelled);

  // ...so the tenant is admitted again.
  auto retried = service.Submit(EnumerateOp("t"));
  ASSERT_TRUE(retried.ok()) << retried.status().message();
  EXPECT_TRUE(retried.value().Wait().status.ok());

  // The per-tenant stats saw all of it.
  bool found = false;
  for (const qos::TenantStats& row : service.stats().tenants) {
    if (row.tenant != "t" || row.lane != qos::QosClass::kInteractive) {
      continue;
    }
    found = true;
    EXPECT_GE(row.rejected, 1u);
    EXPECT_GE(row.cancelled, 1u);
    EXPECT_GE(row.served, 1u);
    EXPECT_EQ(row.queued, 0u);
  }
  EXPECT_TRUE(found) << "no stats row for tenant 't'";
}

TEST(ServiceQosTest, DefaultClassRequestsMatchFifoServiceResults) {
  // Invariant 6 at the service level: the same default-class workload
  // through the fair scheduler and through the pre-QoS FIFO queue
  // produces identical responses.
  ServiceOptions fair;
  fair.num_threads = 1;
  ASSERT_TRUE(fair.qos.fair_queueing);
  ServiceOptions fifo;
  fifo.num_threads = 1;
  fifo.qos.fair_queueing = false;

  Service fair_service(MakeEngine(), fair);
  Service fifo_service(MakeEngine(), fifo);
  for (int i = 0; i < 5; ++i) {
    auto a = fair_service.Submit(EnumerateOp(""));
    auto b = fifo_service.Submit(EnumerateOp(""));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    const Response& fair_response = a.value().Wait();
    const Response& fifo_response = b.value().Wait();
    ASSERT_TRUE(fair_response.status.ok());
    ASSERT_TRUE(fifo_response.status.ok());
    EXPECT_EQ(fair_response.members_emitted, fifo_response.members_emitted);
    EXPECT_EQ(fair_response.exhausted, fifo_response.exhausted);
    EXPECT_EQ(fair_response.model_version, fifo_response.model_version);
  }
}

TEST(ServiceQosTest, QueuedGaugeDrainsToZeroAfterFastCompletions) {
  // A worker can finish a request before Submit returns. The queue entry
  // must be recorded before the executor can run the request, or the
  // completion finds nothing to retire and the gauge sticks above zero.
  constexpr std::size_t kRequests = 500;
  ServiceOptions options;
  options.num_threads = 4;
  options.queue_capacity = kRequests;
  Service service(MakeEngine(), options);
  std::vector<Ticket> tickets;
  tickets.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    Request request = EnumerateOp("t");
    std::get<EnumerateRequest>(request.op).max_members = 1;
    auto ticket = service.Submit(std::move(request));
    ASSERT_TRUE(ticket.ok()) << ticket.status().message();
    tickets.push_back(std::move(ticket).value());
  }
  for (const Ticket& ticket : tickets) {
    ASSERT_TRUE(ticket.Wait().status.ok()) << ticket.Wait().status.message();
  }

  bool found = false;
  for (const qos::TenantStats& row : service.stats().tenants) {
    if (row.tenant != "t") continue;
    found = true;
    EXPECT_EQ(row.queued, 0u);
    EXPECT_EQ(row.served, kRequests);
  }
  EXPECT_TRUE(found) << "no stats row for tenant 't'";
}

}  // namespace
}  // namespace whyprov
