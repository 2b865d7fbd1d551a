// Tests of the multi-tenant QoS subsystem (src/qos/): per-tenant round
// robin within a lane (equal shares under saturation, no state kept for
// idle tenants), the batch lane's anti-starvation escape, exact
// per-tenant gauges under a bounded tenant registry, the tenant-name
// limit, and the FIFO-equivalence invariant — a scheduler
// seeing only default tags must pop in exact push order, which is what
// keeps default-class traffic bit-identical to the pre-QoS service. The
// CI runs this binary under ThreadSanitizer.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "qos/qos.h"
#include "qos/scheduler.h"
#include "qos/tenant_registry.h"
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

// --- scheduler: per-tenant round robin -----------------------------------

TEST(FairSchedulerTest, TenantsInALaneAlternateBehindAFlood) {
  qos::FairScheduler scheduler;

  std::vector<std::string> log;
  for (int i = 0; i < 40; ++i) {
    scheduler.Push(Record(log, "flood"),
                   Tag(qos::QosClass::kInteractive, "flood"));
  }
  for (int i = 0; i < 40; ++i) {
    scheduler.Push(Record(log, "late"),
                   Tag(qos::QosClass::kInteractive, "late"));
  }
  // A saturated window: both tenants have work queued throughout.
  for (int i = 0; i < 40; ++i) scheduler.Pop()();

  // One task per tenant per rotation: the late tenant's first task pops
  // second, however many tasks the flooding tenant queued before it, and
  // the two split the window equally.
  ASSERT_EQ(log.size(), 40u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i], i % 2 == 0 ? "flood" : "late") << "position " << i;
  }
  EXPECT_EQ(scheduler.size(), 40u);
}

TEST(FairSchedulerTest, DrainedTenantsLeaveNoState) {
  // Wire clients choose tenant names freely: state kept per name ever
  // seen would grow without bound under a stream of distinct names.
  qos::FairScheduler scheduler;
  std::vector<std::string> log;
  for (int i = 0; i < 1000; ++i) {
    const qos::QosClass lane =
        i % 2 == 0 ? qos::QosClass::kInteractive : qos::QosClass::kBatch;
    scheduler.Push(Record(log, "t"), Tag(lane, "t" + std::to_string(i)));
    if (i % 10 == 9) {
      while (scheduler.size() > 0) scheduler.Pop()();
      EXPECT_EQ(scheduler.active_tenants(), 0u) << "after push " << i;
    }
  }
  EXPECT_EQ(log.size(), 1000u);
}

// --- scheduler: lanes ----------------------------------------------------

TEST(FairSchedulerTest, BatchLaneIsStarvationFreeUnderInteractiveFlood) {
  constexpr std::size_t kEscape = qos::FairScheduler::kBatchEscape;
  qos::FairScheduler scheduler;

  std::vector<std::string> log;
  for (std::size_t i = 0; i < 8 * kEscape; ++i) {
    scheduler.Push(Record(log, "interactive"),
                   Tag(qos::QosClass::kInteractive, ""));
  }
  for (int i = 0; i < 8; ++i) {
    scheduler.Push(Record(log, "batch"), Tag(qos::QosClass::kBatch, "b"));
  }
  while (scheduler.size() > 0) scheduler.Pop()();

  ASSERT_EQ(log.size(), 9 * kEscape);
  // After every kBatchEscape consecutive interactive pops one batch task
  // is served: batch task k lands at position kEscape + (kEscape + 1)k, a
  // bounded trickle instead of waiting for the interactive flood to end.
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(log[kEscape + (kEscape + 1) * k], "batch") << "batch task " << k;
  }
}

// --- scheduler: the FIFO-equivalence invariant ---------------------------

TEST(FairSchedulerTest, DefaultTagsPopInExactPushOrder) {
  // Architecture invariant 6: with only default tags (one lane, one
  // tenant) every scheduling level degenerates and the pop
  // order IS the push order — what keeps default-class behaviour (and
  // the bit-identical transcripts) unchanged from the pre-QoS FIFO.
  qos::FairScheduler scheduler;
  std::vector<std::string> log;
  for (int i = 0; i < 64; ++i) {
    scheduler.Push(Record(log, std::to_string(i)), util::TaskTag());
  }
  while (scheduler.size() > 0) scheduler.Pop()();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(log[static_cast<std::size_t>(i)], std::to_string(i));
  }
}

// --- service: per-tenant rows and the default-class invariant ----------

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

TEST(ServiceQosTest, TenantRowsCountQueueRefusalsCancelsAndServes) {
  ServiceOptions options;
  // One worker, one queue slot: the deliberately-blocked stream below
  // occupies the worker, one queued request fills the queue, and the
  // next submit is refused.
  options.num_threads = 1;
  options.queue_capacity = 1;
  Service service(MakeEngine(), options);

  // r1: a streaming enumeration occupies the only worker while the
  // bounded stream (capacity 1) blocks the producer.
  auto stream = std::make_shared<MemberStream>(/*capacity=*/1);
  auto streamed = service.Submit(EnumerateOp("t"), stream);
  ASSERT_TRUE(streamed.ok()) << streamed.status().message();
  Ticket ticket = std::move(streamed).value();
  ASSERT_TRUE(stream->Pop().has_value());  // the producer is live

  // r2 (another tenant) takes the one queue slot...
  auto other = service.Submit(EnumerateOp("u"));
  ASSERT_TRUE(other.ok()) << other.status().message();

  // ...so r3 is refused at Submit, nothing queued.
  auto rejected = service.Submit(EnumerateOp("t"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kResourceExhausted);

  // Cancel r1: the worker moves on to r2 and the queue drains...
  ticket.Cancel();
  while (stream->Pop().has_value()) {
  }
  EXPECT_EQ(ticket.Wait().status.code(), util::StatusCode::kCancelled);
  EXPECT_TRUE(other.value().Wait().status.ok());

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
  ASSERT_TRUE(fair.fair_queueing);
  ServiceOptions fifo;
  fifo.num_threads = 1;
  fifo.fair_queueing = false;

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

TEST(ServiceQosTest, TenantNamesPastTheCapFoldIntoTheOverflowRow) {
  // Clients choose tenant names freely: the registry keeps rows for the
  // first kMaxTenants names and counts every later one in one overflow
  // row, so its memory stays bounded.
  constexpr std::size_t kNames = 10000;
  constexpr std::size_t kCap = qos::TenantRegistry::kMaxTenants;
  ServiceOptions options;
  options.num_threads = 1;
  Service service(MakeEngine(), options);
  for (std::size_t i = 0; i < kNames; ++i) {
    Request request = EnumerateOp("tenant-" + std::to_string(i));
    std::get<EnumerateRequest>(request.op).max_members = 1;
    auto ticket = service.Submit(std::move(request));
    ASSERT_TRUE(ticket.ok()) << ticket.status().message();
    ASSERT_TRUE(ticket.value().Wait().status.ok());
  }

  const std::vector<qos::TenantStats> rows = service.stats().tenants;
  EXPECT_LE(rows.size(), kCap + 1);
  std::size_t overflow_rows = 0;
  for (const qos::TenantStats& row : rows) {
    EXPECT_EQ(row.queued, 0u) << row.tenant;
    if (row.tenant == qos::kOverflowTenant) {
      ++overflow_rows;
      EXPECT_EQ(row.served, kNames - kCap);
    } else {
      EXPECT_EQ(row.served, 1u) << row.tenant;  // rows below the cap: exact
    }
  }
  EXPECT_EQ(overflow_rows, 1u);
}

TEST(ServiceQosTest, OverlongOrReservedTenantNameIsRefused) {
  Service service(MakeEngine());
  const std::string longest(qos::kMaxTenantBytes, 't');
  for (const std::string& tenant :
       {longest + "t", std::string(qos::kOverflowTenant)}) {
    auto refused = service.Submit(EnumerateOp(tenant));
    ASSERT_FALSE(refused.ok()) << tenant;
    EXPECT_EQ(refused.status().code(), util::StatusCode::kInvalidArgument);
  }
  // Refused before anything is counted; the longest allowed name serves.
  auto served = service.Submit(EnumerateOp(longest));
  ASSERT_TRUE(served.ok()) << served.status().message();
  EXPECT_TRUE(served.value().Wait().status.ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].tenant, longest);
}

}  // namespace
}  // namespace whyprov
