// Tests of the flat C ABI (net/whyprov_c.h): the create/submit/wait/
// cancel/stream-next/destroy lifecycle, status-code mirroring, both
// enumeration modes (materialised index walk and streaming pull with
// backpressure), decide/explain/delta payloads, deadline propagation,
// enum-valued inputs, per-tenant stats, and the compatibility fields
// (num_shards, the inert QoS tuning fields). Everything here goes through
// the extern "C" surface only — what a foreign-language binding would
// see.

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/whyprov_c.h"

namespace {

constexpr const char* kDiamondProgram = R"(
  path(X, Y) :- edge(X, Y).
  path(X, Y) :- edge(X, Z), path(Z, Y).
)";
constexpr const char* kDiamondDatabase = R"(
  edge(a, m1). edge(m1, b).
  edge(a, m2). edge(m2, b).
  edge(a, m3). edge(m3, b).
  edge(a, m4). edge(m4, b).
  edge(a, m5). edge(m5, b).
  edge(a, m6). edge(m6, b).
)";
constexpr std::size_t kDiamondMembers = 6;
constexpr const char* kTarget = "path(a, b)";

/// RAII over the C handle so a failing ASSERT cannot leak the service.
struct ServiceHandle {
  whyprov_service* service = nullptr;
  char error[256] = {0};

  explicit ServiceHandle(const whyprov_options* options = nullptr,
                         const char* program = kDiamondProgram,
                         const char* database = kDiamondDatabase,
                         const char* answer = "path") {
    status = whyprov_service_create(program, database, answer, options,
                                    &service, error, sizeof(error));
  }
  ~ServiceHandle() { whyprov_service_destroy(service); }
  ServiceHandle(const ServiceHandle&) = delete;
  ServiceHandle& operator=(const ServiceHandle&) = delete;

  whyprov_status status = WHYPROV_OK;
};

/// Pulls every member through whyprov_ticket_next_member, rendering each
/// as one comma-joined string (the pull loop is identical for streaming
/// and materialised tickets — that symmetry is itself under test).
std::vector<std::string> PullAll(whyprov_ticket* ticket) {
  std::vector<std::string> members;
  const char* const* facts = nullptr;
  std::size_t num_facts = 0;
  while (whyprov_ticket_next_member(ticket, &facts, &num_facts) != 0) {
    std::string member;
    for (std::size_t i = 0; i < num_facts; ++i) {
      if (i > 0) member += ", ";
      member += facts[i];
    }
    members.push_back(std::move(member));
  }
  return members;
}

// --- lifecycle and error paths -------------------------------------------

TEST(CApiCreateTest, StatusNamesAreStable) {
  EXPECT_STREQ(whyprov_status_name(WHYPROV_OK), "OK");
  EXPECT_STREQ(whyprov_status_name(WHYPROV_PARSE_ERROR), "PARSE_ERROR");
  EXPECT_STREQ(whyprov_status_name(WHYPROV_CANCELLED), "CANCELLED");
  EXPECT_STREQ(whyprov_status_name(WHYPROV_DEADLINE_EXCEEDED),
               "DEADLINE_EXCEEDED");
}

TEST(CApiCreateTest, CreateAndDestroyRoundTrips) {
  ServiceHandle handle;
  ASSERT_EQ(handle.status, WHYPROV_OK) << handle.error;
  ASSERT_NE(handle.service, nullptr);
  whyprov_stats stats;
  whyprov_service_stats(handle.service, &stats);
  EXPECT_EQ(stats.num_shards, 1u);
  EXPECT_EQ(stats.model_version, 0u);
}

TEST(CApiCreateTest, BadProgramFailsWithMessage) {
  ServiceHandle handle(nullptr, "p(X) :- (((", "e(a).", "p");
  EXPECT_NE(handle.status, WHYPROV_OK);
  EXPECT_EQ(handle.service, nullptr);
  EXPECT_GT(std::strlen(handle.error), 0u);
}

TEST(CApiCreateTest, UnknownAnswerPredicateIsNotFound) {
  ServiceHandle handle(nullptr, kDiamondProgram, kDiamondDatabase, "nope");
  EXPECT_EQ(handle.status, WHYPROV_NOT_FOUND);
  EXPECT_EQ(handle.service, nullptr);
}

TEST(CApiCreateTest, NullArgumentsAreInvalid) {
  whyprov_service* service = nullptr;
  EXPECT_EQ(whyprov_service_create(nullptr, "e(a).", "p", nullptr, &service,
                                   nullptr, 0),
            WHYPROV_INVALID_ARGUMENT);
  EXPECT_EQ(service, nullptr);
  EXPECT_EQ(whyprov_service_create("p(X) :- e(X).", "e(a).", "p", nullptr,
                                   nullptr, nullptr, 0),
            WHYPROV_INVALID_ARGUMENT);
  // Destroying NULL handles is a no-op, not a crash.
  whyprov_service_destroy(nullptr);
  whyprov_ticket_destroy(nullptr);
}

// --- enumeration ----------------------------------------------------------

TEST(CApiEnumerateTest, MaterialisedModeListsTheWholeFamily) {
  ServiceHandle handle;
  ASSERT_EQ(handle.status, WHYPROV_OK) << handle.error;
  whyprov_ticket* ticket = nullptr;
  ASSERT_EQ(whyprov_submit_enumerate(handle.service, kTarget,
                                     /*max_members=*/0,
                                     /*deadline_seconds=*/0,
                                     /*stream_capacity=*/0, &ticket),
            WHYPROV_OK);
  ASSERT_NE(ticket, nullptr);
  whyprov_ticket_wait(ticket);
  EXPECT_EQ(whyprov_ticket_done(ticket), 1);
  EXPECT_EQ(whyprov_ticket_status(ticket), WHYPROV_OK);
  EXPECT_EQ(whyprov_ticket_num_members(ticket), kDiamondMembers);
  EXPECT_EQ(whyprov_ticket_members_emitted(ticket), kDiamondMembers);
  EXPECT_EQ(whyprov_ticket_model_version(ticket), 0u);
  EXPECT_TRUE(whyprov_ticket_enumerate_flags(ticket) &
              WHYPROV_ENUM_EXHAUSTED);

  // Each member of whyUN(path(a, b)) is one parallel route: exactly two
  // edge facts, one through each midpoint.
  std::set<std::string> routes;
  for (std::size_t i = 0; i < kDiamondMembers; ++i) {
    const char* const* facts = nullptr;
    std::size_t num_facts = 0;
    ASSERT_EQ(whyprov_ticket_member(ticket, i, &facts, &num_facts), 1);
    ASSERT_EQ(num_facts, 2u);
    routes.insert(std::string(facts[0]) + " " + facts[1]);
  }
  EXPECT_EQ(routes.size(), kDiamondMembers);  // all distinct
  // An out-of-range index reports absence, not UB.
  const char* const* facts = nullptr;
  std::size_t num_facts = 0;
  EXPECT_EQ(whyprov_ticket_member(ticket, kDiamondMembers, &facts,
                                  &num_facts),
            0);
  whyprov_ticket_destroy(ticket);
}

TEST(CApiEnumerateTest, StreamingPullMatchesMaterialisedWalk) {
  ServiceHandle handle;
  ASSERT_EQ(handle.status, WHYPROV_OK) << handle.error;

  whyprov_ticket* materialised = nullptr;
  ASSERT_EQ(whyprov_submit_enumerate(handle.service, kTarget, 0, 0,
                                     /*stream_capacity=*/0, &materialised),
            WHYPROV_OK);
  const std::vector<std::string> walked = PullAll(materialised);
  EXPECT_EQ(whyprov_ticket_status(materialised), WHYPROV_OK);

  whyprov_ticket* streamed = nullptr;
  ASSERT_EQ(whyprov_submit_enumerate(handle.service, kTarget, 0, 0,
                                     /*stream_capacity=*/2, &streamed),
            WHYPROV_OK);
  const std::vector<std::string> pulled = PullAll(streamed);
  EXPECT_EQ(whyprov_ticket_status(streamed), WHYPROV_OK);

  // Same members, same order, byte for byte — and the streaming ticket
  // reports them under members_emitted, not num_members.
  EXPECT_EQ(pulled, walked);
  EXPECT_EQ(pulled.size(), kDiamondMembers);
  EXPECT_EQ(whyprov_ticket_num_members(streamed), 0u);
  EXPECT_EQ(whyprov_ticket_members_emitted(streamed), kDiamondMembers);

  whyprov_ticket_destroy(materialised);
  whyprov_ticket_destroy(streamed);
}

TEST(CApiEnumerateTest, MemberCapSetsTheFlag) {
  ServiceHandle handle;
  ASSERT_EQ(handle.status, WHYPROV_OK) << handle.error;
  whyprov_ticket* ticket = nullptr;
  ASSERT_EQ(whyprov_submit_enumerate(handle.service, kTarget,
                                     /*max_members=*/2, 0, 0, &ticket),
            WHYPROV_OK);
  EXPECT_EQ(whyprov_ticket_status(ticket), WHYPROV_OK);
  EXPECT_EQ(whyprov_ticket_num_members(ticket), 2u);
  const uint32_t flags = whyprov_ticket_enumerate_flags(ticket);
  EXPECT_TRUE(flags & WHYPROV_ENUM_HIT_MEMBER_CAP);
  EXPECT_FALSE(flags & WHYPROV_ENUM_EXHAUSTED);
  whyprov_ticket_destroy(ticket);
}

TEST(CApiEnumerateTest, CancelMidStreamReportsCancelled) {
  ServiceHandle handle;
  ASSERT_EQ(handle.status, WHYPROV_OK) << handle.error;
  whyprov_ticket* ticket = nullptr;
  ASSERT_EQ(whyprov_submit_enumerate(handle.service, kTarget, 0, 0,
                                     /*stream_capacity=*/1, &ticket),
            WHYPROV_OK);
  const char* const* facts = nullptr;
  std::size_t num_facts = 0;
  ASSERT_EQ(whyprov_ticket_next_member(ticket, &facts, &num_facts), 1);
  whyprov_ticket_cancel(ticket);
  // The producer observes the raised token and closes the stream; the
  // pull loop ends (possibly after the members already buffered).
  while (whyprov_ticket_next_member(ticket, &facts, &num_facts) != 0) {
  }
  EXPECT_EQ(whyprov_ticket_status(ticket), WHYPROV_CANCELLED);
  EXPECT_GT(std::strlen(whyprov_ticket_status_message(ticket)), 0u);
  whyprov_ticket_destroy(ticket);
}

TEST(CApiEnumerateTest, DeadlineExpiredInQueueIsDeadlineExceeded) {
  whyprov_options options;
  whyprov_options_init(&options);
  options.num_threads = 1;
  ServiceHandle handle(&options);
  ASSERT_EQ(handle.status, WHYPROV_OK) << handle.error;

  // Park the only worker: a capacity-1 streaming enumeration nobody
  // consumes blocks its producer after the first member.
  whyprov_ticket* blocker = nullptr;
  ASSERT_EQ(whyprov_submit_enumerate(handle.service, kTarget, 0, 0,
                                     /*stream_capacity=*/1, &blocker),
            WHYPROV_OK);

  // A nanosecond deadline is long gone by the time the worker frees up.
  whyprov_ticket* doomed = nullptr;
  ASSERT_EQ(whyprov_submit_enumerate(handle.service, kTarget, 0,
                                     /*deadline_seconds=*/1e-9, 0, &doomed),
            WHYPROV_OK);
  EXPECT_EQ(whyprov_ticket_wait_for(doomed, 0.0), 0);

  // Destroying the blocker closes its stream, unblocking the worker.
  whyprov_ticket_destroy(blocker);
  EXPECT_EQ(whyprov_ticket_status(doomed), WHYPROV_DEADLINE_EXCEEDED);
  whyprov_ticket_destroy(doomed);

  whyprov_stats stats;
  whyprov_service_stats(handle.service, &stats);
  EXPECT_GE(stats.deadline_exceeded, 1u);
}

// --- decide / explain / delta ---------------------------------------------

TEST(CApiDecideTest, VerdictsForMemberAndNonMember) {
  ServiceHandle handle;
  ASSERT_EQ(handle.status, WHYPROV_OK) << handle.error;

  const char* member[] = {"edge(a, m1)", "edge(m1, b)"};
  whyprov_ticket* yes = nullptr;
  ASSERT_EQ(whyprov_submit_decide(handle.service, kTarget, member, 2,
                                  WHYPROV_TREE_UNAMBIGUOUS, 0, &yes),
            WHYPROV_OK);
  EXPECT_EQ(whyprov_ticket_status(yes), WHYPROV_OK);
  EXPECT_EQ(whyprov_ticket_decision(yes), 1);
  whyprov_ticket_destroy(yes);

  // A lone edge cannot derive path(a, b): valid question, negative answer.
  whyprov_ticket* no = nullptr;
  ASSERT_EQ(whyprov_submit_decide(handle.service, kTarget, member, 1,
                                  WHYPROV_TREE_UNAMBIGUOUS, 0, &no),
            WHYPROV_OK);
  EXPECT_EQ(whyprov_ticket_status(no), WHYPROV_OK);
  EXPECT_EQ(whyprov_ticket_decision(no), 0);
  whyprov_ticket_destroy(no);

  // An unparseable candidate fails at submission — no ticket to leak.
  const char* garbage[] = {"edge(((("};
  whyprov_ticket* rejected = nullptr;
  EXPECT_EQ(whyprov_submit_decide(handle.service, kTarget, garbage, 1,
                                  WHYPROV_TREE_UNAMBIGUOUS, 0, &rejected),
            WHYPROV_PARSE_ERROR);
  EXPECT_EQ(rejected, nullptr);
}

TEST(CApiExplainTest, ExplanationCarriesMemberAndTree) {
  ServiceHandle handle;
  ASSERT_EQ(handle.status, WHYPROV_OK) << handle.error;
  whyprov_ticket* ticket = nullptr;
  ASSERT_EQ(whyprov_submit_explain(handle.service, kTarget,
                                   /*member_index=*/0, 0, &ticket),
            WHYPROV_OK);
  EXPECT_EQ(whyprov_ticket_status(ticket), WHYPROV_OK);
  const char* const* facts = nullptr;
  std::size_t num_facts = 0;
  const char* tree = nullptr;
  ASSERT_EQ(whyprov_ticket_explanation(ticket, &facts, &num_facts, &tree),
            1);
  EXPECT_EQ(num_facts, 2u);  // one route: two edges
  ASSERT_NE(tree, nullptr);
  EXPECT_NE(std::string(tree).find("path(a, b)"), std::string::npos);
  whyprov_ticket_destroy(ticket);
}

TEST(CApiDeltaTest, DeltaAdvancesTheVersionAndReportsStats) {
  ServiceHandle handle;
  ASSERT_EQ(handle.status, WHYPROV_OK) << handle.error;

  const char* removed[] = {"edge(a, m1)"};
  whyprov_ticket* delta = nullptr;
  ASSERT_EQ(whyprov_submit_delta(handle.service, nullptr, 0, removed, 1, 0,
                                 &delta),
            WHYPROV_OK);
  EXPECT_EQ(whyprov_ticket_status(delta), WHYPROV_OK);
  whyprov_delta_stats stats;
  ASSERT_EQ(whyprov_ticket_delta_stats(delta, &stats), 1);
  EXPECT_EQ(stats.model_version, 1u);
  EXPECT_EQ(stats.facts_removed, 1u);
  EXPECT_EQ(whyprov_ticket_model_version(delta), 1u);
  whyprov_ticket_destroy(delta);

  // The family shrank by the removed route, and reads see version 1.
  whyprov_ticket* after = nullptr;
  ASSERT_EQ(whyprov_submit_enumerate(handle.service, kTarget, 0, 0, 0,
                                     &after),
            WHYPROV_OK);
  EXPECT_EQ(whyprov_ticket_status(after), WHYPROV_OK);
  EXPECT_EQ(whyprov_ticket_num_members(after), kDiamondMembers - 1);
  EXPECT_EQ(whyprov_ticket_model_version(after), 1u);
  whyprov_ticket_destroy(after);

  whyprov_stats service_stats;
  whyprov_service_stats(handle.service, &service_stats);
  EXPECT_EQ(service_stats.model_version, 1u);
}

// --- the num_shards compatibility field ---------------------------------

TEST(CApiNumShardsTest, ZeroAndOneServeAndTwoIsInvalid) {
  for (const std::size_t num_shards : {0u, 1u}) {
    whyprov_options options;
    whyprov_options_init(&options);
    options.num_shards = num_shards;
    ServiceHandle handle(&options);
    ASSERT_EQ(handle.status, WHYPROV_OK) << handle.error;

    whyprov_ticket* ticket = nullptr;
    ASSERT_EQ(whyprov_submit_enumerate(handle.service, kTarget, 0, 0, 0,
                                       &ticket),
              WHYPROV_OK);
    EXPECT_EQ(whyprov_ticket_status(ticket), WHYPROV_OK);
    EXPECT_EQ(whyprov_ticket_num_members(ticket), kDiamondMembers);
    whyprov_ticket_destroy(ticket);

    whyprov_stats stats;
    whyprov_service_stats(handle.service, &stats);
    EXPECT_EQ(stats.num_shards, 1u);
    EXPECT_EQ(stats.version_skew, 0u);
  }

  whyprov_options options;
  whyprov_options_init(&options);
  options.num_shards = 2;
  ServiceHandle handle(&options);
  EXPECT_EQ(handle.status, WHYPROV_INVALID_ARGUMENT);
  EXPECT_EQ(handle.service, nullptr);
  EXPECT_NE(std::strstr(handle.error, "num_shards"), nullptr) << handle.error;
}

// --- enum-valued inputs are validated, not silently defaulted -------------

TEST(CApiEnumInputTest, PlanSimplifyOutsideTheEnumFailsCreate) {
  for (const int plan_simplify :
       {WHYPROV_SIMPLIFY_DEFAULT, WHYPROV_SIMPLIFY_OFF, WHYPROV_SIMPLIFY_FAST,
        WHYPROV_SIMPLIFY_FULL}) {
    whyprov_options options;
    whyprov_options_init(&options);
    options.plan_simplify = plan_simplify;
    ServiceHandle handle(&options);
    ASSERT_EQ(handle.status, WHYPROV_OK) << handle.error;
    whyprov_ticket* ticket = nullptr;
    ASSERT_EQ(whyprov_submit_enumerate(handle.service, kTarget, 0, 0, 0,
                                       &ticket),
              WHYPROV_OK);
    EXPECT_EQ(whyprov_ticket_num_members(ticket), kDiamondMembers);
    whyprov_ticket_destroy(ticket);
  }
  for (const int plan_simplify : {-1, 4, 42}) {
    whyprov_options options;
    whyprov_options_init(&options);
    options.plan_simplify = plan_simplify;
    ServiceHandle handle(&options);
    EXPECT_EQ(handle.status, WHYPROV_INVALID_ARGUMENT) << plan_simplify;
    EXPECT_EQ(handle.service, nullptr);
    EXPECT_NE(std::strstr(handle.error, "plan_simplify"), nullptr)
        << handle.error;
  }
}

TEST(CApiEnumInputTest, TreeClassOutsideTheEnumFailsSubmit) {
  ServiceHandle handle;
  ASSERT_EQ(handle.status, WHYPROV_OK) << handle.error;
  const char* member[] = {"edge(a, m1)", "edge(m1, b)"};
  // Every proof-tree class has the one-route member.
  for (const whyprov_tree_class tree_class :
       {WHYPROV_TREE_ANY, WHYPROV_TREE_NON_RECURSIVE,
        WHYPROV_TREE_MINIMAL_DEPTH, WHYPROV_TREE_UNAMBIGUOUS}) {
    whyprov_ticket* ticket = nullptr;
    ASSERT_EQ(whyprov_submit_decide(handle.service, kTarget, member, 2,
                                    tree_class, 0, &ticket),
              WHYPROV_OK);
    EXPECT_EQ(whyprov_ticket_status(ticket), WHYPROV_OK);
    EXPECT_EQ(whyprov_ticket_decision(ticket), 1) << tree_class;
    whyprov_ticket_destroy(ticket);
  }
  for (const int tree_class : {-1, 4, 7}) {
    whyprov_ticket* ticket = nullptr;
    EXPECT_EQ(whyprov_submit_decide(
                  handle.service, kTarget, member, 2,
                  static_cast<whyprov_tree_class>(tree_class), 0, &ticket),
              WHYPROV_INVALID_ARGUMENT)
        << tree_class;
    EXPECT_EQ(ticket, nullptr);
    EXPECT_EQ(whyprov_submit_decide_qos(
                  handle.service, kTarget, member, 2,
                  static_cast<whyprov_tree_class>(tree_class), 0,
                  WHYPROV_QOS_BATCH, "tenant", &ticket),
              WHYPROV_INVALID_ARGUMENT)
        << tree_class;
    EXPECT_EQ(ticket, nullptr);
  }
  // Nothing was admitted for the rejected submits.
  whyprov_stats stats;
  whyprov_service_stats(handle.service, &stats);
  EXPECT_EQ(stats.submitted, 4u);
}

// --- layout-only options: fair queueing has one switch, nothing to tune --

/// Expects create to refuse `options` with INVALID_ARGUMENT naming `field`.
void ExpectCreateRefuses(const whyprov_options& options, const char* field) {
  ServiceHandle handle(&options);
  EXPECT_EQ(handle.status, WHYPROV_INVALID_ARGUMENT) << field;
  EXPECT_EQ(handle.service, nullptr) << field;
  EXPECT_NE(std::strstr(handle.error, field), nullptr) << handle.error;
}

TEST(CApiQosFieldsTest, NonzeroInertTuningFieldFailsCreate) {
  whyprov_options options;
  for (const int qos_disable : {0, 1}) {
    whyprov_options_init(&options);
    options.qos_disable = qos_disable;
    ServiceHandle handle(&options);
    ASSERT_EQ(handle.status, WHYPROV_OK) << handle.error;
  }
  // Each field is kept for layout only: a caller setting it would get a
  // different policy than it asked for, so create refuses and names it.
  whyprov_options_init(&options);
  options.qos_quantum = 16;
  ExpectCreateRefuses(options, "qos_quantum");
  whyprov_options_init(&options);
  options.qos_batch_escape = 8;
  ExpectCreateRefuses(options, "qos_batch_escape");
  whyprov_options_init(&options);
  options.qos_tenant_cost_budget = 64;
  ExpectCreateRefuses(options, "qos_tenant_cost_budget");
  whyprov_options_init(&options);
  options.qos_refill_per_second = 32;
  ExpectCreateRefuses(options, "qos_refill_per_second");
  whyprov_options_init(&options);
  options.qos_burst = 0.5;
  ExpectCreateRefuses(options, "qos_burst");
  whyprov_options_init(&options);
  options.default_deadline_seconds = 1.0;
  ExpectCreateRefuses(options, "default_deadline_seconds");
  whyprov_options_init(&options);
  options.max_snapshot_lag = 1;
  ExpectCreateRefuses(options, "max_snapshot_lag");
  whyprov_options_init(&options);
  options.snapshot_alarm_bytes = 1;
  ExpectCreateRefuses(options, "snapshot_alarm_bytes");
  whyprov_options_init(&options);
  options.wal_group_commit = 1;
  ExpectCreateRefuses(options, "wal_group_commit");
}

TEST(CApiStatsTest, CountersTrackTheServedRequests) {
  ServiceHandle handle;
  ASSERT_EQ(handle.status, WHYPROV_OK) << handle.error;
  for (int i = 0; i < 3; ++i) {
    whyprov_ticket* ticket = nullptr;
    ASSERT_EQ(whyprov_submit_enumerate(handle.service, kTarget, 1, 0, 0,
                                       &ticket),
              WHYPROV_OK);
    whyprov_ticket_wait(ticket);
    whyprov_ticket_destroy(ticket);
  }
  whyprov_stats stats;
  whyprov_service_stats(handle.service, &stats);
  EXPECT_GE(stats.submitted, 3u);
  EXPECT_GE(stats.succeeded, 3u);
  EXPECT_GE(stats.members_delivered, 3u);
}

TEST(CApiStatsTest, TenantStatsSizeQueryReturnsTheRowCount) {
  ServiceHandle handle;
  ASSERT_EQ(handle.status, WHYPROV_OK) << handle.error;
  EXPECT_EQ(whyprov_service_tenant_stats(handle.service, nullptr, 0), 0u);
  for (const int qos_class : {WHYPROV_QOS_INTERACTIVE, WHYPROV_QOS_BATCH}) {
    whyprov_ticket* ticket = nullptr;
    ASSERT_EQ(whyprov_submit_enumerate_qos(handle.service, kTarget, 1, 0, 0,
                                           qos_class, "t", &ticket),
              WHYPROV_OK);
    whyprov_ticket_wait(ticket);
    whyprov_ticket_destroy(ticket);
  }

  // One row per (tenant, lane) used; capacity 0 sizes the buffer, and so
  // does a NULL buffer whatever capacity comes with it.
  const std::size_t rows =
      whyprov_service_tenant_stats(handle.service, nullptr, 0);
  ASSERT_EQ(rows, 2u);
  EXPECT_EQ(whyprov_service_tenant_stats(handle.service, nullptr, 8), rows);
  std::vector<whyprov_tenant_stats> buffer(rows);
  ASSERT_EQ(whyprov_service_tenant_stats(handle.service, buffer.data(), rows),
            rows);
  for (std::size_t i = 0; i < rows; ++i) {
    EXPECT_STREQ(buffer[i].tenant, "t");
    EXPECT_EQ(buffer[i].qos_class, static_cast<int>(i));  // sorted by lane
    EXPECT_EQ(buffer[i].served, 1u);
    EXPECT_EQ(buffer[i].queued, 0u);
    EXPECT_EQ(buffer[i].cost_served, 0.0);
  }
}

}  // namespace
