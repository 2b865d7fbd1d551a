#include "net/whyprov_c.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "datalog/ast.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "provenance/proof_tree.h"
#include "qos/qos.h"
#include "qos/tenant_registry.h"
#include "service/service.h"
#include "util/mutex.h"
#include "util/status.h"

namespace {

namespace wp = whyprov;

// The enum mirrors are load-bearing: the wire protocol ships these raw.
static_assert(WHYPROV_OK == static_cast<int>(wp::util::StatusCode::kOk));
static_assert(WHYPROV_UNKNOWN ==
              static_cast<int>(wp::util::StatusCode::kUnknown));
static_assert(WHYPROV_INVALID_ARGUMENT ==
              static_cast<int>(wp::util::StatusCode::kInvalidArgument));
static_assert(WHYPROV_NOT_FOUND ==
              static_cast<int>(wp::util::StatusCode::kNotFound));
static_assert(WHYPROV_PARSE_ERROR ==
              static_cast<int>(wp::util::StatusCode::kParseError));
static_assert(WHYPROV_RESOURCE_EXHAUSTED ==
              static_cast<int>(wp::util::StatusCode::kResourceExhausted));
static_assert(WHYPROV_CANCELLED ==
              static_cast<int>(wp::util::StatusCode::kCancelled));
static_assert(WHYPROV_DEADLINE_EXCEEDED ==
              static_cast<int>(wp::util::StatusCode::kDeadlineExceeded));
static_assert(WHYPROV_TREE_ANY ==
              static_cast<int>(wp::provenance::TreeClass::kAny));
static_assert(WHYPROV_TREE_NON_RECURSIVE ==
              static_cast<int>(wp::provenance::TreeClass::kNonRecursive));
static_assert(WHYPROV_TREE_MINIMAL_DEPTH ==
              static_cast<int>(wp::provenance::TreeClass::kMinimalDepth));
static_assert(WHYPROV_TREE_UNAMBIGUOUS ==
              static_cast<int>(wp::provenance::TreeClass::kUnambiguous));
static_assert(WHYPROV_QOS_INTERACTIVE ==
              static_cast<int>(wp::qos::QosClass::kInteractive));
static_assert(WHYPROV_QOS_BATCH ==
              static_cast<int>(wp::qos::QosClass::kBatch));
// Every tenant name the service admits fits the row buffer untruncated.
static_assert(sizeof(whyprov_tenant_stats::tenant) ==
              wp::qos::kMaxTenantBytes + 1);

whyprov_status ToC(const wp::util::Status& status) {
  return static_cast<whyprov_status>(status.code());
}

void CopyError(const wp::util::Status& status, char* buffer,
               std::size_t size) {
  if (buffer == nullptr || size == 0) return;
  const std::string& message = status.message();
  const std::size_t n = std::min(size - 1, message.size());
  std::memcpy(buffer, message.data(), n);
  buffer[n] = '\0';
}

}  // namespace

// The handle behind whyprov_service: the serving front end plus the
// piece the ABI needs that the C++ API keeps implicit — the engine's
// parse mutex, guarding the symbol table the ABI reads and writes
// itself (candidate-fact parsing, proof-tree rendering).
struct whyprov_service {
  std::unique_ptr<wp::Service> service;
  std::shared_ptr<wp::util::Mutex> parse_mutex;

  const wp::Engine& engine() const { return service->engine(); }

  wp::util::Result<wp::Ticket> Submit(
      wp::Request request, std::shared_ptr<wp::MemberStream> stream = nullptr) {
    return service->Submit(std::move(request), std::move(stream));
  }

  wp::ServiceStats stats() const { return service->stats(); }
};

// The handle behind whyprov_ticket. `facts`/`fact_ptrs` (and the
// explain/message strings) are the single-consumer scratch buffer the
// header's lifetime rule describes: each accessor call re-fills them.
struct whyprov_ticket {
  wp::Ticket ticket;
  std::shared_ptr<wp::MemberStream> stream;  // null = materialised
  const whyprov_service* owner = nullptr;
  std::size_t member_cursor = 0;  // next_member over materialised members
  std::vector<std::string> facts;
  std::vector<const char*> fact_ptrs;
  std::string text;  // status message / proof-tree rendering

  // Renders one member into the scratch buffer; returns the pointers.
  void Render(const std::vector<wp::datalog::Fact>& member,
              const char* const** out_facts, std::size_t* out_num_facts) {
    facts.clear();
    fact_ptrs.clear();
    facts.reserve(member.size());
    for (const auto& fact : member) {
      facts.push_back(owner->engine().FactToText(fact));
    }
    fact_ptrs.reserve(facts.size());
    for (const auto& fact : facts) fact_ptrs.push_back(fact.c_str());
    *out_facts = fact_ptrs.data();
    *out_num_facts = fact_ptrs.size();
  }
};

extern "C" {

const char* whyprov_status_name(whyprov_status status) {
  switch (status) {
    case WHYPROV_OK:
      return "OK";
    case WHYPROV_UNKNOWN:
      return "UNKNOWN";
    case WHYPROV_INVALID_ARGUMENT:
      return "INVALID_ARGUMENT";
    case WHYPROV_NOT_FOUND:
      return "NOT_FOUND";
    case WHYPROV_PARSE_ERROR:
      return "PARSE_ERROR";
    case WHYPROV_RESOURCE_EXHAUSTED:
      return "RESOURCE_EXHAUSTED";
    case WHYPROV_CANCELLED:
      return "CANCELLED";
    case WHYPROV_DEADLINE_EXCEEDED:
      return "DEADLINE_EXCEEDED";
  }
  return "INVALID_STATUS";
}

void whyprov_options_init(whyprov_options* options) {
  if (options == nullptr) return;
  std::memset(options, 0, sizeof(*options));
}

whyprov_status whyprov_service_create(const char* program_text,
                                      const char* database_text,
                                      const char* answer_predicate,
                                      const whyprov_options* options,
                                      whyprov_service** out_service,
                                      char* error_message,
                                      size_t error_message_size) {
  if (out_service == nullptr) return WHYPROV_INVALID_ARGUMENT;
  *out_service = nullptr;
  if (program_text == nullptr || database_text == nullptr ||
      answer_predicate == nullptr) {
    const auto status = wp::util::Status::InvalidArgument(
        "program_text, database_text, and answer_predicate must be non-NULL");
    CopyError(status, error_message, error_message_size);
    return ToC(status);
  }
  whyprov_options defaults;
  whyprov_options_init(&defaults);
  if (options == nullptr) options = &defaults;
  if (options->num_shards >= 2) {
    const auto status = wp::util::Status::InvalidArgument(
        "num_shards = " + std::to_string(options->num_shards) +
        " is not supported: a service runs one engine (set 0 or 1)");
    CopyError(status, error_message, error_message_size);
    return ToC(status);
  }
  // These fields are kept for layout compatibility only: the scheduler
  // has no quantum, budget or rate limit, its batch escape is a
  // constant, deadlines are per request, the snapshot GC has no policy
  // and every fsync'd WAL append syncs itself. A caller setting one
  // would silently get a different behaviour than it asked for, so a
  // nonzero value fails instead.
  const std::pair<const char*, bool> inert_fields[] = {
      {"qos_quantum", options->qos_quantum != 0},
      {"qos_batch_escape", options->qos_batch_escape != 0},
      {"qos_tenant_cost_budget", options->qos_tenant_cost_budget != 0},
      {"qos_refill_per_second", options->qos_refill_per_second != 0},
      {"qos_burst", options->qos_burst != 0},
      {"default_deadline_seconds", options->default_deadline_seconds != 0},
      {"max_snapshot_lag", options->max_snapshot_lag != 0},
      {"snapshot_alarm_bytes", options->snapshot_alarm_bytes != 0},
      {"wal_group_commit", options->wal_group_commit != 0},
  };
  for (const auto& [field, set] : inert_fields) {
    if (!set) continue;
    const auto status = wp::util::Status::InvalidArgument(
        std::string(field) + " is not supported (leave it 0)");
    CopyError(status, error_message, error_message_size);
    return ToC(status);
  }
  if (options->plan_simplify < WHYPROV_SIMPLIFY_DEFAULT ||
      options->plan_simplify > WHYPROV_SIMPLIFY_FULL) {
    const auto status = wp::util::Status::InvalidArgument(
        "plan_simplify = " + std::to_string(options->plan_simplify) +
        " is not a WHYPROV_SIMPLIFY_* value");
    CopyError(status, error_message, error_message_size);
    return ToC(status);
  }

  wp::EngineOptions engine_options;
  if (options->plan_cache_capacity > 0) {
    engine_options.plan_cache_capacity = options->plan_cache_capacity;
  }
  if (options->solver_backend != nullptr && options->solver_backend[0]) {
    engine_options.solver_backend = options->solver_backend;
  }
  if (options->data_dir != nullptr && options->data_dir[0]) {
    engine_options.data_dir = options->data_dir;
    engine_options.wal_fsync = options->wal_fsync != 0;
    if (options->checkpoint_interval > 0) {
      engine_options.checkpoint_interval = options->checkpoint_interval;
    }
  }
  switch (options->plan_simplify) {
    case WHYPROV_SIMPLIFY_OFF:
      engine_options.plan_simplify = wp::sat::SimplifyMode::kOff;
      break;
    case WHYPROV_SIMPLIFY_FAST:
      engine_options.plan_simplify = wp::sat::SimplifyMode::kFast;
      break;
    case WHYPROV_SIMPLIFY_FULL:
      engine_options.plan_simplify = wp::sat::SimplifyMode::kFull;
      break;
    default:  /* WHYPROV_SIMPLIFY_DEFAULT keeps the engine default */
      break;
  }
  wp::ServiceOptions service_options;
  service_options.num_threads = options->num_threads;
  if (options->queue_capacity > 0) {
    service_options.queue_capacity = options->queue_capacity;
  }
  // Zero-initialised options mean "fair queueing on" (invariant:
  // default-class traffic then behaves exactly like the pre-QoS FIFO).
  service_options.fair_queueing = options->qos_disable == 0;

  auto engine = wp::Engine::FromText(program_text, database_text,
                                     answer_predicate, engine_options);
  if (!engine.ok()) {
    CopyError(engine.status(), error_message, error_message_size);
    return ToC(engine.status());
  }
  auto handle = std::make_unique<whyprov_service>();
  handle->service = std::make_unique<wp::Service>(std::move(engine).value(),
                                                  service_options);
  // The ABI parses candidate facts itself, under the engine's own
  // symbol-table lock. Every model version shares that one lock, so
  // reading it once here stays right across deltas and recovery.
  handle->parse_mutex = handle->service->engine().PinSnapshot()->parse_mutex;
  // A requested-but-failed durability tier fails creation: callers that
  // set data_dir asked for persistence, and serving memory-only behind
  // their back would silently lose every delta.
  const wp::util::Status durability = handle->service->durability_status();
  if (!durability.ok()) {
    CopyError(durability, error_message, error_message_size);
    return ToC(durability);
  }
  *out_service = handle.release();
  return WHYPROV_OK;
}

void whyprov_service_destroy(whyprov_service* service) { delete service; }

void whyprov_service_stats(const whyprov_service* service,
                           whyprov_stats* out_stats) {
  if (service == nullptr || out_stats == nullptr) return;
  const wp::ServiceStats stats = service->stats();
  std::memset(out_stats, 0, sizeof(*out_stats));
  out_stats->submitted = stats.submitted;
  out_stats->rejected = stats.rejected;
  out_stats->completed = stats.completed;
  out_stats->succeeded = stats.succeeded;
  out_stats->cancelled = stats.cancelled;
  out_stats->deadline_exceeded = stats.deadline_exceeded;
  out_stats->failed = stats.failed;
  out_stats->members_delivered = stats.members_delivered;
  out_stats->queue_depth = stats.queue_depth;
  out_stats->in_flight = stats.in_flight;
  out_stats->queries_per_second = stats.queries_per_second;
  out_stats->model_version = stats.model_version;
  out_stats->retained_snapshots = stats.retained_snapshots;
  out_stats->retained_snapshot_bytes = stats.retained_snapshot_bytes;
  out_stats->version_skew = 0;
  out_stats->num_shards = 1;
  out_stats->wal_appends = stats.wal_appends;
  out_stats->wal_bytes = stats.wal_bytes;
  out_stats->checkpoints_written = stats.checkpoints_written;
  out_stats->recovery_replayed_deltas = stats.recovery_replayed_deltas;
  out_stats->plans_simplified = stats.plans_simplified;
  out_stats->simplify_vars_removed = stats.simplify_vars_removed;
  out_stats->simplify_clauses_removed = stats.simplify_clauses_removed;
  out_stats->simplify_micros = stats.simplify_micros;
}

size_t whyprov_service_tenant_stats(const whyprov_service* service,
                                    whyprov_tenant_stats* out_rows,
                                    size_t capacity) {
  if (service == nullptr) return 0;
  if (out_rows == nullptr) capacity = 0;
  const wp::ServiceStats stats = service->stats();
  const std::size_t copied = std::min(capacity, stats.tenants.size());
  for (std::size_t i = 0; i < copied; ++i) {
    const wp::qos::TenantStats& row = stats.tenants[i];
    whyprov_tenant_stats& out = out_rows[i];
    std::memset(&out, 0, sizeof(out));
    const std::size_t n =
        std::min(row.tenant.size(), sizeof(out.tenant) - 1);
    std::memcpy(out.tenant, row.tenant.data(), n);
    out.tenant[n] = '\0';
    out.qos_class = static_cast<int>(row.lane);
    out.queued = row.queued;
    out.served = row.served;
    out.rejected = row.rejected;
    out.cancelled = row.cancelled;
    out.queue_p50_seconds = row.queue_p50_seconds;
    out.queue_p99_seconds = row.queue_p99_seconds;
  }
  return stats.tenants.size();
}

namespace {

// Validates and stamps a submit's QoS identity onto the request.
bool StampQos(int qos_class, const char* tenant, wp::Request& request) {
  if (qos_class != WHYPROV_QOS_INTERACTIVE &&
      qos_class != WHYPROV_QOS_BATCH) {
    return false;
  }
  request.qos_class = static_cast<wp::qos::QosClass>(qos_class);
  if (tenant != nullptr) request.tenant = tenant;
  return true;
}

// Shared tail of every submit: runs Submit, wraps the ticket handle.
whyprov_status FinishSubmit(whyprov_service* service, wp::Request request,
                            std::shared_ptr<wp::MemberStream> stream,
                            whyprov_ticket** out_ticket) {
  auto submitted = service->Submit(std::move(request), stream);
  if (!submitted.ok()) return ToC(submitted.status());
  auto* ticket = new whyprov_ticket;
  ticket->ticket = std::move(submitted).value();
  ticket->stream = std::move(stream);
  ticket->owner = service;
  *out_ticket = ticket;
  return WHYPROV_OK;
}

}  // namespace

whyprov_status whyprov_submit_enumerate_qos(
    whyprov_service* service, const char* target, uint64_t max_members,
    double deadline_seconds, size_t stream_capacity, int qos_class,
    const char* tenant, whyprov_ticket** out_ticket) {
  if (service == nullptr || target == nullptr || out_ticket == nullptr) {
    return WHYPROV_INVALID_ARGUMENT;
  }
  *out_ticket = nullptr;
  wp::EnumerateRequest op;
  op.target_text = target;
  op.max_members = max_members == 0
                       ? wp::kNoLimit
                       : static_cast<std::size_t>(max_members);
  std::shared_ptr<wp::MemberStream> stream;
  if (stream_capacity > 0) {
    stream = std::make_shared<wp::MemberStream>(stream_capacity);
  }
  wp::Request request;
  if (!StampQos(qos_class, tenant, request)) return WHYPROV_INVALID_ARGUMENT;
  request.op = std::move(op);
  request.deadline_seconds = deadline_seconds;
  return FinishSubmit(service, std::move(request), std::move(stream),
                      out_ticket);
}

whyprov_status whyprov_submit_enumerate(whyprov_service* service,
                                        const char* target,
                                        uint64_t max_members,
                                        double deadline_seconds,
                                        size_t stream_capacity,
                                        whyprov_ticket** out_ticket) {
  return whyprov_submit_enumerate_qos(service, target, max_members,
                                      deadline_seconds, stream_capacity,
                                      WHYPROV_QOS_INTERACTIVE, nullptr,
                                      out_ticket);
}

whyprov_status whyprov_submit_decide_qos(
    whyprov_service* service, const char* target,
    const char* const* candidate_facts, size_t num_candidate_facts,
    whyprov_tree_class tree_class, double deadline_seconds, int qos_class,
    const char* tenant, whyprov_ticket** out_ticket) {
  if (service == nullptr || target == nullptr || out_ticket == nullptr ||
      (num_candidate_facts > 0 && candidate_facts == nullptr) ||
      static_cast<unsigned>(tree_class) > WHYPROV_TREE_UNAMBIGUOUS) {
    return WHYPROV_INVALID_ARGUMENT;
  }
  *out_ticket = nullptr;
  wp::DecideRequest op;
  op.target_text = target;
  op.tree_class = static_cast<wp::provenance::TreeClass>(tree_class);
  op.candidate.reserve(num_candidate_facts);
  {
    // DecideRequest carries parsed facts, so the ABI parses here — under
    // the engine's own symbol-table lock.
    const wp::util::MutexLock lock(*service->parse_mutex);
    const auto& symbols = service->engine().program().symbols_ptr();
    for (std::size_t i = 0; i < num_candidate_facts; ++i) {
      if (candidate_facts[i] == nullptr) return WHYPROV_INVALID_ARGUMENT;
      auto fact = wp::datalog::Parser::ParseFact(symbols, candidate_facts[i]);
      if (!fact.ok()) return ToC(fact.status());
      op.candidate.push_back(std::move(fact).value());
    }
  }
  wp::Request request;
  if (!StampQos(qos_class, tenant, request)) return WHYPROV_INVALID_ARGUMENT;
  request.op = std::move(op);
  request.deadline_seconds = deadline_seconds;
  return FinishSubmit(service, std::move(request), nullptr, out_ticket);
}

whyprov_status whyprov_submit_decide(whyprov_service* service,
                                     const char* target,
                                     const char* const* candidate_facts,
                                     size_t num_candidate_facts,
                                     whyprov_tree_class tree_class,
                                     double deadline_seconds,
                                     whyprov_ticket** out_ticket) {
  return whyprov_submit_decide_qos(service, target, candidate_facts,
                                   num_candidate_facts, tree_class,
                                   deadline_seconds,
                                   WHYPROV_QOS_INTERACTIVE, nullptr,
                                   out_ticket);
}

whyprov_status whyprov_submit_explain_qos(whyprov_service* service,
                                          const char* target,
                                          uint64_t member_index,
                                          double deadline_seconds,
                                          int qos_class, const char* tenant,
                                          whyprov_ticket** out_ticket) {
  if (service == nullptr || target == nullptr || out_ticket == nullptr) {
    return WHYPROV_INVALID_ARGUMENT;
  }
  *out_ticket = nullptr;
  wp::ExplainRequest op;
  op.target_text = target;
  op.member_index = static_cast<std::size_t>(member_index);
  wp::Request request;
  if (!StampQos(qos_class, tenant, request)) return WHYPROV_INVALID_ARGUMENT;
  request.op = std::move(op);
  request.deadline_seconds = deadline_seconds;
  return FinishSubmit(service, std::move(request), nullptr, out_ticket);
}

whyprov_status whyprov_submit_explain(whyprov_service* service,
                                      const char* target,
                                      uint64_t member_index,
                                      double deadline_seconds,
                                      whyprov_ticket** out_ticket) {
  return whyprov_submit_explain_qos(service, target, member_index,
                                    deadline_seconds,
                                    WHYPROV_QOS_INTERACTIVE, nullptr,
                                    out_ticket);
}

whyprov_status whyprov_submit_delta_qos(
    whyprov_service* service, const char* const* added_facts,
    size_t num_added, const char* const* removed_facts, size_t num_removed,
    double deadline_seconds, int qos_class, const char* tenant,
    whyprov_ticket** out_ticket) {
  if (service == nullptr || out_ticket == nullptr ||
      (num_added > 0 && added_facts == nullptr) ||
      (num_removed > 0 && removed_facts == nullptr)) {
    return WHYPROV_INVALID_ARGUMENT;
  }
  *out_ticket = nullptr;
  wp::DeltaRequest op;
  op.added_fact_texts.reserve(num_added);
  for (std::size_t i = 0; i < num_added; ++i) {
    if (added_facts[i] == nullptr) return WHYPROV_INVALID_ARGUMENT;
    op.added_fact_texts.emplace_back(added_facts[i]);
  }
  op.removed_fact_texts.reserve(num_removed);
  for (std::size_t i = 0; i < num_removed; ++i) {
    if (removed_facts[i] == nullptr) return WHYPROV_INVALID_ARGUMENT;
    op.removed_fact_texts.emplace_back(removed_facts[i]);
  }
  wp::Request request;
  if (!StampQos(qos_class, tenant, request)) return WHYPROV_INVALID_ARGUMENT;
  request.op = std::move(op);
  request.deadline_seconds = deadline_seconds;
  return FinishSubmit(service, std::move(request), nullptr, out_ticket);
}

whyprov_status whyprov_submit_delta(whyprov_service* service,
                                    const char* const* added_facts,
                                    size_t num_added,
                                    const char* const* removed_facts,
                                    size_t num_removed,
                                    double deadline_seconds,
                                    whyprov_ticket** out_ticket) {
  return whyprov_submit_delta_qos(service, added_facts, num_added,
                                  removed_facts, num_removed,
                                  deadline_seconds,
                                  WHYPROV_QOS_INTERACTIVE, nullptr,
                                  out_ticket);
}

int whyprov_ticket_done(const whyprov_ticket* ticket) {
  return ticket != nullptr && ticket->ticket.done() ? 1 : 0;
}

void whyprov_ticket_wait(const whyprov_ticket* ticket) {
  if (ticket != nullptr) ticket->ticket.Wait();
}

int whyprov_ticket_wait_for(const whyprov_ticket* ticket, double seconds) {
  return ticket != nullptr && ticket->ticket.WaitFor(seconds) ? 1 : 0;
}

void whyprov_ticket_cancel(whyprov_ticket* ticket) {
  if (ticket != nullptr) ticket->ticket.Cancel();
}

void whyprov_ticket_destroy(whyprov_ticket* ticket) {
  if (ticket == nullptr) return;
  // Close the stream first so a producer blocked on the bounded buffer
  // unblocks (its next OnMember returns false) instead of producing into
  // a buffer nobody will drain.
  if (ticket->stream) ticket->stream->Close();
  delete ticket;
}

whyprov_status whyprov_ticket_status(const whyprov_ticket* ticket) {
  if (ticket == nullptr) return WHYPROV_INVALID_ARGUMENT;
  return ToC(ticket->ticket.Wait().status);
}

const char* whyprov_ticket_status_message(whyprov_ticket* ticket) {
  if (ticket == nullptr) return "";
  ticket->text = ticket->ticket.Wait().status.message();
  return ticket->text.c_str();
}

int whyprov_ticket_next_member(whyprov_ticket* ticket,
                               const char* const** out_facts,
                               size_t* out_num_facts) {
  if (ticket == nullptr || out_facts == nullptr || out_num_facts == nullptr) {
    return 0;
  }
  *out_facts = nullptr;
  *out_num_facts = 0;
  if (ticket->stream) {
    auto member = ticket->stream->Pop();  // blocks: the backpressure point
    if (!member.has_value()) return 0;
    ticket->Render(*member, out_facts, out_num_facts);
    return 1;
  }
  const wp::Response& response = ticket->ticket.Wait();
  if (ticket->member_cursor >= response.members.size()) return 0;
  ticket->Render(response.members[ticket->member_cursor++], out_facts,
                 out_num_facts);
  return 1;
}

size_t whyprov_ticket_num_members(const whyprov_ticket* ticket) {
  if (ticket == nullptr) return 0;
  return ticket->ticket.Wait().members.size();
}

int whyprov_ticket_member(whyprov_ticket* ticket, size_t index,
                          const char* const** out_facts,
                          size_t* out_num_facts) {
  if (ticket == nullptr || out_facts == nullptr || out_num_facts == nullptr) {
    return 0;
  }
  *out_facts = nullptr;
  *out_num_facts = 0;
  const wp::Response& response = ticket->ticket.Wait();
  if (index >= response.members.size()) return 0;
  ticket->Render(response.members[index], out_facts, out_num_facts);
  return 1;
}

uint64_t whyprov_ticket_members_emitted(const whyprov_ticket* ticket) {
  if (ticket == nullptr) return 0;
  return ticket->ticket.Wait().members_emitted;
}

uint32_t whyprov_ticket_enumerate_flags(const whyprov_ticket* ticket) {
  if (ticket == nullptr) return 0;
  const wp::Response& response = ticket->ticket.Wait();
  uint32_t flags = 0;
  if (response.exhausted) flags |= WHYPROV_ENUM_EXHAUSTED;
  if (response.incomplete) flags |= WHYPROV_ENUM_INCOMPLETE;
  if (response.hit_member_cap) flags |= WHYPROV_ENUM_HIT_MEMBER_CAP;
  return flags;
}

int whyprov_ticket_decision(const whyprov_ticket* ticket) {
  if (ticket == nullptr) return 0;
  return ticket->ticket.Wait().member ? 1 : 0;
}

int whyprov_ticket_explanation(whyprov_ticket* ticket,
                               const char* const** out_member_facts,
                               size_t* out_num_facts,
                               const char** out_tree_text) {
  if (ticket == nullptr || out_member_facts == nullptr ||
      out_num_facts == nullptr || out_tree_text == nullptr) {
    return 0;
  }
  *out_member_facts = nullptr;
  *out_num_facts = 0;
  *out_tree_text = nullptr;
  const wp::Response& response = ticket->ticket.Wait();
  if (!response.explanation.has_value()) return 0;
  ticket->Render(response.explanation->member, out_member_facts,
                 out_num_facts);
  {
    // ProofTree::ToString reads the shared symbol table.
    const wp::util::MutexLock lock(*ticket->owner->parse_mutex);
    ticket->text = response.explanation->tree.ToString(
        ticket->owner->engine().program().symbols());
  }
  *out_tree_text = ticket->text.c_str();
  return 1;
}

int whyprov_ticket_delta_stats(const whyprov_ticket* ticket,
                               whyprov_delta_stats* out_stats) {
  if (ticket == nullptr || out_stats == nullptr) return 0;
  std::memset(out_stats, 0, sizeof(*out_stats));
  const wp::Response& response = ticket->ticket.Wait();
  if (!response.delta.has_value()) return 0;
  const wp::DeltaStats& delta = *response.delta;
  out_stats->model_version = delta.model_version;
  out_stats->facts_added = delta.facts_added;
  out_stats->facts_removed = delta.facts_removed;
  out_stats->facts_derived = delta.facts_derived;
  out_stats->facts_deleted = delta.facts_deleted;
  out_stats->facts_rederived = delta.facts_rederived;
  out_stats->facts_touched = delta.facts_touched;
  out_stats->plans_retained = delta.plans_retained;
  out_stats->plans_invalidated = delta.plans_invalidated;
  return 1;
}

uint64_t whyprov_ticket_model_version(const whyprov_ticket* ticket) {
  if (ticket == nullptr) return 0;
  return ticket->ticket.Wait().model_version;
}

}  // extern "C"
