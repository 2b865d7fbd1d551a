#include "service/service.h"

#include <chrono>
#include <string>
#include <thread>

#include "qos/scheduler.h"
#include "storage/durable_store.h"
#include "util/timer.h"

namespace whyprov {

namespace dl = whyprov::datalog;

/// The shared per-request state behind a `Ticket`: the request itself,
/// the member stream, the cancellation source whose token the execution
/// polls, the queue-wait clock, and the completion slot.
struct Ticket::State {
  std::uint64_t id = 0;
  Request request;
  std::shared_ptr<MemberStream> stream;
  util::CancellationSource cancel;
  util::Timer submit_timer;  ///< starts at admission; measures queue wait

  mutable util::Mutex mutex;
  util::CondVar cv;
  bool done GUARDED_BY(mutex) = false;
  Response response GUARDED_BY(mutex);
};

// --- MemberStream --------------------------------------------------------

bool MemberStream::OnMember(std::vector<dl::Fact> member) {
  const util::MutexLock lock(mutex_);
  // Backpressure: block the producing worker until the consumer pops or
  // abandons the stream. This is what keeps memory bounded by `capacity_`
  // instead of the family size.
  while (!closed_ && buffer_.size() >= capacity_) producer_cv_.Wait(mutex_);
  if (closed_) return false;
  buffer_.push_back(std::move(member));
  consumer_cv_.NotifyOne();
  return true;
}

void MemberStream::OnComplete(const util::Status& status) {
  {
    const util::MutexLock lock(mutex_);
    complete_ = true;
    status_ = status;
  }
  consumer_cv_.NotifyAll();
}

std::optional<std::vector<dl::Fact>> MemberStream::Pop() {
  const util::MutexLock lock(mutex_);
  while (buffer_.empty() && !complete_ && !closed_) consumer_cv_.Wait(mutex_);
  if (!buffer_.empty()) {
    std::vector<dl::Fact> member = std::move(buffer_.front());
    buffer_.pop_front();
    producer_cv_.NotifyOne();
    return member;
  }
  return std::nullopt;
}

void MemberStream::Close() {
  {
    const util::MutexLock lock(mutex_);
    closed_ = true;
    buffer_.clear();  // an abandoned stream keeps no members alive
  }
  producer_cv_.NotifyAll();
  consumer_cv_.NotifyAll();
}

bool MemberStream::finished() const {
  const util::MutexLock lock(mutex_);
  return complete_ || closed_;
}

util::Status MemberStream::final_status() const {
  const util::MutexLock lock(mutex_);
  return status_;
}

// --- Ticket --------------------------------------------------------------

std::uint64_t Ticket::id() const { return shared_ ? shared_->id : 0; }

bool Ticket::done() const {
  if (!shared_) return true;
  const util::MutexLock lock(shared_->mutex);
  return shared_->done;
}

void Ticket::Cancel() {
  if (!shared_) return;
  shared_->cancel.Cancel();
  // A producer blocked on a full stream polls no token; wake it so the
  // enumeration observes the cancel promptly.
  if (shared_->stream) shared_->stream->Close();
}

const Response& Ticket::Wait() const {
  static const Response kEmpty;
  if (!shared_) return kEmpty;
  const util::MutexLock lock(shared_->mutex);
  while (!shared_->done) shared_->cv.Wait(shared_->mutex);
  return shared_->response;
}

Response Ticket::Take() {
  if (!shared_) return Response();
  const util::MutexLock lock(shared_->mutex);
  while (!shared_->done) shared_->cv.Wait(shared_->mutex);
  Response response = std::move(shared_->response);
  // Keep the terminal scalars observable through later Wait() calls; only
  // the heavy payloads move out.
  shared_->response.status = response.status;
  shared_->response.kind = response.kind;
  shared_->response.members_emitted = response.members_emitted;
  shared_->response.model_version = response.model_version;
  return response;
}

bool Ticket::WaitFor(double seconds) const {
  if (!shared_) return true;
  const util::MutexLock lock(shared_->mutex);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (!shared_->done) {
    if (shared_->cv.WaitUntil(shared_->mutex, deadline)) break;
  }
  return shared_->done;
}

// --- Service -------------------------------------------------------------

namespace {

RequestKind KindOf(const Request& request) {
  switch (request.op.index()) {
    case 0:
      return RequestKind::kEnumerate;
    case 1:
      return RequestKind::kDecide;
    case 2:
      return RequestKind::kExplain;
    default:
      return RequestKind::kApplyDelta;
  }
}

/// The worker pool's options: the fair scheduler as the queue
/// discipline, or the plain FIFO when fair queueing is disabled.
util::Executor::Options ExecutorOptionsFor(const ServiceOptions& options) {
  util::Executor::Options exec;
  exec.num_threads = options.num_threads;
  exec.queue_capacity = options.queue_capacity == 0 ? 1
                                                    : options.queue_capacity;
  if (options.fair_queueing) {
    exec.queue = std::make_shared<qos::FairScheduler>();
  }
  return exec;
}

/// Submit with admission refusals ridden out: while the queue is full,
/// waits briefly on the oldest unfinished ticket of `outstanding`
/// (draining the queue is what frees a slot) and retries. Returns the
/// ticket or a non-retryable admission error.
util::Result<Ticket> SubmitBlocking(Service& service, const Request& request,
                                    const std::vector<Ticket>& outstanding) {
  while (true) {
    util::Result<Ticket> ticket = service.Submit(request);
    if (ticket.ok() ||
        ticket.status().code() != util::StatusCode::kResourceExhausted) {
      return ticket;
    }
    bool waited = false;
    for (const Ticket& earlier : outstanding) {
      if (earlier.valid() && !earlier.done()) {
        earlier.WaitFor(0.01);
        waited = true;
        break;
      }
    }
    if (!waited) {
      // The backlog is someone else's traffic; back off and retry.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

/// The aggregate tail both blocking batch flavours share.
void FillBatchStats(const PlanCacheStats& before, const PlanCacheStats& after,
                    double wall_seconds, std::size_t requests,
                    BatchStats& stats) {
  stats.requests = requests;
  stats.wall_seconds = wall_seconds;
  stats.queries_per_second =
      wall_seconds > 0 ? static_cast<double>(requests) / wall_seconds : 0;
  stats.plan_cache_hits = after.hits - before.hits;
  stats.plan_cache_misses = after.misses - before.misses;
}

}  // namespace

Service::Service(Engine engine, ServiceOptions options)
    : engine_(std::move(engine)),
      options_(options),
      executor_(ExecutorOptionsFor(options)) {
  OpenDurability();
}

void Service::OpenDurability() {
  const EngineOptions& engine_options = engine_.options();
  if (engine_options.data_dir.empty()) return;
  storage::DurabilityOptions durability;
  durability.data_dir = engine_options.data_dir;
  durability.wal_fsync = engine_options.wal_fsync;
  durability.checkpoint_interval = engine_options.checkpoint_interval;
  util::Result<std::unique_ptr<storage::DurableStore>> opened =
      storage::DurableStore::Open(durability);
  if (!opened.ok()) {
    durability_status_ = opened.status();
    return;
  }
  store_ = std::move(opened).value();

  // Recovery: restore the checkpoint when one decodes against this
  // stack's parsed program/database, then replay the WAL tail through
  // the normal delta path. A checkpoint that fails to decode is
  // recoverable — the WAL is never compacted, so full-log replay (the
  // folded sequence stays 0) reproduces the same state.
  if (store_->has_checkpoint()) {
    util::Result<storage::RecoveredCheckpoint> recovered =
        store_->RestoreCheckpoint(engine_.PinSnapshot()->model.symbols_ptr());
    if (recovered.ok()) {
      storage::RecoveredCheckpoint checkpoint = std::move(recovered).value();
      engine_.AdoptRecovered(std::move(checkpoint.model),
                             checkpoint.model_version);
    }
  }
  std::uint64_t replayed = 0;
  for (const storage::WalRecord& record : store_->TailRecords()) {
    DeltaRequest delta;
    delta.added_fact_texts = record.added;
    delta.removed_fact_texts = record.removed;
    // A record that fails to apply failed identically when it was first
    // logged (replay is deterministic): log-then-apply admits records
    // whose apply was later refused, and replay must skip them the same
    // way rather than abort recovery.
    (void)engine_.ApplyDelta(delta);
    ++replayed;
  }
  store_->FinishRecovery(replayed);
}

Service::~Service() {
  // Drains every admitted request (their tickets complete) and joins the
  // workers, whose tasks hold a `this` capture.
  executor_.Shutdown();
}

util::Result<Ticket> Service::Submit(Request request,
                                     std::shared_ptr<MemberStream> stream) {
  if (request.tenant.size() > qos::kMaxTenantBytes) {
    return util::Status::InvalidArgument(
        "tenant name of " + std::to_string(request.tenant.size()) +
        " bytes exceeds the limit of " +
        std::to_string(qos::kMaxTenantBytes));
  }
  if (request.tenant == qos::kOverflowTenant) {
    return util::Status::InvalidArgument(
        "tenant name '" + request.tenant + "' is reserved");
  }
  auto state = std::make_shared<Ticket::State>();
  state->request = std::move(request);
  state->stream = std::move(stream);
  // The deadline clock starts at admission: queue wait counts against it,
  // exactly like a client-side deadline would.
  if (state->request.deadline_seconds > 0) {
    state->cancel.SetTimeout(state->request.deadline_seconds);
  }

  const qos::QosClass lane = state->request.qos_class;
  const std::string& tenant = state->request.tenant;

  // Count the submission (and stamp the id) and the tenant's queue entry
  // before the task can run: a worker may finish it before TrySubmit
  // returns, and its Finish must find every counter it decrements
  // already raised. Roll both back on rejection.
  {
    const util::MutexLock lock(stats_mutex_);
    ++stats_.submitted;
    state->id = ++next_id_;
  }
  tenants_.RecordQueued(tenant, lane);
  util::TaskTag tag;
  tag.lane = static_cast<std::uint8_t>(lane);
  tag.tenant = tenant;
  const util::Status admitted =
      executor_.TrySubmit([this, state] { Execute(state); }, tag);
  if (!admitted.ok()) {
    {
      const util::MutexLock lock(stats_mutex_);
      --stats_.submitted;
      ++stats_.rejected;
    }
    tenants_.RecordQueueRefused(tenant, lane);
    return admitted;
  }
  return Ticket(state);
}

util::Result<PreparedQuery> Service::PrepareFor(
    dl::FactId target, const std::string& target_text) const {
  PrepareRequest prepare;
  prepare.target = target;
  prepare.target_text = target_text;
  return engine_.Prepare(prepare);
}

util::Result<std::pair<Ticket, std::shared_ptr<MemberStream>>>
Service::Stream(EnumerateRequest request, std::size_t stream_capacity,
                double deadline_seconds) {
  auto stream = std::make_shared<MemberStream>(stream_capacity);
  Request unified;
  unified.op = std::move(request);
  unified.deadline_seconds = deadline_seconds;
  util::Result<Ticket> ticket = Submit(std::move(unified), stream);
  if (!ticket.ok()) return ticket.status();
  return std::make_pair(std::move(ticket).value(), std::move(stream));
}

void Service::ExecuteEnumerate(const std::shared_ptr<Ticket::State>& state,
                               Response& response) {
  EnumerateRequest request = std::get<EnumerateRequest>(state->request.op);
  request.cancellation = state->cancel.token();
  util::Result<Enumeration> enumeration = engine_.Enumerate(request);
  if (!enumeration.ok()) {
    response.status = enumeration.status();
    return;
  }
  response.model_version = enumeration.value().model_version();
  bool stream_closed = false;
  for (std::optional<std::vector<dl::Fact>> member =
           enumeration.value().Next();
       member.has_value(); member = enumeration.value().Next()) {
    if (state->stream != nullptr) {
      if (!state->stream->OnMember(std::move(*member))) {
        stream_closed = true;
        break;
      }
    } else {
      response.members.push_back(std::move(*member));
    }
    ++response.members_emitted;
  }
  response.exhausted = enumeration.value().exhausted();
  response.incomplete = enumeration.value().incomplete();
  response.hit_member_cap = enumeration.value().hit_member_cap();
  response.status = enumeration.value().interruption_status();
  if (response.status.ok() && stream_closed) {
    // The consumer closed its stream: the client stopped wanting the
    // answer, which is a cancellation in all but the signal path.
    response.status =
        util::Status::Cancelled("the member stream stopped the enumeration");
  }
}

void Service::Execute(const std::shared_ptr<Ticket::State>& state) {
  {
    const util::MutexLock lock(stats_mutex_);
    ++started_;
  }
  Response response;
  response.kind = KindOf(state->request);
  response.queue_seconds = state->submit_timer.ElapsedSeconds();
  const util::CancellationToken token = state->cancel.token();
  util::Timer exec_timer;

  if (token.ShouldStop()) {
    // Cancelled or expired while queued: never touches the engine, so a
    // dead request cannot add load (and releases no snapshot — it never
    // pinned one).
    response.status = token.InterruptionStatus();
    response.model_version = engine_.model_version();
    response.exec_seconds = exec_timer.ElapsedSeconds();
    Finish(state, std::move(response));
    return;
  }

  switch (response.kind) {
    case RequestKind::kEnumerate:
      ExecuteEnumerate(state, response);
      break;
    case RequestKind::kDecide: {
      DecideRequest request = std::get<DecideRequest>(state->request.op);
      request.cancellation = token;
      if (request.tree_class == provenance::TreeClass::kUnambiguous) {
        // Execute through a prepared plan: it pins one snapshot, so the
        // reported model_version is exactly the version the verdict was
        // computed against even if a delta lands mid-request.
        util::Result<PreparedQuery> prepared =
            PrepareFor(request.target, request.target_text);
        if (!prepared.ok()) {
          response.status = prepared.status();
          break;
        }
        response.model_version = prepared.value().model_version();
        util::Result<bool> verdict = prepared.value().Decide(request);
        if (verdict.ok()) {
          response.member = verdict.value();
        } else {
          response.status = verdict.status();
        }
        break;
      }
      // The exhaustive reference classes deliberately skip Prepare (no
      // plan wanted), so there is no pinned handle to report a version
      // from: best effort, read the version the engine serves right now.
      response.model_version = engine_.model_version();
      util::Result<bool> verdict = engine_.Decide(request);
      if (verdict.ok()) {
        response.member = verdict.value();
      } else {
        response.status = verdict.status();
      }
      break;
    }
    case RequestKind::kExplain: {
      ExplainRequest request = std::get<ExplainRequest>(state->request.op);
      request.cancellation = token;
      // As for Decide: the prepared plan pins the snapshot the proof tree
      // is reconstructed from, making the reported version exact.
      util::Result<PreparedQuery> prepared =
          PrepareFor(request.target, request.target_text);
      if (!prepared.ok()) {
        response.status = prepared.status();
        break;
      }
      response.model_version = prepared.value().model_version();
      util::Result<Explanation> explanation =
          prepared.value().Explain(request);
      if (explanation.ok()) {
        response.explanation = std::move(explanation).value();
      } else {
        response.status = explanation.status();
      }
      break;
    }
    case RequestKind::kApplyDelta: {
      // Writes lean on the engine's snapshot versioning: ApplyDelta
      // serialises against other deltas inside the engine and publishes a
      // fresh snapshot, while every in-flight read keeps the snapshot it
      // pinned — so a delta neither waits for nor tears running reads.
      // (The evaluation itself is not interruptible: a delta is either
      // applied or not, never half-propagated.)
      util::Result<DeltaStats> delta =
          ExecuteDelta(std::get<DeltaRequest>(state->request.op));
      if (delta.ok()) {
        response.model_version = delta.value().model_version;
        response.delta = std::move(delta).value();
      } else {
        response.status = delta.status();
      }
      break;
    }
  }
  response.exec_seconds = exec_timer.ElapsedSeconds();
  Finish(state, std::move(response));
}

util::Result<DeltaStats> Service::ExecuteDelta(const DeltaRequest& request) {
  if (store_ == nullptr) return engine_.ApplyDelta(request);
  // The WAL stores the text form only: render any parsed facts so a
  // replaying process (which has no access to this one's fact ids)
  // reconstructs the identical delta.
  std::vector<std::string> added = request.added_fact_texts;
  for (const dl::Fact& fact : request.added_facts) {
    added.push_back(engine_.FactToText(fact));
  }
  std::vector<std::string> removed = request.removed_fact_texts;
  for (const dl::Fact& fact : request.removed_facts) {
    removed.push_back(engine_.FactToText(fact));
  }
  // Deltas execute on arbitrary worker threads; the order mutex is what
  // makes WAL append order equal engine apply order — without it two
  // concurrent deltas could log in one order and apply in the other,
  // and replay would diverge.
  const util::MutexLock order(store_->order_mutex());
  if (util::Status logged = store_->AppendDelta(added, removed);
      !logged.ok()) {
    // Never apply what was not durably logged — refusing the delta keeps
    // the log a superset of the applied history.
    return logged;
  }
  util::Result<DeltaStats> applied = engine_.ApplyDelta(request);
  MaybeCheckpoint();
  return applied;
}

void Service::MaybeCheckpoint() {
  if (!store_->ShouldCheckpoint()) return;
  const std::shared_ptr<const EngineState> state = engine_.PinSnapshot();
  // A failed checkpoint write is not fatal: the WAL still holds the full
  // history, and the next interval retries.
  (void)store_->WriteCheckpoint(state->model, state->model_version,
                                *state->parse_mutex);
}

void Service::Finish(const std::shared_ptr<Ticket::State>& state,
                     Response response) {
  const bool cancelled =
      response.status.code() == util::StatusCode::kCancelled ||
      response.status.code() == util::StatusCode::kDeadlineExceeded;
  tenants_.RecordCompleted(state->request.tenant, state->request.qos_class,
                           cancelled, response.queue_seconds);
  {
    const util::MutexLock lock(stats_mutex_);
    ++stats_.completed;
    switch (response.status.code()) {
      case util::StatusCode::kOk:
        ++stats_.succeeded;
        break;
      case util::StatusCode::kCancelled:
        ++stats_.cancelled;
        break;
      case util::StatusCode::kDeadlineExceeded:
        ++stats_.deadline_exceeded;
        break;
      default:
        ++stats_.failed;
        break;
    }
    stats_.members_delivered += response.members_emitted;
  }
  // Complete the stream *before* publishing the response: a consumer
  // woken by the ticket must find its stream already terminal.
  if (state->stream) state->stream->OnComplete(response.status);
  {
    const util::MutexLock lock(state->mutex);
    state->response = std::move(response);
    state->done = true;
  }
  state->cv.NotifyAll();
}

ServiceStats Service::stats() const {
  ServiceStats snapshot;
  {
    const util::MutexLock lock(stats_mutex_);
    snapshot = stats_;
    snapshot.queue_depth =
        static_cast<std::size_t>(stats_.submitted - started_);
    snapshot.in_flight =
        static_cast<std::size_t>(started_ - stats_.completed);
  }
  snapshot.tenants = tenants_.Snapshot();
  snapshot.model_version = engine_.model_version();
  const PlanCacheStats plans = engine_.plan_cache_stats();
  snapshot.plans_simplified = plans.plans_simplified;
  snapshot.simplify_vars_removed = plans.simplify_vars_removed;
  snapshot.simplify_clauses_removed = plans.simplify_clauses_removed;
  snapshot.simplify_micros = plans.simplify_micros;
  if (store_ != nullptr) {
    const storage::DurabilityCounters durability = store_->counters();
    snapshot.wal_appends = durability.wal_appends;
    snapshot.wal_bytes = durability.wal_bytes;
    snapshot.checkpoints_written = durability.checkpoints_written;
    snapshot.recovery_replayed_deltas = durability.recovery_replayed_deltas;
  }
  const SnapshotStats snapshots = engine_.snapshot_stats();
  snapshot.retained_snapshots = snapshots.retained_snapshots;
  snapshot.retained_snapshot_bytes = snapshots.approx_bytes;
  const double uptime = uptime_.ElapsedSeconds();
  snapshot.queries_per_second =
      uptime > 0 ? static_cast<double>(snapshot.completed) / uptime : 0;
  return snapshot;
}

// --- blocking batch conveniences -----------------------------------------

BatchEnumerateResult Service::EnumerateBatch(
    const std::vector<EnumerateRequest>& requests) {
  const PlanCacheStats before = engine_.plan_cache_stats();
  util::Timer timer;
  std::vector<Ticket> tickets(requests.size());
  BatchEnumerateResult result;
  result.outcomes.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Request request;
    request.op = requests[i];
    util::Result<Ticket> ticket = SubmitBlocking(*this, request, tickets);
    if (!ticket.ok()) {
      result.outcomes[i].status = ticket.status();
      continue;
    }
    tickets[i] = std::move(ticket).value();
  }
  // Gather positionally: stable ordering whatever the execution order.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    BatchEnumerateOutcome& outcome = result.outcomes[i];
    if (tickets[i].valid()) {
      Response response = tickets[i].Take();  // move the members, not copy
      outcome.status = std::move(response.status);
      outcome.members = std::move(response.members);
      outcome.exhausted = response.exhausted;
      outcome.incomplete = response.incomplete;
      outcome.hit_member_cap = response.hit_member_cap;
      outcome.seconds = response.exec_seconds;
    }
    if (outcome.status.ok()) {
      ++result.stats.succeeded;
      result.stats.members_emitted += outcome.members.size();
    } else {
      ++result.stats.failed;
    }
  }
  FillBatchStats(before, engine_.plan_cache_stats(), timer.ElapsedSeconds(),
                 requests.size(), result.stats);
  return result;
}

BatchDecideResult Service::DecideBatch(
    const std::vector<DecideRequest>& requests) {
  const PlanCacheStats before = engine_.plan_cache_stats();
  util::Timer timer;
  std::vector<Ticket> tickets(requests.size());
  BatchDecideResult result;
  result.outcomes.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Request request;
    request.op = requests[i];
    util::Result<Ticket> ticket = SubmitBlocking(*this, request, tickets);
    if (!ticket.ok()) {
      result.outcomes[i].status = ticket.status();
      continue;
    }
    tickets[i] = std::move(ticket).value();
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    BatchDecideOutcome& outcome = result.outcomes[i];
    if (tickets[i].valid()) {
      const Response& response = tickets[i].Wait();
      outcome.status = response.status;
      outcome.member = response.member;
      outcome.seconds = response.exec_seconds;
    }
    if (outcome.status.ok()) {
      ++result.stats.succeeded;
    } else {
      ++result.stats.failed;
    }
  }
  FillBatchStats(before, engine_.plan_cache_stats(), timer.ElapsedSeconds(),
                 requests.size(), result.stats);
  return result;
}

}  // namespace whyprov
