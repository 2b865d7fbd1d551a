#ifndef WHYPROV_SERVICE_SERVICE_H_
#define WHYPROV_SERVICE_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "engine/engine.h"
#include "qos/qos.h"
#include "qos/tenant_registry.h"
#include "util/cancellation.h"
#include "util/executor.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace whyprov {

namespace storage {
class DurableStore;  // storage/durable_store.h (serving .cc files only)
}  // namespace storage

/// Which operation a service `Request` carries (mirrors the variant's
/// alternatives; also reported back in the `Response`).
enum class RequestKind { kEnumerate, kDecide, kExplain, kApplyDelta };

/// The unified submission unit of the service: one of the engine's typed
/// operations plus the request-scoped serving policy (deadline). The
/// per-operation structs are exactly the engine's — the service adds
/// admission, scheduling, streaming, and interruption around them, not a
/// second request vocabulary. Leave each op's `cancellation` field empty:
/// the service installs the ticket's own token on execution.
struct Request {
  std::variant<EnumerateRequest, DecideRequest, ExplainRequest, DeltaRequest>
      op;
  /// Wall-clock budget measured from Submit — queue wait counts, as it
  /// must in a serving system (a client's deadline does not pause while
  /// the request sits in line). <= 0 means no deadline.
  double deadline_seconds = 0;
  /// QoS identity (multi-tenant serving). The defaults — interactive
  /// lane, the "" tenant — are what every pre-QoS caller implicitly
  /// sent, and requests carrying them are scheduled exactly like the
  /// old FIFO (architecture invariant 6). A tenant name is at most
  /// qos::kMaxTenantBytes long.
  qos::QosClass qos_class = qos::QosClass::kInteractive;
  std::string tenant;
};

/// Outcome of one submitted request, delivered through its `Ticket`.
/// `status` is Ok, a per-operation failure, or the interruption verdicts:
/// kCancelled (Ticket::Cancel, or a streaming consumer that closed its
/// stream), kDeadlineExceeded. kResourceExhausted means a backend or an
/// exhaustive budget gave up, or a delta's WAL record was over its cap;
/// a full queue fails Submit itself.
struct Response {
  util::Status status;
  RequestKind kind = RequestKind::kEnumerate;

  // Enumerate: the materialised members — empty when the request streamed
  // through a MemberStream (then `members_emitted` still counts them).
  std::vector<std::vector<datalog::Fact>> members;
  std::size_t members_emitted = 0;
  bool exhausted = false;
  bool incomplete = false;
  bool hit_member_cap = false;

  bool member = false;  ///< Decide verdict (meaningful when status.ok())
  std::optional<Explanation> explanation;  ///< Explain payload
  std::optional<DeltaStats> delta;         ///< ApplyDelta payload

  double queue_seconds = 0;  ///< admission -> execution start
  double exec_seconds = 0;   ///< execution wall-clock
  /// The model version the request was served from (reads) or produced
  /// (deltas). In-flight tickets keep their snapshot across deltas, so
  /// two concurrent responses may legitimately report different versions.
  std::uint64_t model_version = 0;
};

/// A bounded member queue bridging the worker (producer) and a consumer
/// thread. The service calls `OnMember` once per member, in emission
/// order, from the worker executing the request; holding at most
/// `capacity` members, it blocks once the buffer is full until the
/// consumer pops — so a slow reader stalls the SAT enumeration instead
/// of ballooning a result vector; memory stays O(capacity), never
/// O(family). `OnComplete` runs exactly once, after the final member
/// (or failure/interruption). `Pop` blocks until a member arrives or the
/// enumeration finishes; `Close` abandons the stream from the consumer
/// side (the producer's next OnMember returns false and the request
/// ends kCancelled), and `Ticket::Cancel` calls it too.
class MemberStream {
 public:
  explicit MemberStream(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Producer side: one member of the family. Returns false once the
  /// stream was closed (the enumeration stops, reported as kCancelled).
  bool OnMember(std::vector<datalog::Fact> member);

  /// Producer side: terminal notification with the request's status.
  void OnComplete(const util::Status& status);

  /// The next member, or nullopt once the stream finished (drained after
  /// completion) or was closed. Single consumer.
  std::optional<std::vector<datalog::Fact>> Pop();

  /// Consumer-side abandonment: wakes a blocked producer, whose OnMember
  /// then returns false.
  void Close();

  /// True once the producer finished (status available) or Close ran.
  bool finished() const;

  /// The request's final status (Ok until OnComplete).
  util::Status final_status() const;

 private:
  const std::size_t capacity_;
  mutable util::Mutex mutex_;
  util::CondVar producer_cv_;
  util::CondVar consumer_cv_;
  std::deque<std::vector<datalog::Fact>> buffer_ GUARDED_BY(mutex_);
  util::Status status_ GUARDED_BY(mutex_);
  bool complete_ GUARDED_BY(mutex_) = false;
  bool closed_ GUARDED_BY(mutex_) = false;
};

/// A future-style handle on one submitted request. Copyable (shares the
/// underlying state); the service keeps a reference until the request
/// finished, so dropping every Ticket does not abandon the work — call
/// Cancel() for that. All methods are thread-safe. Minted by
/// `Service::Submit`.
class Ticket {
 public:
  /// The shared per-request state (defined in service.cc; not part of
  /// the API).
  struct State;

  /// An empty ticket (valid() == false); Submit returns connected ones.
  Ticket() = default;

  bool valid() const { return shared_ != nullptr; }

  /// Monotonic per-service request id (1-based submission order).
  std::uint64_t id() const;

  /// True once the response is available.
  bool done() const;

  /// Requests cooperative cancellation: raises the token the solver loop
  /// polls and unblocks a streaming producer. The response arrives with
  /// kCancelled unless the request already finished (Cancel never
  /// un-finishes a response). Idempotent.
  void Cancel();

  /// Blocks until the response is available, then returns it. The
  /// reference stays valid for the ticket's lifetime.
  const Response& Wait() const;

  /// Blocks like Wait(), then moves the response out — for consumers that
  /// want the member vectors without a deep copy. Single-shot: later
  /// Wait()/Take() calls on any copy of this ticket see a hollowed-out
  /// response (status and scalars intact, payloads gone).
  Response Take();

  /// Waits up to `seconds`; true iff the response became available.
  bool WaitFor(double seconds) const;

 private:
  friend class Service;
  explicit Ticket(std::shared_ptr<State> shared)
      : shared_(std::move(shared)) {}

  std::shared_ptr<State> shared_;
};

/// Aggregated throughput statistics of one batch call.
struct BatchStats {
  std::size_t requests = 0;   ///< batch size
  std::size_t succeeded = 0;  ///< requests that completed without error
  std::size_t failed = 0;     ///< requests that returned an error status
  std::size_t members_emitted = 0;  ///< total members (enumerate batches)
  double wall_seconds = 0;          ///< end-to-end batch wall-clock
  double queries_per_second = 0;    ///< requests / wall_seconds
  std::size_t plan_cache_hits = 0;    ///< cache hits during the batch
  std::size_t plan_cache_misses = 0;  ///< cache misses during the batch
};

/// Per-request outcome of Service::EnumerateBatch: the materialised
/// members (subject to the request budgets) plus the handle flags.
struct BatchEnumerateOutcome {
  util::Status status;  ///< per-request failure (target resolution, backend)
  std::vector<std::vector<datalog::Fact>> members;
  bool exhausted = false;
  bool incomplete = false;
  bool hit_member_cap = false;
  double seconds = 0;  ///< wall-clock spent executing this request
};

struct BatchEnumerateResult {
  std::vector<BatchEnumerateOutcome> outcomes;  ///< parallel to the requests
  BatchStats stats;
};

/// Per-request outcome of Service::DecideBatch.
struct BatchDecideOutcome {
  util::Status status;
  bool member = false;  ///< meaningful only when status.ok()
  double seconds = 0;
};

struct BatchDecideResult {
  std::vector<BatchDecideOutcome> outcomes;  ///< parallel to the requests
  BatchStats stats;
};

/// Serving-policy knobs of a Service.
struct ServiceOptions {
  /// Worker threads executing requests (0 = one per hardware thread).
  std::size_t num_threads = 0;
  /// Admitted-but-unstarted requests the service will hold; Submit
  /// refuses with kResourceExhausted beyond it (admission control).
  std::size_t queue_capacity = 256;
  /// Schedule through qos::FairScheduler (two lanes, per-tenant round
  /// robin) instead of the plain FIFO queue. Default-class traffic pops
  /// in the same order either way (architecture invariant 6).
  bool fair_queueing = true;
};

/// Point-in-time serving counters (cumulative since construction).
struct ServiceStats {
  std::uint64_t submitted = 0;   ///< requests admitted
  std::uint64_t rejected = 0;    ///< Submit refusals (queue full)
  std::uint64_t completed = 0;   ///< responses delivered (any status)
  std::uint64_t succeeded = 0;   ///< responses with an Ok status
  std::uint64_t cancelled = 0;   ///< responses with kCancelled
  std::uint64_t deadline_exceeded = 0;  ///< responses with kDeadlineExceeded
  std::uint64_t failed = 0;      ///< responses with any other error
  std::uint64_t members_delivered = 0;  ///< members streamed + materialised
  std::size_t queue_depth = 0;   ///< admitted, unstarted right now
  std::size_t in_flight = 0;     ///< executing right now
  double queries_per_second = 0;  ///< completed / seconds since start
  std::uint64_t model_version = 0;  ///< version the engine serves now
  /// Snapshot retention: live model versions — the published one plus
  /// those pinned by in-flight tickets — and their approximate bytes
  /// from the COW chunk stats. An unpinned version is freed when the
  /// next delta publishes, so at most one version per executing request
  /// plus the published one is retained.
  std::size_t retained_snapshots = 0;
  std::size_t retained_snapshot_bytes = 0;
  /// Durability tier (ROADMAP "Durability"): activity of the stack's
  /// write-ahead delta log and snapshot checkpoints. All zero when the
  /// engine options carry no data_dir (memory-only serving).
  std::uint64_t wal_appends = 0;  ///< delta records logged this process
  std::uint64_t wal_bytes = 0;    ///< framed WAL bytes appended
  std::uint64_t checkpoints_written = 0;
  /// WAL-tail records replayed during recovery at construction.
  std::uint64_t recovery_replayed_deltas = 0;
  /// Plan-time CNF inprocessing (EngineOptions::plan_simplify), counted
  /// by the plan cache. All zero when the knob is off.
  std::uint64_t plans_simplified = 0;
  std::uint64_t simplify_vars_removed = 0;
  std::uint64_t simplify_clauses_removed = 0;
  std::uint64_t simplify_micros = 0;
  /// Multi-tenant QoS: one row per (tenant, lane) that ever submitted,
  /// sorted by tenant then lane. Tenants first seen after
  /// qos::TenantRegistry::kMaxTenants others share the
  /// qos::kOverflowTenant row.
  std::vector<qos::TenantStats> tenants;
};

/// The serving front door over a `whyprov::Engine`: submission-based,
/// non-blocking, and streaming — the API shape a system answering heavy
/// interactive traffic needs, where the engine's blocking calls that
/// materialise full result vectors do not fit.
///
///   * `Submit` admits a unified `Request` (Enumerate / Decide / Explain
///     / ApplyDelta) onto a bounded queue and returns a `Ticket`
///     immediately; a full queue refuses with kResourceExhausted instead
///     of buffering unboundedly.
///   * A fixed worker pool (`util::Executor`) executes requests; results
///     arrive through `Ticket::Wait` or, for enumerations, stream
///     member-by-member through a `MemberStream` with
///     backpressure — bounded memory regardless of family size.
///   * Every request carries a deadline (measured from Submit, queue wait
///     included) and a cancellation token; both are polled between
///     members *and* inside the SAT search, so `Ticket::Cancel` or an
///     expired deadline stops a long solve promptly with kCancelled /
///     kDeadlineExceeded — without blocking other in-flight requests.
///   * Writes (`ApplyDelta`) ride the engine's snapshot versioning:
///     deltas serialise against each other inside the engine while
///     in-flight reads keep serving the snapshot they started on, so a
///     submitted delta never waits for (or tears) running enumerations.
///
/// Thread-safe; create once, share freely. Destruction drains admitted
/// requests (their tickets complete) before joining the workers.
class Service {
 public:
  explicit Service(Engine engine, ServiceOptions options = ServiceOptions());

  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admits `request`; `stream` (optional) receives Enumerate members and
  /// is ignored by the other kinds. Refuses with kResourceExhausted when
  /// the queue is full — the client should back off and retry — and with
  /// kInvalidArgument when the tenant name is longer than
  /// qos::kMaxTenantBytes or is qos::kOverflowTenant.
  util::Result<Ticket> Submit(Request request,
                              std::shared_ptr<MemberStream> stream = nullptr);

  /// Convenience: submit an enumeration streaming into a fresh bounded
  /// `MemberStream` of `stream_capacity` members; returns the ticket and
  /// the stream to pull from.
  util::Result<std::pair<Ticket, std::shared_ptr<MemberStream>>> Stream(
      EnumerateRequest request, std::size_t stream_capacity = 8,
      double deadline_seconds = 0);

  /// Blocking conveniences: submit a whole batch, wait for every ticket,
  /// and gather the responses positionally into a batch result. The
  /// requests interleave with any other traffic on the service and
  /// respect its admission bound: they are fed as the queue drains
  /// rather than rejected.
  BatchEnumerateResult EnumerateBatch(
      const std::vector<EnumerateRequest>& requests);
  BatchDecideResult DecideBatch(const std::vector<DecideRequest>& requests);

  /// The served engine (views only — route mutations through Submit so
  /// they order with the queue; direct ApplyDelta calls are still safe,
  /// just invisible to the service's stats).
  const Engine& engine() const { return engine_; }

  ServiceStats stats() const;
  std::size_t num_threads() const { return executor_.num_threads(); }
  const ServiceOptions& options() const { return options_; }

  /// Durability health: Ok when the engine options carry no data_dir or
  /// the store opened (and recovered) cleanly; the open error otherwise.
  /// A service with a failed store serves memory-only — callers that
  /// must not accept silent non-durability should check after
  /// construction (whyprov_service_create does).
  util::Status durability_status() const { return durability_status_; }

 private:
  /// Opens the DurableStore named by the engine options' data_dir (no-op
  /// when empty) and recovers: restore the checkpoint if one decodes,
  /// then replay the WAL tail through the normal delta path. Runs in the
  /// constructor, before any request can be admitted.
  void OpenDurability();

  /// The write path: logs the delta to the WAL (when durable) before
  /// applying it to the engine, holding the store's order mutex across
  /// {append -> apply -> checkpoint} so log order equals apply order
  /// even with deltas on arbitrary worker threads.
  util::Result<DeltaStats> ExecuteDelta(const DeltaRequest& request);

  /// Writes a snapshot checkpoint when enough WAL records accumulated
  /// (caller holds the store's order mutex).
  void MaybeCheckpoint();

  void Execute(const std::shared_ptr<Ticket::State>& state);
  void Finish(const std::shared_ptr<Ticket::State>& state,
              Response response);
  void ExecuteEnumerate(const std::shared_ptr<Ticket::State>& state,
                        Response& response);
  /// Cache-through Prepare for a request's target: pins the snapshot the
  /// execution serves, so Response::model_version is exact.
  util::Result<PreparedQuery> PrepareFor(
      datalog::FactId target, const std::string& target_text) const;

  Engine engine_;
  /// The durability tier (null = memory-only), opened from the engine
  /// options' data_dir by the constructor. Declared before the executor
  /// so workers never outlive it.
  std::unique_ptr<storage::DurableStore> store_;
  util::Status durability_status_;  ///< set once in OpenDurability
  ServiceOptions options_;
  util::Timer uptime_;  ///< denominator of queries_per_second
  mutable util::Mutex stats_mutex_;
  ServiceStats stats_ GUARDED_BY(stats_mutex_);
  /// Requests whose execution began.
  std::uint64_t started_ GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t next_id_ GUARDED_BY(stats_mutex_) = 0;
  /// QoS: per-(tenant, lane) observability.
  qos::TenantRegistry tenants_;
  /// Declared last: workers touch everything above, so the executor must
  /// be drained and joined first (the destructor shuts it down).
  util::Executor executor_;
};

}  // namespace whyprov

#endif  // WHYPROV_SERVICE_SERVICE_H_
