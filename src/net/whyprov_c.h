#ifndef WHYPROV_NET_WHYPROV_C_H_
#define WHYPROV_NET_WHYPROV_C_H_

/* whyprov C ABI — a flat, stable C89-callable surface over the serving
 * tier (whyprov::Service / whyprov::Ticket / whyprov::MemberStream).
 * This is the layer foreign runtimes and the wire-protocol server
 * (src/net/server.cc) bind against: opaque handles,
 * integer status codes mirroring util::StatusCode, and an explicit
 * create / submit / wait / cancel / stream-next / destroy lifecycle.
 *
 * Threading: a whyprov_service is thread-safe (submit from any thread).
 * A whyprov_ticket is a single-consumer handle: wait/cancel/done are
 * thread-safe, but the accessors returning pointers (next_member,
 * member, status_message, explanation) share one per-ticket scratch
 * buffer and must be called from one thread at a time. Returned
 * pointers stay valid until the next accessor call on the same ticket
 * or whyprov_ticket_destroy, whichever comes first.
 *
 * Ownership: every *_create/submit_* out-parameter hands the caller an
 * owned handle that must be released with the matching *_destroy.
 * Destroying a service with live tickets is undefined; destroy tickets
 * first (destroying a ticket never abandons the request — the service
 * finishes it; call whyprov_ticket_cancel for that).
 */

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* Mirrors whyprov::util::StatusCode value for value (static_asserted in
 * whyprov_c.cc). */
typedef enum whyprov_status {
  WHYPROV_OK = 0,
  WHYPROV_UNKNOWN = 1,
  WHYPROV_INVALID_ARGUMENT = 2,
  WHYPROV_NOT_FOUND = 3,
  WHYPROV_PARSE_ERROR = 4,
  WHYPROV_RESOURCE_EXHAUSTED = 5,
  WHYPROV_CANCELLED = 6,
  WHYPROV_DEADLINE_EXCEEDED = 7
} whyprov_status;

/* Human-readable name of a status code ("OK", "CANCELLED", ...). Static
 * storage; never NULL. */
const char* whyprov_status_name(whyprov_status status);

/* Mirrors whyprov::provenance::TreeClass value for value. */
typedef enum whyprov_tree_class {
  WHYPROV_TREE_ANY = 0,
  WHYPROV_TREE_NON_RECURSIVE = 1,
  WHYPROV_TREE_MINIMAL_DEPTH = 2,
  WHYPROV_TREE_UNAMBIGUOUS = 3
} whyprov_tree_class;

/* Mirrors whyprov::qos::QosClass value for value (static_asserted in
 * whyprov_c.cc). Interactive is the default class everywhere; batch
 * yields to interactive traffic (with starvation protection). */
typedef enum whyprov_qos_class {
  WHYPROV_QOS_INTERACTIVE = 0,
  WHYPROV_QOS_BATCH = 1
} whyprov_qos_class;

/* Flags reported by whyprov_ticket_enumerate_flags. */
#define WHYPROV_ENUM_EXHAUSTED 0x1u      /* full family emitted */
#define WHYPROV_ENUM_INCOMPLETE 0x2u     /* backend gave up (kUnknown) */
#define WHYPROV_ENUM_HIT_MEMBER_CAP 0x4u /* stopped by max_members */
#define WHYPROV_ENUM_HIT_TIMEOUT 0x8u    /* never set; kept for compatibility
                                          * (deadlines end a request with
                                          * WHYPROV_DEADLINE_EXCEEDED) */

typedef struct whyprov_service whyprov_service; /* opaque */
typedef struct whyprov_ticket whyprov_ticket;   /* opaque */

/* Construction knobs; zero-initialise with whyprov_options_init, then
 * override fields. Zero means "the engine/service default" throughout.
 * Fields marked "must be 0" are kept for layout compatibility only: any
 * nonzero value fails create with WHYPROV_INVALID_ARGUMENT naming the
 * field. */
typedef struct whyprov_options {
  size_t num_threads;        /* worker threads; 0 = one per hw thread */
  size_t queue_capacity;     /* admission bound; 0 = default (256) */
  double default_deadline_seconds; /* must be 0 (deadlines are per
                                    * request) */
  size_t num_shards;         /* 0 or 1; >= 2 fails create with
                              * WHYPROV_INVALID_ARGUMENT (kept for layout
                              * compatibility) */
  size_t plan_cache_capacity;     /* 0 = engine default (64) */
  size_t max_snapshot_lag;        /* must be 0 */
  size_t snapshot_alarm_bytes;    /* must be 0 */
  const char* solver_backend;     /* "cdcl", "dpll", ...; NULL = default */
  /* Durability (docs/STORAGE_FORMAT.md): directory for the write-ahead
   * delta log + snapshot checkpoints. NULL/empty = memory-only. When
   * set, creation recovers the persisted state (checkpoint + WAL tail)
   * before serving, and every committed delta is logged first; a store
   * that fails to open fails whyprov_service_create. */
  const char* data_dir;
  int wal_fsync;             /* 1 = fsync the WAL on every append */
  size_t checkpoint_interval; /* deltas between checkpoints; 0 = default (32) */
  /* Multi-tenant QoS (appended fields — zero-initialised means "fair
   * queueing on", which behaves exactly like the pre-QoS FIFO for
   * default-class requests). Fair queueing is two lanes plus per-tenant
   * round robin, with nothing to tune: the five fields after qos_disable
   * must be 0. */
  int qos_disable;           /* 1 = plain FIFO scheduling, no fair queueing */
  double qos_quantum;        /* must be 0 */
  size_t qos_batch_escape;   /* must be 0 (the escape is a constant 8) */
  double qos_tenant_cost_budget; /* must be 0 */
  double qos_refill_per_second;  /* must be 0 */
  double qos_burst;          /* must be 0 */
  int wal_group_commit;      /* must be 0 (wal_fsync is one fsync per
                              * append) */
  /* Plan-time CNF inprocessing (EngineOptions::plan_simplify): one of
   * the WHYPROV_SIMPLIFY_* values. 0 keeps the engine default (fast);
   * any other value fails create with WHYPROV_INVALID_ARGUMENT. */
  int plan_simplify;
} whyprov_options;

/* Values for whyprov_options.plan_simplify. */
#define WHYPROV_SIMPLIFY_DEFAULT 0 /* engine default (fast) */
#define WHYPROV_SIMPLIFY_OFF 1     /* replay the encoder's CNF verbatim */
#define WHYPROV_SIMPLIFY_FAST 2    /* one budgeted inprocessing round */
#define WHYPROV_SIMPLIFY_FULL 3    /* iterate with larger budgets */

void whyprov_options_init(whyprov_options* options);

/* Parses `program_text`/`database_text`, resolves `answer_predicate`,
 * evaluates the least model, and starts the serving stack. On failure
 * the status is returned, *out_service stays NULL, and the error message
 * is copied (NUL-terminated, truncated to fit) into `error_message` when
 * it is non-NULL and `error_message_size` > 0. `options` may be NULL for
 * all defaults. */
whyprov_status whyprov_service_create(const char* program_text,
                                      const char* database_text,
                                      const char* answer_predicate,
                                      const whyprov_options* options,
                                      whyprov_service** out_service,
                                      char* error_message,
                                      size_t error_message_size);

/* Drains this service's in-flight requests, then frees it. NULL is ok. */
void whyprov_service_destroy(whyprov_service* service);

/* Point-in-time serving counters (see whyprov::ServiceStats). */
typedef struct whyprov_stats {
  uint64_t submitted;
  uint64_t rejected;           /* submits refused: the queue was full */
  uint64_t completed;
  uint64_t succeeded;
  uint64_t cancelled;
  uint64_t deadline_exceeded;
  uint64_t failed;
  uint64_t members_delivered;
  size_t queue_depth;
  size_t in_flight;
  double queries_per_second;
  uint64_t model_version;
  size_t retained_snapshots;
  size_t retained_snapshot_bytes;
  uint64_t snapshot_evictions; /* always 0; kept for layout compatibility */
  int snapshot_alarm;          /* always 0; kept for layout compatibility */
  uint64_t version_skew;       /* always 0; kept for layout compatibility */
  size_t num_shards;           /* always 1; kept for layout compatibility */
  /* Durability tier counters (all zero when data_dir was not set). */
  uint64_t wal_appends;        /* delta records logged this process */
  uint64_t wal_bytes;          /* framed WAL bytes appended */
  uint64_t checkpoints_written;
  uint64_t recovery_replayed_deltas; /* WAL tail replayed at create */
  /* Plan-time CNF inprocessing counters (all zero when plan_simplify is
   * off). */
  uint64_t plans_simplified;         /* plan builds that ran the pass */
  uint64_t simplify_vars_removed;    /* variables removed, cumulative */
  uint64_t simplify_clauses_removed; /* clauses removed, cumulative */
  uint64_t simplify_micros;          /* total simplify wall time, us */
} whyprov_stats;

void whyprov_service_stats(const whyprov_service* service,
                           whyprov_stats* out_stats);

/* One per-tenant/per-lane observability row (see whyprov::qos::
 * TenantStats). A submit's tenant name is at most 63 bytes (a longer one
 * fails with WHYPROV_INVALID_ARGUMENT), so it fits the buffer with its
 * NUL. The service keeps rows for at most 256 named tenants: every
 * tenant first seen after that is counted in the row of the reserved
 * tenant "(overflow)", which a submit may not name itself. */
typedef struct whyprov_tenant_stats {
  char tenant[64];           /* "" is the shared default tenant */
  int qos_class;             /* whyprov_qos_class of this row */
  uint64_t queued;           /* admitted, not yet completed */
  uint64_t served;           /* completed without cancellation */
  uint64_t rejected;         /* refused because the queue was full */
  uint64_t cancelled;        /* completed cancelled / past deadline */
  double cost_served;        /* always 0; kept for layout compatibility */
  double queue_p50_seconds;  /* median queue wait (recent window) */
  double queue_p99_seconds;  /* tail queue wait (recent window) */
} whyprov_tenant_stats;

/* Copies up to `capacity` per-tenant rows (sorted by tenant, then lane)
 * into `out_rows` and returns the TOTAL number of rows available — call
 * with capacity 0 (or NULL `out_rows`) to size a buffer, or with a fixed
 * buffer and treat the return value as the row count when it fits. One
 * registry snapshot per call. */
size_t whyprov_service_tenant_stats(const whyprov_service* service,
                                    whyprov_tenant_stats* out_rows,
                                    size_t capacity);

/* --- submission --------------------------------------------------------
 *
 * Each submit admits one request and hands back an owned ticket, or
 * fails fast (most commonly WHYPROV_RESOURCE_EXHAUSTED: the admission
 * queue is full — back off and retry). `deadline_seconds` <= 0 means no
 * per-request deadline (the service default may still apply). Targets
 * and facts are given as text ("path(a, b)"); parsing happens behind
 * the handle with the same semantics as the C++ API.
 */

/* Enumerate the why-provenance family of `target`.
 * `max_members` 0 = enumerate to exhaustion. `stream_capacity` > 0
 * streams members through a bounded buffer (pull them one by one with
 * whyprov_ticket_next_member — blocking the consumer blocks the
 * producer: backpressure); 0 materialises the members into the response
 * (whyprov_ticket_member indexes them after the wait). */
whyprov_status whyprov_submit_enumerate(whyprov_service* service,
                                        const char* target,
                                        uint64_t max_members,
                                        double deadline_seconds,
                                        size_t stream_capacity,
                                        whyprov_ticket** out_ticket);

/* Decide whether {candidate_facts} is a member of `target`'s family
 * w.r.t. `tree_class` (a WHYPROV_TREE_* value; anything else is
 * WHYPROV_INVALID_ARGUMENT). */
whyprov_status whyprov_submit_decide(whyprov_service* service,
                                     const char* target,
                                     const char* const* candidate_facts,
                                     size_t num_candidate_facts,
                                     whyprov_tree_class tree_class,
                                     double deadline_seconds,
                                     whyprov_ticket** out_ticket);

/* Reconstruct member `member_index` of `target`'s enumeration plus a
 * witnessing unambiguous proof tree. */
whyprov_status whyprov_submit_explain(whyprov_service* service,
                                      const char* target,
                                      uint64_t member_index,
                                      double deadline_seconds,
                                      whyprov_ticket** out_ticket);

/* Apply a fact-level database delta (facts as text; additions already
 * present and removals absent are no-ops; all facts must be
 * extensional). Deltas serialise against each other; in-flight reads
 * keep their snapshot. */
whyprov_status whyprov_submit_delta(whyprov_service* service,
                                    const char* const* added_facts,
                                    size_t num_added,
                                    const char* const* removed_facts,
                                    size_t num_removed,
                                    double deadline_seconds,
                                    whyprov_ticket** out_ticket);

/* --- QoS submission variants --------------------------------------------
 *
 * Each mirrors its base submit with an explicit QoS identity: the lane
 * (`qos_class`, one of whyprov_qos_class — anything else is
 * WHYPROV_INVALID_ARGUMENT) and the tenant name (`tenant`; NULL or ""
 * is the shared default tenant; a name over 63 bytes, or the reserved
 * "(overflow)", is WHYPROV_INVALID_ARGUMENT). The base submits are
 * exactly the `_qos` variants with (WHYPROV_QOS_INTERACTIVE, NULL).
 */

whyprov_status whyprov_submit_enumerate_qos(
    whyprov_service* service, const char* target, uint64_t max_members,
    double deadline_seconds, size_t stream_capacity, int qos_class,
    const char* tenant, whyprov_ticket** out_ticket);

whyprov_status whyprov_submit_decide_qos(
    whyprov_service* service, const char* target,
    const char* const* candidate_facts, size_t num_candidate_facts,
    whyprov_tree_class tree_class, double deadline_seconds, int qos_class,
    const char* tenant, whyprov_ticket** out_ticket);

whyprov_status whyprov_submit_explain_qos(whyprov_service* service,
                                          const char* target,
                                          uint64_t member_index,
                                          double deadline_seconds,
                                          int qos_class, const char* tenant,
                                          whyprov_ticket** out_ticket);

whyprov_status whyprov_submit_delta_qos(
    whyprov_service* service, const char* const* added_facts,
    size_t num_added, const char* const* removed_facts, size_t num_removed,
    double deadline_seconds, int qos_class, const char* tenant,
    whyprov_ticket** out_ticket);

/* --- ticket lifecycle -------------------------------------------------- */

/* 1 once the response is available. Non-blocking. */
int whyprov_ticket_done(const whyprov_ticket* ticket);

/* Blocks until the response is available. */
void whyprov_ticket_wait(const whyprov_ticket* ticket);

/* Waits up to `seconds`; 1 iff the response became available. */
int whyprov_ticket_wait_for(const whyprov_ticket* ticket, double seconds);

/* Requests cooperative cancellation (raises the token the SAT loop
 * polls, unblocks a streaming producer). Idempotent; never un-finishes
 * an already-complete response. */
void whyprov_ticket_cancel(whyprov_ticket* ticket);

/* Frees the handle. Does NOT cancel the request: the service still
 * finishes it (cancel first if the work should stop). NULL is ok. */
void whyprov_ticket_destroy(whyprov_ticket* ticket);

/* Final status / message of the response (both wait). The message
 * pointer follows the scratch-buffer lifetime rule above. */
whyprov_status whyprov_ticket_status(const whyprov_ticket* ticket);
const char* whyprov_ticket_status_message(whyprov_ticket* ticket);

/* --- results ------------------------------------------------------------ */

/* Pulls the next member, as `*out_num_facts` rendered fact strings in
 * `(*out_facts)[0 .. n)`. Returns 1 while members keep coming and 0 once
 * the stream finished (then read whyprov_ticket_status for the final
 * verdict). On a streaming ticket this blocks on the bounded buffer (the
 * backpressure point); on a materialised ticket it waits for the
 * response, then walks the member list — the same pull loop works for
 * both modes. */
int whyprov_ticket_next_member(whyprov_ticket* ticket,
                               const char* const** out_facts,
                               size_t* out_num_facts);

/* Materialised enumeration accessors (wait). num_members is 0 for a
 * streaming ticket (members went through next_member instead). */
size_t whyprov_ticket_num_members(const whyprov_ticket* ticket);
int whyprov_ticket_member(whyprov_ticket* ticket, size_t index,
                          const char* const** out_facts,
                          size_t* out_num_facts);

/* Members emitted (streamed + materialised; waits). */
uint64_t whyprov_ticket_members_emitted(const whyprov_ticket* ticket);

/* WHYPROV_ENUM_* bitmask of the enumeration outcome (waits). */
uint32_t whyprov_ticket_enumerate_flags(const whyprov_ticket* ticket);

/* Decide verdict: 1 = member, 0 = not (meaningful when status is OK;
 * waits). */
int whyprov_ticket_decision(const whyprov_ticket* ticket);

/* Explain payload: the member's rendered facts plus the proof tree as
 * indented text. Returns 1 and fills the out-parameters when the
 * response carries an explanation, 0 otherwise (waits). */
int whyprov_ticket_explanation(whyprov_ticket* ticket,
                               const char* const** out_member_facts,
                               size_t* out_num_facts,
                               const char** out_tree_text);

/* Delta payload (see whyprov::DeltaStats). */
typedef struct whyprov_delta_stats {
  uint64_t model_version;
  uint64_t facts_added;
  uint64_t facts_removed;
  uint64_t facts_derived;
  uint64_t facts_deleted;
  uint64_t facts_rederived;
  uint64_t facts_touched;
  uint64_t plans_retained;
  uint64_t plans_invalidated;
} whyprov_delta_stats;

/* Returns 1 and fills `out_stats` when the response carries delta
 * stats, 0 otherwise (waits). */
int whyprov_ticket_delta_stats(const whyprov_ticket* ticket,
                               whyprov_delta_stats* out_stats);

/* The model version the request was served from / produced (waits). */
uint64_t whyprov_ticket_model_version(const whyprov_ticket* ticket);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* WHYPROV_NET_WHYPROV_C_H_ */
