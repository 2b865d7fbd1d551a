#ifndef WHYPROV_QOS_COST_H_
#define WHYPROV_QOS_COST_H_

#include <cstddef>
#include <string>
#include <unordered_map>

#include "qos/qos.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace whyprov::qos {

/// The raw signals a request's cost estimate is priced from. The
/// service layer fills them from the engine (plan-cache peek, closure
/// and CNF sizes); keeping this a plain struct is what lets the qos
/// library stay independent of the engine.
struct CostSignals {
  /// A compiled plan for this target is cached at the current model
  /// version — execution skips closure computation and CNF compilation.
  bool plan_cached = false;
  /// Facts in the target's derivation closure (0 if unknown).
  std::size_t closure_facts = 0;
  /// Clauses in the compiled CNF (0 if unknown).
  std::size_t cnf_clauses = 0;
  /// Variables in the compiled CNF (0 if unknown).
  std::size_t cnf_variables = 0;
  /// Facts added + removed, for delta requests.
  std::size_t delta_facts = 0;
  /// Facts in the extensional database (the fallback size proxy when
  /// nothing target-specific is known).
  std::size_t database_facts = 0;
};

/// Prices a request in abstract cost units from its signals. The scale
/// is anchored at 1.0 = one cache-hit query execution; estimates feed
/// both the scheduler's deficit accounting and cost-based admission,
/// so only the *relative* ordering matters, not absolute accuracy.
class CostEstimator {
 public:
  /// Minimum estimate for any request (a cached plan still executes).
  static constexpr double kMinCost = 1.0;

  /// Cost of a query (enumerate / decide / explain) from its signals.
  /// Cached plans price near the floor; uncached plans pay for the
  /// closure they must compute and the CNF they must compile; with no
  /// target-specific signal the database size is the proxy.
  static double Query(const CostSignals& signals);

  /// Cost of a delta: every touched fact risks rederivation across the
  /// whole database.
  static double Delta(const CostSignals& signals);
};

/// Per-tenant cost-based admission: an outstanding-cost budget (charged
/// at admit, refunded at completion — including cancellation, which is
/// what makes refund-on-cancel a single code path) combined with an
/// optional token bucket limiting admitted cost per second. Thread-safe
/// behind its own annotated mutex.
class AdmissionController {
 public:
  explicit AdmissionController(const QosOptions& options);

  /// Admits `cost` units for `tenant`, or refuses with
  /// kResourceExhausted naming the exhausted limit. A refusal charges
  /// nothing.
  util::Status Admit(const std::string& tenant, double cost)
      EXCLUDES(mutex_);

  /// As Admit, with an explicit monotonic clock reading (seconds) for
  /// the token bucket — the deterministic entry point tests use.
  util::Status AdmitAt(const std::string& tenant, double cost,
                       double now_seconds) EXCLUDES(mutex_);

  /// Refunds `cost` units of `tenant`'s outstanding budget. Called
  /// exactly once per admitted request, at completion (success,
  /// failure, or cancellation alike).
  void Release(const std::string& tenant, double cost) EXCLUDES(mutex_);

  /// Outstanding admitted cost for `tenant` (0 for unknown tenants).
  double Outstanding(const std::string& tenant) const EXCLUDES(mutex_);

  /// True when no limit is configured (every Admit succeeds).
  bool unlimited() const { return budget_ <= 0 && refill_per_second_ <= 0; }

 private:
  struct Bucket {
    double outstanding = 0;
    double tokens = 0;
    double last_refill_seconds = 0;
    bool primed = false;  ///< tokens initialised to the burst capacity
  };

  const double budget_;
  const double refill_per_second_;
  const double burst_;
  mutable util::Mutex mutex_;
  std::unordered_map<std::string, Bucket> buckets_ GUARDED_BY(mutex_);
};

}  // namespace whyprov::qos

#endif  // WHYPROV_QOS_COST_H_
