#ifndef WHYPROV_QOS_TENANT_REGISTRY_H_
#define WHYPROV_QOS_TENANT_REGISTRY_H_

#include <cstddef>
#include <cstdint>
#include <array>
#include <map>
#include <string>
#include <vector>

#include "qos/qos.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace whyprov::qos {

/// One per-tenant/per-lane observability row, as surfaced in
/// ServiceStats::tenants, the C ABI (`whyprov_tenant_stats`), and the
/// appended per-tenant section of the STATS wire reply.
struct TenantStats {
  std::string tenant;  ///< "" is the default tenant
  QosClass lane = QosClass::kInteractive;
  std::uint64_t queued = 0;     ///< admitted, not yet completed
  std::uint64_t served = 0;     ///< completed (any terminal status but cancel)
  std::uint64_t rejected = 0;   ///< refused because the queue was full
  std::uint64_t cancelled = 0;  ///< cancelled or deadline-exceeded
  double queue_p50_seconds = 0;  ///< median queue wait (sampled)
  double queue_p99_seconds = 0;  ///< p99 queue wait (sampled)
};

/// Exact per-(tenant, lane) serving counters plus a bounded ring of
/// queue-wait samples for the latency percentiles. All state sits behind
/// one annotated mutex (the touch per request is a handful of
/// increments). Rows are never erased, so the registry keeps at most
/// kMaxTenants named tenants: a name first seen after that is counted
/// in the kOverflowTenant row, and every earlier name stays exact.
class TenantRegistry {
 public:
  /// Named tenants with their own rows; clients choose names freely, so
  /// this is what bounds the registry's memory.
  static constexpr std::size_t kMaxTenants = 256;

  /// A request was admitted and is about to be queued. Recorded before
  /// the executor can run (and complete) it, so RecordCompleted always
  /// finds the queue entry it retires.
  void RecordQueued(const std::string& tenant, QosClass lane)
      EXCLUDES(mutex_);

  /// The executor queue refused a request already recorded by
  /// RecordQueued: undoes that entry and counts the refusal.
  void RecordQueueRefused(const std::string& tenant, QosClass lane)
      EXCLUDES(mutex_);

  /// An admitted request reached its terminal state. `cancelled` covers
  /// cancellation and deadline expiry; everything else counts as
  /// served. `queue_seconds` feeds the wait-percentile ring.
  void RecordCompleted(const std::string& tenant, QosClass lane,
                       bool cancelled, double queue_seconds)
      EXCLUDES(mutex_);

  /// Snapshot of every row, sorted by (tenant, lane) for deterministic
  /// output; percentiles are computed over the current sample rings.
  std::vector<TenantStats> Snapshot() const EXCLUDES(mutex_);

 private:
  /// Queue-wait samples kept per row; enough for a stable p99 while
  /// bounding memory per tenant.
  static constexpr std::size_t kSampleCapacity = 512;

  struct Row {
    std::uint64_t queued = 0;
    std::uint64_t served = 0;
    std::uint64_t rejected = 0;
    std::uint64_t cancelled = 0;
    std::vector<double> waits;  ///< ring buffer, capacity kSampleCapacity
    std::size_t next_wait = 0;
  };

  Row& RowFor(const std::string& tenant, QosClass lane) REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  /// std::map for the sorted snapshot order.
  std::map<std::string, std::array<Row, kNumLanes>> rows_
      GUARDED_BY(mutex_);
};

}  // namespace whyprov::qos

#endif  // WHYPROV_QOS_TENANT_REGISTRY_H_
