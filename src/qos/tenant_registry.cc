#include "qos/tenant_registry.h"

#include <algorithm>
#include <utility>

namespace whyprov::qos {

namespace {

/// Nearest-rank percentile over an unsorted copy of the samples.
double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

}  // namespace

TenantRegistry::Row& TenantRegistry::RowFor(const std::string& tenant,
                                            QosClass lane) {
  auto it = rows_.find(tenant);
  if (it == rows_.end()) {
    // The overflow row is created by the first name past the cap (Submit
    // refuses its reserved name), so the map holds kMaxTenants + 1 keys
    // at most.
    std::string key =
        rows_.size() < kMaxTenants ? tenant : std::string(kOverflowTenant);
    it = rows_.try_emplace(std::move(key)).first;
  }
  return it->second[static_cast<std::size_t>(lane)];
}

void TenantRegistry::RecordQueued(const std::string& tenant,
                                  QosClass lane) {
  const util::MutexLock lock(mutex_);
  ++RowFor(tenant, lane).queued;
}

void TenantRegistry::RecordQueueRefused(const std::string& tenant,
                                        QosClass lane) {
  const util::MutexLock lock(mutex_);
  Row& row = RowFor(tenant, lane);
  --row.queued;
  ++row.rejected;
}

void TenantRegistry::RecordCompleted(const std::string& tenant,
                                     QosClass lane, bool cancelled,
                                     double queue_seconds) {
  const util::MutexLock lock(mutex_);
  Row& row = RowFor(tenant, lane);
  if (row.queued > 0) --row.queued;
  if (cancelled) {
    ++row.cancelled;
  } else {
    ++row.served;
  }
  if (row.waits.size() < kSampleCapacity) {
    row.waits.push_back(queue_seconds);
  } else {
    row.waits[row.next_wait] = queue_seconds;
    row.next_wait = (row.next_wait + 1) % kSampleCapacity;
  }
}

std::vector<TenantStats> TenantRegistry::Snapshot() const {
  const util::MutexLock lock(mutex_);
  std::vector<TenantStats> rows;
  for (const auto& [tenant, lanes] : rows_) {
    for (std::size_t lane = 0; lane < kNumLanes; ++lane) {
      const Row& row = lanes[lane];
      if (row.queued == 0 && row.served == 0 && row.rejected == 0 &&
          row.cancelled == 0) {
        continue;  // lanes this tenant never used stay out of the output
      }
      TenantStats stats;
      stats.tenant = tenant;
      stats.lane = static_cast<QosClass>(lane);
      stats.queued = row.queued;
      stats.served = row.served;
      stats.rejected = row.rejected;
      stats.cancelled = row.cancelled;
      stats.queue_p50_seconds = Percentile(row.waits, 0.50);
      stats.queue_p99_seconds = Percentile(row.waits, 0.99);
      rows.push_back(std::move(stats));
    }
  }
  return rows;
}

}  // namespace whyprov::qos
