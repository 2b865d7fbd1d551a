#ifndef WHYPROV_QOS_SCHEDULER_H_
#define WHYPROV_QOS_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>

#include "qos/qos.h"
#include "util/executor.h"

namespace whyprov::qos {

/// A deficit-weighted fair-queueing task scheduler, pluggable into
/// util::Executor through the TaskQueue interface.
///
/// Discipline, outermost to innermost:
///
///   * **Lanes.** The interactive lane has strict-ish priority: an
///     interactive task is always popped before a batch task, except
///     that after `batch_escape` consecutive interactive pops with
///     batch work waiting, one batch task is served — so a saturated
///     interactive lane degrades batch to a bounded trickle instead of
///     starving it (starvation freedom is tested, not just intended).
///
///   * **Tenants.** Within a lane, tenants are served by deficit round
///     robin: each visit tops a tenant's deficit up by
///     `quantum * weight`; a tenant whose deficit covers the cost of
///     its next task pops it (paying the cost), otherwise the rotation
///     moves on. Over a saturated window each tenant's served cost is
///     proportional to its weight, regardless of how many requests it
///     floods into the queue. Each tenant's own tasks pop in push order.
///
/// With only default tags in play (one lane, one tenant) every level
/// degenerates to a single FIFO, and the pop order is *exactly* the
/// push order — the FIFO-equivalence invariant that keeps default-class
/// behaviour (and the bit-identical transcript tests) unchanged.
///
/// Like every TaskQueue, the scheduler is externally synchronized by
/// the owning executor's mutex and holds no lock of its own.
class FairScheduler : public util::TaskQueue {
 public:
  explicit FairScheduler(const QosOptions& options);

  void Push(std::function<void()> task, const util::TaskTag& tag) override;
  std::function<void()> Pop() override;
  std::size_t size() const override { return size_; }

 private:
  /// One queued task with the cost it was pushed at.
  struct Entry {
    std::function<void()> task;
    double cost = 0;
  };

  /// Per-(lane, tenant) scheduling state: the tenant's FIFO plus the
  /// DRR deficit.
  struct Tenant {
    double weight = 1.0;
    double deficit = 0;
    std::deque<Entry> queue;
  };

  /// One lane: its tenants plus the DRR rotation over the non-empty
  /// ones.
  struct Lane {
    std::unordered_map<std::string, Tenant> tenants;
    std::deque<std::string> active;  ///< non-empty tenants, DRR order
    std::size_t queued = 0;
  };

  std::function<void()> PopFromLane(Lane& lane);

  const double quantum_;
  const std::size_t batch_escape_;
  const std::unordered_map<std::string, double> weights_;
  Lane lanes_[kNumLanes];
  /// Consecutive interactive pops since the last batch pop.
  std::size_t interactive_streak_ = 0;
  std::size_t size_ = 0;
};

}  // namespace whyprov::qos

#endif  // WHYPROV_QOS_SCHEDULER_H_
