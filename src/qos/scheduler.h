#ifndef WHYPROV_QOS_SCHEDULER_H_
#define WHYPROV_QOS_SCHEDULER_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>

#include "qos/qos.h"
#include "util/executor.h"

namespace whyprov::qos {

/// A two-lane, per-tenant round-robin task scheduler, pluggable into
/// util::Executor through the TaskQueue interface.
///
/// Discipline, outermost to innermost:
///
///   * **Lanes.** The interactive lane has strict-ish priority: an
///     interactive task is always popped before a batch task, except
///     that after `kBatchEscape` consecutive interactive pops with
///     batch work waiting, one batch task is served — so a saturated
///     interactive lane degrades batch to a bounded trickle instead of
///     starving it (starvation freedom is tested, not just intended).
///
///   * **Tenants.** Each lane keeps one FIFO per tenant and a rotation
///     of the tenants that have queued work. A pop takes the front
///     tenant's oldest task, then moves that tenant to the back of the
///     rotation, or forgets it once its FIFO is empty. Every tenant with
///     work waiting is served once per rotation, however many requests
///     it floods into the queue, and its own tasks pop in push order.
///
/// With only default tags in play (one lane, one tenant) every level
/// degenerates to a single FIFO, and the pop order is *exactly* the
/// push order — the FIFO-equivalence invariant that keeps default-class
/// behaviour (and the bit-identical transcript tests) unchanged.
///
/// Per-tenant state lives only while the tenant has queued work, so
/// memory is bounded by the queued tasks, not by the tenant names ever
/// seen. Like every TaskQueue, the scheduler is externally synchronized
/// by the owning executor's mutex and holds no lock of its own.
class FairScheduler : public util::TaskQueue {
 public:
  /// Consecutive interactive pops, with batch work waiting, after which
  /// one batch task is served.
  static constexpr std::size_t kBatchEscape = 8;

  void Push(std::function<void()> task, const util::TaskTag& tag) override;
  std::function<void()> Pop() override;
  std::size_t size() const override { return size_; }

  /// Tenants with queued work, summed over both lanes: the scheduler's
  /// per-tenant state, which an idle tenant does not keep.
  std::size_t active_tenants() const;

 private:
  /// One lane: a FIFO per tenant with queued work, plus the round-robin
  /// rotation over exactly those tenants.
  struct Lane {
    std::unordered_map<std::string, std::deque<std::function<void()>>> queues;
    std::deque<std::string> rotation;
  };

  static std::function<void()> PopFromLane(Lane& lane);

  Lane lanes_[kNumLanes];
  /// Consecutive interactive pops since the last batch pop.
  std::size_t interactive_streak_ = 0;
  std::size_t size_ = 0;
};

}  // namespace whyprov::qos

#endif  // WHYPROV_QOS_SCHEDULER_H_
