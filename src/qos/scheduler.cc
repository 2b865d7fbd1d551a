#include "qos/scheduler.h"

#include <utility>

namespace whyprov::qos {

void FairScheduler::Push(std::function<void()> task,
                         const util::TaskTag& tag) {
  const std::size_t lane_index =
      tag.lane == static_cast<std::uint8_t>(QosClass::kBatch) ? 1 : 0;
  Lane& lane = lanes_[lane_index];
  auto [it, inserted] = lane.queues.try_emplace(tag.tenant);
  if (inserted) lane.rotation.push_back(tag.tenant);
  it->second.push_back(std::move(task));
  ++size_;
}

std::function<void()> FairScheduler::Pop() {
  Lane& interactive = lanes_[0];
  Lane& batch = lanes_[1];
  const bool escape =
      !batch.rotation.empty() && interactive_streak_ >= kBatchEscape;
  --size_;
  if (!interactive.rotation.empty() && !escape) {
    ++interactive_streak_;
    return PopFromLane(interactive);
  }
  interactive_streak_ = 0;
  if (!batch.rotation.empty()) return PopFromLane(batch);
  return PopFromLane(interactive);
}

std::function<void()> FairScheduler::PopFromLane(Lane& lane) {
  const auto it = lane.queues.find(lane.rotation.front());
  std::deque<std::function<void()>>& queue = it->second;
  std::function<void()> task = std::move(queue.front());
  queue.pop_front();
  if (queue.empty()) {
    // An idle tenant keeps no state: the next push starts it afresh.
    lane.queues.erase(it);
    lane.rotation.pop_front();
  } else {
    std::string tenant = std::move(lane.rotation.front());
    lane.rotation.pop_front();
    lane.rotation.push_back(std::move(tenant));
  }
  return task;
}

std::size_t FairScheduler::active_tenants() const {
  return lanes_[0].queues.size() + lanes_[1].queues.size();
}

}  // namespace whyprov::qos
