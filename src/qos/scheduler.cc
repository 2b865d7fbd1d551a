#include "qos/scheduler.h"

#include <algorithm>
#include <utility>

namespace whyprov::qos {

FairScheduler::FairScheduler(const QosOptions& options)
    : quantum_(options.quantum > 0 ? options.quantum : 1.0),
      batch_escape_(options.batch_escape),
      weights_(options.tenant_weights) {}

void FairScheduler::Push(std::function<void()> task,
                         const util::TaskTag& tag) {
  const std::size_t lane_index =
      tag.lane == static_cast<std::uint8_t>(QosClass::kBatch) ? 1 : 0;
  Lane& lane = lanes_[lane_index];
  auto [it, inserted] = lane.tenants.try_emplace(tag.tenant);
  Tenant& tenant = it->second;
  if (inserted) {
    const auto weight = weights_.find(tag.tenant);
    if (weight != weights_.end() && weight->second > 0) {
      tenant.weight = weight->second;
    }
  }
  if (tenant.queue.empty()) lane.active.push_back(tag.tenant);
  tenant.queue.push_back(Entry{std::move(task), std::max(0.0, tag.cost)});
  ++lane.queued;
  ++size_;
}

std::function<void()> FairScheduler::Pop() {
  Lane& interactive = lanes_[0];
  Lane& batch = lanes_[1];
  const bool escape = batch_escape_ > 0 && batch.queued > 0 &&
                      interactive_streak_ >= batch_escape_;
  if (interactive.queued > 0 && !escape) {
    ++interactive_streak_;
    return PopFromLane(interactive);
  }
  interactive_streak_ = 0;
  if (batch.queued > 0) return PopFromLane(batch);
  return PopFromLane(interactive);
}

std::function<void()> FairScheduler::PopFromLane(Lane& lane) {
  // Deficit round robin over the active tenants. Terminates because
  // every unsuccessful visit adds quantum * weight (> 0) to the front
  // tenant's deficit, so its head task's finite cost is covered after
  // finitely many rotations.
  while (true) {
    Tenant& tenant = lane.tenants.at(lane.active.front());
    const double cost = tenant.queue.front().cost;
    if (tenant.deficit < cost && lane.active.size() > 1) {
      tenant.deficit += quantum_ * tenant.weight;
      lane.active.push_back(lane.active.front());
      lane.active.pop_front();
      continue;
    }
    // A lone tenant is served unconditionally (no competitor to be fair
    // to), keeping its deficit at zero so a later arrival starts even.
    tenant.deficit = std::max(0.0, tenant.deficit - cost);
    std::function<void()> task = std::move(tenant.queue.front().task);
    tenant.queue.pop_front();
    --lane.queued;
    --size_;
    if (tenant.queue.empty()) {
      tenant.deficit = 0;  // an idle tenant banks no credit
      lane.active.pop_front();
    }
    return task;
  }
}

}  // namespace whyprov::qos
