#ifndef WHYPROV_UTIL_EXECUTOR_H_
#define WHYPROV_UTIL_EXECUTOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace whyprov::util {

/// Resolves a thread-count request: 0 means "one per hardware thread"
/// (at least 1).
inline std::size_t ResolveThreadCount(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

/// Scheduling identity attached to a submitted task. The default tag
/// (interactive lane, empty tenant) is what every pre-QoS caller
/// implicitly submits, and a scheduler seeing only default tags must pop
/// in exact FIFO order — that equivalence is an architecture invariant
/// (docs/ARCHITECTURE.md) and is tested in tests/test_qos.cc.
struct TaskTag {
  /// 0 = interactive, 1 = batch (mirrors qos::QosClass).
  std::uint8_t lane = 0;
  /// Tenant / client identity; "" is the shared default tenant.
  std::string tenant;
};

/// The executor's queue discipline, pluggable so a scheduler (e.g.
/// qos::FairScheduler) can replace the FIFO default. Implementations are
/// *externally synchronized*: every call happens under the owning
/// executor's mutex, so they need no locking of their own — and must not
/// block or call back into the executor.
class TaskQueue {
 public:
  virtual ~TaskQueue() = default;

  /// Accepts a task with its scheduling tag. Only called after the
  /// executor checked `size() < capacity`, so Push cannot refuse.
  virtual void Push(std::function<void()> task, const TaskTag& tag) = 0;

  /// Removes and returns the next task by the queue's discipline.
  /// Only called when `size() > 0`.
  virtual std::function<void()> Pop() = 0;

  /// Tasks currently held.
  virtual std::size_t size() const = 0;
};

/// The default discipline: strict FIFO, tags ignored. Behaviour is
/// identical to the pre-TaskQueue executor.
class FifoTaskQueue : public TaskQueue {
 public:
  void Push(std::function<void()> task, const TaskTag& /*tag*/) override {
    queue_.push_back(std::move(task));
  }
  std::function<void()> Pop() override {
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    return task;
  }
  std::size_t size() const override { return queue_.size(); }

 private:
  std::deque<std::function<void()>> queue_;
};

/// A fixed worker pool with a bounded task queue: the serving pool of
/// `whyprov::Service`. Tasks enter through `TrySubmit`, which refuses
/// with `kResourceExhausted` once the queue holds `queue_capacity`
/// unstarted tasks — the admission-control backstop that keeps a
/// flooded server's memory bounded.
///
/// Tasks must not throw. Destruction (or `Shutdown`) stops admission,
/// drains every already-queued task, and joins the workers.
struct ExecutorOptions {
  /// Worker threads (0 = one per hardware thread).
  std::size_t num_threads = 0;
  /// Unstarted tasks the queue will hold before TrySubmit refuses.
  std::size_t queue_capacity = 1024;
  /// Queue discipline; null = bounded FIFO. The executor takes shared
  /// ownership and serialises every access under its own mutex.
  std::shared_ptr<TaskQueue> queue;
};

class Executor {
 public:
  /// Declared at namespace scope (as ExecutorOptions) so it can appear in
  /// default arguments; the nested alias is the ergonomic name.
  using Options = ExecutorOptions;

  explicit Executor(Options options = Options())
      : capacity_(std::max<std::size_t>(1, options.queue_capacity)),
        queue_(options.queue != nullptr
                   ? std::move(options.queue)
                   : std::make_shared<FifoTaskQueue>()) {
    const std::size_t threads = ResolveThreadCount(options.num_threads);
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  ~Executor() { Shutdown(); }

  /// Enqueues `task` for a worker under the default tag. Refuses with
  /// kResourceExhausted when the queue is at capacity and with
  /// kInvalidArgument after Shutdown — callers surface the former as
  /// server-overloaded to their clients.
  Status TrySubmit(std::function<void()> task) EXCLUDES(mutex_) {
    return TrySubmit(std::move(task), TaskTag());
  }

  /// As above, with an explicit scheduling tag for the queue discipline.
  Status TrySubmit(std::function<void()> task, const TaskTag& tag)
      EXCLUDES(mutex_) {
    {
      const MutexLock lock(mutex_);
      if (shutdown_) {
        return Status::InvalidArgument("the executor is shut down");
      }
      if (queue_->size() >= capacity_) {
        return Status::ResourceExhausted(
            "the executor queue is full (" + std::to_string(capacity_) +
            " pending tasks)");
      }
      queue_->Push(std::move(task), tag);
    }
    work_cv_.NotifyOne();
    return Status::Ok();
  }

  /// Worker threads in the pool.
  std::size_t num_threads() const { return workers_.size(); }

  /// Tasks admitted but not yet started.
  std::size_t pending() const EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    return queue_->size();
  }

  /// Stops admission, drains every queued task, joins the workers.
  /// Idempotent.
  void Shutdown() EXCLUDES(mutex_) {
    {
      const MutexLock lock(mutex_);
      if (shutdown_) {
        // A second Shutdown (e.g. destructor after an explicit call) must
        // still wait for the joins below, but they already happened.
        if (workers_.empty()) return;
      }
      shutdown_ = true;
    }
    work_cv_.NotifyAll();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    workers_.clear();
  }

 private:
  void WorkerLoop() EXCLUDES(mutex_) {
    while (true) {
      std::function<void()> task;
      {
        MutexLock lock(mutex_);
        while (!shutdown_ && queue_->size() == 0) work_cv_.Wait(mutex_);
        if (queue_->size() == 0) return;  // shutdown with a drained queue
        task = queue_->Pop();
      }
      task();
    }
  }

  const std::size_t capacity_;
  mutable Mutex mutex_;
  CondVar work_cv_;
  /// The discipline object is shared (e.g. a scheduler the owner also
  /// configures), but every Push/Pop/size call happens under mutex_.
  const std::shared_ptr<TaskQueue> queue_ GUARDED_BY(mutex_);
  bool shutdown_ GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace whyprov::util

#endif  // WHYPROV_UTIL_EXECUTOR_H_
