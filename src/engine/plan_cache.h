#ifndef WHYPROV_ENGINE_PLAN_CACHE_H_
#define WHYPROV_ENGINE_PLAN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "datalog/evaluator.h"
#include "provenance/query_plan.h"
#include "sat/simplify.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace whyprov {

/// Point-in-time snapshot of plan-cache effectiveness.
struct PlanCacheStats {
  std::size_t hits = 0;       ///< lookups answered from the cache
  std::size_t misses = 0;     ///< lookups that found nothing
  std::size_t evictions = 0;  ///< plans dropped to respect the capacity
  std::size_t invalidated = 0;  ///< plans a delta dropped because it
                                ///< touched their closure
  std::size_t coalesced = 0;  ///< GetOrBuild calls that waited on another
                              ///< thread's in-flight build instead of
                              ///< compiling the plan themselves
  std::size_t size = 0;       ///< plans currently cached
  std::size_t capacity = 0;   ///< configured capacity (0 = disabled)

  // Cumulative plan-time CNF inprocessing counters (sat/simplify.h),
  // recorded once per plan build when EngineOptions::plan_simplify is on.
  std::uint64_t plans_simplified = 0;
  std::uint64_t simplify_vars_removed = 0;
  std::uint64_t simplify_clauses_removed = 0;
  std::uint64_t simplify_micros = 0;  ///< total simplify wall time, µs
};

/// A thread-safe LRU cache of query plans, keyed by target fact (one
/// engine compiles every plan under the same EngineOptions, so the target
/// alone names a plan). Plans are immutable and handed out as shared_ptr,
/// so an evicted plan stays valid for executions already holding it.
/// Capacity 0 disables caching (every lookup misses, Put is a no-op)
/// while still counting misses.
///
/// Each engine version owns one cache, and a cache only ever holds plans
/// valid for its own version: `Entries`/`Put`/`CountInvalidated` support
/// the delta path's selective carry-over of still-valid plans into the
/// successor version's cache, and the predecessor's cache keeps serving
/// the requests pinned to it.
///
/// `GetOrBuild` is the lookup: concurrent misses on one target compile
/// the plan once — the first thread builds while the rest wait
/// on a build latch and share the result (counted under `coalesced`), so
/// a post-delta stampede on a hot target costs one compilation instead of
/// one per requester.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity) : capacity_(capacity) {}

  /// A successor cache (after ApplyDelta): same capacity, counters carried
  /// over from the predecessor so engine-level stats stay cumulative.
  PlanCache(std::size_t capacity, const PlanCacheStats& carried)
      : capacity_(capacity),
        hits_(carried.hits),
        misses_(carried.misses),
        evictions_(carried.evictions),
        invalidated_(carried.invalidated),
        coalesced_(carried.coalesced),
        plans_simplified_(carried.plans_simplified),
        simplify_vars_removed_(carried.simplify_vars_removed),
        simplify_clauses_removed_(carried.simplify_clauses_removed),
        simplify_micros_(carried.simplify_micros) {}

  /// Inserts (or replaces) the plan for `target` as most recently used.
  void Put(datalog::FactId target,
           std::shared_ptr<const provenance::QueryPlan> plan)
      EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    PutLocked(target, std::move(plan));
  }

  /// Single-flight cache-through lookup: the cached plan for `target`,
  /// or the result of running `build` — exactly once across every thread
  /// concurrently missing on this target. The winner compiles (outside
  /// the cache lock: builds are the expensive part) and Puts; the others
  /// block on the build latch and share the winner's plan. Works with
  /// capacity 0 too: the latch map is independent of the LRU, so
  /// concurrent misses still coalesce even when nothing is retained
  /// afterwards.
  template <typename BuildFn>
  std::shared_ptr<const provenance::QueryPlan> GetOrBuild(
      datalog::FactId target, const BuildFn& build) EXCLUDES(mutex_) {
    std::shared_ptr<Flight> flight;
    bool builder = false;
    {
      const util::MutexLock lock(mutex_);
      if (auto plan = GetLocked(target)) return plan;
      auto it = flights_.find(target);
      if (it == flights_.end()) {
        flight = std::make_shared<Flight>();
        flights_.emplace(target, flight);
        builder = true;
      } else {
        flight = it->second;
        ++coalesced_;
      }
    }
    if (builder) {
      std::shared_ptr<const provenance::QueryPlan> plan = build();
      {
        const util::MutexLock lock(mutex_);
        PutLocked(target, plan);
        flights_.erase(target);
      }
      {
        const util::MutexLock lock(flight->mutex);
        flight->plan = plan;
        flight->done = true;
      }
      flight->cv.NotifyAll();
      return plan;
    }
    const util::MutexLock lock(flight->mutex);
    while (!flight->done) flight->cv.Wait(flight->mutex);
    return flight->plan;
  }

  /// One cached plan together with its target, for delta carry-over.
  struct Entry {
    datalog::FactId target;
    std::shared_ptr<const provenance::QueryPlan> plan;
  };

  /// The cached plans from least- to most-recently used, so re-Putting
  /// them in order into a successor cache preserves the LRU order.
  std::vector<Entry> Entries() const EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    std::vector<Entry> entries;
    entries.reserve(lru_.size());
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      entries.push_back(Entry{it->first, it->second});
    }
    return entries;
  }

  /// Records plans dropped by a delta's selective invalidation (they never
  /// reach the successor cache, so Get cannot count them).
  void CountInvalidated(std::size_t count) EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    invalidated_ += count;
  }

  /// Records one plan build's inprocessing outcome (the builder thread of
  /// GetOrBuild calls this right after QueryPlan::Build).
  void RecordSimplify(const sat::SimplifyStats& stats) EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    ++plans_simplified_;
    simplify_vars_removed_ += stats.vars_before - stats.vars_after;
    simplify_clauses_removed_ +=
        stats.clauses_before > stats.clauses_after
            ? stats.clauses_before - stats.clauses_after
            : 0;
    simplify_micros_ += static_cast<std::uint64_t>(stats.seconds * 1e6);
  }

  PlanCacheStats stats() const EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    PlanCacheStats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.evictions = evictions_;
    stats.invalidated = invalidated_;
    stats.coalesced = coalesced_;
    stats.size = lru_.size();
    stats.capacity = capacity_;
    stats.plans_simplified = plans_simplified_;
    stats.simplify_vars_removed = simplify_vars_removed_;
    stats.simplify_clauses_removed = simplify_clauses_removed_;
    stats.simplify_micros = simplify_micros_;
    return stats;
  }

 private:
  /// One in-flight plan build: the latch concurrent missers wait on.
  struct Flight {
    util::Mutex mutex;
    util::CondVar cv;
    bool done GUARDED_BY(mutex) = false;
    std::shared_ptr<const provenance::QueryPlan> plan GUARDED_BY(mutex);
  };

  /// The counted, LRU-bumping lookup behind GetOrBuild (mutex_ held).
  std::shared_ptr<const provenance::QueryPlan> GetLocked(
      datalog::FactId target) REQUIRES(mutex_) {
    auto it = index_.find(target);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);  // bump to most-recent
    return it->second->second;
  }

  /// Put with mutex_ already held (shared by Put and GetOrBuild).
  void PutLocked(datalog::FactId target,
                 std::shared_ptr<const provenance::QueryPlan> plan)
      REQUIRES(mutex_) {
    if (capacity_ == 0) return;
    auto it = index_.find(target);
    if (it != index_.end()) {
      it->second->second = std::move(plan);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(target, std::move(plan));
    index_.emplace(target, lru_.begin());
    if (lru_.size() > capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++evictions_;
    }
  }
  using LruEntry = std::pair<datalog::FactId,
                             std::shared_ptr<const provenance::QueryPlan>>;

  const std::size_t capacity_;
  mutable util::Mutex mutex_;
  /// front = most recently used
  std::list<LruEntry> lru_ GUARDED_BY(mutex_);
  std::unordered_map<datalog::FactId, std::list<LruEntry>::iterator> index_
      GUARDED_BY(mutex_);
  /// In-flight builds by target (see GetOrBuild).
  std::unordered_map<datalog::FactId, std::shared_ptr<Flight>> flights_
      GUARDED_BY(mutex_);
  std::size_t hits_ GUARDED_BY(mutex_) = 0;
  std::size_t misses_ GUARDED_BY(mutex_) = 0;
  std::size_t evictions_ GUARDED_BY(mutex_) = 0;
  std::size_t invalidated_ GUARDED_BY(mutex_) = 0;
  std::size_t coalesced_ GUARDED_BY(mutex_) = 0;
  std::uint64_t plans_simplified_ GUARDED_BY(mutex_) = 0;
  std::uint64_t simplify_vars_removed_ GUARDED_BY(mutex_) = 0;
  std::uint64_t simplify_clauses_removed_ GUARDED_BY(mutex_) = 0;
  std::uint64_t simplify_micros_ GUARDED_BY(mutex_) = 0;
};

}  // namespace whyprov

#endif  // WHYPROV_ENGINE_PLAN_CACHE_H_
