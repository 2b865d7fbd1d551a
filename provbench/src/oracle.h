#ifndef PROVBENCH_ORACLE_H_
#define PROVBENCH_ORACLE_H_

// The answer oracle: an in-process engine built from the exact program
// and database text the served stack gets, so symbol ids, fact ids and
// therefore enumeration order and rendering agree byte for byte.
//
// Verification replays the writer's recorded deltas in model-version
// order and checks every read at the version its response reports. A
// read of a target the current delta made underivable is correct exactly
// when the oracle also finds it underivable at that version. Expected
// answers are memoised per target and reused while the oracle's engine
// keeps the same cached plan for it (the engine carries a plan across a
// delta only when the delta touched nothing in its closure).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "util/status.h"
#include "workload.h"

namespace provbench {

/// What one request returned, reduced to what the oracle compares: the
/// status code and a hash of the payload (the Enumerate member list, the
/// Decide verdict, or the Explain member).
struct Outcome {
  std::uint8_t status = 0;  ///< whyprov_status value
  std::uint64_t hash = 0;
};

/// One completed request as a transport saw it.
struct Record {
  Request request;
  /// Model version the response reports. A read that failed before it
  /// pinned a snapshot (an underivable target) reports 0; the oracle then
  /// accepts it at any version live between `send` and `end`.
  std::uint64_t version = 0;
  Outcome outcome;
  double send = 0;
  double end = 0;
};

class Oracle {
 public:
  static whyprov::util::Result<std::unique_ptr<Oracle>> Create(
      const Workload& workload);

  whyprov::Engine& engine() { return engine_; }

  /// Sizes the per-target memo (call once the targets are known).
  void Reserve(std::size_t targets) { memo_.resize(targets); }

  /// The expected outcome of read `request` at the current version.
  Outcome Expect(const Workload& workload, const Request& request);

  /// Applies the delta `request` names; returns the new model version.
  whyprov::util::Result<std::uint64_t> Apply(const Workload& workload,
                                             const Request& request);

 private:
  explicit Oracle(whyprov::Engine engine)
      : engine_(std::move(engine)), base_version_(engine_.model_version()) {}

  struct Memo {
    std::shared_ptr<const whyprov::provenance::QueryPlan> plan;
    /// The plan is the one the known members were learned under, so each
    /// known member is a member by construction.
    bool base = false;
    std::uint8_t status = 0;  ///< Prepare's status when not derivable
    std::vector<std::vector<std::string>> members;
    std::vector<std::int8_t> verdicts;  ///< per known member; -1 = unknown
  };
  Memo& Refresh(const Workload& workload, std::uint32_t target);

  whyprov::Engine engine_;
  std::uint64_t base_version_;
  std::vector<Memo> memo_;
};

/// The first `cap` members of `target`'s family in `engine` at its current
/// version, rendered. `propagations` (optional) receives the solver's
/// propagation count: a deterministic measure of the enumeration's work.
whyprov::util::Result<std::vector<std::vector<std::string>>> FirstMembers(
    const whyprov::Engine& engine, const std::string& target,
    std::uint32_t cap, std::uint64_t* propagations = nullptr);

/// Hash of the first `count` members of `members`.
std::uint64_t HashMembers(const std::vector<std::vector<std::string>>& members,
                          std::size_t count);

/// Result of checking one transport's records.
struct Verdict {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
};

/// Checks every record against `oracle` (a fresh one, at the base
/// version), replaying the recorded deltas in version order: a read must
/// match the oracle at its reported version, or — when it reports none —
/// at some version live while it was in flight. Reports the first few
/// mismatches on stderr.
Verdict Verify(const Workload& workload, std::vector<Record> records,
               Oracle& oracle);

}  // namespace provbench

#endif  // PROVBENCH_ORACLE_H_
