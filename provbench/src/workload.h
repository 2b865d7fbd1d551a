#ifndef PROVBENCH_WORKLOAD_H_
#define PROVBENCH_WORKLOAD_H_

// The benchmark's workloads: which scenario each one serves, which
// answer targets it asks about, and the request streams its connections
// send. Everything a run sends is generated here from --seed; the
// served stack only ever sees the program text, the database text and
// the requests.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scenarios/scenarios.h"
#include "util/rng.h"
#include "util/status.h"

namespace provbench {

enum class Op : std::uint8_t { kEnumerate, kDecide, kExplain, kDelta };

/// One request of a generated stream. Reads name a target by its index
/// into Workload::targets; `member` is the Decide candidate's or the
/// Explain's member index; a delta is the `delta`-th of its sequence:
/// closure edges when `edge`, otherwise the probe fact.
struct Request {
  Op op = Op::kEnumerate;
  std::uint32_t target = 0;
  std::uint32_t member = 0;
  std::uint64_t delta = 0;
  bool edge = false;
};

/// The fixed shape of one workload.
struct Spec {
  const char* name;
  /// Builds the served scenario (its generator seed is fixed: --seed
  /// picks targets, churn facts and request order, not the database).
  whyprov::scenarios::GeneratedScenario (*make)();
  /// Answer targets the readers draw from uniformly; 0 = every answer,
  /// visited in a seeded cyclic order.
  std::size_t hot_targets;
  /// max_members of every Enumerate.
  std::uint32_t enumerate_cap;
  /// Open-loop offered rates (requests/s): all reader connections
  /// together, and the one writer connection.
  double read_rate;
  double write_rate;
  /// True: the writer removes and restores closure edges beside the
  /// readers, in both phases. False: the writer adds and removes
  /// `probe_fact`, which shares no constant with the database (so no
  /// answer and no cached plan changes), in a sub-phase of its own.
  bool churn;
  const char* probe_fact;
  /// How many distinct closure edges the edge pool holds.
  std::size_t edge_pool;
  /// Serve with the write-ahead log on (fsync off, default checkpoints).
  bool wal;
};

const std::vector<Spec>& Specs();
const Spec* FindSpec(std::string_view name);

/// Members per target the generator learns up front:
/// Decide candidates and Explain indices are drawn from them.
inline constexpr std::uint32_t kKnownMembers = 8;

struct Delta {
  std::vector<std::string> added;
  std::vector<std::string> removed;
};

/// One generated instance of a Spec.
struct Workload {
  const Spec* spec = nullptr;
  std::uint64_t seed = 0;
  std::string program_text;
  std::string database_text;
  std::string answer_predicate;
  std::vector<std::string> targets;
  /// Per target: its first members at the base version, rendered.
  std::vector<std::vector<std::vector<std::string>>> known;
  /// Per target: the solver propagations of one Enumerate at the cap, a
  /// deterministic measure of its cost (printed, so seeds can be compared).
  std::vector<std::uint64_t> work;
  /// Database facts in the closures of the first targets (seeded order),
  /// each with the index of a target whose closure holds it. The churn
  /// writer and the traced run's edge replay remove and restore them.
  std::vector<std::string> edges;
  std::vector<std::uint32_t> edge_targets;

  /// The delta `request` names. Deltas come in strict pairs: an even
  /// index removes an edge (or adds the probe fact), the odd index after
  /// it undoes that.
  Delta DeltaOf(const Request& request) const;

  /// Targets the setup warms with one Enumerate each: the hot set, or as
  /// many of the cycle as the plan cache holds.
  std::size_t WarmTargets() const;
};

/// Fills in the served inputs: the spec's scenario as program and
/// database text.
void RenderScenario(const Spec& spec, Workload& workload);

/// Completes a rendered workload for `seed`: samples the targets and
/// learns their known members and the churn edges from an engine built
/// from the rendered text, evaluating the candidate targets on `threads`
/// threads.
whyprov::util::Status Generate(std::uint64_t seed, std::size_t threads,
                               Workload& workload);

/// The read requests of one connection in one phase: in every block of
/// ten, seven Enumerates, two Decides and one Explain in a seeded order.
/// On a hot set each op cycles through its own seeded permutation of the
/// targets, so every run gives every target its share of every op rather
/// than a random draw; with every answer, one cursor cycles through them
/// all. Decide candidates and Explain indices cycle over the known members.
class ReaderStream {
 public:
  ReaderStream(const Workload& workload, std::uint64_t phase,
               std::size_t reader, std::size_t readers);
  Request Next();

 private:
  const Workload& workload_;
  whyprov::util::Rng rng_;
  std::vector<Op> block_;
  std::size_t in_block_ = 0;
  std::vector<std::uint32_t> order_;  ///< hot set: seeded permutation
  std::size_t cursor_ = 0;            ///< every answer: the shared cursor
  std::size_t per_op_[3] = {0, 0, 0};  ///< requests of each read op so far
};

}  // namespace provbench

#endif  // PROVBENCH_WORKLOAD_H_
