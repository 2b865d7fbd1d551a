#ifndef WHYPROV_WHYPROV_H_
#define WHYPROV_WHYPROV_H_

/// Umbrella header: the public API of the why-provenance engine.
///
/// Everything an application needs is reachable from here — examples,
/// benchmarks, and external users include only this header (plus
/// scenarios/ for the generated workloads) and talk to `whyprov::Engine`:
///
///   auto engine = whyprov::Engine::FromText(program, database, "path");
///   auto enumeration =
///       engine.value().Enumerate({.target_text = "path(a, c)"});
///   for (const auto& member : enumeration.value()) { ... }
///
/// See README.md for a quickstart and the backend-registration recipe.

// The serving front door: Service (submission-based async API with
// admission control), Ticket, the streaming MemberStream, and the
// unified Request/Response pair with deadlines and cancellation.
#include "service/service.h"

// The facade: Engine, EngineOptions, the request/response structs, the
// Enumeration handle, PreparedQuery (compile-once/execute-many plans), and
// the plan cache.
#include "engine/engine.h"
#include "engine/plan_cache.h"

// Datalog surface types reachable from Engine results (facts, programs,
// symbol tables, pretty-printing).
#include "datalog/ast.h"
#include "datalog/database.h"
#include "datalog/parser.h"
#include "datalog/program.h"

// Provenance vocabulary: proof trees/DAGs, tree classes, families, the
// Graphviz export, and the non-recursive FO rewriting.
#include "provenance/dot_export.h"
#include "provenance/fo_rewriting.h"
#include "provenance/proof_dag.h"
#include "provenance/proof_tree.h"

// Advanced/diagnostic surface: direct access to the downward closure, the
// CNF encoding, shareable query plans, and the SAT backend registry.
#include "provenance/cnf_encoder.h"
#include "provenance/downward_closure.h"
#include "provenance/query_plan.h"
#include "sat/cnf_formula.h"
#include "sat/solver_factory.h"
#include "sat/solver_interface.h"

// Error handling, cancellation/deadlines, the worker-pool executor,
// timing, and deterministic randomness.
#include "util/cancellation.h"
#include "util/executor.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/timer.h"

#endif  // WHYPROV_WHYPROV_H_
