#ifndef WHYPROV_TESTS_WORKSPACE_H_
#define WHYPROV_TESTS_WORKSPACE_H_

// Shared test helpers: parse a program and a database into one workspace,
// and compile a query plan the way the engine does.

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/database.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog/program.h"
#include "provenance/cnf_encoder.h"
#include "provenance/query_plan.h"
#include "sat/simplify.h"

namespace whyprov::testing {

struct Workspace {
  std::shared_ptr<datalog::SymbolTable> symbols;
  datalog::Program program;
  datalog::Database database;

  datalog::Fact ParseFact(const std::string& text) const {
    auto fact = datalog::Parser::ParseFact(symbols, text);
    EXPECT_TRUE(fact.ok()) << fact.status().message();
    return std::move(fact).value();
  }
};

inline Workspace MakeWorkspace(const char* program_text,
                               const char* database_text) {
  auto symbols = std::make_shared<datalog::SymbolTable>();
  auto program = datalog::Parser::ParseProgram(symbols, program_text);
  EXPECT_TRUE(program.ok()) << program.status().message();
  auto database = datalog::Parser::ParseDatabase(symbols, database_text);
  EXPECT_TRUE(database.ok()) << database.status().message();
  return Workspace{symbols, std::move(program).value(),
                   std::move(database).value()};
}

/// Compiles the unsimplified plan of `target` (a fact id of `model`, the
/// least model of `program`'s database): what the engine serves with
/// EngineOptions::plan_simplify = kOff. For tests that drive the
/// provenance layer (WhyProvenanceEnumerator, IsWhyUnMemberPrepared)
/// without an engine.
inline std::shared_ptr<const provenance::QueryPlan> BuildPlan(
    const datalog::Program& program, const datalog::Model& model,
    datalog::FactId target,
    const provenance::CnfEncoder::Options& options = {}) {
  return provenance::QueryPlan::Build(program, model, target, options,
                                      sat::SimplifyMode::kOff);
}

/// Renders a provenance member (set of facts) as a canonical string like
/// "{S(a), T(a, a, d)}" for readable assertions.
inline std::string MemberToString(const std::vector<datalog::Fact>& member,
                                  const datalog::SymbolTable& symbols) {
  std::string out = "{";
  for (std::size_t i = 0; i < member.size(); ++i) {
    if (i > 0) out += ", ";
    out += datalog::FactToString(member[i], symbols);
  }
  out += "}";
  return out;
}

/// Renders a whole family as a set of canonical member strings.
inline std::set<std::string> FamilyToStrings(
    const std::set<std::vector<datalog::Fact>>& family,
    const datalog::SymbolTable& symbols) {
  std::set<std::string> out;
  for (const auto& member : family) {
    out.insert(MemberToString(member, symbols));
  }
  return out;
}

}  // namespace whyprov::testing

#endif  // WHYPROV_TESTS_WORKSPACE_H_
