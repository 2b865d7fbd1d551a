#include "sat/dimacs.h"

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace whyprov::sat {

util::Result<CnfFormula> ParseDimacs(std::string_view text) {
  CnfFormula formula;
  std::istringstream in{std::string(text)};
  std::string token;
  bool header_seen = false;
  std::vector<Lit> clause;
  while (in >> token) {
    if (token == "c") {
      std::string rest;
      std::getline(in, rest);
      continue;
    }
    if (token == "p") {
      std::string kind;
      long vars = 0, clauses = 0;
      if (!(in >> kind >> vars >> clauses) || kind != "cnf") {
        return util::Status::Error("malformed DIMACS header");
      }
      formula.num_vars = static_cast<int>(vars);
      header_seen = true;
      continue;
    }
    if (!header_seen) {
      return util::Status::Error("DIMACS clause before 'p cnf' header");
    }
    char* end = nullptr;
    const long value = std::strtol(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0') {
      return util::Status::Error("malformed DIMACS literal '" + token + "'");
    }
    if (value == 0) {
      if (clause.empty()) formula.contains_empty_clause = true;
      formula.clauses.push_back(std::move(clause));
      clause.clear();
    } else {
      if (std::abs(value) > formula.num_vars) {
        return util::Status::Error("literal exceeds declared variable count");
      }
      clause.push_back(
          Lit::Make(static_cast<Var>(std::abs(value) - 1), value < 0));
    }
  }
  if (!clause.empty()) {
    return util::Status::Error("last clause not terminated by 0");
  }
  return formula;
}

std::string WriteDimacs(const CnfFormula& formula) {
  std::string out = "p cnf " + std::to_string(formula.num_vars) + " " +
                    std::to_string(formula.clauses.size()) + "\n";
  for (const std::vector<Lit>& clause : formula.clauses) {
    for (Lit lit : clause) {
      out += std::to_string(lit.negated() ? -(lit.var() + 1) : lit.var() + 1);
      out += ' ';
    }
    out += "0\n";
  }
  return out;
}

bool BruteForceSat(const CnfFormula& formula, std::vector<bool>* model) {
  const int n = formula.num_vars;
  for (std::uint64_t assignment = 0;
       assignment < (std::uint64_t{1} << n); ++assignment) {
    bool all_satisfied = true;
    for (const std::vector<Lit>& clause : formula.clauses) {
      bool satisfied = false;
      for (Lit lit : clause) {
        const bool value = (assignment >> lit.var()) & 1;
        if (value != lit.negated()) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied) {
        all_satisfied = false;
        break;
      }
    }
    if (all_satisfied) {
      if (model != nullptr) {
        model->assign(n, false);
        for (int v = 0; v < n; ++v) (*model)[v] = (assignment >> v) & 1;
      }
      return true;
    }
  }
  return false;
}

}  // namespace whyprov::sat
