#ifndef WHYPROV_SAT_DIMACS_H_
#define WHYPROV_SAT_DIMACS_H_

#include <string>
#include <string_view>
#include <vector>

#include "sat/cnf_formula.h"
#include "util/status.h"

namespace whyprov::sat {

/// Parses DIMACS CNF text ("p cnf <vars> <clauses>" header, 'c' comments,
/// zero-terminated clauses). DIMACS variable i becomes variable i-1.
util::Result<CnfFormula> ParseDimacs(std::string_view text);

/// Renders a formula's variables and clauses as DIMACS CNF text (search
/// hints are not part of the format).
std::string WriteDimacs(const CnfFormula& formula);

/// Exhaustive truth-table satisfiability check (reference implementation
/// for property tests; practical up to ~24 variables). Returns a model as
/// sign-per-variable when satisfiable.
bool BruteForceSat(const CnfFormula& formula,
                   std::vector<bool>* model = nullptr);

}  // namespace whyprov::sat

#endif  // WHYPROV_SAT_DIMACS_H_
