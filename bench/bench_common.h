#ifndef WHYPROV_BENCH_BENCH_COMMON_H_
#define WHYPROV_BENCH_BENCH_COMMON_H_

// Shared definitions for the benchmark harness: the canonical scenario
// suite (the repository's scaled-down stand-in for the paper's Table 1
// datasets) and helpers to run the two measured pipelines.
//
// Scale note: the paper's databases range from 26.5K to 44M facts and were
// processed by DLV + Glucose on a 32GB machine; this repository's
// generators are scaled so the whole suite runs in minutes in CI while
// spanning more than an order of magnitude per scenario. EXPERIMENTS.md
// records the mapping.

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "scenarios/scenarios.h"

namespace whyprov::bench {

/// Shared command-line flags of the standalone JSON benchmarks
/// (bench_throughput, bench_incremental, bench_service).
struct BenchFlags {
  std::size_t requests = 0;  ///< 0 = binary default
  std::size_t reps = 0;      ///< 0 = binary default
  std::string out;           ///< empty = binary default
};

/// Parses `--requests=N`, `--reps=R`, `--out=PATH`, and the
/// legacy positional output path into `flags` (leaving unset fields at
/// their incoming defaults). `--help`/`-h` prints the usage (with the
/// binary's baked-in defaults) to stdout and exits 0. Returns false —
/// after printing the usage to stderr — on unknown flags or non-positive
/// numeric values.
inline bool ParseBenchFlags(int argc, char** argv, const char* binary_name,
                            BenchFlags& flags) {
  // A binary that leaves flags.requests at 0 has no workload-size knob,
  // so the usage omits --requests for it (it would be parsed but unused).
  const bool has_requests = flags.requests > 0;
  const auto usage = [&](std::FILE* out) {
    std::fprintf(out, "usage: %s %s[--reps=R] [--out=PATH]\n", binary_name,
                 has_requests ? "[--requests=N] " : "");
    if (has_requests) {
      std::fprintf(out,
                   "  --requests=N   workload size per configuration "
                   "(default %zu)\n",
                   flags.requests);
    }
    std::fprintf(out,
                 "  --reps=R       repetitions; the best rep is reported "
                 "(default %zu)\n"
                 "  --out=PATH     output JSON path (default %s; a bare\n"
                 "                 positional argument also works)\n"
                 "  %s must be positive\n",
                 flags.reps, flags.out.c_str(), has_requests ? "N and R" : "R");
  };
  const auto positive = [](const char* text, std::size_t& value) {
    const long long parsed = std::atoll(text);
    if (parsed <= 0) return false;
    value = static_cast<std::size_t>(parsed);
    return true;
  };
  bool ok = true;
  for (int i = 1; i < argc && ok; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(stdout);
      std::exit(0);
    } else if (std::strncmp(arg, "--requests=", 11) == 0) {
      ok = positive(arg + 11, flags.requests);
    } else if (std::strncmp(arg, "--reps=", 7) == 0) {
      ok = positive(arg + 7, flags.reps);
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      flags.out = arg + 6;
    } else if (arg[0] != '-') {
      flags.out = arg;  // legacy positional output path
    } else {
      ok = false;
    }
  }
  if (!ok) usage(stderr);
  return ok;
}

/// One database configuration of a scenario family.
struct SuiteEntry {
  std::string scenario;   ///< e.g. "Andersen"
  std::string database;   ///< e.g. "D3"
  std::function<scenarios::GeneratedScenario()> make;
};

inline constexpr std::uint64_t kSuiteSeed = 20240611;

/// The TransClosure family: a sparse transaction-like graph (Bitcoin
/// stand-in) and a dense social-circles graph (Facebook stand-in).
inline std::vector<SuiteEntry> TransClosureSuite() {
  return {
      {"TransClosure", "Dbitcoin~",
       [] {
         return scenarios::MakeTransClosure(scenarios::GraphKind::kSparse,
                                            3000, 4500, kSuiteSeed);
       }},
      {"TransClosure", "Dfacebook~",
       [] {
         return scenarios::MakeTransClosure(scenarios::GraphKind::kSocial,
                                            192, 600, kSuiteSeed);
       }},
  };
}

/// Doctors-1..7 share one database scale.
inline std::vector<SuiteEntry> DoctorsSuite() {
  std::vector<SuiteEntry> suite;
  for (int variant = 1; variant <= 7; ++variant) {
    suite.push_back(SuiteEntry{
        "Doctors-" + std::to_string(variant), "D1", [variant] {
          return scenarios::MakeDoctors(variant, 2000, kSuiteSeed);
        }});
  }
  return suite;
}

/// Galen at four ontology sizes (the paper's D1..D4).
inline std::vector<SuiteEntry> GalenSuite() {
  std::vector<SuiteEntry> suite;
  const std::size_t sizes[] = {40, 70, 100, 140};
  int index = 0;
  for (std::size_t size : sizes) {
    suite.push_back(SuiteEntry{"Galen", "D" + std::to_string(++index),
                               [size] {
                                 return scenarios::MakeGalen(size, kSuiteSeed);
                               }});
  }
  return suite;
}

/// Andersen at five program sizes (the paper's D1..D5).
inline std::vector<SuiteEntry> AndersenSuite() {
  std::vector<SuiteEntry> suite;
  const std::size_t sizes[] = {2000, 4000, 8000, 16000, 32000};
  int index = 0;
  for (std::size_t size : sizes) {
    suite.push_back(
        SuiteEntry{"Andersen", "D" + std::to_string(++index), [size] {
                     return scenarios::MakeAndersen(size, kSuiteSeed);
                   }});
  }
  return suite;
}

/// CSDA at three system sizes (httpd / postgresql / linux stand-ins).
inline std::vector<SuiteEntry> CsdaSuite() {
  return {
      {"CSDA", "Dhttpd~",
       [] { return scenarios::MakeCsda("httpd", 4000, kSuiteSeed); }},
      {"CSDA", "Dpostgresql~",
       [] { return scenarios::MakeCsda("postgresql", 8000, kSuiteSeed); }},
      {"CSDA", "Dlinux~",
       [] { return scenarios::MakeCsda("linux", 16000, kSuiteSeed); }},
  };
}

/// Everything, in the paper's Table 1 order.
inline std::vector<SuiteEntry> FullSuite() {
  std::vector<SuiteEntry> suite;
  for (auto& entry : TransClosureSuite()) suite.push_back(entry);
  for (auto& entry : DoctorsSuite()) suite.push_back(entry);
  for (auto& entry : GalenSuite()) suite.push_back(entry);
  for (auto& entry : AndersenSuite()) suite.push_back(entry);
  for (auto& entry : CsdaSuite()) suite.push_back(entry);
  return suite;
}

/// The paper samples five answer tuples per database, uniformly.
inline constexpr std::size_t kTuplesPerDatabase = 5;

/// Enumeration caps (the paper: 10K members or 5 minutes; scaled down).
inline constexpr std::size_t kMaxMembersPerTuple = 1000;
inline constexpr double kEnumerationTimeoutSeconds = 30.0;

}  // namespace whyprov::bench

#endif  // WHYPROV_BENCH_BENCH_COMMON_H_
