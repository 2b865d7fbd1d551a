#ifndef PROVBENCH_COMMON_H_
#define PROVBENCH_COMMON_H_

// Small shared pieces of the benchmark: the run clock, the content hash
// the answer oracle compares, and percentile arithmetic.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

namespace provbench {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary fixed epoch (steady clock).
inline double Now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// FNV-1a over a sequence of members, each a sequence of rendered facts.
/// Separators keep ["ab"] and ["a", "b"] apart, so equal hashes mean
/// byte-identical member lists (up to 64-bit collisions).
class MemberHash {
 public:
  void AddFact(std::string_view fact) {
    for (char c : fact) Mix(static_cast<unsigned char>(c));
    Mix(0x1f);
  }
  void EndMember() { Mix(0x1e); }
  std::uint64_t value() const { return hash_; }

 private:
  void Mix(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The q-quantile (0..1) of `values` by the nearest-rank rule; 0 when
/// empty. Sorts a copy.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace provbench

#endif  // PROVBENCH_COMMON_H_
