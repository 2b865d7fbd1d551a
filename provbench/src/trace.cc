#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace provbench {

const char* LayerName(Layer layer) {
  static const char* const kNames[kLayers] = {
      "request", "net", "service", "engine",
      "provenance", "sat", "datalog", "storage"};
  return kNames[static_cast<std::size_t>(layer)];
}

SelfTimes ComputeSelfTimes(const std::vector<Span>& spans) {
  // Children's intervals per parent, merged so overlaps count once.
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent - 1].emplace_back(span.start, span.end);
    }
  }
  SelfTimes self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double duration = span.end - span.start;
    std::vector<std::pair<double, double>>& covered = children[i];
    std::sort(covered.begin(), covered.end());
    double covered_seconds = 0;
    double reach = span.start;
    for (auto [start, end] : covered) {
      start = std::max(start, reach);
      end = std::min(end, span.end);
      if (end > start) {
        covered_seconds += end - start;
        reach = end;
      }
    }
    self.seconds[static_cast<std::size_t>(span.layer)] +=
        std::max(0.0, duration - covered_seconds);
    if (span.parent == 0) {
      self.root_seconds += duration;
      ++self.roots;
    }
  }
  return self;
}

std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name) {
  std::vector<double> durations;
  for (const Span& span : spans) {
    if (name == span.name) durations.push_back(span.end - span.start);
  }
  return durations;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const double epoch = spans.empty() ? 0 : spans.front().start;
  std::fprintf(out, "request\tspan\tparent\tlayer\tname\tstart_s\tend_s\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::fprintf(out, "%llu\t%zu\t%u\t%s\t%s\t%.9f\t%.9f\n",
                 static_cast<unsigned long long>(span.request), i + 1,
                 span.parent, LayerName(span.layer), span.name,
                 span.start - epoch, span.end - epoch);
  }
  return std::fclose(out) == 0;
}

}  // namespace provbench
