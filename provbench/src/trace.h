#ifndef PROVBENCH_TRACE_H_
#define PROVBENCH_TRACE_H_

// Spans recorded by the benchmark's own code around the calls it makes
// into each layer's public functions (nothing inside src/ is
// instrumented). A span has a name, a layer, start and end times, its
// parent span and the request it belongs to. Spans stay in memory and
// are written out when the run ends. A layer's self time is the time its
// spans cover minus the part their child spans cover.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace provbench {

/// The src/ modules a span can be attributed to; kRequest is the root
/// span of one request.
enum class Layer : std::uint8_t {
  kRequest,
  kNet,
  kService,
  kEngine,
  kProvenance,
  kSat,
  kDatalog,
  kStorage,
};
inline constexpr std::size_t kLayers = 8;
const char* LayerName(Layer layer);

struct Span {
  const char* name = "";
  Layer layer = Layer::kRequest;
  std::uint32_t parent = 0;  ///< 1 + index of the parent span; 0 = none
  std::uint64_t request = 0;
  double start = 0;
  double end = 0;
};

/// One thread's span buffer.
class Tracer {
 public:
  void StartRequest(std::uint64_t request) { request_ = request; }

  /// Opens a span now; returns its handle.
  std::uint32_t Begin(const char* name, Layer layer, std::uint32_t parent) {
    return Add(name, layer, parent, Now(), 0);
  }
  void End(std::uint32_t handle) {
    if (handle != 0) spans_[handle - 1].end = Now();
  }
  /// Records a span with known times (e.g. a phase a layer timed itself).
  std::uint32_t Add(const char* name, Layer layer, std::uint32_t parent,
                    double start, double end) {
    spans_.push_back(Span{name, layer, parent, request_, start, end});
    return static_cast<std::uint32_t>(spans_.size());
  }
  Span& at(std::uint32_t handle) { return spans_[handle - 1]; }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t request_ = 0;
  std::vector<Span> spans_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, Layer layer,
             std::uint32_t parent)
      : tracer_(tracer), handle_(tracer.Begin(name, layer, parent)) {}
  ~ScopedSpan() { tracer_.End(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t handle() const { return handle_; }

 private:
  Tracer& tracer_;
  std::uint32_t handle_;
};

/// Self time per layer, summed over `spans` (one tracer's buffer).
struct SelfTimes {
  std::array<double, kLayers> seconds{};
  double root_seconds = 0;  ///< total duration of the root spans
  std::size_t roots = 0;
};
SelfTimes ComputeSelfTimes(const std::vector<Span>& spans);

/// Durations (seconds) of every span named `name`.
std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name);

/// Writes `spans` as tab-separated lines: request, index, parent, layer,
/// name, start, end (seconds relative to the first span).
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace provbench

#endif  // PROVBENCH_TRACE_H_
