#ifndef PROVBENCH_TRANSPORT_H_
#define PROVBENCH_TRANSPORT_H_

// Three ways to send one generated request, one per measured path:
//
//   WireCaller      — over a loopback socket to net::Server, with the
//                     public net::Client's frame-level calls (end to end).
//   ServiceCaller   — Service::Submit -> Ticket::Wait, then rendering
//                     the members as the server's ABI would (no socket).
//   InProcessCaller — straight through the engine's public calls, one
//                     span per call, with the write path's storage calls
//                     made against a DurableStore of its own.
//
// A caller serves one thread. Every call returns the Record the oracle
// checks plus the timestamps the load generator turns into latencies.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "net/client.h"
#include "oracle.h"
#include "service/service.h"
#include "storage/durable_store.h"
#include "trace.h"
#include "workload.h"

namespace provbench {

/// Wire and service deadline of every request: generous, so it only
/// fires on a wedged request (which then counts as deadline-missed).
inline constexpr double kRequestDeadlineSeconds = 20;

struct CallResult {
  Record record;
  double send = 0;          ///< request handed to the transport
  double first_member = 0;  ///< first member arrived (0 = none)
  double end = 0;           ///< final frame / response consumed
  std::size_t bytes = 0;    ///< wire bytes, both directions (wire only)
  std::size_t frames = 0;   ///< wire frames, both directions (wire only)
  double queue_seconds = 0;  ///< service only (Response.queue_seconds)
  double exec_seconds = 0;   ///< service only (Response.exec_seconds)
};

class Caller {
 public:
  virtual ~Caller() = default;
  virtual CallResult Call(const Request& request) = 0;
};

class WireCaller final : public Caller {
 public:
  /// `tracer` (may be null) gets one root span per request with the
  /// send and receive halves as children.
  WireCaller(const Workload& workload, whyprov::net::Client client,
             Tracer* tracer)
      : workload_(workload), client_(std::move(client)), tracer_(tracer) {}
  CallResult Call(const Request& request) override;

 private:
  const Workload& workload_;
  whyprov::net::Client client_;
  Tracer* tracer_;
};

class ServiceCaller final : public Caller {
 public:
  ServiceCaller(const Workload& workload, whyprov::Service& service)
      : workload_(workload), service_(service) {}
  CallResult Call(const Request& request) override;

 private:
  const Workload& workload_;
  whyprov::Service& service_;
};

/// Counts the in-process path gathers beside its spans.
struct LayerCounts {
  std::size_t plans_built = 0;
  double closure_facts = 0;     ///< summed over plans built
  double cnf_clauses = 0;       ///< encoder output, summed over plans built
  double clauses_removed = 0;   ///< by simplify, summed over plans built
  std::size_t enumerations = 0;
  double conflicts = 0;         ///< summed over enumerations
  double propagations = 0;      ///< summed over enumerations
  std::size_t deltas = 0;
  double facts_touched = 0;     ///< summed over deltas
  double plans_invalidated = 0;  ///< summed over deltas
};

class InProcessCaller final : public Caller {
 public:
  /// `store` receives every delta before the engine applies it, and a
  /// checkpoint whenever it asks for one, as the service's write path
  /// does.
  InProcessCaller(const Workload& workload, whyprov::Engine& engine,
                  whyprov::storage::DurableStore& store, Tracer& tracer)
      : workload_(workload), engine_(engine), store_(store), tracer_(tracer) {}
  CallResult Call(const Request& request) override;

  const LayerCounts& counts() const { return counts_; }

 private:
  void Read(const Request& request, std::uint32_t root, CallResult& result);
  void Write(const Request& request, std::uint32_t root, CallResult& result);
  void Render(const std::vector<whyprov::datalog::Fact>& member,
              std::uint32_t root);

  const Workload& workload_;
  whyprov::Engine& engine_;
  whyprov::storage::DurableStore& store_;
  Tracer& tracer_;
  LayerCounts counts_;
  std::uint64_t requests_ = 0;
  /// The current request's members as rendered (hashed after its span).
  std::vector<std::vector<std::string>> rendered_;
};

}  // namespace provbench

#endif  // PROVBENCH_TRANSPORT_H_
