#ifndef WHYPROV_QOS_QOS_H_
#define WHYPROV_QOS_QOS_H_

// Multi-tenant quality-of-service primitives of the serving stack. This
// library deliberately links against whyprov_util ONLY: the scheduler
// plugs into util::Executor's TaskQueue interface and the tenant
// registry is plain counters, so the service layer uses both without
// new cross-layer dependencies.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace whyprov::qos {

/// The two priority lanes. Interactive traffic is served with
/// strict-ish priority; batch traffic is kept starvation-free by a
/// periodic escape hatch (see FairScheduler). Values mirror
/// util::TaskTag::lane and the wire/C-ABI `qos_class` byte.
enum class QosClass : std::uint8_t {
  kInteractive = 0,
  kBatch = 1,
};

/// Number of lanes (for per-lane arrays).
inline constexpr std::size_t kNumLanes = 2;

/// Longest tenant name a request may carry; Service::Submit refuses a
/// longer one with kInvalidArgument. It fits the C ABI's
/// `whyprov_tenant_stats.tenant` buffer with its NUL.
inline constexpr std::size_t kMaxTenantBytes = 63;

/// The reserved tenant name of the registry's overflow row, which counts
/// every tenant name that arrived after the registry was full. Submit
/// refuses it as a request's tenant.
inline constexpr std::string_view kOverflowTenant = "(overflow)";

}  // namespace whyprov::qos

#endif  // WHYPROV_QOS_QOS_H_
