#ifndef WHYPROV_NET_WIRE_H_
#define WHYPROV_NET_WIRE_H_

// The length-prefixed binary wire protocol of the network serving tier.
//
// Every frame on the socket is
//
//   u32 length (LE)  — byte count of what follows: type + body
//   u8  type         — kFrame* below
//   body             — type-specific, encoded with the primitives here
//
// Primitives: unsigned integers are little-endian; f64 is the IEEE-754
// bit pattern as a u64; a string is u32 length + raw bytes; a list is
// u32 count + elements. A "member" is a list of rendered fact strings.
//
// Request frames (client -> server) all begin with a u64 request_id the
// client picks; responses echo it. The server answers every request on
// one connection in submission order: for a streaming enumeration, zero
// or more kFrameMembers batches followed by exactly one kFrameFinal;
// for everything else exactly one kFrameFinal (or kFrameStatsReply).
// kFrameError is connection-level — a malformed, oversized, or unknown
// frame is answered with it and the connection is closed.
//
// Framing errors (truncated/oversized/unknown) are detected before any
// body decoding, so a bad client cannot wedge a session past its own
// connection. The maximum frame size is kMaxFrameBytes on both sides.
//
// Encode/Decode pairs below are exactly symmetric — tests round-trip
// every frame kind through them, and the server/client share them, so
// there is a single definition of the byte layout.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/whyprov_c.h"
#include "util/socket.h"
#include "util/status.h"
#include "util/wire_format.h"

namespace whyprov::net {

/// Frame type bytes. Requests have the high bit clear, responses set.
enum FrameType : std::uint8_t {
  kFrameEnumerate = 0x01,
  kFrameDecide = 0x02,
  kFrameExplain = 0x03,
  kFrameDelta = 0x04,
  kFrameStats = 0x05,
  kFrameMembers = 0x81,
  kFrameFinal = 0x82,
  kFrameError = 0x83,
  kFrameStatsReply = 0x84,
};

/// Hard ceiling on one frame's length field (type + body). Large
/// enumerations stream as many small member batches, so frames stay
/// modest; anything beyond this is a protocol violation, not data.
inline constexpr std::uint32_t kMaxFrameBytes = 16u * 1024 * 1024;

/// Largest `batch_size` a streaming enumeration (stream = 1) may ask
/// for. The server buffers up to one batch of members per request before
/// writing it, so an uncapped size would let a client turn backpressure
/// off; a larger value is answered with an INVALID_ARGUMENT final frame.
inline constexpr std::uint32_t kMaxBatchSize = 1024;

/// Members per kFrameMembers batch when a streaming enumeration's
/// `batch_size` is 0.
inline constexpr std::uint32_t kDefaultBatchSize = 8;

/// In-flight tickets one server connection may hold (queued + being
/// served); the server's reader stops parsing past it until responses
/// drain.
inline constexpr std::size_t kMaxSessionTickets = 64;

// --- low-level primitives --------------------------------------------------

// The little-endian encode/decode primitives live in
// util/wire_format.h so the on-disk storage formats (src/storage/) can
// share them without depending on the network tier; these aliases keep
// the net-facing spelling stable.
using WireWriter = util::WireWriter;
using WireReader = util::WireReader;

/// Writes one framed message (length prefix + type + body) to `socket`.
util::Status WriteFrame(util::Socket& socket, std::uint8_t type,
                        std::string_view body);

/// Reads one framed message. kNotFound = clean EOF at a frame boundary
/// (the peer hung up); kInvalidArgument = a length field of zero or over
/// kMaxFrameBytes; kUnknown = mid-frame EOF or socket error.
util::Status ReadFrame(util::Socket& socket, std::uint8_t* type,
                       std::string* body);

// --- request frames --------------------------------------------------------

// Every request frame ends with the appended QoS identity fields
// (compatibility appendix of docs/WIRE_PROTOCOL.md: fields are only ever
// appended): `qos_class` u8 (0 interactive / 1 batch; anything else is
// malformed) then `tenant` string ("" = the shared default tenant). A
// frame that ends before them decodes with the defaults, so pre-QoS
// clients keep working unchanged.

struct EnumerateFrame {
  std::uint64_t request_id = 0;
  std::string target;
  std::uint64_t max_members = 0;  ///< 0 = unlimited
  double deadline_seconds = 0;    ///< <= 0 = none; server maps to token
  std::uint8_t stream = 0;        ///< 1 = member-batch frames, 0 = in final
  std::uint32_t batch_size = 0;   ///< members per kFrameMembers; 0 = default
  std::uint8_t qos_class = WHYPROV_QOS_INTERACTIVE;  ///< appended
  std::string tenant;                                ///< appended
};

struct DecideFrame {
  std::uint64_t request_id = 0;
  std::string target;
  std::uint8_t tree_class = WHYPROV_TREE_UNAMBIGUOUS;
  std::vector<std::string> candidate_facts;
  double deadline_seconds = 0;
  std::uint8_t qos_class = WHYPROV_QOS_INTERACTIVE;  ///< appended
  std::string tenant;                                ///< appended
};

struct ExplainFrame {
  std::uint64_t request_id = 0;
  std::string target;
  std::uint64_t member_index = 0;
  double deadline_seconds = 0;
  std::uint8_t qos_class = WHYPROV_QOS_INTERACTIVE;  ///< appended
  std::string tenant;                                ///< appended
};

struct DeltaFrame {
  std::uint64_t request_id = 0;
  std::vector<std::string> added_facts;
  std::vector<std::string> removed_facts;
  double deadline_seconds = 0;
  std::uint8_t qos_class = WHYPROV_QOS_INTERACTIVE;  ///< appended
  std::string tenant;                                ///< appended
};

struct StatsFrame {
  std::uint64_t request_id = 0;
};

// --- response frames -------------------------------------------------------

/// One batch of streamed members (enumeration with stream = 1).
struct MembersFrame {
  std::uint64_t request_id = 0;
  std::vector<std::vector<std::string>> members;
};

/// The terminal response of one request. `kind` echoes the request's
/// frame type; the kind-specific payload is only meaningful for it.
struct FinalFrame {
  std::uint64_t request_id = 0;
  std::uint8_t status_code = WHYPROV_OK;
  std::string status_message;
  std::uint8_t kind = kFrameEnumerate;
  std::uint64_t model_version = 0;

  // kFrameEnumerate
  std::uint64_t members_emitted = 0;
  std::uint8_t enumerate_flags = 0;  ///< WHYPROV_ENUM_* bitmask
  std::vector<std::vector<std::string>> members;  ///< materialised mode only

  // kFrameDecide
  std::uint8_t verdict = 0;

  // kFrameExplain
  std::uint8_t has_explanation = 0;
  std::vector<std::string> explanation_member;
  std::string proof_tree;

  // kFrameDelta
  std::uint8_t has_delta = 0;
  whyprov_delta_stats delta = {};
};

/// Connection-level failure (malformed frame, unknown type, over-cap
/// in-flight): the server sends one and closes the connection.
struct ErrorFrame {
  std::uint64_t request_id = 0;  ///< 0 when no request could be identified
  std::uint8_t status_code = WHYPROV_UNKNOWN;
  std::string message;
};

/// One per-tenant/per-lane stats row of the appended StatsReply section
/// (mirrors whyprov_tenant_stats without the fixed-size name buffer).
struct WireTenantStats {
  std::string tenant;
  std::uint8_t qos_class = WHYPROV_QOS_INTERACTIVE;
  std::uint64_t queued = 0;
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cancelled = 0;
  double cost_served = 0;
  double queue_p50_seconds = 0;
  double queue_p99_seconds = 0;
};

struct StatsReplyFrame {
  std::uint64_t request_id = 0;
  whyprov_stats stats = {};
  /// Appended section (u32 count + rows); absent in pre-QoS frames.
  std::vector<WireTenantStats> tenants;
};

// --- encode/decode (exactly symmetric per kind) ----------------------------

std::string Encode(const EnumerateFrame& frame);
std::string Encode(const DecideFrame& frame);
std::string Encode(const ExplainFrame& frame);
std::string Encode(const DeltaFrame& frame);
std::string Encode(const StatsFrame& frame);
std::string Encode(const MembersFrame& frame);
std::string Encode(const FinalFrame& frame);
std::string Encode(const ErrorFrame& frame);
std::string Encode(const StatsReplyFrame& frame);

util::Result<EnumerateFrame> DecodeEnumerate(std::string_view body);
util::Result<DecideFrame> DecodeDecide(std::string_view body);
util::Result<ExplainFrame> DecodeExplain(std::string_view body);
util::Result<DeltaFrame> DecodeDelta(std::string_view body);
util::Result<StatsFrame> DecodeStats(std::string_view body);
util::Result<MembersFrame> DecodeMembers(std::string_view body);
util::Result<FinalFrame> DecodeFinal(std::string_view body);
util::Result<ErrorFrame> DecodeError(std::string_view body);
util::Result<StatsReplyFrame> DecodeStatsReply(std::string_view body);

}  // namespace whyprov::net

#endif  // WHYPROV_NET_WIRE_H_
