#include "net/wire.h"

#include <cstring>
#include <utility>

namespace whyprov::net {

namespace {

util::Status Malformed(const char* what) {
  return util::Status::InvalidArgument(std::string("malformed frame: ") +
                                       what);
}

}  // namespace

// WireWriter/WireReader live in util/wire_format.cc (shared with the
// on-disk storage formats); this file only frames and encodes.

// --- framing ---------------------------------------------------------------

util::Status WriteFrame(util::Socket& socket, std::uint8_t type,
                        std::string_view body) {
  if (body.size() + 1 > kMaxFrameBytes) {
    return util::Status::InvalidArgument("frame exceeds kMaxFrameBytes");
  }
  const std::uint32_t length = static_cast<std::uint32_t>(body.size() + 1);
  std::string frame;
  frame.reserve(4 + length);
  for (int shift = 0; shift < 32; shift += 8) {
    frame.push_back(static_cast<char>((length >> shift) & 0xffu));
  }
  frame.push_back(static_cast<char>(type));
  frame.append(body.data(), body.size());
  return socket.SendAll(frame.data(), frame.size());
}

util::Status ReadFrame(util::Socket& socket, std::uint8_t* type,
                       std::string* body) {
  std::uint8_t header[4];
  if (auto status = socket.RecvAll(header, sizeof(header)); !status.ok()) {
    return status;  // kNotFound = clean EOF between frames
  }
  std::uint32_t length = 0;
  for (int shift = 0, i = 0; shift < 32; shift += 8, ++i) {
    length |= static_cast<std::uint32_t>(header[i]) << shift;
  }
  if (length == 0) return Malformed("zero-length frame");
  if (length > kMaxFrameBytes) {
    return util::Status::InvalidArgument(
        "frame length " + std::to_string(length) + " exceeds the cap of " +
        std::to_string(kMaxFrameBytes) + " bytes");
  }
  std::string payload(length, '\0');
  if (auto status = socket.RecvAll(payload.data(), payload.size());
      !status.ok()) {
    // Even a clean EOF here is mid-frame: the length prefix promised
    // more bytes.
    return status.code() == util::StatusCode::kNotFound
               ? util::Status::Error("connection closed mid-frame")
               : status;
  }
  *type = static_cast<std::uint8_t>(payload[0]);
  body->assign(payload, 1, payload.size() - 1);
  return util::Status::Ok();
}

// --- encode ----------------------------------------------------------------

namespace {

/// The appended QoS identity tail every request frame carries (see the
/// compatibility appendix: fields are only ever appended).
void PutQosTail(WireWriter& writer, std::uint8_t qos_class,
                const std::string& tenant) {
  writer.PutU8(qos_class);
  writer.PutString(tenant);
}

/// Reads the appended QoS identity if present; a frame ending at the
/// pre-QoS boundary keeps the defaults. A present-but-invalid class
/// poisons the decode through the canonicality check below.
bool GetQosTail(WireReader& reader, std::uint8_t* qos_class,
                std::string* tenant) {
  if (reader.exhausted()) return true;  // pre-QoS frame: defaults hold
  if (!reader.GetU8(qos_class)) return false;
  if (!reader.GetString(tenant)) return false;
  // The encoder only ever writes 0 or 1 (mirrors whyprov_qos_class);
  // anything else is a protocol violation, not a future lane.
  return *qos_class <= WHYPROV_QOS_BATCH;
}

}  // namespace

std::string Encode(const EnumerateFrame& frame) {
  WireWriter writer;
  writer.PutU64(frame.request_id);
  writer.PutString(frame.target);
  writer.PutU64(frame.max_members);
  writer.PutF64(frame.deadline_seconds);
  writer.PutU8(frame.stream);
  writer.PutU32(frame.batch_size);
  PutQosTail(writer, frame.qos_class, frame.tenant);
  return writer.Take();
}

std::string Encode(const DecideFrame& frame) {
  WireWriter writer;
  writer.PutU64(frame.request_id);
  writer.PutString(frame.target);
  writer.PutU8(frame.tree_class);
  writer.PutStringList(frame.candidate_facts);
  writer.PutF64(frame.deadline_seconds);
  PutQosTail(writer, frame.qos_class, frame.tenant);
  return writer.Take();
}

std::string Encode(const ExplainFrame& frame) {
  WireWriter writer;
  writer.PutU64(frame.request_id);
  writer.PutString(frame.target);
  writer.PutU64(frame.member_index);
  writer.PutF64(frame.deadline_seconds);
  PutQosTail(writer, frame.qos_class, frame.tenant);
  return writer.Take();
}

std::string Encode(const DeltaFrame& frame) {
  WireWriter writer;
  writer.PutU64(frame.request_id);
  writer.PutStringList(frame.added_facts);
  writer.PutStringList(frame.removed_facts);
  writer.PutF64(frame.deadline_seconds);
  PutQosTail(writer, frame.qos_class, frame.tenant);
  return writer.Take();
}

std::string Encode(const StatsFrame& frame) {
  WireWriter writer;
  writer.PutU64(frame.request_id);
  return writer.Take();
}

namespace {

void PutMembers(WireWriter& writer,
                const std::vector<std::vector<std::string>>& members) {
  writer.PutU32(static_cast<std::uint32_t>(members.size()));
  for (const auto& member : members) writer.PutStringList(member);
}

bool GetMembers(WireReader& reader,
                std::vector<std::vector<std::string>>* members) {
  std::uint32_t count = 0;
  if (!reader.GetU32(&count)) return false;
  members->clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::vector<std::string> member;
    if (!reader.GetStringList(&member)) return false;
    members->push_back(std::move(member));
  }
  return true;
}

}  // namespace

std::string Encode(const MembersFrame& frame) {
  WireWriter writer;
  writer.PutU64(frame.request_id);
  PutMembers(writer, frame.members);
  return writer.Take();
}

std::string Encode(const FinalFrame& frame) {
  WireWriter writer;
  writer.PutU64(frame.request_id);
  writer.PutU8(frame.status_code);
  writer.PutString(frame.status_message);
  writer.PutU8(frame.kind);
  writer.PutU64(frame.model_version);
  switch (frame.kind) {
    case kFrameEnumerate:
      writer.PutU64(frame.members_emitted);
      writer.PutU8(frame.enumerate_flags);
      PutMembers(writer, frame.members);
      break;
    case kFrameDecide:
      writer.PutU8(frame.verdict);
      break;
    case kFrameExplain:
      writer.PutU8(frame.has_explanation);
      if (frame.has_explanation) {
        writer.PutStringList(frame.explanation_member);
        writer.PutString(frame.proof_tree);
      }
      break;
    case kFrameDelta:
      writer.PutU8(frame.has_delta);
      if (frame.has_delta) {
        writer.PutU64(frame.delta.model_version);
        writer.PutU64(frame.delta.facts_added);
        writer.PutU64(frame.delta.facts_removed);
        writer.PutU64(frame.delta.facts_derived);
        writer.PutU64(frame.delta.facts_deleted);
        writer.PutU64(frame.delta.facts_rederived);
        writer.PutU64(frame.delta.facts_touched);
        writer.PutU64(frame.delta.plans_retained);
        writer.PutU64(frame.delta.plans_invalidated);
      }
      break;
    default:
      break;
  }
  return writer.Take();
}

std::string Encode(const ErrorFrame& frame) {
  WireWriter writer;
  writer.PutU64(frame.request_id);
  writer.PutU8(frame.status_code);
  writer.PutString(frame.message);
  return writer.Take();
}

std::string Encode(const StatsReplyFrame& frame) {
  WireWriter writer;
  writer.PutU64(frame.request_id);
  writer.PutU64(frame.stats.submitted);
  writer.PutU64(frame.stats.rejected);
  writer.PutU64(frame.stats.completed);
  writer.PutU64(frame.stats.succeeded);
  writer.PutU64(frame.stats.cancelled);
  writer.PutU64(frame.stats.deadline_exceeded);
  writer.PutU64(frame.stats.failed);
  writer.PutU64(frame.stats.members_delivered);
  writer.PutU64(frame.stats.queue_depth);
  writer.PutU64(frame.stats.in_flight);
  writer.PutF64(frame.stats.queries_per_second);
  writer.PutU64(frame.stats.model_version);
  writer.PutU64(frame.stats.retained_snapshots);
  writer.PutU64(frame.stats.retained_snapshot_bytes);
  writer.PutU64(frame.stats.snapshot_evictions);
  writer.PutU8(frame.stats.snapshot_alarm ? 1 : 0);
  writer.PutU64(frame.stats.version_skew);
  writer.PutU64(frame.stats.num_shards);
  writer.PutU64(frame.stats.wal_appends);
  writer.PutU64(frame.stats.wal_bytes);
  writer.PutU64(frame.stats.checkpoints_written);
  writer.PutU64(frame.stats.recovery_replayed_deltas);
  // Appended per-tenant section (u32 count + rows).
  writer.PutU32(static_cast<std::uint32_t>(frame.tenants.size()));
  for (const WireTenantStats& row : frame.tenants) {
    writer.PutString(row.tenant);
    writer.PutU8(row.qos_class);
    writer.PutU64(row.queued);
    writer.PutU64(row.served);
    writer.PutU64(row.rejected);
    writer.PutU64(row.cancelled);
    writer.PutF64(row.cost_served);
    writer.PutF64(row.queue_p50_seconds);
    writer.PutF64(row.queue_p99_seconds);
  }
  // Appended plan-simplify counters (append-only tail after the tenant
  // section; older decoders stop before it, older frames decode as zero).
  writer.PutU64(frame.stats.plans_simplified);
  writer.PutU64(frame.stats.simplify_vars_removed);
  writer.PutU64(frame.stats.simplify_clauses_removed);
  writer.PutU64(frame.stats.simplify_micros);
  return writer.Take();
}

// --- decode ----------------------------------------------------------------

namespace {

/// Shared epilogue: a successful decode must have consumed every byte.
template <typename Frame>
util::Result<Frame> FinishDecode(const WireReader& reader, Frame frame,
                                 const char* kind) {
  if (!reader.ok()) {
    return Malformed(
        (std::string("truncated ") + kind + " body").c_str());
  }
  if (!reader.exhausted()) {
    return Malformed(
        (std::string("trailing bytes after ") + kind + " body").c_str());
  }
  return frame;
}

}  // namespace

util::Result<EnumerateFrame> DecodeEnumerate(std::string_view body) {
  WireReader reader(body);
  EnumerateFrame frame;
  reader.GetU64(&frame.request_id);
  reader.GetString(&frame.target);
  reader.GetU64(&frame.max_members);
  reader.GetF64(&frame.deadline_seconds);
  reader.GetU8(&frame.stream);
  reader.GetU32(&frame.batch_size);
  if (!GetQosTail(reader, &frame.qos_class, &frame.tenant)) {
    return Malformed("non-canonical qos identity tail");
  }
  return FinishDecode(reader, std::move(frame), "enumerate");
}

util::Result<DecideFrame> DecodeDecide(std::string_view body) {
  WireReader reader(body);
  DecideFrame frame;
  reader.GetU64(&frame.request_id);
  reader.GetString(&frame.target);
  reader.GetU8(&frame.tree_class);
  reader.GetStringList(&frame.candidate_facts);
  reader.GetF64(&frame.deadline_seconds);
  if (!GetQosTail(reader, &frame.qos_class, &frame.tenant)) {
    return Malformed("non-canonical qos identity tail");
  }
  return FinishDecode(reader, std::move(frame), "decide");
}

util::Result<ExplainFrame> DecodeExplain(std::string_view body) {
  WireReader reader(body);
  ExplainFrame frame;
  reader.GetU64(&frame.request_id);
  reader.GetString(&frame.target);
  reader.GetU64(&frame.member_index);
  reader.GetF64(&frame.deadline_seconds);
  if (!GetQosTail(reader, &frame.qos_class, &frame.tenant)) {
    return Malformed("non-canonical qos identity tail");
  }
  return FinishDecode(reader, std::move(frame), "explain");
}

util::Result<DeltaFrame> DecodeDelta(std::string_view body) {
  WireReader reader(body);
  DeltaFrame frame;
  reader.GetU64(&frame.request_id);
  reader.GetStringList(&frame.added_facts);
  reader.GetStringList(&frame.removed_facts);
  reader.GetF64(&frame.deadline_seconds);
  if (!GetQosTail(reader, &frame.qos_class, &frame.tenant)) {
    return Malformed("non-canonical qos identity tail");
  }
  return FinishDecode(reader, std::move(frame), "delta");
}

util::Result<StatsFrame> DecodeStats(std::string_view body) {
  WireReader reader(body);
  StatsFrame frame;
  reader.GetU64(&frame.request_id);
  return FinishDecode(reader, std::move(frame), "stats");
}

util::Result<MembersFrame> DecodeMembers(std::string_view body) {
  WireReader reader(body);
  MembersFrame frame;
  reader.GetU64(&frame.request_id);
  GetMembers(reader, &frame.members);
  return FinishDecode(reader, std::move(frame), "members");
}

util::Result<FinalFrame> DecodeFinal(std::string_view body) {
  WireReader reader(body);
  FinalFrame frame;
  reader.GetU64(&frame.request_id);
  reader.GetU8(&frame.status_code);
  reader.GetString(&frame.status_message);
  reader.GetU8(&frame.kind);
  reader.GetU64(&frame.model_version);
  switch (frame.kind) {
    case kFrameEnumerate:
      reader.GetU64(&frame.members_emitted);
      reader.GetU8(&frame.enumerate_flags);
      GetMembers(reader, &frame.members);
      break;
    case kFrameDecide:
      reader.GetU8(&frame.verdict);
      break;
    case kFrameExplain:
      reader.GetU8(&frame.has_explanation);
      if (frame.has_explanation) {
        reader.GetStringList(&frame.explanation_member);
        reader.GetString(&frame.proof_tree);
      }
      break;
    case kFrameDelta:
      reader.GetU8(&frame.has_delta);
      if (frame.has_delta) {
        reader.GetU64(&frame.delta.model_version);
        reader.GetU64(&frame.delta.facts_added);
        reader.GetU64(&frame.delta.facts_removed);
        reader.GetU64(&frame.delta.facts_derived);
        reader.GetU64(&frame.delta.facts_deleted);
        reader.GetU64(&frame.delta.facts_rederived);
        reader.GetU64(&frame.delta.facts_touched);
        reader.GetU64(&frame.delta.plans_retained);
        reader.GetU64(&frame.delta.plans_invalidated);
      }
      break;
    case kFrameStats:
      break;
    default:
      return Malformed("final frame with unknown request kind");
  }
  return FinishDecode(reader, std::move(frame), "final");
}

util::Result<ErrorFrame> DecodeError(std::string_view body) {
  WireReader reader(body);
  ErrorFrame frame;
  reader.GetU64(&frame.request_id);
  reader.GetU8(&frame.status_code);
  reader.GetString(&frame.message);
  return FinishDecode(reader, std::move(frame), "error");
}

util::Result<StatsReplyFrame> DecodeStatsReply(std::string_view body) {
  WireReader reader(body);
  StatsReplyFrame frame;
  std::uint64_t value = 0;
  std::uint8_t flag = 0;
  reader.GetU64(&frame.request_id);
  reader.GetU64(&frame.stats.submitted);
  reader.GetU64(&frame.stats.rejected);
  reader.GetU64(&frame.stats.completed);
  reader.GetU64(&frame.stats.succeeded);
  reader.GetU64(&frame.stats.cancelled);
  reader.GetU64(&frame.stats.deadline_exceeded);
  reader.GetU64(&frame.stats.failed);
  reader.GetU64(&frame.stats.members_delivered);
  if (reader.GetU64(&value)) {
    frame.stats.queue_depth = static_cast<std::size_t>(value);
  }
  if (reader.GetU64(&value)) {
    frame.stats.in_flight = static_cast<std::size_t>(value);
  }
  reader.GetF64(&frame.stats.queries_per_second);
  reader.GetU64(&frame.stats.model_version);
  if (reader.GetU64(&value)) {
    frame.stats.retained_snapshots = static_cast<std::size_t>(value);
  }
  if (reader.GetU64(&value)) {
    frame.stats.retained_snapshot_bytes = static_cast<std::size_t>(value);
  }
  reader.GetU64(&frame.stats.snapshot_evictions);
  if (reader.GetU8(&flag)) {
    // Fuzzing found this decoder accepting any non-zero byte as "alarm
    // set", which broke the documented Encode/Decode symmetry (the
    // encoder only ever writes 0 or 1). Reject non-canonical flags.
    if (flag > 1) return Malformed("non-canonical snapshot_alarm flag");
    frame.stats.snapshot_alarm = flag != 0;
  }
  reader.GetU64(&frame.stats.version_skew);
  if (reader.GetU64(&value)) {
    frame.stats.num_shards = static_cast<std::size_t>(value);
  }
  reader.GetU64(&frame.stats.wal_appends);
  reader.GetU64(&frame.stats.wal_bytes);
  reader.GetU64(&frame.stats.checkpoints_written);
  reader.GetU64(&frame.stats.recovery_replayed_deltas);
  // Appended per-tenant section; a frame ending at the pre-QoS boundary
  // decodes with no rows.
  if (!reader.exhausted()) {
    std::uint32_t count = 0;
    if (reader.GetU32(&count)) {
      for (std::uint32_t i = 0; i < count && reader.ok(); ++i) {
        WireTenantStats row;
        reader.GetString(&row.tenant);
        reader.GetU8(&row.qos_class);
        if (row.qos_class > WHYPROV_QOS_BATCH) {
          return Malformed("non-canonical tenant stats lane");
        }
        reader.GetU64(&row.queued);
        reader.GetU64(&row.served);
        reader.GetU64(&row.rejected);
        reader.GetU64(&row.cancelled);
        reader.GetF64(&row.cost_served);
        reader.GetF64(&row.queue_p50_seconds);
        reader.GetF64(&row.queue_p99_seconds);
        frame.tenants.push_back(std::move(row));
      }
    }
  }
  // Appended plan-simplify counters; a frame ending at the pre-simplify
  // boundary decodes as all-zero (WireReader poisons on a partial tail,
  // which FinishDecode rejects).
  if (!reader.exhausted()) {
    reader.GetU64(&frame.stats.plans_simplified);
    reader.GetU64(&frame.stats.simplify_vars_removed);
    reader.GetU64(&frame.stats.simplify_clauses_removed);
    reader.GetU64(&frame.stats.simplify_micros);
  }
  return FinishDecode(reader, std::move(frame), "stats reply");
}

}  // namespace whyprov::net
