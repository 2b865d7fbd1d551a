#include "net/server.h"

#include <algorithm>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace whyprov::net {

namespace internal {

// One accepted connection: the socket, its two threads, and the FIFO of
// submitted-but-unanswered work connecting them. The queue entries own
// their tickets until the responder serves (and destroys) them.
struct ServerSession {
  /// One submitted request (or the two ticketless cases: a stats poll
  /// and a failed submit), queued for the responder in submission order.
  /// kind == 0 marks the connection-level error entry that ends the
  /// session after the responses already owed.
  struct Pending {
    std::uint64_t request_id = 0;
    std::uint8_t kind = 0;
    whyprov_ticket* ticket = nullptr;
    bool stream = false;
    std::uint32_t batch_size = 0;
    whyprov_status submit_status = WHYPROV_OK;
    std::string error_message;
  };

  util::Socket socket;
  std::thread reader;
  std::thread responder;

  util::Mutex mutex;
  util::CondVar work_cv;   // responder: queue non-empty / done
  util::CondVar space_cv;  // reader: below the in-flight cap
  std::deque<Pending> queue GUARDED_BY(mutex);
  /// The entry the responder serves now.
  whyprov_ticket* active GUARDED_BY(mutex) = nullptr;
  /// No further entries will arrive.
  bool reader_done GUARDED_BY(mutex) = false;
  /// A write failed or the error entry was served: drain the rest
  /// without touching the socket.
  bool failed GUARDED_BY(mutex) = false;
};

}  // namespace internal

namespace {

using internal::ServerSession;

/// Cancels every ticket the session still holds (queued + active).
void CancelSession(ServerSession& session) {
  const util::MutexLock lock(session.mutex);
  for (auto& pending : session.queue) {
    if (pending.ticket != nullptr) whyprov_ticket_cancel(pending.ticket);
  }
  if (session.active != nullptr) whyprov_ticket_cancel(session.active);
}

/// Blocks until the session is below its in-flight cap, then queues the
/// entry — the reader-side half of the per-connection bound.
void Push(ServerSession& session, ServerSession::Pending pending) {
  const util::MutexLock lock(session.mutex);
  while (session.queue.size() >= kMaxSessionTickets && !session.failed) {
    session.space_cv.Wait(session.mutex);
  }
  if (session.failed) {
    // The connection is already dead; don't leave the ticket to leak.
    if (pending.ticket != nullptr) {
      whyprov_ticket_cancel(pending.ticket);
      whyprov_ticket_destroy(pending.ticket);
    }
    return;
  }
  session.queue.push_back(std::move(pending));
  session.work_cv.NotifyAll();
}

/// The responder's single write point: once a write fails the session
/// flips to failed (the client is gone) and every remaining ticket is
/// cancelled so the drain is quick.
bool WriteOrFail(ServerSession& session, std::uint8_t type,
                 const std::string& body) {
  {
    const util::MutexLock lock(session.mutex);
    if (session.failed) return false;
  }
  if (WriteFrame(session.socket, type, body).ok()) return true;
  {
    const util::MutexLock lock(session.mutex);
    session.failed = true;
    for (auto& pending : session.queue) {
      if (pending.ticket != nullptr) whyprov_ticket_cancel(pending.ticket);
    }
    if (session.active != nullptr) whyprov_ticket_cancel(session.active);
  }
  session.space_cv.NotifyAll();
  return false;
}

/// Copies the ABI's scratch-buffer member into owned strings.
std::vector<std::string> CopyMember(const char* const* facts,
                                    std::size_t num_facts) {
  std::vector<std::string> member;
  member.reserve(num_facts);
  for (std::size_t i = 0; i < num_facts; ++i) member.emplace_back(facts[i]);
  return member;
}

/// Answers one ticketed request: member-batch frames for a streaming
/// enumeration, then the final frame built entirely from ABI accessors.
void ServeTicket(ServerSession& session, ServerSession::Pending& pending) {
  whyprov_ticket* ticket = pending.ticket;

  if (pending.kind == kFrameEnumerate && pending.stream) {
    // Stream member batches as the bounded MemberStream yields them.
    // The pull below blocks on the stream (which blocks the producer:
    // backpressure), and the write blocks on the socket — chaining the
    // client's read pace all the way into the SAT enumeration.
    MembersFrame batch;
    batch.request_id = pending.request_id;
    const char* const* facts = nullptr;
    std::size_t num_facts = 0;
    while (whyprov_ticket_next_member(ticket, &facts, &num_facts) != 0) {
      batch.members.push_back(CopyMember(facts, num_facts));
      if (batch.members.size() >= pending.batch_size) {
        if (!WriteOrFail(session, kFrameMembers, Encode(batch))) break;
        batch.members.clear();
      }
    }
    if (!batch.members.empty()) {
      WriteOrFail(session, kFrameMembers, Encode(batch));
    }
  }

  FinalFrame final;
  final.request_id = pending.request_id;
  final.kind = pending.kind;
  final.status_code =
      static_cast<std::uint8_t>(whyprov_ticket_status(ticket));
  final.status_message = whyprov_ticket_status_message(ticket);
  final.model_version = whyprov_ticket_model_version(ticket);
  switch (pending.kind) {
    case kFrameEnumerate: {
      final.members_emitted = whyprov_ticket_members_emitted(ticket);
      final.enumerate_flags =
          static_cast<std::uint8_t>(whyprov_ticket_enumerate_flags(ticket));
      if (!pending.stream) {
        const std::size_t count = whyprov_ticket_num_members(ticket);
        final.members.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
          const char* const* facts = nullptr;
          std::size_t num_facts = 0;
          if (whyprov_ticket_member(ticket, i, &facts, &num_facts) != 0) {
            final.members.push_back(CopyMember(facts, num_facts));
          }
        }
      }
      break;
    }
    case kFrameDecide:
      final.verdict =
          static_cast<std::uint8_t>(whyprov_ticket_decision(ticket));
      break;
    case kFrameExplain: {
      const char* const* facts = nullptr;
      std::size_t num_facts = 0;
      const char* tree = nullptr;
      if (whyprov_ticket_explanation(ticket, &facts, &num_facts, &tree) !=
          0) {
        final.has_explanation = 1;
        final.explanation_member = CopyMember(facts, num_facts);
        final.proof_tree = tree;
      }
      break;
    }
    case kFrameDelta:
      if (whyprov_ticket_delta_stats(ticket, &final.delta) != 0) {
        final.has_delta = 1;
      }
      break;
    default:
      break;
  }
  WriteOrFail(session, kFrameFinal, Encode(final));
}

}  // namespace

Server::Server(whyprov_service* service) : service_(service) {}

Server::~Server() { Stop(); }

util::Status Server::Start(std::uint16_t port) {
  {
    const util::MutexLock lock(mutex_);
    if (started_) return util::Status::InvalidArgument("Start called twice");
    started_ = true;
  }
  auto listener = util::ListenSocket::Listen(port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return util::Status::Ok();
}

void Server::Stop() {
  {
    const util::MutexLock lock(mutex_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  listener_.Close();  // a blocked Accept returns kCancelled
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop has exited, so the session list is frozen: take it
  // over under the lock, then tear the sessions down without it.
  std::vector<std::unique_ptr<internal::ServerSession>> sessions;
  {
    const util::MutexLock lock(mutex_);
    sessions.swap(sessions_);
  }
  for (auto& session : sessions) {
    // Wake a reader blocked in recv (it sees EOF and cancels the
    // session's tickets) and fail any in-flight responder write.
    session->socket.ShutdownBoth();
  }
  for (auto& session : sessions) {
    if (session->reader.joinable()) session->reader.join();
    if (session->responder.joinable()) session->responder.join();
  }
}

std::size_t Server::connections_accepted() const {
  const util::MutexLock lock(mutex_);
  return connections_accepted_;
}

void Server::AcceptLoop() {
  while (true) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) return;  // kCancelled: Stop closed the listener
    auto session = std::make_unique<ServerSession>();
    session->socket = std::move(accepted).value();
    ServerSession* raw = session.get();
    {
      const util::MutexLock lock(mutex_);
      if (stopped_) return;  // raced with Stop; drop the connection
      ++connections_accepted_;
      sessions_.push_back(std::move(session));
    }
    raw->reader = std::thread([this, raw] { RunReader(*raw); });
    raw->responder = std::thread([this, raw] { RunResponder(*raw); });
  }
}

void Server::RunReader(ServerSession& session) {
  bool disconnected = false;
  while (true) {
    std::uint8_t type = 0;
    std::string body;
    const auto read = ReadFrame(session.socket, &type, &body);
    if (!read.ok()) {
      if (read.code() == util::StatusCode::kInvalidArgument) {
        // Oversized/zero-length frame: a protocol violation, answered
        // after the responses already owed, then the connection ends.
        ServerSession::Pending error;
        error.submit_status = WHYPROV_INVALID_ARGUMENT;
        error.error_message = read.message();
        Push(session, std::move(error));
      } else {
        // EOF or socket error: the client is gone.
        disconnected = true;
      }
      break;
    }

    ServerSession::Pending pending;
    pending.kind = type;
    bool malformed = false;
    std::string malformed_message;
    switch (type) {
      case kFrameEnumerate: {
        auto frame = DecodeEnumerate(body);
        if (!frame.ok()) {
          malformed = true;
          malformed_message = frame.status().message();
          break;
        }
        pending.request_id = frame.value().request_id;
        pending.stream = frame.value().stream != 0;
        pending.batch_size = frame.value().batch_size > 0
                                 ? frame.value().batch_size
                                 : kDefaultBatchSize;
        if (pending.stream && pending.batch_size > kMaxBatchSize) {
          // The responder buffers a whole batch before writing it, so an
          // uncapped size would hold the family in memory however slowly
          // the client reads. Refused like any bad argument; the
          // connection stays usable.
          pending.submit_status = WHYPROV_INVALID_ARGUMENT;
          pending.error_message =
              "batch_size " + std::to_string(pending.batch_size) +
              " exceeds the maximum of " + std::to_string(kMaxBatchSize);
          break;
        }
        whyprov_ticket* ticket = nullptr;
        pending.submit_status = whyprov_submit_enumerate_qos(
            service_, frame.value().target.c_str(),
            frame.value().max_members, frame.value().deadline_seconds,
            pending.stream ? pending.batch_size : 0,
            static_cast<int>(frame.value().qos_class),
            frame.value().tenant.c_str(), &ticket);
        pending.ticket = ticket;
        break;
      }
      case kFrameDecide: {
        auto frame = DecodeDecide(body);
        if (!frame.ok()) {
          malformed = true;
          malformed_message = frame.status().message();
          break;
        }
        pending.request_id = frame.value().request_id;
        std::vector<const char*> candidates;
        candidates.reserve(frame.value().candidate_facts.size());
        for (const auto& fact : frame.value().candidate_facts) {
          candidates.push_back(fact.c_str());
        }
        whyprov_ticket* ticket = nullptr;
        pending.submit_status = whyprov_submit_decide_qos(
            service_, frame.value().target.c_str(), candidates.data(),
            candidates.size(),
            static_cast<whyprov_tree_class>(frame.value().tree_class),
            frame.value().deadline_seconds,
            static_cast<int>(frame.value().qos_class),
            frame.value().tenant.c_str(), &ticket);
        pending.ticket = ticket;
        break;
      }
      case kFrameExplain: {
        auto frame = DecodeExplain(body);
        if (!frame.ok()) {
          malformed = true;
          malformed_message = frame.status().message();
          break;
        }
        pending.request_id = frame.value().request_id;
        whyprov_ticket* ticket = nullptr;
        pending.submit_status = whyprov_submit_explain_qos(
            service_, frame.value().target.c_str(),
            frame.value().member_index, frame.value().deadline_seconds,
            static_cast<int>(frame.value().qos_class),
            frame.value().tenant.c_str(), &ticket);
        pending.ticket = ticket;
        break;
      }
      case kFrameDelta: {
        auto frame = DecodeDelta(body);
        if (!frame.ok()) {
          malformed = true;
          malformed_message = frame.status().message();
          break;
        }
        pending.request_id = frame.value().request_id;
        std::vector<const char*> added;
        std::vector<const char*> removed;
        added.reserve(frame.value().added_facts.size());
        for (const auto& fact : frame.value().added_facts) {
          added.push_back(fact.c_str());
        }
        removed.reserve(frame.value().removed_facts.size());
        for (const auto& fact : frame.value().removed_facts) {
          removed.push_back(fact.c_str());
        }
        whyprov_ticket* ticket = nullptr;
        pending.submit_status = whyprov_submit_delta_qos(
            service_, added.data(), added.size(), removed.data(),
            removed.size(), frame.value().deadline_seconds,
            static_cast<int>(frame.value().qos_class),
            frame.value().tenant.c_str(), &ticket);
        pending.ticket = ticket;
        break;
      }
      case kFrameStats: {
        auto frame = DecodeStats(body);
        if (!frame.ok()) {
          malformed = true;
          malformed_message = frame.status().message();
          break;
        }
        pending.request_id = frame.value().request_id;
        break;
      }
      default:
        malformed = true;
        malformed_message =
            "unknown frame type " + std::to_string(static_cast<int>(type));
        break;
    }

    if (malformed) {
      ServerSession::Pending error;
      error.submit_status = WHYPROV_INVALID_ARGUMENT;
      error.error_message = std::move(malformed_message);
      Push(session, std::move(error));
      break;
    }
    Push(session, std::move(pending));
  }

  {
    const util::MutexLock lock(session.mutex);
    session.reader_done = true;
  }
  session.work_cv.NotifyAll();
  // Cancel-on-disconnect: a vanished client must not keep a SAT
  // enumeration running (or its model snapshot pinned) to the end.
  if (disconnected) CancelSession(session);
}

void Server::RunResponder(ServerSession& session) {
  while (true) {
    ServerSession::Pending pending;
    {
      const util::MutexLock lock(session.mutex);
      while (session.queue.empty() && !session.reader_done) {
        session.work_cv.Wait(session.mutex);
      }
      if (session.queue.empty()) break;  // reader done, everything served
      pending = std::move(session.queue.front());
      session.queue.pop_front();
      session.active = pending.ticket;
    }
    session.space_cv.NotifyAll();

    if (pending.kind == 0) {
      // The connection-level error entry: report, then end the session.
      ErrorFrame error;
      error.request_id = pending.request_id;
      error.status_code = pending.submit_status;
      error.message = std::move(pending.error_message);
      WriteOrFail(session, kFrameError, Encode(error));
      session.socket.ShutdownWrite();
    } else if (pending.kind == kFrameStats) {
      StatsReplyFrame reply;
      reply.request_id = pending.request_id;
      whyprov_service_stats(service_, &reply.stats);
      // The appended per-tenant section: size the buffer from the
      // ABI's row count (a second call is fine — rows only ever grow).
      const std::size_t rows =
          whyprov_service_tenant_stats(service_, nullptr, 0);
      if (rows > 0) {
        std::vector<whyprov_tenant_stats> buffer(rows);
        const std::size_t copied = std::min(
            rows,
            whyprov_service_tenant_stats(service_, buffer.data(), rows));
        reply.tenants.reserve(copied);
        for (std::size_t i = 0; i < copied; ++i) {
          WireTenantStats row;
          row.tenant = buffer[i].tenant;
          row.qos_class = static_cast<std::uint8_t>(buffer[i].qos_class);
          row.queued = buffer[i].queued;
          row.served = buffer[i].served;
          row.rejected = buffer[i].rejected;
          row.cancelled = buffer[i].cancelled;
          row.cost_served = buffer[i].cost_served;
          row.queue_p50_seconds = buffer[i].queue_p50_seconds;
          row.queue_p99_seconds = buffer[i].queue_p99_seconds;
          reply.tenants.push_back(std::move(row));
        }
      }
      WriteOrFail(session, kFrameStatsReply, Encode(reply));
    } else if (pending.ticket == nullptr) {
      // Admission (or argument) failure: the submit itself refused, or
      // the reader refused the frame's arguments before submitting.
      FinalFrame final;
      final.request_id = pending.request_id;
      final.kind = pending.kind;
      final.status_code = pending.submit_status;
      final.status_message = pending.error_message.empty()
                                 ? whyprov_status_name(pending.submit_status)
                                 : pending.error_message;
      WriteOrFail(session, kFrameFinal, Encode(final));
    } else {
      ServeTicket(session, pending);
    }

    whyprov_ticket* done = pending.ticket;
    {
      const util::MutexLock lock(session.mutex);
      session.active = nullptr;
    }
    // Destroy only after `active` is cleared: CancelSession must never
    // race a live pointer against the free.
    if (done != nullptr) whyprov_ticket_destroy(done);
  }
}

}  // namespace whyprov::net
