#ifndef WHYPROV_NET_SERVER_H_
#define WHYPROV_NET_SERVER_H_

// The TCP front end of the serving tier: accepts connections on
// loopback and speaks the length-prefixed wire protocol (net/wire.h)
// over the flat C ABI (net/whyprov_c.h) — and over *nothing else*. The
// server deliberately never touches the C++ Service classes directly:
// every submit, wait, cancel, stream-pull, and stat read goes through
// whyprov_c.h, which keeps the ABI honest (anything the server can do,
// a foreign-language binding can do).
//
// Per connection the server runs two threads:
//
//   reader    — parses request frames, submits them through the ABI,
//               and pushes the resulting tickets onto a bounded FIFO.
//               The bound is the per-connection in-flight cap
//               (kMaxSessionTickets, net/wire.h); a client
//               that keeps submitting past it blocks in the kernel's
//               socket buffers (backpressure, not rejection).
//   responder — pops the FIFO in submission order and writes responses:
//               for a streaming enumeration, member batches as the
//               bounded MemberStream yields them (a slow client blocks
//               the socket write, which blocks the stream pull, which
//               blocks the SAT producer — backpressure end to end),
//               then the final frame; one final frame for everything
//               else.
//
// Responses on one connection are therefore delivered in submission
// order, while the service executes the requests concurrently.
//
// Disconnect handling: when the reader sees EOF or a socket error it
// cancels every ticket of the session — queued and active — through
// whyprov_ticket_cancel, so a mid-stream client disconnect promptly
// stops the SAT enumeration and unpins its model snapshot. A responder
// write failure (client vanished while a batch was in flight) triggers
// the same cancellation. A malformed, oversized, or unknown frame is
// answered — after the responses already owed — with one error frame,
// and the connection closes.
//
// Deadlines travel in the request frames' deadline_seconds field and
// are handed to the ABI's submit, which installs them on the request's
// CancellationToken (measured from submission, queue wait included).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "net/whyprov_c.h"
#include "net/wire.h"
#include "util/mutex.h"
#include "util/socket.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace whyprov::net {

namespace internal {
struct ServerSession;  // one accepted connection (defined in server.cc)
}  // namespace internal

/// The wire-protocol server. Does not own the service handle: the
/// caller creates it with whyprov_service_create, keeps it alive past
/// Stop(), and destroys it afterwards. Thread-safe lifecycle: Start
/// once, Stop from any thread (idempotent; the destructor stops too).
class Server {
 public:
  explicit Server(whyprov_service* service);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts the
  /// accept loop.
  util::Status Start(std::uint16_t port);

  /// The bound port (after a successful Start).
  std::uint16_t port() const { return listener_.port(); }

  /// Closes the listener and every live session (cancelling their
  /// in-flight tickets), then joins all threads. Idempotent.
  void Stop();

  /// Connections accepted so far (diagnostics).
  std::size_t connections_accepted() const;

 private:
  void AcceptLoop();
  void RunReader(internal::ServerSession& session);
  void RunResponder(internal::ServerSession& session);

  whyprov_service* const service_;
  util::ListenSocket listener_;
  std::thread accept_thread_;

  mutable util::Mutex mutex_;
  /// Only the accept loop appends; Stop() iterates after joining it, so
  /// the list is frozen by then (hence no annotation on the iteration).
  std::vector<std::unique_ptr<internal::ServerSession>> sessions_
      GUARDED_BY(mutex_);
  std::size_t connections_accepted_ GUARDED_BY(mutex_) = 0;
  bool started_ GUARDED_BY(mutex_) = false;
  bool stopped_ GUARDED_BY(mutex_) = false;
};

}  // namespace whyprov::net

#endif  // WHYPROV_NET_SERVER_H_
