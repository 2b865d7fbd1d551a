// whyprov_server: the network serving tier as a standalone binary —
// whyprov_service_create (C ABI) wrapped in net::Server, speaking the
// length-prefixed wire protocol on loopback.
//
// Build & run:
//   ./build/whyprov_server                         # demo program, port 0
//   ./build/whyprov_server --port=7411
//   ./build/whyprov_server --program=p.dl --database=d.dl --answer=path
//   ./build/whyprov_server --data-dir=/var/lib/whyprov  # durable deltas
//   ./build/whyprov_server --selfcheck             # CI smoke test
//
// Prints the bound port (ephemeral with --port=0, the default), then
// serves until stdin reaches EOF (Ctrl-D, or a closed pipe — which is
// how scripts stop it). With --selfcheck it instead connects a wire
// client to itself, runs one streaming enumeration, one decision, and a
// stats probe, prints what came back, and exits 0 on success — the CI
// loopback smoke test.
//
// --data-dir=PATH turns on the durability tier (docs/STORAGE_FORMAT.md):
// committed deltas are appended to a write-ahead log under PATH and the
// model is checkpointed periodically; a restarted server pointed at the
// same PATH recovers the pre-crash state. Combined with --selfcheck the
// smoke test also applies a delta over the wire, tears the whole stack
// down, rebuilds it from PATH, and verifies the recovered server returns
// byte-identical answers.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "net/whyprov_c.h"

namespace {

constexpr const char* kDemoProgram = R"(
  path(X, Y) :- edge(X, Y).
  path(X, Y) :- edge(X, Z), path(Z, Y).
)";
constexpr const char* kDemoDatabase = R"(
  edge(a, m1). edge(m1, b).
  edge(a, m2). edge(m2, b).
  edge(b, c).
)";
constexpr const char* kDemoAnswer = "path";
constexpr const char* kDemoTarget = "path(a, b)";

bool ReadFile(const char* path, std::string& out) {
  std::FILE* file = std::fopen(path, "rb");
  if (file == nullptr) return false;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out.append(buffer, got);
  }
  std::fclose(file);
  return true;
}

int SelfCheck(std::uint16_t port, const std::string& target) {
  auto client = whyprov::net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    std::fprintf(stderr, "selfcheck: connect failed: %s\n",
                 client.status().message().c_str());
    return 1;
  }

  // A streaming enumeration: members arrive as batch frames.
  std::size_t streamed = 0;
  auto outcome = client.value().Enumerate(
      target, /*max_members=*/4, /*deadline_seconds=*/30, /*stream=*/true,
      /*batch_size=*/0, [&](const std::vector<std::string>& member) {
        std::string line = "  {";
        for (std::size_t i = 0; i < member.size(); ++i) {
          if (i > 0) line += ", ";
          line += member[i];
        }
        std::printf("%s}\n", line.c_str());
        ++streamed;
        return true;
      });
  if (!outcome.ok() || !outcome.value().ok()) {
    std::fprintf(stderr, "selfcheck: enumerate failed\n");
    return 1;
  }
  std::printf("selfcheck: streamed %zu member(s) of %s\n", streamed,
              target.c_str());
  if (streamed == 0) {
    std::fprintf(stderr, "selfcheck: expected at least one member\n");
    return 1;
  }

  // Decide with the first streamed member as the candidate is only
  // possible when we kept it; re-enumerate materialised for simplicity.
  auto materialised = client.value().Enumerate(target, /*max_members=*/1);
  if (materialised.ok() && materialised.value().ok() &&
      !materialised.value().final.members.empty()) {
    auto decided = client.value().Decide(
        target, materialised.value().final.members.front());
    if (!decided.ok() || !decided.value().ok() ||
        decided.value().final.verdict != 1) {
      std::fprintf(stderr, "selfcheck: decide did not confirm membership\n");
      return 1;
    }
    std::printf("selfcheck: decide confirmed membership\n");
  }

  auto stats = client.value().Stats();
  if (!stats.ok()) {
    std::fprintf(stderr, "selfcheck: stats failed: %s\n",
                 stats.status().message().c_str());
    return 1;
  }
  std::printf("selfcheck: server completed %llu request(s), version %llu\n",
              static_cast<unsigned long long>(stats.value().completed),
              static_cast<unsigned long long>(stats.value().model_version));
  std::printf("selfcheck: ok\n");
  return 0;
}

/// Renders the materialised answer to every target into one string, so
/// pre-restart and post-recovery states can be compared byte for byte.
bool CaptureTranscript(whyprov::net::Client& client,
                       const std::vector<std::string>& targets,
                       std::string& out) {
  out.clear();
  for (const std::string& target : targets) {
    auto outcome = client.Enumerate(target, /*max_members=*/64);
    if (!outcome.ok()) return false;
    out += target;
    out += " -> status ";
    out += std::to_string(outcome.value().final.status_code);
    out += "\n";
    for (const auto& member : outcome.value().final.members) {
      out += "  {";
      for (std::size_t i = 0; i < member.size(); ++i) {
        if (i > 0) out += ", ";
        out += member[i];
      }
      out += "}\n";
    }
  }
  return true;
}

// The durability leg of --selfcheck: mutate the model over the wire,
// snapshot the answers, tear the serving stack down, rebuild it from
// the same --data-dir, and require the recovered server to (a) report
// that it replayed the logged delta and (b) produce byte-identical
// answers. On success the caller's server/service are replaced by the
// recovered stack (so shutdown in main stays uniform).
int DurableSelfCheck(std::unique_ptr<whyprov::net::Server>& server,
                     whyprov_service*& service, whyprov_options options,
                     const std::string& program_text,
                     const std::string& database_text,
                     const std::string& answer_predicate) {
  const std::vector<std::string> targets = {kDemoTarget, "path(c, d)"};

  auto writer = whyprov::net::Client::Connect("127.0.0.1", server->port());
  if (!writer.ok()) {
    std::fprintf(stderr, "selfcheck: durable connect failed: %s\n",
                 writer.status().message().c_str());
    return 1;
  }
  auto delta = writer.value().ApplyDelta({"edge(c, d)"}, {});
  if (!delta.ok() || !delta.value().ok()) {
    std::fprintf(stderr, "selfcheck: durable delta failed\n");
    return 1;
  }
  std::string before;
  if (!CaptureTranscript(writer.value(), targets, before)) {
    std::fprintf(stderr, "selfcheck: transcript capture failed\n");
    return 1;
  }

  // Tear the whole stack down — server, service, engine — and rebuild
  // it from the data directory alone.
  server->Stop();
  server.reset();
  whyprov_service_destroy(service);
  service = nullptr;

  char error_message[256];
  const whyprov_status recovered = whyprov_service_create(
      program_text.c_str(), database_text.c_str(), answer_predicate.c_str(),
      &options, &service, error_message, sizeof(error_message));
  if (recovered != WHYPROV_OK) {
    std::fprintf(stderr, "selfcheck: recovery create failed: %s (%s)\n",
                 error_message, whyprov_status_name(recovered));
    return 1;
  }
  server = std::make_unique<whyprov::net::Server>(service);
  if (auto status = server->Start(/*port=*/0); !status.ok()) {
    std::fprintf(stderr, "selfcheck: recovery start failed: %s\n",
                 status.message().c_str());
    return 1;
  }

  auto reader = whyprov::net::Client::Connect("127.0.0.1", server->port());
  if (!reader.ok()) {
    std::fprintf(stderr, "selfcheck: recovery connect failed: %s\n",
                 reader.status().message().c_str());
    return 1;
  }
  auto stats = reader.value().Stats();
  if (!stats.ok()) {
    std::fprintf(stderr, "selfcheck: recovery stats failed: %s\n",
                 stats.status().message().c_str());
    return 1;
  }
  if (stats.value().recovery_replayed_deltas == 0 &&
      stats.value().model_version == 0) {
    std::fprintf(stderr,
                 "selfcheck: recovered server saw neither a checkpoint nor "
                 "a WAL tail\n");
    return 1;
  }
  std::string after;
  if (!CaptureTranscript(reader.value(), targets, after)) {
    std::fprintf(stderr, "selfcheck: recovered transcript capture failed\n");
    return 1;
  }
  if (before != after) {
    std::fprintf(stderr,
                 "selfcheck: recovered answers differ\n--- before ---\n%s"
                 "--- after ---\n%s",
                 before.c_str(), after.c_str());
    return 1;
  }
  std::printf(
      "selfcheck: recovered stack replayed %llu delta(s), answers "
      "byte-identical\n",
      static_cast<unsigned long long>(stats.value().recovery_replayed_deltas));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  long port = 0;
  const char* program_path = nullptr;
  const char* database_path = nullptr;
  const char* answer = nullptr;
  const char* data_dir = nullptr;
  int plan_simplify = WHYPROV_SIMPLIFY_DEFAULT;
  bool selfcheck = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--port=", 7) == 0) {
      port = std::atol(arg + 7);
    } else if (std::strncmp(arg, "--program=", 10) == 0) {
      program_path = arg + 10;
    } else if (std::strncmp(arg, "--database=", 11) == 0) {
      database_path = arg + 11;
    } else if (std::strncmp(arg, "--answer=", 9) == 0) {
      answer = arg + 9;
    } else if (std::strncmp(arg, "--data-dir=", 11) == 0) {
      data_dir = arg + 11;
    } else if (std::strncmp(arg, "--plan-simplify=", 16) == 0) {
      const char* mode = arg + 16;
      if (std::strcmp(mode, "off") == 0) {
        plan_simplify = WHYPROV_SIMPLIFY_OFF;
      } else if (std::strcmp(mode, "fast") == 0) {
        plan_simplify = WHYPROV_SIMPLIFY_FAST;
      } else if (std::strcmp(mode, "full") == 0) {
        plan_simplify = WHYPROV_SIMPLIFY_FULL;
      } else {
        std::fprintf(stderr,
                     "error: --plan-simplify must be off, fast, or full\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--selfcheck") == 0) {
      selfcheck = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port=N] [--program=FILE --database=FILE "
                   "--answer=PREDICATE] [--data-dir=DIR] "
                   "[--plan-simplify=off|fast|full] [--selfcheck]\n",
                   argv[0]);
      return 2;
    }
  }
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "error: --port must be 0..65535\n");
    return 2;
  }
  if ((program_path != nullptr) != (database_path != nullptr) ||
      (program_path != nullptr && answer == nullptr)) {
    std::fprintf(stderr,
                 "error: --program, --database, and --answer go together\n");
    return 2;
  }

  std::string program_text = kDemoProgram;
  std::string database_text = kDemoDatabase;
  std::string answer_predicate = kDemoAnswer;
  if (program_path != nullptr) {
    program_text.clear();
    database_text.clear();
    if (!ReadFile(program_path, program_text)) {
      std::fprintf(stderr, "error: cannot read %s\n", program_path);
      return 1;
    }
    if (!ReadFile(database_path, database_text)) {
      std::fprintf(stderr, "error: cannot read %s\n", database_path);
      return 1;
    }
    answer_predicate = answer;
  }

  whyprov_options options;
  whyprov_options_init(&options);
  options.plan_simplify = plan_simplify;
  if (data_dir != nullptr) options.data_dir = data_dir;
  whyprov_service* service = nullptr;
  char error_message[256];
  const whyprov_status created = whyprov_service_create(
      program_text.c_str(), database_text.c_str(), answer_predicate.c_str(),
      &options, &service, error_message, sizeof(error_message));
  if (created != WHYPROV_OK) {
    std::fprintf(stderr, "error: %s (%s)\n", error_message,
                 whyprov_status_name(created));
    return 1;
  }

  auto server = std::make_unique<whyprov::net::Server>(service);
  if (auto status = server->Start(static_cast<std::uint16_t>(port));
      !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    whyprov_service_destroy(service);
    return 1;
  }
  std::printf("whyprov_server: serving '%s' on 127.0.0.1:%u\n",
              answer_predicate.c_str(), server->port());
  std::fflush(stdout);

  int exit_code = 0;
  if (selfcheck) {
    // The demo target only exists for the built-in program; a custom
    // program self-checks against its first sampled answer... which the
    // ABI doesn't expose, so --selfcheck requires the demo program.
    if (program_path != nullptr) {
      std::fprintf(stderr,
                   "error: --selfcheck works with the built-in demo only\n");
      exit_code = 2;
    } else {
      exit_code = SelfCheck(server->port(), kDemoTarget);
      if (exit_code == 0 && data_dir != nullptr) {
        exit_code = DurableSelfCheck(server, service, options, program_text,
                                     database_text, answer_predicate);
      }
    }
  } else {
    std::printf("whyprov_server: reading stdin; EOF (Ctrl-D) stops\n");
    std::fflush(stdout);
    int c;
    while ((c = std::getchar()) != EOF) {
    }
  }

  if (server != nullptr) server->Stop();
  whyprov_service_destroy(service);
  return exit_code;
}
