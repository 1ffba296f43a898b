// Concurrent-client smoke driver for netpp_serve's socket mode.
//
//   serve_stress --socket PATH [--clients N] [--rounds M]
//
// N clients connect concurrently and each sends M rounds of the same mixed
// query set (analytics; faults on the single and sharded backends and under
// the re-tailor and wake-all policies, one of them at a 2 s MTBF on 4
// shards; mech; one deliberately-invalid query), so cold baseline builds
// race each other and concurrent re-tailoring runs on both backends. It
// asserts the protocol invariants that matter under concurrency: every
// request gets exactly one well-formed response envelope, ids echo back,
// the invalid query fails with its documented typed code, and — because
// the engine's warm state is shared across clients — every client receives
// byte-identical payloads for identical queries. Exit 0 on success; one
// diagnostic line and exit 1 on the first violation.
//
// The CI concurrent-client job runs this under ASan/UBSan against a live
// server; it doubles as the protocol-level determinism test.
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "netpp/serve/json.h"
#include "netpp/serve/protocol.h"

namespace {

using netpp::serve::JsonKind;
using netpp::serve::JsonValue;

/// The canned query mix. `expect_error` names the typed code the response
/// must carry ("" = must succeed).
struct CannedQuery {
  const char* request;
  const char* expect_error;
};

constexpr CannedQuery kQueries[] = {
    {R"({"command":"cluster","gpus":4096,"output":"csv","id":0})", ""},
    {R"({"command":"savings","prop":0.85,"output":"csv","id":1})", ""},
    {R"({"command":"faults","seed":7,"output":"csv","id":2})", ""},
    {R"({"command":"mech","stack":"dynamic","iters":2,"output":"csv","id":3})",
     ""},
    {R"({"command":"mech","stack":"all","iters":2,"ocs":8,"output":"csv","id":4})",
     ""},
    {R"({"command":"faults","mttr_s":0,"id":5})", "out_of_range"},
    {R"({"command":"faults","seed":7,"backend":"sharded","shards":2,"output":"csv","id":6})",
     ""},
    {R"({"command":"faults","seed":7,"policy":"wake-all","output":"csv","id":7})",
     ""},
    // Frequent faults on 4 shards: many feasible and infeasible re-tailor
    // passes per answer, each on its fork's own tailoring workspace.
    {R"({"command":"faults","seed":7,"mtbf_s":2,"backend":"sharded","shards":4,"policy":"re-tailor","output":"csv","id":8})",
     ""},
};
constexpr std::size_t kNumQueries = sizeof(kQueries) / sizeof(kQueries[0]);

std::mutex g_mutex;
std::vector<std::string> g_reference(kNumQueries);  // first client's payloads
bool g_failed = false;

void fail(const std::string& message) {
  const std::lock_guard<std::mutex> lock{g_mutex};
  std::fprintf(stderr, "serve_stress: %s\n", message.c_str());
  g_failed = true;
}

int connect_to(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void run_client(const std::string& path, int client, int rounds) {
  const int fd = connect_to(path);
  if (fd < 0) {
    fail("client " + std::to_string(client) + ": connect failed");
    return;
  }
  std::string payload;
  for (int round = 0; round < rounds && !g_failed; ++round) {
    for (std::size_t q = 0; q < kNumQueries; ++q) {
      const CannedQuery& query = kQueries[q];
      try {
        netpp::serve::write_frame(fd, query.request);
        if (!netpp::serve::read_frame(fd, payload)) {
          fail("client " + std::to_string(client) +
               ": server closed mid-conversation");
          break;
        }
        const JsonValue response = netpp::serve::parse_json(payload);
        const JsonValue* ok = response.find("ok");
        const JsonValue* id = response.find("id");
        if (ok == nullptr || ok->kind() != JsonKind::kBool ||
            id == nullptr || id->as_number() != static_cast<double>(q)) {
          fail("client " + std::to_string(client) + " query " +
               std::to_string(q) + ": malformed envelope: " + payload);
          break;
        }
        if (query.expect_error[0] != '\0') {
          const JsonValue* error = response.find("error");
          const JsonValue* code =
              error != nullptr ? error->find("code") : nullptr;
          if (ok->as_bool() || code == nullptr ||
              code->as_string() != query.expect_error) {
            fail("client " + std::to_string(client) + " query " +
                 std::to_string(q) + ": expected " + query.expect_error +
                 ", got: " + payload);
            break;
          }
          continue;
        }
        if (!ok->as_bool()) {
          fail("client " + std::to_string(client) + " query " +
               std::to_string(q) + ": unexpected error: " + payload);
          break;
        }
        const JsonValue* result = response.find("result");
        const JsonValue* body =
            result != nullptr ? result->find("payload") : nullptr;
        if (body == nullptr || body->as_string().empty()) {
          fail("client " + std::to_string(client) + " query " +
               std::to_string(q) + ": empty payload");
          break;
        }
        // Warm state is shared: identical queries must produce identical
        // bytes for every client, every round.
        const std::lock_guard<std::mutex> lock{g_mutex};
        if (g_reference[q].empty()) {
          g_reference[q] = body->as_string();
        } else if (g_reference[q] != body->as_string()) {
          std::fprintf(stderr,
                       "serve_stress: client %d query %zu: payload diverged "
                       "across clients\n",
                       client, q);
          g_failed = true;
          break;
        }
      } catch (const std::exception& e) {
        fail("client " + std::to_string(client) + " query " +
             std::to_string(q) + ": " + e.what());
        break;
      }
    }
  }
  ::close(fd);
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  int clients = 4;
  int rounds = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--socket" && i + 1 < argc) {
      path = argv[++i];
    } else if (flag == "--clients" && i + 1 < argc) {
      clients = std::atoi(argv[++i]);
    } else if (flag == "--rounds" && i + 1 < argc) {
      rounds = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: serve_stress --socket PATH [--clients N] "
                   "[--rounds M]\n");
      return 2;
    }
  }
  if (path.empty() || clients < 1 || rounds < 1) {
    std::fprintf(stderr,
                 "usage: serve_stress --socket PATH [--clients N] "
                 "[--rounds M]\n");
    return 2;
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back(run_client, path, c, rounds);
  }
  for (std::thread& worker : workers) worker.join();
  if (g_failed) return 1;
  std::printf("serve_stress: %d clients x %d rounds x %zu queries ok\n",
              clients, rounds, kNumQueries);
  return 0;
}
