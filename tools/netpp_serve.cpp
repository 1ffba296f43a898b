// netpp_serve: the warm-state what-if query server over the simulator.
//
//   netpp_serve --socket PATH [--threads N] [--warm] [--baseline F] [--stats]
//   netpp_serve --stdin      [--threads N] [--warm] [--baseline F] [--stats]
//   netpp_serve --oneshot JSON [--baseline F]
//   netpp_serve --save-baseline F
//
// One process loads the scenario machinery once and answers batched what-if
// queries against warm state (see docs/SERVING.md for the protocol and the
// query schema). Three front ends share the one QueryEngine:
//
//   --socket PATH  length-prefixed JSON frames on a unix domain socket, one
//                  response frame per request frame, one thread per client.
//   --stdin        newline-delimited JSON on stdin/stdout (pipe mode, for
//                  tests and CI: no socket cleanup to get wrong).
//   --oneshot Q    answer a single query and exit: the ok payload goes to
//                  stdout verbatim (byte-identical to the equivalent
//                  netpp_cli run), a typed error becomes one
//                  `netpp_serve: error: <code>: <message>` line and exit 2.
//
// --save-baseline captures the default faults warm baseline to a file;
// --baseline installs such a file (or any faults snapshot) instead of
// building the baseline in-process. A damaged baseline file does not take
// the server down: queries that fork it are answered with typed
// corrupt_baseline errors.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "netpp/serve/engine.h"
#include "netpp/serve/protocol.h"
#include "netpp/serve/query.h"

namespace {

using namespace netpp;

struct Options {
  std::string socket_path;
  std::string oneshot;
  std::string baseline;
  std::string save_baseline;
  bool stdin_mode = false;
  bool warm = false;
  bool stats = false;
  std::size_t threads = 0;
};

int error_out(const std::string& message) {
  std::fprintf(stderr, "netpp_serve: error: %s\n", message.c_str());
  return 2;
}

int usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: netpp_serve (--socket PATH | --stdin | --oneshot JSON |\n"
      "                    --save-baseline FILE) [flags]\n"
      "\n"
      "modes (exactly one):\n"
      "  --socket PATH        serve length-prefixed JSON frames on a unix\n"
      "                       domain socket (one thread per client)\n"
      "  --stdin              newline-delimited JSON on stdin/stdout\n"
      "  --oneshot JSON       answer one query: payload to stdout, typed\n"
      "                       errors as 'netpp_serve: error: ...' + exit 2\n"
      "  --save-baseline F    capture the default faults warm baseline\n"
      "\n"
      "flags:\n"
      "  --baseline FILE      install a warm-baseline image from FILE\n"
      "  --threads N          batch worker ceiling (0 = thread budget)\n"
      "  --warm               build the default baseline before serving\n"
      "  --stats              print engine stats to stderr on exit\n"
      "  --help               this text\n");
  return out == stdout ? 0 : 2;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string inline_value;
    bool has_inline_value = false;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      has_inline_value = true;
    }
    if (flag == "--stdin" || flag == "--warm" || flag == "--stats") {
      if (has_inline_value) {
        error_out("flag '" + flag + "' takes no value");
        return false;
      }
      if (flag == "--stdin") opt.stdin_mode = true;
      if (flag == "--warm") opt.warm = true;
      if (flag == "--stats") opt.stats = true;
      continue;
    }
    const bool known_flag = flag == "--socket" || flag == "--oneshot" ||
                            flag == "--baseline" ||
                            flag == "--save-baseline" || flag == "--threads";
    if (!known_flag) {
      error_out("unknown flag '" + flag + "' (see 'netpp_serve --help')");
      return false;
    }
    if (!has_inline_value && i + 1 >= argc) {
      error_out("flag '" + flag + "' needs a value");
      return false;
    }
    const std::string value =
        has_inline_value ? inline_value : std::string{argv[++i]};
    if (flag == "--socket") {
      opt.socket_path = value;
    } else if (flag == "--oneshot") {
      opt.oneshot = value;
    } else if (flag == "--baseline") {
      opt.baseline = value;
    } else if (flag == "--save-baseline") {
      opt.save_baseline = value;
    } else {
      try {
        opt.threads = static_cast<std::size_t>(
            serve::read_flag_number(flag, value, {.whole = true}));
      } catch (const serve::ServeError& e) {
        error_out(e.what());
        return false;
      }
    }
  }
  const int modes = (!opt.socket_path.empty() ? 1 : 0) +
                    (opt.stdin_mode ? 1 : 0) + (!opt.oneshot.empty() ? 1 : 0) +
                    (!opt.save_baseline.empty() ? 1 : 0);
  if (modes != 1) {
    error_out(
        "pick exactly one mode: --socket, --stdin, --oneshot, or "
        "--save-baseline");
    return false;
  }
  return true;
}

/// --oneshot: the ok payload goes to stdout verbatim so the output is
/// byte-comparable against the equivalent netpp_cli run; typed errors keep
/// the CLI's one-line stderr contract with the machine-readable code first.
int run_oneshot(serve::QueryEngine& engine, const std::string& text) {
  serve::JsonValue request;
  try {
    request = serve::parse_json(text);
  } catch (const std::exception& e) {
    return error_out(std::string{"bad_json: "} + e.what());
  }
  const serve::JsonValue response = engine.handle(request);
  if (response.kind() == serve::JsonKind::kArray) {
    std::printf("%s\n", response.dump().c_str());
    return 0;
  }
  const serve::JsonValue* ok = response.find("ok");
  if (ok != nullptr && ok->kind() == serve::JsonKind::kBool &&
      ok->as_bool()) {
    const serve::JsonValue* result = response.find("result");
    const serve::JsonValue* payload =
        result != nullptr ? result->find("payload") : nullptr;
    if (payload != nullptr) {
      std::fputs(payload->as_string().c_str(), stdout);
      return 0;
    }
  }
  const serve::JsonValue* error = response.find("error");
  if (error != nullptr) {
    const serve::JsonValue* code = error->find("code");
    const serve::JsonValue* message = error->find("message");
    return error_out((code != nullptr ? code->as_string() : "internal") +
                     ": " +
                     (message != nullptr ? message->as_string() : ""));
  }
  return error_out("internal: malformed response envelope");
}

int run_stdin(serve::QueryEngine& engine) {
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    const std::string response = engine.handle_text(line);
    std::fwrite(response.data(), 1, response.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }
  return 0;
}

void serve_connection(serve::QueryEngine& engine, int fd) {
  std::string payload;
  try {
    while (serve::read_frame(fd, payload)) {
      serve::write_frame(fd, engine.handle_text(payload));
    }
  } catch (const serve::ServeError& e) {
    // Unreadable framing (or a vanished peer): try to say why, then drop
    // the connection — one broken client must not take the server down.
    try {
      serve::write_frame(
          fd, serve::make_error_response(serve::JsonValue{}, e.code(),
                                         e.field(), e.what())
                  .dump());
    } catch (...) {
    }
  }
  ::close(fd);
}

int run_socket(serve::QueryEngine& engine, const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return error_out("socket path too long: " + path);
  }
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return error_out(std::string{"socket: "} + std::strerror(errno));
  }
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return error_out("bind " + path + ": " + std::strerror(errno));
  }
  if (::listen(listen_fd, 64) != 0) {
    return error_out(std::string{"listen: "} + std::strerror(errno));
  }
  std::fprintf(stderr, "netpp_serve: listening on %s\n", path.c_str());
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return error_out(std::string{"accept: "} + std::strerror(errno));
    }
    std::thread{[&engine, fd] { serve_connection(engine, fd); }}.detach();
  }
}

void print_stats(const serve::QueryEngine& engine) {
  const serve::EngineStats s = engine.stats();
  std::fprintf(stderr,
               "netpp_serve: stats: queries=%zu result_reuses=%zu "
               "baselines_built=%zu baseline_forks=%zu sim_reuses=%zu "
               "stage_reuses=%zu\n",
               s.queries, s.result_reuses, s.baselines_built,
               s.baseline_forks, s.sim_reuses, s.stage_reuses);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                    std::strcmp(argv[1], "help") == 0)) {
    return usage(stdout);
  }
  Options opt;
  if (!parse(argc, argv, opt)) return 2;
  // A client closing mid-response must surface as a write error, not kill
  // the process.
  std::signal(SIGPIPE, SIG_IGN);

  serve::EngineConfig config;
  config.num_threads = opt.threads;
  serve::QueryEngine engine{config};
  try {
    if (!opt.save_baseline.empty()) {
      engine.save_baseline(opt.save_baseline);
      std::printf("saved baseline to %s\n", opt.save_baseline.c_str());
      return 0;
    }
    if (!opt.baseline.empty()) {
      engine.load_baseline(opt.baseline);
    } else if (opt.warm) {
      engine.warm_default_baseline();
    }
  } catch (const std::exception& e) {
    return error_out(e.what());
  }

  int status = 0;
  if (!opt.oneshot.empty()) {
    status = run_oneshot(engine, opt.oneshot);
  } else if (opt.stdin_mode) {
    status = run_stdin(engine);
  } else {
    status = run_socket(engine, opt.socket_path);
  }
  if (opt.stats) print_stats(engine);
  return status;
}
