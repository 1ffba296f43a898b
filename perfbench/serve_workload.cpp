// whatif_serve: netpp_serve --socket driven closed-loop, as users run it.
//
// Plain runs repeat sessions until the time is up. A session spawns a fresh
// daemon (set-up ends when it answers its first query), replays the seeded
// query stream over two connections from this one thread — each connection
// sends its next query as soon as its previous answer arrives — reads the
// daemon's peak RSS from /proc and stops it. Every session replays the same
// stream, so sessions are repetitions of one piece of work. After the timed
// sessions every distinct answer is byte-compared with a fresh cold
// QueryEngine{result_cache=false}.
//
// Traced runs replay the same stream in-process through
// parse_json -> parse_query -> QueryEngine::answer -> dump with one client,
// so each query's EngineStats delta names its cache outcome exactly.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "netpp/mech/composite.h"
#include "netpp/serve/engine.h"
#include "netpp/serve/json.h"
#include "netpp/serve/protocol.h"
#include "netpp/serve/query.h"
#include "netpp/serve/scenarios.h"
#include "netpp/sim/random.h"
#include "perfbench.h"

extern char** environ;

namespace perfbench {

using namespace netpp;

namespace {

constexpr std::uint64_t kMinSessions = 3;
constexpr const char* kFirstQuery = R"({"command":"cluster","output":"csv"})";

std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

// ---------------------------------------------------------------------------
// The query catalogue. Each family is listed most-popular first; nested
// loops put near-repeats (same baseline or CompositeCache, another output,
// policy, stack or OCS count) next to each other, so the popular head of a
// family shares warm state the way a dashboard's panels do.
// ---------------------------------------------------------------------------

struct Catalogue {
  std::vector<std::string> analytic;
  std::vector<std::string> faults_single;
  std::vector<std::string> faults_sharded;
  std::vector<std::string> mech_single;
  std::vector<std::string> mech_sharded;
};

const Catalogue& catalogue() {
  static const Catalogue c = [] {
    Catalogue c;
    const double gpus[] = {8192, 4096, 16384, 2048};
    const double gbps[] = {800, 400, 200};
    const double props[] = {0.5, 0.85, 0.25, 1.0};
    for (std::size_t i = 0; i < 4; ++i) {
      for (const double g : gbps) {
        c.analytic.push_back(format(
            R"({"command":"cluster","gpus":%g,"gbps":%g,"output":"csv"})",
            gpus[i], g));
        c.analytic.push_back(format(
            R"({"command":"savings","prop":%g,"gbps":%g,"output":"csv"})",
            props[i], g));
      }
    }
    const char* outputs[] = {"csv", "table", "metrics"};
    for (const double mtbf : {10.0, 5.0, 2.0}) {
      for (const int seed : {1, 7, 3}) {
        for (const char* policy : {"re-tailor", "wake-all", "none"}) {
          for (const char* out : outputs) {
            c.faults_single.push_back(format(
                R"({"command":"faults","mtbf_s":%g,"seed":%d,"policy":"%s","output":"%s"})",
                mtbf, seed, policy, out));
          }
        }
      }
    }
    for (const double mtbf : {10.0, 5.0}) {
      for (const int seed : {1, 7}) {
        for (const int shards : {4, 2}) {
          for (const char* out : {"csv", "table"}) {
            c.faults_sharded.push_back(format(
                R"({"command":"faults","mtbf_s":%g,"seed":%d,"backend":"sharded","shards":%d,"output":"%s"})",
                mtbf, seed, shards, out));
          }
        }
      }
    }
    for (const int iters : {2, 4, 3}) {
      for (const int ocs : {4, 0, 8}) {
        for (const char* stack : {"all", "dynamic", "park", "rate", "tailor"}) {
          for (const char* out : {"csv", "table"}) {
            c.mech_single.push_back(format(
                R"({"command":"mech","iters":%d,"ocs":%d,"stack":"%s","output":"%s"})",
                iters, ocs, stack, out));
          }
        }
      }
    }
    for (const int iters : {2, 4}) {
      for (const int shards : {4, 2}) {
        for (const char* stack : {"all", "dynamic", "park"}) {
          c.mech_sharded.push_back(format(
              R"({"command":"mech","iters":%d,"stack":"%s","backend":"sharded","shards":%d,"output":"csv"})",
              iters, stack, shards));
        }
      }
    }
    return c;
  }();
  return c;
}

}  // namespace

std::vector<std::string> make_query_stream(std::uint64_t seed) {
  const Catalogue& cat = catalogue();
  Rng rng{seed ^ 0x7768617469660000ull};
  std::vector<std::string> stream;
  stream.reserve(kStreamQueries);
  const auto share = [](std::size_t n, double fraction) {
    return static_cast<std::size_t>(std::lround(static_cast<double>(n) * fraction));
  };
  // Zipf-like draws by systematic sampling: n evenly spaced quantiles of
  // the rank distribution (weight 1/(r+1)^s) behind one seeded offset, so
  // every seed draws each entry its expected number of times, give or take
  // one. The seed moves the offset, the cold tuples and the order.
  const auto draw = [&](const std::vector<std::string>& list, std::size_t n) {
    std::vector<double> cumulative;
    double total = 0.0;
    for (std::size_t r = 0; r < list.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      cumulative.push_back(total);
    }
    const double offset = rng.uniform();
    std::size_t rank = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const double u = (static_cast<double>(k) + offset) /
                       static_cast<double>(n) * total;
      while (rank + 1 < list.size() && cumulative[rank] <= u) ++rank;
      stream.push_back(list[rank]);
    }
  };
  // Tuples no other query uses: each builds fresh warm state.
  std::size_t cold = 0;
  const auto add_cold = [&](serve::QueryKind kind, bool sharded,
                            std::size_t n) {
    const char* backend = sharded ? R"(,"backend":"sharded","shards":4)" : "";
    for (std::size_t i = 0; i < n; ++i, ++cold) {
      if (kind == serve::QueryKind::kCluster) {
        stream.push_back(format(
            R"({"command":"cluster","gpus":%zu,"gbps":400,"output":"csv"})",
            1000 + cold));
      } else if (kind == serve::QueryKind::kFaults) {
        stream.push_back(format(
            R"({"command":"faults","mtbf_s":%g,"seed":%zu%s,"output":"csv"})",
            rng.uniform() < 0.5 ? 10.0 : 5.0, 1000 + cold, backend));
      } else {
        stream.push_back(format(
            R"({"command":"mech","iters":%d,"volume_gbit":%.10g%s,"output":"csv"})",
            rng.uniform() < 0.5 ? 2 : 3,
            1.5 + static_cast<double>(cold) / 1024.0, backend));
      }
    }
  };
  const auto family = [&](const std::vector<std::string>& list,
                          serve::QueryKind kind, bool sharded, std::size_t n) {
    const std::size_t n_cold = share(n, kColdShare);
    draw(list, n - n_cold);
    add_cold(kind, sharded, n_cold);
  };
  const std::size_t analytic = share(kStreamQueries, kAnalyticShare);
  const std::size_t faults = share(kStreamQueries, kFaultsShare);
  const std::size_t mech = kStreamQueries - analytic - faults;
  const std::size_t faults_sharded = share(faults, kShardedShare);
  const std::size_t mech_sharded = share(mech, kShardedShare);
  family(cat.analytic, serve::QueryKind::kCluster, false, analytic);
  family(cat.faults_single, serve::QueryKind::kFaults, false,
         faults - faults_sharded);
  family(cat.faults_sharded, serve::QueryKind::kFaults, true, faults_sharded);
  family(cat.mech_single, serve::QueryKind::kMech, false, mech - mech_sharded);
  family(cat.mech_sharded, serve::QueryKind::kMech, true, mech_sharded);
  for (std::size_t i = stream.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(stream[i - 1], stream[j]);
  }
  return stream;
}

namespace {

// ---------------------------------------------------------------------------
// The daemon and its clients.
// ---------------------------------------------------------------------------

/// One netpp_serve --socket child. The destructor stops it and waits.
class Daemon {
 public:
  Daemon(const std::string& binary, std::string socket_path)
      : socket_(std::move(socket_path)) {
    ::unlink(socket_.c_str());
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    std::vector<std::string> args{binary, "--socket", socket_};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + binary + ": " +
                               std::strerror(rc));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Connects to the daemon's socket, retrying while it starts up.
  int connect() {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    for (;;) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) throw std::runtime_error("socket() failed");
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, socket_.c_str(), sizeof(addr.sun_path) - 1);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0) {
        fds_.push_back(fd);
        return fd;
      }
      ::close(fd);
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("netpp_serve exited during start-up");
      }
      if (Clock::now() > deadline) {
        throw std::runtime_error("netpp_serve did not listen on " + socket_);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  [[nodiscard]] double peak_rss() const {
    return pid_ > 0 ? peak_rss_mib(pid_) : 0.0;
  }

  void stop() {
    for (const int fd : fds_) ::close(fd);
    fds_.clear();
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
    ::unlink(socket_.c_str());
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  std::vector<int> fds_;
};

struct Session {
  double setup_s = 0.0;
  double run_s = 0.0;
  double rss_mib = 0.0;
  std::vector<double> latency_ms;
  std::vector<std::string> responses;
};

/// One session: fresh daemon, first answer, then the stream closed-loop over
/// two connections.
Session run_session(const Options& opt, const std::vector<std::string>& stream,
                    std::uint64_t index) {
  Session out;
  const std::string socket_path = opt.work_dir + "/serve-" +
                                  std::to_string(::getpid()) + "-" +
                                  std::to_string(index) + ".sock";
  const auto t0 = Clock::now();
  Daemon daemon{opt.serve_bin, socket_path};
  struct Conn {
    int fd = -1;
    std::size_t query = 0;
    Clock::time_point sent;
  };
  Conn conns[2];
  conns[0].fd = daemon.connect();
  std::string payload;
  serve::write_frame(conns[0].fd, kFirstQuery);
  if (!serve::read_frame(conns[0].fd, payload)) {
    throw std::runtime_error("netpp_serve closed the first connection");
  }
  out.setup_s = seconds_between(t0, Clock::now());
  conns[1].fd = daemon.connect();

  out.responses.resize(stream.size());
  out.latency_ms.reserve(stream.size());
  std::size_t next = 0;
  std::size_t done = 0;
  const auto send = [&](Conn& c) {
    c.query = next++;
    c.sent = Clock::now();
    serve::write_frame(c.fd, stream[c.query]);
  };
  const auto start = Clock::now();
  pollfd pfds[2];
  for (Conn& c : conns) {
    if (next < stream.size()) send(c);
  }
  while (done < stream.size()) {
    nfds_t n = 0;
    for (const Conn& c : conns) pfds[n++] = pollfd{c.fd, POLLIN, 0};
    const int ready = ::poll(pfds, n, 120'000);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) throw std::runtime_error("netpp_serve stopped answering");
    for (nfds_t i = 0; i < n; ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns[i];
      if (!serve::read_frame(c.fd, payload)) {
        throw std::runtime_error("netpp_serve closed a connection");
      }
      out.latency_ms.push_back(seconds_between(c.sent, Clock::now()) * 1e3);
      out.responses[c.query] = std::move(payload);
      ++done;
      if (next < stream.size()) {
        send(c);
      } else {
        // Park the idle connection on a descriptor poll never reports.
        c.fd = -1;
      }
    }
  }
  out.run_s = seconds_between(start, Clock::now());
  out.rss_mib = daemon.peak_rss();
  return out;
}

bool is_ok_envelope(const std::string& response) {
  try {
    const serve::JsonValue v = serve::parse_json(response);
    const serve::JsonValue* ok = v.find("ok");
    return ok != nullptr && ok->kind() == serve::JsonKind::kBool &&
           ok->as_bool();
  } catch (const std::exception&) {
    return false;
  }
}

using Answers = std::map<std::string, std::string>;

Answers answers_by_request(const std::vector<std::string>& stream,
                           const std::vector<std::string>& responses) {
  Answers answers;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    answers.emplace(stream[i], responses[i]);
  }
  return answers;
}

/// FNV-1a over every (request, answer) pair, each string NUL-terminated.
std::string answers_digest(const Answers& answers) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
    h *= 0x100000001b3ull;  // the terminating NUL
  };
  for (const auto& [request, response] : answers) {
    mix(request);
    mix(response);
  }
  return format("%016llx", static_cast<unsigned long long>(h));
}

RunResult run_sessions(const Options& opt,
                       const std::vector<std::string>& stream) {
  RunResult r;
  std::vector<double> setup;
  std::vector<double> run;
  std::vector<double> rss;
  std::vector<std::vector<double>> latency;
  // First answer seen for every distinct request; later sessions must repeat
  // it byte for byte.
  Answers answers;
  std::size_t sessions = 0;
  std::vector<std::string> order = stream;
  const auto start = Clock::now();
  while (sessions < kMinSessions ||
         seconds_between(start, Clock::now()) < opt.seconds) {
    // Which slow queries overlap on the two connections depends on the
    // order, so every session after the first replays the same queries in
    // its own seeded order; the medians then average over orders.
    if (sessions > 0) {
      Rng rng{opt.seed * 0x9e3779b97f4a7c15ull + sessions};
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1],
                  order[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(i) - 1))]);
      }
    }
    Session s = run_session(opt, order, sessions++);
    setup.push_back(s.setup_s);
    run.push_back(s.run_s);
    rss.push_back(s.rss_mib);
    latency.push_back(std::move(s.latency_ms));
    ++r.attempted;  // the set-up query
    for (std::size_t i = 0; i < order.size(); ++i) {
      ++r.attempted;
      const auto [it, fresh] = answers.emplace(order[i], s.responses[i]);
      if (!fresh && it->second != s.responses[i]) {
        r.fail("session " + std::to_string(sessions) +
               " answered differently: " + order[i]);
      }
    }
  }

  // Outside the timed window: every distinct answer against a cold engine.
  const auto check_start = Clock::now();
  for (const auto& [request, response] : answers) {
    if (!is_ok_envelope(response)) {
      r.fail("error envelope for " + request + ": " + response.substr(0, 200));
      continue;
    }
    serve::EngineConfig cold_config;
    cold_config.result_cache = false;
    serve::QueryEngine cold{cold_config};
    if (cold.handle_text(request) != response) {
      r.fail("daemon answer differs from a cold engine for " + request);
    }
  }
  check_recorded(r, opt.seed, answers_digest(answers),
                 &RecordedDigests::whatif_serve);
  r.report.push_back(format(
      "queries/session=%zu distinct=%zu sessions=%zu clients=1 "
      "connections=2 closed-loop; cold check %.2fs",
      stream.size(), answers.size(), sessions,
      seconds_between(check_start, Clock::now())));

  const Summary su = summarize(setup);
  const Summary ru = summarize(run);
  const double qps = static_cast<double>(stream.size()) / ru.median;
  r.add("setup_s", su.median, "s",
        "spawn -> first answer; " + describe(su, "s"));
  r.add("run_s", ru.median, "s",
        format("one %zu-query session; ", stream.size()) + describe(ru, "s"));
  r.add("qps", qps, "1/s", format("%zu queries / median run_s", stream.size()));
  r.add_latency(latency, "query (frame sent -> frame received)");
  const Summary mem = summarize(rss);
  r.add("peak_rss_mb", mem.median, "MiB",
        "daemon VmHWM; " + describe(mem, "MiB"));
  return r;
}

// ---------------------------------------------------------------------------
// Traced replay.
// ---------------------------------------------------------------------------

struct ReplayTrace {
  std::vector<double> json_parse_us;
  std::vector<double> query_parse_us;
  std::vector<double> dump_us;
  std::vector<double> hit_us;
  std::vector<double> analytic_us;
  std::vector<double> faults_single_ms;
  std::vector<double> faults_sharded_ms;
  std::vector<double> mech_single_ms;
  std::vector<double> mech_sharded_ms;
  serve::EngineStats stats;
};

/// Replays the stream through a fresh engine; returns the responses.
/// With `trace` set, times every layer call and records spans.
std::vector<std::string> replay(const std::vector<std::string>& stream,
                                ReplayTrace* trace, Tracer* tracer,
                                std::uint64_t replay_id) {
  serve::QueryEngine engine;
  std::vector<std::string> out;
  out.reserve(stream.size());
  const auto us = [](Clock::time_point a, Clock::time_point b) {
    return seconds_between(a, b) * 1e6;
  };
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (trace == nullptr) {
      out.push_back(engine.handle_text(stream[i]));
      continue;
    }
    const std::uint64_t request = replay_id * 1'000'000 + i;
    const serve::EngineStats before = engine.stats();
    const auto t0 = Clock::now();
    const serve::JsonValue json = serve::parse_json(stream[i]);
    const auto t1 = Clock::now();
    const serve::Query query = serve::parse_query(json);
    const auto t2 = Clock::now();
    const serve::JsonValue response = engine.answer(query);
    const auto t3 = Clock::now();
    out.push_back(response.dump());
    const auto t4 = Clock::now();
    const serve::EngineStats after = engine.stats();

    const char* answer_name = "serve.answer.analytic";
    const bool sharded = query.opt.backend.kind == BackendKind::kSharded;
    if (after.result_reuses != before.result_reuses) {
      trace->hit_us.push_back(us(t2, t3));
      answer_name = "serve.answer.result_hit";
    } else if (query.kind == serve::QueryKind::kFaults) {
      (sharded ? trace->faults_sharded_ms : trace->faults_single_ms)
          .push_back(us(t2, t3) / 1e3);
      answer_name = sharded ? "serve.answer.faults_sharded"
                            : "serve.answer.faults_single";
    } else if (query.kind == serve::QueryKind::kMech) {
      (sharded ? trace->mech_sharded_ms : trace->mech_single_ms)
          .push_back(us(t2, t3) / 1e3);
      answer_name =
          sharded ? "serve.answer.mech_sharded" : "serve.answer.mech_single";
    } else {
      trace->analytic_us.push_back(us(t2, t3));
    }
    trace->json_parse_us.push_back(us(t0, t1));
    trace->query_parse_us.push_back(us(t1, t2));
    trace->dump_us.push_back(us(t3, t4));
    if (tracer != nullptr) {
      const auto root =
          tracer->record("serve.request", t0, t4, Tracer::kNoParent, request);
      tracer->record("serve.json.parse", t0, t1, root, request);
      tracer->record("serve.query.parse", t1, t2, root, request);
      tracer->record(answer_name, t2, t3, root, request);
      tracer->record("serve.json.dump", t3, t4, root, request);
    }
  }
  if (trace != nullptr) trace->stats = engine.stats();
  return out;
}

/// Wall time of one cold run_composite on the canned mech scenario.
double composite_ms(BackendKind kind, std::size_t shards, std::size_t threads) {
  serve::ScenarioOptions options;
  options.backend.kind = kind;
  options.backend.num_shards = shards;
  options.backend.num_threads = threads;
  const serve::CannedMechScenario s = serve::make_canned_mech_scenario(options);
  const auto a = Clock::now();
  const CompositeReport report =
      run_composite(s.topo, s.workload, s.demands, s.horizon, s.config);
  const auto b = Clock::now();
  if (!(report.combined_savings > 0.0)) {
    throw std::runtime_error("run_composite reported no savings");
  }
  return seconds_between(a, b) * 1e3;
}

RunResult run_traced(const Options& opt, const std::vector<std::string>& stream,
                     Tracer* tracer) {
  RunResult r;
  ReplayTrace trace;
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::vector<std::string> reference;
  const auto start = Clock::now();
  for (std::uint64_t round = 0;
       round < 2 || seconds_between(start, Clock::now()) < opt.seconds;
       ++round) {
    const bool traced = round % 2 == 1;
    ReplayTrace one;
    const auto a = Clock::now();
    std::vector<std::string> responses =
        replay(stream, traced ? &one : nullptr, traced ? tracer : nullptr,
               round);
    (traced ? traced_s : plain_s).push_back(seconds_between(a, Clock::now()));
    if (traced) {
      // Pool the layer samples of every traced replay.
      for (auto [dst, src] :
           {std::pair{&trace.json_parse_us, &one.json_parse_us},
            std::pair{&trace.query_parse_us, &one.query_parse_us},
            std::pair{&trace.dump_us, &one.dump_us},
            std::pair{&trace.hit_us, &one.hit_us},
            std::pair{&trace.analytic_us, &one.analytic_us},
            std::pair{&trace.faults_single_ms, &one.faults_single_ms},
            std::pair{&trace.faults_sharded_ms, &one.faults_sharded_ms},
            std::pair{&trace.mech_single_ms, &one.mech_single_ms},
            std::pair{&trace.mech_sharded_ms, &one.mech_sharded_ms}}) {
        dst->insert(dst->end(), src->begin(), src->end());
      }
      trace.stats = one.stats;
    }
    if (reference.empty()) {
      reference = std::move(responses);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        ++r.attempted;
        if (!is_ok_envelope(reference[i])) {
          r.fail("error envelope for " + stream[i]);
        }
      }
      continue;
    }
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ++r.attempted;
      if (responses[i] != reference[i]) {
        r.fail(format("replay %llu query %zu differs: ",
                      static_cast<unsigned long long>(round), i) +
               stream[i]);
      }
    }
  }
  check_recorded(r, opt.seed,
                 answers_digest(answers_by_request(stream, reference)),
                 &RecordedDigests::whatif_serve);
  r.report.push_back(format("in-process replays of %zu queries: %zu+%zu traced",
                            stream.size(), plain_s.size(), traced_s.size()));

  r.add("serve.json.parse_us.p50", summarize(trace.json_parse_us).median, "us",
        describe(summarize(trace.json_parse_us), "us"));
  r.add("serve.query.parse_us.p50", summarize(trace.query_parse_us).median,
        "us", describe(summarize(trace.query_parse_us), "us"));
  r.add("serve.json.dump_us.p50", summarize(trace.dump_us).median, "us",
        describe(summarize(trace.dump_us), "us"));
  r.add("serve.answer.result_hit_us.p50", summarize(trace.hit_us).median, "us",
        describe(summarize(trace.hit_us), "us"));
  r.add_percentiles("serve.answer.faults_single_ms",
                    summarize(trace.faults_single_ms), "ms");
  r.add_percentiles("serve.answer.faults_sharded_ms",
                    summarize(trace.faults_sharded_ms), "ms");
  r.add_percentiles("serve.answer.mech_single_ms",
                    summarize(trace.mech_single_ms), "ms");
  r.add_percentiles("serve.answer.mech_sharded_ms",
                    summarize(trace.mech_sharded_ms), "ms");
  r.add("serve.answer.analytic_us.p50", summarize(trace.analytic_us).median,
        "us", describe(summarize(trace.analytic_us), "us"));

  const serve::EngineStats& st = trace.stats;
  r.add("serve.cache.result_hit_ratio",
        st.queries == 0 ? 0.0
                        : static_cast<double>(st.result_reuses) /
                              static_cast<double>(st.queries),
        "ratio",
        format("(%zu of %zu queries, one replay)", st.result_reuses,
               st.queries));
  r.add("serve.cache.baselines_built", static_cast<double>(st.baselines_built),
        "count", "one replay");
  r.add("serve.cache.baseline_forks", static_cast<double>(st.baseline_forks),
        "count", "one replay");
  r.add("mech.cache.sim_reuses", static_cast<double>(st.sim_reuses), "count",
        "one replay");
  r.add("mech.cache.stage_reuses", static_cast<double>(st.stage_reuses),
        "count", "one replay");

  // Cross-path: the canned mech scenario cold on each backend.
  std::vector<double> single;
  std::vector<double> sharded;
  std::vector<double> sharded_one;
  for (int i = 0; i < 7; ++i) {
    single.push_back(composite_ms(BackendKind::kSingle, 1, 0));
    sharded.push_back(composite_ms(BackendKind::kSharded, 4, 0));
    sharded_one.push_back(composite_ms(BackendKind::kSharded, 4, 1));
  }
  const double single_ms = median_of(single);
  const double sharded_ms = median_of(sharded);
  r.add("mech.composite.sharded_over_single_x", sharded_ms / single_ms, "x",
        format("run_composite %.4g ms on 4 shards / %.4g ms single "
               "(%.4g ms on 4 shards with 1 worker; medians of 7)",
               sharded_ms, single_ms, median_of(sharded_one)));

  const double plain = median_of(plain_s);
  const double traced = median_of(traced_s);
  r.add("trace_overhead_pct", (traced / plain - 1.0) * 100.0, "%",
        format("traced replay %.6g s vs plain %.6g s (medians of %zu/%zu)",
               traced, plain, traced_s.size(), plain_s.size()));
  return r;
}

}  // namespace

std::string whatif_answers_digest(std::uint64_t seed) {
  const std::vector<std::string> stream = make_query_stream(seed);
  return answers_digest(answers_by_request(stream, replay(stream, nullptr,
                                                          nullptr, 0)));
}

RunResult run_whatif_serve(const Options& opt, Tracer* tracer) {
  const std::vector<std::string> stream = make_query_stream(opt.seed);
  RunResult r = opt.trace ? run_traced(opt, stream, tracer)
                          : run_sessions(opt, stream);
  r.report.insert(
      r.report.begin(),
      format("stream: %zu queries, analytic %.2f faults %.2f mech %.2f, "
             "sharded %.3f of faults+mech, cold %.2f, zipf s=%.2f (assumed)",
             kStreamQueries, kAnalyticShare, kFaultsShare,
             1.0 - kAnalyticShare - kFaultsShare, kShardedShare, kColdShare,
             kZipfS));
  return r;
}

}  // namespace perfbench
