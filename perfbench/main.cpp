// netpp_perfbench: runs one benchmark workload and prints its metrics.
//
//   netpp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --serve-bin PATH [--work-dir DIR]
//
// Workloads: pod_poisson, multipod_sharded, whatif_serve. With --trace 0
// the last stdout line carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics and the spans go to
// DIR/trace-<workload>-seed<N>.json (Chrome-trace JSON, Perfetto opens it).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "perfbench.h"

namespace {

using perfbench::kEndToEnd;
using perfbench::kPerLayer;
using perfbench::Options;
using perfbench::RunResult;

int usage() {
  std::fprintf(stderr,
               "usage: netpp_perfbench --workload "
               "pod_poisson|multipod_sharded|whatif_serve --seed N "
               "--seconds S --trace 0|1 --serve-bin PATH [--work-dir DIR]\n");
  return 2;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--serve-bin") {
      opt.serve_bin = value;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) return false;
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return usage();
  perfbench::Tracer tracer;
  perfbench::Tracer* spans = opt.trace ? &tracer : nullptr;
  RunResult result;
  try {
    if (opt.workload == "pod_poisson") {
      result = perfbench::run_pod_poisson(opt, spans);
    } else if (opt.workload == "multipod_sharded") {
      result = perfbench::run_multipod_sharded(opt, spans);
    } else if (opt.workload == "whatif_serve") {
      if (opt.serve_bin.empty()) return usage();
      result = perfbench::run_whatif_serve(opt, spans);
    } else {
      std::fprintf(stderr, "netpp_perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "netpp_perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  std::vector<std::string> keep = kEndToEnd;
  if (opt.trace) {
    keep.clear();
    for (const auto& [name, unit] : kPerLayer) {
      keep.push_back(name);
      if (result.find(name) == nullptr) {
        result.add(name, 0.0, unit, "idle on this workload");
      }
    }
    const std::string path = opt.work_dir + "/trace-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    if (!tracer.write_chrome_trace(path)) {
      std::fprintf(stderr, "netpp_perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    result.report.push_back("trace: " + path + " (" +
                            std::to_string(tracer.kept()) + " spans, " +
                            std::to_string(tracer.dropped()) +
                            " past the span cap)");
  } else {
    for (const std::string& name : kEndToEnd) {
      if (result.find(name) == nullptr) {
        std::fprintf(stderr, "netpp_perfbench: %s did not measure %s\n",
                     opt.workload.c_str(), name.c_str());
        return 1;
      }
    }
  }
  perfbench::print_result(opt.workload, opt.seed, result, keep);
  return 0;
}
