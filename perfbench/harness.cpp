#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {

namespace {

/// 1-based nearest rank of `pct` in `count` samples. The slack keeps a
/// product like 99.9% x 1000 = 999.0000000000001 from rounding up a rank.
std::size_t nearest_rank(std::size_t count, double pct) {
  const double exact = pct / 100.0 * static_cast<double>(count);
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, count);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), pct) - 1];
}

std::size_t samples_beyond(std::size_t count, double pct) {
  return count == 0 ? 0 : count - nearest_rank(count, pct);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = percentile_sorted(samples, 50.0);
  s.p99 = percentile_sorted(samples, 99.0);
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (samples_beyond(samples.size(), pct) >= 10) {
      s.tail_pct = pct;
      s.tail = percentile_sorted(samples, pct);
      break;
    }
  }
  return s;
}

std::string describe(const Summary& s, std::string_view unit) {
  char buf[160];
  if (s.tail_pct > 0.0) {
    std::snprintf(buf, sizeof buf, "median %.6g %.*s | p%g %.6g %.*s | n=%zu",
                  s.median, static_cast<int>(unit.size()), unit.data(),
                  s.tail_pct, s.tail, static_cast<int>(unit.size()),
                  unit.data(), s.count);
  } else {
    std::snprintf(buf, sizeof buf,
                  "median %.6g %.*s | n=%zu (too few for a tail percentile)",
                  s.median, static_cast<int>(unit.size()), unit.data(),
                  s.count);
  }
  return buf;
}

double median_of(std::vector<double> samples) {
  return summarize(std::move(samples)).median;
}

double peak_rss_mib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in{path};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity), origin_(Clock::now()) {
  spans_.reserve(std::min<std::size_t>(capacity, 1u << 16));
}

std::uint32_t Tracer::record(const char* name, Clock::time_point start,
                             Clock::time_point end, std::uint32_t parent,
                             std::uint64_t request) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return kNoParent;
  }
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::uint32_t Tracer::open(const char* name, Clock::time_point start,
                           std::uint32_t parent, std::uint64_t request) {
  return record(name, start, start, parent, request);
}

void Tracer::close(std::uint32_t span, Clock::time_point end) {
  if (span < spans_.size()) spans_[span].end = end;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, us(s.start),
                 us(s.end) - us(s.start), i,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------

void RunResult::add(std::string name, double value, std::string unit,
                    std::string note) {
  metrics.push_back(
      Metric{std::move(name), value, std::move(unit), std::move(note)});
}

void RunResult::add_percentiles(const std::string& prefix, const Summary& s,
                                const std::string& unit) {
  const std::string note = describe(s, unit);
  add(prefix + ".p50", s.median, unit, note);
  add(prefix + ".p99", s.p99, unit,
      "n=" + std::to_string(s.count) + ", " +
          std::to_string(samples_beyond(s.count, 99.0)) + " beyond p99");
}

void RunResult::add_latency(const std::vector<std::vector<double>>& reps,
                            const std::string& sample_name) {
  std::vector<double> pooled;
  bool per_rep = !reps.empty();
  for (const std::vector<double>& r : reps) {
    pooled.insert(pooled.end(), r.begin(), r.end());
    per_rep = per_rep && samples_beyond(r.size(), 99.0) >= 10;
  }
  const Summary all = summarize(pooled);
  if (!per_rep) {
    add("latency_p50_ms", all.median, "ms",
        "per " + sample_name + ", pooled; " + describe(all, "ms"));
    add("latency_p99_ms", all.p99, "ms",
        "pooled n=" + std::to_string(all.count) + ", " +
            std::to_string(samples_beyond(all.count, 99.0)) + " beyond p99");
    return;
  }
  std::vector<double> p50;
  std::vector<double> p99;
  std::size_t fewest = pooled.size();
  for (const std::vector<double>& r : reps) {
    const Summary s = summarize(r);
    p50.push_back(s.median);
    p99.push_back(s.p99);
    fewest = std::min(fewest, s.count);
  }
  const std::string of = "median over " + std::to_string(reps.size()) +
                         " runs of each run's ";
  add("latency_p50_ms", median_of(p50), "ms",
      of + "p50 per " + sample_name + "; pooled " + describe(all, "ms"));
  add("latency_p99_ms", median_of(p99), "ms",
      of + "p99 (>= " + std::to_string(fewest) + " samples, " +
          std::to_string(samples_beyond(fewest, 99.0)) +
          " beyond p99, per run)");
}

const Metric* RunResult::find(std::string_view name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void RunResult::fail(const std::string& why) {
  correct = false;
  ++failed;
  report.push_back("FAILED: " + why);
}

void print_result(const std::string& workload, std::uint64_t seed,
                  const RunResult& result,
                  const std::vector<std::string>& keep) {
  std::printf("== perfbench %s seed=%llu\n", workload.c_str(),
              static_cast<unsigned long long>(seed));
  for (const std::string& line : result.report) {
    std::printf("  %s\n", line.c_str());
  }
  for (const Metric& m : result.metrics) {
    std::printf("  %-46s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  const double error_rate =
      result.attempted == 0 ? 0.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  std::printf("  %-46s %14.6g %-6s (base: %llu attempted, %llu failed)\n",
              "error_rate", error_rate, "ratio",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));

  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : keep) {
    const Metric* m = result.find(name);
    if (m == nullptr) continue;
    char value[40];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m->value) ? m->value : 0.0);
    json << (first ? "" : ", ") << "\"" << m->name << "\": {\"value\": "
         << value << ", \"unit\": \"" << m->unit << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
