// perfbench: the wall-clock benchmark's measuring binary (run it through
// perfbench/run.py, which builds it and prepares the world).
//
//   perfbench run --workload=build|query|serve --seed=N --seconds=S
//                 --trace=0|1 --work-dir=DIR [--db=SNAPSHOT]
//   perfbench prepare --out=SNAPSHOT
//   perfbench selftest
//
// `run` prints a host fingerprint, human-readable notes, one line per
// metric, and as its last line one JSON object with the keys correct,
// attempted, failed and metrics.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "geometry/aabb.h"
#include "inputs.h"
#include "workloads.h"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

namespace perfbench {
namespace {

// Environment knobs that silently change what the program runs.
constexpr const char* kPinnedEnv[] = {"HDOV_SEARCH_BACKEND", "HDOV_PREFETCH",
                                      "HDOV_BENCH_SCALE"};

// Returns an empty string when this build and environment may be measured,
// else the reason to refuse.
std::string RefusalReason() {
  for (const char* name : kPinnedEnv) {
    if (std::getenv(name) != nullptr) {
      return std::string(name) + " is set; unset it to measure the defaults";
    }
  }
#if !defined(__OPTIMIZE__)
  return "unoptimised build; build with CMAKE_BUILD_TYPE=Release";
#endif
#if defined(PERFBENCH_SANITIZED)
  return "sanitizer build; build without -fsanitize";
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "sanitizer build; build without -fsanitize";
  }
  return "";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintFingerprint() {
  std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s "
              "flags=\"%s\"\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
}

// JSON string escaping for the metric names and units (plain ASCII).
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

void PrintResult(RunResult* r) {
  for (const std::string& note : r->notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& failure : r->tally.failures()) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  for (const Metric& m : r->metrics) {
    r->tally.Check(std::isfinite(m.value), m.name + " is not finite");
  }
  for (const Metric& m : r->metrics) {
    std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("failed_ratio %.6g (%llu of %llu operations and checks)\n",
              r->tally.failed_ratio(),
              static_cast<unsigned long long>(r->tally.failed()),
              static_cast<unsigned long long>(r->tally.attempted()));
  std::string json = "{\"correct\": ";
  json += r->tally.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r->tally.attempted());
  json += ", \"failed\": " + std::to_string(r->tally.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r->metrics.size(); ++i) {
    const Metric& m = r->metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", " : "") + Quote(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + Quote(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// ---------------------------------------------------------------------------
// Self-tests of the benchmark's own code and inputs.

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {  // Descending: the input need not be sorted.
    v.push_back(i);
  }
  return v;
}

void TestPercentiles() {
  Expect(!Percentile({}, 0.5).has_value(), "empty input has no median");
  Expect(Percentile({3, 1, 2}, 0.5) == 2.0, "median of 3 is the 2nd rank");
  Expect(Percentile(Range(100), 0.5) == 50.0, "nearest-rank p50 of 1..100");
  Expect(Percentile(Range(100), 0.9) == 90.0, "p90 of 1..100 keeps 10 beyond");
  Expect(!Percentile(Range(100), 0.99).has_value(),
         "p99 of 100 samples has 1 beyond and is refused");
  Expect(Percentile(Range(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  Expect(!Percentile(Range(999), 0.99).has_value(),
         "p99 of 999 samples has 9 beyond and is refused");
  Expect(Percentile(Range(1), 0.5) == 1.0, "median of one sample");
  Expect(TailPercentile(Range(1000)) == 900.0, "tail is p90 when allowed");
  Expect(TailPercentile(Range(100)) == 90.0, "p90 of 100 has 10 beyond");
  Expect(TailPercentile(Range(99)) == 50.0, "tail falls back to the median");
  Expect(TailPercentile({5, 1, 3}) == 3.0, "tail falls back to the median");
}

void TestMedianWindow() {
  std::vector<Window> windows;
  for (int i = 1; i <= 4; ++i) {  // Window i: i ops in 1 s, latency i us.
    windows.push_back(Window{1.0, static_cast<uint64_t>(i),
                             std::vector<double>(i, static_cast<double>(i))});
  }
  const WindowSummary s = MedianWindow(windows);
  Expect(s.windows == 4 && s.windows_used == 1, "one window of 4");
  Expect(s.ops_per_s == 3.0 && s.latency_us.size() == 3,
         "the faster of the two middle windows");
  windows.push_back(Window{1.0, 5, std::vector<double>(5, 5.0)});
  Expect(MedianWindow(windows).ops_per_s == 3.0, "the middle of 5 windows");
  Expect(MedianWindow({}).windows_used == 0, "no windows, none used");
}

void TestSlowestTenth() {
  std::vector<Window> windows;
  for (int i = 20; i >= 1; --i) {  // Window i: i ops in 1 s, latency i us.
    windows.push_back(Window{1.0, static_cast<uint64_t>(i),
                             std::vector<double>(i, static_cast<double>(i))});
  }
  const WindowSummary s = SlowestTenth(windows);
  Expect(s.windows == 20 && s.windows_used == 2, "a tenth of 20 windows");
  Expect(s.ops_per_s == 1.5, "throughput of the slowest two windows");
  Expect(s.latency_us.size() == 3 && Median(s.latency_us) == 2.0,
         "latencies come from the slowest windows only");
  Expect(SlowestTenth({Window{2.0, 1, {2e6}}}).windows_used == 1,
         "a single window is used whole");
}

void TestTally() {
  Tally t;
  Expect(t.failed_ratio() == 0.0, "nothing attempted, nothing failed");
  t.Ops(10, 1);
  t.Check(true, "ok");
  t.Check(false, "broken");
  Expect(t.attempted() == 12 && t.failed() == 2, "ops and checks both count");
  Expect(t.failed_ratio() == 2.0 / 12.0, "failed_ratio = failed / attempted");
  Expect(t.failures().size() == 1 && t.failures()[0] == "broken",
         "a failed check is described");
}

bool SameQueries(const std::vector<QueryInput>& a,
                 const std::vector<QueryInput>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].position.x != b[i].position.x ||
        a[i].position.y != b[i].position.y || a[i].eta != b[i].eta) {
      return false;
    }
  }
  return true;
}

bool SamePaths(const std::vector<hdov::Session>& a,
               const std::vector<hdov::Session>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].frames.size() != b[i].frames.size()) {
      return false;
    }
    for (size_t f = 0; f < a[i].frames.size(); ++f) {
      if (a[i].frames[f].position.x != b[i].frames[f].position.x ||
          a[i].frames[f].position.y != b[i].frames[f].position.y) {
        return false;
      }
    }
  }
  return true;
}

void TestSeeds() {
  const hdov::Aabb bounds(hdov::Vec3(0, 0, 0), hdov::Vec3(500, 400, 30));
  const auto q1 = MakeQueries(bounds, 2000, SubSeed(1, Stream::kQueries));
  const auto q1b = MakeQueries(bounds, 2000, SubSeed(1, Stream::kQueries));
  const auto q2 = MakeQueries(bounds, 2000, SubSeed(2, Stream::kQueries));
  Expect(SameQueries(q1, q1b), "same seed, same viewpoints and etas");
  Expect(!SameQueries(q1, q2), "another seed, other viewpoints");
  bool etas_differ = false;
  bool inside = true;
  std::vector<bool> seen(std::size(kEtaSweep), false);
  for (size_t i = 0; i < q1.size(); ++i) {
    etas_differ = etas_differ || q1[i].eta != q2[i].eta;
    inside = inside && bounds.min.x <= q1[i].position.x &&
             q1[i].position.x <= bounds.max.x &&
             bounds.min.y <= q1[i].position.y &&
             q1[i].position.y <= bounds.max.y;
    for (size_t e = 0; e < std::size(kEtaSweep); ++e) {
      if (q1[i].eta == kEtaSweep[e]) {
        seen[e] = true;
      }
    }
  }
  Expect(etas_differ, "another seed, other eta draws");
  Expect(inside, "viewpoints lie inside the world");
  Expect(std::find(seen.begin(), seen.end(), false) == seen.end(),
         "every eta of the sweep is drawn");
  Expect(SubSeed(1, Stream::kQueries) != SubSeed(1, Stream::kProbes),
         "streams of one seed are independent");

  const auto s1 = MakeUserSessions(bounds, 8, 50, 1, 0);
  Expect(SamePaths(s1, MakeUserSessions(bounds, 8, 50, 1, 0)),
         "same seed, same paths");
  Expect(!SamePaths(s1, MakeUserSessions(bounds, 8, 50, 2, 0)),
         "another seed, other paths");
  Expect(!SamePaths(s1, MakeUserSessions(bounds, 8, 50, 1, 1)),
         "another round, other paths");
  Expect(s1.size() == 8 && s1[0].name != s1[1].name &&
             s1[0].name.substr(s1[0].name.find('.')) ==
                 s1[3].name.substr(s1[3].name.find('.')),
         "users cycle through the three motion patterns");
}

int SelfTest() {
  TestPercentiles();
  TestMedianWindow();
  TestSlowestTenth();
  TestTally();
  TestSeeds();
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------

bool Flag(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) {
    return false;
  }
  *out = arg + n;
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench run --workload=build|query|serve --seed=N\n"
               "         --seconds=S --trace=0|1 --work-dir=DIR "
               "[--db=SNAPSHOT]\n"
               "       perfbench prepare --out=SNAPSHOT\n"
               "       perfbench selftest\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage("missing command");
  }
  const std::string command = argv[1];
  if (command == "selftest") {
    return SelfTest();
  }
  if (const std::string why = RefusalReason(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to run: %s\n", why.c_str());
    return 3;
  }
  std::string workload, seed = "1", seconds = "10", trace = "0", work_dir,
                        db, out;
  for (int i = 2; i < argc; ++i) {
    if (!Flag(argv[i], "--workload=", &workload) &&
        !Flag(argv[i], "--seed=", &seed) &&
        !Flag(argv[i], "--seconds=", &seconds) &&
        !Flag(argv[i], "--trace=", &trace) &&
        !Flag(argv[i], "--work-dir=", &work_dir) &&
        !Flag(argv[i], "--db=", &db) && !Flag(argv[i], "--out=", &out)) {
      return Usage(argv[i]);
    }
  }
  if (command == "prepare") {
    if (out.empty()) {
      return Usage("prepare needs --out");
    }
    const hdov::Status s = PrepareWorld(out);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: prepare: %s\n", s.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (command != "run") {
    return Usage("unknown command");
  }
  if (workload != "build" && workload != "query" && workload != "serve") {
    return Usage("--workload must be build, query or serve");
  }
  if (trace != "0" && trace != "1") {
    return Usage("--trace must be 0 or 1");
  }
  if (work_dir.empty()) {
    return Usage("--work-dir is required");
  }
  RunConfig config;
  config.workload = workload;
  config.seed = std::strtoull(seed.c_str(), nullptr, 10);
  config.seconds = std::strtod(seconds.c_str(), nullptr);
  config.work_dir = work_dir;
  config.db = db;
  if (!(config.seconds > 0)) {
    return Usage("--seconds must be positive");
  }
  if (trace == "0" && workload != "build" && db.empty()) {
    return Usage("query and serve need --db (see perfbench prepare)");
  }
  PrintFingerprint();
  RunResult result;
  if (trace == "1") {
    RunTraced(config, work_dir + "/trace.json", &result);
  } else {
    RunWorkload(config, &result);
  }
  PrintResult(&result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
