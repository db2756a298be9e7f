// Shared experiment testbed for the paper-reproduction benchmarks. Builds
// the synthetic city, viewing-cell grid and precomputed visibility table
// that all experiment binaries run against, and provides the shared
// emit helpers (SeriesTable) through which each bench prints the
// rows/series of its paper counterpart AND records them into the
// machine-readable bench report — one call, one source of truth.
//
// Flags every bench accepts (see ParseBenchArgs):
//   --json-out=<path>       write a telemetry::BenchReport document
//                           (figure rows, counters, env fingerprint);
//   --telemetry-out=<path>  write the full telemetry snapshot;
//   --trace-out=<path>      enable span recording and write a Chrome
//                           trace-event file (chrome://tracing);
//   --trace-sample=N        with --trace-out, give only 1-in-N queries a
//                           full span tree (default 1 = every query);
//   --flight-out=<path>     drain the always-on flight recorder into a
//                           binary dump (see docs/telemetry.md);
//   --slowdump-out=<path>   write the slow-frame captures ("HDOVSLOW",
//                           inspect with hdov_inspect --slowdump);
//   --slowdump-threshold-ms=F  also capture any frame slower than F ms
//                           (on top of the default trailing-p99 trigger);
//   --metrics-every=N       export a Prometheus-text metrics sample every
//                           N recorded frames (plus one final sample);
//   --metrics-out=<path>    destination of the --metrics-every log
//                           (default metrics.prom);
//   --threads=N             precompute/build workers (0 = hardware);
//   --db=<path>             load the testbed and every VISUAL system from
//                           a tools/hdov_build snapshot instead of
//                           rebuilding (see docs/storage.md);
//   --prefetch=MODE         prefetch pipeline of every VISUAL system:
//                           "off" (default; billing identical to a build
//                           without the subsystem), "sync" (the legacy
//                           idle-frame model prefetch) or "async" (the
//                           overlapped pipeline, docs/prefetch.md).
//
// Scale knob: set HDOV_BENCH_SCALE=large in the environment to run closer
// to the paper's dataset sizes (slower); the default is sized to finish
// each binary in seconds while preserving every qualitative shape.

#ifndef HDOV_BENCH_BENCH_UTIL_H_
#define HDOV_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "persist/snapshot.h"
#include "scene/cell_grid.h"
#include "scene/city_generator.h"
#include "scene/session.h"
#include "telemetry/bench_report.h"
#include "telemetry/exposition.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/slow_frame.h"
#include "telemetry/telemetry.h"
#include "testbed/testbed_glue.h"
#include "visibility/precompute.h"
#include "walkthrough/experiment_testbed.h"
#include "walkthrough/visual_system.h"

// Stamped by bench/CMakeLists.txt at configure time; informational only.
#ifndef HDOV_GIT_REVISION
#define HDOV_GIT_REVISION "unknown"
#endif

namespace hdov::bench {

using telemetry::WallTimer;

// The world-construction glue itself lives in testbed/testbed_glue.h (a
// non-bench target, so tools and the serving layer can share it); these
// aliases keep the historical bench spellings working.
using testbed::LargeScale;
using testbed::DefaultTestbedOptions;
using testbed::DefaultVisualOptions;
using testbed::MakeVisualSystem;
using testbed::RandomViewpoints;
using testbed::PrintTestbedSummary;
using testbed::MB;

// The parsed --threads value, readable from DefaultTestbedOptions and
// DefaultVisualOptions so every bench gets the flag without per-bench
// plumbing.
inline uint32_t& BenchThreads() { return testbed::DefaultThreads(); }

// The parsed --db value; when non-empty, BuildTestbed and MakeVisualSystem
// load the world from that snapshot instead of rebuilding it.
inline std::string& BenchDbPath() { return testbed::DefaultDbPath(); }

// Builds the default experiment environment — or, with --db, loads it
// from the snapshot — aborting on error.
inline Testbed BuildTestbed(const TestbedOptions& opt,
                            telemetry::BenchReport* report = nullptr) {
  return testbed::BuildTestbedOrDie(opt, report);
}

struct BenchArgs {
  std::string telemetry_out;  // Empty = full snapshot not written.
  std::string json_out;       // Empty = bench report not written.
  std::string trace_out;      // Empty = span recording stays off.
  std::string flight_out;     // Empty = flight recorder not dumped.
  std::string slowdump_out;   // Empty = slow-frame captures not written.
  std::string metrics_out = "metrics.prom";  // --metrics-every target.
  std::string db_path;        // Empty = build the world from scratch.
  double slowdump_threshold_ms = 0.0;  // Absolute trigger; 0 = p99 only.
  uint32_t threads = 1;       // Precompute/build workers (0 = hardware).
  uint32_t metrics_every = 0; // 0 = periodic exposition export off.
  uint32_t trace_sample = 1;  // Span tree for 1-in-N queries.
  prefetch::PrefetchMode prefetch = prefetch::PrefetchMode::kOff;
};

// Parses the flags shared by every experiment binary. Unknown flags abort
// so a typo does not silently run without its effect.
inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  constexpr const char kTelemetryOut[] = "--telemetry-out=";
  constexpr const char kJsonOut[] = "--json-out=";
  constexpr const char kTraceOut[] = "--trace-out=";
  constexpr const char kTraceSample[] = "--trace-sample=";
  constexpr const char kFlightOut[] = "--flight-out=";
  constexpr const char kSlowdumpOut[] = "--slowdump-out=";
  constexpr const char kSlowdumpThreshold[] = "--slowdump-threshold-ms=";
  constexpr const char kMetricsEvery[] = "--metrics-every=";
  constexpr const char kMetricsOut[] = "--metrics-out=";
  constexpr const char kDb[] = "--db=";
  constexpr const char kThreads[] = "--threads=";
  constexpr const char kPrefetch[] = "--prefetch=";
  const auto path_flag = [](const char* arg, const char* flag, size_t len,
                            std::string* out) {
    if (std::strncmp(arg, flag, len) != 0) {
      return false;
    }
    *out = arg + len;
    if (out->empty()) {
      std::fprintf(stderr, "%s needs a path\n", flag);
      std::exit(2);
    }
    return true;
  };
  const auto count_flag = [](const char* arg, const char* flag, size_t len,
                             uint32_t* out) {
    if (std::strncmp(arg, flag, len) != 0) {
      return false;
    }
    char* end = nullptr;
    const char* value = arg + len;
    const unsigned long parsed = std::strtoul(value, &end, 10);
    if (end == value || *end != '\0') {
      std::fprintf(stderr, "%s needs a number\n", flag);
      std::exit(2);
    }
    *out = static_cast<uint32_t>(parsed);
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    if (path_flag(argv[i], kTelemetryOut, sizeof(kTelemetryOut) - 1,
                  &args.telemetry_out) ||
        path_flag(argv[i], kJsonOut, sizeof(kJsonOut) - 1, &args.json_out) ||
        path_flag(argv[i], kTraceOut, sizeof(kTraceOut) - 1,
                  &args.trace_out) ||
        path_flag(argv[i], kFlightOut, sizeof(kFlightOut) - 1,
                  &args.flight_out) ||
        path_flag(argv[i], kSlowdumpOut, sizeof(kSlowdumpOut) - 1,
                  &args.slowdump_out) ||
        path_flag(argv[i], kMetricsOut, sizeof(kMetricsOut) - 1,
                  &args.metrics_out) ||
        path_flag(argv[i], kDb, sizeof(kDb) - 1, &args.db_path)) {
      BenchDbPath() = args.db_path;
      continue;
    }
    if (count_flag(argv[i], kTraceSample, sizeof(kTraceSample) - 1,
                   &args.trace_sample) ||
        count_flag(argv[i], kMetricsEvery, sizeof(kMetricsEvery) - 1,
                   &args.metrics_every)) {
      continue;
    }
    if (std::strncmp(argv[i], kSlowdumpThreshold,
                     sizeof(kSlowdumpThreshold) - 1) == 0) {
      char* end = nullptr;
      const char* value = argv[i] + sizeof(kSlowdumpThreshold) - 1;
      const double parsed = std::strtod(value, &end);
      if (end == value || *end != '\0' || parsed < 0.0) {
        std::fprintf(stderr, "%s needs a non-negative number\n",
                     kSlowdumpThreshold);
        std::exit(2);
      }
      args.slowdump_threshold_ms = parsed;
      continue;
    }
    if (std::strncmp(argv[i], kPrefetch, sizeof(kPrefetch) - 1) == 0) {
      const char* value = argv[i] + sizeof(kPrefetch) - 1;
      if (!prefetch::ParsePrefetchMode(value, &args.prefetch)) {
        std::fprintf(stderr,
                     "--prefetch needs \"off\", \"sync\" or \"async\"\n");
        std::exit(2);
      }
      prefetch::DefaultPrefetchMode() = args.prefetch;
      continue;
    }
    if (std::strncmp(argv[i], kThreads, sizeof(kThreads) - 1) == 0) {
      char* end = nullptr;
      const char* value = argv[i] + sizeof(kThreads) - 1;
      const unsigned long parsed = std::strtoul(value, &end, 10);
      if (end == value || *end != '\0') {
        std::fprintf(stderr, "--threads needs a number (0 = hardware)\n");
        std::exit(2);
      }
      args.threads = static_cast<uint32_t>(parsed);
      BenchThreads() = args.threads;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (supported: %s<path>, %s<path>,"
                   " %s<path>, %sN, %s<path>, %s<path>, %sF, %sN, %s<path>,"
                   " %s<path>, %sN, %sMODE)\n",
                   argv[i], kTelemetryOut, kJsonOut, kTraceOut, kTraceSample,
                   kFlightOut, kSlowdumpOut, kSlowdumpThreshold,
                   kMetricsEvery, kMetricsOut, kDb, kThreads, kPrefetch);
      std::exit(2);
    }
  }
  return args;
}

// Owns the bench's Telemetry context and BenchReport, and writes the
// requested output files at the end of the run. Telemetry is attached
// when any of --telemetry-out / --json-out / --trace-out was given (the
// report's counter digest and the trace come from it); with no flags the
// instrumentation stays detached and the report is print-only.
//
// Declare the scope BEFORE the systems it attaches: systems unregister
// themselves from the context on destruction, so the context must be
// destroyed last — and Write() must run while they still live, or the
// captured metric snapshot loses their registered views.
class TelemetryScope {
 public:
  TelemetryScope(const BenchArgs& args, const char* binary)
      : telemetry_out_(args.telemetry_out),
        json_out_(args.json_out),
        trace_out_(args.trace_out),
        flight_out_(args.flight_out),
        slowdump_out_(args.slowdump_out),
        metrics_every_(args.metrics_every) {
    if (!slowdump_out_.empty()) {
      // Fresh capture window for this run; the default trailing-p99
      // trigger stays on and an absolute threshold composes with it.
      telemetry::SlowFrameOptions slow;
      slow.threshold_ms = args.slowdump_threshold_ms;
      telemetry::GlobalSlowFrameCapture().Configure(slow);
    }
    if (!telemetry_out_.empty() || !json_out_.empty() ||
        !trace_out_.empty() || metrics_every_ > 0) {
      telemetry_ = std::make_unique<telemetry::Telemetry>();
      if (!trace_out_.empty()) {
        telemetry_->tracer().set_enabled(true);
        telemetry_->tracer().set_sample_every(args.trace_sample);
      }
      if (metrics_every_ > 0) {
        metrics_log_ =
            std::make_unique<telemetry::ExpositionLog>(args.metrics_out);
        // Sampling happens inside RecordFrame, so an exposition block
        // lands every N frames regardless of which system emits them.
        telemetry_->set_frame_callback(
            [this](const telemetry::FrameRecord&) {
              if (++frames_seen_ % metrics_every_ == 0) {
                if (Status s = metrics_log_->Sample(
                        telemetry_->metrics().Snapshot(),
                        "frame " + std::to_string(frames_seen_));
                    !s.ok()) {
                  std::fprintf(stderr, "metrics: %s\n",
                               s.ToString().c_str());
                }
              }
            });
      }
    }
    report_.set_binary(binary);
    report_.set_scale(LargeScale() ? "large" : "default");
    telemetry::BenchEnvironment env;
    env.git_revision = HDOV_GIT_REVISION;
    env.cpu_count = std::thread::hardware_concurrency();
    env.threads = args.threads;
    report_.set_environment(std::move(env));
  }

  bool on() const { return telemetry_ != nullptr; }
  telemetry::Telemetry* get() { return telemetry_.get(); }
  telemetry::BenchReport* report() { return &report_; }

  // Prints the standard bench banner and stamps the title into the
  // report, so the two cannot disagree.
  void Header(const char* title, const char* paper_ref) {
    report_.set_title(title);
    std::printf(
        "==============================================================\n");
    std::printf("%s\n", title);
    std::printf("(reproduces %s of 'HDoV-tree: The Structure, The Storage,"
                " The Speed', ICDE 2003)\n", paper_ref);
    std::printf(
        "==============================================================\n");
  }

  void Attach(WalkthroughSystem* system, const std::string& prefix) {
    if (telemetry_ != nullptr) {
      system->AttachTelemetry(telemetry_.get(), prefix);
    }
  }

  // Writes every requested output (idempotent). Returns false on I/O
  // failure. Call while attached systems are still alive.
  bool Write() {
    if (written_) {
      return true;
    }
    written_ = true;
    bool ok = true;
    if (!json_out_.empty()) {
      if (telemetry_ != nullptr) {
        report_.CaptureFrom(*telemetry_);
      }
      if (Status s = report_.WriteFile(json_out_); !s.ok()) {
        std::fprintf(stderr, "bench report: %s\n", s.ToString().c_str());
        ok = false;
      } else {
        std::printf("\nbench report: wrote %s\n", json_out_.c_str());
      }
    }
    if (!telemetry_out_.empty() && telemetry_ != nullptr) {
      if (Status s = telemetry_->WriteJsonFile(telemetry_out_); !s.ok()) {
        std::fprintf(stderr, "telemetry: %s\n", s.ToString().c_str());
        ok = false;
      } else {
        std::printf("\ntelemetry: wrote %s (%llu frame records)\n",
                    telemetry_out_.c_str(),
                    static_cast<unsigned long long>(
                        telemetry_->frames_recorded()));
      }
    }
    if (!trace_out_.empty() && telemetry_ != nullptr) {
      if (Status s = telemetry_->WriteChromeTrace(trace_out_); !s.ok()) {
        std::fprintf(stderr, "trace: %s\n", s.ToString().c_str());
        ok = false;
      } else {
        std::printf("\ntrace: wrote %s (%zu spans; open in"
                    " chrome://tracing)\n",
                    trace_out_.c_str(), telemetry_->tracer().num_spans());
      }
    }
    if (metrics_log_ != nullptr && telemetry_ != nullptr) {
      // Final sample so short runs (and the tail of long ones) always
      // land in the log, even when frames % N != 0.
      if (Status s = metrics_log_->Sample(telemetry_->metrics().Snapshot(),
                                          "final");
          !s.ok()) {
        std::fprintf(stderr, "metrics: %s\n", s.ToString().c_str());
        ok = false;
      } else {
        std::printf("\nmetrics: wrote %s (%llu samples)\n",
                    metrics_log_->path().c_str(),
                    static_cast<unsigned long long>(
                        metrics_log_->samples_written()));
      }
    }
    if (!flight_out_.empty()) {
      telemetry::FlightRecorder& recorder =
          telemetry::GlobalFlightRecorder();
      if (Status s = recorder.WriteDump(flight_out_); !s.ok()) {
        std::fprintf(stderr, "flight: %s\n", s.ToString().c_str());
        ok = false;
      } else {
        std::printf("\nflight: wrote %s (%llu events recorded, %llu"
                    " dropped)\n",
                    flight_out_.c_str(),
                    static_cast<unsigned long long>(
                        recorder.events_recorded()),
                    static_cast<unsigned long long>(
                        recorder.events_dropped()));
        if (telemetry::FlightNamesDropped() > 0) {
          std::printf("flight: WARNING %llu intern calls degraded to \"?\""
                      " (name table full at %zu)\n",
                      static_cast<unsigned long long>(
                          telemetry::FlightNamesDropped()),
                      telemetry::kMaxFlightNames);
        }
      }
    }
    if (!slowdump_out_.empty()) {
      telemetry::SlowFrameCapture& capture =
          telemetry::GlobalSlowFrameCapture();
      if (Status s = capture.WriteDump(slowdump_out_); !s.ok()) {
        std::fprintf(stderr, "slowdump: %s\n", s.ToString().c_str());
        ok = false;
      } else {
        std::printf("\nslowdump: wrote %s (%zu captures over %llu frames;"
                    " inspect with hdov_inspect --slowdump)\n",
                    slowdump_out_.c_str(), capture.captures(),
                    static_cast<unsigned long long>(capture.frames_seen()));
      }
    }
    return ok;
  }

 private:
  std::string telemetry_out_;
  std::string json_out_;
  std::string trace_out_;
  std::string flight_out_;
  std::string slowdump_out_;
  uint32_t metrics_every_ = 0;
  uint64_t frames_seen_ = 0;
  std::unique_ptr<telemetry::ExpositionLog> metrics_log_;
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  telemetry::BenchReport report_;
  bool written_ = false;
};

// The shared figure/table emitter: prints an aligned stdout table AND
// appends each row to the named report series, so the human-readable and
// machine-readable outputs cannot drift apart. Columns default to
// simulated (deterministic, compared at zero tolerance by
// bench_compare); mark wall-clock columns `wall` so the comparison
// applies a noise tolerance instead.
class SeriesTable {
 public:
  struct Col {
    std::string header;
    int width = 12;
    int precision = 2;
    bool wall = false;
  };

  SeriesTable(telemetry::BenchReport* report, const std::string& name,
              const std::string& label_header, int label_width,
              std::vector<Col> cols)
      : label_width_(label_width), cols_(std::move(cols)) {
    if (report != nullptr) {
      std::vector<telemetry::SeriesColumn> columns;
      columns.reserve(cols_.size());
      for (const Col& c : cols_) {
        columns.push_back(telemetry::SeriesColumn{c.header, c.wall});
      }
      series_ = report->AddSeries(name, std::move(columns));
    }
    std::printf("%-*s", label_width_, label_header.c_str());
    for (const Col& c : cols_) {
      std::printf(" %*s", c.width, c.header.c_str());
    }
    std::printf("\n");
  }

  void Row(const std::string& label, std::initializer_list<double> values) {
    if (values.size() != cols_.size()) {
      std::fprintf(stderr, "SeriesTable: %zu values for %zu columns\n",
                   values.size(), cols_.size());
      std::abort();
    }
    std::printf("%-*s", label_width_, label.c_str());
    size_t i = 0;
    for (double v : values) {
      std::printf(" %*.*f", cols_[i].width, cols_[i].precision, v);
      ++i;
    }
    std::printf("\n");
    if (series_ != nullptr) {
      series_->rows.push_back(telemetry::SeriesRow{label, values});
    }
  }

 private:
  telemetry::ReportSeries* series_ = nullptr;
  int label_width_;
  std::vector<Col> cols_;
};

}  // namespace hdov::bench

#endif  // HDOV_BENCH_BENCH_UTIL_H_
