// bench_compare: diff two bench-report JSON documents (the --json-out
// format written by every bench binary; see docs/telemetry.md).
//
//   bench_compare old.json new.json [flags]
//
// Simulated counters, per-figure series values and frame-total digests
// are deterministic, so they are compared at zero tolerance — any drift
// is a behavior change and fails the comparison (exit 1). Wall-clock
// values (columns the report marks `wall`, and the repeated-timing
// stats) are noisy, so they only fail beyond a relative tolerance with
// an absolute floor, and can be excluded entirely with --ignore-wall
// (what CI does: its runners' wall-clock says nothing about yours).
//
// Flags:
//   --wall-tolerance=F   relative wall-clock regression allowed (0.30)
//   --wall-floor-ms=F    ignore wall regressions smaller than this (1.0)
//   --ignore-wall        skip wall-clock comparison entirely
//   --skip=SUBSTR        ignore metrics whose name contains SUBSTR
//                        (repeatable)
//
// Exit codes: 0 = match, 1 = drift/regression found, 2 = usage or I/O
// error.

#include <cstdio>
#include <cstring>
#include <string>

#include "common/file_io.h"
#include "telemetry/bench_report.h"
#include "telemetry/json.h"

namespace hdov::telemetry {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: bench_compare old.json new.json [--wall-tolerance=F]\n"
      "                     [--wall-floor-ms=F] [--ignore-wall]"
      " [--skip=SUBSTR]\n");
  return 2;
}

Result<JsonValue> LoadReport(const char* path) {
  HDOV_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  Result<JsonValue> doc = ParseJson(text);
  if (!doc.ok()) {
    return Status::InvalidArgument(std::string(path) + ": " +
                                   doc.status().ToString());
  }
  return doc;
}

const char* SeverityTag(CompareFinding::Severity severity) {
  switch (severity) {
    case CompareFinding::Severity::kFail: return "FAIL";
    case CompareFinding::Severity::kWarn: return "warn";
    case CompareFinding::Severity::kInfo: return "info";
  }
  return "?";
}

int RunCompare(int argc, char** argv) {
  const char* paths[2] = {nullptr, nullptr};
  int num_paths = 0;
  CompareOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--wall-tolerance=", 17) == 0) {
      options.wall_tolerance = std::atof(arg + 17);
    } else if (std::strncmp(arg, "--wall-floor-ms=", 16) == 0) {
      options.wall_floor_ms = std::atof(arg + 16);
    } else if (std::strcmp(arg, "--ignore-wall") == 0) {
      options.ignore_wall = true;
    } else if (std::strncmp(arg, "--skip=", 7) == 0) {
      options.skip_substrings.emplace_back(arg + 7);
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", arg);
      return Usage();
    } else if (num_paths < 2) {
      paths[num_paths++] = arg;
    } else {
      return Usage();
    }
  }
  if (num_paths != 2) {
    return Usage();
  }

  Result<JsonValue> old_doc = LoadReport(paths[0]);
  Result<JsonValue> new_doc = LoadReport(paths[1]);
  if (!old_doc.ok() || !new_doc.ok()) {
    const Status& s = old_doc.ok() ? new_doc.status() : old_doc.status();
    std::fprintf(stderr, "bench_compare: %s\n", s.ToString().c_str());
    return 2;
  }

  const CompareResult result = CompareReports(*old_doc, *new_doc, options);

  size_t fails = 0;
  size_t warns = 0;
  for (const CompareFinding& finding : result.findings) {
    if (finding.severity == CompareFinding::Severity::kFail) {
      ++fails;
    } else if (finding.severity == CompareFinding::Severity::kWarn) {
      ++warns;
    }
    std::printf("[%s] %s: %s\n", SeverityTag(finding.severity),
                finding.where.c_str(), finding.message.c_str());
  }
  std::printf(
      "\nbench_compare: %llu values compared, %zu failure(s), %zu"
      " warning(s)%s\n",
      static_cast<unsigned long long>(result.values_compared), fails, warns,
      options.ignore_wall ? " (wall-clock ignored)" : "");
  if (fails == 0) {
    std::printf("PASS: no counter drift%s\n",
                options.ignore_wall ? "" : ", no wall-clock regression");
  }
  return fails == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hdov::telemetry

int main(int argc, char** argv) {
  return hdov::telemetry::RunCompare(argc, argv);
}
