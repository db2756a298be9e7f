// The benchmark's workloads. Each drives the program only through its
// public functions, times what a user would wait for, and checks that the
// outputs are correct.
//
//   build  BuildTestbed -> WriteWorldSnapshot -> SnapshotWriter::Commit
//          (the hdov_build path) on the large preset.
//   query  closed-loop Fig. 7-style visibility queries by one caller on a
//          memory-resident CreateFromSnapshot system.
//   serve  8 spread users played by a WalkthroughServer (2 workers plus the
//          calling thread) over the file-backed snapshot, in lockstep
//          rounds.
//
// RunTraced is the separate traced run: it repeats the three workloads
// with the benchmark's own spans around every call into a layer, reports
// the per-layer metrics, and compares itself with an untraced pass.

#ifndef HDOV_PERFBENCH_WORKLOADS_H_
#define HDOV_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "common/status.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;  // "build", "query" or "serve".
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string work_dir;  // Scratch directory for snapshots and traces.
  std::string db;        // Prepared world snapshot (query and serve).
};

struct RunResult {
  Tally tally;
  std::vector<Metric> metrics;
  // Human-readable lines printed before the result (never parsed).
  std::vector<std::string> notes;
};

// Builds the large world and commits its snapshot at `path`.
hdov::Status PrepareWorld(const std::string& path);

// The untraced end-to-end run of one workload. Every workload reports the
// same end-to-end metrics (see BENCHMARK.json).
void RunWorkload(const RunConfig& config, RunResult* result);

// The traced run: all three workloads, traced and untraced, reporting
// every per-layer metric. Writes the spans to `trace_path`.
void RunTraced(const RunConfig& config, const std::string& trace_path,
               RunResult* result);

}  // namespace perfbench

#endif  // HDOV_PERFBENCH_WORKLOADS_H_
