// hdov_build: offline world construction. Generates the experiment scene
// at a chosen scale, precomputes visibility, builds the HDoV-tree and ALL
// V-page storage schemes, and writes everything into one versioned
// snapshot file (see docs/storage.md). Benchmarks then start from that
// file with --db=<path> instead of rebuilding the world every run:
//
//   hdov_build --out=world.hdov [--blocks=16] [--cells=16] [--seed=N]
//              [--samples-per-cell=1] [--face-resolution=64] [--threads=1]
//              [--scale=default|large] [--stats-out=<path>]
//              [--telemetry-out=<path>]
//
// --scale presets the paper's bench sizes (same values as the
// HDOV_BENCH_SCALE environment knob); the explicit flags override it.
// --telemetry-out writes the full build metric snapshot (persist.* plus
// build.* world-shape gauges) as JSON; --stats-out writes the persist.*
// subset of the SAME snapshot through the same emitter, so the persist
// view can never drift from the full one.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/file_io.h"
#include "persist/snapshot.h"
#include "telemetry/bench_report.h"
#include "telemetry/exposition.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "testbed/testbed_glue.h"
#include "walkthrough/experiment_testbed.h"

namespace hdov {
namespace {

struct BuildArgs {
  std::string out;
  std::string stats_out;
  std::string telemetry_out;
  TestbedOptions testbed;
};

[[noreturn]] void Usage(const char* flag) {
  std::fprintf(stderr,
               "hdov_build: bad flag %s\n"
               "usage: hdov_build --out=<path> [--blocks=N] [--cells=N]\n"
               "  [--seed=N] [--samples-per-cell=N] [--face-resolution=N]\n"
               "  [--threads=N] [--scale=default|large]"
               " [--stats-out=<path>]\n"
               "  [--telemetry-out=<path>]\n",
               flag);
  std::exit(2);
}

bool IntFlag(const char* arg, const char* name, int* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) {
    return false;
  }
  char* end = nullptr;
  const long value = std::strtol(arg + len, &end, 10);
  if (end == arg + len || *end != '\0' || value < 0) {
    Usage(arg);
  }
  *out = static_cast<int>(value);
  return true;
}

// The single emitter behind --telemetry-out and --stats-out: both write a
// view of the SAME captured snapshot in the standard telemetry JSON shape
// (a frame-less telemetry document), so the persist-only subset can never
// drift from the full export.
Status EmitMetricsJson(const telemetry::MetricsSnapshot& view,
                       const std::string& path) {
  std::string doc = "{\"version\":1,\"metrics\":";
  doc.append(view.ToJson());
  doc.append(",\"frames_recorded\":0,\"frames_dropped\":0,\"frames\":[]}");
  return WriteStringToFile(path, doc);
}

BuildArgs Parse(int argc, char** argv) {
  BuildArgs args;
  int threads = 1;
  int seed = -1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      args.out = arg + 6;
    } else if (std::strncmp(arg, "--stats-out=", 12) == 0) {
      args.stats_out = arg + 12;
    } else if (std::strncmp(arg, "--telemetry-out=", 16) == 0) {
      args.telemetry_out = arg + 16;
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      if (std::strcmp(arg + 8, "large") == 0) {
        // Same preset as the benches' HDOV_BENCH_SCALE=large knob, from
        // the shared testbed glue so the two cannot drift.
        testbed::ApplyLargeScalePreset(&args.testbed);
      } else if (std::strcmp(arg + 8, "default") != 0) {
        Usage(arg);
      }
    } else if (IntFlag(arg, "--blocks=", &args.testbed.blocks) ||
               IntFlag(arg, "--cells=", &args.testbed.cells) ||
               IntFlag(arg, "--samples-per-cell=",
                       &args.testbed.samples_per_cell) ||
               IntFlag(arg, "--face-resolution=",
                       &args.testbed.face_resolution) ||
               IntFlag(arg, "--threads=", &threads) ||
               IntFlag(arg, "--seed=", &seed)) {
      continue;
    } else {
      Usage(arg);
    }
  }
  if (args.out.empty()) {
    std::fprintf(stderr, "hdov_build: --out=<path> is required\n");
    std::exit(2);
  }
  args.testbed.threads = static_cast<uint32_t>(threads);
  if (seed >= 0) {
    args.testbed.seed = static_cast<uint64_t>(seed);
  }
  return args;
}

int Run(const BuildArgs& args) {
  telemetry::WallTimer total;
  std::printf("hdov_build: %dx%d blocks, %dx%d cells, seed %llu\n",
              args.testbed.blocks, args.testbed.blocks, args.testbed.cells,
              args.testbed.cells,
              static_cast<unsigned long long>(args.testbed.seed));

  telemetry::WallTimer phase;
  Result<Testbed> bed = BuildTestbed(args.testbed);
  if (!bed.ok()) {
    std::fprintf(stderr, "hdov_build: %s\n",
                 bed.status().ToString().c_str());
    return 1;
  }
  std::printf("world: %s | %u cells | avg %.1f visible objects/cell"
              " (%.1f s)\n",
              bed->scene.Summary().c_str(), bed->grid.num_cells(),
              bed->table.AverageVisibleObjects(),
              phase.ElapsedMs() / 1000.0);

  PersistStats stats;
  phase = telemetry::WallTimer();
  Status status = [&]() -> Status {
    HDOV_ASSIGN_OR_RETURN(std::unique_ptr<SnapshotWriter> writer,
                          SnapshotWriter::Create(args.out,
                                                 DiskModel().page_size,
                                                 &stats));
    HDOV_RETURN_IF_ERROR(
        WriteWorldSnapshot(writer.get(), *bed,
                           DefaultVisualOptions(args.testbed.threads)));
    return writer->Commit();
  }();
  if (!status.ok()) {
    std::fprintf(stderr, "hdov_build: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("snapshot: wrote %s — %.2f MB, %llu fsyncs (%.1f s)\n",
              args.out.c_str(),
              static_cast<double>(stats.bytes_written) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(stats.fsyncs),
              phase.ElapsedMs() / 1000.0);

  // Verification pass: reload every section through the checksummed read
  // path, so a build whose file cannot be read back fails here, not in the
  // first bench that trusts it.
  phase = telemetry::WallTimer();
  status = [&]() -> Status {
    HDOV_ASSIGN_OR_RETURN(std::unique_ptr<SnapshotLoader> snapshot,
                          SnapshotLoader::Open(args.out, &stats));
    HDOV_ASSIGN_OR_RETURN(Testbed reloaded, LoadWorldSections(*snapshot));
    HDOV_ASSIGN_OR_RETURN(
        std::unique_ptr<VisualSystem> system,
        VisualSystem::CreateFromSnapshot(
            *snapshot, &reloaded.scene, &reloaded.grid,
            DefaultVisualOptions(), SnapshotLoadMode::kFileBacked));
    (void)system;
    return Status::OK();
  }();
  if (!status.ok()) {
    std::fprintf(stderr, "hdov_build: verification reload failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("verify: reloaded world + indexed-vertical system"
              " (%llu checksum verifications, %.1f s)\n",
              static_cast<unsigned long long>(stats.checksum_verifications),
              phase.ElapsedMs() / 1000.0);

  if (!args.stats_out.empty() || !args.telemetry_out.empty()) {
    telemetry::MetricsRegistry registry;
    stats.RegisterWith(&registry, "persist");
    const double blocks = static_cast<double>(args.testbed.blocks);
    const double cells = static_cast<double>(bed->grid.num_cells());
    const double objects = static_cast<double>(bed->scene.size());
    const double avg_visible =
        static_cast<double>(bed->table.AverageVisibleObjects());
    const double wall_ms = total.ElapsedMs();
    registry.RegisterView("build.blocks", [blocks] { return blocks; });
    registry.RegisterView("build.cells", [cells] { return cells; });
    registry.RegisterView("build.objects", [objects] { return objects; });
    registry.RegisterView("build.avg_visible_objects",
                          [avg_visible] { return avg_visible; });
    registry.RegisterView("build.wall_ms", [wall_ms] { return wall_ms; });
    const telemetry::MetricsSnapshot metrics = registry.Snapshot();
    if (!args.telemetry_out.empty()) {
      if (Status s = EmitMetricsJson(metrics, args.telemetry_out); !s.ok()) {
        std::fprintf(stderr, "hdov_build: %s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("telemetry: wrote %s\n", args.telemetry_out.c_str());
    }
    if (!args.stats_out.empty()) {
      if (Status s = EmitMetricsJson(
              telemetry::FilterSnapshot(metrics, "persist"), args.stats_out);
          !s.ok()) {
        std::fprintf(stderr, "hdov_build: %s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("stats: wrote %s\n", args.stats_out.c_str());
    }
  }
  std::printf("done in %.1f s\n", total.ElapsedMs() / 1000.0);
  return 0;
}

}  // namespace
}  // namespace hdov

int main(int argc, char** argv) {
  return hdov::Run(hdov::Parse(argc, argv));
}
