// Persistence: build a world once, write it to one snapshot file, then
// reopen that file and query it — the offline-precompute /
// online-walkthrough split the paper's system implies (precomputation
// takes ~1 s per cell; you do it once). tools/hdov_build does the same at
// benchmark scale; docs/FORMAT.md describes the file.
//
// Build & run:  ./build/examples/persistence [db_dir]

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "walkthrough/experiment_testbed.h"

using namespace hdov;  // Example code; library code never does this.

int main(int argc, char** argv) {
  const std::string path =
      (argc > 1 ? argv[1] : std::string("/tmp")) + "/hdov_city.db";

  TestbedOptions world_options;
  world_options.blocks = 6;
  world_options.cells = 6;
  world_options.face_resolution = 32;

  {
    // --- offline: build the world and write the snapshot ---
    Result<Testbed> bed = BuildTestbed(world_options);
    if (!bed.ok()) {
      std::fprintf(stderr, "%s\n", bed.status().ToString().c_str());
      return 1;
    }
    Status s = [&]() -> Status {
      HDOV_ASSIGN_OR_RETURN(std::unique_ptr<SnapshotWriter> writer,
                            SnapshotWriter::Create(path));
      HDOV_RETURN_IF_ERROR(
          WriteWorldSnapshot(writer.get(), *bed, DefaultVisualOptions()));
      return writer->Commit();
    }();
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("offline build: %s | %u cells\nwrote snapshot %s\n\n",
                bed->scene.Summary().c_str(), bed->grid.num_cells(),
                path.c_str());
  }

  // --- online: reopen the snapshot and query it from the file ---
  Result<std::unique_ptr<SnapshotLoader>> snapshot =
      SnapshotLoader::Open(path);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
    return 1;
  }
  Result<Testbed> world = LoadWorldSections(**snapshot);
  if (!world.ok()) {
    std::fprintf(stderr, "%s\n", world.status().ToString().c_str());
    return 1;
  }
  Result<std::unique_ptr<VisualSystem>> system =
      VisualSystem::CreateFromSnapshot(**snapshot, &world->scene,
                                       &world->grid, DefaultVisualOptions(),
                                       SnapshotLoadMode::kFileBacked);
  if (!system.ok()) {
    std::fprintf(stderr, "reload: %s\n", system.status().ToString().c_str());
    return 1;
  }
  std::printf("reloaded %zu objects and %u cells (every section checksummed)"
              "\n",
              world->scene.size(), world->grid.num_cells());

  std::vector<RetrievedLod> result;
  SearchStats stats;
  const Vec3 eye = world->scene.bounds().Center();
  if (Status s = (*system)->Query(eye, /*fetch_models=*/false, &result,
                                  &stats);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("query from the reopened world: %zu representations, "
              "%llu tree nodes visited\n",
              result.size(),
              static_cast<unsigned long long>(stats.nodes_visited));
  return 0;
}
