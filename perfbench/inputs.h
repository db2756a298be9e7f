// Seeded inputs of the benchmark workloads. Everything a workload feeds
// the program is generated here from the run's --seed: query viewpoints,
// their DoV thresholds, and walkthrough paths. The world itself is the
// fixed large testbed preset, so only the traffic varies with the seed.

#ifndef HDOV_PERFBENCH_INPUTS_H_
#define HDOV_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "geometry/aabb.h"
#include "geometry/vec3.h"
#include "scene/session.h"
#include "walkthrough/experiment_testbed.h"

namespace perfbench {

// The paper's Fig. 7/8 threshold sweep; each query draws one of these.
inline constexpr double kEtaSweep[] = {0.0,   0.0005, 0.001, 0.002,
                                       0.003, 0.004,  0.006, 0.008};

struct QueryInput {
  hdov::Vec3 position;
  double eta = 0.0;
};

// Independent sub-streams of one run seed, so adding a stream never
// shifts the others.
enum class Stream : uint64_t {
  kQueries = 1,
  kProbes = 2,
  kSessions = 3,
};

uint64_t SubSeed(uint64_t seed, Stream stream, uint64_t index = 0);

// `count` uniform eye-height viewpoints inside `bounds`, each with a
// threshold drawn uniformly from kEtaSweep.
std::vector<QueryInput> MakeQueries(const hdov::Aabb& bounds, size_t count,
                                    uint64_t seed);

// One round of `users` spread walkthrough users: independent seeds, the
// three motion patterns in turn, unique names. `epoch` selects the round,
// so a long run hands every user a fresh path per round.
std::vector<hdov::Session> MakeUserSessions(const hdov::Aabb& bounds,
                                            size_t users, size_t frames,
                                            uint64_t seed, uint64_t epoch);

// The large testbed preset every workload runs on (20x20 blocks, 24x24
// cells, 5 samples per cell, 64^2 cube faces) with `threads` precompute
// workers.
hdov::TestbedOptions LargeTestbed(uint32_t threads);

}  // namespace perfbench

#endif  // HDOV_PERFBENCH_INPUTS_H_
