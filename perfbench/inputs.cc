#include "inputs.h"

#include <string>

#include "common/rng.h"
#include "testbed/testbed_glue.h"

namespace perfbench {

uint64_t SubSeed(uint64_t seed, Stream stream, uint64_t index) {
  // splitmix64 over the mixed triple.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL +
               static_cast<uint64_t>(stream) * 0xbf58476d1ce4e5b9ULL +
               index * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<QueryInput> MakeQueries(const hdov::Aabb& bounds, size_t count,
                                    uint64_t seed) {
  hdov::Rng rng(seed);
  constexpr size_t kEtas = sizeof(kEtaSweep) / sizeof(kEtaSweep[0]);
  std::vector<QueryInput> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    QueryInput q;
    q.position = hdov::Vec3(rng.Uniform(bounds.min.x, bounds.max.x),
                            rng.Uniform(bounds.min.y, bounds.max.y), 1.7);
    q.eta = kEtaSweep[rng.NextUint64(kEtas)];
    queries.push_back(q);
  }
  return queries;
}

std::vector<hdov::Session> MakeUserSessions(const hdov::Aabb& bounds,
                                            size_t users, size_t frames,
                                            uint64_t seed, uint64_t epoch) {
  constexpr hdov::MotionPattern kPatterns[] = {
      hdov::MotionPattern::kNormalWalk, hdov::MotionPattern::kTurnLeftRight,
      hdov::MotionPattern::kBackForward};
  std::vector<hdov::Session> sessions;
  sessions.reserve(users);
  for (size_t u = 0; u < users; ++u) {
    hdov::SessionOptions opt;
    opt.num_frames = frames;
    opt.seed = SubSeed(seed, Stream::kSessions, epoch * users + u);
    hdov::Session s = hdov::RecordSession(kPatterns[u % 3], bounds, opt);
    s.name = "u" + std::to_string(u) + "." + s.name;
    sessions.push_back(std::move(s));
  }
  return sessions;
}

hdov::TestbedOptions LargeTestbed(uint32_t threads) {
  hdov::TestbedOptions opt;
  hdov::testbed::ApplyLargeScalePreset(&opt);
  opt.face_resolution = 64;
  opt.threads = threads;
  return opt;
}

}  // namespace perfbench
