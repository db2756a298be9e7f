#include "spans.h"

#include <cstdio>
#include <memory>

namespace perfbench {

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (f == nullptr) {
    return false;
  }
  const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("[\n", f.get());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%u,\"parent\":%u,\"trace\":%u}}%s\n",
                 s.name, static_cast<double>(s.start_ns - base) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent, s.trace, i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f.get());
  return std::fflush(f.get()) == 0 && std::ferror(f.get()) == 0;
}

}  // namespace perfbench
