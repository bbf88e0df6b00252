// In-memory span recorder for the traced run: each span has a name, a
// start, an end, a parent and a request or day id. Spans stay in memory
// and are written out once, when the run ends.
#ifndef RASED_PERFBENCH_SPANS_H_
#define RASED_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "util/status.h"

namespace perfbench {

class SpanRecorder {
 public:
  /// A disabled recorder records nothing and returns span id 0.
  explicit SpanRecorder(bool enabled);

  /// Opens a span; `id` is the request or day it belongs to (0 = inherit
  /// the parent's).
  uint64_t Begin(const char* name, uint64_t parent, uint64_t id);
  void End(uint64_t span);

  /// One JSON object per line.
  rased::Status WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t parent;
    uint64_t id;
    int64_t start_us;
    int64_t end_us;
  };
  int64_t NowUs() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::deque<Span> spans_;
};

}  // namespace perfbench

#endif  // RASED_PERFBENCH_SPANS_H_
