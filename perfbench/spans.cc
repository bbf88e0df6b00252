#include "spans.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t SpanRecorder::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

uint64_t SpanRecorder::Begin(const char* name, uint64_t parent, uint64_t id) {
  if (!enabled_) return 0;
  const int64_t now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 && parent != 0) id = spans_[parent - 1].id;
  if (id == 0) id = spans_.size() + 1;
  spans_.push_back(Span{name, parent, id, now, -1});
  return spans_.size();
}

void SpanRecorder::End(uint64_t span) {
  if (!enabled_ || span == 0) return;
  const int64_t now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[span - 1].end_us = now;
}

rased::Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return rased::Status::IOError("cannot create " + path);
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\": %zu, \"name\": \"%s\", \"parent\": %" PRIu64
                 ", \"id\": %" PRIu64 ", \"start_us\": %" PRId64
                 ", \"end_us\": %" PRId64 "}\n",
                 i + 1, s.name, s.parent, s.id, s.start_us, s.end_us);
  }
  return std::fclose(f) == 0 ? rased::Status::OK()
                             : rased::Status::IOError("write " + path);
}

}  // namespace perfbench
