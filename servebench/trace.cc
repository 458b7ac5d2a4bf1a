#include "servebench/trace.h"

#include <chrono>
#include <cstdio>

namespace servebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Begin(const char* name) {
  return enabled_ ? BeginAt(name, NowNs()) : -1;
}

int SpanRecorder::BeginAt(const char* name, int64_t start_ns) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, start_ns, -1, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  if (id >= 0) EndAt(id, NowNs());
}

void SpanRecorder::EndAt(int id, int64_t end_ns) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = end_ns;
  // Spans close innermost first; anything still open above `id` was
  // abandoned by an early return and closes with it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
    if (spans_[static_cast<size_t>(top)].end_ns < 0) {
      spans_[static_cast<size_t>(top)].end_ns = end_ns;
    }
  }
}

std::map<std::string, SpanRecorder::NameStats> SpanRecorder::Aggregate()
    const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.end_ns < 0 || span.parent < 0) continue;
    child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
  }
  std::map<std::string, NameStats> stats;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    NameStats& s = stats[span.name];
    const int64_t duration = span.end_ns - span.start_ns;
    ++s.count;
    s.total_ns += duration;
    s.self_ns += duration - child_ns[i];
    s.durations_ns.push_back(static_cast<double>(duration));
  }
  return stats;
}

int64_t SpanRecorder::RootNs() const {
  int64_t total = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0 && span.end_ns >= 0) total += span.end_ns - span.start_ns;
  }
  return total;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  std::fprintf(file, "name\tstart_ns\tduration_ns\tparent\n");
  for (const Span& span : spans_) {
    std::fprintf(file, "%s\t%lld\t%lld\t%d\n", span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns - span.start_ns),
                 span.parent);
  }
  return std::fclose(file) == 0;
}

}  // namespace servebench
