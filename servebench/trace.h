#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

// In-memory spans for the traced run. The benchmark opens a span around
// each call it makes into a layer (a ServeClient call, a fingerprint, a
// wait on the server process); spans nest, and a span's self time is its
// duration minus the time its direct children cover. Nothing is written
// while measuring: Write() dumps the spans once the run is over.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

int64_t NowNs();

class SpanRecorder {
 public:
  /// When disabled, Begin/End cost one branch and record nothing.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span named `name` (a string literal) as a child of the
  /// innermost open span. Returns its id, or -1 when disabled.
  int Begin(const char* name);
  int BeginAt(const char* name, int64_t start_ns);
  void End(int id);
  void EndAt(int id, int64_t end_ns);

  struct NameStats {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    std::vector<double> durations_ns;  ///< one per span, in record order
  };
  /// Per-name totals over every closed span.
  std::map<std::string, NameStats> Aggregate() const;

  /// Sum of the durations of all top-level (parentless) spans.
  int64_t RootNs() const;

  /// Writes one line per span: name, start, duration (ns), parent id.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name)
      : recorder_(recorder), id_(recorder.Begin(name)) {}
  ~ScopedSpan() { recorder_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int id_;
};

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
