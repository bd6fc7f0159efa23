#ifndef OBDABENCH_TRACE_H_
#define OBDABENCH_TRACE_H_

// In-memory spans for the traced run. The benchmark wraps its own calls
// into each layer's public functions; nothing inside the library is
// instrumented by this file. Spans stay in memory and are written out
// once, after the run.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace obdabench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = a root (one protocol op)
  std::uint64_t op = 0;      // the op the span belongs to
  const char* name = "";     // static string "layer.step"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int thread = 0;
};

/// Thread-safe span sink.
class SpanLog {
 public:
  static std::uint32_t NextId();
  void Add(const Span& span);
  std::vector<Span> Take();

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records one span from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint32_t parent,
             std::uint64_t op, int thread);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return span_.id; }

 private:
  SpanLog& log_;
  Span span_;
};

/// Self time of every span (same order as `spans`): its duration minus
/// the part of its interval covered by the union of its direct children.
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

/// Chrome trace-event JSON (load in Perfetto or chrome://tracing).
bool WriteChromeTrace(const std::string& path,
                      const std::vector<Span>& spans);

}  // namespace obdabench

#endif  // OBDABENCH_TRACE_H_
