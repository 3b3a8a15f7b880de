// In-memory span recorder for the traced run.
//
// The benchmark wraps each call it makes into a parsim layer in a
// ScopedSpan: name ("<layer>.<Function>"), start, end, the enclosing
// span on the same thread, and a request id shared by the spans of one
// benchmark operation. Spans stay in memory and are written out when the
// run ends. A layer's self time is its spans' durations minus the part
// of each interval that child spans cover.
//
// With tracing off (a null Tracer), a ScopedSpan costs one branch and no
// clock read, so the untraced run measures the program, not the tracer.

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline constexpr std::int64_t kNoParent = -1;

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = kNoParent;
  std::uint64_t request = 0;
};

/// The layer of a span name: the text before its first '.'.
std::string LayerOf(const char* name);

/// Length of the union of `intervals` clipped to [lo, hi).
std::uint64_t CoveredNs(std::vector<std::pair<std::uint64_t, std::uint64_t>>
                            intervals,
                        std::uint64_t lo, std::uint64_t hi);

/// Self time of every span: its duration minus the covered part of its
/// children's intervals. Indexed like `spans`.
std::vector<std::uint64_t> SelfTimesNs(const std::vector<Span>& spans);

class Tracer {
 public:
  /// Steady-clock nanoseconds since the tracer was created.
  std::uint64_t NowNs() const;

  /// Opens a span on the calling thread and returns its index.
  std::int64_t Begin(const char* name, std::uint64_t request);
  /// Closes span `index` (opened on this thread).
  void End(std::int64_t index);

  /// Snapshot of every recorded span.
  std::vector<Span> spans() const;

  /// Total self time per layer, in seconds.
  std::map<std::string, double> LayerSelfSeconds() const;

  /// Writes one JSON object per span to `path`. Returns false on I/O
  /// failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const std::int64_t origin_ns_ = RawNowNs();
  static std::int64_t RawNowNs();

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Records one span into `tracer` for its scope; a no-op when `tracer`
/// is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
