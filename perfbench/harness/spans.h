// In-memory span log for the benchmark harness.
//
// Every timed call into a flatnet layer is wrapped in a span: name, start,
// end, parent span and request id. Spans stay in memory while the run
// measures and are written out once, as JSON lines, when it ends — so the
// recording itself does no I/O on the measured path.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // since the log's epoch
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;      // index into the log, -1 = root
  std::int64_t request_id = -1;  // -1 = not tied to a request
  double Micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  // Opens a span and returns its index; close it with End().
  std::int64_t Begin(std::string name, std::int64_t parent = -1,
                     std::int64_t request_id = -1);
  void End(std::int64_t index);
  // Records a span whose endpoints were measured elsewhere.
  std::int64_t Add(std::string name, Clock::time_point start, Clock::time_point end,
                   std::int64_t parent = -1, std::int64_t request_id = -1);

  const std::vector<Span>& spans() const { return spans_; }
  // Durations in microseconds of every span called `name`, in record order.
  std::vector<double> DurationsUs(const std::string& name) const;
  // Appends the log to `path` as one JSON object per line.
  void WriteJsonl(const std::string& path) const;

 private:
  std::int64_t Since(Clock::time_point t) const;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// RAII helper: one span around a scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::int64_t parent = -1,
             std::int64_t request_id = -1)
      : log_(log), index_(log.Begin(std::move(name), parent, request_id)) {}
  ~ScopedSpan() { log_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int64_t index_;
};

// Nearest-rank quantile of `values` (copied and sorted); 0 when empty.
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
