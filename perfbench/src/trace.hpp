// Span recording and timing summaries for the benchmark's traced run.
//
// The benchmark wraps each call into a library layer in a span (name,
// start, end, parent). Spans stay in memory and are written out when
// the run ends; a span's self time is its duration minus the part of
// it that its children cover. The same summary (median, quartiles,
// highest well-sampled percentile, count) is used for every timing the
// benchmark reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into Tracer::spans(), -1 for a root
};

/// Single-threaded span recorder. Spans nest by call order: a span
/// begun while another is open becomes its child.
class Tracer {
 public:
  int begin(std::string name);
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span, in span order.
  [[nodiscard]] std::vector<std::int64_t> self_times() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the "exclusive" method); a single value is its own quartiles.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

struct Summary {
  std::size_t count = 0;
  Quartiles quartiles;
  /// Highest of p50/p75/p90/p95/p99/p99.9 with at least ten samples
  /// above it (nearest-rank value); unset below twenty samples.
  std::optional<double> high_percentile;
  double high_value = 0.0;
};
[[nodiscard]] Summary summarize(const std::vector<double>& values);

/// The summary as a JSON object (no trailing newline).
[[nodiscard]] std::string summary_json(const Summary& summary);

}  // namespace perfbench
