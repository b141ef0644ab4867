#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

int Tracer::begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("trace: spans must close in reverse order");
  }
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

std::vector<std::int64_t> Tracer::self_times() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    // Union of the children's intervals, clipped to the parent.
    std::int64_t covered = 0;
    std::int64_t cursor = spans_[i].start_ns;
    for (const auto& [start, end] : intervals) {
      const std::int64_t from = std::max(start, cursor);
      const std::int64_t to = std::min(end, spans_[i].end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    out[i] = (spans_[i].end_ns - spans_[i].start_ns) - covered;
  }
  return out;
}

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return {values[0], values[0], values[0]};
  const auto size = static_cast<std::int64_t>(values.size());
  const auto cut = [&](std::int64_t i) {
    // Interpolate between the j-th and (j+1)-th order statistics, with
    // j clamped to [1, size - 1] before the weight is taken.
    const std::int64_t j = std::clamp<std::int64_t>(i * (size + 1) / 4, 1, size - 1);
    const auto delta = static_cast<double>(i * (size + 1) - j * 4);
    const double lower = values[static_cast<std::size_t>(j - 1)];
    const double upper = values[static_cast<std::size_t>(j)];
    return (lower * (4.0 - delta) + upper * delta) / 4.0;
  };
  return {cut(1), cut(2), cut(3)};
}

Summary summarize(const std::vector<double>& values) {
  Summary out;
  out.count = values.size();
  out.quartiles = quartiles(values);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto n = static_cast<double>(sorted.size());
    const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    if (rank == 0 || sorted.size() - rank < 10) continue;
    out.high_percentile = pct;
    out.high_value = sorted[rank - 1];
    break;
  }
  return out;
}

std::string summary_json(const Summary& summary) {
  char buffer[256];
  std::string high = "null";
  if (summary.high_percentile) {
    std::snprintf(buffer, sizeof buffer, "{\"pct\": %.1f, \"value\": %.9g}",
                  *summary.high_percentile, summary.high_value);
    high = buffer;
  }
  std::snprintf(buffer, sizeof buffer,
                "{\"n\": %zu, \"q1\": %.9g, \"median\": %.9g, \"q3\": %.9g, "
                "\"high\": ",
                summary.count, summary.quartiles.q1, summary.quartiles.median,
                summary.quartiles.q3);
  return std::string(buffer) + high + "}";
}

}  // namespace perfbench
