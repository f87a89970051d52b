#include "spans.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "util/error.h"
#include "util/json.h"

namespace perfbench {

std::int64_t SpanLog::Since(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
}

std::int64_t SpanLog::Begin(std::string name, std::int64_t parent, std::int64_t request_id) {
  Span span;
  span.name = std::move(name);
  span.start_ns = Since(Clock::now());
  span.end_ns = span.start_ns;
  span.parent = parent;
  span.request_id = request_id;
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::End(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = Since(Clock::now());
}

std::int64_t SpanLog::Add(std::string name, Clock::time_point start, Clock::time_point end,
                          std::int64_t parent, std::int64_t request_id) {
  Span span;
  span.name = std::move(name);
  span.start_ns = Since(start);
  span.end_ns = Since(end);
  span.parent = parent;
  span.request_id = request_id;
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<double> SpanLog::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.Micros());
  }
  return out;
}

void SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::app);
  for (const Span& span : spans_) {
    flatnet::Json line = flatnet::Json::MakeObject();
    line["name"] = span.name;
    line["start_ns"] = span.start_ns;
    line["end_ns"] = span.end_ns;
    line["parent"] = span.parent;
    line["request_id"] = span.request_id;
    out << line.Dump() << '\n';
  }
  if (!out) throw flatnet::Error("cannot write spans to " + path);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace perfbench
