#include "trace.hpp"

#include <cstdio>

namespace perfbench {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

SpanRecorder::Scope SpanRecorder::open(std::string name) {
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.name = std::move(name);
  span.start = now_seconds() - origin_;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return Scope(this, spans_.back().id);
}

void SpanRecorder::close(std::uint32_t id) {
  Span& span = spans_[id - 1];
  span.end = now_seconds() - origin_;
  open_.pop_back();
  if (span.parent != 0) spans_[span.parent - 1].child_seconds += span.seconds();
}

double SpanRecorder::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.seconds();
  }
  return total;
}

bool SpanRecorder::write_json(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %u, \"parent\": %u, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"self_s\": %.9f}%s\n",
                 s.id, s.parent, s.name.c_str(), s.start, s.end, s.self_seconds(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

ftbb::bnb::NodeEval TimedModel::eval(const ftbb::core::PathCode& code) const {
  const auto start = std::chrono::steady_clock::now();
  ftbb::bnb::NodeEval out = inner_.eval(code);
  eval_ns_.fetch_add(elapsed_ns(start), std::memory_order_relaxed);
  eval_calls_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

double TimedModel::bound_of(const ftbb::core::PathCode& code) const {
  const auto start = std::chrono::steady_clock::now();
  const double out = inner_.bound_of(code);
  bound_of_ns_.fetch_add(elapsed_ns(start), std::memory_order_relaxed);
  bound_of_calls_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

}  // namespace perfbench
