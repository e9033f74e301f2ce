// Tracing for the benchmark's traced pass: spans around every call the
// benchmark makes into the library, and a decorator that counts and times
// the problem model's eval and bound_of.
//
// Spans are kept in memory and written out once, when the run ends. A
// span's self time is its duration minus the time its child spans cover.
// Neither piece runs in the timed pass: the decorator reads the clock twice
// per expansion (about 151k expansions per table1 solve).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bnb/problem.hpp"

namespace perfbench {

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Span {
    std::uint32_t id = 0;      // 1-based; 0 is "no parent"
    std::uint32_t parent = 0;
    std::string name;
    double start = 0.0;        // seconds since the recorder was made
    double end = 0.0;
    double child_seconds = 0.0;

    [[nodiscard]] double seconds() const { return end - start; }
    [[nodiscard]] double self_seconds() const { return seconds() - child_seconds; }
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::uint32_t id) : recorder_(recorder), id_(id) {}
    ~Scope() { recorder_->close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    SpanRecorder* recorder_;
    std::uint32_t id_;
  };

  /// Opens a span as a child of the innermost open span. Spans must close
  /// in reverse order of opening, which Scope guarantees.
  [[nodiscard]] Scope open(std::string name);

  /// Sum of the durations of every span called `name`.
  [[nodiscard]] double total_seconds(const std::string& name) const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as JSON: one object per span with id, parent, name,
  /// start, end and self time, in seconds. False if the file cannot be
  /// written.
  bool write_json(const std::string& path) const;

 private:
  void close(std::uint32_t id);

  double origin_ = now_seconds();
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  // stack of open span ids
};

/// Forwards every call to `inner`, counting and timing eval and bound_of.
/// Safe to call concurrently, as IProblemModel requires.
class TimedModel final : public ftbb::bnb::IProblemModel {
 public:
  explicit TimedModel(const ftbb::bnb::IProblemModel& inner) : inner_(inner) {}

  [[nodiscard]] double root_bound() const override { return inner_.root_bound(); }
  [[nodiscard]] ftbb::bnb::NodeEval eval(const ftbb::core::PathCode& code) const override;
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] double bound_of(const ftbb::core::PathCode& code) const override;
  [[nodiscard]] std::optional<double> known_optimal() const override {
    return inner_.known_optimal();
  }

  [[nodiscard]] std::uint64_t eval_calls() const { return eval_calls_.load(); }
  [[nodiscard]] double eval_seconds() const {
    return static_cast<double>(eval_ns_.load()) * 1e-9;
  }
  [[nodiscard]] std::uint64_t bound_of_calls() const { return bound_of_calls_.load(); }
  [[nodiscard]] double bound_of_seconds() const {
    return static_cast<double>(bound_of_ns_.load()) * 1e-9;
  }

 private:
  const ftbb::bnb::IProblemModel& inner_;
  mutable std::atomic<std::uint64_t> eval_calls_{0};
  mutable std::atomic<std::uint64_t> eval_ns_{0};
  mutable std::atomic<std::uint64_t> bound_of_calls_{0};
  mutable std::atomic<std::uint64_t> bound_of_ns_{0};
};

}  // namespace perfbench
