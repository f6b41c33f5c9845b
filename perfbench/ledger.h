// The benchmark's own timing ledger. Every timed call into the library goes
// through Ledger::time(). With tracing off it only reads the clock; with
// tracing on it also keeps a span (name, kernel, round, parent, start, end)
// in memory and adds the duration to a per-round sample of the span's name,
// from which main.cpp derives the per-layer metrics. Spans are written out
// once, at the end of the run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

class Ledger {
 public:
  /// Per-round values of one sample name, keyed by round index.
  using Series = std::map<int, double>;

  explicit Ledger(bool tracing) : tracing_(tracing), origin_(Clock::now()) {}

  bool tracing() const { return tracing_; }

  /// Rounds numbered from 0 feed the per-round samples; set-up and warm-up
  /// work runs as round -1 and is kept only as spans.
  void begin_round(int round) { round_ = round; }

  /// Run `fn` and return its wall time in milliseconds.
  template <class F>
  double time(const std::string& name, const std::string& kernel, F&& fn) {
    if (!tracing_) {
      Clock::time_point t0 = Clock::now();
      fn();
      return ms_between(t0, Clock::now());
    }
    int parent = open_;
    int id = static_cast<int>(spans_.size());
    spans_.push_back({name, kernel, round_, parent, Clock::now(), {}});
    open_ = id;
    fn();
    spans_[id].end = Clock::now();
    open_ = parent;
    double ms = ms_between(spans_[id].start, spans_[id].end);
    add(name, kernel, ms);
    return ms;
  }

  /// Add `value` to this round's sample of `name` and of `name.<kernel>`
  /// (traced runs only; set-up rounds are not sampled).
  void add(const std::string& name, const std::string& kernel, double value) {
    if (!tracing_ || round_ < 0) return;
    samples_[name][round_] += value;
    if (!kernel.empty()) samples_[name + "." + kernel][round_] += value;
  }

  const Series& series(const std::string& name) const {
    static const Series kEmpty;
    auto it = samples_.find(name);
    return it == samples_.end() ? kEmpty : it->second;
  }

  double median_per_round(const std::string& name) const {
    std::vector<double> v;
    for (const auto& [round, value] : series(name)) v.push_back(value);
    return median(std::move(v));
  }

  double total(const std::string& name) const {
    double sum = 0.0;
    for (const auto& [round, value] : series(name)) sum += value;
    return sum;
  }

  /// Write the spans as Chrome trace events (chrome://tracing, Perfetto).
  bool write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
      };
      out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(s.start)
          << ",\"dur\":" << us(s.end) - us(s.start) << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << ",\"round\":" << s.round
          << ",\"kernel\":\"" << s.kernel << "\"}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    std::string kernel;
    int round;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };

  bool tracing_;
  Clock::time_point origin_;
  int round_ = -1;
  int open_ = -1;
  std::vector<Span> spans_;
  std::map<std::string, Series> samples_;
};

}  // namespace perfbench
