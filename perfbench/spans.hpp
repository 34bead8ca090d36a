// In-memory span recorder for the traced run.
//
// The benchmark opens one span around every call it makes into a layer's
// public API (spans inside the library are out of scope). A span records
// name, layer, wall start/end, the enclosing span and the operation id; the
// recorder keeps them in memory and writes them out once, at the end, as a
// Chrome trace (load in chrome://tracing or ui.perfetto.dev). A layer's self
// time is the sum of its spans' durations minus the time their child spans
// cover. Recording is single-threaded: spans are opened only on the
// benchmark's main thread.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::string layer;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  // index into the recorder's spans, -1 for a root
  int op = -1;      // operation id, -1 outside the measured operations
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  bool enabled = false;
  /// Operation id stamped on spans opened from now on.
  int current_op = -1;

  /// Opens a span; returns its index (or -1 when recording is off).
  int open(const std::string& name, const std::string& layer) {
    if (!enabled) return -1;
    SpanRecord s;
    s.name = name;
    s.layer = layer;
    s.start_us = now_us();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = current_op;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_us = now_us();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time per layer in seconds over spans of operations >= `min_op`:
  /// each span's duration minus the time its direct children cover.
  std::map<std::string, double> self_seconds(int min_op) const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const SpanRecord& s : spans_) {
      if (s.parent >= 0) {
        child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      if (s.op < min_op) continue;
      out[s.layer] += (s.end_us - s.start_us - child_us[i]) * 1e-6;
    }
    return out;
  }

  /// Writes the spans as a Chrome trace_event array (one "X" event per
  /// span, tid = nesting depth) plus `metadata` as a final "M" event's args.
  /// Returns false when the file cannot be opened.
  bool write_chrome_trace(const std::string& path,
                          const std::string& metadata_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      int depth = 0;
      for (int p = s.parent; p >= 0;
           p = spans_[static_cast<std::size_t>(p)].parent) {
        ++depth;
      }
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,"
                   "\"parent\":%d,\"id\":%zu}},\n",
                   s.name.c_str(), s.layer.c_str(), depth, s.start_us,
                   s.end_us - s.start_us, s.op, s.parent, i);
    }
    std::fprintf(f,
                 "{\"name\":\"perfbench\",\"ph\":\"M\",\"pid\":1,\"args\":%s}"
                 "\n]\n",
                 metadata_json.c_str());
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span on a recorder (no-op when recording is off).
class Span {
 public:
  Span(SpanRecorder& recorder, const std::string& name,
       const std::string& layer)
      : recorder_(recorder), index_(recorder.open(name, layer)) {}
  ~Span() { recorder_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& recorder_;
  int index_;
};

}  // namespace perfbench
