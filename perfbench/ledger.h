// In-memory span ledger for the benchmark's traced replays.
//
// Spans are recorded from OUTSIDE the library: the replay wraps each call
// into a layer's public API (RoutingService::Route, RequestClassifier::
// Classify, FilterRowsMultiPartials, PreparedProblem::Run, ...) in a Span.
// Each span carries its name, start, end, parent and request id; all of them
// stay in memory until the run ends, when the ledger is summarized and
// written out. A disabled ledger records nothing and reads no clock, so the
// same replay code also measures the tracing overhead (enabled pass vs
// disabled pass).
#ifndef VQ_PERFBENCH_LEDGER_H_
#define VQ_PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <vector>

namespace vqbench {

/// Seconds on the steady clock since the first call in this process.
inline double NowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

struct SpanRecord {
  const char* name = "";  ///< static string: the layer name
  int parent = -1;        ///< index into Ledger::spans(), -1 for a root
  uint32_t request = 0;   ///< request id shared by all spans of one request
  double start = 0.0;     ///< NowSeconds()
  double end = 0.0;
};

class Ledger {
 public:
  explicit Ledger(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_request(uint32_t request) { request_ = request; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int Begin(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back(SpanRecord{name, current_, request_, NowSeconds(), 0.0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void End(int index) {
    if (index < 0) return;
    SpanRecord& span = spans_[static_cast<size_t>(index)];
    span.end = NowSeconds();
    current_ = span.parent;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Duration of span `index`; 0 for -1 (a span a disabled ledger skipped).
  double Seconds(int index) const {
    if (index < 0) return 0.0;
    const SpanRecord& span = spans_[static_cast<size_t>(index)];
    return span.end - span.start;
  }

  /// Summed duration of the direct children of every span (index-aligned),
  /// so a span's self time is its duration minus this.
  std::vector<double> ChildSeconds() const {
    std::vector<double> out(spans_.size(), 0.0);
    for (const SpanRecord& s : spans_) {
      if (s.parent >= 0) out[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    return out;
  }

 private:
  bool enabled_;
  int current_ = -1;
  uint32_t request_ = 0;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op on a disabled ledger.
class Span {
 public:
  Span(Ledger* ledger, const char* name)
      : ledger_(ledger), index_(ledger->Begin(name)) {}
  ~Span() { ledger_->End(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int index() const { return index_; }

 private:
  Ledger* ledger_;
  int index_;
};

}  // namespace vqbench

#endif  // VQ_PERFBENCH_LEDGER_H_
