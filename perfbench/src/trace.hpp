#pragma once
/// \file trace.hpp
/// \brief In-memory span recorder for the traced run.
///
/// Spans are recorded from the benchmark's own code around its calls into
/// the library (the library itself is not instrumented): window > step >
/// phase / sub-step on the stepping threads, predictBatch spans on the pool
/// worker threads, and one section of replay spans. Each span has a name, a
/// start, an end, a parent and a thread; spans stay in memory until
/// writeChromeTrace() emits Chrome trace-event JSON ("X" events, one per
/// span, with the span id, parent id and self time in `args`). Self time is
/// the span's duration minus the part of it that its child spans cover.
///
/// A disabled tracer records nothing: open() returns -1 and every other
/// call is a no-op, so the untraced run pays one branch per call site.

#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the tracer origin
    double end = -1.0;   ///< < start while still open
    int parent = -1;
    int thread = 0;      ///< small per-thread index (first use order)
  };

  static Tracer& instance();

  void enable();
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span now on the calling thread; returns its id (-1 if disabled).
  int open(const std::string& name, int parent = -1);
  /// Close an open span now (ignores -1).
  void close(int id);
  /// Record a finished span with explicit times from now() (seconds).
  int record(const std::string& name, int parent, double t0, double t1);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Self time [s] of every span: its duration minus the union of its
  /// children's intervals (clipped to the span).
  [[nodiscard]] static std::vector<double> selfTimes(const std::vector<Span>& spans);

  /// Write the Chrome trace-event JSON; returns false if the file could not
  /// be written.
  bool writeChromeTrace(const std::string& path) const;

 private:
  Tracer();
  int threadIndex();

  bool enabled_ = false;
  double origin_ = 0.0;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<std::size_t> thread_hashes_;
};

/// RAII span (no-op when the tracer is disabled).
class ScopedSpan {
 public:
  ScopedSpan(const std::string& name, int parent = -1)
      : id_(Tracer::instance().open(name, parent)) {}
  ~ScopedSpan() { Tracer::instance().close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

}  // namespace perfbench
