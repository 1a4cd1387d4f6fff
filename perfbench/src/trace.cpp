#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

#include "common.hpp"

namespace perfbench {

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : origin_(now()) {}

void Tracer::enable() {
  std::lock_guard lock(mutex_);
  enabled_ = true;
  spans_.reserve(1 << 16);
}

int Tracer::threadIndex() {
  const std::size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto it = std::find(thread_hashes_.begin(), thread_hashes_.end(), h);
  if (it != thread_hashes_.end()) {
    return static_cast<int>(it - thread_hashes_.begin());
  }
  thread_hashes_.push_back(h);
  return static_cast<int>(thread_hashes_.size() - 1);
}

int Tracer::open(const std::string& name, int parent) {
  if (!enabled_) return -1;
  const double t = now() - origin_;
  std::lock_guard lock(mutex_);
  spans_.push_back({name, t, -1.0, parent, threadIndex()});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) {
  if (!enabled_ || id < 0) return;
  const double t = now() - origin_;
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

int Tracer::record(const std::string& name, int parent, double t0, double t1) {
  if (!enabled_) return -1;
  std::lock_guard lock(mutex_);
  spans_.push_back({name, t0 - origin_, t1 - origin_, parent, threadIndex()});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::selfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const auto& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const double dur = std::max(0.0, s.end - s.start);
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start);
      hi = std::min(hi, s.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, dur - covered);
  }
  return self;
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  const auto all = spans();
  const auto self = selfTimes(all);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    const double end = s.end >= s.start ? s.end : s.start;
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"self_us\": %.3f}}%s\n",
                 s.name.c_str(), s.thread, 1e6 * s.start, 1e6 * (end - s.start), i,
                 s.parent, 1e6 * self[i], i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
