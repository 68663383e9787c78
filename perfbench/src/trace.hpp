// In-memory span recorder of the traced run.
//
// The benchmark wraps its calls into the library's public functions in
// ScopedSpan objects.  A span records its name, start, end, the request it
// serves, and its parent: the span open on the same thread when it began,
// tracked in a thread-local slot.  Spans stay in memory and are written once,
// when the run ends (write_json).  A disabled tracer records nothing and
// reads no clock, so the untraced run pays one branch per call site.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  /// Spans past this many are counted, not kept, which bounds memory.
  static constexpr std::size_t kMaxSpans = 200000;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::uint32_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void record(Span span);

  std::vector<Span> spans() const;
  std::uint64_t dropped() const;

  /// Write every kept span as one JSON document.
  void write_json(const std::filesystem::path& path) const;

 private:
  std::atomic<bool> enabled_;
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;    // guarded by mu_
  std::uint64_t dropped_ = 0;  // guarded by mu_
};

/// RAII span: opens on construction, records on destruction, and is the
/// parent of every span the same thread opens meanwhile.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Id of the span, 0 when tracing is off.
  std::uint32_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
  std::uint32_t saved_parent_ = 0;
};

}  // namespace perfbench
