// Span recording for the traced run: one span around every call the
// benchmark makes into a layer, kept in memory and written out as Chrome
// trace-event JSON when the run ends. Spans nest per thread; a span's
// parent is the span open on its thread when it started.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using WallClock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(WallClock::time_point a,
                                            WallClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  /// Closes its span when destroyed; does nothing when tracing was off at
  /// construction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::uint32_t index_ = kNoParent;
    std::uint32_t saved_parent_ = kNoParent;
  };

  void enable(bool on) noexcept { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return on_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] Scope span(const char* name) { return Scope(this, name); }

  struct Record {
    const char* name = nullptr;
    std::uint32_t parent = kNoParent;
    std::uint32_t thread = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open
  };

  /// Copy of every recorded span, in open order.
  [[nodiscard]] std::vector<Record> records() const;
  /// Durations in milliseconds of the closed spans called `name`.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;

  /// {"traceEvents": [...]} with one complete ("X") event per closed span;
  /// args carry the span id and its parent id (-1 for a root).
  void write_chrome_trace(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::atomic<bool> on_{false};
  WallClock::time_point epoch_ = WallClock::now();
  mutable std::mutex mutex_;
  std::vector<Record> records_;  ///< guarded by mutex_
};

/// The process-wide tracer every workload records into.
[[nodiscard]] Tracer& tracer();

}  // namespace perfbench
