// The clock seam between the session layer and its transports.
//
// FrontServer's entire state machine runs on integer-microsecond
// timestamps (front::SimTime) passed in by the caller. That is what
// makes the simulated transport deterministic — and what lets the real
// socket transport reuse the session layer unchanged: the epoll loop
// reads its timestamps from a Clock instead of a traffic script.
//
// The clock also decides when a served batch is done (batch_done): on
// simulated time that is the service-cost model, on wall time it is the
// moment the oracle returned.
//
// Two implementations:
//
//   * ManualClock — time advances only when the owner says so, and a
//     batch completes after its modelled service time. The differential
//     transport tests drive the socket server with one of these, so
//     every admission, batch close, completion and deadline decision
//     happens at exactly the recorded request stream's timestamps and
//     the simulated session replays as the byte-exact oracle for the
//     socket path (real TCP delivery jitter never reaches the session
//     layer's notion of time).
//   * MonotonicClock — CLOCK_MONOTONIC microseconds since construction,
//     the production adapter. A batch completes when the oracle has
//     actually answered it, so responses are released without a modelled
//     hold. Loopback benches share one instance between server and
//     clients so deadlines and latency measurements live on a single
//     timeline.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "front/frame.hpp"

namespace shears::front {

class Clock {
 public:
  virtual ~Clock() = default;
  /// Microseconds since this clock's epoch. Must never go backwards.
  [[nodiscard]] virtual SimTime now() = 0;
  /// Completion time of a batch that closed at `close` and whose oracle
  /// call has just returned; `modelled_us` is the service-cost model's
  /// estimate of how long it took.
  [[nodiscard]] virtual SimTime batch_done(SimTime close,
                                           SimTime modelled_us) = 0;
};

/// Time under the caller's explicit control; starts at 0.
class ManualClock final : public Clock {
 public:
  [[nodiscard]] SimTime now() override { return now_; }

  /// Simulated time: the batch takes exactly its modelled service time.
  [[nodiscard]] SimTime batch_done(SimTime close,
                                   SimTime modelled_us) override {
    return close + modelled_us;
  }

  /// Moves time forward to `t`; ignores moves backwards (the session
  /// layer's "now must not go backwards" contract stays intact even if
  /// two schedules interleave carelessly).
  void advance_to(SimTime t) {
    if (t > now_) now_ = t;
  }
  void advance_by(SimTime d) { now_ += d; }

 private:
  SimTime now_ = 0;
};

/// Wall time: steady-clock microseconds since construction.
class MonotonicClock final : public Clock {
 public:
  MonotonicClock() : epoch_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] SimTime now() override {
    return static_cast<SimTime>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Wall time: the batch is done now, whatever the model estimated.
  [[nodiscard]] SimTime batch_done(SimTime close, SimTime) override {
    return std::max(close, now());
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace shears::front
