// The serving front-end: a session layer in front of serve::Oracle,
// deterministic on its simulated clock.
//
// The batched oracle answers microsecond queries, but only for callers
// already inside the process. This server gives it the shape of a
// network service — framed requests over per-connection byte buffers —
// and, more importantly, the failure behaviour of a production one:
//
//   * Admission control: a bounded queue. When it is full, or when the
//     projected queue wait already exceeds a request's deadline, the
//     request is shed *at the door* with a kOverloaded error frame —
//     cheap rejection instead of queueing work that will time out.
//   * Deadlines: each request carries an absolute sim-time deadline that
//     propagates into batch formation (earliest-deadline-first order,
//     linger cut short when the most urgent request would otherwise
//     miss) and into post-service delivery (a late answer degrades to a
//     kDeadlineExceeded error, never a silently stale success).
//   * Fairness: a per-client token bucket. One zipfian-hot client runs
//     out of tokens and gets kThrottled frames; everyone else's requests
//     still reach the queue.
//   * Staleness: when the store has unrefreshed live appends the server
//     refreshes and retries (OracleConfig::auto_refresh semantics)
//     instead of dying — the recoverable half of the kStale status.
//
// Determinism contract: the session layer runs on integer-microsecond
// timestamps and a single logical event loop. On the simulated clock (no
// Clock passed to run_until, or a ManualClock) a batch's service time is
// a deterministic model (batch_overhead_us + per_query_us × n), not wall
// time, so queue depths, shed counts and latency percentiles are
// byte-identical across machines and oracle thread counts — the soak
// test pins 1 vs 8 threads. On the wall clock (MonotonicClock) a batch
// completes when the oracle has answered it, and its responses are
// released then. The admission shed and EDF batch sizing are estimates
// made before service, so they use the model on either clock.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "front/frame.hpp"
#include "serve/columnar.hpp"
#include "serve/oracle.hpp"

namespace shears::obs {
class Counter;
class Gauge;
class LatencyHistogram;
class MetricsRegistry;
}  // namespace shears::obs

namespace shears::front {

class Clock;

struct FrontConfig {
  /// Bounded admission queue; arrivals beyond this shed kOverloaded.
  std::size_t queue_capacity = 1024;
  /// Per-client token bucket: sustained requests/s (0 = unlimited) and
  /// burst capacity in requests.
  std::uint32_t client_rate_qps = 0;
  std::uint32_t client_burst = 32;
  /// Batch formation: size cap, and how long a batch may linger open
  /// after its first request before service starts (deadline pressure
  /// cuts the linger short).
  std::size_t max_batch = 256;
  SimTime batch_linger_us = 0;
  /// Service-time model: a batch of n queries occupies the executor for
  /// batch_overhead_us + n * per_query_us. It is the service time on the
  /// simulated clock, and the admission/batch-sizing estimate on both.
  SimTime batch_overhead_us = 100;
  SimTime per_query_us = 2;
  /// Deadline stamped on requests that carry none; 0 = none.
  SimTime default_deadline_us = 0;

  /// Throws std::invalid_argument on zero capacity/batch/per-query cost.
  void validate() const;
};

/// Deterministic front-end telemetry. Every field is a pure function of
/// (config, traffic), so reports compare equal across thread counts.
struct FrontStats {
  std::uint64_t frames_in = 0;       ///< well-formed frames received
  std::uint64_t decode_errors = 0;   ///< per-frame decode failures
  std::uint64_t bad_requests = 0;    ///< frames whose body failed to parse
  std::uint64_t requests = 0;        ///< decoded request bodies
  std::uint64_t admitted = 0;        ///< entered the queue
  std::uint64_t answered = 0;        ///< response frames emitted
  std::uint64_t shed_queue_full = 0; ///< kOverloaded: queue at capacity
  std::uint64_t shed_deadline = 0;   ///< kOverloaded: wait exceeds deadline
  std::uint64_t shed_throttled = 0;  ///< kThrottled: token bucket empty
  std::uint64_t expired_in_queue = 0;///< kDeadlineExceeded before service
  std::uint64_t expired_served = 0;  ///< kDeadlineExceeded after service
  std::uint64_t stale_refreshes = 0; ///< store refreshed mid-session
  std::uint64_t batches = 0;
  std::uint64_t max_queue_depth = 0;

  friend bool operator==(const FrontStats&, const FrontStats&) = default;
};

using ConnId = std::uint32_t;

class FrontServer {
 public:
  /// `oracle` answers the queries; `store` (nullable) is the mutable
  /// columnar store behind it, enabling refresh-then-retry on staleness.
  /// Both must outlive the server.
  FrontServer(const serve::Oracle* oracle, serve::ColumnarStore* store,
              FrontConfig config = {});

  /// Opens a connection for a client; the id feeds the fairness bucket.
  [[nodiscard]] ConnId connect(std::uint64_t client_id);

  /// Client→server bytes arriving at `now`. Frames are decoded
  /// incrementally; complete requests are admitted or shed immediately.
  /// `now` must not go backwards across calls.
  void submit(ConnId conn, std::span<const std::uint8_t> bytes, SimTime now);

  /// The decode+admit half of submit(), without the trailing
  /// run_until(now). The socket transport feeds each read(2) chunk
  /// through here and drives batch formation from its Clock instead, so
  /// the session layer's decisions depend on *when bytes arrived*, never
  /// on how TCP happened to segment them — the invariant behind the
  /// differential transport tests.
  void ingest(ConnId conn, std::span<const std::uint8_t> bytes, SimTime now);

  /// Runs every batch whose formation closes at or before `now`. `clock`
  /// (nullable) decides when each batch is done (Clock::batch_done);
  /// without one the service model does, as on a ManualClock.
  void run_until(SimTime now, Clock* clock = nullptr);

  /// Earliest sim time at which the server has something to deliver or
  /// do: a pending output frame, or the close of the next batch.
  [[nodiscard]] std::optional<SimTime> next_activity() const;

  /// Server→client bytes whose simulated ready time has arrived.
  [[nodiscard]] std::vector<std::uint8_t> take_output(ConnId conn,
                                                      SimTime now);

  /// The connection's peer is gone: drops its queued output, and any
  /// output that batches admitted before the close emit later, so
  /// drained() converges. Requests already queued are still served and
  /// counted in FrontStats as if delivered.
  void disconnect(ConnId conn);

  [[nodiscard]] const FrontStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return queue_.size();
  }
  [[nodiscard]] const FrontConfig& config() const noexcept { return config_; }

  /// True when nothing is queued, in flight, or waiting to be read —
  /// the post-overload "drained back to steady state" predicate.
  [[nodiscard]] bool drained() const noexcept;

  /// Publishes front.* counters / queue-depth gauge / service-latency
  /// histogram. Observational only; nullptr detaches.
  void attach_metrics(obs::MetricsRegistry* metrics);

 private:
  struct Pending {
    SimTime enqueue_us = 0;
    SimTime deadline_us = 0;  ///< 0 = none
    std::uint64_t seq = 0;    ///< admission order; the EDF tie-break
    ConnId conn = 0;
    Request request;
  };

  struct Output {
    SimTime ready_us = 0;
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> bytes;
  };

  struct TokenBucket {
    std::uint64_t micro_tokens = 0;  ///< tokens × 1e6, integer exact
    SimTime refilled_us = 0;
  };

  static constexpr std::size_t kNotListed = static_cast<std::size_t>(-1);

  struct Conn {
    std::uint64_t client_id = 0;
    FrameDecoder decoder;
    std::vector<Output> outputs;
    bool open = true;  ///< false after disconnect(): output is dropped
    /// Index into with_output_ while `outputs` is non-empty.
    std::size_t listed_at = kNotListed;
  };

  void admit(ConnId conn, Request&& request, SimTime now);
  /// True when the bucket has a token to spend at `now`.
  [[nodiscard]] bool take_token(std::uint64_t client_id, SimTime now);
  void emit_error(ConnId conn, std::uint64_t request_id, ErrorCode code,
                  SimTime ready);
  void push_output(ConnId conn, std::vector<std::uint8_t>&& bytes,
                   SimTime ready);
  /// Lists or unlists `conn` in with_output_ after its outputs changed.
  void track_outputs(ConnId conn);
  /// Close time of the next batch given the queue head; nullopt when
  /// the queue is empty.
  [[nodiscard]] std::optional<SimTime> next_batch_close() const;
  void run_batch(SimTime close, Clock* clock);
  void note_queue_depth();

  const serve::Oracle* oracle_;
  serve::ColumnarStore* store_;
  FrontConfig config_;
  std::vector<Conn> conns_;
  /// Connections with queued outputs, in no particular order: what
  /// next_activity() and drained() walk instead of every Conn ever
  /// connected.
  std::vector<ConnId> with_output_;
  std::vector<Pending> queue_;  ///< arrival order; EDF-selected per batch
  std::vector<std::pair<std::uint64_t, TokenBucket>> buckets_;
  SimTime busy_until_ = 0;
  std::uint64_t seq_ = 0;         ///< admission sequence
  std::uint64_t out_seq_ = 0;     ///< output emission sequence
  FrontStats stats_;

  struct Instruments {
    obs::Counter* requests = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* answered = nullptr;
    obs::Counter* shed_queue_full = nullptr;
    obs::Counter* shed_deadline = nullptr;
    obs::Counter* shed_throttled = nullptr;
    obs::Counter* expired = nullptr;
    obs::Counter* decode_errors = nullptr;
    obs::Counter* stale_refreshes = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::LatencyHistogram* service_ms = nullptr;
  };
  Instruments instruments_{};
};

}  // namespace shears::front
