// Workloads `serve_open` and `serve_ingest`: users querying the latency
// oracle over TCP, from one open-loop generator thread, against a server
// warm-started from a snapshot image.
//
//   serve_open    a `low` and a `high` fixed-rate phase, and in the traced
//                 run a search for the highest rate that meets the SLO. The
//                 store is immutable: transport, session layer and oracle do
//                 the work.
//   serve_ingest  the `low` rate while fresh rows are published through a
//                 DeltaLog on the event-loop thread; the front's stale path
//                 refreshes the store, so refresh stalls land in the tail.
//
// Every latency is timed from when its request was due, so a stall also
// charges the requests queued behind it.
#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>

#include "atlas/campaign.hpp"
#include "bench.hpp"
#include "front/frame.hpp"
#include "front/server.hpp"
#include "front/traffic.hpp"
#include "front/transport/blocking_client.hpp"
#include "front/transport/clock.hpp"
#include "front/transport/socket_server.hpp"
#include "obs/metrics.hpp"
#include "serve/columnar.hpp"
#include "serve/oracle.hpp"
#include "serve/snapshot.hpp"
#include "stats/rng.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace shears;
using front::SimTime;

/// The repo's serving SLO: each request's deadline, and the p99 limit the
/// rate search holds.
constexpr SimTime kDeadlineUs = 5'000;
constexpr double kSloMs = 5.0;
/// Fixed offered rates (requests/s). `low` is well under the knee, where
/// no queue forms. At `high` batches form, yet a host stall of up to 64 ms
/// cannot fill the 1024-deep admission queue and fail requests.
constexpr double kLowQps = 1'000.0;
constexpr double kHighQps = 16'000.0;
constexpr std::size_t kCorpusSize = 4096;
/// serve_ingest publishes this many rows per chunk, in dataset order (the
/// order a campaign's sink delivers them).
constexpr std::size_t kChunkRows = 8192;
/// A fixed-rate phase fails when more than this share of its requests
/// were sent over a millisecond late: the generator could not offer the
/// load it claims. (Host stalls alone left up to 6% late on the 4-vCPU
/// host this was tuned on; a generator that cannot keep up leaves most.)
constexpr double kMaxLateShare = 0.2;
/// Tail percentiles of a fixed-rate phase (and serve_open's mean) are the
/// median over this many equal windows of each window's p99 (or mean):
/// steady against the host's rare multi-millisecond stalls, while a stall
/// that recurs in every window (serve_ingest publishes once per window)
/// still sets the p99. serve_ingest's mean stays over the whole phase,
/// which holds every publish: with the publish period equal to a window,
/// a window holds zero, one or two refresh stalls by alignment alone, and
/// the median of window means flipped between those counts.
constexpr int kWindows = 20;
constexpr SimTime kLateUs = 1'000;

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  return stats::fnv1a64(reinterpret_cast<const char*>(bytes.data()),
                        bytes.size());
}

std::string base_snapshot_path(const RunOptions& o) { return o.dir + "/base.snap"; }
std::string delta_rows_path(const RunOptions& o) { return o.dir + "/delta.bin"; }

// ---------------------------------------------------------------------------
// Set-up: snapshot load with full validation, oracle indexes, listen.

struct Stack {
  std::unique_ptr<serve::ColumnarStore> store;
  std::unique_ptr<serve::Oracle> oracle;
  std::unique_ptr<front::FrontServer> front;
  std::unique_ptr<front::SocketServer> transport;
  std::uint16_t port = 0;

  /// Tears down in dependency order: each layer before what it points at.
  void reset() {
    transport.reset();
    front.reset();
    oracle.reset();
    store.reset();
  }
};

Stack set_up(const std::string& image, const atlas::ProbeFleet& fleet,
             const topology::CloudRegistry& registry,
             front::MonotonicClock& clock) {
  Stack s;
  {
    const auto span = tracer().span("io.snapshot_load");
    s.store = std::make_unique<serve::ColumnarStore>(
        serve::load_snapshot(image, &fleet, &registry));
  }
  {
    const auto span = tracer().span("serve.oracle_init");
    s.oracle = std::make_unique<serve::Oracle>(
        static_cast<const serve::ColumnarStore*>(s.store.get()));
  }
  // The default FrontConfig: per-client token buckets are off
  // (client_rate_qps = 0), since they are a configured cap, not the system.
  s.front = std::make_unique<front::FrontServer>(s.oracle.get(), s.store.get(),
                                                 front::FrontConfig{});
  s.transport = std::make_unique<front::SocketServer>(s.front.get(), &clock);
  {
    const auto span = tracer().span("transport.listen");
    s.port = s.transport->listen();
  }
  return s;
}

// ---------------------------------------------------------------------------
// Ingest: fixed-size chunks on a fixed schedule, published by the thread
// that owns the event loop (refresh is not safe against a concurrent
// answer()).

class Ingest {
 public:
  Ingest(serve::ColumnarStore* store, const std::string& log_path,
         std::vector<atlas::Measurement> rows, SimTime period_us)
      : store_(store),
        log_(store, log_path),
        rows_(std::move(rows)),
        period_us_(period_us) {}

  /// Generator thread: publish from `from` on, the last chunk at least
  /// half a period before `until`, so the stale path has requests left to
  /// refresh it.
  void open_window(SimTime from, SimTime until) {
    until_.store(until, std::memory_order_relaxed);
    from_.store(from, std::memory_order_release);
  }

  /// Event-loop thread, after every poll: publish when due, and close out
  /// the publishes the store has become fresh for. Returns how long the
  /// loop may wait for the next due publish.
  SimTime step(front::MonotonicClock& clock) {
    const SimTime from = from_.load(std::memory_order_acquire);
    const SimTime until = until_.load(std::memory_order_relaxed);
    SimTime now = clock.now();
    if (store_->fresh()) {
      const std::lock_guard lock(mutex_);
      for (const SimTime start : pending_) {
        freshness_ms_.push_back(static_cast<double>(now - start) / 1e3);
      }
      pending_.clear();
    }
    if (from == 0 || now >= until) return 100'000;
    if (now < from) return from - now;
    if (next_due_ < from) next_due_ = from;
    if (next_due_ + period_us_ / 2 > until ||
        next_row_ + kChunkRows > rows_.size()) {
      return 100'000;
    }
    if (now >= next_due_) {
      const SimTime start = clock.now();
      {
        const auto span = tracer().span("io.deltalog_publish");
        log_.publish(std::span<const atlas::Measurement>(
            rows_.data() + next_row_, kChunkRows));
      }
      now = clock.now();
      next_row_ += kChunkRows;
      next_due_ += period_us_;
      const std::lock_guard lock(mutex_);
      pending_.push_back(start);
    }
    return next_due_ > now ? next_due_ - now : 0;
  }

  /// Thread-safe copies of what has been measured so far.
  [[nodiscard]] std::vector<double> freshness_ms() const {
    const std::lock_guard lock(mutex_);
    return freshness_ms_;
  }
  /// Waits until every publish so far is visible (fresh), up to
  /// `timeout_s`; false on timeout.
  bool settle(double timeout_s) const {
    const auto start = WallClock::now();
    while (seconds_between(start, WallClock::now()) < timeout_s) {
      {
        const std::lock_guard lock(mutex_);
        if (pending_.empty()) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }
  [[nodiscard]] const std::string& log_path() const { return log_.path(); }

 private:
  serve::ColumnarStore* store_;
  serve::DeltaLog log_;
  std::vector<atlas::Measurement> rows_;
  SimTime period_us_;
  std::atomic<SimTime> from_{0};
  std::atomic<SimTime> until_{0};
  // Event-loop thread only.
  std::size_t next_row_ = 0;
  SimTime next_due_ = 0;
  mutable std::mutex mutex_;
  std::vector<SimTime> pending_;      ///< guarded by mutex_; not yet fresh
  std::vector<double> freshness_ms_;  ///< guarded by mutex_
};

// ---------------------------------------------------------------------------
// The event loop the benchmark owns: SocketServer::poll() in a loop, plus
// the ingest schedule.

class EventLoop {
 public:
  EventLoop(Stack& stack, front::MonotonicClock& clock, Ingest* ingest)
      : stack_(stack), clock_(clock), ingest_(ingest) {}
  ~EventLoop() { stop(); }
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  void start() {
    stop_.store(false);
    thread_ = std::thread([this] { run(); });
  }

  /// Stops the loop and joins it; the loop's error, if any, is kept.
  void stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    stack_.transport->request_stop();
    thread_.join();
  }

  /// Asks the server to drain and waits until every connection is closed
  /// and nothing is queued or buffered; false when that takes longer than
  /// `timeout_s`.
  bool drain(double timeout_s) {
    draining_.store(true);
    stack_.transport->request_drain();
    const auto start = WallClock::now();
    while (!drained_.load()) {
      if (seconds_between(start, WallClock::now()) > timeout_s) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  [[nodiscard]] std::uint64_t polls() const { return polls_.load(); }

  /// CPU time the running loop thread has used so far, in seconds.
  [[nodiscard]] double cpu_seconds() {
    clockid_t id;
    timespec ts{};
    if (pthread_getcpuclockid(thread_.native_handle(), &id) != 0 ||
        clock_gettime(id, &ts) != 0) {
      throw std::runtime_error("cannot read the event loop's CPU clock");
    }
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
  }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void run() {
    try {
      while (!stop_.load()) {
        SimTime wait = 100'000;
        if (ingest_ != nullptr) wait = std::min(wait, ingest_->step(clock_));
        {
          const auto span = tracer().span("transport.poll");
          (void)stack_.transport->poll(wait);
        }
        polls_.fetch_add(1, std::memory_order_relaxed);
        if (draining_.load() && stack_.transport->connection_count() == 0 &&
            stack_.transport->drained()) {
          drained_.store(true);
        }
      }
    } catch (const std::exception& e) {
      error_ = e.what();  // read only after join
    }
  }

  Stack& stack_;
  front::MonotonicClock& clock_;
  Ingest* ingest_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::atomic<std::uint64_t> polls_{0};
  std::string error_;
  std::thread thread_;  ///< last: joins before the members it uses go
};

// ---------------------------------------------------------------------------
// Open-loop generator: Poisson arrivals from one thread over a fixed set
// of connections. Requests are encoded before a phase starts, so the
// timed path only sends and receives.

enum class Outcome : std::uint8_t {
  kPending,
  kOk,
  kRefused,   ///< kOverloaded / kThrottled
  kExpired,   ///< kDeadlineExceeded
  kStale,
  kBadRequest,
  kTimedOut,  ///< no answer before the phase's grace period ended
};

struct Phase {
  std::uint64_t id_base = 0;
  std::vector<SimTime> due;  ///< absolute, on the shared clock
  std::vector<std::uint32_t> corpus_index;
  std::vector<double> latency_ms;  ///< kFailed unless kOk
  std::vector<double> lag_ms;      ///< send time - due time
  std::vector<std::uint64_t> response_hash;
  std::vector<Outcome> outcome;
  std::uint64_t protocol_errors = 0;  ///< unknown or repeated request ids

  [[nodiscard]] std::size_t size() const { return due.size(); }
  [[nodiscard]] std::uint64_t failed() const {
    return static_cast<std::uint64_t>(
        std::count_if(outcome.begin(), outcome.end(),
                      [](Outcome o) { return o != Outcome::kOk; }));
  }
  [[nodiscard]] double error_frac() const {
    return size() == 0 ? 0.0
                       : static_cast<double>(failed()) /
                             static_cast<double>(size());
  }
  [[nodiscard]] double late_share() const {
    const auto late = std::count_if(lag_ms.begin(), lag_ms.end(), [](double l) {
      return l > static_cast<double>(kLateUs) / 1e3;
    });
    return size() == 0 ? 0.0
                       : static_cast<double>(late) /
                             static_cast<double>(size());
  }
};

class Generator {
 public:
  Generator(std::uint16_t port, std::size_t connections,
            front::MonotonicClock& clock,
            const std::vector<serve::Query>& corpus, std::uint64_t seed)
      : clock_(clock), corpus_(corpus), rng_(seed) {
    conns_.resize(connections);
    for (Conn& c : conns_) {
      c.socket.connect(port);
      const int flags = ::fcntl(c.socket.fd(), F_GETFL, 0);
      if (flags < 0 ||
          ::fcntl(c.socket.fd(), F_SETFL, flags | O_NONBLOCK) < 0) {
        throw front::TransportError("generator: fcntl(O_NONBLOCK) failed");
      }
    }
  }

  [[nodiscard]] std::size_t connections() const { return conns_.size(); }

  /// Offers `rate_qps` for `seconds`, then waits up to `grace_s` for the
  /// last answers. `deadline` stamps each request with the SLO deadline.
  Phase run(double rate_qps, double seconds, bool deadline,
            Ingest* ingest = nullptr, double grace_s = 2.0) {
    Phase p;
    p.id_base = ++phase_count_ << 32;
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng_.next_double()) / rate_qps;
      if (t >= seconds) break;
      p.due.push_back(static_cast<SimTime>(t * 1e6));
    }
    if (p.due.empty()) p.due.push_back(0);
    const std::size_t n = p.size();
    // Encoding takes about a microsecond a request; start once it is done.
    const SimTime start = clock_.now() + 20'000 + 5 * n;
    std::vector<std::uint8_t> arena;
    std::vector<std::size_t> offset{0};
    for (std::size_t i = 0; i < n; ++i) {
      p.due[i] += start;
      const auto ci = static_cast<std::uint32_t>(rng_.bounded(corpus_.size()));
      p.corpus_index.push_back(ci);
      const serve::Query& q = corpus_[ci];
      front::Request req;
      req.request_id = p.id_base + i;
      req.client_id = i % conns_.size();
      req.deadline_us = deadline ? p.due[i] + kDeadlineUs : 0;
      req.kind = q.kind;
      req.lat_deg = q.where.lat_deg;
      req.lon_deg = q.where.lon_deg;
      req.country_iso2 = std::string(q.country_iso2);
      req.access = q.access;
      req.any_access = q.any_access;
      req.app_id = std::string(q.app_id);
      req.budget_ms = q.budget_ms;
      req.k = q.k;
      front::append_request_frame(arena, req);
      offset.push_back(arena.size());
    }
    p.latency_ms.assign(n, kFailed);
    p.lag_ms.assign(n, 0.0);
    p.response_hash.assign(n, 0);
    p.outcome.assign(n, Outcome::kPending);
    if (ingest != nullptr) {
      ingest->open_window(start, start + static_cast<SimTime>(seconds * 1e6));
    }

    std::vector<pollfd> fds(conns_.size());
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      fds[c].fd = conns_[c].socket.fd();
    }
    const SimTime grace_end =
        p.due.back() + static_cast<SimTime>(grace_s * 1e6);
    std::size_t next = 0;
    std::size_t resolved = 0;
    std::vector<std::uint8_t> buf(64 * 1024);
    while (resolved < n) {
      SimTime now = clock_.now();
      if (next < n && p.due[next] <= now) {
        while (next < n && p.due[next] <= now) {
          Conn& c = conns_[next % conns_.size()];
          c.outbox.insert(c.outbox.end(), arena.begin() + offset[next],
                          arena.begin() + offset[next + 1]);
          p.lag_ms[next] = static_cast<double>(now - p.due[next]) / 1e3;
          ++next;
        }
        for (Conn& c : conns_) {
          if (!c.outbox.empty()) flush(c);
        }
        now = clock_.now();
      }
      if (next == n && now >= grace_end) break;
      const SimTime until = next < n ? p.due[next] : grace_end;
      const SimTime wait = until > now ? until - now : 0;
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        fds[c].events = static_cast<short>(
            POLLIN | (conns_[c].outbox.empty() ? 0 : POLLOUT));
        fds[c].revents = 0;
      }
      const timespec ts{static_cast<time_t>(wait / 1'000'000),
                        static_cast<long>((wait % 1'000'000) * 1'000)};
      const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (ready < 0 && errno != EINTR) {
        throw front::TransportError(std::string("generator: ppoll: ") +
                                    std::strerror(errno));
      }
      for (std::size_t c = 0; c < conns_.size() && ready > 0; ++c) {
        if ((fds[c].revents & POLLOUT) != 0) flush(conns_[c]);
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        resolved += receive(conns_[c], buf, p);
      }
    }
    for (Outcome& o : p.outcome) {
      if (o == Outcome::kPending) o = Outcome::kTimedOut;
    }
    return p;
  }

 private:
  struct Conn {
    front::BlockingClient socket;
    std::vector<std::uint8_t> outbox;
    front::FrameDecoder decoder;
  };

  void flush(Conn& c) {
    std::size_t sent = 0;
    while (sent < c.outbox.size()) {
      const ssize_t k = ::send(c.socket.fd(), c.outbox.data() + sent,
                               c.outbox.size() - sent, MSG_NOSIGNAL);
      if (k > 0) {
        sent += static_cast<std::size_t>(k);
        continue;
      }
      if (k < 0 && errno == EINTR) continue;
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      throw front::TransportError(std::string("generator: send: ") +
                                  std::strerror(errno));
    }
    c.outbox.erase(c.outbox.begin(),
                   c.outbox.begin() + static_cast<std::ptrdiff_t>(sent));
  }

  /// Reads what the socket holds and resolves the answered requests;
  /// returns how many were resolved.
  std::size_t receive(Conn& c, std::vector<std::uint8_t>& buf, Phase& p) {
    while (true) {
      const ssize_t k = ::recv(c.socket.fd(), buf.data(), buf.size(), 0);
      if (k > 0) {
        c.decoder.feed(std::span<const std::uint8_t>(
            buf.data(), static_cast<std::size_t>(k)));
        continue;
      }
      if (k < 0 && errno == EINTR) continue;
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      throw front::TransportError("generator: server closed a connection");
    }
    const SimTime now = clock_.now();
    std::size_t resolved = 0;
    while (true) {
      front::FrameDecoder::Item item = c.decoder.next();
      if (item.status == front::DecodeStatus::kNeedMore) break;
      std::uint64_t id = 0;
      Outcome outcome = Outcome::kPending;
      std::uint64_t hash = 0;
      if (item.status == front::DecodeStatus::kFrame &&
          item.type == front::FrameType::kResponse) {
        front::Response res;
        if (front::decode_response(item.payload, res)) {
          id = res.request_id;
          outcome = Outcome::kOk;
          hash = fnv1a(item.payload);
        }
      } else if (item.status == front::DecodeStatus::kFrame &&
                 item.type == front::FrameType::kError) {
        front::Error err;
        if (front::decode_error(item.payload, err)) {
          id = err.request_id;
          switch (err.code) {
            case front::ErrorCode::kOverloaded:
            case front::ErrorCode::kThrottled:
              outcome = Outcome::kRefused;
              break;
            case front::ErrorCode::kDeadlineExceeded:
              outcome = Outcome::kExpired;
              break;
            case front::ErrorCode::kStale:
              outcome = Outcome::kStale;
              break;
            case front::ErrorCode::kBadRequest:
              outcome = Outcome::kBadRequest;
              break;
          }
        }
      }
      const std::uint64_t index = id - p.id_base;
      if (outcome == Outcome::kPending || id < p.id_base || index >= p.size() ||
          p.outcome[index] != Outcome::kPending) {
        p.protocol_errors += 1;
        continue;
      }
      p.outcome[index] = outcome;
      p.response_hash[index] = hash;
      if (outcome == Outcome::kOk) {
        p.latency_ms[index] = static_cast<double>(now - p.due[index]) / 1e3;
      }
      resolved += 1;
    }
    return resolved;
  }

  front::MonotonicClock& clock_;
  const std::vector<serve::Query>& corpus_;
  stats::Xoshiro256 rng_;
  std::uint64_t phase_count_ = 0;
  std::vector<Conn> conns_;
};

/// One stderr line per phase, for reading a run by hand.
void log_phase(const char* name, double rate_qps, const Phase& p) {
  std::size_t counts[7] = {};  // indexed by Outcome
  for (const Outcome o : p.outcome) counts[static_cast<int>(o)] += 1;
  std::fprintf(stderr,
               "phase %-6s %8.0f qps: %zu sent, %zu ok, %zu refused, %zu "
               "expired, %zu stale, %zu timed out; p50 %.3f ms, p99 %.3f ms, "
               "lag p99 %.3f ms, %.2f%% late\n",
               name, rate_qps, p.size(), counts[1], counts[2], counts[3],
               counts[4], counts[6], percentile(p.latency_ms, 0.5),
               percentile(p.latency_ms, 0.99), percentile(p.lag_ms, 0.99),
               100.0 * p.late_share());
}

/// Mean over completed requests (failures are counted apart).
double mean_finite(const std::vector<double>& v) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const double x : v) {
    if (std::isfinite(x)) {
      sum += x;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/// `stat` of the latencies (failures included) of each of `windows` equal
/// windows of a phase, by due time.
template <class Stat>
std::vector<double> per_window(const Phase& p, int windows, Stat stat) {
  const SimTime first = p.due.front();
  const SimTime span = p.due.back() - first + 1;
  std::vector<std::vector<double>> by_window(static_cast<std::size_t>(windows));
  for (std::size_t i = 0; i < p.size(); ++i) {
    const auto w = static_cast<std::size_t>((p.due[i] - first) *
                                            static_cast<SimTime>(windows) / span);
    by_window[w].push_back(p.latency_ms[i]);
  }
  std::vector<double> values;
  for (const std::vector<double>& w : by_window) {
    if (!w.empty()) values.push_back(stat(w));
  }
  return values;
}

std::vector<double> window_p99s(const Phase& p, int windows) {
  return per_window(p, windows, [](const std::vector<double>& w) {
    return percentile(w, 0.99);
  });
}

/// Tail latency of a fixed-rate phase: the median over kWindows equal
/// windows of each window's p99.
double windowed_p99(const Phase& p) { return median(window_p99s(p, kWindows)); }

/// Mean latency of a fixed-rate phase: the median over kWindows equal
/// windows of each window's mean over completed requests.
double windowed_mean(const Phase& p) {
  return median(per_window(p, kWindows, mean_finite));
}

/// The SLO judgment of one offered rate, over ten windows of the probe:
/// in each half, the median window meets p99 <= 5 ms with failures counted
/// as misses (so a window with over 1% failures misses). The second half
/// catches a growing backlog; the medians keep one host stall from
/// failing a rate the system sustains.
bool meets_slo(const Phase& p) {
  const std::vector<double> p99s = window_p99s(p, 10);
  const auto half = static_cast<std::ptrdiff_t>(p99s.size() / 2);
  return median({p99s.begin(), p99s.begin() + half}) <= kSloMs &&
         median({p99s.begin() + half, p99s.end()}) <= kSloMs;
}

/// Highest offered rate meeting the SLO: doubling from `start_qps` until a
/// rate fails, then geometric bisection.
double search_qps_at_slo(Generator& gen, double start_qps, double probe_s,
                         int bisections, std::vector<Phase>& probes) {
  // A rate fails only when two probes in a row miss.
  const auto passes = [&](double rate) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      probes.push_back(gen.run(rate, probe_s, true));
      log_phase("search", rate, probes.back());
      if (meets_slo(probes.back())) return true;
    }
    return false;
  };
  double pass = 0.0;
  double fail = 0.0;
  for (double rate = start_qps; rate <= 1e7; rate *= 2.0) {
    if (!passes(rate)) {
      fail = rate;
      break;
    }
    pass = rate;
  }
  if (pass == 0.0 || fail == 0.0) return pass;
  for (int i = 0; i < bisections; ++i) {
    const double rate = std::sqrt(pass * fail);
    (passes(rate) ? pass : fail) = rate;
  }
  return pass;
}

struct Body {
  std::vector<Phase> low, high, ingest, search;
  double rss_mb = 0.0;  ///< peak RSS through set-up and the fixed-rate phases
  double high_loop_cpu_s = 0.0;  ///< event-loop CPU time over the high phase
  std::vector<double> freshness_ms;
  double qps_at_slo = 0.0;
  front::FrontStats front;
  front::TransportStats transport;
  std::uint64_t polls = 0;
};

front::FrontStats minus(front::FrontStats a, const front::FrontStats& b) {
  a.frames_in -= b.frames_in;
  a.decode_errors -= b.decode_errors;
  a.bad_requests -= b.bad_requests;
  a.requests -= b.requests;
  a.admitted -= b.admitted;
  a.answered -= b.answered;
  a.shed_queue_full -= b.shed_queue_full;
  a.shed_deadline -= b.shed_deadline;
  a.shed_throttled -= b.shed_throttled;
  a.expired_in_queue -= b.expired_in_queue;
  a.expired_served -= b.expired_served;
  a.stale_refreshes -= b.stale_refreshes;
  a.batches -= b.batches;
  return a;  // max_queue_depth stays the high-water mark so far
}

front::TransportStats minus(front::TransportStats a,
                            const front::TransportStats& b) {
  a.bytes_in -= b.bytes_in;
  a.bytes_out -= b.bytes_out;
  a.partial_writes -= b.partial_writes;
  return a;
}

}  // namespace

void prepare_serving(const RunOptions& o) {
  const atlas::ProbeFleet fleet = atlas::ProbeFleet::generate({});
  const topology::CloudRegistry registry =
      topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  atlas::CampaignConfig config;
  config.duration_days = o.days;
  config.seed = o.seed;
  {
    const atlas::MeasurementDataset dataset =
        atlas::Campaign(fleet, registry, model, config).run();
    serve::save_snapshot(serve::ColumnarStore::build(dataset),
                         base_snapshot_path(o));
  }
  // The rows serve_ingest publishes: a second, shorter campaign at another
  // seed, kept in dataset order.
  config.seed = o.seed ^ 0x5eed'1e55ull;
  config.duration_days = 30;
  const atlas::MeasurementDataset fresh =
      atlas::Campaign(fleet, registry, model, config).run();
  std::ofstream out(delta_rows_path(o), std::ios::binary);
  out.write(reinterpret_cast<const char*>(fresh.records().data()),
            static_cast<std::streamsize>(fresh.size() *
                                         sizeof(atlas::Measurement)));
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + delta_rows_path(o));
}

RunResult run_serve(const RunOptions& o) {
  const bool ingesting = o.workload == "serve_ingest";
  RunResult result;
  if (!front::sockets_available()) {
    throw front::TransportError("loopback sockets are unavailable");
  }
  const atlas::ProbeFleet fleet = atlas::ProbeFleet::generate({});
  const topology::CloudRegistry registry =
      topology::CloudRegistry::campaign_footprint();
  const std::vector<serve::Query> corpus =
      front::make_corpus(fleet, kCorpusSize);
  front::MonotonicClock clock;

  std::vector<atlas::Measurement> delta;
  if (ingesting) {
    std::ifstream in(delta_rows_path(o), std::ios::binary | std::ios::ate);
    const auto bytes = static_cast<std::size_t>(in.tellg());
    delta.resize(bytes / sizeof(atlas::Measurement));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(delta.data()),
            static_cast<std::streamsize>(bytes));
    if (!in) throw std::runtime_error("cannot read " + delta_rows_path(o));
  }

  // Set-up, several times; the last stack serves.
  tracer().enable(o.trace);
  std::vector<double> setup_s;
  Stack stack;
  for (int i = 0; i < 7; ++i) {
    stack.reset();
    const auto start = WallClock::now();
    stack = set_up(base_snapshot_path(o), fleet, registry, clock);
    setup_s.push_back(seconds_between(start, WallClock::now()));
  }
  tracer().enable(false);

  // One ingest phase (per body) of the run's length publishes a chunk
  // every twentieth of it (every second in a 20 s run), one per p99
  // window. Publishing more often made the mean, which grows with the
  // square of each stall, swing with every refresh the host stretched.
  const double phase_s = o.seconds;
  const auto period_us = static_cast<SimTime>(phase_s / kWindows * 1e6);
  std::optional<Ingest> ingest;
  if (ingesting) {
    ingest.emplace(stack.store.get(), o.dir + "/delta.log", std::move(delta),
                   period_us);
  }

  const std::size_t connections = std::min<std::size_t>(
      8, std::max(1u, std::thread::hardware_concurrency()));
  EventLoop loop(stack, clock, ingest ? &*ingest : nullptr);
  loop.start();
  stats::Xoshiro256 seeds(o.seed);
  std::optional<Generator> gen;
  gen.emplace(stack.port, connections, clock, corpus, seeds.next());

  // Warm-up, unmeasured: first connections, buffers and page faults, and
  // the memory the discarded set-ups returned.
  (void)gen->run(kHighQps, std::min(2.0, 0.1 * phase_s), false);

  // The session and transport counters belong to the loop thread: read
  // them with the loop paused.
  const auto counters = [&]() {
    loop.stop();
    const auto c = std::make_tuple(stack.front->stats(),
                                   stack.transport->stats(), loop.polls());
    loop.start();
    return c;
  };

  const auto run_body = [&]() {
    Body b;
    const auto [f0, t0, p0] = counters();
    if (ingesting) {
      const std::size_t before = ingest->freshness_ms().size();
      b.ingest.push_back(gen->run(kLowQps, phase_s, false, &*ingest));
      log_phase("ingest", kLowQps, b.ingest.back());
      if (!ingest->settle(10.0)) {
        throw std::runtime_error("published rows never became visible");
      }
      const std::vector<double> fresh = ingest->freshness_ms();
      b.freshness_ms.assign(
          fresh.begin() + static_cast<std::ptrdiff_t>(before), fresh.end());
    } else {
      // low and high share the run; the rate search runs only when traced,
      // since it feeds no end-to-end metric.
      b.low.push_back(gen->run(kLowQps, 0.5 * phase_s, false));
      log_phase("low", kLowQps, b.low.back());
      const double cpu0 = loop.cpu_seconds();
      b.high.push_back(gen->run(kHighQps, 0.5 * phase_s, false));
      b.high_loop_cpu_s = loop.cpu_seconds() - cpu0;
      log_phase("high", kHighQps, b.high.back());
      b.rss_mb = peak_rss_mb();  // the search's generator arrays excluded
      if (tracer().enabled()) {
        b.qps_at_slo = search_qps_at_slo(*gen, kHighQps, phase_s / 20.0, 5,
                                         b.search);
      }
    }
    const auto [f1, t1, p1] = counters();
    b.front = minus(f1, f0);
    b.transport = minus(t1, t0);
    b.polls = p1 - p0;
    return b;
  };

  // The traced run first measures the same body untraced; the difference
  // is the tracing overhead. Layer registries are attached only while
  // tracing, with the loop stopped.
  std::optional<Body> untraced;
  if (o.trace) untraced = run_body();
  obs::MetricsRegistry registry_metrics;
  if (o.trace) {
    loop.stop();
    stack.oracle->attach_metrics(&registry_metrics);
    stack.front->attach_metrics(&registry_metrics);
    stack.store->attach_metrics(&registry_metrics);
    tracer().enable(true);
    loop.start();
  }
  Body body = run_body();
  if (ingesting) body.rss_mb = peak_rss_mb();  // before the checks allocate
  gen.reset();  // closes the client connections
  const bool drained = loop.drain(10.0);
  loop.stop();
  tracer().enable(false);
  if (!loop.error().empty()) {
    result.problems.push_back("event loop failed: " + loop.error());
  }
  if (!drained) result.problems.push_back("the server did not drain");

  // Validity and output checks, off the timed path.
  std::vector<const Phase*> fixed;
  std::vector<const Phase*> all;
  for (const Body* b : std::array<const Body*, 2>{
           &body, untraced ? &*untraced : nullptr}) {
    if (b == nullptr) continue;
    for (const auto* group : {&b->low, &b->high, &b->ingest}) {
      for (const Phase& p : *group) fixed.push_back(&p);
    }
    for (const auto* group : {&b->low, &b->high, &b->ingest, &b->search}) {
      for (const Phase& p : *group) all.push_back(&p);
    }
  }
  for (const Phase* p : fixed) {
    result.attempted += p->size();
    result.failed += p->failed();
    if (p->late_share() > kMaxLateShare) {
      result.problems.push_back("generator behind schedule: " +
                                std::to_string(100.0 * p->late_share()) +
                                "% of a phase's requests sent >1 ms late");
    }
  }
  std::uint64_t sent = 0, completed = 0, protocol_errors = 0;
  for (const Phase* p : all) {
    sent += p->size();
    completed += p->size() - p->failed();
    protocol_errors += p->protocol_errors;
  }
  if (protocol_errors != 0) {
    result.problems.push_back(std::to_string(protocol_errors) +
                              " responses matched no outstanding request");
  }
  if (!ingesting) {
    // Every answer equals the in-process answer to the same query.
    std::vector<std::optional<serve::Answer>> answers(corpus.size());
    std::uint64_t mismatched = 0;
    for (const Phase* p : all) {
      for (std::size_t i = 0; i < p->size(); ++i) {
        if (p->outcome[i] != Outcome::kOk) continue;
        auto& answer = answers[p->corpus_index[i]];
        if (!answer) answer = stack.oracle->answer_one(corpus[p->corpus_index[i]]);
        std::vector<std::uint8_t> frame;
        front::append_response_frame(
            frame, front::make_response(p->id_base + i, *answer, registry));
        const std::span<const std::uint8_t> payload(
            frame.data() + front::kFrameHeaderBytes,
            frame.size() - front::kFrameHeaderBytes);
        if (fnv1a(payload) != p->response_hash[i]) ++mismatched;
      }
    }
    if (mismatched != 0) {
      result.problems.push_back(std::to_string(mismatched) +
                                " responses differ from the in-process answer");
    }
  } else {
    // Base snapshot + delta log replay reproduce the live store's bytes.
    stack.store->refresh();
    std::ostringstream live;
    serve::save_snapshot(*stack.store, live);
    serve::ColumnarStore replayed =
        serve::load_snapshot(base_snapshot_path(o), &fleet, &registry);
    (void)serve::apply_delta_log(replayed, ingest->log_path());
    replayed.refresh();
    std::ostringstream again;
    serve::save_snapshot(replayed, again);
    if (again.str() != live.str()) {
      result.problems.push_back(
          "base snapshot + delta log does not reproduce the live store");
    }
  }

  Metrics& m = result.metrics;
  m["setup_s"] = {median(setup_s), "s"};
  m["peak_rss_mb"] = {body.rss_mb, "MB"};
  if (ingesting) {
    const std::vector<double>& freshness = body.freshness_ms;
    m["p50_ms"] = {percentile(body.ingest.front().latency_ms, 0.5), "ms"};
    m["mean_ms"] = {mean_finite(body.ingest.front().latency_ms), "ms"};
    m["p99_ms"] = {windowed_p99(body.ingest.front()), "ms"};
    m["freshness_ms"] = {median(freshness), "ms"};
    m["error_frac"] = {body.ingest.front().error_frac(), "ratio"};
  } else {
    const Phase& low = body.low.front();
    const Phase& high = body.high.front();
    m["low.p50_ms"] = {percentile(low.latency_ms, 0.5), "ms"};
    m["low.p99_ms"] = {windowed_p99(low), "ms"};
    m["high.p50_ms"] = {percentile(high.latency_ms, 0.5), "ms"};
    m["high.p99_ms"] = {windowed_p99(high), "ms"};
    m["p50_ms"] = m["low.p50_ms"];
    m["mean_ms"] = {windowed_mean(low), "ms"};
    m["p99_ms"] = m["low.p99_ms"];
    m["qps_at_slo"] = {body.qps_at_slo, "1/s"};
    m["transport.loop_cpu_us_per_req"] = {
        1e6 * body.high_loop_cpu_s / static_cast<double>(high.size()), "us"};
    const double n = static_cast<double>(body.low.front().size() +
                                         body.high.front().size());
    m["error_frac"] = {
        static_cast<double>(body.low.front().failed() +
                            body.high.front().failed()) / n,
        "ratio"};
  }
  if (!o.trace) return result;

  // Per-layer metrics of the traced body.
  Tracer& t = tracer();
  const obs::Snapshot snap = registry_metrics.snapshot();
  const auto hist = [&snap](const char* name) {
    const obs::MetricSample* s = snap.find(name);
    return s != nullptr ? *s : obs::MetricSample{};
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const front::FrontStats& fs = body.front;
  const double requests = static_cast<double>(fs.requests);
  m["io.snapshot_load_s"] = {median(t.durations_ms("io.snapshot_load")) / 1e3, "s"};
  m["serve.oracle_init_s"] = {median(t.durations_ms("serve.oracle_init")) / 1e3, "s"};
  m["serve.oracle_batch_ms.p50"] = {hist("serve.batch_ms").p50_ms, "ms"};
  m["serve.oracle_batch_ms.p99"] = {hist("serve.batch_ms").p99_ms, "ms"};
  const double queries = static_cast<double>(snap.counter("serve.queries"));
  m["serve.oracle_batch_size"] = {
      ratio(queries, static_cast<double>(snap.counter("serve.batches"))), "count"};
  m["serve.oracle_ok_frac"] = {
      ratio(static_cast<double>(snap.counter("serve.answers_ok")), queries), "ratio"};
  m["front.service_ms.p50"] = {hist("front.service_ms").p50_ms, "ms"};
  m["front.service_ms.p99"] = {hist("front.service_ms").p99_ms, "ms"};
  m["front.batches"] = {static_cast<double>(fs.batches), "count"};
  const double served = static_cast<double>(fs.answered + fs.expired_served);
  const double batch_size = ratio(served, static_cast<double>(fs.batches));
  m["front.batch_size"] = {batch_size, "count"};
  m["front.shed_frac"] = {
      ratio(static_cast<double>(fs.shed_queue_full + fs.shed_deadline +
                                fs.shed_throttled),
            requests),
      "ratio"};
  m["front.expired_frac"] = {
      ratio(static_cast<double>(fs.expired_in_queue + fs.expired_served),
            requests),
      "ratio"};
  m["front.max_queue_depth"] = {static_cast<double>(fs.max_queue_depth), "count"};
  const front::FrontConfig& fc = stack.front->config();
  // Modelled, not measured: the service-time model's hold per batch.
  m["front.modelled_hold_ms"] = {
      (static_cast<double>(fc.batch_overhead_us) +
       batch_size * static_cast<double>(fc.per_query_us)) / 1e3,
      "ms"};
  m["front.stale_refreshes"] = {static_cast<double>(fs.stale_refreshes), "count"};
  std::vector<double> poll_ms = t.durations_ms("transport.poll");
  m["transport.poll_us.p50"] = {1e3 * percentile(poll_ms, 0.5), "us"};
  m["transport.poll_us.p99"] = {1e3 * percentile(poll_ms, 0.99), "us"};
  m["transport.polls_per_req"] = {ratio(static_cast<double>(body.polls), requests),
                                  "count"};
  m["transport.bytes_out_per_req"] = {
      ratio(static_cast<double>(body.transport.bytes_out), requests), "B"};
  m["transport.partial_writes"] = {
      static_cast<double>(body.transport.partial_writes), "count"};
  std::vector<double> lag;
  for (const auto* group : {&body.low, &body.high, &body.ingest}) {
    for (const Phase& p : *group) lag.insert(lag.end(), p.lag_ms.begin(), p.lag_ms.end());
  }
  m["gen.lag_ms.p99"] = {percentile(lag, 0.99), "ms"};
  m["gen.sent"] = {static_cast<double>(sent), "count"};
  m["gen.completed"] = {static_cast<double>(completed), "count"};
  m["gen.failed"] = {static_cast<double>(sent - completed), "count"};
  m["gen.threads"] = {1.0, "count"};
  m["gen.connections"] = {static_cast<double>(connections), "count"};
  const Phase& untraced_main =
      (ingesting ? untraced->ingest : untraced->low).front();
  m["trace.overhead_pct"] = {
      100.0 * (m["mean_ms"].value /
                   (ingesting ? mean_finite(untraced_main.latency_ms)
                              : windowed_mean(untraced_main)) - 1.0),
      "%"};
  if (ingesting) {
    const obs::MetricSample refresh = hist("serve.store.refresh_ms");
    m["serve.store_refresh_ms.p50"] = {refresh.p50_ms, "ms"};
    m["serve.store_refresh_ms.max"] = {refresh.max_ms, "ms"};
    m["serve.store_refreshed_shards"] = {
        static_cast<double>(snap.counter("serve.store.refreshed_shards")), "count"};
    const std::vector<double> publish = t.durations_ms("io.deltalog_publish");
    m["io.deltalog_publish_ms.p50"] = {percentile(publish, 0.5), "ms"};
    m["io.deltalog_publish_ms.max"] = {
        publish.empty() ? 0.0 : *std::max_element(publish.begin(), publish.end()),
        "ms"};
  }
  return result;
}

}  // namespace perfbench
