#include "front/server.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "front/transport/clock.hpp"
#include "obs/metrics.hpp"

namespace shears::front {

namespace {

constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();

/// Effective deadline key: 0 (none) sorts last.
constexpr SimTime deadline_key(SimTime deadline_us) noexcept {
  return deadline_us == 0 ? kNoDeadline : deadline_us;
}

constexpr std::uint64_t kMicro = 1'000'000;

}  // namespace

void FrontConfig::validate() const {
  if (queue_capacity == 0) {
    throw std::invalid_argument("FrontConfig: queue_capacity must be > 0");
  }
  if (max_batch == 0) {
    throw std::invalid_argument("FrontConfig: max_batch must be > 0");
  }
  if (per_query_us == 0) {
    throw std::invalid_argument("FrontConfig: per_query_us must be > 0");
  }
}

FrontServer::FrontServer(const serve::Oracle* oracle,
                         serve::ColumnarStore* store, FrontConfig config)
    : oracle_(oracle), store_(store), config_(config) {
  config_.validate();
}

ConnId FrontServer::connect(std::uint64_t client_id) {
  conns_.push_back(Conn{client_id, {}, {}});
  return static_cast<ConnId>(conns_.size() - 1);
}

bool FrontServer::take_token(std::uint64_t client_id, SimTime now) {
  if (config_.client_rate_qps == 0) return true;
  auto it = std::find_if(
      buckets_.begin(), buckets_.end(),
      [client_id](const auto& b) { return b.first == client_id; });
  if (it == buckets_.end()) {
    buckets_.emplace_back(
        client_id,
        TokenBucket{std::uint64_t{config_.client_burst} * kMicro, now});
    it = buckets_.end() - 1;
  }
  TokenBucket& bucket = it->second;
  // Integer refill: elapsed_us × rate = tokens × 1e6 exactly.
  const std::uint64_t cap = std::uint64_t{config_.client_burst} * kMicro;
  bucket.micro_tokens = std::min(
      cap, bucket.micro_tokens + (now - bucket.refilled_us) *
                                     config_.client_rate_qps);
  bucket.refilled_us = now;
  if (bucket.micro_tokens < kMicro) return false;
  bucket.micro_tokens -= kMicro;
  return true;
}

void FrontServer::push_output(ConnId conn, std::vector<std::uint8_t>&& bytes,
                              SimTime ready) {
  Conn& c = conns_[conn];
  if (!c.open) return;
  c.outputs.push_back(Output{ready, out_seq_++, std::move(bytes)});
  track_outputs(conn);
}

void FrontServer::track_outputs(ConnId conn) {
  Conn& c = conns_[conn];
  const bool listed = c.listed_at != kNotListed;
  if (listed != c.outputs.empty()) return;  // already consistent
  if (!listed) {
    c.listed_at = with_output_.size();
    with_output_.push_back(conn);
    return;
  }
  const ConnId last = with_output_.back();
  with_output_[c.listed_at] = last;
  conns_[last].listed_at = c.listed_at;
  with_output_.pop_back();
  c.listed_at = kNotListed;
}

void FrontServer::emit_error(ConnId conn, std::uint64_t request_id,
                             ErrorCode code, SimTime ready) {
  std::vector<std::uint8_t> bytes;
  append_error_frame(bytes, Error{request_id, code, std::string()});
  push_output(conn, std::move(bytes), ready);
}

void FrontServer::note_queue_depth() {
  stats_.max_queue_depth =
      std::max(stats_.max_queue_depth,
               static_cast<std::uint64_t>(queue_.size()));
  if (instruments_.queue_depth != nullptr) {
    instruments_.queue_depth->set(static_cast<double>(queue_.size()));
  }
}

void FrontServer::admit(ConnId conn, Request&& request, SimTime now) {
  stats_.requests += 1;
  if (instruments_.requests != nullptr) instruments_.requests->increment();

  SimTime deadline = request.deadline_us;
  if (deadline == 0 && config_.default_deadline_us != 0) {
    deadline = now + config_.default_deadline_us;
  }

  // Fairness first: a hot client burns its own tokens, not queue slots.
  if (!take_token(conns_[conn].client_id, now)) {
    stats_.shed_throttled += 1;
    if (instruments_.shed_throttled != nullptr) {
      instruments_.shed_throttled->increment();
    }
    emit_error(conn, request.request_id, ErrorCode::kThrottled, now);
    return;
  }

  if (queue_.size() >= config_.queue_capacity) {
    stats_.shed_queue_full += 1;
    if (instruments_.shed_queue_full != nullptr) {
      instruments_.shed_queue_full->increment();
    }
    emit_error(conn, request.request_id, ErrorCode::kOverloaded, now);
    return;
  }

  // Deadline-aware drop: if the backlog alone already pushes completion
  // past the deadline, shedding now is strictly better than queueing —
  // the request would only occupy a slot and then expire.
  if (deadline != 0) {
    const SimTime backlog = busy_until_ > now ? busy_until_ - now : 0;
    const SimTime wait_estimate =
        backlog + config_.batch_overhead_us +
        (static_cast<SimTime>(queue_.size()) + 1) * config_.per_query_us;
    if (now + wait_estimate > deadline) {
      stats_.shed_deadline += 1;
      if (instruments_.shed_deadline != nullptr) {
        instruments_.shed_deadline->increment();
      }
      emit_error(conn, request.request_id, ErrorCode::kOverloaded, now);
      return;
    }
  }

  stats_.admitted += 1;
  if (instruments_.admitted != nullptr) instruments_.admitted->increment();
  queue_.push_back(Pending{now, deadline, seq_++, conn, std::move(request)});
  note_queue_depth();
}

void FrontServer::submit(ConnId conn, std::span<const std::uint8_t> bytes,
                         SimTime now) {
  ingest(conn, bytes, now);
  // Batches whose close time this submission reached (or created).
  run_until(now);
}

void FrontServer::ingest(ConnId conn, std::span<const std::uint8_t> bytes,
                         SimTime now) {
  Conn& c = conns_[conn];
  c.decoder.feed(bytes);
  while (true) {
    FrameDecoder::Item item = c.decoder.next();
    if (item.status == DecodeStatus::kNeedMore) break;
    if (item.status != DecodeStatus::kFrame) {
      stats_.decode_errors += 1;
      if (instruments_.decode_errors != nullptr) {
        instruments_.decode_errors->increment();
      }
      continue;  // damage is confined to one frame; keep decoding
    }
    stats_.frames_in += 1;
    if (item.type != FrameType::kRequest) {
      // Clients must not send response/error frames; reject per frame.
      stats_.bad_requests += 1;
      emit_error(conn, 0, ErrorCode::kBadRequest, now);
      continue;
    }
    Request request;
    if (!decode_request(item.payload, request)) {
      stats_.bad_requests += 1;
      emit_error(conn, 0, ErrorCode::kBadRequest, now);
      continue;
    }
    admit(conn, std::move(request), now);
  }
}

std::optional<SimTime> FrontServer::next_batch_close() const {
  if (queue_.empty()) return std::nullopt;
  // Arrival order makes the front the earliest-enqueued request.
  const SimTime first_arrival = queue_.front().enqueue_us;
  SimTime close = std::max(busy_until_, first_arrival);
  if (config_.batch_linger_us != 0) {
    SimTime linger_close =
        std::max(close, first_arrival + config_.batch_linger_us);
    // Deadline propagation: lingering must not cost the most urgent
    // queued request its deadline.
    SimTime urgent = kNoDeadline;
    for (const Pending& p : queue_) {
      urgent = std::min(urgent, deadline_key(p.deadline_us));
    }
    if (urgent != kNoDeadline) {
      const SimTime service_estimate =
          config_.batch_overhead_us +
          std::min<SimTime>(queue_.size(), config_.max_batch) *
              config_.per_query_us;
      const SimTime latest_start =
          urgent > service_estimate ? urgent - service_estimate : close;
      linger_close = std::clamp(latest_start, close, linger_close);
    }
    close = linger_close;
  }
  return close;
}

void FrontServer::run_batch(SimTime close, Clock* clock) {
  // Requests already past their deadline at the close expire without
  // costing oracle compute or a batch slot. Sweeping them *before*
  // selection matters under sustained overload: left in place they
  // anchor the EDF order and turn into overhead-only batches.
  {
    std::vector<Pending> alive;
    alive.reserve(queue_.size());
    for (Pending& p : queue_) {
      if (p.deadline_us != 0 && p.deadline_us <= close) {
        stats_.expired_in_queue += 1;
        if (instruments_.expired != nullptr) instruments_.expired->increment();
        emit_error(p.conn, p.request.request_id, ErrorCode::kDeadlineExceeded,
                   close);
      } else {
        alive.push_back(std::move(p));
      }
    }
    queue_ = std::move(alive);
  }

  // EDF selection among requests that had arrived by the close.
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].enqueue_us <= close) eligible.push_back(i);
  }
  if (eligible.empty()) {
    // The whole backlog either expired or arrived after this close; no
    // batch forms and the clock does not advance.
    note_queue_depth();
    return;
  }
  std::sort(eligible.begin(), eligible.end(),
            [this](std::size_t a, std::size_t b) {
              const SimTime da = deadline_key(queue_[a].deadline_us);
              const SimTime db = deadline_key(queue_[b].deadline_us);
              if (da != db) return da < db;
              return queue_[a].seq < queue_[b].seq;
            });
  // Deadline-aware dequeue: every query added stretches the whole
  // batch's service time, so growing past what the most urgent member
  // can bear trades its deadline for batching efficiency — the convoy
  // that turns admitted requests into expiries under sustained
  // overload. EDF order makes the front the binding constraint: a
  // front that cannot complete even in a batch of one is hopeless, and
  // serving it would burn a full service slot to still miss — it is
  // dropped here, free of oracle compute (the dequeue-side mirror of
  // the admission-side deadline shed; mis-estimates slip through to
  // the expired_served backstop at completion). The first viable front
  // then bounds the batch: the longest EDF prefix whose completion
  // still meets its deadline (the trimmed tail stays queued).
  std::size_t start = 0;
  std::size_t fit = eligible.size();
  if (config_.per_query_us > 0) {
    while (start < eligible.size()) {
      const SimTime tightest =
          deadline_key(queue_[eligible[start]].deadline_us);
      if (tightest == kNoDeadline) {
        fit = eligible.size() - start;  // nothing binding remains
        break;
      }
      const SimTime head = close + config_.batch_overhead_us;
      const SimTime budget = tightest > head ? tightest - head : 0;
      fit = static_cast<std::size_t>(budget / config_.per_query_us);
      if (fit > 0) break;
      start += 1;  // hopeless front: expired below, without compute
    }
  }
  std::vector<bool> taken(queue_.size(), false);
  std::vector<bool> hopeless(queue_.size(), false);
  for (std::size_t i = 0; i < start; ++i) hopeless[eligible[i]] = true;
  const std::size_t width =
      std::min({fit, config_.max_batch, eligible.size() - start});
  for (std::size_t i = start; i < start + width; ++i) {
    taken[eligible[i]] = true;
  }

  std::vector<Pending> batch;
  batch.reserve(width);
  std::vector<Pending> rest;
  rest.reserve(queue_.size() - width);
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (hopeless[i]) {
      stats_.expired_in_queue += 1;
      if (instruments_.expired != nullptr) instruments_.expired->increment();
      emit_error(queue_[i].conn, queue_[i].request.request_id,
                 ErrorCode::kDeadlineExceeded, close);
    } else {
      (taken[i] ? batch : rest).push_back(std::move(queue_[i]));
    }
  }
  queue_ = std::move(rest);
  if (batch.empty()) {
    // Every eligible request was hopeless; no service slot is spent.
    note_queue_depth();
    return;
  }

  // The sweeps above guarantee every batch member can still make its
  // deadline at the close.
  std::vector<const Pending*> live;
  live.reserve(batch.size());
  for (const Pending& p : batch) live.push_back(&p);

  stats_.batches += 1;
  const SimTime modelled_us =
      config_.batch_overhead_us +
      static_cast<SimTime>(live.size()) * config_.per_query_us;
  note_queue_depth();

  std::vector<serve::Query> queries;
  queries.reserve(live.size());
  for (const Pending* p : live) queries.push_back(p->request.query());
  std::vector<serve::Answer> answers(queries.size());
  serve::BatchStatus status = oracle_->try_answer(queries, answers);
  if (status == serve::BatchStatus::kStale && store_ != nullptr) {
    // Live appends landed since the last batch: refresh-then-retry
    // instead of dying (the recoverable kStale path).
    store_->refresh();
    stats_.stale_refreshes += 1;
    if (instruments_.stale_refreshes != nullptr) {
      instruments_.stale_refreshes->increment();
    }
    status = oracle_->try_answer(queries, answers);
  }
  // Modelled on the simulated clock; measured (refresh included) on the
  // wall clock.
  const SimTime completion = clock != nullptr
                                 ? clock->batch_done(close, modelled_us)
                                 : close + modelled_us;
  busy_until_ = completion;

  for (std::size_t i = 0; i < live.size(); ++i) {
    const Pending& p = *live[i];
    if (status == serve::BatchStatus::kStale) {
      emit_error(p.conn, p.request.request_id, ErrorCode::kStale, completion);
      continue;
    }
    if (p.deadline_us != 0 && completion > p.deadline_us) {
      stats_.expired_served += 1;
      if (instruments_.expired != nullptr) instruments_.expired->increment();
      emit_error(p.conn, p.request.request_id, ErrorCode::kDeadlineExceeded,
                 completion);
      continue;
    }
    stats_.answered += 1;
    if (instruments_.answered != nullptr) instruments_.answered->increment();
    if (instruments_.service_ms != nullptr) {
      instruments_.service_ms->record(
          static_cast<double>(completion - p.enqueue_us) / 1000.0);
    }
    std::vector<std::uint8_t> bytes;
    append_response_frame(
        bytes, make_response(p.request.request_id, answers[i],
                             oracle_->store().registry()));
    push_output(p.conn, std::move(bytes), completion);
  }
}

void FrontServer::run_until(SimTime now, Clock* clock) {
  while (true) {
    const std::optional<SimTime> close = next_batch_close();
    if (!close.has_value() || *close > now) break;
    run_batch(*close, clock);
  }
}

std::optional<SimTime> FrontServer::next_activity() const {
  std::optional<SimTime> at;
  const auto consider = [&at](SimTime t) {
    if (!at.has_value() || t < *at) at = t;
  };
  if (const auto close = next_batch_close(); close.has_value()) {
    consider(*close);
  }
  for (const ConnId conn : with_output_) {
    for (const Output& o : conns_[conn].outputs) consider(o.ready_us);
  }
  return at;
}

std::vector<std::uint8_t> FrontServer::take_output(ConnId conn, SimTime now) {
  Conn& c = conns_[conn];
  std::vector<Output*> ready;
  for (Output& o : c.outputs) {
    if (o.ready_us <= now) ready.push_back(&o);
  }
  if (ready.empty()) return {};
  // Delivery order is (simulated ready time, emission order) — stable
  // regardless of internal emission interleaving.
  std::sort(ready.begin(), ready.end(), [](const Output* a, const Output* b) {
    if (a->ready_us != b->ready_us) return a->ready_us < b->ready_us;
    return a->seq < b->seq;
  });
  std::vector<std::uint8_t> bytes;
  for (Output* o : ready) {
    bytes.insert(bytes.end(), o->bytes.begin(), o->bytes.end());
    o->bytes.clear();  // mark delivered
  }
  std::erase_if(c.outputs, [](const Output& o) { return o.bytes.empty(); });
  track_outputs(conn);
  return bytes;
}

void FrontServer::disconnect(ConnId conn) {
  Conn& c = conns_[conn];
  c.open = false;
  c.outputs = {};
  track_outputs(conn);
}

bool FrontServer::drained() const noexcept {
  return queue_.empty() && with_output_.empty();
}

void FrontServer::attach_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    instruments_ = Instruments{};
    return;
  }
  instruments_.requests = &metrics->counter("front.requests");
  instruments_.admitted = &metrics->counter("front.admitted");
  instruments_.answered = &metrics->counter("front.answered");
  instruments_.shed_queue_full = &metrics->counter("front.shed.queue_full");
  instruments_.shed_deadline = &metrics->counter("front.shed.deadline");
  instruments_.shed_throttled = &metrics->counter("front.shed.throttled");
  instruments_.expired = &metrics->counter("front.expired");
  instruments_.decode_errors = &metrics->counter("front.decode_errors");
  instruments_.stale_refreshes = &metrics->counter("front.stale_refreshes");
  instruments_.queue_depth = &metrics->gauge("front.queue_depth");
  instruments_.service_ms = &metrics->histogram("front.service_ms");
}

}  // namespace shears::front
