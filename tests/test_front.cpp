// The serving front-end: frame codec round-trips and per-frame error
// confinement, admission control (queue bounds, deadline-aware drops,
// token-bucket fairness), staleness recovery, client retry policy, and
// traffic-generator determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "atlas/measurement.hpp"
#include "atlas/placement.hpp"
#include "atlas/tags.hpp"
#include "front/client.hpp"
#include "front/frame.hpp"
#include "front/server.hpp"
#include "front/traffic.hpp"
#include "geo/country.hpp"
#include "serve/columnar.hpp"
#include "serve/oracle.hpp"
#include "topology/registry.hpp"

namespace shears::front {
namespace {

// ---------------------------------------------------------------- codec

Request sample_request() {
  Request req;
  req.request_id = 0x1122334455667788ULL;
  req.client_id = 42;
  req.deadline_us = 123456;
  req.kind = serve::QueryKind::kTopK;
  req.lat_deg = 52.52;
  req.lon_deg = 13.405;
  req.country_iso2 = "DE";
  req.access = net::AccessTechnology::kLte;
  req.any_access = false;
  req.app_id = "cloud-gaming";
  req.budget_ms = 60.0;
  req.k = 3;
  return req;
}

/// Pulls every decodable item out of a byte buffer in one pass.
std::vector<FrameDecoder::Item> drain(FrameDecoder& decoder) {
  std::vector<FrameDecoder::Item> items;
  while (true) {
    FrameDecoder::Item item = decoder.next();
    if (item.status == DecodeStatus::kNeedMore) break;
    items.push_back(std::move(item));
  }
  return items;
}

TEST(Frame, RequestRoundTripsThroughDecoder) {
  const Request req = sample_request();
  std::vector<std::uint8_t> bytes;
  append_request_frame(bytes, req);

  FrameDecoder decoder;
  decoder.feed(bytes);
  const auto items = drain(decoder);
  ASSERT_EQ(items.size(), 1u);
  ASSERT_EQ(items[0].status, DecodeStatus::kFrame);
  EXPECT_EQ(items[0].type, FrameType::kRequest);

  Request back;
  ASSERT_TRUE(decode_request(items[0].payload, back));
  EXPECT_EQ(back, req);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Frame, ResponseAndErrorRoundTrip) {
  Response res;
  res.request_id = 7;
  res.ok = true;
  res.country_iso2 = "IN";
  res.best_region = 12;
  res.best_ms = 34.5;
  res.median_ms = 40.25;
  res.p95_ms = 58.0;
  res.verdict = core::EdgeVerdict::kEdgeFeasible;
  res.in_zone = true;
  res.regions = {{12, 34.5}, {3, 36.0}};
  const Error err{9, ErrorCode::kOverloaded, "queue full"};

  std::vector<std::uint8_t> bytes;
  append_response_frame(bytes, res);
  append_error_frame(bytes, err);

  FrameDecoder decoder;
  decoder.feed(bytes);
  const auto items = drain(decoder);
  ASSERT_EQ(items.size(), 2u);

  Response res_back;
  ASSERT_TRUE(decode_response(items[0].payload, res_back));
  EXPECT_EQ(res_back, res);
  Error err_back;
  ASSERT_TRUE(decode_error(items[1].payload, err_back));
  EXPECT_EQ(err_back, err);
}

TEST(Frame, TruncatedFrameWaitsForMoreBytes) {
  std::vector<std::uint8_t> bytes;
  append_request_frame(bytes, sample_request());

  FrameDecoder decoder;
  // Byte-at-a-time delivery must produce exactly one frame, at the end.
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed(std::span<const std::uint8_t>(&bytes[i], 1));
    EXPECT_EQ(decoder.next().status, DecodeStatus::kNeedMore) << i;
  }
  decoder.feed(std::span<const std::uint8_t>(&bytes.back(), 1));
  EXPECT_EQ(decoder.next().status, DecodeStatus::kFrame);
  EXPECT_EQ(decoder.next().status, DecodeStatus::kNeedMore);
}

TEST(Frame, BadChecksumSkipsExactlyOneFrame) {
  std::vector<std::uint8_t> bytes;
  append_request_frame(bytes, sample_request());
  const std::size_t first_size = bytes.size();
  append_error_frame(bytes, Error{1, ErrorCode::kStale, ""});
  bytes[first_size - 1] ^= 0xff;  // corrupt the first frame's payload

  FrameDecoder decoder;
  decoder.feed(bytes);
  const auto items = drain(decoder);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].status, DecodeStatus::kBadChecksum);
  ASSERT_EQ(items[1].status, DecodeStatus::kFrame);
  EXPECT_EQ(items[1].type, FrameType::kError);
  EXPECT_EQ(decoder.tally().bad_checksum, 1u);
  EXPECT_EQ(decoder.tally().frames, 1u);
}

TEST(Frame, GarbagePrefixResyncsToNextMagic) {
  std::vector<std::uint8_t> bytes = {0xde, 0xad, 0xbe, 0xef, 0x01};
  append_error_frame(bytes, Error{5, ErrorCode::kThrottled, ""});

  FrameDecoder decoder;
  decoder.feed(bytes);
  const auto items = drain(decoder);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].status, DecodeStatus::kBadMagic);
  EXPECT_EQ(items[1].status, DecodeStatus::kFrame);
  EXPECT_EQ(decoder.tally().resync_bytes, 5u);
}

/// Hand-rolls a frame with arbitrary header fields (to reach the
/// bad-version / bad-type / bad-length paths with a valid checksum).
std::vector<std::uint8_t> raw_frame(std::uint8_t version, std::uint8_t type,
                                    std::uint32_t claimed_length,
                                    std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(kFrameMagic));
  out.push_back(static_cast<std::uint8_t>(kFrameMagic >> 8));
  out.push_back(version);
  out.push_back(type);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(claimed_length >> (8 * i)));
  }
  const std::uint32_t checksum = frame_checksum(version, type, payload);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(checksum >> (8 * i)));
  }
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

TEST(Frame, UnknownVersionAndTypeSkipWholeFrames) {
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  std::vector<std::uint8_t> bytes = raw_frame(
      9, static_cast<std::uint8_t>(FrameType::kRequest),
      static_cast<std::uint32_t>(payload.size()), payload);
  const auto typeless =
      raw_frame(kProtocolVersion, 77,
                static_cast<std::uint32_t>(payload.size()), payload);
  bytes.insert(bytes.end(), typeless.begin(), typeless.end());
  append_error_frame(bytes, Error{2, ErrorCode::kBadRequest, ""});

  FrameDecoder decoder;
  decoder.feed(bytes);
  const auto items = drain(decoder);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].status, DecodeStatus::kBadVersion);
  EXPECT_EQ(items[1].status, DecodeStatus::kBadType);
  EXPECT_EQ(items[2].status, DecodeStatus::kFrame);
}

TEST(Frame, OversizedLengthResynchronises) {
  const std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> bytes =
      raw_frame(kProtocolVersion,
                static_cast<std::uint8_t>(FrameType::kError),
                kMaxPayloadBytes + 1, payload);
  append_error_frame(bytes, Error{3, ErrorCode::kStale, ""});

  FrameDecoder decoder;
  decoder.feed(bytes);
  const auto items = drain(decoder);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].status, DecodeStatus::kBadLength);
  EXPECT_EQ(items[1].status, DecodeStatus::kFrame);
}

// ---------------------------------------------------------------- server

atlas::Probe make_probe(atlas::ProbeId id, const char* iso2,
                        net::AccessTechnology access) {
  atlas::Probe probe;
  probe.id = id;
  probe.country = geo::find_country(iso2);
  EXPECT_NE(probe.country, nullptr) << iso2;
  probe.endpoint.location = probe.country->site;
  probe.endpoint.tier = probe.country->tier;
  probe.endpoint.access = access;
  probe.environment = atlas::Environment::kHome;
  probe.tags = atlas::make_tags(access, atlas::Environment::kHome, true);
  return probe;
}

atlas::Measurement row(atlas::ProbeId probe, std::uint16_t region,
                       std::uint32_t tick, float min_ms) {
  atlas::Measurement m;
  m.probe_id = probe;
  m.region_index = region;
  m.tick = tick;
  m.min_ms = min_ms;
  m.avg_ms = min_ms + 1.0f;
  m.max_ms = min_ms + 2.0f;
  m.sent = 3;
  m.received = 3;
  return m;
}

/// A tiny served world: DE ethernet, DE LTE, FR ethernet over the first
/// three footprint regions, with data for all of them.
struct FrontWorld {
  topology::CloudRegistry registry;
  atlas::ProbeFleet fleet;
  serve::ColumnarStore store;
  serve::Oracle oracle;

  FrontWorld()
      : registry({topology::all_regions().data(),
                  topology::all_regions().data() + 1,
                  topology::all_regions().data() + 2}),
        fleet(atlas::ProbeFleet::from_probes({
            make_probe(0, "DE", net::AccessTechnology::kEthernet),
            make_probe(1, "DE", net::AccessTechnology::kLte),
            make_probe(2, "FR", net::AccessTechnology::kEthernet),
        })),
        store(&fleet, &registry, serve::StoreConfig{1}),
        oracle(&store, serve::OracleConfig{1, {}}) {
    store.append(std::vector<atlas::Measurement>{
        row(0, 0, 0, 20.0f), row(0, 1, 0, 55.0f), row(1, 0, 0, 35.0f),
        row(2, 1, 0, 70.0f)});
    store.refresh();
  }
};

Request best_rtt_request(std::uint64_t id, const char* iso2,
                         SimTime deadline_us = 0) {
  Request req;
  req.request_id = id;
  req.client_id = 1;
  req.deadline_us = deadline_us;
  req.kind = serve::QueryKind::kBestRtt;
  req.country_iso2 = iso2;
  req.any_access = true;
  return req;
}

/// Decodes every frame in a delivered byte buffer.
std::vector<FrameDecoder::Item> decode_all(
    const std::vector<std::uint8_t>& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes);
  return drain(decoder);
}

TEST(FrontServer, AnswersMatchTheOracleDirectly) {
  FrontWorld world;
  FrontServer server(&world.oracle, &world.store, FrontConfig{});
  const ConnId conn = server.connect(1);

  std::vector<std::uint8_t> bytes;
  append_request_frame(bytes, best_rtt_request(1, "DE"));
  append_request_frame(bytes, best_rtt_request(2, "FR"));
  server.submit(conn, bytes, 0);
  server.run_until(1'000'000);

  const auto items = decode_all(server.take_output(conn, 1'000'000));
  ASSERT_EQ(items.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(items[i].status, DecodeStatus::kFrame);
    ASSERT_EQ(items[i].type, FrameType::kResponse);
  }

  Response de;
  ASSERT_TRUE(decode_response(items[0].payload, de));
  const Response expected_de = make_response(
      1, world.oracle.answer_one(best_rtt_request(1, "DE").query()),
      world.registry);
  EXPECT_EQ(de, expected_de);
  EXPECT_TRUE(de.ok);
  EXPECT_EQ(de.best_ms, 20.0);

  Response fr;
  ASSERT_TRUE(decode_response(items[1].payload, fr));
  EXPECT_TRUE(fr.ok);
  EXPECT_EQ(fr.best_ms, 70.0);

  EXPECT_EQ(server.stats().answered, 2u);
  EXPECT_EQ(server.stats().batches, 1u);
  EXPECT_TRUE(server.drained());
}

TEST(FrontServer, FullQueueShedsWithOverloadedFrames) {
  FrontWorld world;
  FrontConfig config;
  config.queue_capacity = 2;
  FrontServer server(&world.oracle, &world.store, config);
  const ConnId conn = server.connect(1);

  std::vector<std::uint8_t> bytes;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    append_request_frame(bytes, best_rtt_request(id, "DE"));
  }
  server.submit(conn, bytes, 0);
  server.run_until(1'000'000);

  EXPECT_EQ(server.stats().admitted, 2u);
  EXPECT_EQ(server.stats().shed_queue_full, 3u);
  EXPECT_EQ(server.stats().answered, 2u);

  std::size_t overloaded = 0;
  for (const auto& item : decode_all(server.take_output(conn, 1'000'000))) {
    if (item.type != FrameType::kError) continue;
    Error err;
    ASSERT_TRUE(decode_error(item.payload, err));
    EXPECT_EQ(err.code, ErrorCode::kOverloaded);
    ++overloaded;
  }
  EXPECT_EQ(overloaded, 3u);
}

TEST(FrontServer, DeadlinePropagatesThroughAdmissionAndService) {
  FrontWorld world;
  FrontConfig config;
  config.max_batch = 1;
  config.batch_overhead_us = 300;
  config.per_query_us = 10;
  FrontServer server(&world.oracle, &world.store, config);
  const ConnId conn = server.connect(1);

  // Four requests in one burst; EDF serves the tightest deadline first,
  // one per batch (310 us each):
  //   batch @0   -> id 2 (deadline 330): completes 310, in time
  //   batch @310 -> id 3 (deadline 335): cannot finish before 610 even
  //                 alone — hopeless, dropped at dequeue without
  //                 burning the service slot on a guaranteed miss
  //   batch @310 -> id 4 (deadline 620): the freed slot; completes 620,
  //                 exactly in time — the drop is what saved it
  //   batch @620 -> id 1 (no deadline):  completes 930
  std::vector<std::uint8_t> bytes;
  append_request_frame(bytes, best_rtt_request(1, "DE"));
  append_request_frame(bytes, best_rtt_request(2, "DE", 330));
  append_request_frame(bytes, best_rtt_request(3, "DE", 335));
  append_request_frame(bytes, best_rtt_request(4, "DE", 620));
  server.submit(conn, bytes, 0);
  server.run_until(10'000);

  EXPECT_EQ(server.stats().admitted, 4u);
  EXPECT_EQ(server.stats().answered, 3u);
  EXPECT_EQ(server.stats().expired_served, 0u);
  EXPECT_EQ(server.stats().expired_in_queue, 1u);

  // And a request whose deadline the backlog already forfeits is shed
  // at the door instead of queued.
  std::vector<std::uint8_t> doomed;
  append_request_frame(doomed, best_rtt_request(9, "DE", 10'100));
  server.submit(conn, doomed, 10'000);
  EXPECT_EQ(server.stats().shed_deadline, 1u);

  const auto items = decode_all(server.take_output(conn, 20'000));
  std::size_t deadline_errors = 0;
  for (const auto& item : items) {
    if (item.type != FrameType::kError) continue;
    Error err;
    ASSERT_TRUE(decode_error(item.payload, err));
    if (err.code == ErrorCode::kDeadlineExceeded) ++deadline_errors;
  }
  EXPECT_EQ(deadline_errors, 1u);  // id 3; the admission shed is kOverloaded
}

TEST(FrontServer, TokenBucketThrottlesPerClient) {
  FrontWorld world;
  FrontConfig config;
  config.client_rate_qps = 1000;  // 1 token per ms
  config.client_burst = 2;
  FrontServer server(&world.oracle, &world.store, config);
  const ConnId hot = server.connect(1);
  const ConnId calm = server.connect(2);

  std::vector<std::uint8_t> burst;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    append_request_frame(burst, best_rtt_request(id, "DE"));
  }
  server.submit(hot, burst, 0);
  // The hot client's spill hits its own bucket, not the other client.
  EXPECT_EQ(server.stats().shed_throttled, 2u);

  std::vector<std::uint8_t> one;
  append_request_frame(one, best_rtt_request(10, "FR"));
  server.submit(calm, one, 0);
  EXPECT_EQ(server.stats().shed_throttled, 2u);
  EXPECT_EQ(server.stats().admitted, 3u);

  // One millisecond refills exactly one token.
  std::vector<std::uint8_t> later;
  append_request_frame(later, best_rtt_request(5, "DE"));
  append_request_frame(later, best_rtt_request(6, "DE"));
  server.submit(hot, later, 1000);
  EXPECT_EQ(server.stats().shed_throttled, 3u);
  EXPECT_EQ(server.stats().admitted, 4u);
}

TEST(FrontServer, StaleStoreRefreshesAndRetries) {
  FrontWorld world;
  // Live appends since the last refresh: the oracle alone would throw.
  world.store.append(std::vector<atlas::Measurement>{row(0, 2, 1, 15.0f)});
  ASSERT_FALSE(world.store.fresh());

  FrontServer server(&world.oracle, &world.store, FrontConfig{});
  const ConnId conn = server.connect(1);
  std::vector<std::uint8_t> bytes;
  append_request_frame(bytes, best_rtt_request(1, "DE"));
  server.submit(conn, bytes, 0);
  server.run_until(1'000'000);

  EXPECT_EQ(server.stats().stale_refreshes, 1u);
  EXPECT_EQ(server.stats().answered, 1u);
  EXPECT_TRUE(world.store.fresh());

  const auto items = decode_all(server.take_output(conn, 1'000'000));
  ASSERT_EQ(items.size(), 1u);
  Response res;
  ASSERT_TRUE(decode_response(items[0].payload, res));
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.best_ms, 15.0);  // the appended row is visible
}

TEST(FrontServer, WithoutAMutableStoreStaleBecomesARetryableError) {
  FrontWorld world;
  world.store.append(std::vector<atlas::Measurement>{row(0, 2, 1, 15.0f)});

  FrontServer server(&world.oracle, nullptr, FrontConfig{});
  const ConnId conn = server.connect(1);
  std::vector<std::uint8_t> bytes;
  append_request_frame(bytes, best_rtt_request(1, "DE"));
  server.submit(conn, bytes, 0);
  server.run_until(1'000'000);

  EXPECT_EQ(server.stats().stale_refreshes, 0u);
  EXPECT_EQ(server.stats().answered, 0u);
  const auto items = decode_all(server.take_output(conn, 1'000'000));
  ASSERT_EQ(items.size(), 1u);
  Error err;
  ASSERT_TRUE(decode_error(items[0].payload, err));
  EXPECT_EQ(err.code, ErrorCode::kStale);
  EXPECT_TRUE(retryable(err.code));
  world.store.refresh();  // leave the shared fixture consistent
}

TEST(FrontServer, MalformedFramesAreConfinedToOneRequest) {
  FrontWorld world;
  FrontServer server(&world.oracle, &world.store, FrontConfig{});
  const ConnId conn = server.connect(1);

  std::vector<std::uint8_t> bytes;
  append_request_frame(bytes, best_rtt_request(1, "DE"));
  const std::size_t first_size = bytes.size();
  append_request_frame(bytes, best_rtt_request(2, "FR"));
  bytes[first_size - 3] ^= 0xff;  // corrupt request 1's payload

  server.submit(conn, bytes, 0);
  server.run_until(1'000'000);

  EXPECT_EQ(server.stats().decode_errors, 1u);
  EXPECT_EQ(server.stats().answered, 1u);

  const auto items = decode_all(server.take_output(conn, 1'000'000));
  ASSERT_EQ(items.size(), 1u);
  Response res;
  ASSERT_TRUE(decode_response(items[0].payload, res));
  EXPECT_EQ(res.request_id, 2u);
}

TEST(FrontServer, ClosedConnectionsDoNotChangeActivityOrDrain) {
  // 10 000 clients connect, get an answer queued, and disconnect: half
  // before reading it (the output is dropped), half after. A server
  // that went through that churn must then report the same
  // next_activity() and drained() as a fresh one serving the same live
  // traffic, at every step of that traffic.
  FrontWorld world;
  FrontConfig config;
  config.batch_linger_us = 50;
  FrontServer churned(&world.oracle, &world.store, config);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    const SimTime at = static_cast<SimTime>(i) * 1'000;
    const ConnId conn = churned.connect(100 + i);
    std::vector<std::uint8_t> bytes;
    append_request_frame(bytes, best_rtt_request(i + 1, "DE"));
    churned.submit(conn, bytes, at);
    churned.run_until(at + 500);
    if (i % 2 == 1) {
      EXPECT_FALSE(churned.take_output(conn, at + 500).empty()) << i;
    }
    churned.disconnect(conn);
  }
  EXPECT_TRUE(churned.drained());
  EXPECT_EQ(churned.next_activity(), std::nullopt);

  FrontServer fresh(&world.oracle, &world.store, config);
  constexpr SimTime kStart = 100'000'000;
  const auto expect_same = [&](const char* step) {
    EXPECT_EQ(churned.next_activity(), fresh.next_activity()) << step;
    EXPECT_EQ(churned.drained(), fresh.drained()) << step;
  };
  const ConnId a_churned = churned.connect(1);
  const ConnId b_churned = churned.connect(2);
  const ConnId a_fresh = fresh.connect(1);
  const ConnId b_fresh = fresh.connect(2);
  std::vector<std::uint8_t> to_a;
  append_request_frame(to_a, best_rtt_request(1, "DE"));
  std::vector<std::uint8_t> to_b;
  append_request_frame(to_b, best_rtt_request(2, "FR"));

  churned.submit(a_churned, to_a, kStart);
  fresh.submit(a_fresh, to_a, kStart);
  expect_same("first request queued");
  EXPECT_FALSE(fresh.drained());
  churned.submit(b_churned, to_b, kStart + 10);
  fresh.submit(b_fresh, to_b, kStart + 10);
  expect_same("second request queued");
  churned.run_until(kStart + 60);
  fresh.run_until(kStart + 60);
  expect_same("batch served, answers pending");
  ASSERT_TRUE(fresh.next_activity().has_value());
  const SimTime ready = *fresh.next_activity();
  EXPECT_EQ(churned.take_output(a_churned, ready),
            fresh.take_output(a_fresh, ready));
  expect_same("one answer read");
  churned.disconnect(b_churned);
  fresh.disconnect(b_fresh);
  expect_same("other client gone");
  EXPECT_TRUE(fresh.drained());
}

// ---------------------------------------------------------------- client

TEST(FrontClient, RetriesTransientErrorsWithCappedBackoff) {
  ClientConfig config;
  config.max_retries = 3;
  config.backoff_base_us = 5000;
  config.backoff_cap_us = 15000;
  config.jitter_fraction = 0.0;  // exact backoff arithmetic
  FrontClient client(7, config, 2020);

  serve::Query query;
  (void)client.make_request(query, 0, 100);
  const std::uint64_t id = std::uint64_t{7} << 32;

  std::vector<std::uint8_t> overloaded;
  append_error_frame(overloaded, Error{id, ErrorCode::kOverloaded, ""});

  // Attempt 1 fails -> retry at +5000; 2 -> +10000; 3 -> capped +15000.
  auto outcomes = client.on_bytes(overloaded, 1000);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, FrontClient::Outcome::Kind::kRetry);
  EXPECT_EQ(outcomes[0].retry_at, 6000u);

  outcomes = client.on_bytes(overloaded, 7000);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].retry_at, 17000u);

  outcomes = client.on_bytes(overloaded, 18000);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].retry_at, 33000u);

  // Retries exhausted: the fourth error is final.
  outcomes = client.on_bytes(overloaded, 34000);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, FrontClient::Outcome::Kind::kFailed);
  EXPECT_EQ(client.stats().retries, 3u);
  EXPECT_EQ(client.stats().failed, 1u);
  EXPECT_EQ(client.in_flight(), 0u);
}

TEST(FrontClient, FatalErrorsDoNotRetryAndLatencyCountsFromFirstIssue) {
  FrontClient client(3, ClientConfig{}, 2020);
  serve::Query query;

  (void)client.make_request(query, 0, 0);
  const std::uint64_t first = std::uint64_t{3} << 32;
  std::vector<std::uint8_t> bad;
  append_error_frame(bad, Error{first, ErrorCode::kBadRequest, ""});
  auto outcomes = client.on_bytes(bad, 500);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, FrontClient::Outcome::Kind::kFailed);

  // A deadline miss is terminal too: retrying cannot un-miss it.
  (void)client.make_request(query, 1, 1000);
  const std::uint64_t second = first + 1;
  std::vector<std::uint8_t> late;
  append_error_frame(late, Error{second, ErrorCode::kDeadlineExceeded, ""});
  outcomes = client.on_bytes(late, 2000);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, FrontClient::Outcome::Kind::kFailed);

  // Completion measures user latency from the *first* issue time.
  (void)client.make_request(query, 2, 10'000);
  const std::uint64_t third = first + 2;
  std::vector<std::uint8_t> done;
  Response res;
  res.request_id = third;
  res.ok = true;
  append_response_frame(done, res);
  outcomes = client.on_bytes(done, 12'500);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, FrontClient::Outcome::Kind::kCompleted);
  EXPECT_EQ(outcomes[0].latency_ms, 2.5);
  ASSERT_EQ(client.latencies_ms().size(), 1u);
  EXPECT_EQ(client.latencies_ms()[0], 2.5);
}

// --------------------------------------------------------------- traffic

TEST(Traffic, PercentileIsExactNearestRank) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(static_cast<double>(i));
  EXPECT_EQ(percentile_ms(samples, 0.50), 50.0);
  EXPECT_EQ(percentile_ms(samples, 0.95), 95.0);
  EXPECT_EQ(percentile_ms(samples, 0.99), 99.0);
  EXPECT_EQ(percentile_ms(samples, 1.00), 100.0);
  EXPECT_EQ(percentile_ms({}, 0.99), 0.0);
  EXPECT_EQ(percentile_ms({42.0}, 0.5), 42.0);
}

TEST(Traffic, OpenSessionIsByteReproducible) {
  FrontWorld world;
  const std::vector<serve::Query> corpus = make_corpus(world.fleet, 64);

  TrafficConfig config;
  config.arrival = ArrivalMode::kOpen;
  config.clients = 4;
  config.offered_qps = 2000;
  config.duration_us = 50'000;
  config.seed = 2020;

  FrontServer a(&world.oracle, &world.store, FrontConfig{});
  const TrafficReport first = run_traffic(a, corpus, config);
  FrontServer b(&world.oracle, &world.store, FrontConfig{});
  const TrafficReport second = run_traffic(b, corpus, config);

  EXPECT_EQ(first, second);
  EXPECT_GT(first.offered, 0u);
  EXPECT_EQ(first.completed, first.offered);  // uncontended: all answered
  EXPECT_TRUE(first.drained);
  EXPECT_GT(first.p50_ms, 0.0);

  // A different seed is a genuinely different session.
  TrafficConfig reseeded = config;
  reseeded.seed = 2021;
  FrontServer c(&world.oracle, &world.store, FrontConfig{});
  const TrafficReport third = run_traffic(c, corpus, reseeded);
  EXPECT_NE(first, third);
}

TEST(Traffic, ClosedSessionKeepsOneRequestInFlightPerClient) {
  FrontWorld world;
  const std::vector<serve::Query> corpus = make_corpus(world.fleet, 64);

  TrafficConfig config;
  config.arrival = ArrivalMode::kClosed;
  config.clients = 3;
  config.think_time_us = 5000;
  config.duration_us = 100'000;
  config.seed = 7;

  FrontServer server(&world.oracle, &world.store, FrontConfig{});
  const TrafficReport report = run_traffic(server, corpus, config);

  EXPECT_GT(report.completed, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_TRUE(report.drained);
  // Closed loop: at most duration/think_time sends per client.
  EXPECT_LE(report.offered,
            static_cast<std::uint64_t>(config.clients) *
                (config.duration_us / config.think_time_us + 1));
}

TEST(Traffic, ConfigValidationRejectsDegenerateSessions) {
  TrafficConfig config;
  config.clients = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = TrafficConfig{};
  config.offered_qps = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = TrafficConfig{};
  config.zipf_exponent = -0.1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = TrafficConfig{};
  config.duration_us = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace shears::front
