// Snapshot persistence: save → load must reproduce the store byte for
// byte (columns, counters, every summary scalar), across build paths,
// load thread counts, file and in-memory loads, v1 and v2 images, and
// mid-ingest snapshots that are appended to after loading. The
// corrupt-file corpus pins the error confinement contract: a damaged
// image — truncated, bit-flipped, wrong version, wrong fleet, sorted
// runs that are not the sort of the columns — throws a precise
// SnapshotError or io::BlockError, the same one at every thread count,
// and never yields a partial store. The delta log is exercised end to
// end: publish / crash-recover / extend / compact / torn tail.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "atlas/campaign.hpp"
#include "atlas/measurement.hpp"
#include "atlas/placement.hpp"
#include "atlas/tags.hpp"
#include "config/scenario.hpp"
#include "faults/fault_schedule.hpp"
#include "geo/country.hpp"
#include "io/block_file.hpp"
#include "net/latency_model.hpp"
#include "serve/columnar.hpp"
#include "serve/oracle.hpp"
#include "serve/reference.hpp"
#include "serve/snapshot.hpp"
#include "topology/registry.hpp"

namespace shears::serve {
namespace {

atlas::Probe make_probe(atlas::ProbeId id, const char* iso2,
                        net::AccessTechnology access,
                        atlas::Environment environment) {
  atlas::Probe probe;
  probe.id = id;
  probe.country = geo::find_country(iso2);
  EXPECT_NE(probe.country, nullptr) << iso2;
  probe.endpoint.location = probe.country->site;
  probe.endpoint.tier = probe.country->tier;
  probe.endpoint.access = access;
  probe.environment = environment;
  probe.tags = atlas::make_tags(access, environment, true);
  return probe;
}

atlas::Measurement row(atlas::ProbeId probe, std::uint16_t region,
                       std::uint32_t tick, float min_ms,
                       std::uint8_t received = 3) {
  atlas::Measurement m;
  m.probe_id = probe;
  m.region_index = region;
  m.tick = tick;
  m.min_ms = min_ms;
  m.avg_ms = min_ms + 1.0f;
  m.max_ms = min_ms + 2.0f;
  m.sent = 3;
  m.received = received;
  return m;
}

/// Same tiny fixed world the store tests use: DE ethernet, DE LTE, FR
/// ethernet, plus one privileged DE probe the store must drop.
struct TinyWorld {
  topology::CloudRegistry registry;
  atlas::ProbeFleet fleet;

  TinyWorld()
      : registry({topology::all_regions().data(),
                  topology::all_regions().data() + 1,
                  topology::all_regions().data() + 2}),
        fleet(atlas::ProbeFleet::from_probes({
            make_probe(0, "DE", net::AccessTechnology::kEthernet,
                       atlas::Environment::kHome),
            make_probe(1, "DE", net::AccessTechnology::kLte,
                       atlas::Environment::kHome),
            make_probe(2, "FR", net::AccessTechnology::kEthernet,
                       atlas::Environment::kHome),
            make_probe(3, "DE", net::AccessTechnology::kEthernet,
                       atlas::Environment::kDatacenter),
        })) {}

  [[nodiscard]] std::vector<atlas::Measurement> standard_rows() const {
    return {
        row(0, 0, 0, 20.0f), row(0, 0, 1, 10.0f), row(0, 0, 2, 40.0f),
        row(0, 0, 3, 30.0f),                      // DE/eth region 0
        row(1, 0, 0, 50.0f), row(1, 0, 1, 5.0f),  // DE/lte region 0
        row(2, 1, 0, 70.0f),                      // FR/eth region 1
        row(3, 0, 0, 1.0f),                       // privileged: dropped
        row(0, 1, 0, 90.0f, 0),                   // lost: dropped
    };
  }
};

/// A small but real campaign dataset for the identity tests.
struct CampaignWorld {
  topology::CloudRegistry registry =
      topology::CloudRegistry::campaign_footprint();
  atlas::ProbeFleet fleet;
  net::LatencyModel model;
  atlas::CampaignConfig config;

  CampaignWorld()
      : fleet(atlas::ProbeFleet::generate(small_fleet())),
        model(net::LatencyModelConfig{}) {
    config.duration_days = 1;
    config.interval_hours = 6;
    config.seed = 20200913;
  }

  static atlas::PlacementConfig small_fleet() {
    atlas::PlacementConfig p;
    p.probe_count = geo::country_count() + 40;
    p.seed = 7;
    return p;
  }

  [[nodiscard]] atlas::MeasurementDataset run() const {
    return atlas::Campaign(fleet, registry, model, config).run();
  }
};

void expect_same_store(const ColumnarStore& a, const ColumnarStore& b) {
  ASSERT_EQ(a.rows_stored(), b.rows_stored());
  ASSERT_EQ(a.rows_dropped(), b.rows_dropped());
  const auto shards_a = a.shards();
  const auto shards_b = b.shards();
  ASSERT_EQ(shards_a.size(), shards_b.size());
  for (std::size_t s = 0; s < shards_a.size(); ++s) {
    EXPECT_EQ(shards_a[s].country, shards_b[s].country);
    EXPECT_EQ(shards_a[s].access, shards_b[s].access);
    ASSERT_EQ(shards_a[s].rtt_ms.size(), shards_b[s].rtt_ms.size());
    for (std::size_t i = 0; i < shards_a[s].rtt_ms.size(); ++i) {
      ASSERT_EQ(shards_a[s].probe_ids[i], shards_b[s].probe_ids[i]);
      ASSERT_EQ(shards_a[s].region_index[i], shards_b[s].region_index[i]);
      ASSERT_EQ(shards_a[s].ticks[i], shards_b[s].ticks[i]);
      ASSERT_EQ(shards_a[s].rtt_ms[i], shards_b[s].rtt_ms[i]);
    }
    const std::size_t country = country_index_of(shards_a[s].country);
    const auto stats_a = a.shard_stats(country, shards_a[s].access);
    const auto stats_b = b.shard_stats(country, shards_b[s].access);
    ASSERT_EQ(stats_a.size(), stats_b.size());
    for (std::size_t r = 0; r < stats_a.size(); ++r) {
      ASSERT_EQ(stats_a[r].count, stats_b[r].count);
      ASSERT_EQ(stats_a[r].min_ms, stats_b[r].min_ms);
      ASSERT_EQ(stats_a[r].median_ms, stats_b[r].median_ms);
      ASSERT_EQ(stats_a[r].p95_ms, stats_b[r].p95_ms);
      ASSERT_EQ(stats_a[r].sorted, stats_b[r].sorted);
    }
    const auto rollup_a = a.country_stats(country);
    const auto rollup_b = b.country_stats(country);
    ASSERT_EQ(rollup_a.size(), rollup_b.size());
    for (std::size_t r = 0; r < rollup_a.size(); ++r) {
      ASSERT_EQ(rollup_a[r].count, rollup_b[r].count);
      ASSERT_EQ(rollup_a[r].min_ms, rollup_b[r].min_ms);
      ASSERT_EQ(rollup_a[r].median_ms, rollup_b[r].median_ms);
      ASSERT_EQ(rollup_a[r].p95_ms, rollup_b[r].p95_ms);
    }
  }
}

[[nodiscard]] std::vector<std::uint8_t> image_of(const ColumnarStore& store) {
  std::ostringstream os(std::ios::binary);
  save_snapshot(store, os);
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

[[nodiscard]] ColumnarStore load_image(const std::vector<std::uint8_t>& image,
                                       const TinyWorld& world,
                                       SnapshotLoadOptions options = {}) {
  return load_snapshot(image, &world.fleet, &world.registry, StoreConfig{1},
                       options);
}

// Container header is 16 bytes; the first block (META) starts right
// after it, its payload 16 block-header bytes later. The corpus tests
// patch payload fields and re-seal the CRC so corruption reaches the
// *semantic* validators instead of the checksum.
constexpr std::size_t kMetaBlockAt = io::kContainerHeaderBytes;
constexpr std::size_t kMetaPayloadAt = kMetaBlockAt + io::kBlockHeaderBytes;

[[nodiscard]] std::uint64_t block_payload_len(
    const std::vector<std::uint8_t>& image, std::size_t block_at) {
  std::uint64_t len = 0;
  std::memcpy(&len, image.data() + block_at + 4, sizeof(len));
  return len;
}

void reseal_block_crc(std::vector<std::uint8_t>& image, std::size_t block_at) {
  const auto len = static_cast<std::size_t>(block_payload_len(image, block_at));
  std::uint32_t crc = io::crc32({image.data() + block_at, 12});
  crc = io::crc32({image.data() + block_at + io::kBlockHeaderBytes, len}, crc);
  std::memcpy(image.data() + block_at + 12, &crc, sizeof(crc));
}

[[nodiscard]] std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

constexpr std::uint32_t kShardTag = io::fourcc("SHRD");
constexpr std::uint32_t kShardStatsTag = io::fourcc("SSTA");
constexpr std::uint32_t kRunsTag = io::fourcc("RUNS");

/// Byte offsets of an image's block headers with tag `tag`, in file
/// order (every block when `tag` is 0).
[[nodiscard]] std::vector<std::size_t> blocks_of(
    const std::vector<std::uint8_t>& image, std::uint32_t tag = 0) {
  std::vector<std::size_t> out;
  std::size_t at = io::kContainerHeaderBytes;
  while (at < image.size()) {
    std::uint32_t got = 0;
    std::memcpy(&got, image.data() + at, sizeof(got));
    if (tag == 0 || got == tag) out.push_back(at);
    at += io::kBlockHeaderBytes +
          static_cast<std::size_t>(block_payload_len(image, at));
  }
  return out;
}

[[nodiscard]] std::size_t block_end(const std::vector<std::uint8_t>& image,
                                    std::size_t block_at) {
  return block_at + io::kBlockHeaderBytes +
         static_cast<std::size_t>(block_payload_len(image, block_at));
}

/// The image a v1 saver writes for the same store: the v2 image without
/// its RUNS blocks, META resealed at version 1.
[[nodiscard]] std::vector<std::uint8_t> as_v1(
    const std::vector<std::uint8_t>& image) {
  std::vector<std::uint8_t> out(image.begin(),
                                image.begin() + io::kContainerHeaderBytes);
  for (const std::size_t at : blocks_of(image)) {
    std::uint32_t tag = 0;
    std::memcpy(&tag, image.data() + at, sizeof(tag));
    if (tag == kRunsTag) continue;
    out.insert(out.end(), image.begin() + static_cast<std::ptrdiff_t>(at),
               image.begin() + static_cast<std::ptrdiff_t>(block_end(image, at)));
  }
  const std::uint32_t v1 = 1;
  std::memcpy(out.data() + kMetaPayloadAt, &v1, sizeof(v1));
  reseal_block_crc(out, kMetaBlockAt);
  return out;
}

/// Byte offset of value `i` of a RUNS block's concatenated runs.
[[nodiscard]] std::size_t run_value_at(std::size_t runs_at, std::size_t i) {
  return runs_at + io::kBlockHeaderBytes + sizeof(std::uint32_t) +
         i * sizeof(float);
}

/// "<exception type>: <message>" of a load, or "loaded" when it succeeds.
template <typename Load>
[[nodiscard]] std::string outcome_of(Load&& load) {
  try {
    (void)load();
    return "loaded";
  } catch (const SnapshotError& error) {
    return std::string("SnapshotError: ") + error.what();
  } catch (const io::BlockError& error) {
    return std::string("BlockError: ") + error.what();
  }
}

// ------------------------------------------------------------ round-trip

TEST(Snapshot, TinyRoundTripIsExact) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(world.standard_rows());
  store.refresh();

  const std::vector<std::uint8_t> image = image_of(store);
  ColumnarStore loaded = load_image(image, world);
  EXPECT_TRUE(loaded.fresh());
  expect_same_store(store, loaded);

  // Saving the loaded store reproduces the image bit for bit — the
  // format round-trips through itself, not just through the store.
  EXPECT_EQ(image_of(loaded), image);
}

TEST(Snapshot, EmptyStoreRoundTrips) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  ASSERT_TRUE(store.fresh());

  ColumnarStore loaded = load_image(image_of(store), world);
  EXPECT_TRUE(loaded.fresh());
  EXPECT_EQ(loaded.rows_stored(), 0u);
  EXPECT_EQ(loaded.rows_dropped(), 0u);
  EXPECT_EQ(loaded.shard_count(), 0u);
}

TEST(Snapshot, StaleStoreRefusesToSave) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(world.standard_rows());
  ASSERT_FALSE(store.fresh());
  std::ostringstream os(std::ios::binary);
  EXPECT_THROW(save_snapshot(store, os), std::logic_error);
}

TEST(Snapshot, LazyLoadDefersSummariesButKeepsColumns) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(world.standard_rows());
  store.refresh();

  SnapshotLoadOptions lazy;
  lazy.lazy_summaries = true;
  ColumnarStore loaded = load_image(image_of(store), world, lazy);
  EXPECT_FALSE(loaded.fresh());
  EXPECT_THROW((void)loaded.country_stats(0), std::logic_error);
  loaded.refresh();
  expect_same_store(store, loaded);
}

TEST(Snapshot, MidIngestSnapshotPlusAppendEqualsFullBuild) {
  // The satellite identity: build(N+M) == snapshot(N) → load → append(M),
  // for 1 and 8 worker threads on both sides of the snapshot.
  const CampaignWorld world;
  const atlas::MeasurementDataset dataset = world.run();
  ASSERT_GT(dataset.size(), 0u);
  const ColumnarStore one_shot = ColumnarStore::build(dataset, StoreConfig{1});

  const auto rows = dataset.records();
  const std::size_t cut = rows.size() / 3 + 1;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ColumnarStore partial(&dataset.fleet(), &dataset.registry(),
                          StoreConfig{threads});
    partial.append(rows.subspan(0, cut));
    partial.refresh();

    ColumnarStore resumed =
        load_snapshot(image_of(partial), &dataset.fleet(),
                      &dataset.registry(), StoreConfig{threads});
    resumed.append(rows.subspan(cut));
    resumed.refresh();
    expect_same_store(one_shot, resumed);
  }
}

TEST(Snapshot, FileRoundTripBufferedAndMmap) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(world.standard_rows());
  store.refresh();

  const std::string path = temp_path("snapshot_roundtrip.snap");
  save_snapshot(store, path);

  // The path overload maps the file and releases its pages as it goes.
  ColumnarStore mapped =
      load_snapshot(path, &world.fleet, &world.registry, StoreConfig{1});
  expect_same_store(store, mapped);

  // The same bytes read into a buffer load the same store.
  const io::FileBytes buffered =
      io::FileBytes::open(path, io::FileBytes::Mode::kRead);
  ASSERT_FALSE(buffered.mapped());
  expect_same_store(store, load_snapshot(buffered.bytes(), &world.fleet,
                                         &world.registry, StoreConfig{1}));

  // Released pages of a mapping read back from the file unchanged.
  const io::FileBytes file =
      io::FileBytes::open(path, io::FileBytes::Mode::kMmap);
  const std::vector<std::uint8_t> before(file.bytes().begin(),
                                         file.bytes().end());
  file.release(file.bytes());
  buffered.release(buffered.bytes());
  EXPECT_TRUE(std::equal(before.begin(), before.end(), file.bytes().begin(),
                         file.bytes().end()));
  EXPECT_EQ(image_of(store), before);
}

TEST(Snapshot, V1ImageLoadsToTheSameStore) {
  // A v1 image carries no sorted runs: the load sorts its columns
  // through refresh() and must arrive at the store a v2 load copies.
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(world.standard_rows());
  store.refresh();
  const std::vector<std::uint8_t> image = image_of(store);
  const std::vector<std::uint8_t> v1 = as_v1(image);
  ASSERT_EQ(v1.size(), image.size() - blocks_of(image, kRunsTag).size() *
                                          (io::kBlockHeaderBytes + 4) -
                           7 * sizeof(float));

  const ColumnarStore loaded = load_image(v1, world);
  EXPECT_TRUE(loaded.fresh());
  expect_same_store(store, loaded);
  EXPECT_EQ(image_of(loaded), image);  // re-saved as v2

  SnapshotLoadOptions lazy;
  lazy.lazy_summaries = true;
  ColumnarStore deferred = load_image(v1, world, lazy);
  deferred.refresh();
  expect_same_store(store, deferred);
}

TEST(Snapshot, SaveToUnwritablePathLeavesNoFile) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.refresh();
  const std::string path =
      temp_path("no_such_dir") + "/nested/snapshot.snap";
  EXPECT_THROW(save_snapshot(store, path), io::BlockError);
  EXPECT_FALSE(std::ifstream(path).good());
}

// --------------------------------------------------------- wrong worlds

TEST(Snapshot, WrongFleetIsRejected) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(world.standard_rows());
  store.refresh();
  const std::vector<std::uint8_t> image = image_of(store);

  // Same shape, one probe's access differs — the fingerprint must see it.
  const atlas::ProbeFleet other = atlas::ProbeFleet::from_probes({
      make_probe(0, "DE", net::AccessTechnology::kEthernet,
                 atlas::Environment::kHome),
      make_probe(1, "DE", net::AccessTechnology::kEthernet,
                 atlas::Environment::kHome),
      make_probe(2, "FR", net::AccessTechnology::kEthernet,
                 atlas::Environment::kHome),
      make_probe(3, "DE", net::AccessTechnology::kEthernet,
                 atlas::Environment::kDatacenter),
  });
  try {
    (void)load_snapshot(image, &other, &world.registry);
    FAIL() << "wrong fleet accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("fleet fingerprint"),
              std::string::npos)
        << error.what();
  }
}

TEST(Snapshot, WrongRegistryIsRejected) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(world.standard_rows());
  store.refresh();
  const std::vector<std::uint8_t> image = image_of(store);

  const topology::CloudRegistry other({topology::all_regions().data(),
                                       topology::all_regions().data() + 1});
  try {
    (void)load_snapshot(image, &world.fleet, &other);
    FAIL() << "wrong registry accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("registry fingerprint"),
              std::string::npos)
        << error.what();
  }
}

// -------------------------------------------------------- corrupt corpus

class SnapshotCorpus : public ::testing::Test {
 protected:
  void SetUp() override {
    store_.emplace(&world_.fleet, &world_.registry, StoreConfig{1});
    store_->append(world_.standard_rows());
    store_->refresh();
    image_ = image_of(*store_);
  }

  /// The RUNS block of the DE ethernet shard: one cell, 10 20 30 40.
  [[nodiscard]] std::size_t four_value_runs() const {
    for (const std::size_t at : blocks_of(image_, kRunsTag)) {
      if (block_payload_len(image_, at) == 4 + 4 * sizeof(float)) return at;
    }
    ADD_FAILURE() << "no four-value RUNS block";
    return 0;
  }

  TinyWorld world_;
  std::optional<ColumnarStore> store_;
  std::vector<std::uint8_t> image_;
};

TEST_F(SnapshotCorpus, TruncationAnywhereIsDetected) {
  // Every strict prefix must fail — header-only, mid-block-header,
  // mid-payload, and one byte short of complete.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{8}, io::kContainerHeaderBytes,
        kMetaPayloadAt - 3, kMetaPayloadAt + 20, image_.size() - 1}) {
    const std::vector<std::uint8_t> cut(image_.begin(),
                                        image_.begin() + keep);
    EXPECT_THROW((void)load_image(cut, world_), io::BlockError)
        << "prefix of " << keep << " bytes";
  }
}

TEST_F(SnapshotCorpus, FlippedByteFailsTheChecksum) {
  // Flip one bit in every 13th byte past the container header — block
  // heads and payloads alike must be caught by the CRC (or, for the
  // CRC field itself, by the mismatch it creates).
  for (std::size_t at = io::kContainerHeaderBytes; at < image_.size();
       at += 13) {
    std::vector<std::uint8_t> bad = image_;
    bad[at] ^= 0x10;
    EXPECT_THROW((void)load_image(bad, world_), io::BlockError)
        << "flip at byte " << at;
  }
}

TEST_F(SnapshotCorpus, WrongContainerVersionIsRejected) {
  std::vector<std::uint8_t> bad = image_;
  bad[8] = 0x7f;  // container version field, not covered by a block CRC
  EXPECT_THROW((void)load_image(bad, world_), io::BlockError);
}

TEST_F(SnapshotCorpus, WrongApplicationTagIsRejected) {
  std::vector<std::uint8_t> bad = image_;
  bad[12] = 'X';  // app fourcc: a delta log is not a snapshot
  EXPECT_THROW((void)load_image(bad, world_), io::BlockError);
}

TEST_F(SnapshotCorpus, WrongSnapshotVersionIsRejected) {
  std::vector<std::uint8_t> bad = image_;
  const std::uint32_t version = 99;
  std::memcpy(bad.data() + kMetaPayloadAt, &version, sizeof(version));
  reseal_block_crc(bad, kMetaBlockAt);
  try {
    (void)load_image(bad, world_);
    FAIL() << "wrong snapshot version accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("unsupported snapshot version"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(SnapshotCorpus, WrongFleetHashIsRejected) {
  std::vector<std::uint8_t> bad = image_;
  bad[kMetaPayloadAt + 4] ^= 0xff;  // fleet fingerprint, first byte
  reseal_block_crc(bad, kMetaBlockAt);
  try {
    (void)load_image(bad, world_);
    FAIL() << "wrong fleet hash accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("fleet fingerprint"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(SnapshotCorpus, ScalarTripwireCatchesColumnTampering) {
  // Rewrite the last RTT of the first shard to a different finite value
  // and re-seal the CRC: the checksum passes, row validation passes,
  // but the columns no longer hold the samples the cells were built
  // from. A v1 image rebuilds the summaries from the columns, which no
  // longer match the scalars recorded at save time; a v2 image fails
  // earlier, at the check that its sorted runs hold the columns.
  for (const bool v1 : {true, false}) {
    std::vector<std::uint8_t> bad = v1 ? as_v1(image_) : image_;
    const std::size_t shard_at =
        kMetaPayloadAt +
        static_cast<std::size_t>(block_payload_len(bad, kMetaBlockAt));
    const auto shard_len =
        static_cast<std::size_t>(block_payload_len(bad, shard_at));
    const float forged = 999.0f;
    std::memcpy(bad.data() + shard_at + io::kBlockHeaderBytes + shard_len -
                    sizeof(float),
                &forged, sizeof(forged));
    reseal_block_crc(bad, shard_at);
    try {
      (void)load_image(bad, world_);
      FAIL() << "tampered column accepted (v1 " << v1 << ")";
    } catch (const SnapshotError& error) {
      EXPECT_NE(std::string(error.what())
                    .find(v1 ? "does not match the scalars"
                             : "sorted runs do not hold the samples"),
                std::string::npos)
          << error.what();
    }
  }
}

// The v2 corpus: each image edits the sorted runs (or the counts that
// split them) and reseals the CRC, so only the run checks stand between
// it and a wrong store.

TEST_F(SnapshotCorpus, UnsortedRunIsRejected) {
  const std::size_t runs_at = four_value_runs();
  std::vector<std::uint8_t> bad = image_;
  std::vector<std::uint8_t> a(bad.begin() + run_value_at(runs_at, 0),
                              bad.begin() + run_value_at(runs_at, 1));
  std::copy(bad.begin() + run_value_at(runs_at, 1),
            bad.begin() + run_value_at(runs_at, 2),
            bad.begin() + run_value_at(runs_at, 0));
  std::copy(a.begin(), a.end(), bad.begin() + run_value_at(runs_at, 1));
  reseal_block_crc(bad, runs_at);
  EXPECT_NE(outcome_of([&] { return load_image(bad, world_); })
                .find("out of order"),
            std::string::npos);
}

TEST_F(SnapshotCorpus, RunLengthDisagreeingWithCountsIsRejected) {
  const std::size_t runs_at = four_value_runs();
  std::size_t ssta_at = 0;
  for (const std::size_t at : blocks_of(image_, kShardStatsTag)) {
    if (block_end(image_, at) == runs_at) ssta_at = at;
  }
  ASSERT_NE(runs_at, 0u);
  ASSERT_NE(ssta_at, 0u);

  // SSTA says region 0 holds 3 samples and region 1 one: region 0's run
  // comes out one value short, region 1's one value long.
  {
    std::vector<std::uint8_t> bad = image_;
    const std::size_t counts = ssta_at + io::kBlockHeaderBytes + 8;
    const std::uint64_t three = 3;
    const std::uint64_t one = 1;
    std::memcpy(bad.data() + counts, &three, sizeof(three));
    std::memcpy(bad.data() + counts + 32, &one, sizeof(one));
    reseal_block_crc(bad, ssta_at);
    EXPECT_NE(outcome_of([&] { return load_image(bad, world_); })
                  .find("multiset hash mismatch"),
              std::string::npos);
  }
  // The RUNS block one value short of, or one past, the shard's rows.
  for (const bool longer : {false, true}) {
    std::vector<std::uint8_t> bad = image_;
    const auto end = static_cast<std::ptrdiff_t>(block_end(bad, runs_at));
    if (longer) {
      const std::vector<std::uint8_t> extra(sizeof(float), 0x42);
      bad.insert(bad.begin() + end, extra.begin(), extra.end());
    } else {
      bad.erase(bad.begin() + end - 4, bad.begin() + end);
    }
    const std::uint64_t len =
        block_payload_len(image_, runs_at) + (longer ? 4 : -4);
    std::memcpy(bad.data() + runs_at + 4, &len, sizeof(len));
    reseal_block_crc(bad, runs_at);
    EXPECT_NE(outcome_of([&] { return load_image(bad, world_); })
                  .find("RUNS payload holds"),
              std::string::npos)
        << "longer " << longer;
  }
}

TEST_F(SnapshotCorpus, ReplacedRunValueFailsTheMultisetCheck) {
  // 40 -> 41 keeps the run sorted, finite and non-negative: only the
  // hash against the columns sees it.
  const std::size_t runs_at = four_value_runs();
  std::vector<std::uint8_t> bad = image_;
  const float forged = 41.0f;
  std::memcpy(bad.data() + run_value_at(runs_at, 3), &forged, sizeof(forged));
  reseal_block_crc(bad, runs_at);
  EXPECT_NE(outcome_of([&] { return load_image(bad, world_); })
                .find("multiset hash mismatch"),
            std::string::npos);
}

TEST_F(SnapshotCorpus, NanNegativeOrInfiniteRunValueIsRejected) {
  const std::size_t runs_at = four_value_runs();
  const struct {
    std::size_t index;
    float value;
    const char* why;
  } cases[] = {
      {3, std::numeric_limits<float>::quiet_NaN(), "holds a NaN"},
      {0, -1.0f, "or negative value"},
      {3, std::numeric_limits<float>::infinity(), "non-finite"},
  };
  for (const auto& c : cases) {
    std::vector<std::uint8_t> bad = image_;
    std::memcpy(bad.data() + run_value_at(runs_at, c.index), &c.value,
                sizeof(c.value));
    reseal_block_crc(bad, runs_at);
    const std::string outcome =
        outcome_of([&] { return load_image(bad, world_); });
    EXPECT_EQ(outcome.rfind("SnapshotError", 0), 0u) << outcome;
    EXPECT_NE(outcome.find(c.why), std::string::npos) << outcome;
  }
}

TEST_F(SnapshotCorpus, RunsBlockForMissingOrDuplicateShardIsRejected) {
  const std::vector<std::size_t> runs = blocks_of(image_, kRunsTag);
  std::vector<std::uint32_t> keys;
  for (const std::size_t at : blocks_of(image_, kShardTag)) {
    std::uint32_t key = 0;
    std::memcpy(&key, image_.data() + at + io::kBlockHeaderBytes, 4);
    keys.push_back(key);
  }
  std::uint32_t missing = 0;
  while (std::find(keys.begin(), keys.end(), missing) != keys.end()) {
    ++missing;
  }

  // A RUNS block keyed to a shard the image does not hold.
  {
    std::vector<std::uint8_t> bad = image_;
    std::memcpy(bad.data() + runs[0] + io::kBlockHeaderBytes, &missing, 4);
    reseal_block_crc(bad, runs[0]);
    EXPECT_NE(outcome_of([&] { return load_image(bad, world_); })
                  .find("RUNS block does not follow its shard"),
              std::string::npos);
  }
  // A second RUNS block for the same shard, first or last.
  for (const std::size_t at : {runs.front(), runs.back()}) {
    std::vector<std::uint8_t> bad = image_;
    const std::vector<std::uint8_t> copy(
        bad.begin() + static_cast<std::ptrdiff_t>(at),
        bad.begin() + static_cast<std::ptrdiff_t>(block_end(bad, at)));
    bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(block_end(bad, at)),
               copy.begin(), copy.end());
    const std::string outcome =
        outcome_of([&] { return load_image(bad, world_); });
    EXPECT_EQ(outcome.rfind("SnapshotError", 0), 0u) << outcome;
  }
  // A shard whose RUNS block is gone.
  {
    std::vector<std::uint8_t> bad = image_;
    bad.erase(bad.begin() + static_cast<std::ptrdiff_t>(runs[0]),
              bad.begin() + static_cast<std::ptrdiff_t>(block_end(bad, runs[0])));
    EXPECT_NE(outcome_of([&] { return load_image(bad, world_); })
                  .find("is missing its RUNS block"),
              std::string::npos);
  }
}

TEST_F(SnapshotCorpus, NegativeRttIsRejectedAtRowValidation) {
  std::vector<std::uint8_t> bad = image_;
  const std::size_t shard_at =
      kMetaPayloadAt +
      static_cast<std::size_t>(block_payload_len(bad, kMetaBlockAt));
  const auto shard_len =
      static_cast<std::size_t>(block_payload_len(bad, shard_at));
  const float forged = -1.0f;
  std::memcpy(bad.data() + shard_at + io::kBlockHeaderBytes + shard_len -
                  sizeof(float),
              &forged, sizeof(forged));
  reseal_block_crc(bad, shard_at);
  try {
    (void)load_image(bad, world_);
    FAIL() << "negative RTT accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("negative RTT"),
              std::string::npos)
        << error.what();
  }
}

// ------------------------------------------------------- skewed store

/// One huge shard (DE ethernet, 200 k rows over three regions) and a
/// tiny one in each of 60 other countries: the shape largest-first
/// refresh and the parallel save checksums are scheduled for.
struct SkewedWorld {
  topology::CloudRegistry registry{{topology::all_regions().data(),
                                    topology::all_regions().data() + 1,
                                    topology::all_regions().data() + 2}};
  atlas::ProbeFleet fleet;
  std::vector<atlas::Measurement> rows;

  SkewedWorld() : fleet(make_fleet()) {
    for (std::uint32_t i = 0; i < 200'000; ++i) {
      rows.push_back(row(0, static_cast<std::uint16_t>(i % 3), i,
                         5.0f + static_cast<float>((i * 7919u) % 1000) / 8.0f));
    }
    for (atlas::ProbeId p = 1; p < fleet.size(); ++p) {
      for (std::uint32_t t = 0; t < p % 4 + 1; ++t) {
        rows.push_back(row(p, static_cast<std::uint16_t>((p + t) % 3), t,
                           20.0f + static_cast<float>(p) +
                               static_cast<float>(t)));
      }
    }
  }

  static atlas::ProbeFleet make_fleet() {
    std::vector<atlas::Probe> probes;
    probes.push_back(make_probe(0, "DE", net::AccessTechnology::kEthernet,
                                atlas::Environment::kHome));
    for (const geo::Country& country : geo::all_countries()) {
      if (probes.size() == 61) break;
      if (country.iso2 == "DE") continue;
      probes.push_back(make_probe(static_cast<atlas::ProbeId>(probes.size()),
                                  std::string(country.iso2).c_str(),
                                  net::AccessTechnology::kEthernet,
                                  atlas::Environment::kHome));
    }
    return atlas::ProbeFleet::from_probes(std::move(probes));
  }

  [[nodiscard]] ColumnarStore build(std::size_t threads) const {
    ColumnarStore store(&fleet, &registry, StoreConfig{threads});
    store.append(rows);
    store.refresh();
    return store;
  }
};

TEST(SkewedStore, SummariesAndImageAreThreadInvariant) {
  const SkewedWorld world;
  const ColumnarStore one = world.build(1);
  ASSERT_EQ(one.shard_count(), 61u);
  const std::vector<std::uint8_t> image = image_of(one);
  for (const std::size_t threads : {std::size_t{3}, std::size_t{8}}) {
    const ColumnarStore store = world.build(threads);
    expect_same_store(one, store);
    EXPECT_EQ(image_of(store), image) << threads << " threads";
  }
  // Loading schedules the shards largest first on any thread count; the
  // loaded store — from the v2 image or its v1 form — saves the same
  // image again.
  const std::vector<std::uint8_t> v1 = as_v1(image);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    const ColumnarStore loaded = load_snapshot(
        image, &world.fleet, &world.registry, StoreConfig{threads});
    expect_same_store(one, loaded);
    EXPECT_EQ(image_of(loaded), image) << threads << " threads, loaded";

    const ColumnarStore from_v1 = load_snapshot(
        v1, &world.fleet, &world.registry, StoreConfig{threads});
    expect_same_store(loaded, from_v1);
    EXPECT_EQ(image_of(from_v1), image) << threads << " threads, v1";
  }
}

TEST(SkewedStore, IncrementalRefreshMatchesOneShotBuild) {
  // Appending the rows in three batches, refreshing after each, folds
  // deltas into cells of very different sizes on every thread count.
  const SkewedWorld world;
  const ColumnarStore one_shot = world.build(1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}}) {
    ColumnarStore store(&world.fleet, &world.registry, StoreConfig{threads});
    const std::span<const atlas::Measurement> all(world.rows);
    const std::size_t third = all.size() / 3;
    store.append(all.subspan(0, third));
    store.refresh();
    store.append(all.subspan(third, third));
    store.refresh();
    store.append(all.subspan(2 * third));
    store.refresh();
    expect_same_store(one_shot, store);
    EXPECT_EQ(image_of(store), image_of(one_shot)) << threads << " threads";
  }
}

TEST(SkewedStore, CorruptImagesAreRejected) {
  const SkewedWorld world;
  const std::vector<std::uint8_t> image = image_of(world.build(8));
  // Every corrupt image fails with the same error at every thread
  // count: the load reports the failure earliest in the file, whichever
  // worker met it first.
  const auto outcome = [&world](const std::vector<std::uint8_t>& bytes) {
    std::string first;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
      const std::string got = outcome_of([&] {
        return load_snapshot(bytes, &world.fleet, &world.registry,
                             StoreConfig{threads});
      });
      if (first.empty()) {
        first = got;
      } else {
        EXPECT_EQ(got, first) << threads << " threads";
      }
    }
    return first;
  };
  // A flipped bit anywhere — in the huge shard's columns or runs, a tiny
  // shard's prefix or a summary block — fails its block's checksum.
  const std::size_t stride = image.size() / 211 + 1;
  for (std::size_t at = io::kContainerHeaderBytes; at < image.size();
       at += stride) {
    std::vector<std::uint8_t> bad = image;
    bad[at] ^= 0x04;
    EXPECT_EQ(outcome(bad).rfind("BlockError: ", 0), 0u)
        << "flip at byte " << at;
  }
  for (const std::size_t keep :
       {io::kContainerHeaderBytes + 40, image.size() / 2, image.size() - 1}) {
    const std::vector<std::uint8_t> cut(image.begin(), image.begin() + keep);
    EXPECT_EQ(outcome(cut).rfind("BlockError: ", 0), 0u)
        << "prefix of " << keep;
  }

  // Content damage under resealed checksums, in the huge shard and in
  // a tiny one at the far end of the file, alone and together: the
  // earlier shard's error wins whatever the schedule.
  const std::vector<std::size_t> shards = blocks_of(image, kShardTag);
  const std::vector<std::size_t> runs = blocks_of(image, kRunsTag);
  ASSERT_EQ(shards.size(), 61u);
  ASSERT_EQ(runs.size(), 61u);
  std::size_t huge = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (block_payload_len(image, shards[i]) >
        block_payload_len(image, shards[huge])) {
      huge = i;
    }
  }
  const std::size_t tiny = huge < shards.size() / 2 ? shards.size() - 1 : 0;
  const auto forge_rtt = [](std::vector<std::uint8_t>& bytes,
                            std::size_t shard_at) {
    const float negative = -1.0f;
    std::memcpy(bytes.data() + block_end(bytes, shard_at) - sizeof(float),
                &negative, sizeof(negative));
    reseal_block_crc(bytes, shard_at);
  };
  const auto forge_run = [](std::vector<std::uint8_t>& bytes,
                            std::size_t runs_at) {
    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::memcpy(bytes.data() + run_value_at(runs_at, 0), &nan, sizeof(nan));
    reseal_block_crc(bytes, runs_at);
  };
  std::vector<std::uint8_t> huge_rtt = image;
  forge_rtt(huge_rtt, shards[huge]);
  std::vector<std::uint8_t> tiny_run = image;
  forge_run(tiny_run, runs[tiny]);
  std::vector<std::uint8_t> huge_run = image;
  forge_run(huge_run, runs[huge]);
  std::vector<std::uint8_t> both = tiny_run;
  forge_rtt(both, shards[huge]);
  std::vector<std::uint8_t> flip_and_run = tiny_run;
  flip_and_run[block_end(image, shards[huge]) - 1] ^= 0x01;

  const std::string rtt_error = outcome(huge_rtt);
  EXPECT_NE(rtt_error.find("negative RTT"), std::string::npos) << rtt_error;
  const std::string run_error = outcome(tiny_run);
  EXPECT_NE(run_error.find("out of order or holds a NaN"), std::string::npos)
      << run_error;
  EXPECT_NE(run_error, outcome(huge_run));
  EXPECT_EQ(outcome(both), huge < tiny ? rtt_error : run_error);
  const std::string flipped = outcome(flip_and_run);
  EXPECT_EQ(flipped.rfind(huge < tiny ? "BlockError: " : "SnapshotError: ", 0),
            0u)
      << flipped;
}

TEST(BlockFileCrc, MatchesTheBitwiseDefinitionAtEveryLengthAndOffset) {
  // crc32 folds long inputs with carry-less multiplication where the CPU
  // has it and finishes with the table loop: both must agree with the
  // bit-at-a-time CRC-32 for every alignment, tail and chained seed.
  const auto bitwise = [](std::span<const std::uint8_t> bytes,
                          std::uint32_t seed) {
    std::uint32_t c = ~seed;
    for (const std::uint8_t b : bytes) {
      c ^= b;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
    }
    return ~c;
  };
  std::vector<std::uint8_t> buffer(4096 + 64);
  std::uint32_t state = 12345;
  for (std::uint8_t& b : buffer) {
    state = state * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(state >> 24);
  }
  for (std::size_t len = 0; len < 300; len += (len < 140 ? 1 : 7)) {
    for (std::size_t offset = 0; offset < 16; offset += 5) {
      const std::span<const std::uint8_t> bytes(buffer.data() + offset, len);
      const std::uint32_t seed = len % 3 == 0 ? 0 : 0x9e3779b9u * len;
      ASSERT_EQ(io::crc32(bytes, seed), bitwise(bytes, seed))
          << "length " << len << ", offset " << offset;
    }
  }
  const std::span<const std::uint8_t> all(buffer);
  EXPECT_EQ(io::crc32(all), bitwise(all, 0));
  EXPECT_EQ(io::crc32(all.subspan(1000), io::crc32(all.subspan(0, 1000))),
            io::crc32(all));
}

TEST(BlockWriterParts, GatheredBlockEqualsTheStagedOne) {
  const std::vector<std::uint8_t> a = {1, 2, 3};
  const std::vector<std::uint8_t> b;
  const std::vector<std::uint8_t> c = {4, 5, 6, 7, 8, 9, 10, 11, 12};
  std::vector<std::uint8_t> joined = a;
  joined.insert(joined.end(), c.begin(), c.end());
  const std::uint32_t tag = io::fourcc("TEST");

  std::ostringstream staged(std::ios::binary);
  io::BlockWriter staged_writer(staged, tag, "test");
  staged_writer.add(tag, joined);
  staged_writer.finish();

  const std::span<const std::uint8_t> parts[] = {a, b, c};
  std::ostringstream gathered(std::ios::binary);
  io::BlockWriter gathered_writer(gathered, tag, "test");
  gathered_writer.add_parts(tag, parts, io::block_crc(tag, parts));
  gathered_writer.finish();
  EXPECT_EQ(gathered.str(), staged.str());

  // A CRC that does not cover every part yields a block readers reject.
  const std::span<const std::uint8_t> fewer[] = {a, b};
  std::ostringstream wrong(std::ios::binary);
  io::BlockWriter wrong_writer(wrong, tag, "test");
  wrong_writer.add_parts(tag, parts, io::block_crc(tag, fewer));
  wrong_writer.finish();
  const std::string bytes = wrong.str();
  io::BlockReader reader(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()},
      tag, "test");
  EXPECT_THROW((void)reader.next(), io::BlockError);
}

// ------------------------------------------------- shard overflow guard

TEST(StoreOverflowGuard, CapacityIsEnforcedWithStrongGuarantee) {
  // Regression for the u32 scatter-offset overflow: growth past the
  // per-shard ceiling must throw *before* any row lands. The synthetic
  // near-limit cap stands in for 2^32 - 1.
  const TinyWorld world;
  StoreConfig config;
  config.threads = 1;
  config.max_shard_rows = 4;
  ColumnarStore store(&world.fleet, &world.registry, config);

  std::vector<atlas::Measurement> five;
  for (std::uint32_t t = 0; t < 5; ++t) five.push_back(row(0, 0, t, 10.0f));
  try {
    store.append(five);
    FAIL() << "over-capacity batch accepted";
  } catch (const std::length_error& error) {
    EXPECT_NE(std::string(error.what()).find("DE"), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("no rows were appended"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(store.rows_stored(), 0u);  // strong guarantee: nothing landed

  // Filling exactly to the cap works; one more row over is refused and
  // leaves the store untouched — including rows bound for *other*
  // shards in the same rejected batch.
  five.pop_back();
  store.append(five);
  EXPECT_EQ(store.rows_stored(), 4u);
  EXPECT_THROW(
      store.append(std::vector<atlas::Measurement>{row(0, 0, 9, 10.0f),
                                                   row(2, 1, 9, 70.0f)}),
      std::length_error);
  EXPECT_EQ(store.rows_stored(), 4u);
  store.refresh();
  EXPECT_EQ(store.shard_count(), 1u);
}

TEST(StoreOverflowGuard, LoadedStoreInheritsTheConfiguredCap) {
  // A store restored from a snapshot must keep refusing growth past the
  // cap its loader configured.
  const TinyWorld world;
  StoreConfig config;
  config.threads = 1;
  config.max_shard_rows = 4;
  ColumnarStore store(&world.fleet, &world.registry, config);
  std::vector<atlas::Measurement> four;
  for (std::uint32_t t = 0; t < 4; ++t) four.push_back(row(0, 0, t, 10.0f));
  store.append(four);
  store.refresh();

  ColumnarStore loaded =
      load_snapshot(image_of(store), &world.fleet, &world.registry, config);
  EXPECT_THROW(
      loaded.append(std::vector<atlas::Measurement>{row(0, 0, 9, 10.0f)}),
      std::length_error);
}

// ------------------------------------------------------------ delta log

TEST(DeltaLog, BasePlusLogRecoversTheCrashedStore) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  const std::vector<atlas::Measurement> rows = world.standard_rows();

  // Base snapshot after the first three rows...
  store.append(std::span<const atlas::Measurement>(rows).subspan(0, 3));
  store.refresh();
  const std::string base = temp_path("delta_base.snap");
  const std::string log_path = temp_path("delta_tail.log");
  save_snapshot(store, base);

  // ...then two logged batches (the second carries the dropped rows).
  DeltaLog log(&store, log_path);
  log.publish(std::span<const atlas::Measurement>(rows).subspan(3, 3));
  log.publish(std::span<const atlas::Measurement>(rows).subspan(6));
  EXPECT_EQ(log.segments(), 2u);
  store.refresh();

  // "Crash": rebuild from base + log alone.
  ColumnarStore recovered =
      load_snapshot(base, &world.fleet, &world.registry, StoreConfig{1});
  EXPECT_EQ(apply_delta_log(recovered, log_path), 2u);
  recovered.refresh();
  expect_same_store(store, recovered);
}

TEST(DeltaLog, EmptyPublishWritesNoSegment) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  DeltaLog log(&store, temp_path("delta_empty.log"));
  log.publish({});
  EXPECT_EQ(log.segments(), 0u);
}

TEST(DeltaLog, ExtendContinuesAValidLog) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  const std::vector<atlas::Measurement> rows = world.standard_rows();
  const std::string log_path = temp_path("delta_extend.log");

  {
    DeltaLog log(&store, log_path);
    log.publish(std::span<const atlas::Measurement>(rows).subspan(0, 4));
  }
  {
    DeltaLog log(&store, log_path, DeltaLog::Open::kExtend);
    EXPECT_EQ(log.segments(), 1u);
    log.publish(std::span<const atlas::Measurement>(rows).subspan(4));
    EXPECT_EQ(log.segments(), 2u);
  }
  store.refresh();

  ColumnarStore recovered(&world.fleet, &world.registry, StoreConfig{1});
  EXPECT_EQ(apply_delta_log(recovered, log_path), 2u);
  recovered.refresh();
  expect_same_store(store, recovered);
}

TEST(DeltaLog, ExtendRejectsAStoreTheLogDoesNotExplain) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  const std::vector<atlas::Measurement> rows = world.standard_rows();
  const std::string log_path = temp_path("delta_drift.log");
  {
    DeltaLog log(&store, log_path);
    log.publish(std::span<const atlas::Measurement>(rows).subspan(0, 4));
  }
  // Rows appended *outside* the log: replaying it would lose them.
  store.append(std::span<const atlas::Measurement>(rows).subspan(4, 2));
  try {
    DeltaLog log(&store, log_path, DeltaLog::Open::kExtend);
    FAIL() << "drifted store accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("row accounting"),
              std::string::npos)
        << error.what();
  }
}

TEST(DeltaLog, CompactFoldsTheLogIntoAFreshBase) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  const std::vector<atlas::Measurement> rows = world.standard_rows();
  const std::string base = temp_path("compact_base.snap");
  const std::string log_path = temp_path("compact_tail.log");

  DeltaLog log(&store, log_path);
  log.publish(std::span<const atlas::Measurement>(rows).subspan(0, 5));
  store.refresh();
  log.compact(base);
  EXPECT_EQ(log.segments(), 0u);
  log.publish(std::span<const atlas::Measurement>(rows).subspan(5));
  store.refresh();

  ColumnarStore recovered =
      load_snapshot(base, &world.fleet, &world.registry, StoreConfig{1});
  EXPECT_EQ(apply_delta_log(recovered, log_path), 1u);
  recovered.refresh();
  expect_same_store(store, recovered);
}

TEST(DeltaLog, TornTailIsDetected) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  const std::string log_path = temp_path("delta_torn.log");
  {
    DeltaLog log(&store, log_path);
    log.publish(world.standard_rows());
  }

  // Chop a few bytes off the tail — the crash-mid-write shape.
  std::vector<char> bytes;
  {
    std::ifstream in(log_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 5u);
  {
    std::ofstream out(log_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 5));
  }

  ColumnarStore recovered(&world.fleet, &world.registry, StoreConfig{1});
  EXPECT_THROW((void)apply_delta_log(recovered, log_path), io::BlockError);
  EXPECT_EQ(recovered.rows_stored(), 0u);  // all-or-nothing replay
}

TEST(DeltaLog, ApplyRejectsTheWrongBase) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(world.standard_rows());  // log base records these counters
  const std::string log_path = temp_path("delta_wrong_base.log");
  DeltaLog log(&store, log_path);

  ColumnarStore empty(&world.fleet, &world.registry, StoreConfig{1});
  try {
    (void)apply_delta_log(empty, log_path);
    FAIL() << "wrong base accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("base rows"), std::string::npos)
        << error.what();
  }
}

TEST(DeltaLog, FailedStoreAppendNeverReachesTheLog) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  const std::string log_path = temp_path("delta_poison.log");
  DeltaLog log(&store, log_path);
  log.publish(std::vector<atlas::Measurement>{row(0, 0, 0, 10.0f)});

  // A batch the store rejects (unresolvable probe) must not grow the log.
  EXPECT_THROW(
      log.publish(std::vector<atlas::Measurement>{row(99, 0, 1, 10.0f)}),
      std::invalid_argument);
  EXPECT_EQ(log.segments(), 1u);

  ColumnarStore recovered(&world.fleet, &world.registry, StoreConfig{1});
  EXPECT_EQ(apply_delta_log(recovered, log_path), 1u);
  EXPECT_EQ(recovered.rows_stored(), 1u);
}

TEST(DeltaLog, CampaignSinkLogReplaysToTheSameStore) {
  // End to end: a campaign streams through the DeltaLog sink from an
  // empty base; replaying the log alone rebuilds the identical store.
  const CampaignWorld world;
  ColumnarStore live(&world.fleet, &world.registry, StoreConfig{2});
  const std::string log_path = temp_path("delta_campaign.log");
  DeltaLog log(&live, log_path);

  atlas::Campaign campaign(world.fleet, world.registry, world.model,
                           world.config);
  campaign.attach_sink(&log);
  (void)campaign.run();
  ASSERT_GT(log.segments(), 0u);
  live.refresh();

  ColumnarStore recovered(&world.fleet, &world.registry, StoreConfig{1});
  EXPECT_EQ(apply_delta_log(recovered, log_path), log.segments());
  recovered.refresh();
  expect_same_store(live, recovered);
}

// ---------------------------------------------- shipped scenarios

/// Deterministic mixed query batch over a fleet — the shape
/// test_serve's scenario suite uses: every kind, location and ISO-2
/// resolution, per-access filters, real and bogus app slugs.
std::vector<Query> scenario_queries(const atlas::ProbeFleet& fleet) {
  static const char* kApps[] = {"cloud-gaming", "no-such-app"};
  std::vector<Query> queries;
  const std::span<const atlas::Probe> probes = fleet.probes();
  for (std::size_t i = 0; i < probes.size(); i += 3) {
    const atlas::Probe& probe = probes[i];
    Query q;
    q.kind = static_cast<QueryKind>(i % 3);
    q.where = probe.endpoint.location;
    if (i % 2 == 0) q.country_iso2 = probe.country->iso2;
    q.any_access = (i % 5) != 0;
    q.access = probe.endpoint.access;
    if (q.kind == QueryKind::kFeasibility) q.app_id = kApps[(i / 3) % 2];
    if (q.kind == QueryKind::kTopK) {
      q.budget_ms = 20.0 + static_cast<double>(i % 7) * 30.0;
      q.k = static_cast<std::uint32_t>(i % 6);
    }
    queries.push_back(q);
  }
  return queries;
}

class ScenarioSnapshot : public testing::TestWithParam<const char*> {};

// The acceptance bar for persistence: on every shipped scenario, a
// store loaded from a snapshot answers the full mixed query batch
// byte-identically to the live-built store it was saved from — at 1
// and 8 oracle threads, eager and lazy — and re-saving it reproduces
// the image bit for bit.
TEST_P(ScenarioSnapshot, LoadedStoreAnswersIdentically) {
  const std::string path =
      std::string(SHEARS_SOURCE_DIR) + "/scenarios/" + GetParam();
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  config::Scenario s = config::parse_scenario(in);
  s.fleet.probe_count = std::min<std::size_t>(s.fleet.probe_count, 256);
  s.campaign.duration_days = 1;

  const topology::CloudRegistry registry = s.make_registry();
  const atlas::ProbeFleet fleet = atlas::ProbeFleet::generate(s.fleet);
  const net::LatencyModel model(s.model);
  const faults::FaultSchedule schedule = s.make_fault_schedule();
  const atlas::Campaign campaign(fleet, registry, model, s.campaign,
                                 schedule.empty() ? nullptr : &schedule);
  const atlas::MeasurementDataset dataset = campaign.run();
  ASSERT_GT(dataset.size(), 0u);

  const ColumnarStore live = ColumnarStore::build(dataset, StoreConfig{1});
  const std::vector<Query> queries = scenario_queries(fleet);
  const std::vector<Answer> expected =
      Oracle(&live, OracleConfig{1, {}}).answer(queries);

  std::ostringstream image;
  save_snapshot(live, image);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (const bool lazy : {false, true}) {
      SnapshotLoadOptions options;
      options.lazy_summaries = lazy;
      const std::string bytes = image.str();
      ColumnarStore loaded = load_snapshot(
          {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()},
          &fleet, &registry, StoreConfig{threads}, options);
      if (lazy) loaded.refresh();
      const std::vector<Answer> got =
          Oracle(&loaded, OracleConfig{threads, {}}).answer(queries);
      std::string why;
      EXPECT_TRUE(answers_identical(expected, got, why))
          << GetParam() << " (threads " << threads << ", lazy " << lazy
          << "): " << why;
      std::ostringstream resaved;
      save_snapshot(loaded, resaved);
      EXPECT_EQ(resaved.str(), image.str())
          << GetParam() << ": re-saved image diverges";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllShippedScenarios, ScenarioSnapshot,
                         testing::Values("paper_9_months.ini",
                                         "five_g_delivers.ini",
                                         "cloud_2014.ini",
                                         "hyperscalers_only.ini",
                                         "stress_noisy_network.ini",
                                         "faulted_9_months.ini"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           return name.substr(0, name.find('.'));
                         });

// ---------------------------------------------------------- fingerprints

TEST(Fingerprints, SensitiveToEveryIdentityField) {
  const TinyWorld world;
  const std::uint64_t base = fleet_fingerprint(world.fleet);
  EXPECT_EQ(base, fleet_fingerprint(world.fleet));  // deterministic

  const atlas::ProbeFleet moved = atlas::ProbeFleet::from_probes({
      make_probe(0, "DE", net::AccessTechnology::kEthernet,
                 atlas::Environment::kHome),
      make_probe(1, "DE", net::AccessTechnology::kLte,
                 atlas::Environment::kHome),
      make_probe(2, "AT", net::AccessTechnology::kEthernet,  // FR -> AT
                 atlas::Environment::kHome),
      make_probe(3, "DE", net::AccessTechnology::kEthernet,
                 atlas::Environment::kDatacenter),
  });
  EXPECT_NE(base, fleet_fingerprint(moved));

  const std::uint64_t registry_base = registry_fingerprint(world.registry);
  const topology::CloudRegistry shrunk({topology::all_regions().data(),
                                        topology::all_regions().data() + 1});
  EXPECT_NE(registry_base, registry_fingerprint(shrunk));
}

}  // namespace
}  // namespace shears::serve
