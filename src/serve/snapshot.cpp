#include "serve/snapshot.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "geo/country.hpp"
#include "net/access.hpp"

namespace shears::serve {

// Bulk columns (u32/u16/f32 arrays, f64 scalars) are memcpy'd in native
// byte order; the container doc pins the format to little-endian, so
// refuse to build a writer that would emit something else.
static_assert(std::endian::native == std::endian::little,
              "snapshot format is little-endian; big-endian hosts need a "
              "byte-swapping serialiser");

/// The one door into ColumnarStore's representation (befriended in
/// columnar.hpp): snapshot save reads the raw columns and counters,
/// load writes them back (a restored shard's summaries cover none of
/// its rows yet, so the next refresh() rebuilds them).
struct SnapshotAccess {
  using KeyGroup = ColumnarStore::KeyGroup;

  static const std::vector<KeyGroup>& groups(const ColumnarStore& s) {
    return s.groups_;
  }
  static std::vector<KeyGroup>& groups(ColumnarStore& s) { return s.groups_; }
  static const std::vector<std::uint32_t>& probe_key(const ColumnarStore& s) {
    return s.probe_key_;
  }
  static const std::vector<std::vector<RegionStats>>& country_stats(
      const ColumnarStore& s) {
    return s.country_stats_;
  }
  static void set_counters(ColumnarStore& s, std::size_t stored,
                           std::size_t dropped) {
    s.rows_stored_ = stored;
    s.rows_dropped_ = dropped;
  }
  static void set_fresh(ColumnarStore& s, bool fresh) { s.fresh_ = fresh; }
  static std::size_t threads(const ColumnarStore& s) {
    return s.config_.threads;
  }
};

namespace {

constexpr std::uint32_t kMetaTag = io::fourcc("META");
constexpr std::uint32_t kShardTag = io::fourcc("SHRD");
constexpr std::uint32_t kShardStatsTag = io::fourcc("SSTA");
constexpr std::uint32_t kCountryStatsTag = io::fourcc("CSTA");
constexpr std::uint32_t kDeltaMetaTag = io::fourcc("DMET");
constexpr std::uint32_t kSegmentTag = io::fourcc("DSEG");

constexpr std::uint32_t kSkipKey = 0xffffffffu;
constexpr std::uint64_t kMaxShardRows = 0xffffffffu;

/// Serialised atlas::Measurement: fields in declaration order, packed
/// (the in-memory struct has alignment padding the format must not).
constexpr std::size_t kRecordBytes = 26;

// ---------------------------------------------------------------------------
// Payload building / parsing.

class PayloadWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f32(float v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  [[nodiscard]] std::span<const std::uint8_t> span() const noexcept {
    return bytes_;
  }
  void clear() { bytes_.clear(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// A column's bytes as written into a payload (native order).
template <typename T>
[[nodiscard]] std::span<const std::uint8_t> column_bytes(
    const std::vector<T>& column) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(column.data()),
          column.size() * sizeof(T)};
}

/// Bounds-checked reader over one block payload; any overrun or
/// leftover bytes is a precise SnapshotError, never UB.
class Cursor {
 public:
  Cursor(std::span<const std::uint8_t> bytes, std::string what)
      : bytes_(bytes), what_(std::move(what)) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return scalar<std::uint16_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  float f32() { return scalar<float>(); }
  double f64() { return scalar<double>(); }

  std::span<const std::uint8_t> take(std::size_t n) {
    if (n > bytes_.size() - at_) {
      throw SnapshotError(what_ + ": payload truncated (wanted " +
                          std::to_string(n) + " more bytes, " +
                          std::to_string(bytes_.size() - at_) + " left)");
    }
    const std::span<const std::uint8_t> out = bytes_.subspan(at_, n);
    at_ += n;
    return out;
  }

  /// Every payload must be consumed exactly — trailing bytes mean the
  /// writer and reader disagree about the layout.
  void require_done() const {
    if (at_ != bytes_.size()) {
      throw SnapshotError(what_ + ": " + std::to_string(bytes_.size() - at_) +
                          " unexpected trailing payload bytes");
    }
  }

 private:
  template <typename T>
  T scalar() {
    T v;
    std::memcpy(&v, take(sizeof(T)).data(), sizeof(T));
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t at_ = 0;
  std::string what_;
};

// ---------------------------------------------------------------------------
// Fingerprints.

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;

  void bytes(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ p[i]) * 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) noexcept { bytes(&v, sizeof(v)); }
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) noexcept {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

/// Bit-exact scalar comparison; the cells never hold NaN (empty cells
/// keep their 0.0 defaults), so bit equality is the right notion.
[[nodiscard]] bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// One cell's derived scalars as recorded in SSTA/CSTA blocks.
struct CellScalars {
  std::uint64_t count = 0;
  double min_ms = 0.0;
  double median_ms = 0.0;
  double p95_ms = 0.0;
};

void write_cells(PayloadWriter& payload, std::span<const RegionStats> cells) {
  payload.u32(static_cast<std::uint32_t>(cells.size()));
  for (const RegionStats& cell : cells) {
    payload.u64(cell.count);
    payload.f64(cell.min_ms);
    payload.f64(cell.median_ms);
    payload.f64(cell.p95_ms);
  }
}

[[nodiscard]] std::vector<CellScalars> read_cells(Cursor& cursor,
                                                  std::size_t regions,
                                                  const std::string& what) {
  const std::uint32_t n = cursor.u32();
  if (n != regions) {
    throw SnapshotError(what + ": summary covers " + std::to_string(n) +
                        " regions, registry has " + std::to_string(regions));
  }
  std::vector<CellScalars> cells(n);
  for (CellScalars& cell : cells) {
    cell.count = cursor.u64();
    cell.min_ms = cursor.f64();
    cell.median_ms = cursor.f64();
    cell.p95_ms = cursor.f64();
  }
  return cells;
}

void verify_cells(std::span<const RegionStats> rebuilt,
                  std::span<const CellScalars> stored,
                  const std::string& what) {
  for (std::size_t r = 0; r < rebuilt.size(); ++r) {
    const RegionStats& a = rebuilt[r];
    const CellScalars& b = stored[r];
    if (a.count != b.count || !same_bits(a.min_ms, b.min_ms) ||
        !same_bits(a.median_ms, b.median_ms) ||
        !same_bits(a.p95_ms, b.p95_ms)) {
      throw SnapshotError(
          what + ": summary of region " + std::to_string(r) +
          " rebuilt from the columns does not match the scalars recorded "
          "at save time — snapshot is corrupt or was written by an "
          "incompatible build");
    }
  }
}

void encode_record(PayloadWriter& payload, const atlas::Measurement& m) {
  payload.u32(m.probe_id);
  payload.u16(m.region_index);
  payload.u32(m.tick);
  payload.f32(m.min_ms);
  payload.f32(m.avg_ms);
  payload.f32(m.max_ms);
  payload.u8(m.sent);
  payload.u8(m.received);
  payload.u8(m.retries);
  payload.u8(m.faults);
}

[[nodiscard]] atlas::Measurement decode_record(Cursor& cursor) {
  atlas::Measurement m;
  m.probe_id = cursor.u32();
  m.region_index = cursor.u16();
  m.tick = cursor.u32();
  m.min_ms = cursor.f32();
  m.avg_ms = cursor.f32();
  m.max_ms = cursor.f32();
  m.sent = cursor.u8();
  m.received = cursor.u8();
  m.retries = cursor.u8();
  m.faults = cursor.u8();
  return m;
}

[[nodiscard]] std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Fingerprints.

std::uint64_t fleet_fingerprint(const atlas::ProbeFleet& fleet) {
  Fnv1a f;
  f.u64(fleet.size());
  for (const atlas::Probe& probe : fleet.probes()) {
    f.u64(probe.id);
    f.str(probe.country != nullptr ? probe.country->iso2 : std::string_view{});
    f.u64(static_cast<std::uint64_t>(probe.endpoint.access));
    f.u64(static_cast<std::uint64_t>(probe.environment));
    f.u64(probe.privileged() ? 1 : 0);
    f.f64(probe.endpoint.location.lat_deg);
    f.f64(probe.endpoint.location.lon_deg);
  }
  return f.h;
}

std::uint64_t registry_fingerprint(const topology::CloudRegistry& registry) {
  Fnv1a f;
  f.u64(registry.size());
  for (const topology::CloudRegion* region : registry.regions()) {
    f.u64(static_cast<std::uint64_t>(region->provider));
    f.str(region->region_id);
    f.f64(region->location.lat_deg);
    f.f64(region->location.lon_deg);
    f.u64(static_cast<std::uint64_t>(region->launch_year));
  }
  return f.h;
}

// ---------------------------------------------------------------------------
// Save.

void save_snapshot(const ColumnarStore& store, std::ostream& os) {
  if (!store.fresh()) {
    throw std::logic_error(
        "save_snapshot: refresh() the store first — snapshots record the "
        "summary scalars for load-time verification");
  }
  const auto& groups = SnapshotAccess::groups(store);
  const auto& country_stats = SnapshotAccess::country_stats(store);

  // A SHRD payload is the key/n prefix and the four columns, checksummed
  // up front straight from the store's columns — in parallel, largest
  // shard first — then written in key order from the same spans, so the
  // image is byte for byte the one a serial save writes.
  struct ShardBlock {
    std::size_t key = 0;
    std::array<std::uint8_t, 12> prefix{};
    std::uint32_t crc = 0;
  };
  std::vector<ShardBlock> shard_blocks;
  std::vector<std::uint64_t> weights;
  for (std::size_t key = 0; key < groups.size(); ++key) {
    const std::uint64_t n = groups[key].rtt_ms.size();
    if (n == 0) continue;
    ShardBlock& block = shard_blocks.emplace_back();
    block.key = key;
    const auto key32 = static_cast<std::uint32_t>(key);
    std::memcpy(block.prefix.data(), &key32, sizeof(key32));
    std::memcpy(block.prefix.data() + sizeof(key32), &n, sizeof(n));
    weights.push_back(n);
  }
  const auto shard_parts = [&groups](const ShardBlock& block) {
    const auto& group = groups[block.key];
    return std::array<std::span<const std::uint8_t>, 5>{
        block.prefix, column_bytes(group.probe_ids),
        column_bytes(group.region_index), column_bytes(group.ticks),
        column_bytes(group.rtt_ms)};
  };
  core::parallel_largest_first(
      weights, SnapshotAccess::threads(store), [&](std::size_t i) {
        shard_blocks[i].crc =
            io::block_crc(kShardTag, shard_parts(shard_blocks[i]));
      });

  std::uint32_t rollup_count = 0;
  for (const auto& rollup : country_stats) {
    if (!rollup.empty()) ++rollup_count;
  }

  io::BlockWriter writer(os, kSnapshotTag, "snapshot");
  PayloadWriter payload;
  payload.u32(kSnapshotVersion);
  payload.u64(fleet_fingerprint(store.fleet()));
  payload.u64(registry_fingerprint(store.registry()));
  payload.u64(store.rows_stored());
  payload.u64(store.rows_dropped());
  payload.u32(static_cast<std::uint32_t>(geo::country_count()));
  payload.u32(static_cast<std::uint32_t>(net::kAccessTechnologyCount));
  payload.u32(static_cast<std::uint32_t>(store.registry().size()));
  payload.u32(static_cast<std::uint32_t>(shard_blocks.size()));
  payload.u32(rollup_count);
  writer.add(kMetaTag, payload.span());

  for (const ShardBlock& block : shard_blocks) {
    writer.add_parts(kShardTag, shard_parts(block), block.crc);
    payload.clear();
    payload.u32(static_cast<std::uint32_t>(block.key));
    write_cells(payload, groups[block.key].stats);
    writer.add(kShardStatsTag, payload.span());
  }

  for (std::size_t c = 0; c < country_stats.size(); ++c) {
    if (country_stats[c].empty()) continue;
    payload.clear();
    payload.u32(static_cast<std::uint32_t>(c));
    write_cells(payload, country_stats[c]);
    writer.add(kCountryStatsTag, payload.span());
  }

  writer.finish();
}

void save_snapshot(const ColumnarStore& store, const std::string& path) {
  io::AtomicFileWriter file(path);
  save_snapshot(store, file.stream());
  file.commit();
}

// ---------------------------------------------------------------------------
// Load.

ColumnarStore load_snapshot(std::span<const std::uint8_t> bytes,
                            const atlas::ProbeFleet* fleet,
                            const topology::CloudRegistry* registry,
                            StoreConfig config, SnapshotLoadOptions options) {
  ColumnarStore store(fleet, registry, config);
  auto& groups = SnapshotAccess::groups(store);
  const auto& probe_key = SnapshotAccess::probe_key(store);
  std::vector<bool> country_has_shards(geo::country_count(), false);
  const std::size_t regions = registry->size();

  io::BlockReader reader(bytes, kSnapshotTag, "snapshot");

  // META — identity first: nothing row-sized is parsed until the
  // snapshot is known to describe this exact fleet/registry pair.
  std::optional<io::Block> block = reader.next();
  if (!block || block->tag != kMetaTag) {
    throw SnapshotError("snapshot: first block must be META");
  }
  Cursor meta(block->payload, "snapshot META");
  const std::uint32_t version = meta.u32();
  if (version != kSnapshotVersion) {
    throw SnapshotError("snapshot: unsupported snapshot version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(kSnapshotVersion) + ")");
  }
  const std::uint64_t want_fleet = meta.u64();
  const std::uint64_t have_fleet = fleet_fingerprint(*fleet);
  if (want_fleet != have_fleet) {
    throw SnapshotError(
        "snapshot: fleet fingerprint mismatch — snapshot was written "
        "against " +
        hex64(want_fleet) + ", this fleet is " + hex64(have_fleet));
  }
  const std::uint64_t want_registry = meta.u64();
  const std::uint64_t have_registry = registry_fingerprint(*registry);
  if (want_registry != have_registry) {
    throw SnapshotError(
        "snapshot: registry fingerprint mismatch — snapshot was written "
        "against " +
        hex64(want_registry) + ", this registry is " + hex64(have_registry));
  }
  const std::uint64_t rows_stored = meta.u64();
  const std::uint64_t rows_dropped = meta.u64();
  const std::uint32_t country_count = meta.u32();
  const std::uint32_t access_count = meta.u32();
  const std::uint32_t region_count = meta.u32();
  if (country_count != geo::country_count() ||
      access_count != net::kAccessTechnologyCount || region_count != regions) {
    throw SnapshotError(
        "snapshot: dimension mismatch (countries/accesses/regions " +
        std::to_string(country_count) + "/" + std::to_string(access_count) +
        "/" + std::to_string(region_count) + " vs " +
        std::to_string(geo::country_count()) + "/" +
        std::to_string(net::kAccessTechnologyCount) + "/" +
        std::to_string(regions) + ")");
  }
  const std::uint32_t group_count = meta.u32();
  const std::uint32_t rollup_count = meta.u32();
  meta.require_done();

  // SHRD + SSTA pairs, one per non-empty shard.
  std::vector<std::pair<std::uint32_t, std::vector<CellScalars>>> shard_cells;
  shard_cells.reserve(group_count);
  std::uint64_t total_rows = 0;
  for (std::uint32_t g = 0; g < group_count; ++g) {
    block = reader.next();
    if (!block || block->tag != kShardTag) {
      throw SnapshotError("snapshot: expected SHRD block " +
                          std::to_string(g + 1) + " of " +
                          std::to_string(group_count));
    }
    Cursor shard(block->payload, "snapshot SHRD");
    const std::uint32_t key = shard.u32();
    if (key >= groups.size()) {
      throw SnapshotError("snapshot: shard key " + std::to_string(key) +
                          " out of range (" + std::to_string(groups.size()) +
                          " shards)");
    }
    auto& group = groups[key];
    if (!group.rtt_ms.empty()) {
      throw SnapshotError("snapshot: duplicate shard key " +
                          std::to_string(key));
    }
    const std::uint64_t n = shard.u64();
    if (n == 0 || n > kMaxShardRows) {
      throw SnapshotError("snapshot: shard " + std::to_string(key) +
                          " row count " + std::to_string(n) +
                          " outside [1, 2^32 - 1]");
    }
    // Size the payload against the claimed row count *before* resizing
    // the columns: a crafted count field must produce an error, not a
    // multi-gigabyte allocation.
    const std::uint64_t want_bytes =
        sizeof(std::uint32_t) + sizeof(std::uint64_t) +
        n * (sizeof(std::uint32_t) + sizeof(std::uint16_t) +
             sizeof(std::uint32_t) + sizeof(float));
    if (block->payload.size() != want_bytes) {
      throw SnapshotError("snapshot: shard " + std::to_string(key) +
                          " payload holds " +
                          std::to_string(block->payload.size()) +
                          " bytes but its row count implies " +
                          std::to_string(want_bytes));
    }
    const std::size_t rows = static_cast<std::size_t>(n);
    group.probe_ids.resize(rows);
    group.region_index.resize(rows);
    group.ticks.resize(rows);
    group.rtt_ms.resize(rows);
    std::memcpy(group.probe_ids.data(),
                shard.take(rows * sizeof(std::uint32_t)).data(),
                rows * sizeof(std::uint32_t));
    std::memcpy(group.region_index.data(),
                shard.take(rows * sizeof(std::uint16_t)).data(),
                rows * sizeof(std::uint16_t));
    std::memcpy(group.ticks.data(),
                shard.take(rows * sizeof(std::uint32_t)).data(),
                rows * sizeof(std::uint32_t));
    std::memcpy(group.rtt_ms.data(), shard.take(rows * sizeof(float)).data(),
                rows * sizeof(float));
    shard.require_done();

    // Row validation: every stored row must still resolve, against this
    // fleet, to exactly the shard it sits in.
    for (std::size_t i = 0; i < rows; ++i) {
      const std::uint32_t probe = group.probe_ids[i];
      if (probe >= probe_key.size() || probe_key[probe] != key) {
        throw SnapshotError("snapshot: shard " + std::to_string(key) +
                            " row " + std::to_string(i) + ": probe " +
                            std::to_string(probe) +
                            " does not map to this shard");
      }
      if (group.region_index[i] >= regions) {
        throw SnapshotError("snapshot: shard " + std::to_string(key) +
                            " row " + std::to_string(i) + ": region " +
                            std::to_string(group.region_index[i]) +
                            " out of range");
      }
      const float rtt = group.rtt_ms[i];
      if (!std::isfinite(rtt) || rtt < 0.0f) {
        throw SnapshotError("snapshot: shard " + std::to_string(key) +
                            " row " + std::to_string(i) +
                            ": non-finite or negative RTT");
      }
    }
    country_has_shards[key / net::kAccessTechnologyCount] = true;
    total_rows += n;

    block = reader.next();
    if (!block || block->tag != kShardStatsTag) {
      throw SnapshotError("snapshot: shard " + std::to_string(key) +
                          " is missing its SSTA summary block");
    }
    Cursor ssta(block->payload, "snapshot SSTA");
    if (ssta.u32() != key) {
      throw SnapshotError("snapshot: SSTA block does not follow its shard (" +
                          std::to_string(key) + ")");
    }
    shard_cells.emplace_back(key, read_cells(ssta, regions, "snapshot SSTA"));
    ssta.require_done();
  }
  if (total_rows != rows_stored) {
    throw SnapshotError("snapshot: shard rows sum to " +
                        std::to_string(total_rows) + " but META records " +
                        std::to_string(rows_stored) + " stored rows");
  }

  // CSTA country rollups, then the END. terminator (enforced by the
  // reader draining to nullopt).
  std::vector<std::pair<std::uint32_t, std::vector<CellScalars>>> rollup_cells;
  rollup_cells.reserve(rollup_count);
  std::vector<bool> rollup_seen(geo::country_count(), false);
  while ((block = reader.next())) {
    if (block->tag != kCountryStatsTag) {
      throw SnapshotError("snapshot: unexpected block '" +
                          io::fourcc_name(block->tag) +
                          "' after the shard list");
    }
    Cursor csta(block->payload, "snapshot CSTA");
    const std::uint32_t country = csta.u32();
    if (country >= geo::country_count()) {
      throw SnapshotError("snapshot: rollup country index " +
                          std::to_string(country) + " out of range");
    }
    if (rollup_seen[country]) {
      throw SnapshotError("snapshot: duplicate rollup for country " +
                          std::to_string(country));
    }
    if (!country_has_shards[country]) {
      throw SnapshotError("snapshot: rollup for country " +
                          std::to_string(country) + " which has no shards");
    }
    rollup_seen[country] = true;
    rollup_cells.emplace_back(country,
                              read_cells(csta, regions, "snapshot CSTA"));
    csta.require_done();
  }
  if (rollup_cells.size() != rollup_count) {
    throw SnapshotError("snapshot: " + std::to_string(rollup_cells.size()) +
                        " rollup blocks but META records " +
                        std::to_string(rollup_count));
  }
  for (std::size_t c = 0; c < country_has_shards.size(); ++c) {
    if (country_has_shards[c] && !rollup_seen[c]) {
      throw SnapshotError("snapshot: country " + std::to_string(c) +
                          " has shards but no rollup block");
    }
  }

  SnapshotAccess::set_counters(store, static_cast<std::size_t>(rows_stored),
                               static_cast<std::size_t>(rows_dropped));
  SnapshotAccess::set_fresh(store, total_rows == 0);

  if (!options.lazy_summaries && total_rows != 0) {
    // Rebuild the summaries through the store's own machinery, then
    // cross-check against the scalars recorded at save time: columns are
    // authoritative, scalars are the tripwire.
    store.refresh();
    for (const auto& [key, cells] : shard_cells) {
      verify_cells(groups[key].stats, cells,
                   "snapshot: shard " + std::to_string(key));
    }
    const auto& country_stats = SnapshotAccess::country_stats(store);
    for (const auto& [country, cells] : rollup_cells) {
      verify_cells(country_stats[country], cells,
                   "snapshot: country " + std::to_string(country));
    }
  }
  return store;
}

ColumnarStore load_snapshot(const std::string& path,
                            const atlas::ProbeFleet* fleet,
                            const topology::CloudRegistry* registry,
                            StoreConfig config, SnapshotLoadOptions options) {
  const io::FileBytes file = io::FileBytes::open(
      path, options.mmap ? io::FileBytes::Mode::kMmap
                         : io::FileBytes::Mode::kRead);
  return load_snapshot(file.bytes(), fleet, registry, config, options);
}

// ---------------------------------------------------------------------------
// Delta log.

struct DeltaLog::Impl {
  std::ofstream out;
};

DeltaLog::DeltaLog(ColumnarStore* store, std::string path, Open open)
    : store_(store), path_(std::move(path)), impl_(new Impl) {
  try {
    if (open == Open::kTruncate) {
      write_header();
      return;
    }

    // kExtend: the existing log must be a valid continuation of the
    // store — same fleet/registry, and its base counters plus the
    // logged rows must land exactly on the store's current counters.
    const io::FileBytes file =
        io::FileBytes::open(path_, io::FileBytes::Mode::kRead);
    io::BlockReader reader(file.bytes(), kDeltaTag, "delta log",
                           /*require_end=*/false);
    std::optional<io::Block> block = reader.next();
    if (!block || block->tag != kDeltaMetaTag) {
      throw SnapshotError("delta log: first block must be DMET");
    }
    Cursor dmet(block->payload, "delta log DMET");
    const std::uint32_t version = dmet.u32();
    if (version != kSnapshotVersion) {
      throw SnapshotError("delta log: unsupported version " +
                          std::to_string(version) + " (this build reads " +
                          std::to_string(kSnapshotVersion) + ")");
    }
    if (dmet.u64() != fleet_fingerprint(store_->fleet()) ||
        dmet.u64() != registry_fingerprint(store_->registry())) {
      throw SnapshotError(
          "delta log: fleet/registry fingerprint mismatch — log belongs to "
          "a different world");
    }
    const std::uint64_t base_stored = dmet.u64();
    const std::uint64_t base_dropped = dmet.u64();
    dmet.require_done();

    const auto& probe_key = SnapshotAccess::probe_key(*store_);
    std::uint64_t stored = 0;
    std::uint64_t dropped = 0;
    std::size_t segments = 0;
    while ((block = reader.next())) {
      if (block->tag != kSegmentTag) {
        throw SnapshotError("delta log: unexpected block '" +
                            io::fourcc_name(block->tag) + "'");
      }
      Cursor seg(block->payload, "delta log DSEG");
      const std::uint64_t count = seg.u64();
      for (std::uint64_t i = 0; i < count; ++i) {
        const atlas::Measurement m = decode_record(seg);
        if (m.probe_id >= probe_key.size()) {
          throw SnapshotError("delta log: probe " +
                              std::to_string(m.probe_id) + " out of range");
        }
        if (!m.lost() && probe_key[m.probe_id] != kSkipKey) {
          ++stored;
        } else {
          ++dropped;
        }
      }
      seg.require_done();
      ++segments;
    }
    if (base_stored + stored != store_->rows_stored() ||
        base_dropped + dropped != store_->rows_dropped()) {
      throw SnapshotError(
          "delta log: row accounting does not match the store (base " +
          std::to_string(base_stored) + "+" + std::to_string(stored) +
          " stored vs " + std::to_string(store_->rows_stored()) +
          ") — restore the base snapshot and apply_delta_log(), or start a "
          "fresh log");
    }
    segments_ = segments;

    impl_->out.open(path_, std::ios::binary | std::ios::app);
    if (!impl_->out) {
      throw SnapshotError(path_ + ": cannot reopen delta log for append");
    }
  } catch (...) {
    delete impl_;
    impl_ = nullptr;
    throw;
  }
}

DeltaLog::~DeltaLog() {
  delete impl_;
}

void DeltaLog::write_header() {
  impl_->out.close();
  impl_->out.clear();
  impl_->out.open(path_, std::ios::binary | std::ios::trunc);
  if (!impl_->out) {
    throw SnapshotError(path_ + ": cannot open delta log for writing");
  }
  io::BlockWriter writer(impl_->out, kDeltaTag, "delta log");
  PayloadWriter payload;
  payload.u32(kSnapshotVersion);
  payload.u64(fleet_fingerprint(store_->fleet()));
  payload.u64(registry_fingerprint(store_->registry()));
  payload.u64(store_->rows_stored());
  payload.u64(store_->rows_dropped());
  writer.add(kDeltaMetaTag, payload.span());
  // No finish(): the log is append-only; clean EOF at a block boundary
  // is its valid end.
  impl_->out.flush();
  if (!impl_->out) {
    throw SnapshotError(path_ + ": delta log header write failed");
  }
}

void DeltaLog::publish(std::span<const atlas::Measurement> rows) {
  if (rows.empty()) return;
  // Store first: an append that throws (unresolvable row, shard
  // capacity) must not leave rows in the log that never reached the
  // store.
  store_->append(rows);
  PayloadWriter payload;
  payload.u64(rows.size());
  for (const atlas::Measurement& m : rows) encode_record(payload, m);
  io::append_block(impl_->out, kSegmentTag, payload.span(), "delta log");
  impl_->out.flush();
  if (!impl_->out) {
    throw SnapshotError(path_ +
                        ": delta segment flush failed (disk full?)");
  }
  ++segments_;
}

void DeltaLog::compact(const std::string& base_path) {
  save_snapshot(*store_, base_path);
  write_header();
  segments_ = 0;
}

std::size_t apply_delta_log(ColumnarStore& store, const std::string& path) {
  const io::FileBytes file =
      io::FileBytes::open(path, io::FileBytes::Mode::kRead);
  io::BlockReader reader(file.bytes(), kDeltaTag, "delta log",
                         /*require_end=*/false);
  std::optional<io::Block> block = reader.next();
  if (!block || block->tag != kDeltaMetaTag) {
    throw SnapshotError("delta log: first block must be DMET");
  }
  Cursor dmet(block->payload, "delta log DMET");
  const std::uint32_t version = dmet.u32();
  if (version != kSnapshotVersion) {
    throw SnapshotError("delta log: unsupported version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(kSnapshotVersion) + ")");
  }
  if (dmet.u64() != fleet_fingerprint(store.fleet()) ||
      dmet.u64() != registry_fingerprint(store.registry())) {
    throw SnapshotError(
        "delta log: fleet/registry fingerprint mismatch — log belongs to a "
        "different world");
  }
  const std::uint64_t base_stored = dmet.u64();
  const std::uint64_t base_dropped = dmet.u64();
  dmet.require_done();
  if (base_stored != store.rows_stored() ||
      base_dropped != store.rows_dropped()) {
    throw SnapshotError(
        "delta log: base rows " + std::to_string(base_stored) + "/" +
        std::to_string(base_dropped) + " (stored/dropped) but the store is "
        "at " +
        std::to_string(store.rows_stored()) + "/" +
        std::to_string(store.rows_dropped()) +
        " — load the matching base snapshot first");
  }

  // Two phases: decode and validate the whole log, then apply. A torn
  // tail or bad record throws before the store is touched — replay is
  // all-or-nothing, like snapshot load.
  const std::size_t probe_limit = store.fleet().size();
  const std::size_t region_limit = store.registry().size();
  std::vector<std::vector<atlas::Measurement>> segments;
  while ((block = reader.next())) {
    if (block->tag != kSegmentTag) {
      throw SnapshotError("delta log: unexpected block '" +
                          io::fourcc_name(block->tag) + "'");
    }
    Cursor seg(block->payload, "delta log DSEG");
    const std::uint64_t count = seg.u64();
    if (count == 0 ||
        count != (block->payload.size() - sizeof(std::uint64_t)) /
                     kRecordBytes) {
      throw SnapshotError("delta log: segment record count " +
                          std::to_string(count) +
                          " does not match its payload size");
    }
    std::vector<atlas::Measurement> rows;
    rows.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      const atlas::Measurement m = decode_record(seg);
      if (m.probe_id >= probe_limit || m.region_index >= region_limit) {
        throw SnapshotError("delta log: segment " +
                            std::to_string(segments.size()) + " row " +
                            std::to_string(i) +
                            " does not resolve against the fleet/registry");
      }
      rows.push_back(m);
    }
    seg.require_done();
    segments.push_back(std::move(rows));
  }

  // Replay per segment, exactly as publish() chunked it. Append order
  // and chunking never change the stored bytes, so the recovered store
  // equals the one the log was written against.
  for (const std::vector<atlas::Measurement>& rows : segments) {
    store.append(rows);
  }
  return segments.size();
}

}  // namespace shears::serve
