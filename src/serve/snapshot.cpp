#include "serve/snapshot.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <optional>
#include <type_traits>
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
  static void refresh_countries(ColumnarStore& s,
                                std::span<const std::uint32_t> countries) {
    s.refresh_countries(countries);
  }
};

namespace {

constexpr std::uint32_t kMetaTag = io::fourcc("META");
constexpr std::uint32_t kShardTag = io::fourcc("SHRD");
constexpr std::uint32_t kShardStatsTag = io::fourcc("SSTA");
constexpr std::uint32_t kRunsTag = io::fourcc("RUNS");
constexpr std::uint32_t kCountryStatsTag = io::fourcc("CSTA");
constexpr std::uint32_t kDeltaMetaTag = io::fourcc("DMET");
constexpr std::uint32_t kSegmentTag = io::fourcc("DSEG");

/// The delta log's layout did not change when snapshot v2 added RUNS,
/// so it keeps its own version.
constexpr std::uint32_t kDeltaLogVersion = 1;

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

  // A SHRD payload is the key/n prefix and the four columns; a RUNS
  // payload is the key and every cell's sorted run, in region order.
  // Both are checksummed up front straight from the store — in
  // parallel, largest shard first — then written in key order from the
  // same spans, so the image is byte for byte the one a serial save
  // writes.
  struct ShardBlock {
    std::size_t key = 0;
    std::array<std::uint8_t, 12> prefix{};
    std::uint32_t crc = 0;
    std::uint32_t runs_crc = 0;
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
  const auto runs_parts = [&groups](const ShardBlock& block) {
    const auto& cells = groups[block.key].stats;
    std::vector<std::span<const std::uint8_t>> parts;
    parts.reserve(cells.size() + 1);
    parts.emplace_back(block.prefix.data(), sizeof(std::uint32_t));
    for (const RegionStats& cell : cells) {
      parts.push_back(column_bytes(cell.sorted));
    }
    return parts;
  };
  core::parallel_largest_first(
      weights, SnapshotAccess::threads(store), [&](std::size_t i) {
        ShardBlock& block = shard_blocks[i];
        block.crc = io::block_crc(kShardTag, shard_parts(block));
        block.runs_crc = io::block_crc(kRunsTag, runs_parts(block));
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
    writer.add_parts(kRunsTag, runs_parts(block), block.runs_crc);
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

namespace {

/// One mixed 64-bit word per (region, RTT bits) sample. Summed over a
/// sample sequence it gives an order-independent multiset hash, so a
/// shard's columns and its cells' sorted runs hash equal exactly when
/// they hold the same samples, up to a collision.
[[nodiscard]] std::uint64_t sample_hash(std::uint16_t region,
                                        float rtt) noexcept {
  std::uint64_t x = ((std::uint64_t{region} << 32) |
                     std::bit_cast<std::uint32_t>(rtt)) +
                    0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// One shard's blocks as the structure pass found them. The SHRD and
/// RUNS payloads are framed but not yet checksummed; the SSTA scalars
/// are checksummed and parsed.
struct ShardBlocks {
  std::uint32_t key = 0;
  std::size_t rows = 0;
  io::Block columns;
  std::size_t columns_at = 0;  ///< block index in the file
  std::vector<CellScalars> cells;
  std::optional<io::Block> runs;  ///< v2 images only
  std::size_t runs_at = 0;
};

/// What the serial pass over the block headers learns about an image.
struct Structure {
  std::uint32_t version = 0;
  std::uint64_t rows_stored = 0;
  std::uint64_t rows_dropped = 0;
  std::uint64_t total_rows = 0;
  std::vector<ShardBlocks> shards;
  std::vector<std::pair<std::uint32_t, std::vector<CellScalars>>> rollups;
  std::vector<std::uint32_t> countries;  ///< with shards, ascending
  /// Blocks framed so far, and the index of the block a failure of the
  /// current check concerns.
  std::size_t blocks = 0;
  std::size_t at = 0;
  /// The framed block the current check reads, if it is one block's.
  std::optional<io::Block> current;
};

/// A load step's first failure, positioned by the block it concerns:
/// the load reports the failure earliest in the file, whichever worker
/// met it and when, so the error does not depend on the thread count.
struct Failure {
  std::size_t block = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  void keep(std::size_t at, std::exception_ptr e) {
    if (at < block) {
      block = at;
      error = std::move(e);
    }
  }
};

/// Frames the next block (checksum deferred) and makes it the current
/// one; nullopt past the END. terminator.
std::optional<io::Block> frame(io::BlockReader& reader, Structure& s) {
  s.at = s.blocks;
  s.current.reset();
  s.current = reader.next_unverified();
  if (s.current) ++s.blocks;
  return s.current;
}

/// The serial pass: frames every block and checks the image's
/// structure — tags and their order, META identity, shard keys, row
/// counts against payload lengths — reading the few header fields of
/// the bulk SHRD and RUNS blocks before their checksums are verified
/// (the shard workers verify those), and checksumming and parsing the
/// small SSTA and CSTA blocks in full. Throws at the first failure,
/// with `s.at` naming the block it concerns.
void read_structure(io::BlockReader& reader, const atlas::ProbeFleet& fleet,
                    const topology::CloudRegistry& registry,
                    std::size_t keys, Structure& s) {
  const std::size_t regions = registry.size();

  // META — identity first: nothing row-sized is parsed until the
  // snapshot is known to describe this exact fleet/registry pair.
  if (!frame(reader, s) || s.current->tag != kMetaTag) {
    throw SnapshotError("snapshot: first block must be META");
  }
  reader.verify(*s.current);
  Cursor meta(s.current->payload, "snapshot META");
  s.version = meta.u32();
  if (s.version != 1 && s.version != kSnapshotVersion) {
    throw SnapshotError("snapshot: unsupported snapshot version " +
                        std::to_string(s.version) + " (this build reads 1-" +
                        std::to_string(kSnapshotVersion) + ")");
  }
  const std::uint64_t want_fleet = meta.u64();
  const std::uint64_t have_fleet = fleet_fingerprint(fleet);
  if (want_fleet != have_fleet) {
    throw SnapshotError(
        "snapshot: fleet fingerprint mismatch — snapshot was written "
        "against " +
        hex64(want_fleet) + ", this fleet is " + hex64(have_fleet));
  }
  const std::uint64_t want_registry = meta.u64();
  const std::uint64_t have_registry = registry_fingerprint(registry);
  if (want_registry != have_registry) {
    throw SnapshotError(
        "snapshot: registry fingerprint mismatch — snapshot was written "
        "against " +
        hex64(want_registry) + ", this registry is " + hex64(have_registry));
  }
  s.rows_stored = meta.u64();
  s.rows_dropped = meta.u64();
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

  // Per non-empty shard: SHRD, its SSTA scalars and, from v2 on, its
  // RUNS block.
  s.shards.reserve(std::min<std::size_t>(group_count, keys));
  std::vector<bool> seen(keys, false);
  std::vector<bool> country_has_shards(geo::country_count(), false);
  for (std::uint32_t g = 0; g < group_count; ++g) {
    if (!frame(reader, s) || s.current->tag != kShardTag) {
      throw SnapshotError("snapshot: expected SHRD block " +
                          std::to_string(g + 1) + " of " +
                          std::to_string(group_count));
    }
    Cursor shard(s.current->payload, "snapshot SHRD");
    const std::uint32_t key = shard.u32();
    if (key >= keys) {
      throw SnapshotError("snapshot: shard key " + std::to_string(key) +
                          " out of range (" + std::to_string(keys) +
                          " shards)");
    }
    if (seen[key]) {
      throw SnapshotError("snapshot: duplicate shard key " +
                          std::to_string(key));
    }
    const std::uint64_t n = shard.u64();
    if (n == 0 || n > kMaxShardRows) {
      throw SnapshotError("snapshot: shard " + std::to_string(key) +
                          " row count " + std::to_string(n) +
                          " outside [1, 2^32 - 1]");
    }
    // Size the payload against the claimed row count before anything is
    // allocated for it: a crafted count field must produce an error, not
    // a multi-gigabyte allocation.
    const std::uint64_t want_bytes =
        sizeof(std::uint32_t) + sizeof(std::uint64_t) +
        n * (sizeof(std::uint32_t) + sizeof(std::uint16_t) +
             sizeof(std::uint32_t) + sizeof(float));
    if (s.current->payload.size() != want_bytes) {
      throw SnapshotError("snapshot: shard " + std::to_string(key) +
                          " payload holds " +
                          std::to_string(s.current->payload.size()) +
                          " bytes but its row count implies " +
                          std::to_string(want_bytes));
    }
    seen[key] = true;
    country_has_shards[key / net::kAccessTechnologyCount] = true;
    s.total_rows += n;
    ShardBlocks& blocks = s.shards.emplace_back();
    blocks.key = key;
    blocks.rows = static_cast<std::size_t>(n);
    blocks.columns = *s.current;
    blocks.columns_at = s.at;

    if (!frame(reader, s) || s.current->tag != kShardStatsTag) {
      throw SnapshotError("snapshot: shard " + std::to_string(key) +
                          " is missing its SSTA summary block");
    }
    reader.verify(*s.current);
    Cursor ssta(s.current->payload, "snapshot SSTA");
    if (ssta.u32() != key) {
      throw SnapshotError("snapshot: SSTA block does not follow its shard (" +
                          std::to_string(key) + ")");
    }
    blocks.cells = read_cells(ssta, regions, "snapshot SSTA");
    ssta.require_done();
    // The counts split the shard's rows between its cells (and its RUNS
    // payload between their runs).
    std::uint64_t counted = 0;
    for (const CellScalars& cell : blocks.cells) {
      if (cell.count > n - counted) {
        counted = n + 1;
        break;
      }
      counted += cell.count;
    }
    if (counted != n) {
      throw SnapshotError("snapshot: shard " + std::to_string(key) +
                          ": SSTA counts do not sum to its " +
                          std::to_string(n) + " rows");
    }

    if (s.version == 1) continue;
    if (!frame(reader, s) || s.current->tag != kRunsTag) {
      throw SnapshotError("snapshot: shard " + std::to_string(key) +
                          " is missing its RUNS block");
    }
    Cursor runs(s.current->payload, "snapshot RUNS");
    if (runs.u32() != key) {
      throw SnapshotError("snapshot: RUNS block does not follow its shard (" +
                          std::to_string(key) + ")");
    }
    const std::uint64_t runs_bytes = sizeof(std::uint32_t) + n * sizeof(float);
    if (s.current->payload.size() != runs_bytes) {
      throw SnapshotError("snapshot: shard " + std::to_string(key) +
                          " RUNS payload holds " +
                          std::to_string(s.current->payload.size()) +
                          " bytes but its row count implies " +
                          std::to_string(runs_bytes));
    }
    blocks.runs = *s.current;
    blocks.runs_at = s.at;
  }
  s.at = s.blocks;
  s.current.reset();
  if (s.total_rows != s.rows_stored) {
    throw SnapshotError("snapshot: shard rows sum to " +
                        std::to_string(s.total_rows) + " but META records " +
                        std::to_string(s.rows_stored) + " stored rows");
  }

  // CSTA country rollups, then the END. terminator (frame() returns
  // nullopt only past it).
  s.rollups.reserve(rollup_count);
  std::vector<bool> rollup_seen(geo::country_count(), false);
  while (frame(reader, s)) {
    if (s.current->tag != kCountryStatsTag) {
      throw SnapshotError("snapshot: unexpected block '" +
                          io::fourcc_name(s.current->tag) +
                          "' after the shard list");
    }
    reader.verify(*s.current);
    Cursor csta(s.current->payload, "snapshot CSTA");
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
    s.rollups.emplace_back(country, read_cells(csta, regions, "snapshot CSTA"));
    csta.require_done();
  }
  s.at = s.blocks;
  if (s.rollups.size() != rollup_count) {
    throw SnapshotError("snapshot: " + std::to_string(s.rollups.size()) +
                        " rollup blocks but META records " +
                        std::to_string(rollup_count));
  }
  for (std::size_t c = 0; c < country_has_shards.size(); ++c) {
    if (!country_has_shards[c]) continue;
    if (!rollup_seen[c]) {
      throw SnapshotError("snapshot: country " + std::to_string(c) +
                          " has shards but no rollup block");
    }
    s.countries.push_back(static_cast<std::uint32_t>(c));
  }
}

/// Everything a shard worker reads besides its own blocks.
struct ShardLoad {
  const io::BlockReader* reader = nullptr;
  const std::vector<std::uint32_t>* probe_key = nullptr;
  std::size_t regions = 0;
  bool cells = false;  ///< v2, eager: fill the cells from the RUNS block
  const io::FileBytes* mapping = nullptr;  ///< released block by block
  std::size_t limit = 0;  ///< only blocks before this index are read
};

/// A shard worker: checksums the shard's SHRD block, copies and
/// validates its columns, then checksums its RUNS block and — eager v2
/// loads — fills the cells from it, checking that the runs are the sort
/// of the columns. Throws at the first failure; `at` names the block it
/// concerns.
void load_shard(const ShardBlocks& blocks, SnapshotAccess::KeyGroup& group,
                const ShardLoad& load, std::size_t& at) {
  const std::string shard = "snapshot: shard " + std::to_string(blocks.key);
  at = blocks.columns_at;
  if (at >= load.limit) return;
  load.reader->verify(blocks.columns);
  const std::size_t rows = blocks.rows;
  const std::uint8_t* in = blocks.columns.payload.data() +
                           sizeof(std::uint32_t) + sizeof(std::uint64_t);
  const auto take = [&in](auto& column, std::size_t n) {
    using T = typename std::remove_reference_t<decltype(column)>::value_type;
    column.resize(n);
    std::memcpy(column.data(), in, n * sizeof(T));
    in += n * sizeof(T);
  };
  take(group.probe_ids, rows);
  take(group.region_index, rows);
  take(group.ticks, rows);
  take(group.rtt_ms, rows);
  if (load.mapping != nullptr) load.mapping->release(blocks.columns.payload);

  // Row validation: every stored row must still resolve, against this
  // fleet, to exactly the shard it sits in.
  const std::vector<std::uint32_t>& probe_key = *load.probe_key;
  std::uint64_t column_hash = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint32_t probe = group.probe_ids[i];
    if (probe >= probe_key.size() || probe_key[probe] != blocks.key) {
      throw SnapshotError(shard + " row " + std::to_string(i) + ": probe " +
                          std::to_string(probe) +
                          " does not map to this shard");
    }
    const std::uint16_t region = group.region_index[i];
    if (region >= load.regions) {
      throw SnapshotError(shard + " row " + std::to_string(i) + ": region " +
                          std::to_string(region) + " out of range");
    }
    const float rtt = group.rtt_ms[i];
    if (!std::isfinite(rtt) || rtt < 0.0f) {
      throw SnapshotError(shard + " row " + std::to_string(i) +
                          ": non-finite or negative RTT");
    }
    if (load.cells) column_hash += sample_hash(region, rtt);
  }

  if (!blocks.runs) return;
  at = blocks.runs_at;
  if (at >= load.limit) return;
  load.reader->verify(*blocks.runs);
  if (load.cells) {
    // Each run must be nondecreasing, finite and non-negative, and the
    // runs together must hold exactly the column samples: then the run
    // is the sort of the cell's samples and the store equals the one a
    // refresh() over the columns builds.
    const std::uint8_t* run = blocks.runs->payload.data() +
                              sizeof(std::uint32_t);
    std::uint64_t run_hash = 0;
    group.stats.resize(load.regions);
    for (std::size_t r = 0; r < load.regions; ++r) {
      const auto count = static_cast<std::size_t>(blocks.cells[r].count);
      if (count == 0) continue;
      RegionStats& cell = group.stats[r];
      cell.sorted.resize(count);
      std::memcpy(cell.sorted.data(), run, count * sizeof(float));
      run += count * sizeof(float);
      const auto region = static_cast<std::uint16_t>(r);
      float prev = 0.0f;
      for (const float v : cell.sorted) {
        if (!(v >= prev)) {
          throw SnapshotError(shard + " region " + std::to_string(r) +
                              ": sorted run is out of order or holds a NaN "
                              "or negative value");
        }
        prev = v;
        run_hash += sample_hash(region, v);
      }
      if (!std::isfinite(prev)) {
        throw SnapshotError(shard + " region " + std::to_string(r) +
                            ": sorted run holds a non-finite value");
      }
      summarise_cell(cell);
      group.folded.push_back(region);
      group.run_bytes += cell.sorted.capacity() * sizeof(float);
    }
    if (run_hash != column_hash) {
      throw SnapshotError(shard +
                          ": sorted runs do not hold the samples of its "
                          "columns (multiset hash mismatch)");
    }
    group.summarised = rows;
  }
  if (load.mapping != nullptr) load.mapping->release(blocks.runs->payload);
}

ColumnarStore load_image(std::span<const std::uint8_t> bytes,
                         const atlas::ProbeFleet* fleet,
                         const topology::CloudRegistry* registry,
                         StoreConfig config, SnapshotLoadOptions options,
                         const io::FileBytes* mapping) {
  ColumnarStore store(fleet, registry, config);
  auto& groups = SnapshotAccess::groups(store);
  io::BlockReader reader(bytes, kSnapshotTag, "snapshot");

  Structure s;
  Failure failure;
  try {
    read_structure(reader, *fleet, *registry, groups.size(), s);
  } catch (const SnapshotError&) {
    failure.keep(s.at, std::current_exception());
    // A check that read fields the block's checksum covers: a damaged
    // block reports the checksum, as a block-by-block reader would.
    try {
      if (s.current) reader.verify(*s.current);
    } catch (const io::BlockError&) {
      failure.error = std::current_exception();
    }
  } catch (const io::BlockError&) {
    failure.keep(s.at, std::current_exception());
  }

  // The shards (before the first structural failure, if any) in
  // parallel, largest first. Workers must not throw: each records its
  // first failure, and the earliest in the file is reported.
  const ShardLoad load{&reader,
                       &SnapshotAccess::probe_key(store),
                       registry->size(),
                       s.version >= 2 && !options.lazy_summaries,
                       mapping,
                       failure.block};
  std::vector<Failure> failures(s.shards.size());
  std::vector<std::uint64_t> weights(s.shards.size());
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    weights[i] = s.shards[i].rows;
  }
  core::parallel_largest_first(weights, config.threads, [&](std::size_t i) {
    std::size_t at = 0;
    try {
      load_shard(s.shards[i], groups[s.shards[i].key], load, at);
    } catch (...) {
      failures[i].keep(at, std::current_exception());
    }
  });
  for (const Failure& f : failures) failure.keep(f.block, f.error);
  if (failure.error) std::rethrow_exception(failure.error);

  SnapshotAccess::set_counters(store, static_cast<std::size_t>(s.rows_stored),
                               static_cast<std::size_t>(s.rows_dropped));
  SnapshotAccess::set_fresh(store, s.total_rows == 0);
  if (options.lazy_summaries || s.total_rows == 0) return store;

  // v2 workers filled the cells; the rollups select across them. A v1
  // image carries no runs, so refresh() sorts the columns.
  if (load.cells) {
    SnapshotAccess::refresh_countries(store, s.countries);
    SnapshotAccess::set_fresh(store, true);
  } else {
    store.refresh();
  }
  // The scalars recorded at save time are the tripwire: the cells and
  // rollups must reproduce them bit for bit.
  for (const ShardBlocks& blocks : s.shards) {
    verify_cells(groups[blocks.key].stats, blocks.cells,
                 "snapshot: shard " + std::to_string(blocks.key));
  }
  const auto& country_stats = SnapshotAccess::country_stats(store);
  for (const auto& [country, cells] : s.rollups) {
    verify_cells(country_stats[country], cells,
                 "snapshot: country " + std::to_string(country));
  }
  return store;
}

}  // namespace

ColumnarStore load_snapshot(std::span<const std::uint8_t> bytes,
                            const atlas::ProbeFleet* fleet,
                            const topology::CloudRegistry* registry,
                            StoreConfig config, SnapshotLoadOptions options) {
  return load_image(bytes, fleet, registry, config, options, nullptr);
}

ColumnarStore load_snapshot(const std::string& path,
                            const atlas::ProbeFleet* fleet,
                            const topology::CloudRegistry* registry,
                            StoreConfig config, SnapshotLoadOptions options) {
  const io::FileBytes file =
      io::FileBytes::open(path, io::FileBytes::Mode::kMmap);
  return load_image(file.bytes(), fleet, registry, config, options, &file);
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
    if (version != kDeltaLogVersion) {
      throw SnapshotError("delta log: unsupported version " +
                          std::to_string(version) + " (this build reads " +
                          std::to_string(kDeltaLogVersion) + ")");
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
  payload.u32(kDeltaLogVersion);
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
  if (version != kDeltaLogVersion) {
    throw SnapshotError("delta log: unsupported version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(kDeltaLogVersion) + ")");
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
