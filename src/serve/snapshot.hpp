// Snapshot persistence for serve::ColumnarStore — the durable form of
// the serving dataset.
//
// The paper's nine-month campaign exists only in RAM: every serving
// restart replays the whole simulation before the oracle can answer a
// query. A snapshot serialises the store once — raw shard columns,
// per-region summary scalars, country rollups and row counters — into a
// versioned, CRC-checksummed block container (io::block_file), and a
// restart loads it back orders of magnitude faster than the replay.
//
// Exactness contract: a store loaded from a snapshot is byte-identical
// to the live-built store it was saved from. The raw columns and
// counters are authoritative on disk. Each cell's sorted run — the one
// sorted copy of its samples the store keeps — is stored too (v2), so
// a load copies the runs instead of sorting again, after checking in
// O(n) that they are the sort of the columns: every run nondecreasing,
// finite and non-negative, and an order-independent multiset hash of
// (region, RTT bits) over the runs equal to the same hash over the
// columns. The cell and rollup scalars are then recomputed from the
// runs and cross-checked, bit for bit, against the scalars recorded at
// save time. Any divergence — corruption the CRC missed, or a
// quantile-algorithm change that silently re-interprets old data —
// fails the load. A v1 image (no runs) loads through the same parser
// and rebuilds its cells through the store's own refresh().
//
// Load maps the image, walks its block headers once to check the
// structure, then checksums, copies and validates the shards in
// parallel, largest first, releasing each block's pages once copied;
// the reported error is the one earliest in the file, whatever the
// thread count.
//
// Error confinement mirrors the serving front-end's frame codec: a
// damaged file (truncation, flipped bits, wrong version, wrong fleet)
// throws SnapshotError with a precise message, and the caller never
// observes a partially-populated store — loads build into a local
// store and only return it whole.
//
// Incremental persistence rides the MeasurementSink hook: a DeltaLog
// attached to a campaign appends every published batch to the store
// AND to an append-only segment log keyed to a base snapshot. On
// restart, load the base and apply_delta_log() — append chunking never
// changes the stored bytes, so the recovered store equals the one that
// crashed. compact() folds the log back into a fresh base.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>

#include "atlas/campaign.hpp"
#include "io/block_file.hpp"
#include "serve/columnar.hpp"

namespace shears::serve {

/// Application tags of the two container formats (io::block_file
/// header field).
inline constexpr std::uint32_t kSnapshotTag = io::fourcc("SNP1");
inline constexpr std::uint32_t kDeltaTag = io::fourcc("SND1");

/// Version of the snapshot payload layout (bumped when block payloads
/// change shape; the container itself is versioned separately). v2
/// adds one RUNS block per shard; v1 images still load.
inline constexpr std::uint32_t kSnapshotVersion = 2;

/// Any snapshot/delta-log failure: damaged file, version or fingerprint
/// mismatch, store/log inconsistency. Loads that throw leave no
/// partially-populated store behind.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Order-sensitive FNV-1a identity of a fleet: size plus, per probe,
/// id, country, access technology, environment, privileged bit and
/// location. A snapshot records it at save time and a load against a
/// fleet with a different fingerprint fails — shard keys and per-row
/// probe ids are only meaningful against the exact fleet.
[[nodiscard]] std::uint64_t fleet_fingerprint(const atlas::ProbeFleet& fleet);

/// Same for the cloud registry (region order defines region_index).
[[nodiscard]] std::uint64_t registry_fingerprint(
    const topology::CloudRegistry& registry);

/// Serialises a fresh store (refresh() first; throws std::logic_error on
/// a stale one) into a checksummed snapshot container. The stream
/// overload writes to any sink (tests fuzz in-memory images); the path
/// overload writes atomically (tmp + rename), so a failed save never
/// replaces an existing snapshot with a torn one. Throws SnapshotError /
/// io::BlockError on write failure.
void save_snapshot(const ColumnarStore& store, std::ostream& os);
void save_snapshot(const ColumnarStore& store, const std::string& path);

struct SnapshotLoadOptions {
  /// Skip the summaries: the load returns a stale store (fresh() ==
  /// false) carrying only columns and counters, and the caller runs
  /// refresh() when it first needs stats. The lazy path still validates
  /// every checksum (the RUNS blocks' included), fingerprint and row.
  bool lazy_summaries = false;
};

/// Rebuilds a store from a snapshot image. Validates the container
/// (magic, version, every block CRC), the snapshot version, the
/// fleet/registry fingerprints, and every row (probe resolves to the
/// recorded shard, region in range, RTT finite and non-negative);
/// unless lazy, fills the cells from the stored runs (v2) or refresh()
/// (v1) and verifies the scalars bit-exact against those recorded at
/// save time. Shards load on StoreConfig::threads workers; the error
/// reported for a damaged image is the same for any thread count.
/// Throws SnapshotError (or io::BlockError for container-level damage);
/// on throw, no store is returned — never a partial one. The path
/// overload maps the file (a buffered read where mapping fails) and
/// hands each block's pages back once copied. `fleet` and `registry`
/// must outlive the returned store.
[[nodiscard]] ColumnarStore load_snapshot(
    std::span<const std::uint8_t> bytes, const atlas::ProbeFleet* fleet,
    const topology::CloudRegistry* registry, StoreConfig config = {},
    SnapshotLoadOptions options = {});
[[nodiscard]] ColumnarStore load_snapshot(
    const std::string& path, const atlas::ProbeFleet* fleet,
    const topology::CloudRegistry* registry, StoreConfig config = {},
    SnapshotLoadOptions options = {});

/// Append-only measurement log tied to a base snapshot — the
/// incremental half of persistence. Attach one to a campaign
/// (attach_sink) or call publish() directly: each batch is appended to
/// the store first (so validation failures never pollute the log) and
/// then written as one checksummed segment and flushed. The log header
/// records the fleet/registry fingerprints and the store's row counters
/// at attach time; apply_delta_log() replays the segments onto a store
/// restored to exactly that base state.
class DeltaLog final : public atlas::MeasurementSink {
 public:
  enum class Open {
    kTruncate,  ///< start a fresh log for the store's current state
    kExtend,    ///< reopen an existing log; validates it matches the store
  };

  /// Throws SnapshotError when the file cannot be opened/written, or —
  /// in kExtend mode — when the existing log's fingerprints or row
  /// accounting do not line up with `store` (replaying it would
  /// diverge). `store` must outlive the log.
  DeltaLog(ColumnarStore* store, std::string path,
           Open open = Open::kTruncate);
  ~DeltaLog() override;
  DeltaLog(const DeltaLog&) = delete;
  DeltaLog& operator=(const DeltaLog&) = delete;

  /// store->append(rows), then one DSEG segment, flushed and checked.
  void publish(std::span<const atlas::Measurement> rows) override;

  /// Folds the log into a fresh base: saves `store` (must be fresh())
  /// atomically to `base_path`, then resets this log to empty against
  /// the new base. After compact(), load_snapshot(base_path) +
  /// apply_delta_log() recovers the current store.
  void compact(const std::string& base_path);

  /// Segments written against the current base (0 right after open in
  /// kTruncate mode or after compact()).
  [[nodiscard]] std::size_t segments() const noexcept { return segments_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  void write_header();

  ColumnarStore* store_;
  std::string path_;
  struct Impl;
  Impl* impl_;
  std::size_t segments_ = 0;
};

/// Replays a delta log onto a store restored to the log's base state
/// (typically: load_snapshot of the matching base, or an empty store
/// when the log was started from scratch). Validates the log header
/// against the store's fleet/registry/counters and every segment's
/// checksum; a torn tail (crash mid-write) fails with a precise error.
/// Returns the number of segments applied; the store is left stale —
/// refresh() before reading stats.
std::size_t apply_delta_log(ColumnarStore& store, const std::string& path);

}  // namespace shears::serve
