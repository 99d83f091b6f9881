// Measurement records and the immutable campaign dataset.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "atlas/placement.hpp"
#include "topology/registry.hpp"

namespace shears::atlas {

/// One scheduled ping burst result, stored compactly: a nine-month
/// campaign produces millions of these (the paper's dataset holds 3.2M).
struct Measurement {
  ProbeId probe_id = 0;
  std::uint16_t region_index = 0;  ///< index into the registry's region list
  std::uint32_t tick = 0;          ///< schedule tick (interval_hours apart)
  float min_ms = 0.0f;             ///< valid only when received > 0
  float avg_ms = 0.0f;
  float max_ms = 0.0f;
  std::uint8_t sent = 0;
  std::uint8_t received = 0;
  /// Retry attempts the engine spent before recording this burst (0 when
  /// the scheduled attempt went through, or retries are disabled).
  std::uint8_t retries = 0;
  /// faults::FaultKind bitmask active when the recorded attempt was
  /// sampled; 0 = clean. Data-quality guards key off this.
  std::uint8_t faults = 0;

  [[nodiscard]] bool lost() const noexcept { return received == 0; }
  [[nodiscard]] bool faulted() const noexcept { return faults != 0; }
};

/// std::allocator whose value-initialising construct() leaves the
/// storage as allocated, so `Records(n)` and `resize(n)` hand out rows
/// without zero-filling them. A campaign sizes its whole dataset up
/// front and each worker first-touches only its own slice; a value-init
/// would write every page once more, serially, on the calling thread.
/// Every other construct() (copies, push_back) behaves as usual.
template <typename T>
struct UninitializedAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitializedAllocator<U>;
  };
  UninitializedAllocator() noexcept = default;
  template <typename U>
  UninitializedAllocator(const UninitializedAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

// Leaving a row unconstructed is valid only for an implicit-lifetime
// type: an aggregate without a user-provided destructor.
static_assert(std::is_aggregate_v<Measurement> &&
              std::is_trivially_destructible_v<Measurement>);

/// A dataset's rows. Rows added by resize(n) or Records(n) hold
/// indeterminate values until written; every producer writes each row
/// it keeps.
using Records = std::vector<Measurement, UninitializedAllocator<Measurement>>;

/// The dataset a campaign produces: records plus the fleet and footprint
/// they refer to. Non-owning of fleet/registry — both must outlive it.
class MeasurementDataset {
 public:
  MeasurementDataset(const ProbeFleet* fleet,
                     const topology::CloudRegistry* registry,
                     Records records);

  [[nodiscard]] std::span<const Measurement> records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] const ProbeFleet& fleet() const noexcept { return *fleet_; }
  [[nodiscard]] const topology::CloudRegistry& registry() const noexcept {
    return *registry_;
  }

  [[nodiscard]] const Probe& probe_of(const Measurement& m) const {
    return fleet_->probe(m.probe_id);
  }
  [[nodiscard]] const topology::CloudRegion& region_of(
      const Measurement& m) const {
    return *registry_->regions().at(m.region_index);
  }

  /// Share of ping bursts that lost every packet.
  [[nodiscard]] double loss_fraction() const noexcept;

  /// Share of records carrying any fault-exposure flag.
  [[nodiscard]] double faulted_fraction() const noexcept;

  /// Writes "probe_id,country,continent,access,provider,region,tick,
  /// min_ms,avg_ms,max_ms,sent,received,retries,faults" rows; the
  /// public-dataset format.
  void write_csv(std::ostream& os) const;

  /// Writes one JSON object per line in the RIPE-Atlas result style
  /// ("prb_id", "dst_name", "timestamp" in seconds from campaign start,
  /// "min"/"avg"/"max", "sent"/"rcvd", plus probe metadata). Lost bursts
  /// emit min/avg/max of -1 like the real API; non-zero retry counts and
  /// fault masks ride along as "retries"/"faults".
  void write_jsonl(std::ostream& os, int interval_hours = 3) const;

  /// Loads a dataset previously written by write_csv, resolving probe ids
  /// against `fleet` and (provider, region) pairs against `registry`.
  /// Accepts both the current 14-column header and the legacy 12-column
  /// one (retries/faults fill as 0). Consistency-checks each row's
  /// country/access metadata against the fleet and throws
  /// std::runtime_error on mismatch or malformed input — loading a
  /// dataset against the wrong fleet seed must fail loudly.
  static MeasurementDataset read_csv(std::istream& is, const ProbeFleet* fleet,
                                     const topology::CloudRegistry* registry);

  /// Round-trip counterpart of write_jsonl: loads Atlas-style JSONL lines
  /// produced by this class, with the same fleet/registry consistency
  /// checks and std::runtime_error on malformed lines. `interval_hours`
  /// must match the value used when writing (it maps timestamps back to
  /// ticks).
  static MeasurementDataset read_jsonl(std::istream& is,
                                       const ProbeFleet* fleet,
                                       const topology::CloudRegistry* registry,
                                       int interval_hours = 3);

 private:
  const ProbeFleet* fleet_;
  const topology::CloudRegistry* registry_;
  Records records_;
};

}  // namespace shears::atlas
