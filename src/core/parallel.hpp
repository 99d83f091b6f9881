// Deterministic fork/join helpers for the §4 analyses.
//
// The campaign engine already proves the pattern: shard a contiguous
// record span across workers, let each worker fill private accumulators,
// then merge the shards *in shard order* on the calling thread. Because
// shard boundaries depend only on (item count, thread count) and every
// merge below is order-deterministic (strict-less minima, in-order
// concatenation, bitwise OR), the results are byte-identical for any
// thread count — the thread-invariance tests in test_core_analysis.cpp
// pin this.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

namespace shears::core {

/// Maps a requested thread count (0 = hardware concurrency) to the count
/// actually worth spawning for `items` units of work, given the minimum
/// shard size below which forking costs more than it saves: a worker
/// fork/join pays ~50us, so each shard must carry enough work to amortise
/// it. Callers pick the cutoff for their per-item cost — a record scan
/// amortises at a few thousand items, a microsecond-scale oracle query
/// needs thousands more.
[[nodiscard]] inline std::size_t resolve_threads(
    std::size_t requested, std::size_t items,
    std::size_t min_items_per_shard) noexcept {
  std::size_t n = requested != 0
                      ? requested
                      : static_cast<std::size_t>(
                            std::thread::hardware_concurrency());
  if (n == 0) n = 1;
  const std::size_t useful =
      min_items_per_shard != 0 ? items / min_items_per_shard : items;
  if (n > useful) n = useful;
  return n == 0 ? 1 : n;
}

/// Default cutoff for record-scan workloads (the §4 analyses).
[[nodiscard]] inline std::size_t resolve_threads(std::size_t requested,
                                                 std::size_t items) noexcept {
  constexpr std::size_t kMinItemsPerShard = 1 << 14;
  return resolve_threads(requested, items, kMinItemsPerShard);
}

/// Splits [0, items) into `shards` contiguous ranges (remainder spread
/// over the leading shards, like the campaign's probe partition) and runs
/// `fn(shard_index, begin, end)` concurrently. Shard `shards - 1` runs on
/// the calling thread. `fn` must only touch state owned by its shard
/// index; merge after this returns, iterating shards in index order.
template <typename Fn>
void parallel_shards(std::size_t items, std::size_t shards, Fn&& fn) {
  if (shards <= 1) {
    fn(std::size_t{0}, std::size_t{0}, items);
    return;
  }
  const std::size_t base = items / shards;
  const std::size_t extra = items % shards;
  std::vector<std::thread> workers;
  workers.reserve(shards - 1);
  std::size_t begin = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    const std::size_t end = begin + len;
    if (s + 1 == shards) {
      fn(s, begin, end);
    } else {
      workers.emplace_back(
          [&fn, s, begin, end] { fn(s, begin, end); });
    }
    begin = end;
  }
  for (std::thread& w : workers) w.join();
}

/// Runs `fn(unit)` once for every unit in [0, weights.size()), handing
/// the units out from one atomic cursor in descending weight (ties in
/// index order) to up to `requested` workers (0 = hardware concurrency),
/// the calling thread among them. Use it instead of parallel_shards when
/// unit costs differ by orders of magnitude: equal-count contiguous
/// ranges then leave one worker with most of the work, while largest
/// first keeps every worker busy until the small units even out the
/// tail. `fn` must touch only state owned by its unit, so which worker
/// ran a unit cannot change any result.
template <typename Fn>
void parallel_largest_first(std::span<const std::uint64_t> weights,
                            std::size_t requested, Fn&& fn) {
  const std::size_t units = weights.size();
  std::size_t threads = requested != 0
                            ? requested
                            : static_cast<std::size_t>(
                                  std::thread::hardware_concurrency());
  threads = std::min(std::max<std::size_t>(threads, 1), units);
  if (threads <= 1) {
    for (std::size_t u = 0; u < units; ++u) fn(u);
    return;
  }
  std::vector<std::size_t> order(units);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&weights](std::size_t a, std::size_t b) {
                     return weights[a] > weights[b];
                   });
  std::atomic<std::size_t> cursor{0};
  const auto work = [&] {
    for (std::size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
         k < units; k = cursor.fetch_add(1, std::memory_order_relaxed)) {
      fn(order[k]);
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) workers.emplace_back(work);
  work();
  for (std::thread& w : workers) w.join();
}

/// Word-packed membership set. One Bitmap over the fleet replaces the
/// per-country / per-region `std::vector<bool>` tables the analyses used
/// to allocate (O(groups x fleet) bits, most of them never touched):
/// each probe belongs to exactly one group, so a single fleet-sized map
/// plus a probe -> group lookup at merge time carries the same
/// information in 1/groups the memory.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(std::size_t bits) : words_((bits + 63) / 64, 0) {}

  /// Sets bit `i`; returns whether it was already set.
  bool test_set(std::size_t i) noexcept {
    std::uint64_t& word = words_[i >> 6];
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    const bool was = (word & mask) != 0;
    word |= mask;
    return was;
  }

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    return (words_[i >> 6] & (std::uint64_t{1} << (i & 63))) != 0;
  }

  /// Bitwise-OR merge of another shard's set (same size).
  void merge(const Bitmap& other) noexcept {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w] |= other.words_[w];
    }
  }

  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t n = 0;
    for (const std::uint64_t word : words_) {
      n += static_cast<std::size_t>(std::popcount(word));
    }
    return n;
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace shears::core
