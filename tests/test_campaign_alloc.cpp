// Campaign workers allocate nothing: run() sizes every buffer a worker
// writes on the calling thread, and the lane engine keeps its per-block
// state in fixed-size arrays. Worker-thread allocations cost more than
// their bytes — glibc gives each allocating thread its own malloc arena,
// and the arenas' slack shows up in the process's peak RSS.
//
// This binary replaces the global operator new to count allocations made
// off the thread that armed the counter.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include "atlas/campaign.hpp"
#include "atlas/placement.hpp"
#include "net/latency_model.hpp"
#include "topology/registry.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::thread::id g_calling_thread;
std::atomic<std::size_t> g_off_thread_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_acquire) &&
      std::this_thread::get_id() != g_calling_thread) {
    g_off_thread_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

/// Allocations made off the calling thread while `body` runs.
template <class Body>
std::size_t off_thread_allocations(Body&& body) {
  g_calling_thread = std::this_thread::get_id();
  g_off_thread_allocations.store(0);
  g_counting.store(true);
  body();
  g_counting.store(false);
  return g_off_thread_allocations.load();
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace shears {
namespace {

TEST(CampaignAllocations, CounterSeesWorkerThreadAllocations) {
  // The counter itself must see an allocation on another thread, or the
  // zero counts below prove nothing.
  const std::size_t seen = off_thread_allocations([] {
    std::thread worker([] { delete new int(7); });
    worker.join();
  });
  EXPECT_GE(seen, 1u);
}

TEST(CampaignAllocations, LaneEngineWorkersAllocateNothing) {
  atlas::PlacementConfig placement;
  placement.probe_count = 400;
  placement.seed = 5;
  const auto fleet = atlas::ProbeFleet::generate(placement);
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  for (const double uptime : {1.0, 0.9}) {
    atlas::CampaignConfig config;
    config.duration_days = 3;
    config.targets_per_tick = 2;
    config.probe_uptime = uptime;
    config.threads = 4;
    const atlas::Campaign campaign(fleet, registry, model, config);
    ASSERT_TRUE(campaign.batched_eligible());
    std::size_t rows = 0;
    const std::size_t allocations = off_thread_allocations([&] {
      rows = campaign.run().size();
    });
    EXPECT_GT(rows, 0u);
    EXPECT_EQ(allocations, 0u) << "probe_uptime " << uptime;
  }
}

}  // namespace
}  // namespace shears
