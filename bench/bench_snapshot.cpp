// Snapshot persistence acceptance bench: what a serving restart costs
// with and without a snapshot.
//
// The cold path replays the standard campaign into a columnar store
// (the ingest every restart pays without persistence); the warm path
// loads the snapshot back. Both end in the exact same stale store —
// columns and counters restored, summaries not yet built — because the
// summary rebuild (refresh()) is identical work on either path and
// would only dilute the comparison; it is timed once, separately. The
// gate compares the two routes to that common state: the lazy load
// (every checksum, fingerprint and row still validated) must beat the
// replay by SHEARS_SNAPSHOT_GATE (default 10; the perf smoke test keeps
// every assertion but shrinks the campaign and the gate). The eager
// load — which also fills the cells from the stored sorted runs and
// verifies them and the rollups bit-exact against the recorded scalars
// — is timed and recorded alongside. Every loaded store must reproduce the saved image
// byte-for-byte when re-serialised: always asserted, never relaxed.
// So must the loaded store's size: the serve.store.sample_bytes gauge
// may not exceed 18 B a stored row (four columns plus one sorted float
// copy in the cells).
// Numbers land in the bench JSON (SHEARS_BENCH_JSON) — see
// bench/run_benches.sh, which routes them to results/BENCH_serve.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "atlas/campaign.hpp"
#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "serve/columnar.hpp"
#include "serve/snapshot.hpp"

namespace {

using namespace shears;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// Re-serialises `store` and asserts it reproduces the saved image bit
/// for bit — the whole exactness contract in one comparison.
bool image_identical(const serve::ColumnarStore& store,
                     const std::string& expected, const char* what) {
  std::ostringstream resaved;
  serve::save_snapshot(store, resaved);
  if (resaved.str() == expected) return true;
  std::printf("FAIL: store loaded via %s does not reproduce the snapshot "
              "image\n",
              what);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_title("store snapshot: save/load vs campaign replay",
                     "a warm start from disk >= 10x a cold campaign replay");

  // Cold path: the standard campaign (30 days default; 270 = paper
  // scale) streamed into the store through the sink hook — exactly the
  // serving cold start. The store is stale (columns + counters) when
  // the run finishes; the summary build is timed separately below.
  auto standard = bench::make_standard_campaign(argc, argv);
  standard.bench_name = "snapshot_campaign";
  serve::ColumnarStore store(&standard.fleet, &standard.registry);
  atlas::Campaign campaign(standard.fleet, standard.registry, standard.model,
                           standard.config);
  campaign.attach_sink(&store);
  auto start = clock_type::now();
  (void)campaign.run();
  const double replay_s = seconds_since(start);
  const auto rows = static_cast<double>(store.rows_stored());
  bench::bench_record("snapshot_replay", replay_s, rows);
  std::printf("cold replay: %.0f rows ingested in %.3f s\n", rows, replay_s);

  // The summary rebuild both paths share (a pure function of the
  // columns — identical work after a replay or after a load).
  start = clock_type::now();
  store.refresh();
  const double refresh_s = seconds_since(start);
  bench::bench_record("snapshot_refresh", refresh_s, rows);
  std::printf("summary refresh (shared by both paths): %.3f s\n", refresh_s);

  // Save once (atomic tmp + rename), and keep the canonical image for
  // the byte-identity assertions.
  const std::string path = "bench_store.snap";
  start = clock_type::now();
  serve::save_snapshot(store, path);
  const double save_s = seconds_since(start);
  bench::bench_record("snapshot_save", save_s, rows);
  std::ostringstream canonical;
  serve::save_snapshot(store, canonical);
  const std::string expected_image = canonical.str();
  const double file_mb =
      static_cast<double>(expected_image.size()) / (1024.0 * 1024.0);
  bench::bench_record_value("snapshot_file_mb", file_mb);
  std::printf("save: %.3f s, %.1f MiB on disk\n", save_s, file_mb);

  // Eager load: columns and cells restored, summaries verified bit-exact
  // against the recorded scalars — the turn-key warm start.
  {
    start = clock_type::now();
    const serve::ColumnarStore loaded = serve::load_snapshot(
        path, &standard.fleet, &standard.registry, serve::StoreConfig{0});
    const double load_s = seconds_since(start);
    bench::bench_record("snapshot_load", load_s, rows);
    if (!image_identical(loaded, expected_image, "eager load")) return 1;
    std::printf("load (eager): %.3f s — re-saved image byte-identical\n",
                load_s);
  }

  // Lazy load: the warm-start counterpart of the cold replay — the same
  // stale store the replay left behind, with every checksum,
  // fingerprint and row validated on the way in.
  serve::SnapshotLoadOptions lazy;
  lazy.lazy_summaries = true;
  start = clock_type::now();
  serve::ColumnarStore restored = serve::load_snapshot(
      path, &standard.fleet, &standard.registry, serve::StoreConfig{0}, lazy);
  const double lazy_s = seconds_since(start);
  bench::bench_record("snapshot_load_lazy", lazy_s, rows);
  obs::MetricsRegistry metrics;
  restored.attach_metrics(&metrics);
  restored.refresh();
  restored.attach_metrics(nullptr);
  if (!image_identical(restored, expected_image, "lazy load")) return 1;
  std::printf("load (lazy): %.3f s — re-saved image byte-identical\n",
              lazy_s);
  std::remove(path.c_str());

  // Resident sample bytes of the loaded store: the four columns (14 B a
  // row) plus the one sorted float copy in the cells (4 B). More means a
  // second copy of the samples or growth slack crept back in.
  const double bytes_per_row =
      metrics.gauge("serve.store.sample_bytes").value() / rows;
  bench::bench_record_value("snapshot_sample_bytes_per_row", bytes_per_row);
  std::printf("store samples: %.2f B a row (gate 18)\n", bytes_per_row);
  if (bytes_per_row > 18.0) {
    std::printf("FAIL: store keeps more than 18 B a row of samples\n");
    return 1;
  }

  const double speedup = lazy_s > 0.0 ? replay_s / lazy_s : 0.0;
  bench::bench_record_value("snapshot_vs_replay_speedup", speedup);
  double gate = 10.0;
  if (const char* env = std::getenv("SHEARS_SNAPSHOT_GATE")) {
    gate = std::atof(env);  // 0 disables (forced-slow-disk CI runners)
  }
  std::printf("warm start vs cold replay (to restored columns): %.1fx  "
              "(gate %.0fx)\n",
              speedup, gate);
  if (gate > 0.0 && speedup < gate) {
    std::printf("FAIL: snapshot load speedup below gate\n");
    return 1;
  }
  return 0;
}
