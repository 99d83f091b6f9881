// Workload `reproduce`: the researcher's offline path. Campaign::run ->
// ColumnarStore::build -> the Fig. 4-8 analyses examples/full_reproduction
// runs -> save_snapshot, repeated for the run's length. atlas, core, the
// store build and snapshot save do all the work; no serving layer runs.
#include <bit>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "shears.hpp"
#include "check/world.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace shears;

/// What the researcher builds before the first run: fleet, footprint and
/// the campaign (whose constructor fills the probe x region path cache).
struct Setup {
  explicit Setup(const atlas::CampaignConfig& config)
      : fleet(atlas::ProbeFleet::generate({})),
        registry(topology::CloudRegistry::campaign_footprint()) {
    const auto span = tracer().span("atlas.path_cache");
    campaign.emplace(fleet, registry, model, config);
  }
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  atlas::ProbeFleet fleet;
  topology::CloudRegistry registry;
  net::LatencyModel model;
  std::optional<atlas::Campaign> campaign;
};

/// Order-sensitive FNV-1a fold over 64-bit words (doubles by bit pattern).
struct Fold {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

struct RepResult {
  std::uint64_t checksum = 0;
  std::size_t rows = 0;
  double wall_s = 0.0;
};

/// The pipeline stages of one reproduction, each in its layer's span.
void run_stages(const Setup& setup, const std::string& snapshot_path,
                atlas::CampaignTelemetry& telemetry, Fold& fold,
                std::optional<atlas::MeasurementDataset>& dataset,
                std::optional<serve::ColumnarStore>& store) {
  {
    const auto span = tracer().span("atlas.campaign");
    dataset.emplace(setup.campaign->run(telemetry));
  }
  {
    const auto span = tracer().span("serve.store_build");
    store.emplace(serve::ColumnarStore::build(*dataset));
  }
  {
    const auto span = tracer().span("core.fig4");
    const auto rows = core::country_min_latency(*dataset);
    const auto bands = core::band_country_latencies(rows);
    const auto coverage = core::population_coverage(rows);
    for (const std::size_t n : {bands.under_10, bands.from_10_to_20,
                                bands.from_20_to_50, bands.from_50_to_100,
                                bands.over_100}) {
      fold.add(static_cast<std::uint64_t>(n));
    }
    fold.add(coverage.under_mtp);
    fold.add(coverage.under_pl);
    fold.add(coverage.under_hrt);
  }
  {
    const auto span = tracer().span("core.fig5");
    const auto mins = core::min_rtt_by_continent(*dataset);
    for (const auto& sample : mins) {
      if (sample.empty()) continue;
      const stats::Ecdf ecdf(sample);
      for (const double x : {20.0, 50.0, 100.0}) {
        fold.add(ecdf.fraction_at_or_below(x));
      }
    }
  }
  double eu_median = 0.0;
  {
    const auto span = tracer().span("core.fig6");
    const auto samples = core::best_region_samples_by_continent(*dataset);
    for (const auto& sample : samples) {
      if (sample.empty()) continue;
      const stats::Ecdf ecdf(sample);
      fold.add(ecdf.percentile(25.0));
      fold.add(ecdf.median());
      fold.add(ecdf.fraction_at_or_below(100.0));
    }
    eu_median =
        stats::Ecdf(samples[geo::index_of(geo::Continent::kEurope)]).median();
  }
  {
    const auto span = tracer().span("core.fig7");
    const core::AccessComparison cmp = core::compare_access(*dataset);
    const stats::RankSumResult mw =
        stats::mann_whitney_u(cmp.wireless, cmp.wired);
    fold.add(cmp.median_ratio);
    fold.add(cmp.added_latency_ms);
    fold.add(mw.effect_size);
  }
  {
    const auto span = tracer().span("core.fig8");
    for (const core::FeasibilityRow& row :
         core::classify_catalog(apps::application_catalog(), eu_median)) {
      fold.add(static_cast<std::uint64_t>(row.verdict) * 2 + row.in_zone);
    }
    const auto market =
        core::market_share_summary(apps::application_catalog());
    fold.add(market.in_zone_busd);
    fold.add(market.out_of_zone_busd);
  }
  {
    const auto span = tracer().span("io.snapshot_save");
    serve::save_snapshot(*store, snapshot_path);
  }
}

/// One full reproduction; the checksum covers the dataset and every
/// figure output, so repetitions (and runs) of one seed must agree.
RepResult reproduce_once(const Setup& setup, const std::string& snapshot_path,
                         atlas::CampaignTelemetry& telemetry) {
  Fold fold;
  std::optional<atlas::MeasurementDataset> dataset;
  std::optional<serve::ColumnarStore> store;
  const auto start = WallClock::now();
  {
    const auto span = tracer().span("reproduce.rep");
    run_stages(setup, snapshot_path, telemetry, fold, dataset, store);
  }
  RepResult result;
  result.wall_s = seconds_between(start, WallClock::now());

  // The dataset checksum is an output check, and freeing the dataset and
  // store is not part of the pipeline: both stay off the timed path.
  fold.add(check::dataset_checksum(*dataset));
  result.checksum = fold.h;
  result.rows = dataset->size();
  return result;
}

/// Set-up samples taken after every repetition. Set-up takes ~15 ms
/// against a ~1.7 s repetition, so the batches spread ~70 samples over a
/// 20 s run: a slow spell of a shared host (often the first second of the
/// process) moves only the few samples taken during it, not their median.
constexpr int kSetupBatch = 8;

/// Builds a set-up, appending its construction time to `setup_s`.
std::unique_ptr<Setup> timed_setup(const atlas::CampaignConfig& config,
                                   std::vector<double>& setup_s) {
  const auto start = WallClock::now();
  auto setup = std::make_unique<Setup>(config);
  setup_s.push_back(seconds_between(start, WallClock::now()));
  return setup;
}

void sample_setups(const atlas::CampaignConfig& config,
                   std::vector<double>& setup_s) {
  for (int i = 0; i < kSetupBatch; ++i) timed_setup(config, setup_s);
}

/// The timed body: repetitions until `seconds` have passed (at least two),
/// a batch of set-up samples after each, outside the repetition's time.
struct Body {
  std::vector<double> rep_s;
  std::vector<std::uint64_t> checksums;
  std::size_t rows = 0;
  atlas::CampaignTelemetry telemetry;
};

Body run_body(const Setup& setup, const atlas::CampaignConfig& config,
              const std::string& snapshot_path, double seconds,
              std::vector<double>& setup_s) {
  Body body;
  const auto start = WallClock::now();
  while (body.rep_s.size() < 2 ||
         seconds_between(start, WallClock::now()) < seconds) {
    const RepResult rep = reproduce_once(setup, snapshot_path, body.telemetry);
    body.rep_s.push_back(rep.wall_s);
    body.checksums.push_back(rep.checksum);
    body.rows += rep.rows;
    sample_setups(config, setup_s);
  }
  return body;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

}  // namespace

RunResult run_reproduce(const RunOptions& options) {
  RunResult result;
  atlas::CampaignConfig config;
  config.duration_days = options.days;
  config.seed = options.seed;
  const std::string snapshot_path = options.dir + "/reproduction.snap";

  // Set-up: this one is kept for the timed phase, which samples set-up
  // again after every repetition.
  tracer().enable(options.trace);
  std::vector<double> setup_s;
  const std::unique_ptr<Setup> setup = timed_setup(config, setup_s);

  // One unmeasured repetition first: heap growth and first-touch page
  // faults. Its checksum is the reference every later one must match.
  tracer().enable(false);
  atlas::CampaignTelemetry warm_telemetry;
  const std::uint64_t reference =
      reproduce_once(*setup, snapshot_path, warm_telemetry).checksum;

  // The traced run first measures the same body untraced, so the
  // difference between the two is the tracing overhead.
  std::optional<Body> untraced;
  if (options.trace) {
    untraced = run_body(*setup, config, snapshot_path, options.seconds, setup_s);
  }
  tracer().enable(options.trace);
  const Body body =
      run_body(*setup, config, snapshot_path, options.seconds, setup_s);
  tracer().enable(false);
  const double rss_mb = peak_rss_mb();  // before the checks allocate

  // Output checks, off the timed path.
  const std::size_t expected = setup->campaign->expected_record_count();
  const std::size_t reps = body.rep_s.size();
  if (body.rows != expected * reps) {
    result.problems.push_back("dataset size " + std::to_string(body.rows / reps) +
                              " != expected_record_count() " +
                              std::to_string(expected));
  }
  std::vector<std::uint64_t> all = body.checksums;
  if (untraced) all.insert(all.end(), untraced->checksums.begin(),
                           untraced->checksums.end());
  for (const std::uint64_t c : all) {
    if (c != reference) {
      result.problems.push_back("reproduction checksum differs between runs");
      break;
    }
  }
  std::fprintf(stderr, "reproduce checksum (seed %llu, %d days): %016llx\n",
               static_cast<unsigned long long>(options.seed), options.days,
               static_cast<unsigned long long>(reference));
  const std::string image = read_file(snapshot_path);
  {
    tracer().enable(options.trace);
    std::optional<serve::ColumnarStore> loaded;
    {
      const auto span = tracer().span("io.snapshot_load");
      loaded.emplace(serve::load_snapshot(snapshot_path, &setup->fleet,
                                          &setup->registry));
    }
    tracer().enable(false);
    std::ostringstream resaved;
    serve::save_snapshot(*loaded, resaved);
    if (resaved.str() != image) {
      result.problems.push_back("reloaded snapshot does not re-save identically");
    }
  }

  result.attempted = reps;
  Metrics& m = result.metrics;
  const double wall = sum(body.rep_s);
  m["setup_s"] = {median(setup_s), "s"};
  m["peak_rss_mb"] = {rss_mb, "MB"};
  m["p50_ms"] = {1e3 * median(body.rep_s), "ms"};
  m["mean_ms"] = {1e3 * wall / static_cast<double>(reps), "ms"};
  m["p99_ms"] = {1e3 * percentile(body.rep_s, 0.99), "ms"};
  m["rows_per_s"] = {static_cast<double>(body.rows) / wall, "1/s"};
  if (!options.trace) return result;

  Tracer& t = tracer();
  const auto med_s = [&t](const char* name) {
    return median(t.durations_ms(name)) / 1e3;
  };
  const double campaign_total = sum(t.durations_ms("atlas.campaign")) / 1e3;
  const double build_total = sum(t.durations_ms("serve.store_build")) / 1e3;
  m["atlas.campaign_s"] = {med_s("atlas.campaign"), "s"};
  m["atlas.bursts_per_s"] = {
      static_cast<double>(body.telemetry.bursts) / campaign_total, "1/s"};
  m["atlas.cached_frac"] = {
      static_cast<double>(body.telemetry.bursts_cached) /
          static_cast<double>(body.telemetry.bursts),
      "ratio"};
  m["atlas.path_cache_s"] = {med_s("atlas.path_cache"), "s"};
  for (const char* fig : {"core.fig4", "core.fig5", "core.fig6", "core.fig7",
                          "core.fig8"}) {
    m[std::string(fig) + "_s"] = {med_s(fig), "s"};
  }
  m["serve.store_build_s"] = {med_s("serve.store_build"), "s"};
  m["serve.store_rows_per_s"] = {static_cast<double>(body.rows) / build_total,
                                 "1/s"};
  m["io.snapshot_save_s"] = {med_s("io.snapshot_save"), "s"};
  m["io.snapshot_mb"] = {static_cast<double>(image.size()) / (1024.0 * 1024.0),
                         "MB"};
  m["io.snapshot_load_s"] = {med_s("io.snapshot_load"), "s"};

  // Stage accounting: every rep span's children plus the remainder no
  // stage claims add up to the rep's wall time.
  const std::vector<Tracer::Record> spans = t.records();
  double rep_total = 0.0;
  double stage_total = 0.0;
  for (const Tracer::Record& r : spans) {
    const double d = static_cast<double>(r.end_ns - r.start_ns) / 1e9;
    if (std::string_view(r.name) == "reproduce.rep") rep_total += d;
    if (r.parent != Tracer::kNoParent &&
        std::string_view(spans[r.parent].name) == "reproduce.rep") {
      stage_total += d;
    }
  }
  m["trace.wall_s"] = {rep_total, "s"};
  m["trace.unattributed_s"] = {rep_total - stage_total, "s"};
  m["trace.overhead_pct"] = {
      100.0 * (median(body.rep_s) / median(untraced->rep_s) - 1.0), "%"};
  return result;
}

}  // namespace perfbench
