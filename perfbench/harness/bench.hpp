// Shared types of the benchmark harness: run options, the metric map a
// workload fills, and the percentile rule every latency metric uses.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Latency recorded for a request that failed, was refused, expired or
/// timed out: it misses every latency limit, so it sorts above any
/// measured latency and can only push a percentile up.
inline constexpr double kFailed = std::numeric_limits<double>::infinity();

/// Exact nearest-rank percentile (q in (0, 1]) of an unsorted sample;
/// 0 when empty. Failed requests take part as kFailed.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Campaign length behind every dataset (the paper's 270 days; the
  /// smoke scale shrinks it).
  int days = 270;
  /// Scratch directory for the snapshot image, delta rows and log, the
  /// saved reproduction and the trace file.
  std::string dir;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;  ///< end-to-end and per-layer together
  /// Output-check and validity failures; any entry makes the run incorrect.
  std::vector<std::string> problems;
};

[[nodiscard]] RunResult run_reproduce(const RunOptions& options);
[[nodiscard]] RunResult run_serve(const RunOptions& options);

/// Untimed preparation for the serve workloads, in its own process so the
/// campaign never counts toward the serving process's memory: the base
/// snapshot image (`<dir>/base.snap`, a `days`-day campaign at `seed`)
/// and the rows serve_ingest publishes (`<dir>/delta.bin`, a shorter
/// campaign at another seed, in dataset order).
void prepare_serving(const RunOptions& options);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
