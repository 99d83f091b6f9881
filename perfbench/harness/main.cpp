// perfbench_harness — the benchmark's measuring program; perfbench/run.py
// builds and drives it.
//
//   perfbench_harness prepare --workload W --seed N --days D --dir DIR
//   perfbench_harness run --workload W --seed N --seconds S --trace 0|1
//                         --days D --dir DIR
//   perfbench_harness selftest
//
// `run` prints one JSON object on its last stdout line: attempted, failed,
// the problems the output checks found, every metric it measured (value
// and unit) and the machine/build record. Exit status 1 means the run
// could not be measured at all (for example, no sockets).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <thread>

#include "bench.hpp"
#include "serve/scan.hpp"
#include "trace.hpp"

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // run.py rejects non-finite values
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_result(const RunOptions& o, const RunResult& r) {
  std::string out = "{\"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    out += (i ? ", " : "") + json_string(r.problems[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : r.metrics) {
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
           json_number(metric.value) + ", \"unit\": " +
           json_string(metric.unit) + "}";
    first = false;
  }
  out += "}, \"meta\": {\"workload\": " + json_string(o.workload) +
         ", \"seed\": " + std::to_string(o.seed) +
         ", \"days\": " + std::to_string(o.days) +
         ", \"seconds\": " + json_number(o.seconds) +
         ", \"trace\": " + (o.trace ? "true" : "false") +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": " + json_string(cpu_model()) +
         ", \"compiler\": " + json_string("gcc " __VERSION__) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"cxx_flags\": " + json_string(PERFBENCH_CXX_FLAGS) +
         ", \"scan_kernels\": " +
         json_string(shears::serve::active_scan_kernels().name) + "}}";
  std::cout << out << std::endl;
}

/// The percentile rule's one promise: a failed request never makes a
/// percentile better — turning a success into a failure, or adding a
/// failure, can only raise (or keep) every percentile.
int selftest() {
  std::mt19937_64 rng(2020);
  std::uniform_real_distribution<double> latency(0.05, 50.0);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<double> sample(1 + rng() % 300);
    for (double& x : sample) x = latency(rng);
    for (const double q : {0.5, 0.9, 0.99, 1.0}) {
      const double before = percentile(sample, q);
      std::vector<double> failed_one = sample;
      failed_one[rng() % failed_one.size()] = kFailed;
      std::vector<double> one_more = sample;
      one_more.push_back(kFailed);
      if (percentile(failed_one, q) < before ||
          percentile(one_more, q) < before) {
        std::cerr << "selftest: a failure lowered p" << q * 100 << '\n';
        return 1;
      }
    }
  }
  std::cout << "selftest ok\n";
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench_harness prepare|run|selftest [--workload W] "
               "[--seed N] [--seconds S] [--trace 0|1] [--days D] [--dir DIR]\n";
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "selftest") return selftest();

  RunOptions o;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::stoull(value);
    else if (key == "--seconds") o.seconds = std::stod(value);
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--days") o.days = std::stoi(value);
    else if (key == "--dir") o.dir = value;
    else return usage();
  }
  const bool serve = o.workload == "serve_open" || o.workload == "serve_ingest";
  if ((!serve && o.workload != "reproduce") || o.dir.empty() ||
      o.seconds <= 0.0 || o.days <= 0) {
    return usage();
  }
  try {
    if (command == "prepare") {
      if (serve) prepare_serving(o);
      return 0;
    }
    if (command != "run") return usage();
    const RunResult result = serve ? run_serve(o) : run_reproduce(o);
    if (o.trace) tracer().write_chrome_trace(o.dir + "/trace.json");
    print_result(o, result);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << '\n';
    return 1;
  }
}
