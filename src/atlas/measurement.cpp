#include "atlas/measurement.hpp"

#include <cmath>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace shears::atlas {

namespace {

constexpr std::string_view kCsvHeader =
    "probe_id,country,continent,access,provider,region,tick,min_ms,avg_ms,"
    "max_ms,sent,received,retries,faults";
constexpr std::string_view kLegacyCsvHeader =
    "probe_id,country,continent,access,provider,region,tick,min_ms,avg_ms,"
    "max_ms,sent,received";

/// RTT floats are written with max_digits10 significant digits so that a
/// write → read round trip reproduces the stored value bit for bit (the
/// default 6-digit precision loses the low mantissa bits). Scoped: the
/// caller's stream precision is restored on destruction.
class FloatPrecisionGuard {
 public:
  explicit FloatPrecisionGuard(std::ostream& os)
      : os_(os),
        old_(os.precision(std::numeric_limits<float>::max_digits10)) {}
  ~FloatPrecisionGuard() { os_.precision(old_); }
  FloatPrecisionGuard(const FloatPrecisionGuard&) = delete;
  FloatPrecisionGuard& operator=(const FloatPrecisionGuard&) = delete;

 private:
  std::ostream& os_;
  std::streamsize old_;
};

}  // namespace

MeasurementDataset::MeasurementDataset(const ProbeFleet* fleet,
                                       const topology::CloudRegistry* registry,
                                       Records records)
    : fleet_(fleet), registry_(registry), records_(std::move(records)) {
  if (fleet_ == nullptr || registry_ == nullptr) {
    throw std::invalid_argument("MeasurementDataset: null fleet or registry");
  }
}

double MeasurementDataset::loss_fraction() const noexcept {
  if (records_.empty()) return 0.0;
  std::size_t lost = 0;
  for (const Measurement& m : records_) {
    if (m.lost()) ++lost;
  }
  return static_cast<double>(lost) / static_cast<double>(records_.size());
}

double MeasurementDataset::faulted_fraction() const noexcept {
  if (records_.empty()) return 0.0;
  std::size_t faulted = 0;
  for (const Measurement& m : records_) {
    if (m.faulted()) ++faulted;
  }
  return static_cast<double>(faulted) / static_cast<double>(records_.size());
}

void MeasurementDataset::write_jsonl(std::ostream& os,
                                     int interval_hours) const {
  const FloatPrecisionGuard precision(os);
  for (const Measurement& m : records_) {
    const Probe& p = probe_of(m);
    const topology::CloudRegion& r = region_of(m);
    const long long timestamp =
        static_cast<long long>(m.tick) * interval_hours * 3600;
    os << "{\"type\":\"ping\",\"prb_id\":" << m.probe_id
       << ",\"dst_name\":\"" << topology::to_string(r.provider) << '/'
       << r.region_id << "\",\"timestamp\":" << timestamp
       << ",\"sent\":" << static_cast<int>(m.sent)
       << ",\"rcvd\":" << static_cast<int>(m.received);
    if (m.lost()) {
      os << ",\"min\":-1,\"avg\":-1,\"max\":-1";
    } else {
      os << ",\"min\":" << m.min_ms << ",\"avg\":" << m.avg_ms
         << ",\"max\":" << m.max_ms;
    }
    if (m.retries != 0) {
      os << ",\"retries\":" << static_cast<int>(m.retries);
    }
    if (m.faults != 0) {
      os << ",\"faults\":" << static_cast<int>(m.faults);
    }
    os << ",\"country\":\"" << p.country->iso2 << "\",\"continent\":\""
       << geo::to_code(p.country->continent) << "\",\"access\":\""
       << net::to_string(p.endpoint.access) << "\"}\n";
  }
}

namespace {

/// (provider, region_id) -> registry index lookup shared by both readers.
/// The error carries the line number like every other malformed-row
/// diagnostic — a bad region cell must point at its row, not just name
/// the unknown region.
std::size_t region_index_of(const topology::CloudRegistry& registry,
                            std::string_view provider,
                            std::string_view region_id, const char* who,
                            std::size_t line_no) {
  const auto& regions = registry.regions();
  for (std::size_t i = 0; i < regions.size(); ++i) {
    if (topology::to_string(regions[i]->provider) == provider &&
        regions[i]->region_id == region_id) {
      return i;
    }
  }
  throw std::runtime_error(std::string(who) + ": unknown region " +
                           std::string(provider) + "/" +
                           std::string(region_id) + " at line " +
                           std::to_string(line_no));
}

/// Checks a row's probe metadata against the fleet; loading a dataset
/// against the wrong fleet seed must fail loudly.
/// Packet / retry / fault counters live in uint8 record fields; a bare
/// `static_cast<std::uint8_t>(std::stoi(...))` silently wraps anything
/// outside [0, 255] (sent=300 becomes 44, -1 becomes 255). Validate the
/// full-width value first; the throw surfaces as the caller's
/// line-numbered malformed-row error.
/// The std::sto* family stops at the first non-numeric character, so
/// "12abc" would silently parse as 12. Every CSV cell must consume in
/// full, like the JSONL parsers already require.
void require_full_cell(std::size_t used, const std::string& cell) {
  if (used != cell.size()) {
    throw std::invalid_argument("trailing garbage in cell");
  }
}

std::uint8_t parse_count_u8(const std::string& cell) {
  std::size_t used = 0;
  const int value = std::stoi(cell, &used);
  require_full_cell(used, cell);
  if (value < 0 || value > 255) {
    throw std::out_of_range("counter outside [0, 255]");
  }
  return static_cast<std::uint8_t>(value);
}

/// RTT fields feed stats::Ecdf, whose precondition bans NaN; std::stof
/// happily parses "nan" and "inf", so reject anything non-finite.
float parse_finite_float(const std::string& cell) {
  std::size_t used = 0;
  const float value = std::stof(cell, &used);
  require_full_cell(used, cell);
  if (!std::isfinite(value)) {
    throw std::out_of_range("non-finite RTT");
  }
  return value;
}

/// Tick is a uint32; on LP64 std::stoul parses 64-bit values, so a tick
/// beyond 2^32 - 1 would silently truncate without this check.
std::uint32_t parse_tick_u32(const std::string& cell) {
  std::size_t used = 0;
  const unsigned long long value = std::stoull(cell, &used);
  require_full_cell(used, cell);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    throw std::out_of_range("tick exceeds 32 bits");
  }
  return static_cast<std::uint32_t>(value);
}

const Probe& checked_probe(const ProbeFleet& fleet, unsigned long probe_id,
                           std::string_view country, std::string_view access,
                           const char* who, std::size_t line_no) {
  if (probe_id >= fleet.size()) {
    throw std::runtime_error(std::string(who) +
                             ": probe id out of range at line " +
                             std::to_string(line_no));
  }
  const Probe& probe = fleet.probe(static_cast<ProbeId>(probe_id));
  if (probe.country->iso2 != country ||
      net::to_string(probe.endpoint.access) != access) {
    throw std::runtime_error(
        std::string(who) +
        ": row metadata does not match the fleet (wrong placement seed?) "
        "at line " +
        std::to_string(line_no));
  }
  return probe;
}

}  // namespace

MeasurementDataset MeasurementDataset::read_csv(
    std::istream& is, const ProbeFleet* fleet,
    const topology::CloudRegistry* registry) {
  if (fleet == nullptr || registry == nullptr) {
    throw std::invalid_argument("read_csv: null fleet or registry");
  }
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error("read_csv: missing or unexpected header");
  }
  std::size_t columns = 0;
  if (line == kCsvHeader) {
    columns = 14;
  } else if (line == kLegacyCsvHeader) {
    columns = 12;  // pre-resilience datasets: retries/faults fill as 0
  } else {
    throw std::runtime_error("read_csv: missing or unexpected header");
  }

  Records records;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string cell;
    std::vector<std::string> row;
    while (std::getline(fields, cell, ',')) row.push_back(cell);
    if (row.size() != columns) {
      throw std::runtime_error("read_csv: malformed row at line " +
                               std::to_string(line_no));
    }
    try {
      Measurement m;
      // Validate the full-width probe id before narrowing: casting first
      // would alias 2^32 + k onto probe k and pass the fleet check.
      std::size_t used = 0;
      const unsigned long probe_id = std::stoul(row[0], &used);
      require_full_cell(used, row[0]);
      checked_probe(*fleet, probe_id, row[1], row[3], "read_csv", line_no);
      m.probe_id = static_cast<ProbeId>(probe_id);
      m.region_index = static_cast<std::uint16_t>(
          region_index_of(*registry, row[4], row[5], "read_csv", line_no));
      m.tick = parse_tick_u32(row[6]);
      m.min_ms = parse_finite_float(row[7]);
      m.avg_ms = parse_finite_float(row[8]);
      m.max_ms = parse_finite_float(row[9]);
      m.sent = parse_count_u8(row[10]);
      m.received = parse_count_u8(row[11]);
      if (m.received > m.sent) {
        // No burst can deliver more echoes than it sent; a writer never
        // emits this, so it marks a corrupted or hand-edited row.
        throw std::out_of_range("received exceeds sent");
      }
      if (columns == 14) {
        m.retries = parse_count_u8(row[12]);
        m.faults = parse_count_u8(row[13]);
      }
      records.push_back(m);
    } catch (const std::invalid_argument&) {
      throw std::runtime_error("read_csv: malformed row at line " +
                               std::to_string(line_no));
    } catch (const std::out_of_range&) {
      throw std::runtime_error("read_csv: malformed row at line " +
                               std::to_string(line_no));
    }
  }
  return MeasurementDataset(fleet, registry, std::move(records));
}

namespace {

/// Pulls `"key":` out of one of our own JSONL lines. Not a general JSON
/// parser — the writer controls the format; anything it would not emit is
/// malformed input.
std::string_view json_field(std::string_view line, std::string_view key,
                            bool required, std::size_t line_no,
                            bool* present = nullptr) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) {
    if (present != nullptr) *present = false;
    if (!required) return {};
    throw std::runtime_error("read_jsonl: missing \"" + std::string(key) +
                             "\" at line " + std::to_string(line_no));
  }
  if (present != nullptr) *present = true;
  std::size_t begin = at + needle.size();
  std::size_t end;
  if (begin < line.size() && line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
    if (end == std::string_view::npos) {
      throw std::runtime_error("read_jsonl: unterminated string at line " +
                               std::to_string(line_no));
    }
  } else {
    end = line.find_first_of(",}", begin);
    if (end == std::string_view::npos) {
      throw std::runtime_error("read_jsonl: malformed line " +
                               std::to_string(line_no));
    }
  }
  return line.substr(begin, end - begin);
}

long long parse_ll(std::string_view text, const char* key,
                   std::size_t line_no) {
  try {
    std::size_t used = 0;
    const long long value = std::stoll(std::string(text), &used);
    if (used != text.size()) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    throw std::runtime_error("read_jsonl: bad " + std::string(key) +
                             " at line " + std::to_string(line_no));
  }
}

double parse_double(std::string_view text, const char* key,
                    std::size_t line_no) {
  try {
    std::size_t used = 0;
    const double value = std::stod(std::string(text), &used);
    if (used != text.size()) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    throw std::runtime_error("read_jsonl: bad " + std::string(key) +
                             " at line " + std::to_string(line_no));
  }
}

/// As parse_double, additionally rejecting NaN/inf — RTTs flow into
/// stats::Ecdf, which requires finite samples.
double parse_finite(std::string_view text, const char* key,
                    std::size_t line_no) {
  const double value = parse_double(text, key, line_no);
  if (!std::isfinite(value)) {
    throw std::runtime_error("read_jsonl: bad " + std::string(key) +
                             " at line " + std::to_string(line_no));
  }
  return value;
}

/// As parse_ll with a [0, 255] range check before the uint8 narrowing.
std::uint8_t parse_count(std::string_view text, const char* key,
                         std::size_t line_no) {
  const long long value = parse_ll(text, key, line_no);
  if (value < 0 || value > 255) {
    throw std::runtime_error("read_jsonl: bad " + std::string(key) +
                             " at line " + std::to_string(line_no));
  }
  return static_cast<std::uint8_t>(value);
}

}  // namespace

MeasurementDataset MeasurementDataset::read_jsonl(
    std::istream& is, const ProbeFleet* fleet,
    const topology::CloudRegistry* registry, int interval_hours) {
  if (fleet == nullptr || registry == nullptr) {
    throw std::invalid_argument("read_jsonl: null fleet or registry");
  }
  if (interval_hours <= 0) {
    throw std::invalid_argument("read_jsonl: interval_hours must be positive");
  }
  const long long tick_seconds =
      static_cast<long long>(interval_hours) * 3600;

  Records records;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line.front() != '{' || line.back() != '}') {
      throw std::runtime_error("read_jsonl: malformed line " +
                               std::to_string(line_no));
    }
    if (json_field(line, "type", true, line_no) != "ping") {
      throw std::runtime_error("read_jsonl: unexpected type at line " +
                               std::to_string(line_no));
    }
    Measurement m;
    const long long prb_id =
        parse_ll(json_field(line, "prb_id", true, line_no), "prb_id", line_no);
    if (prb_id < 0) {
      throw std::runtime_error("read_jsonl: bad prb_id at line " +
                               std::to_string(line_no));
    }
    // Full-width check before the ProbeId narrowing, as in read_csv.
    checked_probe(*fleet, static_cast<unsigned long>(prb_id),
                  json_field(line, "country", true, line_no),
                  json_field(line, "access", true, line_no), "read_jsonl",
                  line_no);
    m.probe_id = static_cast<ProbeId>(prb_id);

    const std::string_view dst = json_field(line, "dst_name", true, line_no);
    const std::size_t slash = dst.find('/');
    if (slash == std::string_view::npos) {
      throw std::runtime_error("read_jsonl: bad dst_name at line " +
                               std::to_string(line_no));
    }
    m.region_index = static_cast<std::uint16_t>(
        region_index_of(*registry, dst.substr(0, slash), dst.substr(slash + 1),
                        "read_jsonl", line_no));

    const long long timestamp = parse_ll(
        json_field(line, "timestamp", true, line_no), "timestamp", line_no);
    if (timestamp < 0 || timestamp % tick_seconds != 0) {
      throw std::runtime_error(
          "read_jsonl: timestamp off the tick grid at line " +
          std::to_string(line_no) + " (wrong interval_hours?)");
    }
    const long long tick = timestamp / tick_seconds;
    if (tick > std::numeric_limits<std::uint32_t>::max()) {
      throw std::runtime_error("read_jsonl: bad timestamp at line " +
                               std::to_string(line_no));
    }
    m.tick = static_cast<std::uint32_t>(tick);
    m.sent = parse_count(json_field(line, "sent", true, line_no), "sent",
                         line_no);
    m.received = parse_count(json_field(line, "rcvd", true, line_no), "rcvd",
                             line_no);
    if (m.received > m.sent) {
      throw std::runtime_error("read_jsonl: rcvd exceeds sent at line " +
                               std::to_string(line_no));
    }
    if (m.received > 0) {
      m.min_ms = static_cast<float>(
          parse_finite(json_field(line, "min", true, line_no), "min", line_no));
      m.avg_ms = static_cast<float>(
          parse_finite(json_field(line, "avg", true, line_no), "avg", line_no));
      m.max_ms = static_cast<float>(
          parse_finite(json_field(line, "max", true, line_no), "max", line_no));
    }
    bool present = false;
    const std::string_view retries =
        json_field(line, "retries", false, line_no, &present);
    if (present) {
      m.retries = parse_count(retries, "retries", line_no);
    }
    const std::string_view faults =
        json_field(line, "faults", false, line_no, &present);
    if (present) {
      m.faults = parse_count(faults, "faults", line_no);
    }
    records.push_back(m);
  }
  return MeasurementDataset(fleet, registry, std::move(records));
}

void MeasurementDataset::write_csv(std::ostream& os) const {
  const FloatPrecisionGuard precision(os);
  os << kCsvHeader << '\n';
  for (const Measurement& m : records_) {
    const Probe& p = probe_of(m);
    const topology::CloudRegion& r = region_of(m);
    os << m.probe_id << ',' << p.country->iso2 << ','
       << geo::to_code(p.country->continent) << ','
       << net::to_string(p.endpoint.access) << ','
       << topology::to_string(r.provider) << ',' << r.region_id << ','
       << m.tick << ',' << m.min_ms << ',' << m.avg_ms << ',' << m.max_ms
       << ',' << static_cast<int>(m.sent) << ','
       << static_cast<int>(m.received) << ','
       << static_cast<int>(m.retries) << ','
       << static_cast<int>(m.faults) << '\n';
  }
}

}  // namespace shears::atlas
