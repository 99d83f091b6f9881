#include "check/fuzz.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/oracles.hpp"
#include "check/property.hpp"
#include "front/frame.hpp"
#include "io/block_file.hpp"
#include "serve/columnar.hpp"
#include "serve/snapshot.hpp"

namespace shears::check {

std::string corpus_token(Gen& gen) {
  static constexpr std::string_view kCorpus[] = {
      "",        "nan",  "-nan", "inf",   "-inf", "1e999", "-1",
      "256",     "300",  "4294967296", "18446744073709551616",
      "0x1f",    "12abc", "3.5.7", "1e",  "+5",   "--3",   "null",
      "true",    "\"",   "{",    "}",     ",",    ":",     " ",
      "\t",      "probe", "\xc3\xa9",     "\xff", "0.0.0", "e5",
  };
  if (gen.chance(0.15)) {
    // Random short byte string, printable-ish but occasionally not.
    std::string token;
    const int len = gen.int_in(1, 6);
    for (int i = 0; i < len; ++i) {
      token.push_back(static_cast<char>(gen.int_in(1, 255)));
    }
    return token;
  }
  return std::string(
      kCorpus[gen.below(sizeof(kCorpus) / sizeof(kCorpus[0]))]);
}

namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  return text;
}

/// Replaces one comma-separated cell of the line (CSV rows only).
void mutate_cell(Gen& gen, std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream fields(line);
  while (std::getline(fields, cell, ',')) cells.push_back(cell);
  if (cells.empty()) {
    line = corpus_token(gen);
    return;
  }
  cells[gen.below(cells.size())] = corpus_token(gen);
  std::string joined;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) joined += ',';
    joined += cells[i];
  }
  line = joined;
}

/// Replaces a JSON value: the span between a random ':' and the next
/// ',' or '}'.
void mutate_json_value(Gen& gen, std::string& line) {
  std::vector<std::size_t> colons;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == ':') colons.push_back(i);
  }
  if (colons.empty()) {
    line += corpus_token(gen);
    return;
  }
  const std::size_t at = colons[gen.below(colons.size())] + 1;
  const std::size_t end = line.find_first_of(",}", at);
  line.replace(at, end == std::string::npos ? line.size() - at : end - at,
               corpus_token(gen));
}

/// One random structural or byte-level mutation over the whole document.
void mutate_document(Gen& gen, std::vector<std::string>& lines, bool csv) {
  if (lines.empty()) {
    lines.push_back(corpus_token(gen));
    return;
  }
  const std::size_t target = gen.below(lines.size());
  switch (gen.below(8)) {
    case 0:  // format-aware field replacement
      if (csv) {
        mutate_cell(gen, lines[target]);
      } else {
        mutate_json_value(gen, lines[target]);
      }
      break;
    case 1: {  // splice a token at a random position
      const std::size_t at = gen.below(lines[target].size() + 1);
      lines[target].insert(at, corpus_token(gen));
      break;
    }
    case 2:  // truncate the line
      lines[target].resize(gen.below(lines[target].size() + 1));
      break;
    case 3:  // delete one byte
      if (!lines[target].empty()) {
        lines[target].erase(gen.below(lines[target].size()), 1);
      }
      break;
    case 4:  // flip one byte
      if (!lines[target].empty()) {
        lines[target][gen.below(lines[target].size())] =
            static_cast<char>(gen.int_in(1, 255));
      }
      break;
    case 5: {  // duplicate a whole line
      std::string copy = lines[target];
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(target),
                   std::move(copy));
      break;
    }
    case 6:  // delete a whole line
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(target));
      break;
    default: {  // swap two lines (may move the CSV header)
      const std::size_t other = gen.below(lines.size());
      std::swap(lines[target], lines[other]);
      break;
    }
  }
}

bool has_line_context(const std::string& message) {
  return message.find("line") != std::string::npos ||
         message.find("header") != std::string::npos;
}

template <typename Parse>
FuzzStats fuzz_document(Gen& gen, const World& world,
                        const std::string& valid_text, int rounds, bool csv,
                        const char* reader, Parse&& parse) {
  FuzzStats stats;
  const std::vector<std::string> original = split_lines(valid_text);
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::string> lines = original;
    const int edits = gen.int_in(1, 3);
    for (int e = 0; e < edits; ++e) mutate_document(gen, lines, csv);
    const std::string mutated = join_lines(lines);
    ++stats.mutations;
    try {
      parse(mutated);
      ++stats.parsed;
    } catch (const std::runtime_error& error) {
      // The documented contract: a malformed document fails with the
      // reader's line-numbered (or header) diagnostic.
      const std::string message = error.what();
      if (message.find(reader) == std::string::npos ||
          !has_line_context(message)) {
        throw PropertyFailure(std::string(reader) +
                              " raised an undiagnosable error: \"" + message +
                              "\" [" + world.summary + "]");
      }
      ++stats.rejected;
    } catch (const std::exception& error) {
      throw PropertyFailure(std::string(reader) +
                            " raised the wrong exception type: \"" +
                            error.what() + "\" [" + world.summary + "]");
    }
  }
  return stats;
}

}  // namespace

FuzzStats fuzz_csv(Gen& gen, const World& world,
                   const atlas::MeasurementDataset& dataset, int rounds) {
  std::ostringstream os;
  dataset.write_csv(os);
  return fuzz_document(gen, world, os.str(), rounds, true, "read_csv",
                       [&](const std::string& text) {
                         std::istringstream is(text);
                         (void)atlas::MeasurementDataset::read_csv(
                             is, &world.fleet, &world.registry);
                       });
}

FuzzStats fuzz_jsonl(Gen& gen, const World& world,
                     const atlas::MeasurementDataset& dataset, int rounds) {
  std::ostringstream os;
  dataset.write_jsonl(os, world.campaign.interval_hours);
  return fuzz_document(gen, world, os.str(), rounds, false, "read_jsonl",
                       [&](const std::string& text) {
                         std::istringstream is(text);
                         (void)atlas::MeasurementDataset::read_jsonl(
                             is, &world.fleet, &world.registry,
                             world.campaign.interval_hours);
                       });
}

namespace {

std::string random_token(Gen& gen, int max_len) {
  std::string token;
  const int len = gen.int_in(0, max_len);
  for (int i = 0; i < len; ++i) {
    token.push_back(static_cast<char>(gen.int_in(1, 255)));
  }
  return token;
}

/// One random valid frame appended to `out`; returns the payload bytes
/// it carries, for the clean-round round-trip comparison.
std::pair<front::FrameType, std::vector<std::uint8_t>> append_random_frame(
    Gen& gen, std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  front::FrameType type = front::FrameType::kRequest;
  switch (gen.below(3)) {
    case 0: {
      front::Request req;
      req.request_id = gen.u64();
      req.client_id = gen.u64();
      req.deadline_us = gen.below(1'000'000);
      req.kind = static_cast<serve::QueryKind>(gen.below(3));
      req.lat_deg = gen.real_in(-90.0, 90.0);
      req.lon_deg = gen.real_in(-180.0, 180.0);
      if (gen.chance(0.5)) req.country_iso2 = random_token(gen, 2);
      req.access = static_cast<net::AccessTechnology>(gen.below(7));
      req.any_access = gen.chance(0.5);
      if (gen.chance(0.5)) req.app_id = random_token(gen, 12);
      req.budget_ms = gen.real_in(0.0, 500.0);
      req.k = static_cast<std::uint32_t>(gen.below(16));
      front::append_request_frame(out, req);
      type = front::FrameType::kRequest;
      break;
    }
    case 1: {
      front::Response res;
      res.request_id = gen.u64();
      res.ok = gen.chance(0.8);
      if (gen.chance(0.5)) res.country_iso2 = random_token(gen, 2);
      res.best_region = static_cast<std::uint16_t>(gen.below(101));
      res.best_ms = gen.real_in(0.0, 400.0);
      res.median_ms = gen.real_in(0.0, 400.0);
      res.p95_ms = gen.real_in(0.0, 400.0);
      res.verdict = static_cast<core::EdgeVerdict>(gen.below(5));
      res.in_zone = gen.chance(0.5);
      const int rows = gen.int_in(0, 8);
      for (int r = 0; r < rows; ++r) {
        res.regions.push_back(front::WireRegion{
            static_cast<std::uint16_t>(gen.below(101)),
            gen.real_in(0.0, 400.0)});
      }
      front::append_response_frame(out, res);
      type = front::FrameType::kResponse;
      break;
    }
    default: {
      front::Error err;
      err.request_id = gen.u64();
      err.code = static_cast<front::ErrorCode>(gen.int_in(1, 5));
      err.message = random_token(gen, 24);
      front::append_error_frame(out, err);
      type = front::FrameType::kError;
      break;
    }
  }
  return {type, std::vector<std::uint8_t>(
                    out.begin() + static_cast<std::ptrdiff_t>(start) +
                        static_cast<std::ptrdiff_t>(front::kFrameHeaderBytes),
                    out.end())};
}

/// One byte-level mutation over the whole stream.
void mutate_bytes(Gen& gen, std::vector<std::uint8_t>& bytes) {
  if (bytes.empty()) return;
  switch (gen.below(5)) {
    case 0:  // flip a byte (magic, header fields and payload all fair game)
      bytes[gen.below(bytes.size())] =
          static_cast<std::uint8_t>(gen.below(256));
      break;
    case 1:  // truncate
      bytes.resize(gen.below(bytes.size() + 1));
      break;
    case 2: {  // splice random bytes at a random position
      const std::size_t at = gen.below(bytes.size() + 1);
      const int len = gen.int_in(1, 16);
      std::vector<std::uint8_t> noise;
      for (int i = 0; i < len; ++i) {
        noise.push_back(static_cast<std::uint8_t>(gen.below(256)));
      }
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                   noise.begin(), noise.end());
      break;
    }
    case 3: {  // delete a short span
      const std::size_t at = gen.below(bytes.size());
      const std::size_t len =
          std::min(bytes.size() - at,
                   static_cast<std::size_t>(gen.int_in(1, 16)));
      bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                  bytes.begin() + static_cast<std::ptrdiff_t>(at + len));
      break;
    }
    default: {  // duplicate a short span (repeated headers, stutter)
      const std::size_t at = gen.below(bytes.size());
      const std::size_t len =
          std::min(bytes.size() - at,
                   static_cast<std::size_t>(gen.int_in(1, 16)));
      const std::vector<std::uint8_t> span(
          bytes.begin() + static_cast<std::ptrdiff_t>(at),
          bytes.begin() + static_cast<std::ptrdiff_t>(at + len));
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                   span.begin(), span.end());
      break;
    }
  }
}

}  // namespace

FrameFuzzStats fuzz_frames(Gen& gen, int rounds) {
  FrameFuzzStats stats;
  for (int round = 0; round < rounds; ++round) {
    ++stats.rounds;
    std::vector<std::uint8_t> bytes;
    std::vector<std::pair<front::FrameType, std::vector<std::uint8_t>>> built;
    const int count = gen.int_in(1, 6);
    for (int f = 0; f < count; ++f) {
      built.push_back(append_random_frame(gen, bytes));
    }

    const bool clean = gen.chance(0.3);
    if (!clean) {
      const int edits = gen.int_in(1, 4);
      for (int e = 0; e < edits; ++e) mutate_bytes(gen, bytes);
    } else {
      ++stats.clean;
    }

    front::FrameDecoder decoder;
    std::vector<front::FrameDecoder::Item> delivered;
    // Every next() call past this bound would mean the decoder stopped
    // consuming input — the infinite-loop failure mode.
    const std::size_t progress_cap = bytes.size() + 64;
    std::size_t calls = 0;
    try {
      std::size_t pos = 0;
      while (pos < bytes.size()) {
        const std::size_t chunk = std::min(
            bytes.size() - pos, static_cast<std::size_t>(gen.int_in(1, 48)));
        decoder.feed(std::span<const std::uint8_t>(bytes).subspan(pos, chunk));
        pos += chunk;
        while (true) {
          if (++calls > progress_cap) {
            throw PropertyFailure(
                "fuzz_frames: decoder stopped making progress");
          }
          front::FrameDecoder::Item item = decoder.next();
          if (item.status == front::DecodeStatus::kNeedMore) break;
          if (item.status == front::DecodeStatus::kFrame) {
            // Body decoders must be total too: garbage that checksums
            // fine returns false, it never throws.
            if (item.type == front::FrameType::kRequest) {
              front::Request req;
              (void)front::decode_request(item.payload, req);
            } else if (item.type == front::FrameType::kResponse) {
              front::Response res;
              (void)front::decode_response(item.payload, res);
            } else {
              front::Error err;
              (void)front::decode_error(item.payload, err);
            }
            ++stats.frames;
          } else {
            ++stats.damaged;
          }
          delivered.push_back(std::move(item));
        }
      }
    } catch (const PropertyFailure&) {
      throw;
    } catch (const std::exception& error) {
      throw PropertyFailure(std::string("fuzz_frames: decoder threw: \"") +
                            error.what() + "\"");
    }

    if (clean) {
      // An undamaged stream must round-trip exactly, no matter how the
      // bytes were chunked.
      std::size_t seen = 0;
      for (const front::FrameDecoder::Item& item : delivered) {
        if (item.status != front::DecodeStatus::kFrame) {
          throw PropertyFailure("fuzz_frames: clean stream produced " +
                                std::string(to_string(item.status)));
        }
        if (seen >= built.size() || item.type != built[seen].first ||
            item.payload != built[seen].second) {
          throw PropertyFailure(
              "fuzz_frames: clean stream payload mismatch at frame " +
              std::to_string(seen));
        }
        ++seen;
      }
      if (seen != built.size()) {
        throw PropertyFailure("fuzz_frames: clean stream delivered " +
                              std::to_string(seen) + " of " +
                              std::to_string(built.size()) + " frames");
      }
      if (decoder.buffered() != 0) {
        throw PropertyFailure(
            "fuzz_frames: clean stream left bytes buffered");
      }
    }
  }
  return stats;
}

namespace {

/// Everything one decode of a byte stream produces: the delivered frame
/// sequence, the final tallies, and the unconsumed residue size.
struct ReassemblyRun {
  std::vector<std::pair<front::FrameType, std::vector<std::uint8_t>>> frames;
  std::size_t damaged = 0;
  front::FrameDecoder::Tally tally;
  std::size_t residue = 0;
};

/// Decodes `bytes` split at random chunk boundaries (chunk size 0 means
/// "feed everything at once").
ReassemblyRun decode_chunked(Gen& gen, std::span<const std::uint8_t> bytes,
                             bool whole) {
  front::FrameDecoder decoder;
  ReassemblyRun run;
  // next() must consume input or report kNeedMore once per feed; more
  // calls than bytes-plus-slack means it stopped making progress.
  const std::size_t progress_cap = 2 * bytes.size() + 64;
  std::size_t calls = 0;
  std::size_t pos = 0;
  try {
    while (pos < bytes.size()) {
      const std::size_t chunk =
          whole ? bytes.size()
                : std::min(bytes.size() - pos,
                           static_cast<std::size_t>(gen.int_in(1, 48)));
      decoder.feed(bytes.subspan(pos, chunk));
      pos += chunk;
      while (true) {
        if (++calls > progress_cap) {
          throw PropertyFailure(
              "fuzz_reassembly: decoder stopped making progress");
        }
        front::FrameDecoder::Item item = decoder.next();
        if (item.status == front::DecodeStatus::kNeedMore) break;
        if (item.status == front::DecodeStatus::kFrame) {
          run.frames.emplace_back(item.type, std::move(item.payload));
        } else {
          ++run.damaged;
        }
      }
    }
  } catch (const PropertyFailure&) {
    throw;
  } catch (const std::exception& error) {
    throw PropertyFailure(std::string("fuzz_reassembly: decoder threw: \"") +
                          error.what() + "\"");
  }
  run.tally = decoder.tally();
  run.residue = decoder.buffered();
  return run;
}

/// The chunking-invariance contract between a reference decode and a
/// differently-chunked decode of the same bytes. Two quantities are
/// legitimately chunking-dependent: bad_magic counts resync *events*
/// (a garbage run torn across reads surfaces as several), and the
/// resync scan can only run through bytes buffered at the time, so
/// trailing garbage splits differently between "discarded" and "still
/// buffered". What IS conserved: the delivered frame sequence, every
/// whole-frame tally, and discarded + residual bytes as a sum.
void require_same_reassembly(const ReassemblyRun& ref,
                             const ReassemblyRun& got, const char* what) {
  if (got.frames != ref.frames) {
    throw PropertyFailure(std::string("fuzz_reassembly: ") + what +
                          ": delivered frame sequence depends on chunking");
  }
  const front::FrameDecoder::Tally& a = ref.tally;
  const front::FrameDecoder::Tally& b = got.tally;
  if (a.frames != b.frames || a.bad_version != b.bad_version ||
      a.bad_length != b.bad_length || a.bad_checksum != b.bad_checksum ||
      a.bad_type != b.bad_type) {
    throw PropertyFailure(std::string("fuzz_reassembly: ") + what +
                          ": decode tallies depend on chunking");
  }
  if (a.resync_bytes + ref.residue != b.resync_bytes + got.residue) {
    throw PropertyFailure(
        std::string("fuzz_reassembly: ") + what +
        ": discarded+buffered byte count depends on chunking");
  }
}

}  // namespace

ReassemblyFuzzStats fuzz_reassembly(Gen& gen, int rounds) {
  ReassemblyFuzzStats stats;
  for (int round = 0; round < rounds; ++round) {
    ++stats.rounds;
    std::vector<std::uint8_t> bytes;
    const int count = gen.int_in(1, 8);
    for (int f = 0; f < count; ++f) {
      (void)append_random_frame(gen, bytes);
    }
    if (gen.chance(0.6)) {
      ++stats.mutated;
      const int edits = gen.int_in(1, 4);
      for (int e = 0; e < edits; ++e) mutate_bytes(gen, bytes);
    }

    const std::span<const std::uint8_t> view(bytes);
    const ReassemblyRun reference = decode_chunked(gen, view, /*whole=*/true);
    stats.frames += reference.frames.size();
    stats.damaged += reference.damaged;
    require_same_reassembly(reference, decode_chunked(gen, view, false),
                            "chunking A");
    require_same_reassembly(reference, decode_chunked(gen, view, false),
                            "chunking B");
  }
  return stats;
}

namespace {

/// Column-and-counter identity of two stores — the fuzz-side version of
/// the gtest expect_same_store helper, throwing PropertyFailure.
void require_same_store(const serve::ColumnarStore& a,
                        const serve::ColumnarStore& b,
                        const std::string& what) {
  if (a.rows_stored() != b.rows_stored() ||
      a.rows_dropped() != b.rows_dropped()) {
    throw PropertyFailure(what + ": row counters diverge");
  }
  const std::vector<serve::ColumnarStore::ShardView> shards_a = a.shards();
  const std::vector<serve::ColumnarStore::ShardView> shards_b = b.shards();
  if (shards_a.size() != shards_b.size()) {
    throw PropertyFailure(what + ": shard counts diverge");
  }
  for (std::size_t s = 0; s < shards_a.size(); ++s) {
    const serve::ColumnarStore::ShardView& va = shards_a[s];
    const serve::ColumnarStore::ShardView& vb = shards_b[s];
    if (va.country != vb.country || va.access != vb.access ||
        va.rtt_ms.size() != vb.rtt_ms.size()) {
      throw PropertyFailure(what + ": shard " + std::to_string(s) +
                            " shape diverges");
    }
    for (std::size_t i = 0; i < va.rtt_ms.size(); ++i) {
      if (va.probe_ids[i] != vb.probe_ids[i] ||
          va.region_index[i] != vb.region_index[i] ||
          va.ticks[i] != vb.ticks[i] ||
          std::bit_cast<std::uint32_t>(va.rtt_ms[i]) !=
              std::bit_cast<std::uint32_t>(vb.rtt_ms[i])) {
        throw PropertyFailure(what + ": shard " + std::to_string(s) +
                              " row " + std::to_string(i) + " diverges");
      }
    }
  }
}

/// Edits one block's payload and reseals its CRC, so the edit reaches
/// the loader's content checks instead of its checksum. Most edits hit
/// a RUNS block's sorted values (swap two, nudge one by an ulp, or
/// write a NaN or a negative); the rest change one byte of any block.
void mutate_sealed_block(Gen& gen, std::vector<std::uint8_t>& bytes) {
  struct Framed {
    std::size_t at;
    std::uint32_t tag;
    std::size_t len;
  };
  std::vector<Framed> blocks;
  std::vector<Framed> runs;
  std::size_t at = io::kContainerHeaderBytes;
  while (bytes.size() >= at + io::kBlockHeaderBytes) {
    std::uint32_t tag = 0;
    std::uint64_t len = 0;
    std::memcpy(&tag, bytes.data() + at, sizeof(tag));
    std::memcpy(&len, bytes.data() + at + 4, sizeof(len));
    if (len > bytes.size() - at - io::kBlockHeaderBytes) break;
    const Framed block{at, tag, static_cast<std::size_t>(len)};
    blocks.push_back(block);
    if (tag == io::fourcc("RUNS") && len >= 4 + sizeof(float)) {
      runs.push_back(block);
    }
    at += io::kBlockHeaderBytes + block.len;
  }
  if (blocks.empty()) return;

  const bool on_runs = !runs.empty() && gen.chance(0.75);
  const Framed block = on_runs ? runs[gen.below(runs.size())]
                               : blocks[gen.below(blocks.size())];
  std::uint8_t* payload = bytes.data() + block.at + io::kBlockHeaderBytes;
  if (on_runs) {
    // Values sit at any alignment: edit them through copies.
    const std::size_t values = (block.len - 4) / sizeof(float);
    const auto value_at = [payload](std::size_t i) {
      return payload + 4 + i * sizeof(float);
    };
    const std::size_t i = gen.below(values);
    float v = 0.0f;
    std::memcpy(&v, value_at(i), sizeof(v));
    switch (gen.below(4)) {
      case 0: {  // swap with another value of the block
        const std::size_t j = gen.below(values);
        float w = 0.0f;
        std::memcpy(&w, value_at(j), sizeof(w));
        std::memcpy(value_at(i), &w, sizeof(w));
        std::memcpy(value_at(j), &v, sizeof(v));
        break;
      }
      case 1:  // the next float up: often still sorted
        v = std::nextafter(v, std::numeric_limits<float>::infinity());
        std::memcpy(value_at(i), &v, sizeof(v));
        break;
      case 2:
        v = std::numeric_limits<float>::quiet_NaN();
        std::memcpy(value_at(i), &v, sizeof(v));
        break;
      default:
        v = -v - 1.0f;
        std::memcpy(value_at(i), &v, sizeof(v));
        break;
    }
  } else if (block.len > 0) {
    payload[gen.below(block.len)] = static_cast<std::uint8_t>(gen.below(256));
  }
  const std::span<const std::uint8_t> parts[] = {{payload, block.len}};
  const std::uint32_t crc = io::block_crc(block.tag, parts);
  std::memcpy(bytes.data() + block.at + 12, &crc, sizeof(crc));
}

}  // namespace

SnapshotFuzzStats fuzz_snapshot(Gen& gen, const World& world,
                                const atlas::MeasurementDataset& dataset,
                                int rounds) {
  const serve::ColumnarStore store =
      serve::ColumnarStore::build(dataset, serve::StoreConfig{1});
  std::ostringstream sink(std::ios::binary);
  serve::save_snapshot(store, sink);
  const std::string image = sink.str();
  const std::vector<std::uint8_t> original(image.begin(), image.end());

  SnapshotFuzzStats stats;
  for (int round = 0; round < rounds; ++round) {
    ++stats.rounds;
    std::vector<std::uint8_t> bytes = original;
    const bool clean = gen.chance(0.15);
    if (clean) {
      ++stats.clean;
    } else if (gen.chance(0.4)) {
      mutate_sealed_block(gen, bytes);
    } else {
      const int edits = gen.int_in(1, 4);
      for (int e = 0; e < edits; ++e) mutate_bytes(gen, bytes);
    }

    try {
      serve::SnapshotLoadOptions options;
      options.lazy_summaries = gen.chance(0.3);
      serve::ColumnarStore loaded =
          serve::load_snapshot(bytes, &world.fleet, &world.registry,
                               serve::StoreConfig{1}, options);
      ++stats.loaded;
      // Whatever the loader accepts must be a complete store: the lazy
      // path still owes a working refresh, its cells must be the sort of
      // its own columns, and a clean image must reproduce the original
      // exactly.
      if (!loaded.fresh()) loaded.refresh();
      check_cells_match_columns(
          loaded, "fuzz_snapshot: accepted image [" + world.summary + "]");
      if (clean) {
        require_same_store(store, loaded,
                           "fuzz_snapshot: clean image diverges");
      }
    } catch (const serve::SnapshotError&) {
      ++stats.rejected;
      if (clean) {
        throw PropertyFailure(
            "fuzz_snapshot: loader rejected an unmutated image [" +
            world.summary + "]");
      }
    } catch (const io::BlockError&) {
      ++stats.rejected;
      if (clean) {
        throw PropertyFailure(
            "fuzz_snapshot: container reader rejected an unmutated image [" +
            world.summary + "]");
      }
    } catch (const PropertyFailure&) {
      throw;
    } catch (const std::exception& error) {
      throw PropertyFailure(
          std::string("fuzz_snapshot: loader threw outside the contract: "
                      "\"") +
          error.what() + "\" [" + world.summary + "]");
    }
  }
  return stats;
}

}  // namespace shears::check
