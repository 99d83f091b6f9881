// Corpus-driven loader fuzzing: mutate the serialised form of a valid
// dataset and assert the readers either parse the result or raise their
// documented line-numbered malformed-row error — never crash, never
// throw anything else. Run under the sanitize preset this also shakes
// out memory errors on the parse paths.
#pragma once

#include <cstddef>
#include <string>

#include "atlas/measurement.hpp"
#include "check/gen.hpp"
#include "check/world.hpp"

namespace shears::check {

/// A malformed-ish replacement drawn from the corpus of classic parser
/// killers (empty cells, NaN/inf, overflow, trailing garbage, stray
/// punctuation) plus random bytes.
[[nodiscard]] std::string corpus_token(Gen& gen);

struct FuzzStats {
  std::size_t mutations = 0;  ///< mutated documents fed to the reader
  std::size_t parsed = 0;     ///< accepted (mutation kept the row valid)
  std::size_t rejected = 0;   ///< rejected with the documented error
};

/// Serialises the dataset, applies `rounds` independent mutations, and
/// feeds each mutant to read_csv / read_jsonl. Throws PropertyFailure if
/// a reader crashes with the wrong exception type or an error message
/// without line context.
FuzzStats fuzz_csv(Gen& gen, const World& world,
                   const atlas::MeasurementDataset& dataset, int rounds);
FuzzStats fuzz_jsonl(Gen& gen, const World& world,
                     const atlas::MeasurementDataset& dataset, int rounds);

struct FrameFuzzStats {
  std::size_t rounds = 0;
  std::size_t clean = 0;    ///< unmutated rounds (exact round-trip required)
  std::size_t frames = 0;   ///< intact frames the decoder delivered
  std::size_t damaged = 0;  ///< per-frame decode errors surfaced
};

/// Builds random valid front-end frame streams, sometimes mutates them
/// (byte flips, truncation, splices, deletions), and feeds the result to
/// front::FrameDecoder in random-sized chunks. Throws PropertyFailure if
/// the decoder throws, stops making progress, or — on an unmutated
/// stream — fails to deliver every frame byte-exactly regardless of how
/// the bytes were chunked.
FrameFuzzStats fuzz_frames(Gen& gen, int rounds);

struct ReassemblyFuzzStats {
  std::size_t rounds = 0;
  std::size_t mutated = 0;  ///< rounds whose stream was damaged first
  std::size_t frames = 0;   ///< frames the reference decode delivered
  std::size_t damaged = 0;  ///< decode errors the reference surfaced
};

/// Socket-reassembly fuzzing: builds concatenated (sometimes mutated)
/// frame streams, then decodes the same bytes under three different
/// chunkings — all at once, and two independent random segmentations,
/// the torn-read shapes a TCP receive path produces. Chunk boundaries
/// must not change the delivered kFrame sequence, any whole-frame error
/// tally (bad_version/length/checksum/type), or the sum of discarded
/// and still-buffered bytes; they MAY change how a garbage run splits
/// into bad_magic resync events and how its tail splits between
/// "discarded" and "buffered" (the resync scan only sees what has
/// arrived). The decoder must also never stop making progress. Throws
/// PropertyFailure on any divergence.
ReassemblyFuzzStats fuzz_reassembly(Gen& gen, int rounds);

struct SnapshotFuzzStats {
  std::size_t rounds = 0;
  std::size_t clean = 0;     ///< unmutated rounds (exact round-trip required)
  std::size_t loaded = 0;    ///< mutants the loader still accepted
  std::size_t rejected = 0;  ///< SnapshotError / io::BlockError raised
};

/// Builds the dataset's columnar store once, serialises it with
/// save_snapshot, then feeds mutated copies of the image (byte flips,
/// truncations, splices, deletions, insertions, and edits under a
/// resealed CRC — mostly to the RUNS blocks' sorted values) to
/// load_snapshot. The loader's confinement contract: every mutant
/// either loads a complete store whose cells and rollups equal a
/// refresh() over its own columns (check_cells_match_columns), or
/// throws serve::SnapshotError / io::BlockError — any other exception
/// (or a crash) is a PropertyFailure. Unmutated images must load a
/// store with identical columns and counters.
SnapshotFuzzStats fuzz_snapshot(Gen& gen, const World& world,
                                const atlas::MeasurementDataset& dataset,
                                int rounds);

}  // namespace shears::check
