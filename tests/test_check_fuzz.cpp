// Corpus-driven loader fuzzing: mutated serialisations of valid datasets
// must either parse or raise the documented line-numbered malformed-row
// error — never crash, never throw anything else. The prop label puts
// this under the sanitize preset, which also shakes out memory errors on
// the parse paths.
#include <gtest/gtest.h>

#include "atlas/measurement.hpp"
#include "check/fuzz.hpp"
#include "check/property.hpp"
#include "check/world.hpp"

namespace shears::check {
namespace {

TEST(Fuzz, CsvReaderParsesOrRejectsWithDiagnostics) {
  std::size_t rejected = 0;
  const CheckResult result = check(
      "fuzz_csv",
      [&](Gen& gen) {
        const World world = make_world(gen);
        const atlas::MeasurementDataset dataset = world.run();
        const FuzzStats stats = fuzz_csv(gen, world, dataset, 24);
        rejected += stats.rejected;
      },
      8);
  EXPECT_TRUE(result.passed) << result.banner;
  // The corpus must actually exercise the error paths, not only produce
  // still-valid documents.
  if (result.passed) {
    EXPECT_GT(rejected, 0u);
  }
}

TEST(Fuzz, JsonlReaderParsesOrRejectsWithDiagnostics) {
  std::size_t rejected = 0;
  const CheckResult result = check(
      "fuzz_jsonl",
      [&](Gen& gen) {
        const World world = make_world(gen);
        const atlas::MeasurementDataset dataset = world.run();
        const FuzzStats stats = fuzz_jsonl(gen, world, dataset, 24);
        rejected += stats.rejected;
      },
      8);
  EXPECT_TRUE(result.passed) << result.banner;
  if (result.passed) {
    EXPECT_GT(rejected, 0u);
  }
}

TEST(Fuzz, FrameDecoderNeverThrowsPastAFrameBoundary) {
  std::size_t damaged = 0;
  std::size_t clean = 0;
  const CheckResult result = check(
      "fuzz_frames",
      [&](Gen& gen) {
        const FrameFuzzStats stats = fuzz_frames(gen, 32);
        damaged += stats.damaged;
        clean += stats.clean;
      },
      8);
  EXPECT_TRUE(result.passed) << result.banner;
  if (result.passed) {
    // The mutations must actually reach the decoder's error paths, and
    // the clean rounds must actually exercise exact round-trips.
    EXPECT_GT(damaged, 0u);
    EXPECT_GT(clean, 0u);
  }
}

TEST(Fuzz, FrameReassemblyIsChunkingInvariant) {
  std::size_t frames = 0;
  std::size_t damaged = 0;
  std::size_t mutated = 0;
  const CheckResult result = check(
      "fuzz_reassembly",
      [&](Gen& gen) {
        const ReassemblyFuzzStats stats = fuzz_reassembly(gen, 32);
        frames += stats.frames;
        damaged += stats.damaged;
        mutated += stats.mutated;
      },
      8);
  EXPECT_TRUE(result.passed) << result.banner;
  if (result.passed) {
    // The property is vacuous unless the rounds deliver real frames AND
    // hit the error paths whose tallies it pins.
    EXPECT_GT(frames, 0u);
    EXPECT_GT(damaged, 0u);
    EXPECT_GT(mutated, 0u);
  }
}

TEST(Fuzz, CorpusTokensAreDeterministic) {
  Gen a(1234, 10);
  Gen b(1234, 10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(corpus_token(a), corpus_token(b));
  }
}

}  // namespace
}  // namespace shears::check
