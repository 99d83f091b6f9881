// Checksummed block containers — the on-disk substrate of every durable
// artefact in the tree (the serve snapshot and its delta log ride on it).
//
// A container is a 16-byte header followed by tagged blocks:
//
//   offset  size  field
//   0       8     container magic "SHRBLOK1"
//   8       4     container version (kContainerVersion)
//   12      4     application tag (fourcc) — which format lives inside
//
//   block:  [u32 tag][u64 payload length][u32 crc][payload]
//
// The CRC is CRC-32 (IEEE 802.3) over tag + length + payload, so a
// corrupted length field cannot pass — the same confinement rule the
// serving front-end's frame codec follows. A finished container ends
// with a zero-length "END." block; a reader that runs out of bytes
// before seeing it reports truncation instead of silently yielding a
// prefix. Append-only logs (the snapshot delta log) opt out of the
// terminator: there, clean EOF at a block boundary is a valid end, and
// only torn blocks are errors.
//
// All integers are little-endian. Bulk payloads are written by the
// callers with memcpy of native arrays; a static_assert in the snapshot
// code pins the build to little-endian hosts so the format stays
// portable across the machines we actually run on.
//
// Error model: every reader failure throws io::BlockError with the
// container label, the failing block tag and the byte offset — loads
// fail precisely, never partially. Writer failures (full disk, bad
// path) throw too; nothing here returns a half-written artefact
// silently.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace shears::io {

inline constexpr std::uint64_t kContainerMagic = 0x314b4f4c42524853ULL;  // "SHRBLOK1"
inline constexpr std::uint32_t kContainerVersion = 1;
inline constexpr std::size_t kContainerHeaderBytes = 16;
inline constexpr std::size_t kBlockHeaderBytes = 16;

/// Four-character block/application tag, e.g. fourcc("SNP1").
[[nodiscard]] constexpr std::uint32_t fourcc(const char (&s)[5]) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24);
}

/// Printable form of a fourcc tag for error messages ("SNP1" or "0x...."
/// when a byte is not printable).
[[nodiscard]] std::string fourcc_name(std::uint32_t tag);

/// The terminator block tag every finished container ends with.
inline constexpr std::uint32_t kEndTag = fourcc("END.");

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320). `seed` chains partial
/// computations: crc32(b, crc32(a)) == crc32(a ++ b).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                                  std::uint32_t seed = 0) noexcept;

/// CRC a block header carries for `tag` and a payload that is the
/// concatenation of `parts` (CRC-32 over tag + length + payload). Lets
/// a writer checksum blocks ahead of writing them, on worker threads
/// say, and add them with BlockWriter::add_parts.
[[nodiscard]] std::uint32_t block_crc(
    std::uint32_t tag,
    std::span<const std::span<const std::uint8_t>> parts) noexcept;

/// Reader/writer failures: container label + block tag + byte offset.
class BlockError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------------------------
// Writing.

/// Streams a block container. Every write is checked: a failed stream
/// (full disk, closed pipe) throws BlockError at the write that hit it,
/// not at some later read of a truncated file.
class BlockWriter {
 public:
  /// Writes the container header. `what` labels errors ("snapshot",
  /// "delta log").
  BlockWriter(std::ostream& os, std::uint32_t app_tag, std::string what);

  void add(std::uint32_t tag, std::span<const std::uint8_t> payload);

  /// Adds one block whose payload is the concatenation of `parts`,
  /// written straight from them with no staging copy. `crc` must be
  /// block_crc(tag, parts); a wrong one yields a block every reader
  /// rejects.
  void add_parts(std::uint32_t tag,
                 std::span<const std::span<const std::uint8_t>> parts,
                 std::uint32_t crc);

  /// Writes the END. terminator and flushes. Must be the last call.
  void finish();

  [[nodiscard]] bool finished() const noexcept { return finished_; }

 private:
  void write_checked(const void* data, std::size_t n);

  std::ostream* os_;
  std::string what_;
  bool finished_ = false;
};

/// Appends one checked block (header + CRC + payload) to a stream that
/// already carries a container header — the append-only-log path, where
/// an extend-mode reopen must add blocks without repeating the header
/// BlockWriter writes. Throws BlockError when the stream fails.
void append_block(std::ostream& os, std::uint32_t tag,
                  std::span<const std::uint8_t> payload,
                  const std::string& what);

// ---------------------------------------------------------------------------
// Reading.

struct Block {
  std::uint32_t tag = 0;
  std::span<const std::uint8_t> payload;
  std::uint32_t crc = 0;      ///< checksum recorded in the block header
  std::size_t offset = 0;     ///< byte offset of the block header
};

/// Iterates the blocks of an in-memory container image, validating the
/// header, every CRC and the terminator. Throws BlockError on any
/// damage; a caller that drains next() until nullopt has therefore seen
/// a complete, checksummed container.
class BlockReader {
 public:
  /// `require_end`: false for append-only logs, where clean EOF at a
  /// block boundary is a valid end of the container.
  BlockReader(std::span<const std::uint8_t> bytes, std::uint32_t app_tag,
              std::string what, bool require_end = true);

  /// Next block, or nullopt at the clean end of the container.
  [[nodiscard]] std::optional<Block> next();

  /// Next block framed (header, length, terminator) but with its
  /// payload checksum not yet verified: the caller must verify() it
  /// before trusting its payload. Lets a loader walk the structure once
  /// and checksum the bulk blocks on worker threads.
  [[nodiscard]] std::optional<Block> next_unverified();

  /// Throws the BlockError next() would have thrown for `block` when its
  /// payload does not match the recorded CRC. Safe to call
  /// concurrently.
  void verify(const Block& block) const;

  /// Bytes consumed so far (for error context in callers).
  [[nodiscard]] std::size_t offset() const noexcept { return at_; }

 private:
  [[noreturn]] void fail(const std::string& message) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t at_ = 0;
  std::string what_;
  bool require_end_;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// Files.

/// A file's bytes, either buffered (kRead) or memory-mapped (kMmap).
/// kMmap maps the file read-only and privately — pages fault in lazily,
/// so a snapshot load touches only what it parses and rides the page
/// cache across restarts; it falls back to a buffered read when the
/// platform or the file refuses to map. Move-only; unmaps/frees on
/// destruction.
class FileBytes {
 public:
  enum class Mode { kRead, kMmap };

  /// Throws BlockError when the file cannot be opened or read.
  [[nodiscard]] static FileBytes open(const std::string& path, Mode mode);

  FileBytes() = default;
  FileBytes(FileBytes&& other) noexcept;
  FileBytes& operator=(FileBytes&& other) noexcept;
  FileBytes(const FileBytes&) = delete;
  FileBytes& operator=(const FileBytes&) = delete;
  ~FileBytes();

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return {data_, size_};
  }
  [[nodiscard]] bool mapped() const noexcept { return mapped_; }

  /// Hands the whole pages inside `range` (a subspan of bytes()) back to
  /// the OS once the caller has copied what it needs from them, so a
  /// mapped file is never resident in full alongside what was built
  /// from it. Reading the range again faults the pages back in from the
  /// file. A no-op for buffered files.
  void release(std::span<const std::uint8_t> range) const noexcept;

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;                ///< true: munmap; false: owned vector
  std::vector<std::uint8_t> owned_;
};

/// Writes a file atomically: streams into `path + ".tmp"`, then renames
/// over `path` on commit. Without commit() (including when an exception
/// unwinds through the caller) the temporary is removed and the target
/// is left untouched — a failed save never leaves a half-written
/// artefact under the real name.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path);
  ~AtomicFileWriter();
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  [[nodiscard]] std::ostream& stream();

  /// Flush + close + rename; throws BlockError when any step fails.
  void commit();

 private:
  std::string path_;
  std::string tmp_path_;
  struct Impl;
  Impl* impl_;
  bool committed_ = false;
};

}  // namespace shears::io
