#include "io/block_file.hpp"

#include <array>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define SHEARS_IO_HAVE_MMAP 1
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define SHEARS_IO_HAVE_CLMUL 1
#endif

namespace shears::io {

namespace {

void put_u32(std::uint8_t* out, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void put_u64(std::uint8_t* out, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

[[nodiscard]] std::uint32_t read_u32(const std::uint8_t* in) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= std::uint32_t{in[i]} << (8 * i);
  }
  return v;
}

[[nodiscard]] std::uint64_t read_u64(const std::uint8_t* in) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t{in[i]} << (8 * i);
  }
  return v;
}

/// Slice-by-8 lookup tables for the reflected IEEE polynomial, built
/// once. table[0] is the classic byte-at-a-time table; table[k] maps a
/// byte to its CRC contribution k positions further ahead, so the hot
/// loop folds 8 input bytes per iteration with 8 independent loads —
/// identical output to the bytewise form at several times the
/// throughput (snapshot loads checksum the whole file).
const std::array<std::array<std::uint32_t, 256>, 8>& crc_tables() noexcept {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  return tables;
}

#ifdef SHEARS_IO_HAVE_CLMUL
#define SHEARS_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

SHEARS_CLMUL_TARGET inline __m128i load(const void* p) noexcept {
  return _mm_loadu_si128(static_cast<const __m128i*>(p));
}

/// Folds lane `x` 128 bits forward with constants `k` onto `next`.
SHEARS_CLMUL_TARGET inline __m128i fold(__m128i x, __m128i k,
                                        __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11), next),
                       _mm_clmulepi64_si128(x, k, 0x00));
}

/// CRC-32 state update over `len` bytes (len >= 64, a multiple of 16)
/// by carry-less multiplication: four 128-bit lanes fold 64 bytes per
/// step, then fold into one lane and Barrett-reduce to 32 bits (Gopal
/// et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction", Intel 2009; constants for the reflected IEEE
/// polynomial). `crc` and the result are the inverted register, as in
/// the table loop. Several times the table loop's throughput, and
/// bit-identical to it.
SHEARS_CLMUL_TARGET std::uint32_t crc32_clmul(const std::uint8_t* buf,
                                              std::size_t len,
                                              std::uint32_t crc) noexcept {
  alignas(16) static constexpr std::uint64_t k1k2[] = {0x0154442bd4,
                                                       0x01c6e41596};
  alignas(16) static constexpr std::uint64_t k3k4[] = {0x01751997d0,
                                                       0x00ccaa009e};
  alignas(16) static constexpr std::uint64_t k5k0[] = {0x0163cd6124, 0};
  alignas(16) static constexpr std::uint64_t poly[] = {0x01db710641,
                                                       0x01f7011641};

  __m128i x1 = _mm_xor_si128(load(buf),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(buf + 16);
  __m128i x3 = load(buf + 32);
  __m128i x4 = load(buf + 48);
  buf += 64;
  len -= 64;
  __m128i k = load(k1k2);
  for (; len >= 64; buf += 64, len -= 64) {
    x1 = fold(x1, k, load(buf));
    x2 = fold(x2, k, load(buf + 16));
    x3 = fold(x3, k, load(buf + 32));
    x4 = fold(x4, k, load(buf + 48));
  }
  k = load(k3k4);
  x1 = fold(x1, k, x2);
  x1 = fold(x1, k, x3);
  x1 = fold(x1, k, x4);
  for (; len >= 16; buf += 16, len -= 16) x1 = fold(x1, k, load(buf));

  // 128 -> 64 bits, then Barrett reduction to 32.
  const __m128i mask = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k, 0x10));
  k = _mm_loadl_epi64(static_cast<const __m128i*>(
      static_cast<const void*>(k5k0)));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, mask), k, 0x00),
      _mm_srli_si128(x1, 4));
  k = load(poly);
  __m128i x2r = _mm_clmulepi64_si128(_mm_and_si128(x1, mask), k, 0x10);
  x2r = _mm_clmulepi64_si128(_mm_and_si128(x2r, mask), k, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, x2r), 1));
}

[[nodiscard]] bool have_clmul() noexcept {
  static const bool have =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return have;
}
#endif

/// Writes one block header and its payload parts; `what` labels the
/// error a failed stream raises.
void write_block(std::ostream& os, std::uint32_t tag,
                 std::span<const std::span<const std::uint8_t>> parts,
                 std::uint32_t crc, const std::string& what) {
  std::uint64_t length = 0;
  for (const auto part : parts) length += part.size();
  std::uint8_t header[kBlockHeaderBytes];
  put_u32(header, tag);
  put_u64(header + 4, length);
  put_u32(header + 12, crc);
  os.write(reinterpret_cast<const char*>(header), sizeof(header));
  for (const auto part : parts) {
    if (part.empty()) continue;
    os.write(reinterpret_cast<const char*>(part.data()),
             static_cast<std::streamsize>(part.size()));
  }
  if (!os) {
    throw BlockError(what + ": write failed (disk full or stream error)");
  }
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t seed) noexcept {
  const auto& t = crc_tables();
  std::uint32_t c = seed ^ 0xffffffffu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
#ifdef SHEARS_IO_HAVE_CLMUL
  if (n >= 64 && have_clmul()) {
    const std::size_t bulk = n & ~std::size_t{15};
    c = crc32_clmul(p, bulk, c);
    p += bulk;
    n -= bulk;
  }
#endif
  while (n >= 8) {
    const std::uint32_t lo = c ^ read_u32(p);
    const std::uint32_t hi = read_u32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::uint32_t block_crc(
    std::uint32_t tag,
    std::span<const std::span<const std::uint8_t>> parts) noexcept {
  std::uint64_t length = 0;
  for (const auto part : parts) length += part.size();
  std::uint8_t head[12];
  put_u32(head, tag);
  put_u64(head + 4, length);
  std::uint32_t crc = crc32({head, sizeof(head)});
  for (const auto part : parts) crc = crc32(part, crc);
  return crc;
}

std::string fourcc_name(std::uint32_t tag) {
  std::string name;
  bool printable = true;
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>(tag >> (8 * i));
    if (std::isprint(static_cast<unsigned char>(c)) == 0) printable = false;
    name.push_back(c);
  }
  if (printable) return name;
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", tag);
  return buf;
}

// ---------------------------------------------------------------------------
// BlockWriter

BlockWriter::BlockWriter(std::ostream& os, std::uint32_t app_tag,
                         std::string what)
    : os_(&os), what_(std::move(what)) {
  std::uint8_t header[kContainerHeaderBytes];
  put_u64(header, kContainerMagic);
  put_u32(header + 8, kContainerVersion);
  put_u32(header + 12, app_tag);
  write_checked(header, sizeof(header));
}

void BlockWriter::write_checked(const void* data, std::size_t n) {
  os_->write(static_cast<const char*>(data),
             static_cast<std::streamsize>(n));
  if (!*os_) {
    throw BlockError(what_ + ": write failed (disk full or stream error)");
  }
}

void BlockWriter::add(std::uint32_t tag, std::span<const std::uint8_t> payload) {
  if (finished_) {
    throw BlockError(what_ + ": add() after finish()");
  }
  append_block(*os_, tag, payload, what_);
}

void BlockWriter::add_parts(
    std::uint32_t tag, std::span<const std::span<const std::uint8_t>> parts,
    std::uint32_t crc) {
  if (finished_) {
    throw BlockError(what_ + ": add() after finish()");
  }
  write_block(*os_, tag, parts, crc, what_);
}

void append_block(std::ostream& os, std::uint32_t tag,
                  std::span<const std::uint8_t> payload,
                  const std::string& what) {
  const std::span<const std::uint8_t> parts[] = {payload};
  write_block(os, tag, parts, block_crc(tag, parts), what);
}

void BlockWriter::finish() {
  add(kEndTag, {});
  finished_ = true;
  os_->flush();
  if (!*os_) {
    throw BlockError(what_ + ": flush failed (disk full or stream error)");
  }
}

// ---------------------------------------------------------------------------
// BlockReader

BlockReader::BlockReader(std::span<const std::uint8_t> bytes,
                         std::uint32_t app_tag, std::string what,
                         bool require_end)
    : bytes_(bytes), what_(std::move(what)), require_end_(require_end) {
  if (bytes_.size() < kContainerHeaderBytes) {
    fail("truncated container header (" + std::to_string(bytes_.size()) +
         " bytes)");
  }
  if (read_u64(bytes_.data()) != kContainerMagic) {
    fail("bad container magic (not a shears block file)");
  }
  const std::uint32_t version = read_u32(bytes_.data() + 8);
  if (version != kContainerVersion) {
    fail("unsupported container version " + std::to_string(version) +
         " (this build reads version " + std::to_string(kContainerVersion) +
         ")");
  }
  const std::uint32_t tag = read_u32(bytes_.data() + 12);
  if (tag != app_tag) {
    fail("application tag mismatch: file holds '" + fourcc_name(tag) +
         "', expected '" + fourcc_name(app_tag) + "'");
  }
  at_ = kContainerHeaderBytes;
}

void BlockReader::fail(const std::string& message) const {
  throw BlockError(what_ + ": " + message + " at byte offset " +
                   std::to_string(at_));
}

std::optional<Block> BlockReader::next() {
  std::optional<Block> block = next_unverified();
  if (block) verify(*block);
  return block;
}

std::optional<Block> BlockReader::next_unverified() {
  if (done_) return std::nullopt;
  if (at_ == bytes_.size()) {
    if (require_end_) fail("truncated: container ends without END. block");
    done_ = true;
    return std::nullopt;
  }
  if (bytes_.size() - at_ < kBlockHeaderBytes) {
    fail("truncated block header (" + std::to_string(bytes_.size() - at_) +
         " bytes left)");
  }
  Block block;
  block.offset = at_;
  block.tag = read_u32(bytes_.data() + at_);
  const std::uint64_t length = read_u64(bytes_.data() + at_ + 4);
  block.crc = read_u32(bytes_.data() + at_ + 12);
  if (length > bytes_.size() - at_ - kBlockHeaderBytes) {
    fail("truncated block '" + fourcc_name(block.tag) + "' (payload of " +
         std::to_string(length) + " bytes exceeds the file)");
  }
  block.payload = bytes_.subspan(at_ + kBlockHeaderBytes, length);
  if (block.tag == kEndTag) {
    verify(block);
    at_ += kBlockHeaderBytes + length;
    if (length != 0) fail("END. block carries a payload");
    if (at_ != bytes_.size()) {
      fail("trailing bytes after the END. block");
    }
    done_ = true;
    return std::nullopt;
  }
  at_ += kBlockHeaderBytes + length;
  return block;
}

void BlockReader::verify(const Block& block) const {
  const std::span<const std::uint8_t> parts[] = {block.payload};
  if (block.crc != block_crc(block.tag, parts)) {
    throw BlockError(what_ + ": checksum mismatch in block '" +
                     fourcc_name(block.tag) + "' at byte offset " +
                     std::to_string(block.offset));
  }
}

// ---------------------------------------------------------------------------
// FileBytes

FileBytes::FileBytes(FileBytes&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, false)),
      owned_(std::move(other.owned_)) {}

FileBytes& FileBytes::operator=(FileBytes&& other) noexcept {
  if (this != &other) {
    this->~FileBytes();
    new (this) FileBytes(std::move(other));
  }
  return *this;
}

FileBytes::~FileBytes() {
#ifdef SHEARS_IO_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
}

void FileBytes::release(std::span<const std::uint8_t> range) const noexcept {
#ifdef SHEARS_IO_HAVE_MMAP
  if (!mapped_ || range.empty()) return;
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(range.data());
  const std::uintptr_t first = (begin + page - 1) / page * page;
  const std::uintptr_t last = (begin + range.size()) / page * page;
  if (first >= last) return;
  // Advisory: the mapping is private and read-only, so dropped pages
  // fault back in from the file; a refusal only keeps them resident.
  (void)::madvise(reinterpret_cast<void*>(first), last - first,
                  MADV_DONTNEED);
#else
  (void)range;
#endif
}

FileBytes FileBytes::open(const std::string& path, Mode mode) {
  FileBytes out;
#ifdef SHEARS_IO_HAVE_MMAP
  if (mode == Mode::kMmap) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      throw BlockError(path + ": cannot open for reading");
    }
    struct stat st{};
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
      const auto size = static_cast<std::size_t>(st.st_size);
      if (size == 0) {
        ::close(fd);
        out.data_ = nullptr;
        out.size_ = 0;
        return out;
      }
      void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (map != MAP_FAILED) {
        out.data_ = static_cast<const std::uint8_t*>(map);
        out.size_ = size;
        out.mapped_ = true;
        return out;
      }
    } else {
      ::close(fd);
    }
    // Unmappable (non-regular file, exotic filesystem): fall through to
    // the buffered read below rather than failing the load.
  }
#endif
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw BlockError(path + ": cannot open for reading");
  }
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  in.seekg(0, std::ios::beg);
  if (end < 0 || !in) {
    throw BlockError(path + ": cannot determine file size");
  }
  out.owned_.resize(static_cast<std::size_t>(end));
  if (end > 0) {
    in.read(reinterpret_cast<char*>(out.owned_.data()), end);
    if (!in) {
      throw BlockError(path + ": short read");
    }
  }
  out.data_ = out.owned_.data();
  out.size_ = out.owned_.size();
  return out;
}

// ---------------------------------------------------------------------------
// AtomicFileWriter

struct AtomicFileWriter::Impl {
  std::ofstream out;
};

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp"), impl_(new Impl) {
  impl_->out.open(tmp_path_, std::ios::binary | std::ios::trunc);
  if (!impl_->out) {
    const std::string tmp = tmp_path_;
    delete impl_;
    impl_ = nullptr;
    throw BlockError(tmp + ": cannot open for writing");
  }
}

AtomicFileWriter::~AtomicFileWriter() {
  if (impl_ != nullptr) {
    impl_->out.close();
    delete impl_;
  }
  if (!committed_) std::remove(tmp_path_.c_str());
}

std::ostream& AtomicFileWriter::stream() {
  return impl_->out;
}

void AtomicFileWriter::commit() {
  impl_->out.flush();
  if (!impl_->out) {
    throw BlockError(tmp_path_ + ": flush failed (disk full?)");
  }
  impl_->out.close();
  if (impl_->out.fail()) {
    throw BlockError(tmp_path_ + ": close failed");
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    throw BlockError(path_ + ": atomic rename from " + tmp_path_ + " failed");
  }
  committed_ = true;
}

}  // namespace shears::io
