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
  const std::uint32_t tag = read_u32(bytes_.data() + at_);
  const std::uint64_t length = read_u64(bytes_.data() + at_ + 4);
  const std::uint32_t want = read_u32(bytes_.data() + at_ + 12);
  if (length > bytes_.size() - at_ - kBlockHeaderBytes) {
    fail("truncated block '" + fourcc_name(tag) + "' (payload of " +
         std::to_string(length) + " bytes exceeds the file)");
  }
  const std::span<const std::uint8_t> payload =
      bytes_.subspan(at_ + kBlockHeaderBytes, length);
  const std::span<const std::uint8_t> parts[] = {payload};
  if (want != block_crc(tag, parts)) {
    fail("checksum mismatch in block '" + fourcc_name(tag) + "'");
  }
  at_ += kBlockHeaderBytes + length;
  if (tag == kEndTag) {
    if (length != 0) fail("END. block carries a payload");
    if (at_ != bytes_.size()) {
      fail("trailing bytes after the END. block");
    }
    done_ = true;
    return std::nullopt;
  }
  return Block{tag, payload};
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
