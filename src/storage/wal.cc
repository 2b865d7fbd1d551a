#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/crc32c.h"
#include "util/wire_format.h"

namespace whyprov::storage {

namespace {

util::Status Errno(const std::string& what) {
  return util::Status::Error(what + ": " + std::strerror(errno));
}

/// Writes all of `data`, retrying short writes and EINTR.
util::Status WriteFully(int fd, std::string_view data) {
  const char* cursor = data.data();
  std::size_t remaining = data.size();
  while (remaining > 0) {
    const ssize_t written = ::write(fd, cursor, remaining);
    if (written < 0) {
      if (errno == EINTR) continue;
      return Errno("WAL write failed");
    }
    cursor += written;
    remaining -= static_cast<std::size_t>(written);
  }
  return util::Status::Ok();
}

util::Result<std::string> ReadWholeFile(int fd, const std::string& path) {
  std::string contents;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t got = ::read(fd, buffer, sizeof(buffer));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Errno("cannot read '" + path + "'");
    }
    if (got == 0) return contents;
    contents.append(buffer, static_cast<std::size_t>(got));
  }
}

}  // namespace

std::string EncodeWalRecord(const WalRecord& record) {
  util::WireWriter writer;
  writer.PutU8(kWalDeltaRecord);
  writer.PutU64(record.sequence);
  writer.PutStringList(record.added);
  writer.PutStringList(record.removed);
  return writer.Take();
}

util::Result<WalRecord> DecodeWalRecord(std::string_view payload) {
  util::WireReader reader(payload);
  std::uint8_t type = 0;
  if (!reader.GetU8(&type)) {
    return util::Status::InvalidArgument("WAL record: empty payload");
  }
  if (type != kWalDeltaRecord) {
    return util::Status::InvalidArgument(
        "WAL record: unknown record type " + std::to_string(type));
  }
  WalRecord record;
  reader.GetU64(&record.sequence);
  reader.GetStringList(&record.added);
  reader.GetStringList(&record.removed);
  if (!reader.ok()) {
    return util::Status::InvalidArgument("WAL record: truncated payload");
  }
  if (!reader.exhausted()) {
    return util::Status::InvalidArgument(
        "WAL record: trailing bytes after payload");
  }
  return record;
}

WalReplay ReplayWalBuffer(std::string_view records) {
  WalReplay replay;
  std::size_t position = 0;
  while (records.size() - position >= 8) {
    util::WireReader header(records.data() + position, 8);
    std::uint32_t length = 0;
    std::uint32_t crc = 0;
    header.GetU32(&length);
    header.GetU32(&crc);
    if (length == 0 || length > kMaxWalRecordBytes ||
        length > records.size() - position - 8) {
      break;  // torn tail: the length field promises bytes not present
    }
    const std::string_view payload = records.substr(position + 8, length);
    if (util::Crc32c(payload) != crc) break;
    util::Result<WalRecord> record = DecodeWalRecord(payload);
    if (!record.ok()) break;
    // Sequences are 1-based positions; a gap or repeat means the file
    // was stitched together wrongly — stop trusting it here.
    if (record.value().sequence != replay.records.size() + 1) break;
    replay.records.push_back(std::move(record).value());
    position += 8 + length;
  }
  replay.valid_bytes = position;
  replay.torn_tail = position < records.size();
  return replay;
}

util::Result<WriteAheadLog> WriteAheadLog::Open(const std::string& path,
                                                bool fsync_each) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("cannot open WAL '" + path + "'");

  WriteAheadLog log;
  log.fd_ = fd;
  log.fsync_each_ = fsync_each;

  util::Result<std::string> contents = ReadWholeFile(fd, path);
  if (!contents.ok()) return contents.status();
  const std::string& bytes = contents.value();

  const std::size_t header_size = kWalMagic.size() + 1;
  if (bytes.empty()) {
    // Fresh log: stamp the header before the first record.
    std::string header(kWalMagic);
    header.push_back(static_cast<char>(kWalFormatVersion));
    if (util::Status status = WriteFully(fd, header); !status.ok()) {
      return status;
    }
    if (::fsync(fd) != 0) return Errno("cannot fsync WAL '" + path + "'");
    return log;
  }
  if (bytes.size() < header_size ||
      std::string_view(bytes).substr(0, kWalMagic.size()) != kWalMagic) {
    return util::Status::InvalidArgument(
        "'" + path + "' is not a whyprov WAL (bad magic)");
  }
  const auto version = static_cast<std::uint8_t>(bytes[kWalMagic.size()]);
  if (version != kWalFormatVersion) {
    return util::Status::InvalidArgument(
        "WAL '" + path + "' has unsupported format version " +
        std::to_string(version));
  }

  WalReplay replay =
      ReplayWalBuffer(std::string_view(bytes).substr(header_size));
  if (replay.torn_tail) {
    const auto keep = static_cast<off_t>(header_size + replay.valid_bytes);
    if (::ftruncate(fd, keep) != 0) {
      return Errno("cannot truncate torn WAL tail in '" + path + "'");
    }
    if (::fsync(fd) != 0) return Errno("cannot fsync WAL '" + path + "'");
    if (::lseek(fd, keep, SEEK_SET) < 0) {
      return Errno("cannot seek WAL '" + path + "'");
    }
  }
  log.last_sequence_ = replay.records.size();
  log.truncated_torn_tail_ = replay.torn_tail;
  log.recovered_ = std::move(replay.records);
  return log;
}

WriteAheadLog::WriteAheadLog(WriteAheadLog&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      fsync_each_(other.fsync_each_),
      last_sequence_(other.last_sequence_),
      truncated_torn_tail_(other.truncated_torn_tail_),
      recovered_(std::move(other.recovered_)) {}

WriteAheadLog& WriteAheadLog::operator=(WriteAheadLog&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    fsync_each_ = other.fsync_each_;
    last_sequence_ = other.last_sequence_;
    truncated_torn_tail_ = other.truncated_torn_tail_;
    recovered_ = std::move(other.recovered_);
  }
  return *this;
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

util::Result<std::size_t> WriteAheadLog::Append(
    const std::vector<std::string>& added,
    const std::vector<std::string>& removed) {
  WalRecord record;
  record.sequence = last_sequence_ + 1;
  record.added = added;
  record.removed = removed;
  const std::string payload = EncodeWalRecord(record);
  if (payload.size() > kMaxWalRecordBytes) {
    return util::Status::ResourceExhausted(
        "WAL record of " + std::to_string(payload.size()) +
        " bytes exceeds the cap of " + std::to_string(kMaxWalRecordBytes));
  }
  util::WireWriter frame;
  frame.PutU32(static_cast<std::uint32_t>(payload.size()));
  frame.PutU32(util::Crc32c(payload));
  std::string framed = frame.Take();
  framed.append(payload);
  if (util::Status status = WriteFully(fd_, framed); !status.ok()) {
    return status;
  }
  if (fsync_each_ && ::fsync(fd_) != 0) return Errno("WAL fsync failed");
  ++last_sequence_;
  return framed.size();
}

}  // namespace whyprov::storage
