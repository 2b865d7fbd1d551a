#ifndef WHYPROV_STORAGE_WAL_H_
#define WHYPROV_STORAGE_WAL_H_

// The write-ahead delta log of the durability tier.
//
// One WAL file holds the totally-ordered sequence of delta requests a
// serving stack committed, in text form (rendered facts), so replaying
// the log through the normal ApplyDelta path reproduces the exact model
// — fact ids, ranks, and relation order included — by determinism of
// the evaluator. The discipline is ARIES-style log-then-apply: a record
// is appended (and optionally fsynced) *before* the delta is applied,
// so a crash can lose at most an unacknowledged tail, never an applied
// delta. Replay tolerates records whose delta fails validation: the
// original run failed them identically, leaving the state untouched.
//
// On-disk layout (docs/STORAGE_FORMAT.md is the normative spec):
//
//   header: 8-byte magic "WHYPWAL\n" + u8 format version
//   record: u32 payload length (LE) | u32 CRC-32C of payload | payload
//   payload: u8 record type (0x01 = delta) + u64 sequence
//            + string list added + string list removed
//
// A record's sequence is its 1-based position in the file; checkpoints
// store the sequence they fold, and recovery replays only the tail
// beyond it. The log is never truncated or compacted — a full-log
// replay from the base state is always a valid (if slower) recovery,
// which is what keeps a corrupt checkpoint recoverable.
//
// Torn tails are expected: Open() scans the file, keeps the longest
// valid record prefix, and truncates the rest (a crash mid-append
// leaves a short or CRC-failing final record). Anything after the
// first invalid byte is dropped.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace whyprov::storage {

inline constexpr std::string_view kWalMagic = "WHYPWAL\n";
inline constexpr std::uint8_t kWalFormatVersion = 1;
inline constexpr std::uint8_t kWalDeltaRecord = 0x01;

/// Hard ceiling on one record's payload length, mirroring the wire
/// protocol's frame cap: a larger length field cannot be honest.
inline constexpr std::uint32_t kMaxWalRecordBytes = 16u * 1024 * 1024;

/// One committed (or at least attempted) delta, in replayable text form.
struct WalRecord {
  std::uint64_t sequence = 0;  ///< 1-based position in the log
  std::vector<std::string> added;    ///< rendered fact texts to add
  std::vector<std::string> removed;  ///< rendered fact texts to remove
};

/// Encodes one record payload (type byte + body; no length/CRC framing).
std::string EncodeWalRecord(const WalRecord& record);

/// Decodes one record payload. Rejects unknown record types, truncated
/// bodies, and trailing bytes. Never crashes on hostile input (the
/// fuzz_wal harness drives this directly).
util::Result<WalRecord> DecodeWalRecord(std::string_view payload);

/// Outcome of scanning a WAL's record region (the bytes after the file
/// header): the longest valid record prefix and where it ends.
struct WalReplay {
  std::vector<WalRecord> records;
  /// Bytes of the valid prefix, relative to the record region's start.
  std::size_t valid_bytes = 0;
  /// True iff bytes beyond the valid prefix were present (a torn or
  /// corrupt tail that Open() truncates).
  bool torn_tail = false;
};

/// Torn-tail-tolerant replay over an in-memory record region. Stops at
/// the first short header, zero/oversized length, CRC mismatch, payload
/// decode failure, or out-of-order sequence. Total, never crashes.
WalReplay ReplayWalBuffer(std::string_view records);

/// An open WAL file positioned for appending. Open() performs the
/// recovery scan (and tail truncation); Append() frames and writes one
/// record, assigning the next sequence. Not internally synchronised —
/// the owner serialises appends (the delta lane / DurableStore order
/// mutex).
class WriteAheadLog {
 public:
  /// Opens (creating if absent) the log at `path`, validates the header,
  /// scans the records, and truncates a torn tail. `fsync_each` makes
  /// every Append fsync before returning (durable against power loss,
  /// not just process crash).
  static util::Result<WriteAheadLog> Open(const std::string& path,
                                          bool fsync_each);

  WriteAheadLog(WriteAheadLog&& other) noexcept;
  WriteAheadLog& operator=(WriteAheadLog&& other) noexcept;
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;
  ~WriteAheadLog();

  /// The records recovered by Open(), in log order.
  const std::vector<WalRecord>& recovered() const { return recovered_; }

  /// True iff Open() dropped a torn/corrupt tail.
  bool truncated_torn_tail() const { return truncated_torn_tail_; }

  /// Sequence of the last record in the log (0 = empty log).
  std::uint64_t last_sequence() const { return last_sequence_; }

  /// Releases the recovery buffer once the owner has replayed it.
  void ReleaseRecovered() {
    recovered_.clear();
    recovered_.shrink_to_fit();
  }

  /// Appends one delta record, assigning sequence last_sequence() + 1.
  /// Returns the framed byte count written. Not thread-safe.
  util::Result<std::size_t> Append(const std::vector<std::string>& added,
                                   const std::vector<std::string>& removed);

 private:
  WriteAheadLog() = default;

  int fd_ = -1;
  bool fsync_each_ = false;
  std::uint64_t last_sequence_ = 0;
  bool truncated_torn_tail_ = false;
  std::vector<WalRecord> recovered_;
};

}  // namespace whyprov::storage

#endif  // WHYPROV_STORAGE_WAL_H_
