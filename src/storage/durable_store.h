#ifndef WHYPROV_STORAGE_DURABLE_STORE_H_
#define WHYPROV_STORAGE_DURABLE_STORE_H_

// One data directory of the durability tier: the WAL plus the latest
// checkpoint, with the counters ServiceStats surfaces.
//
// Layout under data_dir:
//   delta.wal   — the write-ahead delta log (storage/wal.h)
//   model.ckpt  — the latest checkpoint (storage/checkpoint.h),
//                 replaced atomically by temp-file + rename
//
// Ownership: exactly one serving stack opens a store: the Service,
// from its engine's options.
//
// Ordering: WAL append order must equal engine apply order, or replay
// diverges. The Service executes deltas on arbitrary worker threads,
// so the store exposes `order_mutex()` and the owner holds it across
// {AppendDelta -> engine apply -> MaybeWriteCheckpoint}.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "datalog/evaluator.h"
#include "datalog/symbol_table.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"
#include "util/mutex.h"
#include "util/status.h"

namespace whyprov::storage {

/// The durability knobs a serving stack passes down (mirrored in
/// EngineOptions and whyprov_options).
struct DurabilityOptions {
  std::string data_dir;  ///< empty = durability off (no store is opened)
  /// fsync the WAL on every append: durable against power loss, not
  /// just process crash, at a large per-delta cost.
  bool wal_fsync = false;
  /// Committed WAL records between checkpoints; 0 = never checkpoint
  /// (recovery replays the full log).
  std::size_t checkpoint_interval = 32;
};

/// The counters surfaced through ServiceStats / the C ABI / the STATS
/// wire frame.
struct DurabilityCounters {
  std::uint64_t wal_appends = 0;       ///< records appended this process
  std::uint64_t wal_bytes = 0;         ///< framed bytes appended
  std::uint64_t checkpoints_written = 0;
  std::uint64_t recovery_replayed_deltas = 0;  ///< WAL tail replayed at open
};

class DurableStore {
 public:
  /// Opens (creating if needed) `options.data_dir`, recovers the WAL
  /// (truncating a torn tail), and loads the checkpoint image if one
  /// exists. Recovery itself — restoring the checkpoint and replaying
  /// the tail — is driven by the owner, which knows its engine layout.
  static util::Result<std::unique_ptr<DurableStore>> Open(
      const DurabilityOptions& options);

  // --- recovery (single-threaded, before serving starts) ---------------

  bool has_checkpoint() const { return !checkpoint_image_.empty(); }

  /// Decodes the checkpoint over the freshly parsed stack's symbol
  /// table (verify-prefix-extend; see storage/checkpoint.h). On
  /// success the folded sequence is remembered so the owner replays
  /// only `TailRecords()`. A failure here is recoverable: ignore the
  /// checkpoint and replay the full log instead.
  util::Result<RecoveredCheckpoint> RestoreCheckpoint(
      const std::shared_ptr<datalog::SymbolTable>& symbols);

  /// The WAL records recovery must replay: everything after the folded
  /// sequence (the full log until RestoreCheckpoint succeeds).
  std::vector<WalRecord> TailRecords() const;

  /// Records the replay count and releases the recovery buffers.
  void FinishRecovery(std::uint64_t replayed_deltas);

  // --- the append path (hold order_mutex() across append -> apply) -----

  /// Serialises {WAL append -> engine apply -> checkpoint}: log order
  /// must equal apply order for replay to reproduce the state.
  util::Mutex& order_mutex() { return order_mutex_; }

  /// Appends one delta record (caller holds order_mutex()).
  util::Status AppendDelta(const std::vector<std::string>& added,
                           const std::vector<std::string>& removed);

  /// True iff enough records accumulated since the last checkpoint
  /// (caller holds order_mutex()).
  bool ShouldCheckpoint() const;

  /// Serializes `model` at `model_version` and atomically replaces the
  /// checkpoint file. `parse_mutex` is the engine's symbol-table lock,
  /// held only while encoding the symbols (model reads are
  /// thread-safe, so concurrent queries are not stalled). Caller holds
  /// order_mutex(), which pins the folded WAL sequence.
  util::Status WriteCheckpoint(const datalog::Model& model,
                               std::uint64_t model_version,
                               util::Mutex& parse_mutex);

  DurabilityCounters counters() const;

 private:
  explicit DurableStore(WriteAheadLog wal) : wal_(std::move(wal)) {}

  util::Mutex order_mutex_;
  WriteAheadLog wal_;
  std::string checkpoint_path_;
  std::string checkpoint_image_;  ///< raw image loaded at Open; "" = none
  std::uint64_t folded_sequence_ = 0;
  std::size_t checkpoint_interval_ = 0;

  std::atomic<std::uint64_t> wal_appends_{0};
  std::atomic<std::uint64_t> wal_bytes_{0};
  std::atomic<std::uint64_t> checkpoints_written_{0};
  std::atomic<std::uint64_t> recovery_replayed_{0};
};

}  // namespace whyprov::storage

#endif  // WHYPROV_STORAGE_DURABLE_STORE_H_
