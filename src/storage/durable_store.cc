#include "storage/durable_store.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace whyprov::storage {

namespace {

/// mkdir -p: creates every missing component of `path`.
util::Status MakeDirs(const std::string& path) {
  std::string prefix;
  std::size_t position = 0;
  while (position <= path.size()) {
    const std::size_t slash = path.find('/', position);
    prefix = slash == std::string::npos ? path : path.substr(0, slash);
    position = slash == std::string::npos ? path.size() + 1 : slash + 1;
    if (prefix.empty()) continue;  // leading '/'
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return util::Status::Error("cannot create data dir '" + prefix +
                                 "': " + std::strerror(errno));
    }
  }
  return util::Status::Ok();
}

}  // namespace

util::Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    const DurabilityOptions& options) {
  if (options.data_dir.empty()) {
    return util::Status::InvalidArgument(
        "DurableStore::Open requires a data_dir");
  }
  if (util::Status status = MakeDirs(options.data_dir); !status.ok()) {
    return status;
  }
  util::Result<WriteAheadLog> wal =
      WriteAheadLog::Open(options.data_dir + "/delta.wal", options.wal_fsync);
  if (!wal.ok()) return wal.status();

  auto store =
      std::unique_ptr<DurableStore>(new DurableStore(std::move(wal).value()));
  store->checkpoint_path_ = options.data_dir + "/model.ckpt";
  store->checkpoint_interval_ = options.checkpoint_interval;
  util::Result<std::string> image = ReadCheckpointFile(store->checkpoint_path_);
  if (image.ok()) {
    store->checkpoint_image_ = std::move(image).value();
  } else if (image.status().code() != util::StatusCode::kNotFound) {
    return image.status();
  }
  return store;
}

util::Result<RecoveredCheckpoint> DurableStore::RestoreCheckpoint(
    const std::shared_ptr<datalog::SymbolTable>& symbols) {
  if (!has_checkpoint()) {
    return util::Status::NotFound("this store has no checkpoint");
  }
  util::Result<RecoveredCheckpoint> recovered =
      DecodeCheckpoint(checkpoint_image_, symbols);
  if (!recovered.ok()) return recovered.status();
  // A checkpoint folding records the log does not contain would leave
  // an unreplayable gap; fall back to full-log replay instead.
  if (recovered.value().wal_records_folded > wal_.last_sequence()) {
    return util::Status::InvalidArgument(
        "checkpoint folds WAL sequence " +
        std::to_string(recovered.value().wal_records_folded) +
        " but the log ends at " + std::to_string(wal_.last_sequence()));
  }
  folded_sequence_ = recovered.value().wal_records_folded;
  return recovered;
}

std::vector<WalRecord> DurableStore::TailRecords() const {
  std::vector<WalRecord> tail;
  for (const WalRecord& record : wal_.recovered()) {
    if (record.sequence > folded_sequence_) tail.push_back(record);
  }
  return tail;
}

void DurableStore::FinishRecovery(std::uint64_t replayed_deltas) {
  recovery_replayed_.store(replayed_deltas, std::memory_order_relaxed);
  wal_.ReleaseRecovered();
  checkpoint_image_.clear();
  checkpoint_image_.shrink_to_fit();
}

util::Status DurableStore::AppendDelta(
    const std::vector<std::string>& added,
    const std::vector<std::string>& removed) {
  util::Result<std::size_t> written = wal_.Append(added, removed);
  if (!written.ok()) return written.status();
  wal_appends_.fetch_add(1, std::memory_order_relaxed);
  wal_bytes_.fetch_add(written.value(), std::memory_order_relaxed);
  return util::Status::Ok();
}

bool DurableStore::ShouldCheckpoint() const {
  return checkpoint_interval_ > 0 &&
         wal_.last_sequence() - folded_sequence_ >= checkpoint_interval_;
}

util::Status DurableStore::WriteCheckpoint(const datalog::Model& model,
                                           std::uint64_t model_version,
                                           util::Mutex& parse_mutex) {
  std::string image;
  {
    // Concurrent fact-text parsing interns into the shared symbol
    // table; hold the engine's parse lock while reading it.
    const util::MutexLock lock(parse_mutex);
    image = EncodeCheckpoint(model, model_version, wal_.last_sequence());
  }
  if (util::Status status = WriteCheckpointFile(checkpoint_path_, image);
      !status.ok()) {
    return status;
  }
  folded_sequence_ = wal_.last_sequence();
  checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  return util::Status::Ok();
}

DurabilityCounters DurableStore::counters() const {
  DurabilityCounters counters;
  counters.wal_appends = wal_appends_.load(std::memory_order_relaxed);
  counters.wal_bytes = wal_bytes_.load(std::memory_order_relaxed);
  counters.checkpoints_written =
      checkpoints_written_.load(std::memory_order_relaxed);
  counters.recovery_replayed_deltas =
      recovery_replayed_.load(std::memory_order_relaxed);
  return counters;
}

}  // namespace whyprov::storage
