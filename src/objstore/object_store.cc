#include "objstore/object_store.h"

#include <chrono>

namespace vodak {

ObjectStore::~ObjectStore() { StopBackgroundReclaim(); }

uint32_t ObjectStore::RegisterClass(std::string debug_name,
                                    uint32_t slot_count) {
  WriterLock lock(data_mu_);
  ClassStorage storage;
  storage.debug_name = std::move(debug_name);
  storage.slot_count = slot_count;
  storage.columns.resize(slot_count);
  classes_.push_back(std::move(storage));
  return static_cast<uint32_t>(classes_.size());
}

uint32_t ObjectStore::class_count() const {
  SharedLock lock(data_mu_);
  return static_cast<uint32_t>(classes_.size());
}

const ObjectStore::ClassStorage* ObjectStore::FindClass(
    uint32_t class_id) const {
  if (class_id == 0 || class_id > classes_.size()) return nullptr;
  return &classes_[class_id - 1];
}

ObjectStore::ClassStorage* ObjectStore::FindClassMutable(uint32_t class_id) {
  if (class_id == 0 || class_id > classes_.size()) return nullptr;
  return &classes_[class_id - 1];
}

const ObjectStore::OldVersion* ObjectStore::ClassStorage::HistoryAt(
    uint32_t local, Epoch at) const {
  auto it = history.find(local);
  if (it == history.end()) return nullptr;
  // Newest first: the entry just below the head is the common hit.
  for (auto v = it->second.rbegin(); v != it->second.rend(); ++v) {
    if (v->begin <= at) return v->end > at ? &*v : nullptr;
  }
  return nullptr;
}

uint32_t ObjectStore::ClassStorage::Append(Epoch begin) {
  for (std::vector<Value>& column : columns) column.emplace_back();
  head_begin.push_back(begin);
  live.push_back(1);
  ++live_count;
  // local ids start at 1 so that Oid{0,0} stays the NIL reference.
  return size();
}

bool ObjectStore::AnyPins() const {
  MutexLock lock(pin_mu_);
  return !pins_.empty();
}

Status ObjectStore::CheckOid(Oid oid, uint32_t slot, const char* op,
                             Epoch at) const {
  const ClassStorage* cls = FindClass(oid.class_id);
  if (cls == nullptr) {
    return Status::NotFound(std::string(op) + ": unknown class in oid " +
                            oid.ToString());
  }
  if (!cls->Contains(oid.local) || !cls->VisibleAt(oid.local, at)) {
    return Status::NotFound(std::string(op) + ": dangling oid " +
                            oid.ToString());
  }
  if (slot >= cls->slot_count) {
    return Status::InvalidArgument(std::string(op) + ": slot " +
                                   std::to_string(slot) +
                                   " out of range for class '" +
                                   cls->debug_name + "'");
  }
  return Status::OK();
}

Result<Oid> ObjectStore::CreateObject(uint32_t class_id) {
  WriterLock lock(data_mu_);
  ClassStorage* cls = FindClassMutable(class_id);
  if (cls == nullptr) {
    return Status::NotFound("unknown class id " + std::to_string(class_id));
  }
  const Epoch current = epoch_.load(std::memory_order_acquire);
  // With readers pinned, stamp the new object with a fresh epoch so no
  // pinned reader's extent grows underneath it. Otherwise (bulk-load
  // fast path) no reader can observe an intermediate state, so the
  // object appears at the current epoch without a bump and without
  // version churn.
  const bool pinned = AnyPins();
  const uint32_t local = cls->Append(pinned ? current + 1 : current);
  if (pinned) {
    stats_.versions_created.fetch_add(1, std::memory_order_relaxed);
    stats_.epochs_committed.fetch_add(1, std::memory_order_relaxed);
    epoch_.store(current + 1, std::memory_order_release);
  }
  stats_.objects_created.fetch_add(1, std::memory_order_relaxed);
  return Oid(class_id, local);
}

ObjectStore::OldVersion* ObjectStore::SupersedeHead(ClassStorage* cls,
                                                   uint32_t local,
                                                   Epoch commit) {
  const uint32_t i = local - 1;
  std::vector<OldVersion>& versions = cls->history[local];
  versions.push_back({cls->head_begin[i], commit, {}});
  cls->head_begin[i] = commit;
  stats_.versions_created.fetch_add(1, std::memory_order_relaxed);
  OldVersion* old = &versions.back();
  old->slots.reserve(cls->slot_count);
  return old;
}

void ObjectStore::VersionHead(ClassStorage* cls, uint32_t local,
                              Epoch commit) {
  // A head that already began at `commit` was versioned by an earlier
  // touch in this batch: compose in place — the batch is atomic,
  // intermediate states are never visible.
  if (cls->head_begin[local - 1] == commit) return;
  OldVersion* old = SupersedeHead(cls, local, commit);
  for (const std::vector<Value>& column : cls->columns) {
    old->slots.push_back(column[local - 1]);  // copy-on-write
  }
}

void ObjectStore::TombstoneHead(ClassStorage* cls, uint32_t local,
                                Epoch commit) {
  const uint32_t i = local - 1;
  OldVersion* old = cls->head_begin[i] == commit
                        ? nullptr
                        : SupersedeHead(cls, local, commit);
  for (std::vector<Value>& column : cls->columns) {
    if (old != nullptr) old->slots.push_back(std::move(column[i]));
    column[i] = Value::Null();
  }
  cls->live[i] = 0;
  --cls->live_count;
}

Status ObjectStore::DeleteObject(Oid oid) {
  WriterLock lock(data_mu_);
  VODAK_RETURN_IF_ERROR(
      CheckOid(oid, /*slot=*/0, "delete", ResolveEpoch(kEpochLatest)));
  ClassStorage* cls = FindClassMutable(oid.class_id);
  if (AnyPins()) {
    const Epoch commit = epoch_.load(std::memory_order_acquire) + 1;
    TombstoneHead(cls, oid.local, commit);
    stats_.epochs_committed.fetch_add(1, std::memory_order_relaxed);
    epoch_.store(commit, std::memory_order_release);
  } else {
    // In place: the head keeps its begin epoch, so the object reads as
    // deleted at every epoch (no reader holds an older one).
    TombstoneHead(cls, oid.local, cls->head_begin[oid.local - 1]);
  }
  stats_.objects_deleted.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

bool ObjectStore::Exists(Oid oid, Epoch at) const {
  SharedLock lock(data_mu_);
  const ClassStorage* cls = FindClass(oid.class_id);
  if (cls == nullptr) return false;
  return cls->Contains(oid.local) &&
         cls->VisibleAt(oid.local, ResolveEpoch(at));
}

Result<Value> ObjectStore::GetProperty(Oid oid, uint32_t slot,
                                       Epoch at) const {
  SharedLock lock(data_mu_);
  const Epoch epoch = ResolveEpoch(at);
  VODAK_RETURN_IF_ERROR(CheckOid(oid, slot, "get", epoch));
  // Relaxed: per-row reads happen from parallel workers; a seq_cst RMW
  // here would ping-pong the stats cache line across cores.
  stats_.property_reads.fetch_add(1, std::memory_order_relaxed);
  if (at != kEpochLatest) {
    stats_.snapshot_reads.fetch_add(1, std::memory_order_relaxed);
  }
  return *classes_[oid.class_id - 1].CellAt(oid.local, slot, epoch);
}

Status ObjectStore::GetPropertyColumn(uint32_t class_id, uint32_t slot,
                                      const std::vector<uint32_t>& locals,
                                      std::vector<Value>* out,
                                      Epoch at) const {
  return GetPropertyColumn(class_id, slot, locals, 0, locals.size(), out, at);
}

Status ObjectStore::GetPropertyColumn(uint32_t class_id, uint32_t slot,
                                      const std::vector<uint32_t>& locals,
                                      size_t begin, size_t end,
                                      std::vector<Value>* out,
                                      Epoch at) const {
  SharedLock lock(data_mu_);
  const ClassStorage* cls = FindClass(class_id);
  if (cls == nullptr) {
    return Status::NotFound("get: unknown class id " +
                            std::to_string(class_id));
  }
  if (slot >= cls->slot_count) {
    return Status::InvalidArgument(
        "get: slot " + std::to_string(slot) +
        " out of range for class '" + cls->debug_name + "'");
  }
  if (begin > end || end > locals.size()) {
    return Status::InvalidArgument(
        "get: column range [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") out of bounds for " +
        std::to_string(locals.size()) + " locals");
  }
  const Epoch epoch = ResolveEpoch(at);
  out->reserve(out->size() + (end - begin));
  size_t emitted = 0;
  for (size_t i = begin; i < end; ++i) {
    const uint32_t local = locals[i];
    const Value* cell =
        cls->Contains(local) ? cls->CellAt(local, slot, epoch) : nullptr;
    if (cell == nullptr) {
      // Counted per object, like GetProperty: charge what was read
      // before the dangling reference stopped the column.
      stats_.property_reads.fetch_add(emitted, std::memory_order_relaxed);
      return Status::NotFound("get: dangling oid " +
                              Oid(class_id, local).ToString());
    }
    out->push_back(*cell);
    ++emitted;
  }
  stats_.property_reads.fetch_add(emitted, std::memory_order_relaxed);
  if (at != kEpochLatest) {
    stats_.snapshot_reads.fetch_add(emitted, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status ObjectStore::GetPropertyColumn(uint32_t class_id, uint32_t slot,
                                      const std::vector<Oid>& oids,
                                      size_t begin, size_t end,
                                      std::vector<Value>* out,
                                      Epoch at) const {
  SharedLock lock(data_mu_);
  const ClassStorage* cls = FindClass(class_id);
  if (cls == nullptr) {
    return Status::NotFound("get: unknown class id " +
                            std::to_string(class_id));
  }
  if (slot >= cls->slot_count) {
    return Status::InvalidArgument(
        "get: slot " + std::to_string(slot) +
        " out of range for class '" + cls->debug_name + "'");
  }
  if (begin > end || end > oids.size()) {
    return Status::InvalidArgument(
        "get: column range [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") out of bounds for " +
        std::to_string(oids.size()) + " oids");
  }
  const Epoch epoch = ResolveEpoch(at);
  out->reserve(out->size() + (end - begin));
  size_t emitted = 0;
  for (size_t i = begin; i < end; ++i) {
    const Oid oid = oids[i];
    const Value* cell = oid.class_id == class_id && cls->Contains(oid.local)
                            ? cls->CellAt(oid.local, slot, epoch)
                            : nullptr;
    if (cell == nullptr) {
      // Counted per object, like GetProperty: charge what was read
      // before the dangling reference stopped the column.
      stats_.property_reads.fetch_add(emitted, std::memory_order_relaxed);
      return Status::NotFound("get: dangling oid " + oid.ToString());
    }
    out->push_back(*cell);
    ++emitted;
  }
  stats_.property_reads.fetch_add(emitted, std::memory_order_relaxed);
  if (at != kEpochLatest) {
    stats_.snapshot_reads.fetch_add(emitted, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status ObjectStore::SetProperty(Oid oid, uint32_t slot, Value value) {
  WriterLock lock(data_mu_);
  VODAK_RETURN_IF_ERROR(
      CheckOid(oid, slot, "set", ResolveEpoch(kEpochLatest)));
  stats_.property_writes.fetch_add(1, std::memory_order_relaxed);
  ClassStorage* cls = FindClassMutable(oid.class_id);
  if (AnyPins()) {
    const Epoch commit = epoch_.load(std::memory_order_acquire) + 1;
    VersionHead(cls, oid.local, commit);
    cls->columns[slot][oid.local - 1] = std::move(value);
    stats_.epochs_committed.fetch_add(1, std::memory_order_relaxed);
    epoch_.store(commit, std::memory_order_release);
  } else {
    cls->columns[slot][oid.local - 1] = std::move(value);
  }
  return Status::OK();
}

Result<std::vector<Oid>> ObjectStore::Extent(uint32_t class_id,
                                             Epoch at) const {
  SharedLock lock(data_mu_);
  const ClassStorage* cls = FindClass(class_id);
  if (cls == nullptr) {
    return Status::NotFound("unknown class id " + std::to_string(class_id));
  }
  stats_.extent_scans.fetch_add(1, std::memory_order_relaxed);
  if (at != kEpochLatest) {
    stats_.snapshot_reads.fetch_add(1, std::memory_order_relaxed);
  }
  const Epoch epoch = ResolveEpoch(at);
  std::vector<Oid> out;
  out.reserve(cls->live_count);
  for (uint32_t local = 1; local <= cls->size(); ++local) {
    if (cls->VisibleAt(local, epoch)) out.emplace_back(class_id, local);
  }
  return out;
}

Result<uint64_t> ObjectStore::ExtentSize(uint32_t class_id, Epoch at) const {
  SharedLock lock(data_mu_);
  const ClassStorage* cls = FindClass(class_id);
  if (cls == nullptr) {
    return Status::NotFound("unknown class id " + std::to_string(class_id));
  }
  if (at == kEpochLatest) return cls->live_count;
  const Epoch epoch = ResolveEpoch(at);
  uint64_t count = 0;
  for (uint32_t local = 1; local <= cls->size(); ++local) {
    if (cls->VisibleAt(local, epoch)) ++count;
  }
  return count;
}

Result<MutationResult> ObjectStore::Apply(const std::vector<Mutation>& batch,
                                          const BeforePublish& before_publish) {
  WriterLock lock(data_mu_);
  const Epoch pre = epoch_.load(std::memory_order_acquire);

  // Validate everything against the pre-batch state before touching
  // anything: a batch commits atomically or not at all. Track per-oid
  // deletes so a later mutation of a within-batch-deleted oid is
  // rejected here rather than corrupting a tombstone mid-apply.
  std::map<std::pair<uint32_t, uint32_t>, bool> dead_in_batch;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Mutation& m = batch[i];
    const std::string where = "mutation #" + std::to_string(i);
    switch (m.kind) {
      case Mutation::Kind::kInsert: {
        const ClassStorage* cls = FindClass(m.class_id);
        if (cls == nullptr) {
          return Status::NotFound(where + ": unknown class id " +
                                  std::to_string(m.class_id));
        }
        for (const auto& [slot, value] : m.sets) {
          if (slot >= cls->slot_count) {
            return Status::InvalidArgument(
                where + ": slot " + std::to_string(slot) +
                " out of range for class '" + cls->debug_name + "'");
          }
        }
        break;
      }
      case Mutation::Kind::kUpdate:
      case Mutation::Kind::kDelete: {
        const auto key = std::make_pair(m.oid.class_id, m.oid.local);
        if (dead_in_batch.count(key) != 0) {
          return Status::InvalidArgument(
              where + ": oid " + m.oid.ToString() +
              " already deleted earlier in this batch");
        }
        Status check = CheckOid(m.oid, /*slot=*/0,
                                m.kind == Mutation::Kind::kUpdate
                                    ? "update"
                                    : "delete",
                                pre);
        if (!check.ok()) {
          return Status(check.code(), where + ": " + check.message());
        }
        const ClassStorage* cls = FindClass(m.oid.class_id);
        for (const auto& [slot, value] : m.sets) {
          if (slot >= cls->slot_count) {
            return Status::InvalidArgument(
                where + ": slot " + std::to_string(slot) +
                " out of range for class '" + cls->debug_name + "'");
          }
        }
        if (m.kind == Mutation::Kind::kDelete) dead_in_batch[key] = true;
        break;
      }
    }
  }

  MutationResult result;
  if (batch.empty()) {
    result.epoch = pre;
    return result;
  }

  const Epoch commit = pre + 1;
  result.epoch = commit;
  for (const Mutation& m : batch) {
    switch (m.kind) {
      case Mutation::Kind::kInsert: {
        ClassStorage* cls = FindClassMutable(m.class_id);
        const uint32_t local = cls->Append(commit);
        for (const auto& [slot, value] : m.sets) {
          cls->columns[slot][local - 1] = value;
        }
        result.created.emplace_back(m.class_id, local);
        stats_.objects_created.fetch_add(1, std::memory_order_relaxed);
        stats_.versions_created.fetch_add(1, std::memory_order_relaxed);
        stats_.property_writes.fetch_add(m.sets.size(),
                                         std::memory_order_relaxed);
        break;
      }
      case Mutation::Kind::kUpdate: {
        ClassStorage* cls = FindClassMutable(m.oid.class_id);
        VersionHead(cls, m.oid.local, commit);
        for (const auto& [slot, value] : m.sets) {
          cls->columns[slot][m.oid.local - 1] = value;
        }
        ++result.updated;
        stats_.property_writes.fetch_add(m.sets.size(),
                                         std::memory_order_relaxed);
        break;
      }
      case Mutation::Kind::kDelete: {
        TombstoneHead(FindClassMutable(m.oid.class_id), m.oid.local, commit);
        ++result.deleted;
        stats_.objects_deleted.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
  }

  if (before_publish) before_publish(commit);
  stats_.epochs_committed.fetch_add(1, std::memory_order_relaxed);
  // Release-publish last: a PinEpoch that reads `commit` is guaranteed
  // to see every version this batch wrote.
  epoch_.store(commit, std::memory_order_release);
  return result;
}

Epoch ObjectStore::PinEpoch() {
  MutexLock lock(pin_mu_);
  // Acquire pairs with the release store in Apply: reading epoch C here
  // means every version of commit C is visible to this reader.
  const Epoch epoch = epoch_.load(std::memory_order_acquire);
  pins_[epoch] += 1;
  return epoch;
}

void ObjectStore::UnpinEpoch(Epoch epoch) {
  bool moved = false;
  {
    MutexLock lock(pin_mu_);
    auto it = pins_.find(epoch);
    if (it == pins_.end()) return;  // defensive: unmatched unpin
    if (--it->second == 0) {
      const bool was_oldest = it == pins_.begin();
      pins_.erase(it);
      if (was_oldest) {
        horizon_moved_ = true;
        moved = true;
      }
    }
  }
  if (moved) reclaim_cv_.notify_all();
}

Epoch ObjectStore::MinPinnedEpoch() const {
  MutexLock lock(pin_mu_);
  if (pins_.empty()) return epoch_.load(std::memory_order_acquire);
  return pins_.begin()->first;
}

size_t ObjectStore::Reclaim() {
  WriterLock lock(data_mu_);
  // data_mu_ before pin_mu_ (the store-wide order); with data_mu_ held
  // exclusively the horizon cannot advance past us mid-sweep: PinEpoch
  // only pins the current epoch, and every version we free is already
  // invisible at >= horizon.
  const Epoch horizon = MinPinnedEpoch();
  size_t freed = 0;
  for (ClassStorage& cls : classes_) {
    for (auto it = cls.history.begin(); it != cls.history.end();) {
      // Entries ascend by end: an entry with end <= horizon is
      // superseded at every epoch a pinned or future reader can
      // resolve, so the reclaimable ones form a prefix.
      std::vector<OldVersion>& versions = it->second;
      size_t drop = 0;
      while (drop < versions.size() && versions[drop].end <= horizon) ++drop;
      freed += drop;
      if (drop == versions.size()) {
        it = cls.history.erase(it);
      } else {
        versions.erase(versions.begin(), versions.begin() + drop);
        ++it;
      }
    }
  }
  stats_.versions_reclaimed.fetch_add(freed, std::memory_order_relaxed);
  return freed;
}

void ObjectStore::StartBackgroundReclaim() {
  {
    MutexLock lock(pin_mu_);
    if (reclaim_running_) return;
    reclaim_running_ = true;
    stop_reclaim_ = false;
    horizon_moved_ = false;
  }
  reclaim_thread_ = std::thread([this] { ReclaimLoop(); });
}

void ObjectStore::StopBackgroundReclaim() {
  {
    MutexLock lock(pin_mu_);
    if (!reclaim_running_) return;
    stop_reclaim_ = true;
  }
  reclaim_cv_.notify_all();
  reclaim_thread_.join();
  MutexLock lock(pin_mu_);
  reclaim_running_ = false;
  stop_reclaim_ = false;
}

void ObjectStore::ReclaimLoop() {
  for (;;) {
    {
      UniqueLock lock(pin_mu_);
      if (!stop_reclaim_ && !horizon_moved_) {
        // Timed wait doubles as the periodic backstop: even without an
        // unpin signal the loop sweeps every ~50ms.
        reclaim_cv_.wait_for(lock, std::chrono::milliseconds(50));
      }
      if (stop_reclaim_) return;
      horizon_moved_ = false;
    }
    Reclaim();
  }
}

}  // namespace vodak
