#ifndef VODAK_OBJSTORE_OBJECT_STORE_H_
#define VODAK_OBJSTORE_OBJECT_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "objstore/epoch.h"
#include "types/oid.h"
#include "types/value.h"

namespace vodak {

/// Counters exposed by the store. Benchmarks and the cost-model
/// calibration read these to *measure* property accesses and extent scans
/// instead of guessing, which is how we validate the paper's claims about
/// access cost asymmetry between attributes and methods. Relaxed atomics:
/// morsel-driven workers read properties concurrently, and counting must
/// never race (column reads bump property_reads once per column, so the
/// hot path pays one fetch_add per batch, not per row).
struct StoreStats {
  std::atomic<uint64_t> property_reads{0};
  std::atomic<uint64_t> property_writes{0};
  std::atomic<uint64_t> objects_created{0};
  std::atomic<uint64_t> objects_deleted{0};
  std::atomic<uint64_t> extent_scans{0};
  /// Reads resolved at an explicitly pinned epoch (not kEpochLatest):
  /// the count of work actually served from a snapshot, which is what
  /// the mixed read/write bench gates on.
  std::atomic<uint64_t> snapshot_reads{0};
  /// Version records appended by the copy-on-write path (Apply, or a
  /// legacy write forced to version because readers hold pins).
  std::atomic<uint64_t> versions_created{0};
  /// Superseded versions freed by Reclaim().
  std::atomic<uint64_t> versions_reclaimed{0};
  /// Epoch bumps committed (one per Apply batch, not per mutation).
  std::atomic<uint64_t> epochs_committed{0};

  /// Relaxed, like every bump: resets run while no query is in flight,
  /// and an implicit assignment would pay a seq_cst fence for ordering
  /// nobody reads (scripts/lint.py rejects implicit-order atomic ops).
  void Reset() {
    property_reads.store(0, std::memory_order_relaxed);
    property_writes.store(0, std::memory_order_relaxed);
    objects_created.store(0, std::memory_order_relaxed);
    objects_deleted.store(0, std::memory_order_relaxed);
    extent_scans.store(0, std::memory_order_relaxed);
    snapshot_reads.store(0, std::memory_order_relaxed);
    versions_created.store(0, std::memory_order_relaxed);
    versions_reclaimed.store(0, std::memory_order_relaxed);
    epochs_committed.store(0, std::memory_order_relaxed);
  }
};

/// One write in a batch handed to ObjectStore::Apply. The whole batch
/// commits atomically under a single epoch bump; every mutation is
/// validated against the pre-batch state before any of them applies.
struct Mutation {
  enum class Kind { kInsert, kUpdate, kDelete };
  Kind kind = Kind::kInsert;
  /// kInsert: the class to instantiate.
  uint32_t class_id = 0;
  /// kUpdate / kDelete: the target instance.
  Oid oid;
  /// kInsert / kUpdate: (slot, value) assignments.
  std::vector<std::pair<uint32_t, Value>> sets;

  static Mutation Insert(uint32_t class_id,
                         std::vector<std::pair<uint32_t, Value>> sets = {}) {
    Mutation m;
    m.kind = Kind::kInsert;
    m.class_id = class_id;
    m.sets = std::move(sets);
    return m;
  }
  static Mutation Update(Oid oid,
                         std::vector<std::pair<uint32_t, Value>> sets) {
    Mutation m;
    m.kind = Kind::kUpdate;
    m.oid = oid;
    m.sets = std::move(sets);
    return m;
  }
  static Mutation Delete(Oid oid) {
    Mutation m;
    m.kind = Kind::kDelete;
    m.oid = oid;
    return m;
  }
};

/// What a committed Apply batch did, and the epoch it committed as.
struct MutationResult {
  Epoch epoch = 0;
  std::vector<Oid> created;  // one Oid per kInsert, in batch order
  uint64_t updated = 0;
  uint64_t deleted = 0;
};

/// In-memory object store: the VODAK-kernel substitute (DESIGN.md S3),
/// multi-version (docs/ARCHITECTURE.md §"Writes, epochs & snapshot
/// isolation").
///
/// A class is registered with a number of property slots; instances are
/// addressed by Oid {class_id, local}. Storage is column-major (§"Version
/// chains and the epoch clock"): each class keeps the newest version of
/// every object in per-slot head columns indexed by local, with the
/// epoch that version began at and a live flag, and keeps superseded
/// versions aside in a sparse history. A version covers the half-open
/// epoch interval [begin, end): a read at epoch E takes the head cell
/// when the head began at or before E and searches the history
/// otherwise, and sees the object at all only if that version is live
/// (deletes turn the head into a dead tombstone rather than reclaiming
/// the local id, so Oids stay stable). Writers commit through Apply()
/// under the exclusive side of a reader/writer lock and bump the global
/// epoch once per batch; readers pin an epoch (PinEpoch/UnpinEpoch, or
/// the EpochPin RAII helper) and pass it to every read, so a query
/// observes one consistent snapshot no matter how many batches commit
/// while it drains. Reclaim() — callable directly or via the opt-in
/// background thread — frees history entries no pinned (or future)
/// reader can ever see.
///
/// The single-object CreateObject/SetProperty/DeleteObject calls remain
/// for loaders and tests; while no reader holds a pin they write the
/// head cells in place without versioning or an epoch bump (bulk load
/// stays cheap), and the moment any pin exists they switch to the same
/// copy-on-write path as Apply.
class ObjectStore {
 public:
  ObjectStore() = default;
  ~ObjectStore();
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Registers storage for a class; returns its class id (>= 1).
  uint32_t RegisterClass(std::string debug_name, uint32_t slot_count);

  uint32_t class_count() const;

  /// Creates an instance with all slots NULL.
  Result<Oid> CreateObject(uint32_t class_id);

  /// Tombstones an object; its Oid becomes invalid at later epochs.
  Status DeleteObject(Oid oid);

  bool Exists(Oid oid, Epoch at = kEpochLatest) const;

  Result<Value> GetProperty(Oid oid, uint32_t slot,
                            Epoch at = kEpochLatest) const;
  Status SetProperty(Oid oid, uint32_t slot, Value value);

  /// Batched property read for the vectorized executor: appends the
  /// value of `slot` for instance `local` of `class_id`, for every local
  /// in `locals`, to `out` (in order). Resolves the class storage and
  /// checks the slot once for the whole column instead of once per
  /// object. Counts locals.size() property reads.
  Status GetPropertyColumn(uint32_t class_id, uint32_t slot,
                           const std::vector<uint32_t>& locals,
                           std::vector<Value>* out,
                           Epoch at = kEpochLatest) const;

  /// Range-scoped variant reading locals[begin, end): parallel morsel
  /// workers can share one locals vector and each read a disjoint slice
  /// without coordination — each slice takes the reader side of the
  /// store lock and resolves against the same epoch, and the stats
  /// counter is bumped once, atomically, for the whole slice.
  Status GetPropertyColumn(uint32_t class_id, uint32_t slot,
                           const std::vector<uint32_t>& locals,
                           size_t begin, size_t end,
                           std::vector<Value>* out,
                           Epoch at = kEpochLatest) const;

  /// Oid-vector variant of the range-scoped column read, for callers
  /// that already hold a materialized extent (shared-scan seeds, the
  /// segment ingester): reads oids[begin, end) directly, so no caller
  /// ever copies an extent into a separate locals index vector just to
  /// satisfy the column API. Every oid must belong to `class_id`.
  Status GetPropertyColumn(uint32_t class_id, uint32_t slot,
                           const std::vector<Oid>& oids,
                           size_t begin, size_t end,
                           std::vector<Value>* out,
                           Epoch at = kEpochLatest) const;

  /// Instances of a class visible at `at`, in creation order. Counts as
  /// one extent scan in the stats.
  Result<std::vector<Oid>> Extent(uint32_t class_id,
                                  Epoch at = kEpochLatest) const;

  /// Number of visible instances (cardinality statistic for the
  /// optimizer; at the latest epoch this is O(1) off the maintained
  /// live count, at a pinned epoch it scans the head arrays).
  Result<uint64_t> ExtentSize(uint32_t class_id,
                              Epoch at = kEpochLatest) const;

  /// Runs once per committed batch with the commit epoch, after the
  /// batch is written and before the epoch is published.
  using BeforePublish = std::function<void(Epoch commit)>;

  /// Commits a batch of mutations atomically under one epoch bump.
  /// Every mutation is validated against the pre-batch state first; on
  /// any validation error nothing applies and the epoch does not move.
  /// Mutations read the pre-batch snapshot (an update of an oid
  /// inserted by the same batch is rejected), except that repeated
  /// updates of one oid within a batch compose in order.
  ///
  /// `before_publish` (optional) runs under the exclusive store lock
  /// just before the commit epoch becomes visible, so state kept beside
  /// the store (the segment directory) moves with the commit: no reader
  /// can pin the new epoch and still see that state's old version. It
  /// must not call back into this store.
  Result<MutationResult> Apply(const std::vector<Mutation>& batch,
                               const BeforePublish& before_publish = {})
      EXCLUDES(data_mu_);

  /// The newest committed epoch.
  Epoch CurrentEpoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Registers a reader at the current epoch and returns it; every
  /// version visible at that epoch is kept alive until the matching
  /// UnpinEpoch. Pins nest and are cheap (a map bump under a mutex).
  Epoch PinEpoch() EXCLUDES(pin_mu_);
  void UnpinEpoch(Epoch epoch) EXCLUDES(pin_mu_);
  /// Oldest pinned epoch, or the current epoch when nothing is pinned —
  /// the reclaim horizon.
  Epoch MinPinnedEpoch() const EXCLUDES(pin_mu_);

  /// Frees history entries superseded at or before the reclaim horizon
  /// (entry.end <= MinPinnedEpoch()): no pinned reader can see them,
  /// and future readers pin epochs >= the horizon. Visits the history
  /// only, never the head columns. Returns the number of versions
  /// freed.
  size_t Reclaim() EXCLUDES(data_mu_);

  /// Opt-in background reclaim: a thread that runs Reclaim() whenever a
  /// pin release may have advanced the horizon (and periodically as a
  /// backstop). Not started by default so deterministic tests control
  /// reclaim timing themselves.
  void StartBackgroundReclaim();
  void StopBackgroundReclaim();

  const StoreStats& stats() const { return stats_; }
  StoreStats* mutable_stats() { return &stats_; }

 private:
  /// A superseded version of one object, visible at epochs in
  /// [begin, end). A tombstone is never superseded (deleted oids take
  /// no further writes), so every history entry is live.
  struct OldVersion {
    Epoch begin = 0;
    Epoch end = 0;
    std::vector<Value> slots;
  };

  /// One class, column-major. The head (the newest version of every
  /// object) lives in dense arrays indexed by local - 1: one Value
  /// column per slot, the epoch the head version began at, and whether
  /// it is live (0: a delete tombstone). Superseded versions sit in
  /// `history`, keyed by local and ascending by begin (searched newest
  /// first); only objects written since the reclaim horizon have an
  /// entry. Readers hold data_mu_ shared, writers exclusive.
  struct ClassStorage {
    std::string debug_name;
    uint32_t slot_count = 0;
    uint64_t live_count = 0;  // at the latest epoch
    std::vector<std::vector<Value>> columns;  // [slot][local - 1]
    std::vector<Epoch> head_begin;            // [local - 1]
    std::vector<uint8_t> live;                // [local - 1]
    std::unordered_map<uint32_t, std::vector<OldVersion>> history;

    uint32_t size() const { return static_cast<uint32_t>(head_begin.size()); }
    bool Contains(uint32_t local) const {
      return local != 0 && local <= size();
    }

    /// The history entry of `local` visible at `at`, or null when none
    /// is (the object did not exist yet, or the entry was reclaimed).
    /// Only meaningful when the head began after `at`.
    const OldVersion* HistoryAt(uint32_t local, Epoch at) const;

    /// Whether `local` (Contains) is visible and live at `at`.
    bool VisibleAt(uint32_t local, Epoch at) const {
      const uint32_t i = local - 1;
      if (head_begin[i] <= at) return live[i] != 0;
      return HistoryAt(local, at) != nullptr;
    }

    /// The value of `slot` for `local` (Contains) at `at`, or null when
    /// the object is not visible there. A head hit is one array read.
    const Value* CellAt(uint32_t local, uint32_t slot, Epoch at) const {
      const uint32_t i = local - 1;
      if (head_begin[i] <= at) {
        return live[i] != 0 ? &columns[slot][i] : nullptr;
      }
      const OldVersion* old = HistoryAt(local, at);
      return old != nullptr ? &old->slots[slot] : nullptr;
    }

    /// Appends a live object whose head begins at `begin`, all slots
    /// NULL; returns its local.
    uint32_t Append(Epoch begin);
  };

  /// Resolves kEpochLatest to the current epoch. Callers hold at least
  /// the shared side of data_mu_, under which epoch_ cannot advance
  /// (stores happen only under the exclusive side).
  Epoch ResolveEpoch(Epoch at) const {
    return at == kEpochLatest ? epoch_.load(std::memory_order_acquire) : at;
  }

  Status CheckOid(Oid oid, uint32_t slot, const char* op, Epoch at) const
      REQUIRES_SHARED(data_mu_);
  const ClassStorage* FindClass(uint32_t class_id) const
      REQUIRES_SHARED(data_mu_);
  ClassStorage* FindClassMutable(uint32_t class_id) REQUIRES(data_mu_);

  /// True when any reader holds a pin — the trigger that flips the
  /// legacy single-object writes from in-place to copy-on-write. Called
  /// with data_mu_ held exclusively, which makes the check race-free: a
  /// reader pinning after it returns false cannot complete any read
  /// before this writer finishes (reads take data_mu_ shared), so that
  /// reader observes the fully applied in-place write — a valid
  /// serialization with the writer first.
  bool AnyPins() const EXCLUDES(pin_mu_);

  /// Pushes a history entry for `local`'s head, ended at `commit`, and
  /// restamps the head to begin there; returns the entry with its slots
  /// still empty for the caller to fill.
  OldVersion* SupersedeHead(ClassStorage* cls, uint32_t local, Epoch commit)
      REQUIRES(data_mu_);
  /// Readies `local`'s head to take writes of commit `commit`: the
  /// first touch in a commit copies the head cells into history (end =
  /// commit) and restamps the head; a later touch in the same commit
  /// composes in place.
  void VersionHead(ClassStorage* cls, uint32_t local, Epoch commit)
      REQUIRES(data_mu_);
  /// Turns `local`'s live head into a tombstone at `commit`, moving its
  /// values into history first unless the head already began at
  /// `commit` (written earlier in the same batch: the batch is atomic,
  /// so that intermediate version collapses into the tombstone).
  void TombstoneHead(ClassStorage* cls, uint32_t local, Epoch commit)
      REQUIRES(data_mu_);

  void ReclaimLoop();

  /// Reader/writer lock over all class storage. Readers resolve their
  /// epoch and read heads and history under the shared side; Apply and the
  /// legacy writes hold the exclusive side. Acquired before pin_mu_
  /// everywhere both are held (Apply/Reclaim take data_mu_ then consult
  /// the pin table).
  mutable SharedMutex data_mu_ ACQUIRED_BEFORE(pin_mu_);
  std::vector<ClassStorage> classes_ GUARDED_BY(data_mu_);

  /// Newest committed epoch. Stored (release) only under the exclusive
  /// side of data_mu_, as the last step of a commit; loaded (acquire)
  /// without data_mu_ by PinEpoch/CurrentEpoch, so a pinner that reads
  /// epoch C also sees every version the C commit published.
  std::atomic<Epoch> epoch_{0};

  mutable Mutex pin_mu_;
  /// epoch -> number of pins at that epoch.
  std::map<Epoch, uint32_t> pins_ GUARDED_BY(pin_mu_);
  bool reclaim_running_ GUARDED_BY(pin_mu_) = false;
  bool stop_reclaim_ GUARDED_BY(pin_mu_) = false;
  /// Set by UnpinEpoch when a pin count hits zero: the horizon may have
  /// advanced, wake the reclaim thread.
  bool horizon_moved_ GUARDED_BY(pin_mu_) = false;
  std::condition_variable_any reclaim_cv_;
  std::thread reclaim_thread_;

  mutable StoreStats stats_;
};

/// RAII pin: pins the store's current epoch for this scope.
class EpochPin {
 public:
  explicit EpochPin(ObjectStore* store)
      : store_(store), epoch_(store->PinEpoch()) {}
  ~EpochPin() {
    if (store_ != nullptr) store_->UnpinEpoch(epoch_);
  }
  EpochPin(EpochPin&& other) noexcept
      : store_(other.store_), epoch_(other.epoch_) {
    other.store_ = nullptr;
  }
  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;
  EpochPin& operator=(EpochPin&&) = delete;

  Epoch epoch() const { return epoch_; }

 private:
  ObjectStore* store_;
  Epoch epoch_;
};

}  // namespace vodak

#endif  // VODAK_OBJSTORE_OBJECT_STORE_H_
