#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "objstore/object_store.h"

namespace vodak {
namespace {

TEST(ObjectStoreTest, RegisterAndCreate) {
  ObjectStore store;
  uint32_t cls = store.RegisterClass("Doc", 2);
  EXPECT_EQ(cls, 1u);
  auto oid = store.CreateObject(cls);
  ASSERT_TRUE(oid.ok());
  EXPECT_EQ(oid.value(), Oid(1, 1));
  EXPECT_TRUE(store.Exists(oid.value()));
}

TEST(ObjectStoreTest, CreateOnUnknownClassFails) {
  ObjectStore store;
  EXPECT_FALSE(store.CreateObject(99).ok());
  EXPECT_FALSE(store.CreateObject(0).ok());
}

TEST(ObjectStoreTest, PropertyRoundTrip) {
  ObjectStore store;
  uint32_t cls = store.RegisterClass("Doc", 2);
  Oid oid = store.CreateObject(cls).value();
  EXPECT_TRUE(store.GetProperty(oid, 0).value().is_null());
  ASSERT_TRUE(store.SetProperty(oid, 1, Value::String("t")).ok());
  EXPECT_EQ(store.GetProperty(oid, 1).value(), Value::String("t"));
}

TEST(ObjectStoreTest, SlotOutOfRange) {
  ObjectStore store;
  uint32_t cls = store.RegisterClass("Doc", 1);
  Oid oid = store.CreateObject(cls).value();
  EXPECT_FALSE(store.GetProperty(oid, 5).ok());
  EXPECT_FALSE(store.SetProperty(oid, 5, Value::Int(1)).ok());
}

TEST(ObjectStoreTest, DeleteTombstones) {
  ObjectStore store;
  uint32_t cls = store.RegisterClass("Doc", 1);
  Oid a = store.CreateObject(cls).value();
  Oid b = store.CreateObject(cls).value();
  ASSERT_TRUE(store.DeleteObject(a).ok());
  EXPECT_FALSE(store.Exists(a));
  EXPECT_TRUE(store.Exists(b));
  EXPECT_FALSE(store.GetProperty(a, 0).ok());
  EXPECT_FALSE(store.DeleteObject(a).ok());  // double delete
  auto extent = store.Extent(cls);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent.value(), std::vector<Oid>{b});
  EXPECT_EQ(store.ExtentSize(cls).value(), 1u);
}

TEST(ObjectStoreTest, OidsStableAfterDelete) {
  ObjectStore store;
  uint32_t cls = store.RegisterClass("Doc", 1);
  Oid a = store.CreateObject(cls).value();
  store.DeleteObject(a).ok();
  Oid c = store.CreateObject(cls).value();
  EXPECT_NE(a, c);  // tombstoned slot is not reused
}

TEST(ObjectStoreTest, MultipleClassesIndependent) {
  ObjectStore store;
  uint32_t c1 = store.RegisterClass("A", 1);
  uint32_t c2 = store.RegisterClass("B", 1);
  Oid a = store.CreateObject(c1).value();
  Oid b = store.CreateObject(c2).value();
  EXPECT_EQ(a.class_id, c1);
  EXPECT_EQ(b.class_id, c2);
  EXPECT_EQ(store.Extent(c1).value().size(), 1u);
  EXPECT_EQ(store.Extent(c2).value().size(), 1u);
}

TEST(ObjectStoreTest, StatsCounters) {
  ObjectStore store;
  uint32_t cls = store.RegisterClass("Doc", 1);
  Oid oid = store.CreateObject(cls).value();
  (void)store.SetProperty(oid, 0, Value::Int(1));
  (void)store.GetProperty(oid, 0);
  (void)store.GetProperty(oid, 0);
  (void)store.Extent(cls);
  EXPECT_EQ(store.stats().objects_created, 1u);
  EXPECT_EQ(store.stats().property_writes, 1u);
  EXPECT_EQ(store.stats().property_reads, 2u);
  EXPECT_EQ(store.stats().extent_scans, 1u);
  store.mutable_stats()->Reset();
  EXPECT_EQ(store.stats().property_reads, 0u);
}

TEST(ObjectStoreTest, PropertyColumnRangeScoped) {
  ObjectStore store;
  uint32_t cls = store.RegisterClass("Doc", 1);
  std::vector<uint32_t> locals;
  for (int i = 0; i < 6; ++i) {
    Oid oid = store.CreateObject(cls).value();
    ASSERT_TRUE(store.SetProperty(oid, 0, Value::Int(i)).ok());
    locals.push_back(oid.local);
  }
  store.mutable_stats()->Reset();

  // Disjoint slices of one shared locals vector, as morsel workers
  // read them; together they cover the column exactly.
  std::vector<Value> head;
  std::vector<Value> tail;
  ASSERT_TRUE(
      store.GetPropertyColumn(cls, 0, locals, 0, 4, &head).ok());
  ASSERT_TRUE(
      store.GetPropertyColumn(cls, 0, locals, 4, 6, &tail).ok());
  ASSERT_EQ(head.size(), 4u);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(head[0], Value::Int(0));
  EXPECT_EQ(head[3], Value::Int(3));
  EXPECT_EQ(tail[0], Value::Int(4));
  EXPECT_EQ(tail[1], Value::Int(5));
  // Still counted per object, like the full-column overload.
  EXPECT_EQ(store.stats().property_reads, 6u);

  // Out-of-bounds ranges are rejected.
  std::vector<Value> out;
  EXPECT_FALSE(store.GetPropertyColumn(cls, 0, locals, 4, 2, &out).ok());
  EXPECT_FALSE(store.GetPropertyColumn(cls, 0, locals, 0, 7, &out).ok());

  // The legacy whole-vector overload agrees with slice concatenation.
  std::vector<Value> full;
  ASSERT_TRUE(store.GetPropertyColumn(cls, 0, locals, &full).ok());
  ASSERT_EQ(full.size(), 6u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(full[i], head[i]);
  for (size_t i = 0; i < 2; ++i) EXPECT_EQ(full[4 + i], tail[i]);
}

TEST(ObjectStoreTest, DanglingOidRejected) {
  ObjectStore store;
  store.RegisterClass("Doc", 1);
  EXPECT_FALSE(store.GetProperty(Oid(1, 42), 0).ok());
  EXPECT_FALSE(store.Exists(Oid(7, 1)));
}

// ------------------------------------------------ versioned layout edges
// The store keeps each class's newest versions in per-slot head columns
// and superseded ones in a sparse history (docs/ARCHITECTURE.md
// §"Version chains and the epoch clock"). These tests pin the reads at
// every epoch a history serves, the tombstone and reclaim rules, and
// the version counters, so the layout can change without the
// observable behaviour moving.

namespace mvcc {

/// Every read path at one epoch, for one object and slot: the scalar
/// read and both column overloads must agree.
void ExpectValueAt(const ObjectStore& store, Oid oid, uint32_t slot,
                   Epoch at, const Value& want) {
  auto scalar = store.GetProperty(oid, slot, at);
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString() << " at " << at;
  EXPECT_EQ(scalar.value(), want) << oid.ToString() << " at " << at;
  std::vector<Value> by_local;
  ASSERT_TRUE(store
                  .GetPropertyColumn(oid.class_id, slot, {oid.local},
                                     &by_local, at)
                  .ok());
  ASSERT_EQ(by_local.size(), 1u);
  EXPECT_EQ(by_local[0], want) << oid.ToString() << " at " << at;
  std::vector<Value> by_oid;
  ASSERT_TRUE(store
                  .GetPropertyColumn(oid.class_id, slot,
                                     std::vector<Oid>{oid}, 0, 1, &by_oid,
                                     at)
                  .ok());
  ASSERT_EQ(by_oid.size(), 1u);
  EXPECT_EQ(by_oid[0], want) << oid.ToString() << " at " << at;
  EXPECT_TRUE(store.Exists(oid, at));
}

void ExpectInvisibleAt(const ObjectStore& store, Oid oid, Epoch at) {
  EXPECT_FALSE(store.Exists(oid, at)) << oid.ToString() << " at " << at;
  auto scalar = store.GetProperty(oid, 0, at);
  ASSERT_FALSE(scalar.ok()) << oid.ToString() << " at " << at;
  EXPECT_EQ(scalar.status().message(),
            "get: dangling oid " + oid.ToString());
  std::vector<Value> column;
  Status col = store.GetPropertyColumn(oid.class_id, 0, {oid.local},
                                       &column, at);
  ASSERT_FALSE(col.ok());
  EXPECT_EQ(col.message(), "get: dangling oid " + oid.ToString());
  EXPECT_TRUE(column.empty());
}

uint64_t Created(const ObjectStore& store) {
  return store.stats().versions_created.load(std::memory_order_relaxed);
}

uint64_t Reclaimed(const ObjectStore& store) {
  return store.stats().versions_reclaimed.load(std::memory_order_relaxed);
}

}  // namespace mvcc

TEST(ObjectStoreVersionsTest, ReadsAtEveryEpochOfObjectsUpdatedUpToThrice) {
  ObjectStore store;
  const uint32_t cls = store.RegisterClass("Doc", 2);
  std::vector<Oid> oids;
  for (int i = 0; i < 4; ++i) {
    Oid oid = store.CreateObject(cls).value();
    ASSERT_TRUE(store.SetProperty(oid, 0, Value::Int(i)).ok());
    ASSERT_TRUE(store.SetProperty(oid, 1, Value::String("s")).ok());
    oids.push_back(oid);
  }
  // oids[k] is updated k times (k = 0..3), one commit per round, so
  // the history of oids[3] spans every epoch.
  std::vector<Epoch> epochs = {store.CurrentEpoch()};
  const Epoch pin = store.PinEpoch();
  for (int round = 1; round <= 3; ++round) {
    std::vector<Mutation> batch;
    for (int k = round; k < 4; ++k) {
      batch.push_back(
          Mutation::Update(oids[k], {{0, Value::Int(100 * round + k)}}));
    }
    auto applied = store.Apply(batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    epochs.push_back(applied.value().epoch);
  }
  for (size_t e = 0; e < epochs.size(); ++e) {
    for (int k = 0; k < 4; ++k) {
      const int last_round = std::min<int>(static_cast<int>(e), k);
      const Value want =
          last_round == 0 ? Value::Int(k) : Value::Int(100 * last_round + k);
      mvcc::ExpectValueAt(store, oids[k], 0, epochs[e], want);
      // The untouched slot keeps its value in every version.
      mvcc::ExpectValueAt(store, oids[k], 1, epochs[e], Value::String("s"));
    }
  }
  // A whole-extent column at each epoch matches the per-object reads.
  std::vector<uint32_t> locals;
  for (Oid oid : oids) locals.push_back(oid.local);
  for (size_t e = 0; e < epochs.size(); ++e) {
    std::vector<Value> column;
    ASSERT_TRUE(store.GetPropertyColumn(cls, 0, locals, &column, epochs[e])
                    .ok());
    ASSERT_EQ(column.size(), 4u);
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(column[k], store.GetProperty(oids[k], 0, epochs[e]).value());
    }
  }
  EXPECT_EQ(mvcc::Created(store), 1u + 2u + 3u);

  store.UnpinEpoch(pin);
  EXPECT_EQ(store.Reclaim(), 6u);
  for (int k = 0; k < 4; ++k) {
    mvcc::ExpectValueAt(store, oids[k], 0, kEpochLatest,
                        k == 0 ? Value::Int(0) : Value::Int(100 * k + k));
  }
}

TEST(ObjectStoreVersionsTest, DeleteTombstoneThenReclaim) {
  ObjectStore store;
  const uint32_t cls = store.RegisterClass("Doc", 1);
  Oid a = store.CreateObject(cls).value();
  Oid b = store.CreateObject(cls).value();
  ASSERT_TRUE(store.SetProperty(a, 0, Value::Int(1)).ok());
  const Epoch before = store.PinEpoch();
  auto applied = store.Apply({Mutation::Delete(a)});
  ASSERT_TRUE(applied.ok());
  const Epoch after = applied.value().epoch;
  EXPECT_EQ(mvcc::Created(store), 1u);

  mvcc::ExpectValueAt(store, a, 0, before, Value::Int(1));
  mvcc::ExpectInvisibleAt(store, a, after);
  mvcc::ExpectInvisibleAt(store, a, kEpochLatest);
  EXPECT_EQ(store.Extent(cls, before).value(), (std::vector<Oid>{a, b}));
  EXPECT_EQ(store.Extent(cls, after).value(), std::vector<Oid>{b});
  EXPECT_EQ(store.ExtentSize(cls, before).value(), 2u);
  EXPECT_EQ(store.ExtentSize(cls, after).value(), 1u);
  EXPECT_EQ(store.ExtentSize(cls).value(), 1u);

  // The pin guards the pre-delete version; once it goes, reclaim frees
  // exactly that one version and the tombstone stays.
  EXPECT_EQ(store.Reclaim(), 0u);
  mvcc::ExpectValueAt(store, a, 0, before, Value::Int(1));
  store.UnpinEpoch(before);
  EXPECT_EQ(store.Reclaim(), 1u);
  EXPECT_EQ(store.Reclaim(), 0u);
  EXPECT_EQ(mvcc::Reclaimed(store), 1u);
  mvcc::ExpectInvisibleAt(store, a, kEpochLatest);
  EXPECT_EQ(store.Extent(cls).value(), std::vector<Oid>{b});
  // Oids stay stable: a deleted object is never resurrected or reused.
  auto again = store.Apply({Mutation::Update(a, {{0, Value::Int(2)}})});
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().message(),
            "mutation #0: update: dangling oid " + a.ToString());
}

TEST(ObjectStoreVersionsTest, InsertUpdateDeleteWithinOneBatch) {
  ObjectStore store;
  const uint32_t cls = store.RegisterClass("Doc", 2);
  std::vector<Oid> oids;
  for (int i = 0; i < 3; ++i) {
    Oid oid = store.CreateObject(cls).value();
    ASSERT_TRUE(store.SetProperty(oid, 0, Value::Int(i)).ok());
    oids.push_back(oid);
  }
  const Epoch before = store.PinEpoch();
  auto applied = store.Apply({
      Mutation::Insert(cls, {{0, Value::Int(9)}, {1, Value::Int(9)}}),
      // Two touches of one oid compose in order into one version.
      Mutation::Update(oids[0], {{0, Value::Int(10)}}),
      Mutation::Update(oids[0], {{1, Value::Int(11)}}),
      Mutation::Delete(oids[1]),
      // Updated, then deleted in the same batch: the intermediate
      // version collapses into the tombstone.
      Mutation::Update(oids[2], {{0, Value::Int(12)}}),
      Mutation::Delete(oids[2]),
  });
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  const Epoch after = applied.value().epoch;
  EXPECT_EQ(after, before + 1);
  ASSERT_EQ(applied.value().created.size(), 1u);
  const Oid inserted = applied.value().created[0];
  EXPECT_EQ(inserted, Oid(cls, 4));
  EXPECT_EQ(applied.value().updated, 3u);
  EXPECT_EQ(applied.value().deleted, 2u);
  // insert + one version per touched pre-batch object.
  EXPECT_EQ(mvcc::Created(store), 4u);

  for (int i = 0; i < 3; ++i) {
    mvcc::ExpectValueAt(store, oids[i], 0, before, Value::Int(i));
    mvcc::ExpectValueAt(store, oids[i], 1, before, Value::Null());
  }
  mvcc::ExpectInvisibleAt(store, inserted, before);

  mvcc::ExpectValueAt(store, oids[0], 0, after, Value::Int(10));
  mvcc::ExpectValueAt(store, oids[0], 1, after, Value::Int(11));
  mvcc::ExpectInvisibleAt(store, oids[1], after);
  mvcc::ExpectInvisibleAt(store, oids[2], after);
  mvcc::ExpectValueAt(store, inserted, 0, after, Value::Int(9));
  EXPECT_EQ(store.Extent(cls, before).value(), oids);
  EXPECT_EQ(store.Extent(cls, after).value(),
            (std::vector<Oid>{oids[0], inserted}));
  EXPECT_EQ(store.ExtentSize(cls).value(), 2u);

  store.UnpinEpoch(before);
  EXPECT_EQ(store.Reclaim(), 3u);
  mvcc::ExpectValueAt(store, oids[0], 1, kEpochLatest, Value::Int(11));
  mvcc::ExpectValueAt(store, inserted, 1, kEpochLatest, Value::Int(9));
}

TEST(ObjectStoreVersionsTest, UnpinnedWritesStayInPlace) {
  ObjectStore store;
  const uint32_t cls = store.RegisterClass("Doc", 1);
  Oid a = store.CreateObject(cls).value();
  Oid b = store.CreateObject(cls).value();
  ASSERT_TRUE(store.SetProperty(a, 0, Value::Int(1)).ok());
  ASSERT_TRUE(store.SetProperty(a, 0, Value::Int(2)).ok());
  ASSERT_TRUE(store.DeleteObject(b).ok());
  // Bulk load: no epoch bump, no version, no history to reclaim.
  EXPECT_EQ(store.CurrentEpoch(), 0u);
  EXPECT_EQ(mvcc::Created(store), 0u);
  EXPECT_EQ(store.stats().epochs_committed.load(std::memory_order_relaxed),
            0u);
  EXPECT_EQ(store.Reclaim(), 0u);
  mvcc::ExpectValueAt(store, a, 0, 0, Value::Int(2));
  mvcc::ExpectInvisibleAt(store, b, 0);
  EXPECT_EQ(store.Extent(cls, 0).value(), std::vector<Oid>{a});
}

TEST(ObjectStoreVersionsTest, PinnedWritesVersionAndBumpTheEpoch) {
  ObjectStore store;
  const uint32_t cls = store.RegisterClass("Doc", 1);
  Oid a = store.CreateObject(cls).value();
  Oid b = store.CreateObject(cls).value();
  ASSERT_TRUE(store.SetProperty(a, 0, Value::Int(1)).ok());
  const Epoch e0 = store.PinEpoch();
  ASSERT_TRUE(store.SetProperty(a, 0, Value::Int(2)).ok());
  const Epoch e1 = store.CurrentEpoch();
  ASSERT_TRUE(store.SetProperty(a, 0, Value::Int(3)).ok());
  const Epoch e2 = store.CurrentEpoch();
  Oid c = store.CreateObject(cls).value();
  const Epoch e3 = store.CurrentEpoch();
  ASSERT_TRUE(store.DeleteObject(b).ok());
  const Epoch e4 = store.CurrentEpoch();
  EXPECT_EQ((std::vector<Epoch>{e1, e2, e3, e4}),
            (std::vector<Epoch>{e0 + 1, e0 + 2, e0 + 3, e0 + 4}));
  EXPECT_EQ(mvcc::Created(store), 4u);
  EXPECT_EQ(store.stats().epochs_committed.load(std::memory_order_relaxed),
            4u);

  mvcc::ExpectValueAt(store, a, 0, e0, Value::Int(1));
  mvcc::ExpectValueAt(store, a, 0, e1, Value::Int(2));
  mvcc::ExpectValueAt(store, a, 0, e2, Value::Int(3));
  mvcc::ExpectValueAt(store, a, 0, e4, Value::Int(3));
  mvcc::ExpectInvisibleAt(store, c, e2);
  mvcc::ExpectValueAt(store, c, 0, e3, Value::Null());
  mvcc::ExpectValueAt(store, b, 0, e3, Value::Null());
  mvcc::ExpectInvisibleAt(store, b, e4);
  const std::vector<std::vector<Oid>> extents = {
      {a, b}, {a, b}, {a, b}, {a, b, c}, {a, c}};
  const std::vector<uint64_t> sizes = {2, 2, 2, 3, 2};
  for (Epoch e = e0; e <= e4; ++e) {
    EXPECT_EQ(store.Extent(cls, e).value(), extents[e - e0]) << "at " << e;
    EXPECT_EQ(store.ExtentSize(cls, e).value(), sizes[e - e0]) << "at " << e;
  }

  store.UnpinEpoch(e0);
  // a's two superseded values and b's pre-delete version.
  EXPECT_EQ(store.Reclaim(), 3u);
  mvcc::ExpectValueAt(store, a, 0, kEpochLatest, Value::Int(3));
  EXPECT_EQ(store.Extent(cls).value(), (std::vector<Oid>{a, c}));
}

TEST(ObjectStoreVersionsTest, ErrorTextsAreStable) {
  ObjectStore store;
  const uint32_t cls = store.RegisterClass("Doc", 1);
  Oid a = store.CreateObject(cls).value();
  ASSERT_TRUE(store.DeleteObject(a).ok());
  EXPECT_EQ(store.GetProperty(Oid(1, 42), 0).status().message(),
            "get: dangling oid #1:42");
  EXPECT_EQ(store.GetProperty(Oid(1, 0), 0).status().message(),
            "get: dangling oid #1:0");
  EXPECT_EQ(store.GetProperty(a, 0).status().message(),
            "get: dangling oid #1:1");
  EXPECT_EQ(store.GetProperty(Oid(7, 1), 0).status().message(),
            "get: unknown class in oid #7:1");
  Oid b = store.CreateObject(cls).value();
  EXPECT_EQ(store.GetProperty(b, 3).status().message(),
            "get: slot 3 out of range for class 'Doc'");
  EXPECT_EQ(store.SetProperty(a, 0, Value::Int(1)).message(),
            "set: dangling oid #1:1");
  EXPECT_EQ(store.DeleteObject(a).message(), "delete: dangling oid #1:1");
  std::vector<Value> out;
  EXPECT_EQ(store.GetPropertyColumn(cls, 0, {b.local, a.local}, &out)
                .message(),
            "get: dangling oid #1:1");
  EXPECT_EQ(out.size(), 1u);  // what was read before the dangling row
  EXPECT_EQ(store
                .GetPropertyColumn(cls, 0, std::vector<Oid>{Oid(2, 1)}, 0,
                                   1, &out)
                .message(),
            "get: dangling oid #2:1");
  EXPECT_EQ(store.GetPropertyColumn(9, 0, {1}, &out).message(),
            "get: unknown class id 9");
  EXPECT_EQ(store.Extent(9).status().message(), "unknown class id 9");
  auto bad = store.Apply({Mutation::Update(b, {}), Mutation::Delete(a)});
  EXPECT_EQ(bad.status().message(), "mutation #1: delete: dangling oid #1:1");
}

// A scripted mix of every write kind, with pins opened and released in
// between. The counts are the ones the per-object version-chain layout
// produced on the same script; any layout must reproduce them.
TEST(ObjectStoreVersionsTest, VersionCountsMatchOnAScriptedSequence) {
  ObjectStore store;
  const uint32_t cls = store.RegisterClass("Doc", 2);
  std::vector<Oid> oids;
  for (int i = 0; i < 10; ++i) {
    Oid oid = store.CreateObject(cls).value();
    ASSERT_TRUE(store.SetProperty(oid, 0, Value::Int(i)).ok());
    oids.push_back(oid);
  }
  auto update_all = [&](int64_t v) {
    std::vector<Mutation> batch;
    for (Oid oid : oids) {
      if (store.Exists(oid)) {
        batch.push_back(Mutation::Update(oid, {{1, Value::Int(v)}}));
      }
    }
    ASSERT_TRUE(store.Apply(batch).ok());
  };
  std::vector<size_t> freed;
  update_all(1);                                    // 10 versions
  freed.push_back(store.Reclaim());                 // no pin: all 10
  const Epoch p1 = store.PinEpoch();
  update_all(2);                                    // 10
  ASSERT_TRUE(store.SetProperty(oids[0], 0, Value::Int(-1)).ok());  // 1
  ASSERT_TRUE(store.DeleteObject(oids[9]).ok());    // 1
  Oid extra = store.CreateObject(cls).value();      // 1
  oids.push_back(extra);
  freed.push_back(store.Reclaim());                 // pinned: 0
  const Epoch p2 = store.PinEpoch();
  ASSERT_TRUE(store
                  .Apply({Mutation::Delete(oids[1]),
                          Mutation::Update(oids[2], {{0, Value::Int(0)}}),
                          Mutation::Update(oids[2], {{1, Value::Int(0)}}),
                          Mutation::Insert(cls, {{0, Value::Int(5)}})})
                  .ok());                           // 3
  store.UnpinEpoch(p1);
  freed.push_back(store.Reclaim());                 // ended by p2: 12
  update_all(3);                                    // 9 live
  store.UnpinEpoch(p2);
  freed.push_back(store.Reclaim());                 // the rest: 11
  ASSERT_TRUE(store.SetProperty(oids[3], 1, Value::Int(7)).ok());  // 0
  ASSERT_TRUE(store.DeleteObject(oids[4]).ok());    // 0
  freed.push_back(store.Reclaim());

  EXPECT_EQ(mvcc::Created(store), 35u);
  EXPECT_EQ(freed, (std::vector<size_t>{10, 0, 12, 11, 0}));
  // Only the two inserted objects' first versions are never superseded.
  EXPECT_EQ(mvcc::Reclaimed(store), 33u);
  EXPECT_EQ(store.ExtentSize(cls).value(), 9u);
}

}  // namespace
}  // namespace vodak
