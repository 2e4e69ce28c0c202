// The compiled-execution backend's headline proof (ISSUE 9, in the
// PAPERS.md "Provably Correct Systems" spirit): a seeded randomized
// VQL corpus (tests/query_gen.h) driven through three independent
// engines — the bytecode VM (RunOptions vm=kForce), the operator tree
// (vm=kOff) and the row-mode oracle interpreter — which must agree
// exactly on every query. A second phase repeats the differential
// under concurrent Submit writer batches: every VM read records its
// pinned epoch and is replayed post-hoc through the oracle *at that
// epoch*, so a VM that ever read across a snapshot boundary cannot
// pass. Runs under TSan in CI (`scripts/ci.sh --vm`) with seeds 1/2/3
// plus one time-derived seed; any failure prints the query text and
// the seed for exact replay (--seed=N / VODAK_TEST_SEED=N).
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/vm_stats.h"
#include "engine/database.h"
#include "objstore/object_store.h"
#include "schema/catalog.h"
#include "vql/interpreter.h"

#include "query_gen.h"
#include "test_seed.h"

namespace vodak {
namespace {

constexpr int kInitialObjects = 200;
constexpr int kDiffQueries = 1000;
constexpr int kBuckets = 4;
constexpr int kWriterRounds = 40;
constexpr int kReaders = 3;
constexpr int kReaderIters = 25;

/// One VM read under concurrent writes: enough to replay it at the
/// exact snapshot it pinned.
struct VmReadRecord {
  int reader = 0;
  int iter = 0;
  std::string query;
  Epoch epoch = kEpochLatest;
  Value result;
};

class VmDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cls = catalog_.DefineClass("Item");
    ASSERT_TRUE(cls.ok());
    ASSERT_TRUE(cls.value()->AddProperty("v1", Type::Int()).ok());
    ASSERT_TRUE(cls.value()->AddProperty("v2", Type::Int()).ok());
    ASSERT_TRUE(cls.value()->AddProperty("v3", Type::Int()).ok());
    ASSERT_TRUE(cls.value()->AddProperty("bucket", Type::Int()).ok());
    class_id_ = cls.value()->class_id();
    ASSERT_EQ(store_.RegisterClass("Item", 4), class_id_);
    AddItems(0, kInitialObjects);
  }

  /// Creates Items i in [from, to) in extent order: v1 = i ascending.
  void AddItems(int from, int to) {
    for (int i = from; i < to; ++i) {
      auto oid = store_.CreateObject(class_id_);
      ASSERT_TRUE(oid.ok());
      ASSERT_TRUE(store_.SetProperty(oid.value(), 0, Value::Int(i)).ok());
      ASSERT_TRUE(
          store_.SetProperty(oid.value(), 1, Value::Int(i % 7)).ok());
      // v3 is the NULL-heavy column: every third object leaves it
      // unset, so generated predicates routinely hit NIL compares.
      if (i % 3 != 0) {
        ASSERT_TRUE(
            store_.SetProperty(oid.value(), 2, Value::Int(i / 2)).ok());
      }
      ASSERT_TRUE(
          store_.SetProperty(oid.value(), 3, Value::Int(i % kBuckets))
              .ok());
    }
  }

  /// The row-mode oracle's answer (or error) for `query` at the
  /// current epoch.
  Result<Value> Oracle(engine::Database* session, const std::string& query) {
    vql::Interpreter::Options row;
    row.row_mode = true;
    return session->RunNaive(query, row);
  }

  /// Submits one write statement; returns its outcome.
  engine::QueryOutcome Write(engine::Database* session,
                             const std::string& vql) {
    engine::QueryRequest request;
    request.vql = vql;
    return session->Submit({request})[0];
  }

  /// Runs one query through all three engines and fails (with query +
  /// seed) on any disagreement. Returns false on failure so fuzz loops
  /// can stop at the first diverging query.
  bool CheckThreeWay(engine::Database* session, const std::string& query,
                     uint64_t seed) {
    engine::PlanOptions no_opt;
    no_opt.optimize = false;

    engine::RunOptions vm_run;
    vm_run.vm = engine::VmMode::kForce;
    auto vm = session->Run(query, no_opt, vm_run);
    EXPECT_TRUE(vm.ok()) << "vm: " << vm.status().ToString()
                         << "\n  query: " << query << "\n  seed: " << seed;
    if (!vm.ok()) return false;

    engine::RunOptions tree_run;
    tree_run.vm = engine::VmMode::kOff;
    auto tree = session->Run(query, no_opt, tree_run);
    EXPECT_TRUE(tree.ok()) << "tree: " << tree.status().ToString()
                           << "\n  query: " << query
                           << "\n  seed: " << seed;
    if (!tree.ok()) return false;

    vql::Interpreter::Options row;
    row.row_mode = true;
    auto oracle = session->RunNaive(query, row);
    EXPECT_TRUE(oracle.ok()) << "oracle: " << oracle.status().ToString()
                             << "\n  query: " << query
                             << "\n  seed: " << seed;
    if (!oracle.ok()) return false;

    const bool vm_tree = vm.value().result == tree.value().result;
    const bool tree_oracle = tree.value().result == oracle.value();
    EXPECT_TRUE(vm_tree && tree_oracle)
        << "three-way divergence (vm==tree: " << vm_tree
        << ", tree==oracle: " << tree_oracle << ")"
        << "\n  query: " << query << "\n  seed: " << seed
        << "\n  vm:     " << vm.value().result.ToString()
        << "\n  tree:   " << tree.value().result.ToString()
        << "\n  oracle: " << oracle.value().ToString();
    return vm_tree && tree_oracle;
  }

  Catalog catalog_;
  ObjectStore store_;
  MethodRegistry methods_;
  uint32_t class_id_ = 0;
};

// Phase 1: the static corpus — kDiffQueries generated queries, each
// executed through VM, operator tree and row-mode oracle.
TEST_F(VmDiffTest, ThreeWayDifferentialFuzz) {
  const uint64_t seed = testing::TestSeed();
  engine::Database session(&catalog_, &store_, &methods_);
  testing::QueryGenerator gen(seed);
  const uint64_t compiled_before =
      VmStats::vm_compiled.load(std::memory_order_relaxed);
  for (int q = 0; q < kDiffQueries; ++q) {
    if (!CheckThreeWay(&session, gen.NextQuery(), seed)) return;
  }
  // The generator must keep the VM honest: the bulk of the corpus has
  // to actually compile (a fallback-everything run would "agree"
  // trivially, tree vs tree).
  const uint64_t compiled =
      VmStats::vm_compiled.load(std::memory_order_relaxed) -
      compiled_before;
  EXPECT_GT(compiled, static_cast<uint64_t>(kDiffQueries) / 2)
      << "generated corpus mostly fell back to the operator tree; "
         "seed: "
      << seed;
}

// Phase 2: the same differential under concurrent Submit writer
// batches. Readers run VM-forced queries and record the epoch each
// pinned; after the threads join, every record replays serially
// through the row-mode oracle at its recorded epoch and must match.
TEST_F(VmDiffTest, VmAgreesWithOracleUnderConcurrentWrites) {
  const uint64_t seed = testing::TestSeed() + 29;
  engine::Database writer_session(&catalog_, &store_, &methods_);

  std::vector<std::vector<VmReadRecord>> records(kReaders);
  {
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      std::mt19937_64 rng(seed);
      auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
      for (int round = 0; round < kWriterRounds; ++round) {
        engine::QueryRequest request;
        const int x = pick(100000);
        const int bucket = pick(kBuckets);
        switch (pick(3)) {
          case 0:
            request.vql = "UPDATE Item SET v1 = " + std::to_string(x) +
                          ", v3 = " + std::to_string(x) +
                          " WHERE self.bucket == " +
                          std::to_string(bucket);
            break;
          case 1:
            request.vql = "INSERT INTO Item SET v1 = " +
                          std::to_string(x) + ", v2 = " +
                          std::to_string(x % 7) + ", bucket = " +
                          std::to_string(bucket);
            break;
          default:
            // Partial delete: one residue class of one bucket, so the
            // extent churns without emptying.
            request.vql = "DELETE FROM Item WHERE self.bucket == " +
                          std::to_string(bucket) +
                          " AND self.v1 / 13 * 13 == self.v1";
            break;
        }
        auto outcomes = writer_session.Submit({request});
        ASSERT_TRUE(outcomes[0].status.ok())
            << outcomes[0].status.ToString();
      }
    });
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        engine::Database session(&catalog_, &store_, &methods_);
        testing::QueryGenerator gen(seed * 1315423911u + r + 1);
        engine::PlanOptions no_opt;
        no_opt.optimize = false;
        engine::RunOptions vm_run;
        vm_run.vm = engine::VmMode::kForce;
        for (int iter = 0; iter < kReaderIters; ++iter) {
          const std::string query = gen.NextQuery();
          auto result = session.Run(query, no_opt, vm_run);
          ASSERT_TRUE(result.ok())
              << result.status().ToString() << "\n  query: " << query
              << "\n  seed: " << seed;
          records[r].push_back({r, iter, query,
                                result.value().snapshot_epoch,
                                result.value().result});
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  // Serial oracle replay at each recorded epoch: the row-mode
  // interpreter shares no VM, batching or selection-vector code.
  engine::Database oracle_session(&catalog_, &store_, &methods_);
  size_t replayed = 0;
  for (int r = 0; r < kReaders; ++r) {
    for (const VmReadRecord& record : records[r]) {
      vql::Interpreter::Options replay;
      replay.row_mode = true;
      replay.snapshot_epoch = record.epoch;
      auto oracle = oracle_session.RunNaive(record.query, replay);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      ++replayed;
      ASSERT_EQ(record.result, oracle.value())
          << "VM reader " << record.reader << " iter " << record.iter
          << " diverged from the oracle at epoch " << record.epoch
          << "\n  query: " << record.query << "\n  seed: " << seed;
    }
  }
  EXPECT_EQ(replayed, static_cast<size_t>(kReaders * kReaderIters));
}

// Phase 3: the write path's predicate expansion. UPDATE and DELETE
// evaluate WHERE in batches of extent rows and SET over each batch's
// survivors; the objects a statement touches must be exactly the rows
// the row-mode oracle's `ACCESS self FROM self IN Item WHERE <pred>`
// returns, over a corpus that spans several batches, and an error must
// be the one the row-at-a-time order meets first.
TEST_F(VmDiffTest, WriteExpansionTouchesExactlyTheOracleRows) {
  constexpr int kCorpus = 2300;  // two full write batches and a partial
  constexpr int kRounds = 60;
  constexpr int64_t kMark = 1000;  // v2 is a residue below 7
  AddItems(kInitialObjects, kCorpus);
  const uint64_t seed = testing::TestSeed() + 53;
  engine::Database session(&catalog_, &store_, &methods_);
  testing::QueryGenerator gen(seed, "self");
  const std::string marked =
      "ACCESS self FROM self IN Item WHERE self.v2 >= " +
      std::to_string(kMark);

  // Errors. In the second batch of rows the WHERE divides by zero at
  // v1 == 1900, and the SET adds to the NULL-heavy v3 on earlier
  // survivors: a whole-batch WHERE meets the division first, the
  // row-at-a-time order meets the NULL addition first. Nothing commits.
  const std::string failing =
      "self.v1 >= 1030 AND (self.v1 - 1900) / (self.v1 - 1900) == 1";
  const Epoch epoch = store_.CurrentEpoch();
  auto row_order = Oracle(&session, "ACCESS self.v2 + self.v3 FROM self IN "
                                    "Item WHERE " + failing);
  ASSERT_FALSE(row_order.ok()) << row_order.value().ToString().substr(0, 300);
  auto update = Write(&session, "UPDATE Item SET v3 = self.v2 + self.v3 "
                                "WHERE " + failing);
  ASSERT_FALSE(update.status.ok());
  EXPECT_EQ(update.status.ToString(), row_order.status().ToString());
  EXPECT_NE(update.status.message().find("arithmetic +"), std::string::npos)
      << update.status.ToString();
  auto where_only = Oracle(&session, "ACCESS self FROM self IN Item WHERE " +
                                         failing);
  ASSERT_FALSE(where_only.ok());
  auto del = Write(&session, "DELETE FROM Item WHERE " + failing);
  ASSERT_FALSE(del.status.ok());
  EXPECT_EQ(del.status.ToString(), where_only.status().ToString());
  EXPECT_EQ(store_.CurrentEpoch(), epoch);


  for (int round = 0; round < kRounds; ++round) {
    const std::string pred = gen.NextCondition();
    auto oracle = Oracle(&session, "ACCESS self FROM self IN Item WHERE " +
                                       pred);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    const size_t expected = oracle.value().AsSet().size();
    const std::string context =
        "\n  predicate: " + pred + "\n  seed: " + std::to_string(seed);

    if (round % 10 == 9) {
      // DELETE: the extent loses exactly the oracle's rows.
      auto before = store_.Extent(class_id_);
      ASSERT_TRUE(before.ok());
      auto out = Write(&session, "DELETE FROM Item WHERE " + pred);
      ASSERT_TRUE(out.status.ok()) << out.status.ToString() << context;
      EXPECT_EQ(out.result.result, Value::Int(static_cast<int64_t>(expected)))
          << context;
      auto after = store_.Extent(class_id_);
      ASSERT_TRUE(after.ok());
      std::vector<Value> gone;
      size_t kept = 0;
      for (Oid oid : before.value()) {
        if (kept < after.value().size() && after.value()[kept] == oid) {
          ++kept;
        } else {
          gone.push_back(Value::OfOid(oid));
        }
      }
      EXPECT_EQ(Value::Set(std::move(gone)), oracle.value()) << context;
      continue;
    }

    // UPDATE: mark the touched rows, read the marks back, then clear
    // them so the corpus stays the generator's for the next round.
    auto out = Write(&session, "UPDATE Item SET v2 = self.v2 + " +
                                   std::to_string(kMark) + " WHERE " + pred);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString() << context;
    EXPECT_EQ(out.result.result, Value::Int(static_cast<int64_t>(expected)))
        << context;
    auto touched = Oracle(&session, marked);
    ASSERT_TRUE(touched.ok()) << touched.status().ToString();
    EXPECT_EQ(touched.value(), oracle.value()) << context;
    out = Write(&session, "UPDATE Item SET v2 = self.v2 - " +
                              std::to_string(kMark) +
                              " WHERE self.v2 >= " + std::to_string(kMark));
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  }
}

}  // namespace
}  // namespace vodak

int main(int argc, char** argv) {
  return vodak::testing::RunAllTestsWithSeed(argc, argv,
                                             /*fallback=*/20260809);
}
