// Shared scans: K concurrent queries attached to one scan must each
// produce exactly the result they produce alone — against the row-mode
// interpreter oracle AND the private-scan baseline — while the store
// pays ~1 extent pass and ~1 property-column read per source instead
// of K. Plus unit tests for the fan-out protocol (every attached
// consumer sees every morsel exactly once, late attachers circle back
// for what they missed), the materialize-once slots, the cross-query
// property-column cache, and the ResolveThreads(0) convention. Swept
// under TSan by scripts/ci.sh --tsan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/translate.h"
#include "engine/database.h"
#include "exec/parallel.h"
#include "exec/physical.h"
#include "exec/shared_scan.h"
#include "exec/worker_pool.h"
#include "objstore/property_cache.h"
#include "vql/interpreter.h"
#include "vql/parser.h"
#include "workload/document_db.h"

#include "page_file.h"

namespace vodak {
namespace exec {
namespace {

class ExecSharedScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Init().ok());
    workload::CorpusParams params;
    params.num_documents = 9;
    params.sections_per_document = 2;
    params.paragraphs_per_section = 3;
    params.implementation_fraction = 0.3;
    ASSERT_TRUE(db_.Populate(params).ok());
    ctx_ = std::make_unique<algebra::AlgebraContext>(&db_.catalog());
    exec_ctx_ = ExecContext{&db_.catalog(), &db_.store(), &db_.methods()};
    paragraph_class_ =
        db_.catalog().FindClass("Paragraph")->class_id();
  }

  ConcurrentQuery MakeQuery(const std::string& text) {
    auto q = vql::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << text;
    vql::Binder binder(&db_.catalog());
    auto bound = binder.Bind(q.value());
    EXPECT_TRUE(bound.ok()) << text << ": " << bound.status().ToString();
    auto plan = algebra::TranslateQuery(*ctx_, bound.value());
    EXPECT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
    ConcurrentQuery query;
    query.plan = plan.value();
    query.result_ref = algebra::ResultRef(bound.value());
    return query;
  }

  /// The independent oracle: the row-mode interpreter (no batched
  /// evaluation, no shared scans, no property cache).
  Value RowModeOracle(const std::string& text) {
    auto q = vql::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << text;
    vql::Binder binder(&db_.catalog());
    auto bound = binder.Bind(q.value());
    EXPECT_TRUE(bound.ok()) << text;
    vql::Interpreter interpreter(&db_.catalog(), &db_.store(),
                                 &db_.methods());
    vql::Interpreter::Options row_mode;
    row_mode.row_mode = true;
    auto result = interpreter.Run(bound.value(), row_mode);
    EXPECT_TRUE(result.ok()) << text << ": "
                             << result.status().ToString();
    return result.ok() ? result.value() : Value::Null();
  }

  /// Runs `texts` concurrently in both pipeline modes and checks every
  /// query against the row-mode oracle and the private-scan baseline.
  void CheckConcurrent(const std::vector<std::string>& texts,
                       size_t threads, size_t morsel_size) {
    std::vector<ConcurrentQuery> queries;
    queries.reserve(texts.size());
    for (const std::string& text : texts) {
      queries.push_back(MakeQuery(text));
    }
    ConcurrentOptions shared;
    shared.threads = threads;
    shared.morsel_size = morsel_size;
    ConcurrentOptions priv = shared;
    priv.shared_scan = false;
    auto shared_results =
        ExecuteConcurrentColumns(queries, exec_ctx_, shared);
    ASSERT_TRUE(shared_results.ok()) << shared_results.status().ToString();
    auto private_results =
        ExecuteConcurrentColumns(queries, exec_ctx_, priv);
    ASSERT_TRUE(private_results.ok())
        << private_results.status().ToString();
    for (size_t i = 0; i < texts.size(); ++i) {
      Value oracle = RowModeOracle(texts[i]);
      EXPECT_EQ(oracle, shared_results.value()[i])
          << texts[i] << " (shared scan, K=" << texts.size()
          << ", threads=" << threads << ")";
      EXPECT_EQ(oracle, private_results.value()[i])
          << texts[i] << " (private baseline, K=" << texts.size() << ")";
    }
  }

  workload::DocumentDb db_;
  std::unique_ptr<algebra::AlgebraContext> ctx_;
  ExecContext exec_ctx_;
  uint32_t paragraph_class_ = 0;
};

// ----------------------------------------------------- fan-out protocol

TEST_F(ExecSharedScanTest, EveryConsumerSeesEveryMorselExactlyOnce) {
  // 54 paragraphs at morsel size 8 -> 7 morsels (the last one short).
  SharedScanManager manager(&db_.store(), /*morsel_size=*/8);
  auto c1 = manager.AttachExtent(paragraph_class_);
  ASSERT_TRUE(c1.ok()) << c1.status().ToString();
  const size_t total = c1.value().scan().total();
  ASSERT_EQ(total, 54u);
  ASSERT_EQ(c1.value().scan().morsel_count(), 7u);

  auto coverage_of = [&](std::vector<Morsel> claims) {
    std::vector<int> covered(total, 0);
    for (const Morsel& m : claims) {
      for (size_t i = m.begin; i < m.end; ++i) ++covered[i];
    }
    return covered;
  };

  // c1 claims two morsels, then c2 attaches late: it must start at the
  // scan's current position (the ring clock) and circle back for the
  // prefix it missed.
  std::vector<Morsel> c1_claims;
  Morsel m;
  ASSERT_TRUE(c1.value().Next(&m));
  c1_claims.push_back(m);
  ASSERT_TRUE(c1.value().Next(&m));
  c1_claims.push_back(m);
  EXPECT_EQ(c1_claims[0].begin, 0u);
  EXPECT_EQ(c1_claims[1].begin, 8u);

  auto c2 = manager.AttachExtent(paragraph_class_);
  ASSERT_TRUE(c2.ok());
  std::vector<Morsel> c2_claims;
  ASSERT_TRUE(c2.value().Next(&m));
  c2_claims.push_back(m);
  EXPECT_EQ(m.begin, 16u) << "late attacher must join mid-scan, not at 0";

  while (c1.value().Next(&m)) c1_claims.push_back(m);
  while (c2.value().Next(&m)) c2_claims.push_back(m);
  for (int c : coverage_of(c1_claims)) EXPECT_EQ(c, 1);
  for (int c : coverage_of(c2_claims)) EXPECT_EQ(c, 1);
  // Drained consumers stay drained.
  EXPECT_FALSE(c1.value().Next(&m));
}

TEST_F(ExecSharedScanTest, ExtentMaterializesOncePerManager) {
  db_.ResetCounters();
  SharedScanManager manager(&db_.store());
  ASSERT_TRUE(manager.AttachExtent(paragraph_class_).ok());
  ASSERT_TRUE(manager.AttachExtent(paragraph_class_).ok());
  auto extent = manager.SharedExtent(paragraph_class_);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent.value()->size(), 54u);
  EXPECT_EQ(db_.store().stats().extent_scans.load(), 1u);
  EXPECT_EQ(manager.materialized_scans(), 1u);
}

TEST_F(ExecSharedScanTest, SourceMaterializesOncePerManager) {
  SharedScanManager manager(&db_.store(), /*morsel_size=*/4);
  std::atomic<int> evals{0};
  auto materialize = [&]() -> Result<Value> {
    evals.fetch_add(1);
    return Value::Set({Value::Int(1), Value::Int(2), Value::Int(3),
                       Value::Int(4), Value::Int(5)});
  };
  auto c1 = manager.AttachSource("five-ints", materialize);
  auto c2 = manager.AttachSource("five-ints", materialize);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(evals.load(), 1);
  for (auto* c : {&c1.value(), &c2.value()}) {
    std::vector<int> covered(5, 0);
    Morsel m;
    while (c->Next(&m)) {
      for (size_t i = m.begin; i < m.end; ++i) ++covered[i];
    }
    for (int cov : covered) EXPECT_EQ(cov, 1);
  }
}

// ------------------------------------------------ property-column cache

TEST_F(ExecSharedScanTest, PropertyCacheFillsOnceThenServesFromSnapshot) {
  const ClassDef* cls = db_.catalog().FindClass("Paragraph");
  const PropertyDef* number = cls->FindProperty("number");
  ASSERT_NE(number, nullptr);
  auto extent = db_.store().Extent(paragraph_class_);
  ASSERT_TRUE(extent.ok());
  std::vector<uint32_t> locals;
  for (const Oid& oid : extent.value()) locals.push_back(oid.local);

  db_.ResetCounters();
  PropertyColumnCache cache(&db_.store());
  cache.SeedExtent(paragraph_class_, kEpochLatest,
                   std::make_shared<const std::vector<Oid>>(extent.value()));
  std::vector<Value> first;
  ASSERT_TRUE(cache.ReadColumn(paragraph_class_, number->slot, locals, 0,
                               locals.size(), &first)
                  .ok());
  std::vector<Value> second;
  ASSERT_TRUE(cache.ReadColumn(paragraph_class_, number->slot, locals, 0,
                               locals.size(), &second)
                  .ok());
  // One full-column store read serves both passes.
  EXPECT_EQ(db_.store().stats().property_reads.load(), locals.size());
  EXPECT_EQ(cache.fill_count(), 1u);
  EXPECT_EQ(cache.hit_rows(), 2 * locals.size());
  ASSERT_EQ(first.size(), locals.size());
  for (size_t i = 0; i < locals.size(); ++i) {
    auto direct = db_.store().GetProperty(extent.value()[i], number->slot);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(first[i], direct.value()) << "row " << i;
    EXPECT_EQ(second[i], direct.value()) << "row " << i;
  }
}

TEST_F(ExecSharedScanTest, PropertyCacheFallsBackOutsideTheSnapshot) {
  const PropertyDef* number =
      db_.catalog().FindClass("Paragraph")->FindProperty("number");
  PropertyColumnCache cache(&db_.store());
  auto extent = db_.store().Extent(paragraph_class_);
  ASSERT_TRUE(extent.ok());
  std::vector<uint32_t> all_locals;
  for (const Oid& oid : extent.value()) all_locals.push_back(oid.local);
  cache.SeedExtent(
      paragraph_class_, kEpochLatest,
      std::make_shared<const std::vector<Oid>>(extent.value()));
  std::vector<uint32_t> warm = {all_locals.front()};
  std::vector<Value> out;
  ASSERT_TRUE(cache.ReadColumn(paragraph_class_, number->slot, warm, 0, 1,
                               &out)
                  .ok());
  // An object created after the fill is outside the snapshot: the
  // cache must read through, not hand back stale absence.
  auto fresh = db_.store().CreateObject(paragraph_class_);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(db_.store()
                  .SetProperty(fresh.value(), number->slot, Value::Int(77))
                  .ok());
  std::vector<uint32_t> cold = {fresh.value().local};
  out.clear();
  ASSERT_TRUE(cache.ReadColumn(paragraph_class_, number->slot, cold, 0, 1,
                               &out)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Value::Int(77));
  EXPECT_GE(cache.fallback_rows(), 1u);
}

TEST_F(ExecSharedScanTest, PropertyCacheReadsThroughForUnseededClasses) {
  // A class the shared scan never materialized (no SeedExtent) must
  // not be cached: a full-column fill would cost an extent pass plus
  // an extent-sized read the private baseline never pays. The read
  // goes straight to the store instead.
  const PropertyDef* number =
      db_.catalog().FindClass("Section")->FindProperty("number");
  const uint32_t section_class =
      db_.catalog().FindClass("Section")->class_id();
  auto extent = db_.store().Extent(section_class);
  ASSERT_TRUE(extent.ok());
  std::vector<uint32_t> one = {extent.value().front().local};

  PropertyColumnCache cache(&db_.store());
  db_.ResetCounters();
  std::vector<Value> out;
  ASSERT_TRUE(
      cache.ReadColumn(section_class, number->slot, one, 0, 1, &out).ok());
  EXPECT_EQ(db_.store().stats().property_reads.load(), 1u);
  EXPECT_EQ(db_.store().stats().extent_scans.load(), 0u);
  EXPECT_EQ(cache.fill_count(), 0u);
  EXPECT_EQ(cache.fallback_rows(), 1u);
}

// -------------------------------------------- concurrent query parity

TEST_F(ExecSharedScanTest, ConcurrentQueriesMatchOracleAndBaseline) {
  // Mixed shapes: stored-property filters, method predicates, a hash
  // join across two extents, flatten + dependent range, projects.
  const std::vector<std::string> pool = {
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 1",
      "ACCESS p.number FROM p IN Paragraph",
      "ACCESS s FROM s IN Section WHERE s.number == 1",
      "ACCESS p FROM s IN Section, p IN Paragraph WHERE p.section == s",
      "ACCESS d.title FROM d IN Document, p IN d->paragraphs() WHERE "
      "p->contains_string('implementation')",
      "ACCESS p FROM p IN Paragraph WHERE "
      "p->contains_string('implementation')",
      "ACCESS d.title FROM d IN Document",
      "ACCESS p FROM p IN Paragraph, q IN Paragraph WHERE "
      "p->sameDocument(q) AND p.number == 0 AND q.number > 0",
  };
  for (size_t k : {1u, 2u, 8u}) {
    std::vector<std::string> texts;
    for (size_t i = 0; i < k; ++i) texts.push_back(pool[i % pool.size()]);
    SCOPED_TRACE("K=" + std::to_string(k));
    CheckConcurrent(texts, /*threads=*/4, /*morsel_size=*/8);
  }
}

TEST_F(ExecSharedScanTest, SingleLaneBatchIsTheLateAttachCase) {
  // threads=1 serializes the K drains on the caller lane: query i+1
  // attaches only after query i fully drained the ring, so every
  // consumer past the first is a late attacher that wraps the whole
  // ring. Results and the single scan pass must be unaffected.
  const std::vector<std::string> texts(
      4, "ACCESS p FROM p IN Paragraph WHERE p.number >= 1");
  db_.ResetCounters();
  std::vector<ConcurrentQuery> queries;
  for (const std::string& text : texts) queries.push_back(MakeQuery(text));
  ConcurrentOptions options;
  options.threads = 1;
  options.morsel_size = 8;
  auto results = ExecuteConcurrentColumns(queries, exec_ctx_, options);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_EQ(db_.store().stats().extent_scans.load(), 1u);
  Value oracle = RowModeOracle(texts[0]);
  for (const Value& result : results.value()) EXPECT_EQ(oracle, result);
}

TEST_F(ExecSharedScanTest, SharingDropsScanAndPropertyReadsToOnePass) {
  // Eight property-predicate queries over the same extent: the shared
  // batch must pay ONE extent pass and ONE p.number column read where
  // the independent baseline pays eight of each.
  const std::vector<std::string> texts = {
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 1",
      "ACCESS p FROM p IN Paragraph WHERE p.number == 0",
      "ACCESS p FROM p IN Paragraph WHERE p.number <= 2",
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 2",
      "ACCESS p FROM p IN Paragraph WHERE p.number == 1",
      "ACCESS p FROM p IN Paragraph WHERE p.number == 2",
      "ACCESS p.number FROM p IN Paragraph",
      "ACCESS p FROM p IN Paragraph WHERE p.number > 0",
  };
  std::vector<ConcurrentQuery> queries;
  for (const std::string& text : texts) queries.push_back(MakeQuery(text));
  const uint64_t extent_size = 54;

  ConcurrentOptions options;
  options.threads = 4;
  options.morsel_size = 8;
  db_.ResetCounters();
  auto shared_results = ExecuteConcurrentColumns(queries, exec_ctx_, options);
  ASSERT_TRUE(shared_results.ok());
  const uint64_t shared_scans = db_.store().stats().extent_scans.load();
  const uint64_t shared_reads = db_.store().stats().property_reads.load();

  options.shared_scan = false;
  db_.ResetCounters();
  auto private_results =
      ExecuteConcurrentColumns(queries, exec_ctx_, options);
  ASSERT_TRUE(private_results.ok());
  const uint64_t private_scans = db_.store().stats().extent_scans.load();
  const uint64_t private_reads = db_.store().stats().property_reads.load();

  EXPECT_EQ(shared_scans, 1u);
  EXPECT_EQ(private_scans, texts.size());
  EXPECT_EQ(shared_reads, extent_size);
  EXPECT_EQ(private_reads, texts.size() * extent_size);
  for (size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(shared_results.value()[i], private_results.value()[i])
        << texts[i];
  }
}

TEST_F(ExecSharedScanTest, MethodScanMaterializesOnceForTheBatch) {
  // Four queries whose driving leaf is the same external method scan:
  // shared mode must dispatch retrieve_by_string once for the batch.
  auto source = ctx_->ExprSource(
      "p",
      vql::ParseExpr("Paragraph->retrieve_by_string('implementation')")
          .value());
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ConcurrentQuery query;
  query.plan = source.value();
  query.result_ref = "p";
  std::vector<ConcurrentQuery> queries(4, query);

  ConcurrentOptions options;
  options.threads = 4;
  options.morsel_size = 4;
  db_.ResetCounters();
  auto shared_results = ExecuteConcurrentColumns(queries, exec_ctx_, options);
  ASSERT_TRUE(shared_results.ok());
  EXPECT_EQ(db_.methods().invocation_count("Paragraph",
                                           "retrieve_by_string",
                                           MethodLevel::kClassObject),
            1u);

  options.shared_scan = false;
  db_.ResetCounters();
  auto private_results =
      ExecuteConcurrentColumns(queries, exec_ctx_, options);
  ASSERT_TRUE(private_results.ok());
  EXPECT_EQ(db_.methods().invocation_count("Paragraph",
                                           "retrieve_by_string",
                                           MethodLevel::kClassObject),
            4u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(shared_results.value()[i], private_results.value()[i]);
  }
}

// ------------------------------------------------ engine + interpreter

TEST_F(ExecSharedScanTest, EngineRunConcurrentMatchesRunAndNaive) {
  engine::Database session(&db_.catalog(), &db_.store(), &db_.methods());
  const std::vector<std::string> texts = {
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 1",
      "ACCESS d.title FROM d IN Document",
      "ACCESS s FROM s IN Section WHERE s.number == 1",
  };
  engine::PlanOptions plan;
  plan.optimize = false;
  engine::SubmitOptions options;
  options.lanes = 4;
  auto batch = session.RunConcurrent(texts, options, plan);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().size(), texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    auto alone = session.Run(texts[i], plan);
    ASSERT_TRUE(alone.ok()) << texts[i];
    EXPECT_EQ(alone.value().result, batch.value()[i].result) << texts[i];
    auto naive = session.RunNaive(texts[i]);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(naive.value(), batch.value()[i].result) << texts[i];
  }

  // The baseline flag runs the same batch over private cursors.
  options.shared_scan = false;
  auto baseline = session.RunConcurrent(texts, options, plan);
  ASSERT_TRUE(baseline.ok());
  for (size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(batch.value()[i].result, baseline.value()[i].result);
  }

  // The row-mode interpreter, run as a concurrent batch over one
  // shared extent pass, agrees query by query.
  vql::Interpreter::Options row_mode;
  row_mode.row_mode = true;
  auto oracle = session.RunNaiveConcurrent(texts, row_mode);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  for (size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(batch.value()[i].result, oracle.value()[i]) << texts[i];
  }

  // An empty batch is a no-op, not a pool spawn.
  auto empty = session.RunConcurrent({}, options, plan);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST_F(ExecSharedScanTest, NaiveConcurrentSharesTheExtentPass) {
  engine::Database session(&db_.catalog(), &db_.store(), &db_.methods());
  const std::vector<std::string> texts = {
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 1",
      "ACCESS p FROM p IN Paragraph WHERE p.number == 0",
      "ACCESS p.number FROM p IN Paragraph",
  };
  db_.ResetCounters();
  auto batch = session.RunNaiveConcurrent(texts);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(db_.store().stats().extent_scans.load(), 1u);
  for (size_t i = 0; i < texts.size(); ++i) {
    auto alone = session.RunNaive(texts[i]);
    ASSERT_TRUE(alone.ok());
    EXPECT_EQ(alone.value(), batch.value()[i]) << texts[i];
  }

  // row_mode (the oracle) composes with the shared extent pass.
  vql::Interpreter::Options row_mode;
  row_mode.row_mode = true;
  auto oracle_batch = session.RunNaiveConcurrent(texts, row_mode);
  ASSERT_TRUE(oracle_batch.ok());
  for (size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(batch.value()[i], oracle_batch.value()[i]) << texts[i];
  }
}

// ------------------------------------------------ dedup elision

/// Drains one batch of `root` and appends every live value of column
/// `col` to `out`, duplicates included (ExecuteColumn would fold them
/// away). False at end of stream.
bool DrainOneBatch(PhysOperator* root, int col, std::vector<Value>* out) {
  RowBatch batch;
  auto more = root->NextBatch(&batch);
  EXPECT_TRUE(more.ok()) << more.status().ToString();
  if (!more.ok() || !more.value()) return false;
  for (size_t i = 0; i < batch.active_rows(); ++i) {
    out->push_back(batch.column(col)[batch.RowAt(i)]);
  }
  return true;
}

TEST_F(ExecSharedScanTest, ElidedProjectDedupMatchesOracleWithLateAttachers) {
  // A projection that keeps the scan variable skips its dedup, so the
  // leaves' exactly-once delivery is all that keeps the rows distinct:
  // a leaf that repeated an OID would now reach the caller as a
  // duplicate row. The drains are staggered, so every query after the
  // first attaches to the shared ring mid-scan and wraps around.
  const ClassDef* paragraph = db_.catalog().FindClass("Paragraph");
  uint32_t slots = 0;
  for (const char* prop : {"number", "section"}) {
    slots = std::max(slots, paragraph->FindProperty(prop)->slot + 1);
  }
  storage::PagerOptions pager;
  pager.cache_pages = 4;
  const std::string page_path = testing::PrivatePagePath("shared_elide");
  auto segments = storage::SegmentStore::Open(page_path, pager);
  ASSERT_TRUE(segments.ok()) << segments.status().ToString();
  storage::IngestOptions ingest;
  ingest.rows_per_segment = 16;
  ASSERT_TRUE(segments.value()
                  ->IngestClass(db_.store(), paragraph_class_, slots,
                                db_.store().CurrentEpoch(), ingest)
                  .ok());

  const std::vector<std::string> texts = {
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 1",
      "ACCESS p FROM p IN Paragraph",
      "ACCESS p FROM p IN Paragraph WHERE p.number == 0",
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 1",
  };
  for (bool segment_leaves : {false, true}) {
    for (bool shared : {false, true}) {
      SCOPED_TRACE(std::string(segment_leaves ? "segment" : "extent") +
                   (shared ? " leaves, shared ring" : " leaves, private"));
      ExecContext ctx = exec_ctx_;
      ctx.segments = segment_leaves ? segments.value().get() : nullptr;
      SharedScanManager manager(&db_.store(), /*morsel_size=*/8,
                                kEpochLatest, ctx.segments);
      if (shared) {
        ctx.shared_scans = &manager;
        ctx.property_cache = manager.property_cache();
      }
      std::vector<PhysOpPtr> roots;
      std::vector<int> cols;
      for (const std::string& text : texts) {
        const ConcurrentQuery query = MakeQuery(text);
        auto root = BuildPhysical(query.plan, ctx);
        ASSERT_TRUE(root.ok()) << root.status().ToString();
        const std::string explain = ExplainPhysical(*root.value());
        EXPECT_NE(explain.find("[dedup: elided, key p]"), std::string::npos)
            << explain;
        EXPECT_NE(explain.find(shared           ? "SharedScan"
                               : segment_leaves ? "SegmentScan"
                                                : "ExtentScan"),
                  std::string::npos)
            << explain;
        cols.push_back(root.value()->RefIndex(query.result_ref));
        roots.push_back(std::move(root.value()));
      }
      // Staggered opens: query i attaches after query i-1 took a batch.
      std::vector<std::vector<Value>> got(texts.size());
      std::vector<bool> done(texts.size(), false);
      for (size_t i = 0; i < texts.size(); ++i) {
        ASSERT_TRUE(roots[i]->Open().ok());
        done[i] = !DrainOneBatch(roots[i].get(), cols[i], &got[i]);
      }
      for (bool progressed = true; progressed;) {
        progressed = false;
        for (size_t i = 0; i < texts.size(); ++i) {
          if (done[i]) continue;
          done[i] = !DrainOneBatch(roots[i].get(), cols[i], &got[i]);
          progressed = progressed || !done[i];
        }
      }
      for (const PhysOpPtr& root : roots) root->Close();
      if (shared) {
        EXPECT_EQ(manager.consumers_attached(), texts.size());
        EXPECT_EQ(manager.materialized_scans(), 1u);
        // The unfiltered query joined mid-ring: its first row is not
        // the extent's first.
        ASSERT_FALSE(got[1].empty());
        EXPECT_NE(got[1].front(), RowModeOracle(texts[1]).AsSet().front());
      }
      for (size_t i = 0; i < texts.size(); ++i) {
        const Value oracle = RowModeOracle(texts[i]);
        EXPECT_EQ(got[i].size(), oracle.AsSet().size())
            << texts[i] << ": a leaf delivered some row twice";
        EXPECT_EQ(Value::Set(got[i]), oracle) << texts[i];
      }
    }
  }
  segments.value().reset();
  std::remove(page_path.c_str());
}

// ------------------------------------------------- thread resolution

TEST(ResolveThreadsTest, ZeroResolvesThroughTheSingleHelper) {
  // The one shared convention (bugfix: no per-call-site
  // hardware_concurrency guards): 0 -> hardware concurrency, itself
  // guarded to at least 1, everywhere — including the pool itself.
  EXPECT_GE(ResolveThreads(0), 1u);
  EXPECT_EQ(ResolveThreads(3), 3u);
  WorkerPool pool(0);
  EXPECT_EQ(pool.parallelism(), ResolveThreads(0));
}

}  // namespace
}  // namespace exec
}  // namespace vodak
