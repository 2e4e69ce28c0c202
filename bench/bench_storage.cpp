// Experiment X14: paged columnar storage — zone-map segment skipping
// under a deliberately small buffer cache. The paragraph corpus
// ingests into ~64k-row column segments behind the Pager (cache far
// below the data size, so the replacement policy is live), then a
// selective scan — a contiguous section-oid range that zone maps can
// refute segment by segment — re-runs in a loop against the
// segment-backed leaf, the in-memory extent baseline, and a row-mode
// oracle recomputed directly off the store.
//
// Wall clock alone is not the gate (CI is 1-core and noisy); the bench
// records the deterministic counters and *fails itself* when the
// structural claims do not hold on this run:
//   - every sampled query agrees exactly with the extent baseline and
//     the row-mode oracle (Value::Set equality, not counts),
//   - the selective loop skips segments (segments_skipped > 0) while
//     scanning only the survivors,
//   - the re-scan loop hits the buffer cache more than it misses
//     (cache_hits > cache_misses: survivors stay resident), and
//   - the full pass evicts (the cache really is smaller than the data).
// scripts/ci.sh --storage re-checks the counter claims out of
// BENCH_storage.json.
//
// Flags: --docs=N        corpus size in documents (default 834000 ->
//                        10,008,000 paragraphs, 3 sections x 4
//                        paragraphs; CI runs a smaller corpus)
//        --reps=N        selective re-scan repetitions (default 8)
//        --queries=N     sampled correctness queries (default 5)
//        --cache-pages=N pager buffer-cache budget (default 64)
//        --rows-per-segment=N column-segment row count (default 65536;
//                        CI shrinks it so a small corpus still spans
//                        many segments)
//        --json=PATH     machine-readable results (BENCH_storage.json)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "algebra/translate.h"
#include "bench_util.h"
#include "exec/physical.h"
#include "storage/segment_store.h"

namespace {

using namespace vodak;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// One timed batch drain of `root`, counting active rows at the root.
std::pair<double, size_t> DrainOnce(exec::PhysOperator* root) {
  size_t rows = 0;
  auto start = std::chrono::steady_clock::now();
  VODAK_CHECK(root->Open().ok());
  exec::RowBatch batch;
  for (;;) {
    auto more = root->NextBatch(&batch);
    VODAK_CHECK(more.ok()) << more.status().ToString();
    if (!more.value()) break;
    rows += batch.active_rows();
  }
  root->Close();
  return {MsSince(start), rows};
}

/// `p.section >= #Section:lo AND p.section < #Section:hi` — the
/// sargable shape zone maps refute: section oids are assigned in
/// creation order, so the range selects a contiguous slice of the
/// paragraph extent and every segment outside it.
algebra::LogicalRef RangePlan(algebra::AlgebraContext* ctx,
                              uint32_t section_class, uint32_t lo,
                              uint32_t hi) {
  auto get = ctx->Get("p", "Paragraph");
  VODAK_CHECK(get.ok());
  ExprRef cond = Expr::Binary(
      BinOp::kAnd,
      Expr::Binary(BinOp::kGe, Expr::Property(Expr::Var("p"), "section"),
                   Expr::Const(Value::OfOid(Oid(section_class, lo)))),
      Expr::Binary(BinOp::kLt, Expr::Property(Expr::Var("p"), "section"),
                   Expr::Const(Value::OfOid(Oid(section_class, hi)))));
  auto sel = ctx->Select(cond, get.value());
  VODAK_CHECK(sel.ok());
  return sel.value();
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t docs = 834000;
  int reps = 8;
  int queries = 5;
  size_t cache_pages = 64;
  uint32_t rows_per_segment = 64 * 1024;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--docs=", 7) == 0) {
      docs = static_cast<uint32_t>(std::atoi(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      queries = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--cache-pages=", 14) == 0) {
      cache_pages = static_cast<size_t>(std::atoll(argv[i] + 14));
    } else if (std::strncmp(argv[i], "--rows-per-segment=", 19) == 0) {
      rows_per_segment = static_cast<uint32_t>(std::atoi(argv[i] + 19));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--docs=N] [--reps=N] [--queries=N] "
                   "[--cache-pages=N] [--rows-per-segment=N] "
                   "[--json=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  workload::CorpusParams params;
  params.num_documents = docs;
  params.sections_per_document = 3;
  params.paragraphs_per_section = 4;
  params.words_per_paragraph = 6;  // keep the 10M-row build affordable
  params.vocabulary_size = 200;
  const size_t num_paragraphs = static_cast<size_t>(docs) * 3 * 4;
  const uint32_t num_sections = docs * 3;

  std::printf("building corpus: %u documents, %zu paragraphs...\n", docs,
              num_paragraphs);
  workload::DocumentDb db;
  VODAK_CHECK(db.Init().ok());
  VODAK_CHECK(db.Populate(params).ok());

  const ClassDef* paragraph = db.catalog().FindClass("Paragraph");
  VODAK_CHECK(paragraph != nullptr);
  const PropertyDef* section_prop = paragraph->FindProperty("section");
  VODAK_CHECK(section_prop != nullptr);

  // ------------------------------------------------------------ ingest
  storage::PagerOptions pager_options;
  pager_options.cache_pages = cache_pages;
  auto segments = storage::SegmentStore::Open("bench_storage.pages",
                                              pager_options);
  VODAK_CHECK(segments.ok()) << segments.status().ToString();
  // Only the zone-tracked scalar slots ingest (number, section); the
  // content strings stay behind the store's normal property path, so
  // the page file holds exactly what segment scans touch.
  const uint32_t ingest_slots = section_prop->slot + 1;
  storage::IngestOptions ingest_options;
  ingest_options.rows_per_segment = rows_per_segment;
  auto ingest_start = std::chrono::steady_clock::now();
  VODAK_CHECK(segments.value()
                  ->IngestClass(db.store(), db.paragraph_class_id(),
                                ingest_slots, db.store().CurrentEpoch(),
                                ingest_options)
                  .ok());
  const double ingest_ms = MsSince(ingest_start);
  auto version = segments.value()->VersionAt(db.paragraph_class_id(),
                                             kEpochLatest);
  VODAK_CHECK(version != nullptr && version->total_rows == num_paragraphs);
  const size_t segments_total = version->segments.size();
  const storage::PagerStats& pstats = segments.value()->pager()->stats();
  const uint64_t ingest_misses =
      pstats.cache_misses.load(std::memory_order_relaxed);
  const uint64_t ingest_writebacks =
      pstats.writebacks.load(std::memory_order_relaxed);
  std::printf(
      "ingested %zu segments (%zu rows, %llu page faults, %llu "
      "writebacks) in %.0f ms\n",
      segments_total, static_cast<size_t>(version->total_rows),
      static_cast<unsigned long long>(ingest_misses),
      static_cast<unsigned long long>(ingest_writebacks), ingest_ms);

  algebra::AlgebraContext ctx(&db.catalog());
  exec::ExecContext extent_ctx =
      exec::ExecContext{&db.catalog(), &db.store(), &db.methods()};
  exec::ExecContext segment_ctx = extent_ctx;
  segment_ctx.segments = segments.value().get();

  // ------------------------------------------- full pass: eviction live
  // An unselective scan drags every segment's OID pages through the
  // small cache once — proof the budget really is below the data size.
  segments.value()->pager()->mutable_stats()->Reset();
  auto full_plan = RangePlan(&ctx, db.section_class_id(), 0,
                             num_sections + 1);
  auto full_root = exec::BuildPhysical(full_plan, segment_ctx);
  VODAK_CHECK(full_root.ok()) << full_root.status().ToString();
  auto full = DrainOnce(full_root.value().get());
  VODAK_CHECK(full.second == num_paragraphs)
      << "full segment pass saw " << full.second << " of "
      << num_paragraphs << " rows";
  const uint64_t full_evictions =
      pstats.evictions.load(std::memory_order_relaxed);
  std::printf("full segment pass: %zu rows, %.0f ms, %llu evictions\n",
              full.second, full.first,
              static_cast<unsigned long long>(full_evictions));

  // --------------------------------------- selective re-scan loop: gate
  // ~1% of sections, far from the extent head: zone maps must refute
  // every segment outside the slice, and the survivors' pages must stay
  // resident across the loop.
  const uint32_t slice = num_sections / 100 + 1;
  const uint32_t lo = num_sections / 2;
  auto selective_plan =
      RangePlan(&ctx, db.section_class_id(), lo, lo + slice);
  segments.value()->mutable_stats()->Reset();
  segments.value()->pager()->mutable_stats()->Reset();
  double selective_ms = 0.0;
  size_t selective_rows = 0;
  for (int r = 0; r < reps; ++r) {
    auto root = exec::BuildPhysical(selective_plan, segment_ctx);
    VODAK_CHECK(root.ok()) << root.status().ToString();
    auto got = DrainOnce(root.value().get());
    selective_ms += got.first;
    selective_rows = got.second;
  }
  selective_ms /= reps;
  const uint64_t seg_scanned = segments.value()->stats().segments_scanned
                                   .load(std::memory_order_relaxed);
  const uint64_t seg_skipped = segments.value()->stats().segments_skipped
                                   .load(std::memory_order_relaxed);
  const uint64_t cache_hits =
      pstats.cache_hits.load(std::memory_order_relaxed);
  const uint64_t cache_misses =
      pstats.cache_misses.load(std::memory_order_relaxed);

  // Extent baseline of the same predicate (no segment store attached).
  double extent_ms = 0.0;
  size_t extent_rows = 0;
  for (int r = 0; r < reps; ++r) {
    auto root = exec::BuildPhysical(selective_plan, extent_ctx);
    VODAK_CHECK(root.ok()) << root.status().ToString();
    auto got = DrainOnce(root.value().get());
    extent_ms += got.first;
    extent_rows = got.second;
  }
  extent_ms /= reps;
  VODAK_CHECK(selective_rows == extent_rows)
      << "segment drain found " << selective_rows
      << " rows, extent drain " << extent_rows;

  std::printf(
      "selective scan (%u of %u sections): %zu rows; segment path "
      "%.2f ms vs extent path %.2f ms (%.2fx)\n",
      slice, num_sections, selective_rows, selective_ms, extent_ms,
      extent_ms / selective_ms);
  std::printf(
      "pruning: %llu segments scanned / %llu skipped over %d reps; "
      "cache: %llu hits / %llu misses\n",
      static_cast<unsigned long long>(seg_scanned),
      static_cast<unsigned long long>(seg_skipped), reps,
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses));

  // --------------------------------- sampled correctness vs the oracle
  // Random section ranges, each drained through the segment leaf and
  // the extent leaf as full result sets, then recomputed row by row
  // straight off the store — no shared scan, batch or paging code.
  auto extent = db.store().Extent(db.paragraph_class_id());
  VODAK_CHECK(extent.ok());
  std::vector<Value> section_col;
  VODAK_CHECK(db.store()
                  .GetPropertyColumn(db.paragraph_class_id(),
                                     section_prop->slot, extent.value(), 0,
                                     extent.value().size(), &section_col)
                  .ok());
  std::mt19937_64 rng(20260809);
  for (int q = 0; q < queries; ++q) {
    const uint32_t qlo = rng() % num_sections;
    const uint32_t qhi =
        qlo + 1 + static_cast<uint32_t>(rng() % (num_sections / 20 + 1));
    auto plan = RangePlan(&ctx, db.section_class_id(), qlo, qhi);
    auto seg_root = exec::BuildPhysical(plan, segment_ctx);
    auto ext_root = exec::BuildPhysical(plan, extent_ctx);
    VODAK_CHECK(seg_root.ok() && ext_root.ok());
    auto seg = exec::ExecuteColumn(seg_root.value().get(), "p");
    auto ext = exec::ExecuteColumn(ext_root.value().get(), "p");
    VODAK_CHECK(seg.ok() && ext.ok());
    const Value lo_oid = Value::OfOid(Oid(db.section_class_id(), qlo));
    const Value hi_oid = Value::OfOid(Oid(db.section_class_id(), qhi));
    std::vector<Value> expect;
    for (size_t i = 0; i < extent.value().size(); ++i) {
      if (Value::Compare(section_col[i], lo_oid) >= 0 &&
          Value::Compare(section_col[i], hi_oid) < 0) {
        expect.push_back(Value::OfOid(extent.value()[i]));
      }
    }
    const Value oracle = Value::Set(std::move(expect));
    VODAK_CHECK(seg.value() == oracle)
        << "sampled query " << q << " [" << qlo << ", " << qhi
        << "): segment drain diverged from the row oracle";
    VODAK_CHECK(ext.value() == oracle)
        << "sampled query " << q << " [" << qlo << ", " << qhi
        << "): extent drain diverged from the row oracle";
  }
  std::printf("%d sampled queries agree with the row-mode oracle\n",
              queries);

  // Deterministic structural gates — these fail the bench itself, not
  // just a downstream JSON check, so any standalone run is a real test.
  VODAK_CHECK(seg_skipped > 0 && seg_scanned > 0)
      << "selective loop scanned " << seg_scanned << " / skipped "
      << seg_skipped << " segments: zone maps refuted nothing";
  VODAK_CHECK(cache_hits > cache_misses)
      << "re-scan loop hit the cache " << cache_hits << " times vs "
      << cache_misses << " misses: survivors did not stay resident";
  VODAK_CHECK(segments_total > 1 || full_evictions > 0)
      << "corpus too small to exercise the cache (1 segment, 0 "
         "evictions)";

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"storage\",\n");
    std::fprintf(f, "  \"docs\": %u,\n", docs);
    std::fprintf(f, "  \"paragraphs\": %zu,\n", num_paragraphs);
    std::fprintf(f, "  \"segments_total\": %zu,\n", segments_total);
    std::fprintf(f, "  \"rows_per_segment\": %u,\n", rows_per_segment);
    std::fprintf(f, "  \"page_size\": %zu,\n",
                 segments.value()->pager()->page_size());
    std::fprintf(f, "  \"cache_pages\": %zu,\n", cache_pages);
    std::fprintf(f, "  \"ingest_ms\": %.3f,\n", ingest_ms);
    std::fprintf(f, "  \"ingest_page_faults\": %llu,\n",
                 static_cast<unsigned long long>(ingest_misses));
    std::fprintf(f, "  \"ingest_writebacks\": %llu,\n",
                 static_cast<unsigned long long>(ingest_writebacks));
    std::fprintf(f, "  \"full_scan_ms\": %.3f,\n", full.first);
    std::fprintf(f, "  \"full_scan_evictions\": %llu,\n",
                 static_cast<unsigned long long>(full_evictions));
    std::fprintf(f, "  \"selective_reps\": %d,\n", reps);
    std::fprintf(f, "  \"selective_rows\": %zu,\n", selective_rows);
    std::fprintf(f, "  \"selective_segment_ms\": %.3f,\n", selective_ms);
    std::fprintf(f, "  \"selective_extent_ms\": %.3f,\n", extent_ms);
    std::fprintf(f, "  \"segments_scanned\": %llu,\n",
                 static_cast<unsigned long long>(seg_scanned));
    std::fprintf(f, "  \"segments_skipped\": %llu,\n",
                 static_cast<unsigned long long>(seg_skipped));
    std::fprintf(f, "  \"cache_hits\": %llu,\n",
                 static_cast<unsigned long long>(cache_hits));
    std::fprintf(f, "  \"cache_misses\": %llu,\n",
                 static_cast<unsigned long long>(cache_misses));
    std::fprintf(f, "  \"queries_checked\": %d\n", queries);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("json written to %s\n", json_path.c_str());
  }
  std::remove("bench_storage.pages");
  return 0;
}
