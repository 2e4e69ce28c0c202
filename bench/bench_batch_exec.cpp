// Experiment X7: the batch executor against the row-mode interpreter,
// plus the morsel-driven parallel pipeline (X7b). Drives one
// scan+select query (extent scan over ~100k Paragraph objects,
// predicate on a stored property) through the row-mode interpreter
// (the row-at-a-time oracle), the serial batch pipeline
// (BuildPhysical + ExecuteColumn) and the parallel driver
// (ParallelExecuteColumn) at a sweep of thread counts. The serial and
// parallel sides build the same result set, so speedup_vs_serial
// compares like with like; the JSON records hardware_concurrency so
// single-core runs are interpretable.
//
// A second section (X8) measures the set-at-a-time method ABI on the
// paper's own workload shape — WHERE clauses calling external methods:
// the IR predicate `p->contains_string(s)` (batch dispatch amortizes
// the content-column read and query tokenization) and the IR retrieval
// `p IS-IN Paragraph->retrieve_by_string(s)` (batch dispatch dedups the
// constant argument into ONE postings intersection per ~1024-row batch,
// where the row-mode interpreter probes the index once per row). The
// method corpus is capped (--method-docs) because the row-mode probe
// storm is quadratic-ish in corpus size; the JSON records the probe
// counts so the amortization is checkable, not just the wall clock.
//
// A third section (X9) measures the selection-vector pipeline on a
// multi-predicate selection chain (map + three stacked filters, the
// shape the semantic optimizer's derived predicates produce): filters
// intersect the batch's selection vector and density is restored once
// at the drain boundary. The BatchCopyStats value move/copy counters
// are recorded; scripts/ci.sh fails when the chain moves more than one
// value per surviving row and carried column, or more values than
// scanned rows.
//
// Flags: --docs=N        corpus size in documents (default 8350 ->
//                        ~100k paragraphs, 3 sections x 4 paragraphs)
//        --method-docs=N corpus size for the method workloads
//                        (default min(docs, 800))
//        --reps=N        timed repetitions per mode (default 5); every
//                        reported time is the median
//        --json=PATH     machine-readable scan+parallel results
//        --json-method=PATH machine-readable method-ABI results
//        --json-selvec=PATH machine-readable selection-chain results
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "algebra/translate.h"
#include "bench_util.h"
#include "common/copy_stats.h"
#include "exec/parallel.h"
#include "exec/physical.h"
#include "vql/interpreter.h"
#include "vql/parser.h"

namespace {

using namespace vodak;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Median wall clock of `reps` runs of `fn`.
double MedianMs(int reps, const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    fn();
    ms.push_back(MsSince(start));
  }
  std::sort(ms.begin(), ms.end());
  const size_t n = ms.size();
  return n == 0 ? 0.0 : (n % 2 ? ms[n / 2] : (ms[n / 2 - 1] + ms[n / 2]) / 2);
}

struct PlanFixture {
  std::unique_ptr<algebra::AlgebraContext> ctx;
  vql::BoundQuery bound;
  algebra::LogicalRef plan;
  std::string result_ref;
  exec::ExecContext exec_ctx;
};

PlanFixture MakePlan(workload::DocumentDb* db, const std::string& vql) {
  PlanFixture fixture;
  fixture.ctx =
      std::make_unique<algebra::AlgebraContext>(&db->catalog());
  auto query = vql::ParseQuery(vql);
  VODAK_CHECK(query.ok()) << query.status().ToString();
  vql::Binder binder(&db->catalog());
  auto bound = binder.Bind(query.value());
  VODAK_CHECK(bound.ok()) << bound.status().ToString();
  fixture.bound = std::move(bound).value();
  auto plan = algebra::TranslateQuery(*fixture.ctx, fixture.bound);
  VODAK_CHECK(plan.ok()) << plan.status().ToString();
  fixture.plan = plan.value();
  fixture.result_ref = algebra::ResultRef(fixture.bound);
  fixture.exec_ctx =
      exec::ExecContext{&db->catalog(), &db->store(), &db->methods()};
  return fixture;
}

/// The row-at-a-time side: the row-mode interpreter over the query.
Value RunRowMode(workload::DocumentDb* db, const PlanFixture& fixture) {
  vql::Interpreter interpreter(&db->catalog(), &db->store(),
                               &db->methods());
  vql::Interpreter::Options row_mode;
  row_mode.row_mode = true;
  auto result = interpreter.Run(fixture.bound, row_mode);
  VODAK_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// The serial batch side: build the physical plan and drain the result
/// column.
Value RunSerial(const PlanFixture& fixture) {
  auto phys = exec::BuildPhysical(fixture.plan, fixture.exec_ctx);
  VODAK_CHECK(phys.ok()) << phys.status().ToString();
  auto result = exec::ExecuteColumn(phys.value().get(), fixture.result_ref);
  VODAK_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// The parallel side: the same result column through the morsel-driven
/// driver (threads=1 degenerates to the serial pipeline inside it).
Value RunParallel(const PlanFixture& fixture, size_t threads,
                  exec::WorkerPool* pool) {
  exec::ParallelOptions options;
  options.threads = threads;
  options.pool = pool;
  auto result = exec::ParallelExecuteColumn(fixture.plan, fixture.exec_ctx,
                                            fixture.result_ref, options);
  VODAK_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

struct ParallelPoint {
  size_t threads = 0;
  double ms = 0.0;
  double mrows_per_s = 0.0;
  double speedup_vs_serial = 0.0;
};

/// Row-mode vs batch timings for one method-ABI workload, plus the
/// external index probe counts that prove the set-at-a-time
/// amortization.
struct MethodPoint {
  const char* key = "";
  const char* vql = "";
  double row_ms = 0.0;
  double batch_ms = 0.0;
  size_t hits = 0;
  uint64_t probes_row = 0;    // IR searches during one row-mode run
  uint64_t probes_batch = 0;  // IR searches during one batch drain
};

/// Times one method workload through the row-mode interpreter and the
/// serial batch pipeline and records the IR probe counts of one run of
/// each.
MethodPoint RunMethodWorkload(workload::DocumentDb* db, const char* key,
                              const char* vql, int reps) {
  MethodPoint point;
  point.key = key;
  point.vql = vql;
  PlanFixture fixture = MakePlan(db, vql);
  db->ResetCounters();
  const Value warm_row = RunRowMode(db, fixture);
  point.probes_row = db->paragraph_index().search_count();
  db->ResetCounters();
  const Value warm_batch = RunSerial(fixture);
  point.probes_batch = db->paragraph_index().search_count();
  VODAK_CHECK(warm_row == warm_batch)
      << key << ": row-mode/batch results differ: "
      << warm_row.AsSet().size() << " vs " << warm_batch.AsSet().size();
  point.hits = warm_batch.AsSet().size();
  point.row_ms = MedianMs(reps, [&] { RunRowMode(db, fixture); });
  point.batch_ms = MedianMs(reps, [&] { RunSerial(fixture); });
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t docs = 8350;
  uint32_t method_docs = 0;  // 0 = min(docs, 800)
  int reps = 5;
  std::string json_path;
  std::string json_method_path;
  std::string json_selvec_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--docs=", 7) == 0) {
      docs = static_cast<uint32_t>(std::atoi(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--method-docs=", 14) == 0) {
      method_docs = static_cast<uint32_t>(std::atoi(argv[i] + 14));
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--json-method=", 14) == 0) {
      json_method_path = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--json-selvec=", 14) == 0) {
      json_selvec_path = argv[i] + 14;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--docs=N] [--method-docs=N] [--reps=N] "
                   "[--json=PATH] [--json-method=PATH] "
                   "[--json-selvec=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (method_docs == 0) method_docs = docs < 800 ? docs : 800;

  workload::CorpusParams params;
  params.num_documents = docs;
  params.sections_per_document = 3;
  params.paragraphs_per_section = 4;
  params.words_per_paragraph = 8;  // keep corpus build cheap
  params.vocabulary_size = 200;
  const size_t num_paragraphs = static_cast<size_t>(docs) * 3 * 4;

  std::printf("building corpus: %u documents, %zu paragraphs...\n", docs,
              num_paragraphs);
  workload::DocumentDb db;
  VODAK_CHECK(db.Init().ok());
  VODAK_CHECK(db.Populate(params).ok());

  // Scan + select on a stored property; translates to
  // Filter(p.number >= 1) over ExtentScan(Paragraph).
  PlanFixture fixture = MakePlan(
      &db, "ACCESS p FROM p IN Paragraph WHERE p.number >= 1");

  // Warm-up, which also checks that every side returns the same set.
  const Value warm_row = RunRowMode(&db, fixture);
  const Value warm_batch = RunSerial(fixture);
  VODAK_CHECK(warm_row == warm_batch)
      << "row-mode/batch results differ: " << warm_row.AsSet().size()
      << " vs " << warm_batch.AsSet().size();
  const size_t hits = warm_batch.AsSet().size();

  const double row_ms = MedianMs(reps, [&] { RunRowMode(&db, fixture); });
  const double batch_ms = MedianMs(reps, [&] { RunSerial(fixture); });

  const double row_mrows =
      num_paragraphs / row_ms / 1000.0;  // million rows/s
  const double batch_mrows = num_paragraphs / batch_ms / 1000.0;
  std::printf("workload: scan+select over %zu paragraphs, %zu hits\n",
              num_paragraphs, hits);
  std::printf("row-mode interpreter:        %8.2f ms  %6.2f Mrows/s\n",
              row_ms, row_mrows);
  std::printf("serial batch (ExecuteColumn):%8.2f ms  %6.2f Mrows/s\n",
              batch_ms, batch_mrows);
  std::printf("batch_vs_row_speedup: %.2fx\n", row_ms / batch_ms);

  // Morsel-driven parallel sweep over the same result column. One pool
  // sized for the largest sweep point, reused across thread counts
  // (ParallelRun claims only as many lanes as there are worker drains).
  const std::vector<size_t> sweep = {1, 2, 4, 8};
  exec::WorkerPool pool(sweep.back());
  std::vector<ParallelPoint> points;
  for (size_t threads : sweep) {
    VODAK_CHECK(RunParallel(fixture, threads, &pool) == warm_batch)
        << "parallel result differs at threads=" << threads;
    ParallelPoint point;
    point.threads = threads;
    point.ms =
        MedianMs(reps, [&] { RunParallel(fixture, threads, &pool); });
    point.mrows_per_s = num_paragraphs / point.ms / 1000.0;
    point.speedup_vs_serial = batch_ms / point.ms;
    points.push_back(point);
    std::printf(
        "parallel (threads=%zu):       %8.2f ms  %6.2f Mrows/s  "
        "%5.2fx vs serial\n",
        threads, point.ms, point.mrows_per_s, point.speedup_vs_serial);
  }
  double speedup_t4 = 0.0;
  for (const ParallelPoint& p : points) {
    if (p.threads == 4) speedup_t4 = p.speedup_vs_serial;
  }
  std::printf("parallel_speedup_threads4: %.2fx vs serial "
              "(hardware threads: %u)\n",
              speedup_t4, std::thread::hardware_concurrency());

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"parallel_exec\",\n");
    std::fprintf(f, "  \"workload\": \"scan+select p.number >= 1\",\n");
    std::fprintf(f, "  \"docs\": %u,\n", docs);
    std::fprintf(f, "  \"paragraphs\": %zu,\n", num_paragraphs);
    std::fprintf(f, "  \"hits\": %zu,\n", hits);
    std::fprintf(f, "  \"reps\": %d,\n", reps);
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"row_ms\": %.3f,\n", row_ms);
    std::fprintf(f, "  \"batch_ms\": %.3f,\n", batch_ms);
    std::fprintf(f, "  \"batch_vs_row_speedup\": %.3f,\n",
                 row_ms / batch_ms);
    std::fprintf(f, "  \"parallel\": [\n");
    for (size_t i = 0; i < points.size(); ++i) {
      std::fprintf(f,
                   "    {\"threads\": %zu, \"ms\": %.3f, "
                   "\"mrows_per_s\": %.3f, "
                   "\"speedup_vs_serial\": %.3f}%s\n",
                   points[i].threads, points[i].ms,
                   points[i].mrows_per_s,
                   points[i].speedup_vs_serial,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"parallel_speedup_threads4\": %.3f\n",
                 speedup_t4);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("json written to %s\n", json_path.c_str());
  }

  // -------- X8: set-at-a-time method dispatch on external methods.
  const size_t method_paragraphs = static_cast<size_t>(method_docs) * 3 * 4;
  // The scan corpus is reused when it already has the right size (the
  // CI smoke shape); otherwise a capped method corpus is built — the
  // row-mode interpreter's one-probe-per-row storm makes larger ones
  // pointless.
  workload::DocumentDb mdb_storage;
  workload::DocumentDb* mdb = &db;
  if (method_docs != docs) {
    std::printf(
        "\nbuilding method corpus: %u documents, %zu paragraphs...\n",
        method_docs, method_paragraphs);
    workload::CorpusParams mparams = params;
    mparams.num_documents = method_docs;
    VODAK_CHECK(mdb_storage.Init().ok());
    VODAK_CHECK(mdb_storage.Populate(mparams).ok());
    mdb = &mdb_storage;
  }

  std::vector<MethodPoint> method_points;
  method_points.push_back(RunMethodWorkload(
      mdb, "contains_string",
      "ACCESS p FROM p IN Paragraph WHERE "
      "p->contains_string('implementation')",
      reps));
  method_points.push_back(RunMethodWorkload(
      mdb, "retrieve_is_in",
      "ACCESS p FROM p IN Paragraph WHERE p IS-IN "
      "Paragraph->retrieve_by_string('implementation')",
      reps));
  for (const MethodPoint& p : method_points) {
    std::printf("method workload %-16s %8.2f ms row-mode  %8.2f ms batch  "
                "%5.2fx  (IR probes: %llu row vs %llu batch)\n",
                p.key, p.row_ms, p.batch_ms, p.row_ms / p.batch_ms,
                static_cast<unsigned long long>(p.probes_row),
                static_cast<unsigned long long>(p.probes_batch));
  }

  if (!json_method_path.empty()) {
    std::FILE* f = std::fopen(json_method_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n",
                   json_method_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"method_batch\",\n");
    std::fprintf(f, "  \"method_docs\": %u,\n", method_docs);
    std::fprintf(f, "  \"paragraphs\": %zu,\n", method_paragraphs);
    std::fprintf(f, "  \"reps\": %d,\n", reps);
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"workloads\": [\n");
    for (size_t i = 0; i < method_points.size(); ++i) {
      const MethodPoint& p = method_points[i];
      std::fprintf(
          f,
          "    {\"workload\": \"%s\", \"vql\": \"%s\", \"hits\": %zu,\n"
          "     \"row_ms\": %.3f, \"batch_ms\": %.3f, "
          "\"batch_vs_row_speedup\": %.3f,\n"
          "     \"ir_probes_row\": %llu, \"ir_probes_batch\": %llu}%s\n",
          p.key, p.vql, p.hits, p.row_ms, p.batch_ms,
          p.row_ms / p.batch_ms,
          static_cast<unsigned long long>(p.probes_row),
          static_cast<unsigned long long>(p.probes_batch),
          i + 1 < method_points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("json written to %s\n", json_method_path.c_str());
  }

  // -------- X9: the selection-vector chain.
  // The chain: map n := p.number, map s := p.section, then three stacked
  // cheap predicates (75% / 50% / 25% cumulative survivors over numbers
  // 0..3). Each Select is its own Filter operator narrowing one
  // selection vector; the drain boundary compacts the survivors once.
  auto parse_expr = [](const char* text) {
    auto e = vql::ParseExpr(text);
    VODAK_CHECK(e.ok()) << e.status().ToString();
    return e.value();
  };
  algebra::AlgebraContext selvec_ctx(&db.catalog());
  auto chain_get = selvec_ctx.Get("p", "Paragraph");
  VODAK_CHECK(chain_get.ok());
  auto chain_map =
      selvec_ctx.Map("n", parse_expr("p.number"), chain_get.value());
  VODAK_CHECK(chain_map.ok());
  // A second carried column (the section reference a later operator
  // would consume): real optimized plans drag several references
  // through their filter stack, and the marking pipeline leaves every
  // one of them in place until the drain boundary.
  auto chain_map2 =
      selvec_ctx.Map("s", parse_expr("p.section"), chain_map.value());
  VODAK_CHECK(chain_map2.ok());
  auto chain_f1 =
      selvec_ctx.Select(parse_expr("n >= 1"), chain_map2.value());
  VODAK_CHECK(chain_f1.ok());
  auto chain_f2 =
      selvec_ctx.Select(parse_expr("n <= 2"), chain_f1.value());
  VODAK_CHECK(chain_f2.ok());
  auto chain_f3 =
      selvec_ctx.Select(parse_expr("n >= 2"), chain_f2.value());
  VODAK_CHECK(chain_f3.ok());
  const algebra::LogicalRef chain = chain_f3.value();
  const char* chain_desc =
      "map n := p.number; map s := p.section; "
      "select n >= 1; select n <= 2; select n >= 2";

  // One drain of the chain, including the drain-boundary Compact() (the
  // batch representation's density boundary). Returns the rows; the
  // BatchCopyStats counters accumulate across the call.
  const exec::ExecContext selvec_exec = exec::ExecContext{
      &db.catalog(), &db.store(), &db.methods()};
  auto run_chain = [&]() -> size_t {
    auto phys = exec::BuildPhysical(chain, selvec_exec);
    VODAK_CHECK(phys.ok()) << phys.status().ToString();
    size_t rows = 0;
    VODAK_CHECK(phys.value()->Open().ok());
    exec::RowBatch batch;
    for (;;) {
      auto more = phys.value()->NextBatch(&batch);
      VODAK_CHECK(more.ok()) << more.status().ToString();
      if (!more.value()) break;
      batch.Compact();  // density boundary: rows leave the pipeline
      rows += batch.num_rows();
    }
    phys.value()->Close();
    return rows;
  };

  // Counted warm drain: the move/copy counters are deterministic per
  // drain, so one counted pass suffices.
  BatchCopyStats::Reset();
  const size_t chain_hits = run_chain();
  const uint64_t compact_moves =
      BatchCopyStats::compact_moves.load(std::memory_order_relaxed);
  const uint64_t gather_copies =
      BatchCopyStats::gather_copies.load(std::memory_order_relaxed);
  const uint64_t moves_total = compact_moves + gather_copies;
  const double chain_ms = MedianMs(reps, [&] { run_chain(); });
  std::printf("\nselection chain over %zu paragraphs, %zu hits: %s\n",
              num_paragraphs, chain_hits, chain_desc);
  std::printf(
      "selection-vector pipeline:   %8.2f ms  %10llu value moves "
      "(%llu compact + %llu gather)\n",
      chain_ms, static_cast<unsigned long long>(moves_total),
      static_cast<unsigned long long>(compact_moves),
      static_cast<unsigned long long>(gather_copies));

  if (!json_selvec_path.empty()) {
    std::FILE* f = std::fopen(json_selvec_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_selvec_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"selvec\",\n");
    std::fprintf(f, "  \"workload\": \"%s\",\n", chain_desc);
    std::fprintf(f, "  \"docs\": %u,\n", docs);
    std::fprintf(f, "  \"paragraphs\": %zu,\n", num_paragraphs);
    std::fprintf(f, "  \"hits\": %zu,\n", chain_hits);
    std::fprintf(f, "  \"reps\": %d,\n", reps);
    std::fprintf(f, "  \"selvec_ms\": %.3f,\n", chain_ms);
    std::fprintf(f, "  \"selvec_compact_moves\": %llu,\n",
                 static_cast<unsigned long long>(compact_moves));
    std::fprintf(f, "  \"selvec_gather_copies\": %llu,\n",
                 static_cast<unsigned long long>(gather_copies));
    std::fprintf(f, "  \"selvec_moves_total\": %llu\n",
                 static_cast<unsigned long long>(moves_total));
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("json written to %s\n", json_selvec_path.c_str());
  }
  return 0;
}
