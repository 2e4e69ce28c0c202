// perfbench: the repository benchmark. Three closed-loop workloads,
// each driven by a fixed, seeded operation sequence, measured end to
// end (untraced) or broken down by layer (traced). Every answer is
// checked against the row-mode interpreter's digest or against the
// expectation the seeded write sequence implies. perfbench/README.md
// explains the workloads, the metrics and the noise choices; run.py
// builds this program and is the command to use:
//
//   python3 perfbench/run.py --workload scan_service --seed 1
//       --seconds 30 --trace 0
//
// Flags: --workload paper_methods|scan_service|rw_snapshot
//        --seed N       corpus and operation-sequence seed
//        --seconds S    measured seconds, required (traced: alternating
//                       untraced and traced slices)
//        --trace 0|1    0 prints end-to-end metrics, 1 per-layer ones
//        --smoke        tiny corpus, for the self-test
//        --out-dir DIR  where the span file and the segment pages go
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/vm_stats.h"
#include "engine/database.h"
#include "exec/physical.h"
#include "exec/vm.h"
#include "harness.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "storage/segment_store.h"
#include "workload/document_knowledge.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifdef __clang__
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

namespace {

using namespace vodak;
using perfbench::Metric;
using perfbench::MsBetween;
using perfbench::NowNs;
using perfbench::Tracer;

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;  // required: run.py always passes it
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (flag != "--smoke") {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--smoke") {
      args->smoke = true;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Fisher-Yates over mt19937_64 draws: the same seed gives the same
/// order with any standard library.
template <typename T>
void SeededShuffle(std::vector<T>* items, std::mt19937_64* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[(*rng)() % i]);
  }
}

// ------------------------------------------------------------ workloads

/// Every mix weighs its entries equally and is chosen so that the
/// median latency falls inside a cluster of entries of similar cost,
/// not in the gap between two entries (where it moves with their
/// tails) nor at a cluster's edge.
///
/// Paper Examples 2, 3, 4 and the §4.2 implication query; the median
/// is the middle of the Example 4 / Example 2 cluster. Example 1 (the
/// sameDocument self-join) stays out: ~950 ms per query at this size,
/// it would turn the mix into one nested-loop measurement.
const char* const kExample4 =
    "ACCESS p FROM p IN Paragraph "
    "WHERE p->contains_string('implementation') "
    "AND (p->document()).title == 'Query Optimization'";

const std::vector<std::string> kPaperMix = {
    "ACCESS d.title FROM d IN Document, p IN d->paragraphs() "
    "WHERE p->contains_string('implementation')",
    "ACCESS [doc: d.title, paras: d->paragraphs()] FROM d IN Document "
    "WHERE d.title == 'Query Optimization'",
    kExample4,
    "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 100",
};

/// Scans over all three extents; the last is a range the Paragraph
/// zone maps refute segment by segment. The median falls in the
/// Section / Document scan cluster.
const std::vector<std::string> kScanMix = {
    "ACCESS p FROM p IN Paragraph WHERE p.number >= 1",
    "ACCESS p FROM p IN Paragraph WHERE p.number == 0",
    "ACCESS s FROM s IN Section WHERE s.number == 1",
    "ACCESS d.title FROM d IN Document",
    "ACCESS p FROM p IN Paragraph WHERE p.number >= 4",
};

std::string SectionTitleQuery(int k) {
  return "ACCESS s.title FROM s IN Section WHERE s.number == " +
         std::to_string(k);
}
std::string SectionScanQuery(int k) {
  return "ACCESS s FROM s IN Section WHERE s.number == " + std::to_string(k);
}
std::string ParagraphQuery(int j) {
  return "ACCESS p FROM p IN Paragraph WHERE p.number == " +
         std::to_string(j);
}

struct WorkloadConfig {
  std::string name;
  uint32_t docs = 0;
  /// Set-ups per untraced run; setup_s is their median.
  int setups = 1;
  /// Client threads and engine lanes: their sum stays <= nproc.
  size_t clients = 1;
  size_t lanes = 0;
  /// Buffer-cache pages of the Paragraph segment store (0: no segment
  /// store). The Paragraph segments take 164 pages at full size.
  size_t cache_pages = 0;
  /// Rows per Paragraph segment, when there is a segment store.
  uint32_t rows_per_segment = 0;
  bool paper_session = false;
  bool service = false;
  bool reclaim = false;
};

bool ConfigFor(const std::string& name, bool smoke, WorkloadConfig* cfg) {
  cfg->name = name;
  if (name == "paper_methods") {
    cfg->docs = smoke ? 20 : 400;
    cfg->setups = smoke ? 1 : 9;
    cfg->paper_session = true;
  } else if (name == "scan_service") {
    cfg->docs = smoke ? 40 : 4000;
    cfg->setups = smoke ? 1 : 5;
    cfg->clients = 2;
    cfg->lanes = 2;
    cfg->cache_pages = 16;  // below the Paragraph page count: scans evict
    cfg->rows_per_segment = smoke ? 64 : 2048;
    cfg->service = true;
  } else if (name == "rw_snapshot") {
    cfg->docs = smoke ? 40 : 4000;
    cfg->setups = smoke ? 1 : 5;
    cfg->cache_pages = 1024;  // above the Paragraph page count: fits
    cfg->rows_per_segment = smoke ? 64 : 2048;
    cfg->paper_session = true;
    cfg->reclaim = true;
  } else {
    return false;
  }
  return true;
}

// ------------------------------------------------------------- fixture

/// Everything set-up builds. Members are destroyed in reverse order:
/// the service stops before the session it serves, the store (and its
/// reclaimer) goes last.
struct Fixture {
  std::string pages_path;
  std::unique_ptr<workload::DocumentDb> db;
  std::unique_ptr<storage::SegmentStore> segments;
  std::unique_ptr<engine::Database> session;
  std::unique_ptr<service::QueryService> service;

  ~Fixture() {
    service.reset();
    session.reset();
    segments.reset();
    if (!pages_path.empty()) std::remove(pages_path.c_str());
  }
};

Result<std::unique_ptr<Fixture>> SetUp(const WorkloadConfig& cfg,
                                       const Args& args, int attempt) {
  auto fx = std::make_unique<Fixture>();
  fx->db = std::make_unique<workload::DocumentDb>();
  VODAK_RETURN_IF_ERROR(fx->db->Init());
  workload::CorpusParams params;
  params.num_documents = cfg.docs;
  params.seed = SplitMix(args.seed);
  VODAK_RETURN_IF_ERROR(fx->db->Populate(params));

  if (cfg.paper_session) {
    VODAK_ASSIGN_OR_RETURN(fx->session,
                           workload::MakePaperSession(fx->db.get()));
  } else {
    fx->session = std::make_unique<engine::Database>(
        &fx->db->catalog(), &fx->db->store(), &fx->db->methods());
  }

  if (cfg.cache_pages > 0) {
    fx->pages_path = args.out_dir + "/" + cfg.name + "-" +
                     std::to_string(getpid()) + "-" +
                     std::to_string(attempt) + ".pages";
    std::remove(fx->pages_path.c_str());
    storage::PagerOptions pager;
    pager.page_size = 8 * 1024;
    pager.cache_pages = cfg.cache_pages;
    VODAK_ASSIGN_OR_RETURN(
        fx->segments, storage::SegmentStore::Open(fx->pages_path, pager));
    // The zone-tracked scalar slots (number, section) go to segments;
    // content stays behind the store's property path.
    const ClassDef* paragraph = fx->db->catalog().FindClass("Paragraph");
    uint32_t slots = 0;
    for (const char* prop : {"number", "section"}) {
      slots = std::max(slots, paragraph->FindProperty(prop)->slot + 1);
    }
    storage::IngestOptions ingest;
    ingest.rows_per_segment = cfg.rows_per_segment;
    VODAK_RETURN_IF_ERROR(fx->segments->IngestClass(
        fx->db->store(), fx->db->paragraph_class_id(), slots,
        fx->db->store().CurrentEpoch(), ingest));
    fx->session->AttachSegmentStore(fx->segments.get());
  }
  if (cfg.reclaim) fx->db->store().StartBackgroundReclaim();
  if (cfg.service) {
    service::ServiceOptions options;
    options.lanes = cfg.lanes;
    options.shared_scan = true;
    fx->service =
        std::make_unique<service::QueryService>(fx->session.get(), options);
    VODAK_RETURN_IF_ERROR(fx->service->Start());
  }
  return fx;
}

/// Row-mode interpreter digests: the independent oracle.
Result<std::vector<uint64_t>> OracleDigests(
    const Fixture& fx, const std::vector<std::string>& queries) {
  vql::Interpreter::Options row_mode;
  row_mode.row_mode = true;
  std::vector<uint64_t> out;
  for (const std::string& q : queries) {
    VODAK_ASSIGN_OR_RETURN(Value v, fx.session->RunNaive(q, row_mode));
    out.push_back(service::ResultDigest(v));
  }
  return out;
}

// ---------------------------------------------------- operation streams

/// One operation of a seeded sequence with the answer it must give.
struct PlannedOp {
  std::string vql;
  bool write = false;
  /// Which entry of the workload's mix this is (diagnostics only).
  size_t kind = 0;
  /// Reads: digest of the expected result set.
  uint64_t expected_digest = 0;
  /// Writes: expected count of updated objects.
  int64_t expected_count = 0;
};

/// Produces the fixed operation sequence one block at a time; every
/// block has the same composition, so the mix never depends on timing.
class OpStream {
 public:
  virtual ~OpStream() = default;
  virtual void NextBlock(std::vector<PlannedOp>* out) = 0;
};

/// A read-only mix (paper_methods, and each scan_service connection):
/// each block is a seeded permutation of the mix's queries, each
/// expected to match its oracle digest.
class MixStream : public OpStream {
 public:
  MixStream(const std::vector<std::string>* mix,
            std::vector<uint64_t> oracle, uint64_t seed)
      : mix_(mix), oracle_(std::move(oracle)), rng_(seed) {}
  void NextBlock(std::vector<PlannedOp>* out) override {
    std::vector<size_t> order(mix_->size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    SeededShuffle(&order, &rng_);
    for (size_t q : order) {
      PlannedOp op;
      op.vql = (*mix_)[q];
      op.expected_digest = oracle_[q];
      op.kind = q;
      out->push_back(std::move(op));
    }
  }

 private:
  const std::vector<std::string>* mix_;
  std::vector<uint64_t> oracle_;
  std::mt19937_64 rng_;
};

/// rw_snapshot: each block is one Section-title UPDATE and four reads
/// (a Section-title scan, a Section scan, a Paragraph scan, Example 4)
/// in seeded order. The Section scan puts the median inside the
/// Section scan / Example 4 cluster rather than in the gap between
/// Example 4 and the write. The stream tracks the title each write leaves
/// behind, so a title read's expected answer follows from the writes
/// before it; the other reads do not depend on Section titles.
class RwStream : public OpStream {
 public:
  enum Kind : size_t { kWrite, kTitleScan, kSectionScan, kParagraphScan,
                       kExample4Read, kKinds };

  /// `oracle` holds the digests of OracleQueries(), in order.
  RwStream(uint64_t seed, std::vector<uint64_t> oracle, int64_t docs)
      : rng_(seed), seed_(seed), oracle_(std::move(oracle)), docs_(docs) {}

  /// Initial title scans (k = 0..2), Section scans (k = 0..2),
  /// Paragraph scans (j = 0..3), Example 4.
  static std::vector<std::string> OracleQueries() {
    std::vector<std::string> q;
    for (int k = 0; k < 3; ++k) q.push_back(SectionTitleQuery(k));
    for (int k = 0; k < 3; ++k) q.push_back(SectionScanQuery(k));
    for (int j = 0; j < 4; ++j) q.push_back(ParagraphQuery(j));
    q.push_back(kExample4);
    return q;
  }

  void NextBlock(std::vector<PlannedOp>* out) override {
    std::vector<size_t> order(kKinds);
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    SeededShuffle(&order, &rng_);
    for (size_t kind : order) {
      PlannedOp op;
      op.kind = kind;
      const int k = static_cast<int>(rng_() % 3);
      switch (kind) {
        case kWrite: {
          const std::string title = "rw " + std::to_string(seed_ % 1000) +
                                    "." + std::to_string(writes_++);
          op.vql = "UPDATE Section SET title = '" + title +
                   "' WHERE self.number == " + std::to_string(k);
          op.write = true;
          op.expected_count = docs_;
          title_[k] = title;
          break;
        }
        case kTitleScan:
          op.vql = SectionTitleQuery(k);
          op.expected_digest =
              title_[k].empty() ? oracle_[k]
                                : service::ResultDigest(Value::Set(
                                      {Value::String(title_[k])}));
          break;
        case kSectionScan:
          op.vql = SectionScanQuery(k);
          op.expected_digest = oracle_[3 + k];
          break;
        case kParagraphScan: {
          const int j = static_cast<int>(rng_() % 4);
          op.vql = ParagraphQuery(j);
          op.expected_digest = oracle_[6 + j];
          break;
        }
        default:
          op.vql = kExample4;
          op.expected_digest = oracle_[10];
          break;
      }
      out->push_back(std::move(op));
    }
  }

 private:
  std::mt19937_64 rng_;
  uint64_t seed_;
  std::vector<uint64_t> oracle_;
  int64_t docs_;
  uint64_t writes_ = 0;
  std::array<std::string, 3> title_;
};

// ------------------------------------------------------ layer counters

/// Public counters of every module, read before and after a phase.
struct Counters {
  uint64_t property_reads = 0, extent_scans = 0, snapshot_reads = 0,
           versions_created = 0, versions_reclaimed = 0;
  uint64_t method_invocations = 0, batch_rows = 0;
  uint64_t postings_scanned = 0, index_lookups = 0;
  uint64_t cache_hits = 0, cache_misses = 0, evictions = 0,
           segments_scanned = 0, segments_skipped = 0;
  uint64_t vm_compiled = 0;
  uint64_t generations = 0, service_queries = 0, late_attached = 0,
           extent_passes = 0;

  Counters operator-(const Counters& o) const {
    Counters d;
    d.property_reads = property_reads - o.property_reads;
    d.extent_scans = extent_scans - o.extent_scans;
    d.snapshot_reads = snapshot_reads - o.snapshot_reads;
    d.versions_created = versions_created - o.versions_created;
    d.versions_reclaimed = versions_reclaimed - o.versions_reclaimed;
    d.method_invocations = method_invocations - o.method_invocations;
    d.batch_rows = batch_rows - o.batch_rows;
    d.postings_scanned = postings_scanned - o.postings_scanned;
    d.index_lookups = index_lookups - o.index_lookups;
    d.cache_hits = cache_hits - o.cache_hits;
    d.cache_misses = cache_misses - o.cache_misses;
    d.evictions = evictions - o.evictions;
    d.segments_scanned = segments_scanned - o.segments_scanned;
    d.segments_skipped = segments_skipped - o.segments_skipped;
    d.vm_compiled = vm_compiled - o.vm_compiled;
    d.generations = generations - o.generations;
    d.service_queries = service_queries - o.service_queries;
    d.late_attached = late_attached - o.late_attached;
    d.extent_passes = extent_passes - o.extent_passes;
    return d;
  }
};

Counters ReadCounters(Fixture& fx) {
  Counters c;
  constexpr auto kRelaxed = std::memory_order_relaxed;
  const StoreStats& store = fx.db->store().stats();
  c.property_reads = store.property_reads.load(kRelaxed);
  c.extent_scans = store.extent_scans.load(kRelaxed);
  c.snapshot_reads = store.snapshot_reads.load(kRelaxed);
  c.versions_created = store.versions_created.load(kRelaxed);
  c.versions_reclaimed = store.versions_reclaimed.load(kRelaxed);
  const MethodRegistry& methods = fx.db->methods();
  c.method_invocations = methods.total_invocations();
  const struct {
    const char* cls;
    const char* method;
    MethodLevel level;
  } kMethods[] = {
      {"Document", "select_by_index", MethodLevel::kClassObject},
      {"Document", "paragraphs", MethodLevel::kInstance},
      {"Paragraph", "retrieve_by_string", MethodLevel::kClassObject},
      {"Paragraph", "document", MethodLevel::kInstance},
      {"Paragraph", "contains_string", MethodLevel::kInstance},
      {"Paragraph", "sameDocument", MethodLevel::kInstance},
      {"Paragraph", "wordCount", MethodLevel::kInstance},
  };
  for (const auto& m : kMethods) {
    c.batch_rows += methods.batch_row_count(m.cls, m.method, m.level);
  }
  c.postings_scanned = fx.db->paragraph_index().postings_scanned();
  c.index_lookups = fx.db->paragraph_index().search_count() +
                    fx.db->title_index().lookup_count();
  if (fx.segments != nullptr) {
    const storage::PagerStats& pager = fx.segments->pager()->stats();
    c.cache_hits = pager.cache_hits.load(kRelaxed);
    c.cache_misses = pager.cache_misses.load(kRelaxed);
    c.evictions = pager.evictions.load(kRelaxed);
    c.segments_scanned = fx.segments->stats().segments_scanned.load(kRelaxed);
    c.segments_skipped = fx.segments->stats().segments_skipped.load(kRelaxed);
  }
  c.vm_compiled = VmStats::vm_compiled.load(kRelaxed);
  if (fx.service != nullptr) {
    const service::ServiceStats s = fx.service->stats();
    c.generations = s.generations;
    c.service_queries = s.queries_admitted;
    c.late_attached = s.late_attached;
    c.extent_passes = s.extent_passes;
  }
  return c;
}

// ------------------------------------------------------ phase results

/// Layer time sums of a traced phase (milliseconds unless noted).
struct LayerSums {
  uint64_t reads = 0, writes = 0;
  double root_ms = 0, child_ms = 0;  // accounted time under the roots
  double prepare_ms = 0, optimize_ms = 0, build_ms = 0, vm_compile_ms = 0,
         drain_ms = 0;
  uint64_t memo_exprs = 0, rule_applications = 0;
  double write_plan_ms = 0, write_apply_ms = 0;
  // Service reply fields and the client-side remainder.
  double queue_ms = 0, plan_ms = 0, service_drain_ms = 0, wire_ms = 0;
  uint64_t wire_violations = 0;

  void Add(const LayerSums& o) {
    reads += o.reads;
    writes += o.writes;
    root_ms += o.root_ms;
    child_ms += o.child_ms;
    prepare_ms += o.prepare_ms;
    optimize_ms += o.optimize_ms;
    build_ms += o.build_ms;
    vm_compile_ms += o.vm_compile_ms;
    drain_ms += o.drain_ms;
    memo_exprs += o.memo_exprs;
    rule_applications += o.rule_applications;
    write_plan_ms += o.write_plan_ms;
    write_apply_ms += o.write_apply_ms;
    queue_ms += o.queue_ms;
    plan_ms += o.plan_ms;
    service_drain_ms += o.service_drain_ms;
    wire_ms += o.wire_ms;
    wire_violations += o.wire_violations;
  }
};

struct PhaseResult {
  /// Untraced timed operations: the end-to-end samples.
  std::vector<double> latency_ms;
  std::vector<double> write_ms;
  /// Latencies per mix entry, for the per-query diagnostics line.
  std::vector<std::vector<double>> kind_ms;
  /// Window start and each untraced operation's completion (steady
  /// ns): the per-second throughput slices that show drift in a run.
  int64_t start_ns = 0;
  std::vector<int64_t> done_ns;
  /// Traced runs alternate untraced and traced time slices; these are
  /// each mode's client-seconds and the traced operation count.
  double untraced_s = 0;
  double traced_s = 0;
  uint64_t traced_ops = 0;
  /// Every checked operation, warm-up included, and the wrong ones.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double window_s = 0;
  perfbench::HostSample host_before, host_after;
  Counters counters;  // deltas over the window
  LayerSums layers;   // traced operations only

  void Merge(const PhaseResult& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    write_ms.insert(write_ms.end(), o.write_ms.begin(), o.write_ms.end());
    if (kind_ms.size() < o.kind_ms.size()) kind_ms.resize(o.kind_ms.size());
    for (size_t k = 0; k < o.kind_ms.size(); ++k) {
      kind_ms[k].insert(kind_ms[k].end(), o.kind_ms[k].begin(),
                        o.kind_ms[k].end());
    }
    done_ns.insert(done_ns.end(), o.done_ns.begin(), o.done_ns.end());
    untraced_s += o.untraced_s;
    traced_s += o.traced_s;
    traced_ops += o.traced_ops;
    attempted += o.attempted;
    failed += o.failed;
    layers.Add(o.layers);
  }

  /// Records one checked operation; only timed untraced ones are
  /// end-to-end samples.
  void Note(bool timed, bool traced, size_t kind, bool write, double ms,
            bool ok, const std::string& what) {
    ++attempted;
    if (timed && traced) ++traced_ops;
    if (timed && !traced) {
      latency_ms.push_back(ms);
      done_ns.push_back(NowNs());
      if (kind_ms.size() <= kind) kind_ms.resize(kind + 1);
      kind_ms[kind].push_back(ms);
      if (write) write_ms.push_back(ms);
    }
    if (!ok) {
      ++failed;
      if (failed <= 5) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    }
  }
};

/// One closed-loop client: runs one block of its seeded sequence,
/// tracing each operation when `tracer` is set.
using BlockRunner =
    std::function<void(bool timed, Tracer* tracer, PhaseResult* out)>;

/// The closed-loop skeleton shared by every workload: each client
/// warms up with one block, then all start together and run whole
/// blocks until `seconds` have passed at a block boundary. With
/// `tracers`, every other `slice_ns` slice runs traced (decided at
/// block start; client c uses tracers[c]), so both modes see the same
/// host conditions.
PhaseResult RunClients(Fixture& fx, std::vector<BlockRunner>& clients,
                       double seconds, std::vector<Tracer>* tracers,
                       int64_t slice_ns) {
  const size_t n = clients.size();
  std::vector<PhaseResult> per_client(n);
  std::vector<int64_t> end_ns(n, 0);
  std::mutex mu;
  std::condition_variable cv;
  size_t ready = 0;
  bool go = false;
  int64_t start = 0, deadline = 0;

  auto client_main = [&](size_t c) {
    PhaseResult& mine = per_client[c];
    clients[c](/*timed=*/false, nullptr, &mine);
    {
      std::unique_lock<std::mutex> lock(mu);
      ++ready;
      cv.notify_all();
      cv.wait(lock, [&] { return go; });
    }
    int64_t now = NowNs();
    do {
      const bool traced =
          tracers != nullptr && ((now - start) / slice_ns) % 2 == 1;
      const int64_t block_start = now;
      clients[c](/*timed=*/true, traced ? &(*tracers)[c] : nullptr, &mine);
      now = NowNs();
      (traced ? mine.traced_s : mine.untraced_s) +=
          MsBetween(block_start, now) / 1e3;
    } while (now < deadline);
    end_ns[c] = now;
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) threads.emplace_back(client_main, c);
  PhaseResult out;
  Counters before;
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ready == n; });
    before = ReadCounters(fx);
    out.host_before = perfbench::SampleHost();
    start = NowNs();
    deadline = start + static_cast<int64_t>(seconds * 1e9);
    go = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();
  int64_t end = start;
  for (size_t c = 0; c < n; ++c) {
    end = std::max(end, end_ns[c]);
    out.Merge(per_client[c]);
  }
  out.start_ns = start;
  out.window_s = MsBetween(start, end) / 1e3;
  out.host_after = perfbench::SampleHost();
  out.counters = ReadCounters(fx) - before;
  return out;
}

// ----------------------------------------------------- Submit clients

/// The traced read: the steps Database::Submit takes for a lone query
/// (ExecuteSingle on the serial batch drain), called one public
/// function at a time with a span around each.
Result<Value> TracedRead(Fixture& fx, const std::string& vql,
                         bool optimize, Tracer* tracer, uint32_t op_id,
                         LayerSums* sums) {
  engine::Database& db = *fx.session;
  const int32_t root = tracer->Open("op.read", -1, op_id);
  int32_t span = tracer->Open("vql+optimizer.prepare", root, op_id);
  engine::PlanOptions plan;
  plan.optimize = optimize;
  Result<engine::PreparedQuery> prepared = db.Prepare(vql, plan);
  const double prepare_ms = tracer->Close(span);
  VODAK_RETURN_IF_ERROR(prepared.status());
  const engine::QueryResult& planned = prepared.value().planned;

  Value value;
  double build_ms = 0, vm_ms = 0, drain_ms = 0;
  {
    span = tracer->Open("objstore.pin", root, op_id);
    EpochPin pin(db.store());
    const double pin_ms = tracer->Close(span);
    exec::ExecContext ctx{db.catalog(), db.store(), db.methods()};
    ctx.snapshot_epoch = pin.epoch();
    ctx.segments = db.segment_store();

    span = tracer->Open("exec.build", root, op_id);
    Result<exec::PhysOpPtr> built =
        exec::BuildPhysical(planned.chosen_plan, ctx);
    // Submit renders EXPLAIN for every query, so the traced path does.
    std::string explain;
    if (built.ok()) explain = exec::ExplainPhysical(*built.value());
    build_ms = tracer->Close(span);
    VODAK_RETURN_IF_ERROR(built.status());
    exec::PhysOpPtr physical = std::move(built).value();

    span = tracer->Open("exec.vm_compile", root, op_id);
    Result<exec::VmChoice> vm =
        exec::TryCompileVm(planned.chosen_plan, ctx, /*force=*/false);
    if (vm.ok() && vm.value().compiled) physical = std::move(vm.value().op);
    vm_ms = tracer->Close(span);
    VODAK_RETURN_IF_ERROR(vm.status());

    span = tracer->Open("exec.drain", root, op_id);
    Result<Value> drained = exec::ExecuteColumn(
        physical.get(), prepared.value().result_ref, exec::ExecMode::kBatch);
    physical.reset();
    drain_ms = tracer->Close(span);
    VODAK_RETURN_IF_ERROR(drained.status());
    value = std::move(drained).value();
    drain_ms += pin_ms;  // pinning is part of the read path's drain
  }
  const double root_ms = tracer->Close(root);

  sums->reads++;
  sums->root_ms += root_ms;
  sums->child_ms += prepare_ms + build_ms + vm_ms + drain_ms;
  sums->prepare_ms += prepare_ms;
  sums->optimize_ms += planned.optimize_ms;
  sums->memo_exprs += planned.memo_exprs;
  sums->rule_applications += planned.rule_applications;
  sums->build_ms += build_ms;
  sums->vm_compile_ms += vm_ms;
  sums->drain_ms += drain_ms;
  return value;
}

/// paper_methods and rw_snapshot: one client submitting the stream's
/// operations one at a time through Database::Submit; traced reads go
/// through TracedRead, traced writes through Submit with its stats.
BlockRunner SubmitClient(Fixture& fx, OpStream* stream, bool optimize) {
  auto next_op = std::make_shared<uint32_t>(0);
  return [&fx, stream, optimize, next_op](bool timed, Tracer* tracer,
                                          PhaseResult* out) {
    uint32_t& op_id = *next_op;
    std::vector<PlannedOp> block;
    stream->NextBlock(&block);
    for (const PlannedOp& op : block) {
      double ms = 0;
      bool ok = false;
      std::string error;
      if (tracer != nullptr && !op.write) {
        const int64_t start = NowNs();
        Result<Value> v =
            TracedRead(fx, op.vql, optimize, tracer, op_id, &out->layers);
        ms = MsBetween(start, NowNs());
        ok = v.ok() && service::ResultDigest(v.value()) == op.expected_digest;
        if (!v.ok()) error = v.status().ToString();
      } else {
        engine::QueryRequest request;
        request.vql = op.vql;
        request.plan.optimize = optimize;
        const std::vector<engine::QueryRequest> batch = {request};
        int32_t root = -1;
        if (tracer != nullptr) root = tracer->Open("op.write", -1, op_id);
        const int64_t start = NowNs();
        std::vector<engine::QueryOutcome> outcomes = fx.session->Submit(batch);
        ms = MsBetween(start, NowNs());
        const engine::QueryOutcome& o = outcomes[0];
        if (tracer != nullptr) {
          tracer->Close(root);
          LayerSums& l = out->layers;
          l.writes++;
          l.root_ms += ms;
          l.child_ms += o.stats.plan_ms + o.stats.drain_ms;
          l.write_plan_ms += o.stats.plan_ms;
          l.write_apply_ms += o.stats.drain_ms;
        }
        if (!o.status.ok()) {
          error = o.status.ToString();
        } else if (op.write) {
          ok = o.result.result == Value::Int(op.expected_count);
        } else {
          ok = service::ResultDigest(o.result.result) == op.expected_digest;
        }
      }
      ++op_id;
      out->Note(timed, tracer != nullptr, op.kind, op.write, ms, ok,
                op.vql + " " + error);
    }
  };
}

// ----------------------------------------------------- socket clients

/// One blocking line-protocol connection to the query service.
class LineClient {
 public:
  ~LineClient() {
    if (fd_ >= 0) close(fd_);
  }
  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }
  bool Call(const std::string& line, std::string* reply) {
    const std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n =
          send(fd_, framed.data() + sent, framed.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *reply = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// scan_service: one socket connection running its own MixStream;
/// every reply's digest is checked. Traced operations take the layer
/// split from the reply fields.
BlockRunner ServiceClient(Fixture& fx, size_t c,
                          std::unique_ptr<MixStream> stream) {
  struct State {
    LineClient conn;
    bool connected = false;
    std::unique_ptr<MixStream> stream;
    uint32_t op_id = 0;
  };
  auto state = std::make_shared<State>();
  state->connected = state->conn.Connect(fx.service->port());
  state->stream = std::move(stream);
  return [state, c](bool timed, Tracer* tracer, PhaseResult* out) {
    std::vector<PlannedOp> block;
    state->stream->NextBlock(&block);
    for (const PlannedOp& op : block) {
      const std::string id =
          "c" + std::to_string(c) + "." + std::to_string(state->op_id);
      const std::string line = "Q " + id + " 0 " + op.vql;
      std::string reply_line;
      int32_t root = -1;
      if (tracer != nullptr) {
        root = tracer->Open("service.client_op", -1, state->op_id);
      }
      const int64_t start = NowNs();
      const bool io_ok =
          state->connected && state->conn.Call(line, &reply_line);
      const double ms = MsBetween(start, NowNs());
      if (tracer != nullptr) tracer->Close(root);
      ++state->op_id;
      Result<service::Reply> reply =
          io_ok ? service::ParseReplyLine(reply_line)
                : Result<service::Reply>(Status::Internal("socket"));
      const bool ok = reply.ok() && reply.value().ok() &&
                      reply.value().id == id &&
                      reply.value().hash ==
                          service::DigestHex(op.expected_digest);
      if (timed && tracer != nullptr && reply.ok()) {
        const engine::QueryStats& s = reply.value().stats;
        LayerSums& l = out->layers;
        const double inside = s.queue_ms + s.plan_ms + s.drain_ms;
        l.reads++;
        l.root_ms += ms;
        l.child_ms += inside;
        l.queue_ms += s.queue_ms;
        l.plan_ms += s.plan_ms;
        l.service_drain_ms += s.drain_ms;
        l.wire_ms += ms - inside;
        // The reply fields are printed to 1 us; allow that rounding.
        if (ms - inside < -0.005) l.wire_violations++;
      }
      out->Note(timed, tracer != nullptr, op.kind, false, ms, ok,
                op.vql + " -> " + reply_line);
    }
  };
}

// ------------------------------------------------------------ metrics

double Median(std::vector<double> v) { return perfbench::Percentile(v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> EndToEndMetrics(const PhaseResult& r, double setup_s) {
  return {
      {"throughput_qps", Ratio(r.latency_ms.size(), r.window_s), "1/s"},
      {"latency_p50_ms", perfbench::Percentile(r.latency_ms, 0.50), "ms"},
      {"latency_p99_ms", perfbench::Percentile(r.latency_ms, 0.99), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", perfbench::PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayerMetrics(const PhaseResult& r, size_t clients,
                                    bool service,
                                    double shadow_build_ms,
                                    double accounted_share) {
  const LayerSums& l = r.layers;  // traced operations
  const Counters& c = r.counters;  // every timed operation
  const double untraced_ops = static_cast<double>(r.latency_ms.size());
  const double ops = untraced_ops + static_cast<double>(r.traced_ops);
  const double writes =
      static_cast<double>(r.write_ms.size()) + static_cast<double>(l.writes);
  const double reads = ops - writes;
  const double lreads = static_cast<double>(l.reads);
  const double lwrites = static_cast<double>(l.writes);
  const double n = static_cast<double>(clients);
  const double untraced_qps = Ratio(untraced_ops, r.untraced_s / n);
  const double traced_qps =
      Ratio(static_cast<double>(r.traced_ops), r.traced_s / n);
  return {
      // vql: Prepare minus its optimize share; on the service, the
      // reply's plan_ms (the service plans without the optimizer).
      {"vql.parse_bind_ms",
       service ? Ratio(l.plan_ms, lreads)
               : Ratio(l.prepare_ms - l.optimize_ms, lreads),
       "ms"},
      {"optimizer.optimize_ms", Ratio(l.optimize_ms, lreads), "ms"},
      {"optimizer.plan_share",
       Ratio(service ? l.plan_ms : l.prepare_ms, l.root_ms), "share"},
      {"optimizer.memo_exprs", Ratio(l.memo_exprs, lreads), "count/op"},
      {"optimizer.rule_applications", Ratio(l.rule_applications, lreads),
       "count/op"},
      {"exec.build_ms",
       service ? shadow_build_ms : Ratio(l.build_ms, lreads), "ms"},
      {"exec.vm_compile_ms", Ratio(l.vm_compile_ms, lreads), "ms"},
      {"exec.drain_ms",
       Ratio(service ? l.service_drain_ms : l.drain_ms, lreads), "ms"},
      {"exec.vm_compiled_share", Ratio(c.vm_compiled, reads), "share"},
      {"methods.invocations_per_query", Ratio(c.method_invocations, ops),
       "count/op"},
      {"methods.batch_rows_per_query", Ratio(c.batch_rows, ops), "count/op"},
      {"extindex.postings_scanned_per_query",
       Ratio(c.postings_scanned, ops), "count/op"},
      {"extindex.lookups_per_query", Ratio(c.index_lookups, ops), "count/op"},
      {"objstore.property_reads_per_query", Ratio(c.property_reads, ops),
       "count/op"},
      {"objstore.extent_scans_per_query", Ratio(c.extent_scans, ops),
       "count/op"},
      {"objstore.snapshot_reads_per_read", Ratio(c.snapshot_reads, reads),
       "count/op"},
      {"objstore.versions_created_per_write",
       Ratio(c.versions_created, writes), "count/op"},
      {"objstore.reclaimed_share",
       Ratio(c.versions_reclaimed, c.versions_created), "share"},
      {"storage.cache_hit_ratio",
       Ratio(c.cache_hits, c.cache_hits + c.cache_misses), "share"},
      {"storage.evictions_per_query", Ratio(c.evictions, ops), "count/op"},
      {"storage.segments_skipped_share",
       Ratio(c.segments_skipped, c.segments_scanned + c.segments_skipped),
       "share"},
      {"service.queue_ms", Ratio(l.queue_ms, lreads), "ms"},
      {"service.plan_ms", Ratio(l.plan_ms, lreads), "ms"},
      {"service.drain_ms", Ratio(l.service_drain_ms, lreads), "ms"},
      {"service.wire_ms", Ratio(l.wire_ms, lreads), "ms"},
      {"service.queries_per_generation",
       Ratio(c.service_queries, c.generations), "count"},
      {"service.late_attach_share",
       Ratio(c.late_attached, c.service_queries), "share"},
      {"service.extent_passes_per_query",
       Ratio(c.extent_passes, c.service_queries), "count/op"},
      {"engine.write_plan_ms", Ratio(l.write_plan_ms, lwrites), "ms"},
      {"engine.write_apply_ms", Ratio(l.write_apply_ms, lwrites), "ms"},
      {"write_p50_ms", Median(r.write_ms), "ms"},
      {"trace.untraced_qps", untraced_qps, "1/s"},
      {"trace.traced_qps", traced_qps, "1/s"},
      {"trace.overhead_share", 1.0 - Ratio(traced_qps, untraced_qps),
       "share"},
      {"trace.accounted_share", accounted_share, "share"},
  };
}

/// exec.build_ms on scan_service: the service builds each plan inside
/// its generation drain (so the time is part of service.drain_ms and
/// no outside call sees it); this times BuildPhysical on the same
/// plans from outside, averaged over the mix.
double ShadowBuildMs(Fixture& fx, const std::vector<std::string>& mix,
                     int reps) {
  double total = 0;
  int n = 0;
  for (const std::string& vql : mix) {
    engine::PlanOptions plan;
    plan.optimize = false;
    Result<engine::PreparedQuery> prepared = fx.session->Prepare(vql, plan);
    if (!prepared.ok()) continue;
    EpochPin pin(&fx.db->store());
    exec::ExecContext ctx{&fx.db->catalog(), &fx.db->store(),
                          &fx.db->methods()};
    ctx.snapshot_epoch = pin.epoch();
    ctx.segments = fx.segments.get();
    for (int r = 0; r < reps; ++r) {
      const int64_t start = NowNs();
      Result<exec::PhysOpPtr> built =
          exec::BuildPhysical(prepared.value().planned.chosen_plan, ctx);
      if (built.ok()) (void)exec::ExplainPhysical(*built.value());
      total += MsBetween(start, NowNs());
      ++n;
    }
  }
  return Ratio(total, n);
}

/// The traced pipeline must answer exactly as Submit does: compares
/// both digests per query at the current state.
bool TracedParity(Fixture& fx, const std::vector<std::string>& queries,
                  bool optimize) {
  bool ok = true;
  Tracer scratch(64);
  LayerSums ignored;
  for (const std::string& vql : queries) {
    engine::QueryRequest request;
    request.vql = vql;
    request.plan.optimize = optimize;
    std::vector<engine::QueryOutcome> o = fx.session->Submit({request});
    Result<Value> traced = TracedRead(fx, vql, optimize, &scratch, 0, &ignored);
    if (!o[0].status.ok() || !traced.ok() ||
        service::ResultDigest(o[0].result.result) !=
            service::ResultDigest(traced.value())) {
      std::fprintf(stderr, "FAIL: traced pipeline differs from Submit: %s\n",
                   vql.c_str());
      ok = false;
    }
  }
  return ok;
}

// ---------------------------------------------------------------- main

struct RunReport {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool checks_ok = true;
};

void PrintDiagnostics(const char* phase, const PhaseResult& r) {
  const double cpu_s = r.host_after.process_cpu_s - r.host_before.process_cpu_s;
  const double steal = Ratio(
      static_cast<double>(r.host_after.host_steal - r.host_before.host_steal),
      static_cast<double>(r.host_after.host_total - r.host_before.host_total));
  std::printf(
      "diagnostics[%s]: window_s=%.3f samples=%zu beyond_p99=%zu "
      "process_cpu_s=%.3f cpu_per_wall=%.3f host_steal_share=%.5f "
      "error_rate=%.6f (%llu of %llu)\n",
      phase, r.window_s, r.latency_ms.size(),
      perfbench::SamplesBeyond(r.latency_ms, 0.99), cpu_s,
      Ratio(cpu_s, r.window_s), steal,
      Ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.attempted));
  // Throughput of each whole second of the window: a wide spread here
  // is drift inside the run, which a code change does not cause.
  std::vector<double> slices(static_cast<size_t>(r.window_s), 0.0);
  for (int64_t done : r.done_ns) {
    const size_t slice = static_cast<size_t>((done - r.start_ns) / 1000000000);
    if (slice < slices.size()) slices[slice] += 1;
  }
  if (!slices.empty()) {
    std::printf("diagnostics[%s]: qps per 1 s slice: min=%.1f p25=%.1f "
                "median=%.1f p75=%.1f max=%.1f\n",
                phase, *std::min_element(slices.begin(), slices.end()),
                perfbench::Percentile(slices, 0.25), Median(slices),
                perfbench::Percentile(slices, 0.75),
                *std::max_element(slices.begin(), slices.end()));
  }
  for (size_t k = 0; k < r.kind_ms.size(); ++k) {
    std::printf("diagnostics[%s]: mix entry %zu: n=%zu p50_ms=%.4f "
                "p99_ms=%.4f\n",
                phase, k, r.kind_ms[k].size(),
                perfbench::Percentile(r.kind_ms[k], 0.50),
                perfbench::Percentile(r.kind_ms[k], 0.99));
  }
  if (!r.write_ms.empty()) {
    std::printf("diagnostics[%s]: write_p50_ms=%.4f writes=%zu\n", phase,
                Median(r.write_ms), r.write_ms.size());
  }
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadConfig cfg;
  if (!ParseArgs(argc, argv, &args) ||
      !ConfigFor(args.workload, args.smoke, &cfg)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "paper_methods|scan_service|rw_snapshot --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--out-dir DIR]\n");
    return 2;
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf(
      "perfbench workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n"
      "build: build_type=%s compiler=\"%s\" nproc=%u client_threads=%zu "
      "engine_lanes=%zu docs=%u\n",
      cfg.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, args.smoke ? 1 : 0,
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, nproc, cfg.clients,
      cfg.lanes, cfg.docs);
  // More client threads plus lanes than cores would time the scheduler,
  // not the engine, and make the figures incomparable across hosts.
  if (!args.smoke && cfg.clients + cfg.lanes > nproc) {
    std::fprintf(stderr,
                 "perfbench: %s needs %zu client threads + engine lanes, "
                 "but this host has %u cores\n",
                 cfg.name.c_str(), cfg.clients + cfg.lanes, nproc);
    return 1;
  }

  // ------------------------------------------------------------ set-up
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fx;
  const int setups = args.trace ? 1 : cfg.setups;
  for (int i = 0; i < setups; ++i) {
    fx.reset();
    const int64_t start = NowNs();
    Result<std::unique_ptr<Fixture>> made = SetUp(cfg, args, i);
    setup_s.push_back(MsBetween(start, NowNs()) / 1e3);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    fx = std::move(made).value();
  }
  std::printf("setup: %d set-ups, seconds each:", setups);
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  if (fx->segments != nullptr) {
    storage::SegmentVersionRef version = fx->segments->VersionAt(
        fx->db->paragraph_class_id(), kEpochLatest);
    std::printf("storage: Paragraph in %zu segments, %llu pages, cache %zu "
                "pages\n",
                version == nullptr ? size_t{0} : version->segments.size(),
                static_cast<unsigned long long>(
                    fx->segments->pager()->page_count()),
                cfg.cache_pages);
  }

  // Oracle digests and the operation stream, both fixed by the seed.
  const std::vector<std::string>& read_queries =
      cfg.name == "paper_methods" ? kPaperMix
      : cfg.name == "scan_service" ? kScanMix
                                   : RwStream::OracleQueries();
  Result<std::vector<uint64_t>> oracle = OracleDigests(*fx, read_queries);
  if (!oracle.ok()) {
    std::fprintf(stderr, "oracle failed: %s\n",
                 oracle.status().ToString().c_str());
    return 1;
  }
  const uint64_t stream_seed = SplitMix(args.seed ^ 0x0b5ull);
  std::unique_ptr<OpStream> stream;
  if (cfg.name == "paper_methods") {
    stream = std::make_unique<MixStream>(&kPaperMix, oracle.value(),
                                         stream_seed);
  } else if (cfg.name == "rw_snapshot") {
    stream = std::make_unique<RwStream>(stream_seed, oracle.value(),
                                        static_cast<int64_t>(cfg.docs));
  }

  const bool optimize = cfg.paper_session;
  std::vector<BlockRunner> clients;
  for (size_t c = 0; c < cfg.clients; ++c) {
    clients.push_back(
        cfg.service
            ? ServiceClient(*fx, c,
                            std::make_unique<MixStream>(
                                &kScanMix, oracle.value(),
                                SplitMix(args.seed ^ (0x5c0ull + c))))
            : SubmitClient(*fx, stream.get(), optimize));
  }

  RunReport report;
  if (!args.trace) {
    PhaseResult r = RunClients(*fx, clients, args.seconds, nullptr, 0);
    PrintDiagnostics("untraced", r);
    report.metrics = EndToEndMetrics(r, Median(setup_s));
    report.attempted = r.attempted;
    report.failed = r.failed;
  } else {
    // Untraced and traced slices alternate through one window, so the
    // overhead estimate compares like host conditions.
    std::vector<Tracer> tracers;
    for (size_t c = 0; c < cfg.clients; ++c) tracers.emplace_back(1 << 16);
    const int64_t slice_ns = static_cast<int64_t>(
        std::min(0.5, std::max(0.05, args.seconds / 20)) * 1e9);
    PhaseResult r = RunClients(*fx, clients, args.seconds, &tracers, slice_ns);
    PrintDiagnostics("alternating", r);
    const double shadow_build =
        cfg.service ? ShadowBuildMs(*fx, kScanMix, args.smoke ? 2 : 20) : 0.0;

    // Span accounting: pipeline ops must be covered by their layer
    // spans within the tolerance; service ops must never report more
    // in-server time than the client saw (wire >= 0).
    constexpr double kTolerance = 0.05;
    const LayerSums& l = r.layers;
    const double accounted = Ratio(l.child_ms, l.root_ms);
    const bool spans_ok =
        l.root_ms > 0 && accounted <= 1.0 + kTolerance &&
        (cfg.service ? l.wire_violations == 0
                     : accounted >= 1.0 - kTolerance);
    std::printf(
        "trace: accounted_share=%.4f tolerance=%.2f wire_violations=%llu "
        "-> %s\n",
        accounted, kTolerance,
        static_cast<unsigned long long>(l.wire_violations),
        spans_ok ? "ok" : "FAIL");
    const bool parity_ok = TracedParity(*fx, read_queries, optimize);
    std::printf("trace: traced pipeline digests equal Submit's -> %s\n",
                parity_ok ? "ok" : "FAIL");
    report.checks_ok = spans_ok && parity_ok;
    report.metrics = PerLayerMetrics(r, cfg.clients, cfg.service,
                                     shadow_build, accounted);
    report.attempted = r.attempted;
    report.failed = r.failed;

    // Spans stay in memory during the run; write them out now.
    const std::string spans_path = args.out_dir + "/" + cfg.name + "-seed" +
                                   std::to_string(args.seed) + ".spans.jsonl";
    std::FILE* f = std::fopen(spans_path.c_str(), "w");
    size_t span_count = 0;
    for (size_t c = 0; c < tracers.size() && f != nullptr; ++c) {
      tracers[c].AppendJsonLines(f, c);
      span_count += tracers[c].spans().size();
    }
    if (f == nullptr || std::fclose(f) != 0) {
      std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    }
    std::printf("trace: %zu spans written to %s\n", span_count,
                spans_path.c_str());
  }

  fx.reset();  // stop the service and reclaimer before reporting
  for (const Metric& m : report.metrics) {
    std::printf("metric %-40s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const bool correct = report.failed == 0 && report.checks_ok;
  perfbench::PrintResultLine(correct, std::max<uint64_t>(report.attempted, 1),
                             report.failed, report.metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
