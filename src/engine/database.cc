#include "engine/database.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "algebra/translate.h"
#include "exec/vm.h"
#include "vql/parser.h"

namespace vodak {
namespace engine {

namespace {
double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Extent rows per batch when expanding an UPDATE/DELETE predicate.
constexpr size_t kWriteChunkRows = 1024;

/// Expands extent[begin, end) of an UPDATE/DELETE into `mutations`, in
/// extent order: WHERE as one batched predicate over the chunk under
/// `self`, then each SET expression as one batch over the survivors.
/// On a one-row chunk this is exactly the row-at-a-time expansion:
/// WHERE, then the SETs in list order.
Status ExpandWriteRows(const vql::BoundWrite& write,
                       const ExprEvaluator& evaluator,
                       const std::vector<Oid>& extent, size_t begin,
                       size_t end, std::vector<Mutation>* mutations) {
  static const std::vector<std::string> kNames = {"self"};
  std::vector<ValueColumn> columns(1);
  columns[0].reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    columns[0].push_back(Value::OfOid(extent[i]));
  }
  BatchEnv env;
  env.names = &kNames;
  env.columns = &columns;
  env.num_rows = end - begin;
  std::vector<uint32_t> survivors;
  if (write.where != nullptr) {
    std::vector<char> keep;
    VODAK_RETURN_IF_ERROR(
        evaluator.EvalPredicateBatch(write.where, env, &keep));
    for (size_t row = 0; row < keep.size(); ++row) {
      if (keep[row]) survivors.push_back(static_cast<uint32_t>(row));
    }
    if (survivors.empty()) return Status::OK();
    env.sel = survivors.data();
    env.sel_count = survivors.size();
  }
  const size_t rows = env.active_rows();
  if (write.kind == vql::WriteStatement::Kind::kDelete) {
    for (size_t k = 0; k < rows; ++k) {
      mutations->push_back(Mutation::Delete(extent[begin + env.RowAt(k)]));
    }
    return Status::OK();
  }
  std::vector<ValueColumn> values;
  values.reserve(write.sets.size());
  for (const auto& [slot, expr] : write.sets) {
    VODAK_ASSIGN_OR_RETURN(ValueColumn column, evaluator.EvalBatch(expr, env));
    values.push_back(std::move(column));
  }
  for (size_t k = 0; k < rows; ++k) {
    std::vector<std::pair<uint32_t, Value>> sets;
    sets.reserve(write.sets.size());
    for (size_t j = 0; j < write.sets.size(); ++j) {
      sets.emplace_back(write.sets[j].first, std::move(values[j][k]));
    }
    mutations->push_back(
        Mutation::Update(extent[begin + env.RowAt(k)], std::move(sets)));
  }
  return Status::OK();
}
}  // namespace

Database::Database(const Catalog* catalog, ObjectStore* store,
                   MethodRegistry* methods)
    : catalog_(catalog),
      store_(store),
      methods_(methods),
      knowledge_(catalog) {}

void Database::AddStatsProvider(opt::MethodStatsProvider provider) {
  providers_.push_back(std::move(provider));
}

Status Database::GenerateOptimizer(opt::OptimizerOptions options) {
  options_ = options;
  semantics::OptimizerGenerator generator(catalog_, store_, methods_);
  VODAK_ASSIGN_OR_RETURN(module_,
                         generator.Generate(&knowledge_, providers_,
                                            options));
  return Status::OK();
}

Result<vql::BoundQuery> Database::Parse(const std::string& vql) const {
  VODAK_ASSIGN_OR_RETURN(vql::Query query, vql::ParseQuery(vql));
  vql::Binder binder(catalog_);
  return binder.Bind(query);
}

Result<QueryResult> Database::PlanQuery(const std::string& vql,
                                        const PlanOptions& options,
                                        vql::BoundQuery* bound_out) {
  VODAK_ASSIGN_OR_RETURN(vql::BoundQuery bound, Parse(vql));

  // A throwaway algebra context suffices when no optimizer was
  // generated.
  algebra::AlgebraContext local_ctx(catalog_);
  const algebra::AlgebraContext& ctx =
      module_.algebra != nullptr ? *module_.algebra : local_ctx;

  QueryResult out;
  VODAK_ASSIGN_OR_RETURN(out.original_plan, algebra::TranslateQuery(ctx, bound));
  out.chosen_plan = out.original_plan;

  if (options.optimize) {
    if (module_.optimizer == nullptr) {
      return Status::InvalidArgument(
          "no optimizer generated; call GenerateOptimizer() first");
    }
    opt::OptimizerOptions run_options = options_;
    run_options.enable_trace = options.trace;
    opt::Optimizer tracer(module_.algebra.get(), module_.cost.get(),
                          module_.optimizer->rules(), run_options);
    auto start = std::chrono::steady_clock::now();
    VODAK_ASSIGN_OR_RETURN(opt::OptimizeResult opt_result,
                           tracer.Optimize(out.original_plan));
    out.optimize_ms = MsSince(start);
    out.chosen_plan = opt_result.best_plan;
    out.chosen_cost = opt_result.best_cost;
    out.original_cost = opt_result.original_cost;
    out.memo_groups = opt_result.group_count;
    out.memo_exprs = opt_result.expr_count;
    out.rule_applications = opt_result.rule_applications;
    out.trace = std::move(opt_result.trace);
  }

  if (bound_out != nullptr) *bound_out = std::move(bound);
  return out;
}

Result<PreparedQuery> Database::Prepare(const std::string& vql,
                                        const PlanOptions& options) {
  vql::BoundQuery bound;
  PreparedQuery prepared;
  VODAK_ASSIGN_OR_RETURN(prepared.planned,
                         PlanQuery(vql, options, &bound));
  prepared.result_ref = algebra::ResultRef(bound);
  return prepared;
}

Status Database::ExecuteSingle(const QueryRequest& request,
                               const std::string& result_ref,
                               QueryResult* result, QueryStats* stats,
                               Epoch snapshot) {
  exec::ExecContext exec_ctx{catalog_, store_, methods_};
  exec_ctx.cancel = request.cancel;
  exec_ctx.deadline = request.deadline;
  exec_ctx.snapshot_epoch = snapshot;
  exec_ctx.segments = segments_;
  VODAK_ASSIGN_OR_RETURN(
      exec::PhysOpPtr root,
      exec::BuildPhysical(result->chosen_plan, exec_ctx));
  result->physical_explain = exec::ExplainPhysical(*root);
  const size_t threads = exec::ResolveThreads(request.run.threads);
  auto start = std::chrono::steady_clock::now();
  exec::ParallelPlanStatePtr pstate;
  if (threads > 1) {
    // Probe for a parallelizable driving scan up front, so plans with
    // none (set ops on the driving path) reuse the already-built
    // serial tree instead of paying a second plan build in the driver.
    VODAK_ASSIGN_OR_RETURN(
        pstate,
        exec::PrepareParallelPlan(result->chosen_plan, exec_ctx, threads,
                                  request.run.morsel_size));
  }
  if (pstate != nullptr) {
    exec::ParallelOptions popts;
    popts.threads = threads;
    popts.morsel_size = request.run.morsel_size;
    popts.pool = EnsurePool(threads);
    // The serial tree above is only the EXPLAIN skeleton; mark that
    // execution actually ran worker clones over shared morsels.
    result->physical_explain +=
        "[parallel: threads=" + std::to_string(threads) +
        ", morsel<=" + std::to_string(popts.morsel_size) +
        "; driving scan executed as per-worker MorselScan clones]\n";
    VODAK_ASSIGN_OR_RETURN(
        result->result,
        exec::ParallelExecuteColumn(result->chosen_plan, exec_ctx,
                                    result_ref, popts,
                                    std::move(pstate)));
  } else {
    // Serial drains may lower the plan to the bytecode VM (exec/vm.h):
    // the same ExecuteColumn drives either root, so the engine above
    // cannot tell compiled from interpreted execution.
    if (request.run.vm != VmMode::kOff) {
      VODAK_ASSIGN_OR_RETURN(
          exec::VmChoice vm,
          exec::TryCompileVm(result->chosen_plan, exec_ctx,
                             request.run.vm == VmMode::kForce));
      result->physical_explain += vm.annotation;
      if (vm.compiled) root = std::move(vm.op);
    }
    VODAK_ASSIGN_OR_RETURN(
        result->result,
        exec::ExecuteColumn(root.get(), result_ref));
  }
  stats->drain_ms = MsSince(start);
  result->execute_ms = stats->drain_ms;
  return Status::OK();
}

Result<std::vector<Mutation>> Database::BuildMutations(
    const vql::BoundWrite& write) const {
  const ExprEvaluator evaluator(catalog_, store_, methods_);
  std::vector<Mutation> mutations;
  if (write.kind == vql::WriteStatement::Kind::kInsert) {
    std::vector<std::pair<uint32_t, Value>> sets;
    sets.reserve(write.sets.size());
    for (const auto& [slot, expr] : write.sets) {
      VODAK_ASSIGN_OR_RETURN(Value v, evaluator.Eval(expr, {}));
      sets.emplace_back(slot, std::move(v));
    }
    mutations.push_back(Mutation::Insert(write.class_id, std::move(sets)));
    return mutations;
  }
  // UPDATE / DELETE: expand the predicate over the current extent. The
  // caller holds write_mu_, so no other writer can move the extent
  // between this scan and the Apply.
  VODAK_ASSIGN_OR_RETURN(std::vector<Oid> extent,
                         store_->Extent(write.class_id));
  for (size_t begin = 0; begin < extent.size(); begin += kWriteChunkRows) {
    const size_t end = std::min(extent.size(), begin + kWriteChunkRows);
    Status chunk =
        ExpandWriteRows(write, evaluator, extent, begin, end, &mutations);
    if (chunk.ok()) continue;
    // A batch reports the first failing expression over the chunk, not
    // necessarily the first failing row. Replaying the chunk one row at
    // a time reports the error the row-at-a-time order meets first.
    for (size_t row = begin; row < end; ++row) {
      VODAK_RETURN_IF_ERROR(
          ExpandWriteRows(write, evaluator, extent, row, row + 1,
                          &mutations));
    }
    return chunk;
  }
  return mutations;
}

Status Database::ExecuteWrite(const QueryRequest& request,
                              QueryResult* result, QueryStats* stats) {
  auto plan_start = std::chrono::steady_clock::now();
  UniqueLock lock(write_mu_);
  std::vector<Mutation> mutations;
  bool vql_insert = false;
  if (!request.mutations.empty()) {
    mutations = request.mutations;
  } else {
    VODAK_ASSIGN_OR_RETURN(vql::WriteStatement stmt,
                           vql::ParseWrite(request.vql));
    vql::Binder binder(catalog_);
    VODAK_ASSIGN_OR_RETURN(vql::BoundWrite write, binder.BindWrite(stmt));
    vql_insert = write.kind == vql::WriteStatement::Kind::kInsert;
    VODAK_ASSIGN_OR_RETURN(mutations, BuildMutations(write));
  }
  stats->plan_ms = MsSince(plan_start);

  auto apply_start = std::chrono::steady_clock::now();
  ObjectStore::BeforePublish close_segments;
  if (segments_ != nullptr) {
    // Segment data predates this commit: close the touched classes'
    // open versions at the commit epoch, so readers pinned below it
    // keep the segment path while later snapshots fall back to the
    // store until the class is re-ingested. This runs before the
    // commit epoch is published: a reader that pins the new epoch must
    // never find the stale open version.
    close_segments = [this, &mutations](Epoch commit) {
      std::set<uint32_t> touched;
      for (const Mutation& m : mutations) {
        touched.insert(m.kind == Mutation::Kind::kInsert ? m.class_id
                                                         : m.oid.class_id);
      }
      for (uint32_t class_id : touched) {
        segments_->CloseVersions(class_id, commit);
      }
    };
  }
  VODAK_ASSIGN_OR_RETURN(MutationResult applied,
                         store_->Apply(mutations, close_segments));
  stats->drain_ms = MsSince(apply_start);
  result->execute_ms = stats->drain_ms;
  // A write's "snapshot" is the epoch its batch committed as — the
  // first epoch at which its effects are visible.
  result->snapshot_epoch = applied.epoch;
  stats->snapshot_epoch = applied.epoch;

  // Result shape: creations yield the created oids (a set, like a
  // read); pure update/delete batches yield the affected-object count.
  if (!applied.created.empty() || vql_insert) {
    std::vector<Value> oids;
    oids.reserve(applied.created.size());
    for (Oid oid : applied.created) oids.push_back(Value::OfOid(oid));
    result->result = Value::Set(std::move(oids));
  } else {
    result->result =
        Value::Int(static_cast<int64_t>(applied.updated + applied.deleted));
  }
  return Status::OK();
}

Status Database::RefreshSegments() {
  if (segments_ == nullptr) return Status::OK();
  const Epoch at = store_->CurrentEpoch();
  for (const auto& cls : catalog_->classes()) {
    uint32_t slot_count = 0;
    for (const PropertyDef& prop : cls->properties()) {
      slot_count = std::max(slot_count, prop.slot + 1);
    }
    VODAK_RETURN_IF_ERROR(
        segments_->IngestClass(*store_, cls->class_id(), slot_count, at));
  }
  return Status::OK();
}

std::vector<QueryOutcome> Database::Submit(
    const std::vector<QueryRequest>& requests,
    const SubmitOptions& options) {
  std::vector<QueryOutcome> out(requests.size());
  // Plan serially (the optimizer module is not built for concurrent
  // Optimize calls); the drains below overlap. A request that is
  // already cancelled or expired is rejected here, before planning.
  // Write requests commit right here, in request order, during this
  // admission pass — so the snapshot the batch's readers pin below
  // already contains every write the batch carried.
  std::vector<size_t> runnable;
  std::vector<exec::ConcurrentQuery> plans;
  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryRequest& request = requests[i];
    QueryOutcome& o = out[i];
    o.status = exec::CheckQueryAlive(request.cancel, request.deadline);
    if (!o.status.ok()) continue;
    if (!request.mutations.empty() || vql::IsWriteStatement(request.vql)) {
      o.status = ExecuteWrite(request, &o.result, &o.stats);
      continue;
    }
    auto plan_start = std::chrono::steady_clock::now();
    vql::BoundQuery bound;
    Result<QueryResult> planned = PlanQuery(request.vql, request.plan,
                                            &bound);
    o.stats.plan_ms = MsSince(plan_start);
    if (!planned.ok()) {
      o.status = planned.status();
      continue;
    }
    o.result = std::move(planned).value();
    if (!request.run.execute) {
      o.result.result = Value::Set({});
      continue;
    }
    exec::ConcurrentQuery query;
    query.plan = o.result.chosen_plan;
    query.result_ref = algebra::ResultRef(bound);
    query.cancel = request.cancel;
    query.deadline = request.deadline;
    runnable.push_back(i);
    plans.push_back(std::move(query));
  }
  if (runnable.empty()) return out;

  // Pin the batch's read snapshot: one epoch for every reader, taken
  // after the batch's writes committed. Versions visible at this epoch
  // survive reclaim until the pin drops at the end of the drain.
  EpochPin pin(store_);
  for (size_t i : runnable) {
    out[i].stats.snapshot_epoch = pin.epoch();
    out[i].result.snapshot_epoch = pin.epoch();
  }

  if (runnable.size() == 1) {
    // A lone query gets the intra-query morsel-parallel path: its
    // RunOptions::threads splits the one plan over morsels instead of
    // the batch lanes splitting queries.
    QueryOutcome& o = out[runnable[0]];
    o.stats.generation_id = NextGenerationId();
    o.status = ExecuteSingle(requests[runnable[0]], plans[0].result_ref,
                             &o.result, &o.stats, pin.epoch());
    return out;
  }

  exec::ExecContext exec_ctx{catalog_, store_, methods_};
  exec_ctx.snapshot_epoch = pin.epoch();
  exec_ctx.segments = segments_;
  // The EXPLAIN skeleton is the serial private-leaf tree, like the
  // morsel-parallel path's; the note below records how the leaves
  // actually executed. The workers rebuild their own (shared-leaf)
  // trees — these skeletons are plan construction only, no Open, and
  // operator trees are a handful of nodes.
  for (size_t i = 0; i < runnable.size(); ++i) {
    Result<exec::PhysOpPtr> root =
        exec::BuildPhysical(plans[i].plan, exec_ctx);
    if (root.ok()) {
      out[runnable[i]].result.physical_explain =
          exec::ExplainPhysical(*root.value());
    }
  }
  exec::ConcurrentOptions copts;
  copts.threads = exec::ResolveThreads(options.lanes);
  copts.morsel_size = options.morsel_size;
  copts.shared_scan = options.shared_scan;
  copts.pool = EnsurePoolExact(std::min(copts.threads, plans.size()));
  const uint64_t generation = NextGenerationId();
  Result<std::vector<exec::ConcurrentQueryOutcome>> outcomes =
      exec::ExecuteConcurrentOutcomes(plans, exec_ctx, copts);
  if (!outcomes.ok()) {
    for (size_t i : runnable) out[i].status = outcomes.status();
    return out;
  }
  for (size_t i = 0; i < runnable.size(); ++i) {
    QueryOutcome& o = out[runnable[i]];
    exec::ConcurrentQueryOutcome& oc = outcomes.value()[i];
    o.status = oc.status;
    o.result.result = std::move(oc.value);
    o.stats.queue_ms = oc.queue_ms;
    o.stats.drain_ms = oc.drain_ms;
    o.stats.generation_id = generation;
    // The honest per-query number: this drain, not the batch's.
    o.result.execute_ms = oc.drain_ms;
    o.result.physical_explain +=
        "[concurrent batch of " + std::to_string(plans.size()) +
        (options.shared_scan ? ": scan leaves attached to shared scans]\n"
                             : ": private-scan baseline]\n");
  }
  return out;
}

Result<QueryResult> Database::Run(const std::string& vql,
                                  const PlanOptions& plan,
                                  const RunOptions& run) {
  QueryRequest request;
  request.vql = vql;
  request.plan = plan;
  request.run = run;
  std::vector<QueryOutcome> outcomes = Submit({request});
  VODAK_RETURN_IF_ERROR(outcomes[0].status);
  return std::move(outcomes[0].result);
}

Result<std::vector<QueryResult>> Database::RunConcurrent(
    const std::vector<std::string>& queries, const SubmitOptions& options,
    const PlanOptions& plan, const RunOptions& run) {
  std::vector<QueryResult> out;
  if (queries.empty()) return out;  // nothing to plan, no pool to spawn
  std::vector<QueryRequest> requests;
  requests.reserve(queries.size());
  for (const std::string& vql : queries) {
    QueryRequest request;
    request.vql = vql;
    request.plan = plan;
    request.run = run;
    requests.push_back(std::move(request));
  }
  std::vector<QueryOutcome> outcomes = Submit(requests, options);
  out.reserve(outcomes.size());
  for (QueryOutcome& outcome : outcomes) {
    VODAK_RETURN_IF_ERROR(outcome.status);
    out.push_back(std::move(outcome.result));
  }
  return out;
}

exec::WorkerPool* Database::EnsurePool(size_t threads) {
  if (pool_ == nullptr || pool_->parallelism() < threads) {
    pool_ = std::make_unique<exec::WorkerPool>(threads);
  }
  return pool_.get();
}

exec::WorkerPool* Database::EnsurePoolExact(size_t threads) {
  if (pool_ == nullptr || pool_->parallelism() != threads) {
    pool_ = std::make_unique<exec::WorkerPool>(threads);
  }
  return pool_.get();
}

Result<Value> Database::RunNaive(
    const std::string& vql,
    const vql::Interpreter::Options& options) const {
  VODAK_ASSIGN_OR_RETURN(vql::BoundQuery bound, Parse(vql));
  vql::Interpreter interpreter(catalog_, store_, methods_);
  return interpreter.Run(bound, options);
}

Result<std::vector<Value>> Database::RunNaiveConcurrent(
    const std::vector<std::string>& queries,
    vql::Interpreter::Options options) const {
  // Pin one snapshot for the whole batch (unless the caller already
  // chose one) so the shared extents and the per-query property reads
  // agree even when a writer commits mid-batch.
  EpochPin pin(store_);
  if (options.snapshot_epoch == kEpochLatest) {
    options.snapshot_epoch = pin.epoch();
  }
  exec::SharedScanManager manager(store_, options.morsel_size,
                                  options.snapshot_epoch, segments_);
  options.shared_scans = &manager;
  vql::Interpreter interpreter(catalog_, store_, methods_);
  std::vector<Value> out;
  out.reserve(queries.size());
  for (const std::string& vql : queries) {
    VODAK_ASSIGN_OR_RETURN(vql::BoundQuery bound, Parse(vql));
    VODAK_ASSIGN_OR_RETURN(Value result, interpreter.Run(bound, options));
    out.push_back(std::move(result));
  }
  return out;
}

Result<std::string> Database::Explain(const std::string& vql,
                                      const PlanOptions& plan,
                                      const RunOptions& run) {
  VODAK_ASSIGN_OR_RETURN(QueryResult result, Run(vql, plan, run));
  std::string out;
  out += "== VQL ==\n" + vql + "\n";
  out += "== algebra (translated, cost " +
         std::to_string(result.original_cost) + ") ==\n";
  out += result.original_plan->ToTreeString();
  out += "== algebra (optimized, cost " +
         std::to_string(result.chosen_cost) + ") ==\n";
  out += result.chosen_plan->ToTreeString();
  out += "== physical plan ==\n" + result.physical_explain;
  if (!result.trace.empty()) {
    out += "== rule applications (" +
           std::to_string(result.trace.size()) + ") ==\n";
    for (const auto& entry : result.trace) {
      out += "  [" + entry.rule + "]\n    " + entry.before + "\n    => " +
             entry.after + "\n";
    }
  }
  return out;
}

}  // namespace engine
}  // namespace vodak
