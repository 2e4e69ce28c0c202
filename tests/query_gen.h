// Seeded random VQL query generator shared by the differential suites
// (tests/vm_diff_test.cc and friends): ACCESS queries over a dedicated
// "Item" class with nested AND/OR/NOT predicates, arithmetic maps,
// tuple projections and a NULL-heavy property, so generated corpora
// exercise three-valued predicate semantics, selection-vector
// narrowing and project-dedup without ever generating a query whose
// semantics differ between the batch pipeline, the bytecode VM and the
// row-mode oracle (no division, no arithmetic on nullable properties —
// those would inject TypeErrors rather than result differences).
// Seeds come from tests/test_seed.h: any failing query replays with
// --seed=N / VODAK_TEST_SEED=N plus the printed query text.
#ifndef VODAK_TESTS_QUERY_GEN_H_
#define VODAK_TESTS_QUERY_GEN_H_

#include <random>
#include <string>
#include <utility>

namespace vodak {
namespace testing {

/// The generator's schema contract: callers must define a class named
/// Item with int properties v1 (dense ascending), v2 (small residues),
/// v3 (NULL-heavy: left unset on a fraction of objects) and bucket
/// (small residues). MakeItemCorpus in vm_diff_test.cc is the
/// reference population.
class QueryGenerator {
 public:
  /// `var` names the Item variable in generated text: "a" in ACCESS
  /// queries, "self" in the predicates of UPDATE/DELETE statements.
  explicit QueryGenerator(uint64_t seed, std::string var = "a")
      : rng_(seed), var_(std::move(var)) {}

  /// One random ACCESS query over Item. Shapes covered: bare scans,
  /// predicate chains (nested AND/OR/NOT over total-order compares and
  /// arithmetic operands), maps hidden inside projected expressions,
  /// single-value and tuple projections — every query is valid VQL and
  /// error-free on any Item corpus.
  std::string NextQuery() {
    std::string query =
        "ACCESS " + Projection() + " FROM " + var_ + " IN Item";
    if (Pick(8) != 0) query += " WHERE " + Condition(0);
    return query;
  }

  /// One random WHERE condition over the variable: the predicate
  /// shapes NextQuery draws from.
  std::string NextCondition() { return Condition(0); }

 private:
  int Pick(int n) { return static_cast<int>(rng_() % n); }

  /// A property read on the variable.
  std::string P(const char* prop) const { return var_ + "." + prop; }

  std::string Projection() {
    switch (Pick(6)) {
      case 0:
        return var_;
      case 1:
        return P("v1");
      case 2:
        // The NULL-heavy column: projected NILs must survive all
        // three engines identically.
        return P("v3");
      case 3:
        return "[x: " + P("v1") + ", y: " + P("bucket") + "]";
      case 4:
        // A map riding inside the projection (binds a fresh reference
        // in the translated plan).
        return P("v1") + " + " + P("v2");
      default:
        return "[x: " + P("v2") + ", y: " + P("v3") + "]";
    }
  }

  /// A comparison operand: a property, or arithmetic over the
  /// never-NULL properties (arithmetic on v3 could raise a TypeError,
  /// which is an error-path difference, not a result difference — the
  /// differential corpus stays inside defined behavior).
  std::string Operand() {
    switch (Pick(5)) {
      case 0:
        return P("v1");
      case 1:
        return P("v2");
      case 2:
        return P("v3");  // compares against NIL are total, never error
      case 3:
        return P("v1") + " + " + std::to_string(Pick(50));
      default:
        return P("v2") + " * " + std::to_string(1 + Pick(5));
    }
  }

  std::string Compare() {
    static const char* kOps[] = {"==", "!=", "<", "<=", ">", ">="};
    const std::string op = kOps[Pick(6)];
    const std::string constant =
        std::to_string(Pick(250) - (Pick(4) == 0 ? 250 : 0));
    // Constant on either side: the VM's native lowering has a
    // dedicated const-on-the-left path that must stay covered.
    if (Pick(4) == 0) return constant + " " + op + " " + Operand();
    return Operand() + " " + op + " " + constant;
  }

  /// Nested AND/OR/NOT tree, depth-bounded. NULL-heavy operands make
  /// the three-valued corner (NIL compares, NIL predicate results)
  /// common rather than rare.
  std::string Condition(int depth) {
    if (depth >= 3 || Pick(3) == 0) return Compare();
    switch (Pick(3)) {
      case 0:
        return "(" + Condition(depth + 1) + " AND " +
               Condition(depth + 1) + ")";
      case 1:
        return "(" + Condition(depth + 1) + " OR " +
               Condition(depth + 1) + ")";
      default:
        return "(NOT " + Condition(depth + 1) + ")";
    }
  }

  std::mt19937_64 rng_;
  std::string var_;
};

}  // namespace testing
}  // namespace vodak

#endif  // VODAK_TESTS_QUERY_GEN_H_
