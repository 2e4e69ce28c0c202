// End-to-end tests of the query service: protocol parsing, the socket
// front-end, shared-scan generations, per-query deadlines and
// cancellation over the wire (docs/ARCHITECTURE.md §"Query service &
// admission control").
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "service/generation.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "vql/interpreter.h"
#include "workload/document_db.h"

namespace vodak {
namespace service {
namespace {

// ------------------------------------------------------- protocol

TEST(ProtocolTest, ParsesRequestLines) {
  auto q = ParseRequestLine("Q q1 250 ACCESS p FROM p IN Paragraph");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().kind, Request::Kind::kQuery);
  EXPECT_EQ(q.value().id, "q1");
  EXPECT_EQ(q.value().deadline_ms, 250.0);
  EXPECT_EQ(q.value().vql, "ACCESS p FROM p IN Paragraph");

  auto c = ParseRequestLine("C q1");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value().kind, Request::Kind::kCancel);
  EXPECT_EQ(c.value().id, "q1");

  auto s = ParseRequestLine("S");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().kind, Request::Kind::kStats);

  EXPECT_FALSE(ParseRequestLine("").ok());
  EXPECT_FALSE(ParseRequestLine("X nope").ok());
  EXPECT_FALSE(ParseRequestLine("Q q1").ok());
  EXPECT_FALSE(ParseRequestLine("Q q1 -5 ACCESS ...").ok());
  EXPECT_FALSE(ParseRequestLine("Q q1 abc ACCESS ...").ok());
  EXPECT_FALSE(ParseRequestLine("Q q1 10 ").ok());
}

TEST(ProtocolTest, ReplyLineRoundTrips) {
  engine::QueryStats stats;
  stats.queue_ms = 1.5;
  stats.plan_ms = 0.25;
  stats.drain_ms = 3.75;
  stats.generation_id = 7;
  stats.attached_late = true;
  Value result = Value::Set({Value::Int(1), Value::Int(2)});
  const std::string ok_line =
      FormatReplyLine("q9", Status::OK(), &result, stats);
  auto ok = ParseReplyLine(ok_line);
  ASSERT_TRUE(ok.ok()) << ok_line;
  EXPECT_TRUE(ok.value().ok());
  EXPECT_EQ(ok.value().id, "q9");
  EXPECT_EQ(ok.value().rows, 2u);
  EXPECT_EQ(ok.value().hash, DigestHex(ResultDigest(result)));
  EXPECT_EQ(ok.value().stats.generation_id, 7u);
  EXPECT_TRUE(ok.value().stats.attached_late);
  EXPECT_DOUBLE_EQ(ok.value().stats.drain_ms, 3.75);

  const std::string bad_line = FormatReplyLine(
      "q2", Status::DeadlineExceeded("too slow by far"), nullptr, stats);
  auto bad = ParseReplyLine(bad_line);
  ASSERT_TRUE(bad.ok()) << bad_line;
  EXPECT_EQ(bad.value().status, "DEADLINE_EXCEEDED");
  EXPECT_EQ(bad.value().message, "too slow by far");

  const std::string err_line =
      FormatReplyLine("q3", Status::ParseError("boom"), nullptr, stats);
  auto err = ParseReplyLine(err_line);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err.value().status, "ERROR:ParseError");
}

TEST(ProtocolTest, StatsLineRoundTrips) {
  ServiceStats stats;
  stats.queries_admitted = 10;
  stats.queries_ok = 7;
  stats.queries_cancelled = 1;
  stats.queries_expired = 1;
  stats.queries_failed = 1;
  stats.generations = 3;
  stats.late_attached = 2;
  stats.extent_passes = 5;
  stats.property_reads = 40;
  auto parsed = ParseStatsLine(FormatStatsLine(stats));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().queries_admitted, 10u);
  EXPECT_EQ(parsed.value().queries_ok, 7u);
  EXPECT_EQ(parsed.value().generations, 3u);
  EXPECT_EQ(parsed.value().late_attached, 2u);
  EXPECT_EQ(parsed.value().property_reads, 40u);
}

TEST(ProtocolTest, DigestIsOrderInsensitiveViaCanonicalSets) {
  // Sets are canonical, so two routes to the same set digest equally.
  Value a = Value::Set({Value::Int(3), Value::Int(1), Value::Int(2)});
  Value b = Value::Set({Value::Int(2), Value::Int(3), Value::Int(1)});
  EXPECT_EQ(ResultDigest(a), ResultDigest(b));
  Value c = Value::Set({Value::Int(1), Value::Int(2)});
  EXPECT_NE(ResultDigest(a), ResultDigest(c));
  EXPECT_EQ(DigestHex(ResultDigest(a)).size(), 16u);
}

/// The digest as first specified: FNV-1a over each element's
/// ToString bytes plus a 0x1f separator. ResultDigest renders scalars
/// without building those strings; its bytes must not drift.
uint64_t ToStringDigest(const Value& value) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0x1f;
    h *= 1099511628211ull;
  };
  if (value.is_set()) {
    for (const Value& v : value.AsSet()) mix(v.ToString());
  } else {
    mix(value.ToString());
  }
  return h;
}

TEST(ProtocolTest, DigestMatchesToStringReferenceForEveryKind) {
  const std::vector<Value> sets = {
      Value::Set({}),
      Value::Set({Value::OfOid(Oid(2, 1)), Value::OfOid(Oid(2, 40000)),
                  Value::OfOid(Oid(4294967295u, 4294967295u)),
                  Value::OfOid(Oid())}),
      Value::Set({Value::Int(0), Value::Int(-7), Value::Int(INT64_MIN),
                  Value::Int(INT64_MAX), Value::Int(1234567)}),
      Value::Set({Value::String(""), Value::String("it's"),
                  Value::String("Query Optimization"),
                  Value::String("\xe9t\xe9")}),
      Value::Set({Value::Bool(true), Value::Bool(false)}),
      Value::Set({Value::Null()}),
      Value::Set({Value::Real(2.5), Value::Real(-0.125), Value::Real(1e300)}),
      Value::Set({Value::Set({Value::Int(1), Value::Int(2)}),
                  Value::Array({Value::OfOid(Oid(1, 1))}),
                  Value::Tuple({{"n", Value::Int(3)}, {"t", Value::String("x")}}),
                  Value::Dict({{Value::Int(1), Value::String("a")}})}),
      Value::Set({Value::Null(), Value::Int(3), Value::Real(3.5),
                  Value::String("s"), Value::OfOid(Oid(5, 6))}),
  };
  for (const Value& s : sets) {
    EXPECT_EQ(ResultDigest(s), ToStringDigest(s)) << s.ToString();
  }
  // Non-set results digest as one element.
  for (const Value& v : {Value::Int(-42), Value::OfOid(Oid(7, 8)),
                         Value::String("q"), Value::Null(),
                         Value::Real(0.5)}) {
    EXPECT_EQ(ResultDigest(v), ToStringDigest(v)) << v.ToString();
  }
}

TEST(ProtocolTest, DigestOfFixedOidSetIsPinned) {
  // A literal pin: any drift in element rendering or mixing changes
  // every hash= on the wire, and this value with it.
  const Value s = Value::Set({Value::OfOid(Oid(3, 7)),
                              Value::OfOid(Oid(2, 1)),
                              Value::OfOid(Oid(2, 4))});
  EXPECT_EQ(DigestHex(ResultDigest(s)), "d3093ae61738098a");
  EXPECT_EQ(DigestHex(ResultDigest(Value::Set({Value::Int(1),
                                               Value::Int(2)}))),
            "1f815a281a83c12c");
}

// ---------------------------------------------------- socket client

/// A minimal blocking line client for the tests.
class LineClient {
 public:
  explicit LineClient(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0;
  }
  ~LineClient() {
    if (fd_ >= 0) close(fd_);
  }

  bool connected() const { return connected_; }

  void Send(const std::string& line) {
    const std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n =
          send(fd_, framed.data() + sent, framed.size() - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }

  /// Blocks until one full line arrives.
  std::string ReadLine() {
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[1024];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

// ----------------------------------------------------- service tests

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Init().ok());
    workload::CorpusParams params;
    params.num_documents = 12;
    params.sections_per_document = 2;
    params.paragraphs_per_section = 3;
    ASSERT_TRUE(db_.Populate(params).ok());
    session_ = std::make_unique<engine::Database>(
        &db_.catalog(), &db_.store(), &db_.methods());
  }

  Value Oracle(const std::string& vql) {
    vql::Interpreter::Options row_mode;
    row_mode.row_mode = true;
    auto result = session_->RunNaive(vql, row_mode);
    EXPECT_TRUE(result.ok()) << vql;
    return result.ok() ? result.value() : Value();
  }

  workload::DocumentDb db_;
  std::unique_ptr<engine::Database> session_;
};

TEST_F(ServiceTest, AnswersQueriesCorrectlyOverTheWire) {
  QueryService service(session_.get());
  ASSERT_TRUE(service.Start().ok());
  LineClient client(service.port());
  ASSERT_TRUE(client.connected());

  const std::vector<std::string> queries = {
      "ACCESS p.number FROM p IN Paragraph",
      "ACCESS d.title FROM d IN Document",
      "ACCESS s FROM s IN Section WHERE s.number == 1",
  };
  for (size_t i = 0; i < queries.size(); ++i) {
    client.Send("Q q" + std::to_string(i) + " 0 " + queries[i]);
  }
  std::vector<bool> seen(queries.size(), false);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto reply = ParseReplyLine(client.ReadLine());
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply.value().ok()) << reply.value().message;
    const size_t idx = reply.value().id[1] - '0';
    ASSERT_LT(idx, queries.size());
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;
    const Value expect = Oracle(queries[idx]);
    EXPECT_EQ(reply.value().hash, DigestHex(ResultDigest(expect)))
        << queries[idx];
    EXPECT_EQ(reply.value().rows, expect.AsSet().size());
    EXPECT_GT(reply.value().stats.generation_id, 0u);
  }
  service.Stop();
}

TEST_F(ServiceTest, TinyDeadlineExpiresDeterministically) {
  QueryService service(session_.get());
  ASSERT_TRUE(service.Start().ok());
  LineClient client(service.port());
  ASSERT_TRUE(client.connected());

  // 1e-6 ms expires before admission can possibly look at it.
  client.Send("Q dead 0.000001 ACCESS p FROM p IN Paragraph");
  auto reply = ParseReplyLine(client.ReadLine());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().status, "DEADLINE_EXCEEDED");
  EXPECT_EQ(reply.value().stats.generation_id, 0u);

  // The service is not wedged: the next query drains normally.
  client.Send("Q live 0 ACCESS d.title FROM d IN Document");
  auto live = ParseReplyLine(client.ReadLine());
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live.value().ok()) << live.value().message;
  EXPECT_EQ(live.value().hash,
            DigestHex(ResultDigest(
                Oracle("ACCESS d.title FROM d IN Document"))));
  service.Stop();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries_expired, 1u);
  EXPECT_EQ(stats.queries_ok, 1u);
}

TEST_F(ServiceTest, CancelCommandAndBadLinesDoNotWedgeTheService) {
  QueryService service(session_.get());
  ASSERT_TRUE(service.Start().ok());
  LineClient client(service.port());
  ASSERT_TRUE(client.connected());

  // A malformed line answers E and leaves the connection usable.
  client.Send("BOGUS");
  std::string e_line = client.ReadLine();
  ASSERT_FALSE(e_line.empty());
  EXPECT_EQ(e_line[0], 'E');

  // Cancelling an unknown id is a no-op, not an error.
  client.Send("C ghost");

  // A parse failure in VQL comes back as ERROR:..., not a dead socket.
  client.Send("Q broken 0 THIS IS NOT VQL");
  auto broken = ParseReplyLine(client.ReadLine());
  ASSERT_TRUE(broken.ok());
  EXPECT_EQ(broken.value().status.find("ERROR:"), 0u) << broken.value().status;

  // And real work still flows afterwards.
  client.Send("Q ok 0 ACCESS p.number FROM p IN Paragraph");
  auto ok = ParseReplyLine(client.ReadLine());
  ASSERT_TRUE(ok.ok());
  ASSERT_TRUE(ok.value().ok());

  // S reports coherent counters. (The generation counter itself is
  // bumped by the executor after the drain's replies are already out,
  // so it is asserted on the post-Stop snapshot below instead.)
  client.Send("S");
  auto stats = ParseStatsLine(client.ReadLine());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().queries_ok, 1u);
  EXPECT_EQ(stats.value().queries_failed, 0u);
  service.Stop();
  EXPECT_GE(service.stats().generations, 1u);
}

TEST_F(ServiceTest, NumberLiteralOverflowAnswersErrorNotCrash) {
  QueryService service(session_.get());
  ASSERT_TRUE(service.Start().ok());
  LineClient client(service.port());
  ASSERT_TRUE(client.connected());

  // The lexer used to throw out of the event loop on this literal and
  // take the whole process down.
  client.Send(
      "Q big 0 ACCESS p FROM p IN Paragraph "
      "WHERE p.number == 99999999999999999999");
  auto big = ParseReplyLine(client.ReadLine());
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big.value().id, "big");
  EXPECT_EQ(big.value().status, "ERROR:ParseError") << big.value().message;

  // Same connection, valid query: still answered, and correctly.
  const std::string query = "ACCESS p FROM p IN Paragraph WHERE p.number == 1";
  client.Send("Q after 0 " + query);
  auto after = ParseReplyLine(client.ReadLine());
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after.value().ok()) << after.value().message;
  EXPECT_EQ(after.value().hash, DigestHex(ResultDigest(Oracle(query))));
  service.Stop();
}

TEST_F(ServiceTest, ServesMultipleConnections) {
  QueryService service(session_.get());
  ASSERT_TRUE(service.Start().ok());
  const std::string query = "ACCESS p.number FROM p IN Paragraph";
  const std::string expect = DigestHex(ResultDigest(Oracle(query)));

  std::vector<std::unique_ptr<LineClient>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<LineClient>(service.port()));
    ASSERT_TRUE(clients.back()->connected());
    clients.back()->Send("Q c" + std::to_string(i) + " 0 " + query);
  }
  for (auto& client : clients) {
    auto reply = ParseReplyLine(client->ReadLine());
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply.value().ok()) << reply.value().message;
    EXPECT_EQ(reply.value().hash, expect);
  }
  service.Stop();
  EXPECT_EQ(service.stats().queries_ok, 4u);
}

// ------------------------------------------------ scheduler (direct)

TEST_F(ServiceTest, SchedulerRejectsDeadArrivalsBeforeAttach) {
  GenerationScheduler scheduler(session_.get());
  scheduler.Start();

  auto prepared = session_->Prepare("ACCESS p FROM p IN Paragraph",
                                    {/*optimize=*/false});
  ASSERT_TRUE(prepared.ok());

  ServiceQuery query;
  query.request_id = "dead";
  query.plan = prepared.value().planned.chosen_plan;
  query.result_ref = prepared.value().result_ref;
  query.cancel = std::make_shared<exec::CancellationToken>();
  query.cancel->Cancel();
  query.admitted_at = std::chrono::steady_clock::now();
  query.scan_keys = PlanScanSourceKeys(query.plan, &db_.catalog());
  EXPECT_FALSE(query.scan_keys.empty());

  Status got;
  query.done = [&](QueryReply reply) { got = reply.status; };
  scheduler.Admit(std::move(query));
  // Rejection is synchronous: done fired inside Admit.
  EXPECT_EQ(got.code(), StatusCode::kCancelled);
  scheduler.Stop();
  EXPECT_EQ(scheduler.stats().queries_cancelled, 1u);
  EXPECT_EQ(scheduler.stats().queries_admitted, 0u);
}

}  // namespace
}  // namespace service
}  // namespace vodak
