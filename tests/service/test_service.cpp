// The serve-mode service layer: CancelToken/CancelScope semantics, the
// bounded JobQueue, and full serve_stream sessions -- record schema,
// fault isolation, deadlines, the backpressure counters and the
// serve-vs-one-shot byte-identity contract.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/lane_kernel.h"
#include "src/engine/runner.h"
#include "src/engine/sinks.h"
#include "src/service/cancel_token.h"
#include "src/service/job_queue.h"
#include "src/service/server.h"
#include "src/support/json.h"

namespace opindyn {
namespace {

// ---- CancelToken ---------------------------------------------------

TEST(CancelToken, StartsClearAndLatchesTheFirstReason) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), nullptr);
  token.cancel("deadline_ms exceeded");
  EXPECT_TRUE(token.cancelled());
  EXPECT_STREQ(token.reason(), "deadline_ms exceeded");
  // First cancel wins; a later reason never overwrites it.
  token.cancel("shutdown drain");
  EXPECT_STREQ(token.reason(), "deadline_ms exceeded");
}

TEST(CancelToken, ScopeInstallsAndRestoresTheAmbientToken) {
  EXPECT_EQ(cancel::current(), nullptr);
  EXPECT_FALSE(cancel::requested());
  CancelToken outer;
  {
    const CancelScope scope(&outer);
    EXPECT_EQ(cancel::current(), &outer);
    CancelToken inner;
    {
      const CancelScope nested(&inner);
      EXPECT_EQ(cancel::current(), &inner);
      // A null scope is a no-op install: the enclosing token stays.
      const CancelScope noop(nullptr);
      EXPECT_EQ(cancel::current(), &inner);
    }
    EXPECT_EQ(cancel::current(), &outer);
  }
  EXPECT_EQ(cancel::current(), nullptr);
}

TEST(CancelToken, PollThrowsCancelledErrorWithTheReason) {
  CancelToken token;
  const CancelScope scope(&token);
  EXPECT_NO_THROW(cancel::poll());
  token.cancel("SIGINT");
  EXPECT_TRUE(cancel::requested());
  try {
    cancel::poll();
    FAIL() << "poll() must throw once the ambient token is cancelled";
  } catch (const CancelledError& error) {
    EXPECT_STREQ(error.reason(), "SIGINT");
  }
}

// ---- JobQueue ------------------------------------------------------

service::Job make_job(std::int64_t id) {
  service::Job job;
  job.id = id;
  job.token = std::make_shared<CancelToken>();
  return job;
}

TEST(JobQueue, BoundedFifoWithExplicitFullAndClosedOutcomes) {
  service::JobQueue queue(2);
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.try_push(make_job(1)), service::JobQueue::Push::accepted);
  EXPECT_EQ(queue.try_push(make_job(2)), service::JobQueue::Push::accepted);
  EXPECT_EQ(queue.try_push(make_job(3)), service::JobQueue::Push::full);
  EXPECT_EQ(queue.size(), 2u);

  const auto first = queue.try_pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, 1);  // FIFO

  queue.close();
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(queue.try_push(make_job(4)), service::JobQueue::Push::closed);
  // Queued jobs stay poppable after close; then pop reports drained.
  const auto second = queue.pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, 2);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(JobQueue, CloseWakesBlockedConsumers) {
  service::JobQueue queue(1);
  std::thread consumer([&queue] {
    EXPECT_FALSE(queue.pop().has_value());
  });
  queue.close();
  consumer.join();
}

// ---- serve sessions ------------------------------------------------

std::vector<json::Value> serve_records(const std::string& input,
                                       service::ServeOptions options) {
  service::JobStreamService server(std::move(options));
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 0);
  std::vector<json::Value> records;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    records.push_back(json::parse(line));
  }
  return records;
}

const json::Value* find_job_record(const std::vector<json::Value>& records,
                                   std::int64_t id) {
  for (const json::Value& record : records) {
    const json::Value* job = record.find("job");
    if (job != nullptr && job->as_int() == id) {
      return &record;
    }
  }
  return nullptr;
}

TEST(ServeSession, EmitsReadyJobRecordsAndShutdownSummary) {
  const std::string csv_path =
      ::testing::TempDir() + "serve_session_ok.csv";
  const std::string input =
      "# comment lines and blanks are ignored\n"
      "\n"
      "scenario=node graph=cycle n=32 replicas=2 csv=" + csv_path + "\n";
  const auto records = serve_records(input, service::ServeOptions{});
  ASSERT_GE(records.size(), 3u);

  const json::Value* ready = records.front().find("event");
  ASSERT_NE(ready, nullptr);
  EXPECT_EQ(ready->as_string(), "ready");
  EXPECT_EQ(records.front().find("schema")->as_string(),
            "opindyn-serve-v1");

  const json::Value* job = find_job_record(records, 1);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->find("status")->as_string(), "ok");
  EXPECT_GT(job->find("rows")->as_int(), 0);

  const json::Value& summary = records.back();
  EXPECT_EQ(summary.find("event")->as_string(), "shutdown");
  EXPECT_EQ(summary.find("reason")->as_string(), "eof");
  EXPECT_EQ(summary.find("admitted")->as_int(), 1);
  EXPECT_EQ(summary.find("ok")->as_int(), 1);
  EXPECT_EQ(summary.find("errors")->as_int(), 0);
  EXPECT_TRUE(summary.find("drained")->as_bool());
  ASSERT_NE(summary.find("caches"), nullptr);
}

TEST(ServeSession, FaultIsolationMalformedAndThrowingJobs) {
  const std::string csv_path =
      ::testing::TempDir() + "serve_session_isolated.csv";
  const std::string input =
      "this is not a job\n"                       // tokens without '='
      "scenario=no_such_scenario n=16\n"          // throws at run time
      "{\"scenario\":\"node\",\"n\":[1,2]}\n"     // non-scalar JSON value
      "scenario=node graph=cycle n=32 replicas=2 csv=" + csv_path + "\n";
  const auto records = serve_records(input, service::ServeOptions{});

  for (const std::int64_t bad : {1, 2, 3}) {
    const json::Value* record = find_job_record(records, bad);
    ASSERT_NE(record, nullptr) << "job " << bad;
    EXPECT_EQ(record->find("status")->as_string(), "error");
    EXPECT_FALSE(record->find("error")->as_string().empty());
  }
  // The server survived all three failures and ran the good job.
  const json::Value* good = find_job_record(records, 4);
  ASSERT_NE(good, nullptr);
  EXPECT_EQ(good->find("status")->as_string(), "ok");
  const json::Value& summary = records.back();
  EXPECT_EQ(summary.find("errors")->as_int(), 3);
  EXPECT_EQ(summary.find("ok")->as_int(), 1);
}

// A job whose spec fails validation -- an out-of-range value or a bad
// sweep value in any cell -- is an error record naming the key, and its
// csv= file is never opened, so existing bytes survive.
TEST(ServeSession, InvalidJobSpecsLeaveTheirCsvIntact) {
  const std::string csv_path =
      ::testing::TempDir() + "serve_session_kept.csv";
  {
    std::ofstream out(csv_path, std::ios::binary);
    out << "precious,rows\n1,2\n";
  }
  const std::string job = "scenario=node graph=cycle n=16 csv=" + csv_path;
  const std::string input = job + " replicas=0\n" + job + " eps=0\n" + job +
                            " sweep=replicas:4,0\n" + job +
                            " sweep=alpha:0.5,abc\n";
  const auto records = serve_records(input, service::ServeOptions{});
  const char* keys[] = {"'replicas'", "'eps'", "'replicas'", "'alpha'"};
  for (std::int64_t id = 1; id <= 4; ++id) {
    const json::Value* record = find_job_record(records, id);
    ASSERT_NE(record, nullptr) << "job " << id;
    EXPECT_EQ(record->find("status")->as_string(), "error");
    const std::string error = record->find("error")->as_string();
    EXPECT_NE(error.find(keys[id - 1]), std::string::npos) << error;
  }
  std::ifstream in(csv_path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str(), "precious,rows\n1,2\n");
  std::remove(csv_path.c_str());
}

// Each ok record carries the job's cell units, the same count as the
// one-shot run's: serve_mix's 8-replica job is one lane group, and 9
// replicas per model take a group and a lone replica each.
TEST(ServeSession, OkRecordsCountTheJobsUnits) {
  const std::string job =
      "scenario=cross_model graph=random_regular degree=4 n=64 "
      "init=gaussian eps=1e-8";
  const auto records = serve_records(
      job + " model=node replicas=8\n" + job +
          " replicas=9 sweep=model:node,edge\n",
      service::ServeOptions{});
  const std::int64_t expected[] = {lanes::enabled() ? 1 : 8,
                                   lanes::enabled() ? 4 : 18};
  for (std::int64_t id = 1; id <= 2; ++id) {
    const json::Value* record = find_job_record(records, id);
    ASSERT_NE(record, nullptr) << "job " << id;
    ASSERT_EQ(record->find("status")->as_string(), "ok");
    EXPECT_EQ(record->find("units")->as_int(), expected[id - 1]) << id;
  }
  const engine::ExperimentSpec spec = engine::parse_spec(
      {{"scenario", "cross_model"}, {"graph", "random_regular"},
       {"degree", "4"}, {"n", "64"}, {"init", "gaussian"}, {"eps", "1e-8"},
       {"model", "node"}, {"replicas", "8"}, {"table", "false"}});
  EXPECT_EQ(engine::run_experiment(spec).units, expected[0]);
}

// A cross_model job with a knob its model does not use, in the spec or
// in a later sweep cell, or with an unknown key, is one error record;
// its csv= file keeps its bytes.
TEST(ServeSession, UnusedModelKnobLeavesItsCsvIntact) {
  const std::string csv_path =
      ::testing::TempDir() + "serve_session_knob.csv";
  {
    std::ofstream out(csv_path, std::ios::binary);
    out << "precious\n";
  }
  const std::string job =
      "scenario=cross_model n=16 alpha=0.3 csv=" + csv_path;
  const std::string input = job + " model=voter\n" + job +
                            " sweep=model:node,voter\n" + job +
                            " reorder=true\n";
  const auto records = serve_records(input, service::ServeOptions{});
  const char* mentions[] = {"does not use alpha=", "does not use alpha=",
                            "unknown spec key 'reorder'"};
  for (std::int64_t id = 1; id <= 3; ++id) {
    const json::Value* record = find_job_record(records, id);
    ASSERT_NE(record, nullptr) << "job " << id;
    EXPECT_EQ(record->find("status")->as_string(), "error");
    const std::string error = record->find("error")->as_string();
    EXPECT_NE(error.find(mentions[id - 1]), std::string::npos) << error;
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;
  }
  std::ifstream in(csv_path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str(), "precious\n");
  std::remove(csv_path.c_str());
}

// One huge job line (multi-MB, no newline for longer than the cap) must
// cost one structured error record, not the session: the next line is
// read and run.
TEST(ServeSession, OverLongJobLineGivesOneErrorThenTheNextJobRuns) {
  const std::string input = std::string(3 << 20, 'x') + "\n" +
                            "scenario=node graph=cycle n=16 replicas=2\n";
  const auto records = serve_records(input, service::ServeOptions{});
  const json::Value* dropped = find_job_record(records, 1);
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->find("status")->as_string(), "error");
  EXPECT_NE(dropped->find("error")->as_string().find("longer than"),
            std::string::npos);
  const json::Value* good = find_job_record(records, 2);
  ASSERT_NE(good, nullptr);
  EXPECT_EQ(good->find("status")->as_string(), "ok");
  EXPECT_EQ(records.back().find("errors")->as_int(), 1);
  EXPECT_EQ(records.back().find("ok")->as_int(), 1);
}

TEST(ServeSession, MetricsJsonIsRejectedPerJob) {
  const auto records = serve_records(
      "scenario=node n=16 metrics-json=" + ::testing::TempDir() +
          "nope.json\n",
      service::ServeOptions{});
  const json::Value* record = find_job_record(records, 1);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->find("status")->as_string(), "error");
  EXPECT_NE(record->find("error")->as_string().find("serve mode"),
            std::string::npos);
}

TEST(ServeSession, DeadlineExceededJobReportsCancelled) {
  // A job that cannot converge quickly (tight eps on a slow-mixing
  // cycle) with a 1 ms deadline: the monitor cancels it between bursts
  // whether it is still queued or already running.
  const std::string input =
      "{\"scenario\":\"node\",\"graph\":\"cycle\",\"n\":1024,"
      "\"replicas\":8,\"eps\":1e-14,\"deadline_ms\":1}\n";
  const auto records = serve_records(input, service::ServeOptions{});
  const json::Value* record = find_job_record(records, 1);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->find("status")->as_string(), "cancelled");
  EXPECT_EQ(record->find("reason")->as_string(), "deadline_ms exceeded");
  EXPECT_EQ(records.back().find("cancelled")->as_int(), 1);
}

// The group loop polls the ambient cancel token once per burst: one
// checkpoint for trajectory, one check for the converging runs (gossip,
// and the degroot / friedkin_johnsen baselines checked every round), and
// n/4 steps for the other fixed-horizon runs (hegselmann_krause,
// martingale's Monte-Carlo part): jobs that would run for minutes all
// come back cancelled shortly after their 200 ms deadline.
// friedkin_johnsen stays at n=256 because its dense equilibrium solve
// does not poll.  One job worker per job and one pool thread per
// replica unit (11 in all) start every job before its deadline, so each
// must stop itself instead of being cancelled while it waits in a queue.
TEST(ServeSession, DeadlineCancelsTrajectoryAndGossipJobsWithinASecond) {
  const std::string input =
      "scenario=trajectory n=4096 replicas=2 horizon=4000000000 "
      "check-interval=100000 deadline_ms=200\n"
      "scenario=gossip n=4096 replicas=2 eps=1e-300 max-steps=4000000000 "
      "deadline_ms=200\n"
      "scenario=degroot graph=cycle n=2048 eps=1e-300 deadline_ms=200\n"
      "scenario=friedkin_johnsen graph=cycle n=256 eps=1e-300 "
      "deadline_ms=200\n"
      "scenario=hegselmann_krause graph=cycle n=4096 replicas=2 "
      "horizon=100000000000 deadline_ms=200\n"
      "scenario=martingale graph=cycle n=1024 replicas=2 "
      "horizon=100000000000 deadline_ms=200\n";
  service::ServeOptions options;
  options.job_workers = 6;
  options.threads = 11;
  const auto started = std::chrono::steady_clock::now();
  const auto records = serve_records(input, std::move(options));
  const auto elapsed = std::chrono::steady_clock::now() - started;
  for (const std::int64_t id : {1, 2, 3, 4, 5, 6}) {
    const json::Value* record = find_job_record(records, id);
    ASSERT_NE(record, nullptr) << "job " << id;
    EXPECT_EQ(record->find("status")->as_string(), "cancelled") << "job "
                                                                 << id;
    EXPECT_EQ(record->find("reason")->as_string(), "deadline_ms exceeded");
  }
  EXPECT_EQ(records.back().find("cancelled")->as_int(), 6);
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

// random_regular(100000, 5) accepts after ~2 s of pairing attempts; the
// builder and its helpers check the token between attempts, so a 50 ms
// deadline stops the build after at most one more attempt each.
TEST(ServeSession, DeadlineCancelsARandomRegularGraphBuild) {
  const std::string input =
      "scenario=node graph=random_regular degree=5 n=100000 graph-seed=3 "
      "replicas=1 max-steps=1 deadline_ms=50\n";
  service::ServeOptions options;
  options.job_workers = 1;
  options.threads = 2;
  const auto records = serve_records(input, std::move(options));
  const json::Value* record = find_job_record(records, 1);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->find("status")->as_string(), "cancelled");
  EXPECT_EQ(record->find("reason")->as_string(), "deadline_ms exceeded");
  EXPECT_LT(record->find("wall_ms")->as_double(), 500.0);
}

TEST(ServeSession, JsonAndSpecGrammarJobsProduceIdenticalBytes) {
  const std::string grammar_csv =
      ::testing::TempDir() + "serve_grammar.csv";
  const std::string json_csv = ::testing::TempDir() + "serve_json.csv";
  const std::string input =
      "scenario=node_vs_edge graph=cycle n=64 replicas=4 sweep=k:1,2 "
      "csv=" + grammar_csv + "\n" +
      "{\"scenario\":\"node_vs_edge\",\"graph\":\"cycle\",\"n\":64,"
      "\"replicas\":4,\"sweep\":\"k:1,2\",\"csv\":\"" + json_csv +
      "\"}\n";
  const auto records = serve_records(input, service::ServeOptions{});
  EXPECT_EQ(records.back().find("ok")->as_int(), 2);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const std::string grammar_bytes = slurp(grammar_csv);
  EXPECT_FALSE(grammar_bytes.empty());
  EXPECT_EQ(grammar_bytes, slurp(json_csv));
}

TEST(ServeSession, ServeOutputMatchesOneShotRunnerBytes) {
  const std::string serve_csv = ::testing::TempDir() + "serve_vs_one.csv";
  const std::string oneshot_csv =
      ::testing::TempDir() + "oneshot_vs_serve.csv";

  engine::ExperimentSpec spec;
  spec.scenario = "node_vs_edge";
  spec.graph.family = "cycle";
  spec.graph.n = 64;
  spec.replicas = 4;
  spec.sweeps = engine::parse_sweeps("k:1,2");
  spec.csv_path = oneshot_csv;
  spec.print_table = false;
  engine::run_experiment_with_default_sinks(spec);

  service::ServeOptions options;
  options.threads = 2;  // shared pool; bytes must not depend on it
  const auto records = serve_records(
      "scenario=node_vs_edge graph=cycle n=64 replicas=4 sweep=k:1,2 "
      "csv=" + serve_csv + "\n",
      std::move(options));
  EXPECT_EQ(records.back().find("ok")->as_int(), 1);

  std::ifstream serve_in(serve_csv), oneshot_in(oneshot_csv);
  std::stringstream serve_bytes, oneshot_bytes;
  serve_bytes << serve_in.rdbuf();
  oneshot_bytes << oneshot_in.rdbuf();
  EXPECT_FALSE(serve_bytes.str().empty());
  EXPECT_EQ(serve_bytes.str(), oneshot_bytes.str());
}

// The per-replica row channel in serve mode: a job's rows-csv= bytes
// equal the one-shot --rows-csv bytes, and the record counts its rows.
TEST(ServeSession, ServeRowsCsvMatchesOneShotRunnerBytes) {
  const std::string serve_rows = ::testing::TempDir() + "serve_rows.csv";
  const std::string oneshot_rows = ::testing::TempDir() + "oneshot_rows.csv";

  engine::ExperimentSpec spec;
  spec.scenario = "trajectory";
  spec.graph.family = "cycle";
  spec.graph.n = 32;
  spec.replicas = 6;
  spec.horizon = 256;
  spec.convergence.check_interval = 16;
  spec.sweeps = engine::parse_sweeps("alpha:0.3,0.5");
  spec.rows_csv_path = oneshot_rows;
  spec.print_table = false;
  const engine::BatchResult result =
      engine::run_experiment_with_default_sinks(spec);

  service::ServeOptions options;
  options.threads = 3;
  const auto records = serve_records(
      "scenario=trajectory graph=cycle n=32 replicas=6 horizon=256 "
      "check-interval=16 sweep=alpha:0.3,0.5 rows-csv=" + serve_rows + "\n",
      std::move(options));
  const json::Value* job = find_job_record(records, 1);
  ASSERT_NE(job, nullptr);
  ASSERT_EQ(job->find("status")->as_string(), "ok");
  EXPECT_EQ(job->find("replica_rows")->as_int(),
            static_cast<std::int64_t>(result.replica_rows.size()));
  EXPECT_EQ(result.replica_rows.size(), 2u * 6u * 17u);

  std::ifstream serve_in(serve_rows), oneshot_in(oneshot_rows);
  std::stringstream serve_bytes, oneshot_bytes;
  serve_bytes << serve_in.rdbuf();
  oneshot_bytes << oneshot_in.rdbuf();
  EXPECT_FALSE(serve_bytes.str().empty());
  EXPECT_EQ(serve_bytes.str(), oneshot_bytes.str());
  std::remove(serve_rows.c_str());
  std::remove(oneshot_rows.c_str());
}

TEST(ServeSession, RequestShutdownDrainsAndReportsTheReason) {
  service::ServeOptions options;
  options.drain_timeout_ms = 10000;
  service::JobStreamService server(std::move(options));
  server.request_shutdown("test shutdown");
  std::istringstream in(
      "scenario=node graph=cycle n=32 replicas=2\n");  // never admitted
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 0);
  std::string last;
  std::string line;
  std::istringstream lines(out.str());
  while (std::getline(lines, line)) {
    last = line;
  }
  const json::Value summary = json::parse(last);
  EXPECT_EQ(summary.find("event")->as_string(), "shutdown");
  EXPECT_EQ(summary.find("reason")->as_string(), "test shutdown");
  EXPECT_EQ(summary.find("admitted")->as_int(), 0);
}

}  // namespace
}  // namespace opindyn
