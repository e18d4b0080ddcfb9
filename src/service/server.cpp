#include "src/service/server.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/engine/experiment_spec.h"
#include "src/engine/runner.h"
#include "src/engine/sinks.h"
#include "src/graph/graph_cache.h"
#include "src/service/cancel_token.h"
#include "src/service/job_queue.h"
#include "src/service/line_source.h"
#include "src/spectral/spectrum_cache.h"
#include "src/support/cell_scheduler.h"
#include "src/support/cli.h"
#include "src/support/json.h"

namespace opindyn {
namespace service {
namespace {

std::string trimmed(const std::string& line) {
  const std::size_t first = line.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) {
    return std::string();
  }
  const std::size_t last = line.find_last_not_of(" \t\r\n");
  return line.substr(first, last - first + 1);
}

/// Flattens one JSON scalar into the spec grammar's string form; the
/// job line {"n":1024,"lazy":true} means exactly `n=1024 lazy=true`.
std::string scalar_to_string(const std::string& key,
                             const json::Value& value) {
  switch (value.kind()) {
    case json::Kind::string:
      return value.as_string();
    case json::Kind::boolean:
      return value.as_bool() ? "true" : "false";
    case json::Kind::integer:
      return std::to_string(value.as_int());
    case json::Kind::number:
      return value.dump();
    default:
      throw std::runtime_error("job key '" + key +
                               "' must be a scalar (string, number or "
                               "bool)");
  }
}

/// Parses one job line (spec grammar or flat JSON object) into the
/// key->value map parse_spec consumes.  Pulls the serve-layer
/// `deadline_ms` envelope key out into *deadline_ms.  Throws
/// std::runtime_error on anything malformed.
std::map<std::string, std::string> parse_job_line(
    const std::string& line, std::int64_t* deadline_ms) {
  std::map<std::string, std::string> kv;
  if (line.front() == '{') {
    const json::Value value = json::parse(line);
    if (!value.is_object()) {
      throw std::runtime_error("job JSON must be an object");
    }
    for (const auto& [key, member] : value.as_object()) {
      kv[key] = scalar_to_string(key, member);
    }
  } else {
    std::istringstream tokens(line);
    std::string token;
    while (tokens >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::runtime_error("expected key=value tokens or a JSON "
                                 "object, got '" + token + "'");
      }
      kv[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  const auto envelope = kv.find("deadline_ms");
  if (envelope != kv.end()) {
    const std::int64_t parsed =
        parse_int_value("job key 'deadline_ms'", envelope->second);
    if (parsed < 0 || parsed > kMaxDeadlineMs) {
      throw std::runtime_error("job key 'deadline_ms' must be in [0, " +
                               std::to_string(kMaxDeadlineMs) + "]");
    }
    *deadline_ms = parsed;
    kv.erase(envelope);
  }
  return kv;
}

/// Writes the whole buffer; `is_socket` uses send(MSG_NOSIGNAL) so a
/// vanished client surfaces as EPIPE even without the CLI's SIGPIPE
/// disposition (cmd_serve additionally ignores SIGPIPE process-wide,
/// which is what protects the plain-pipe stdout path).
void write_all(int fd, const std::string& text, bool is_socket = false) {
  std::size_t written = 0;
  while (written < text.size()) {
    const ssize_t put =
        is_socket ? ::send(fd, text.data() + written,
                           text.size() - written, MSG_NOSIGNAL)
                  : ::write(fd, text.data() + written,
                            text.size() - written);
    if (put < 0) {
      if (errno == EINTR) {
        continue;
      }
      // A vanished client (EPIPE) must not kill the server; the drain
      // still runs, the records just have nowhere to go.
      return;
    }
    written += static_cast<std::size_t>(put);
  }
}

}  // namespace

struct JobStreamService::Impl {
  using Clock = std::chrono::steady_clock;

  ServeOptions options;
  GraphCache graph_cache;
  SpectrumCache spectrum_cache;
  CellScheduler scheduler;
  JobQueue queue;
  const Clock::time_point epoch;

  // One record per line; the mutex keeps worker records, admission
  // rejections and the summary from interleaving mid-line.
  std::mutex write_mutex;
  std::function<void(const std::string&)> write_line;

  // Admission / completion state.
  struct ActiveJob {
    std::shared_ptr<CancelToken> token;
    std::int64_t deadline_us = -1;
  };
  std::mutex state_mutex;
  std::condition_variable idle_cv;
  std::map<std::int64_t, ActiveJob> active;  // admitted, not yet recorded
  std::int64_t outstanding = 0;
  std::int64_t next_job_id = 0;
  std::int64_t admitted = 0;
  std::int64_t ok = 0;
  std::int64_t errors = 0;
  std::int64_t cancelled = 0;
  std::int64_t rejected = 0;

  std::atomic<bool> shutdown{false};
  const char* shutdown_reason = "eof";  // guarded by state_mutex

  std::vector<std::thread> workers;
  std::thread monitor;
  std::atomic<bool> stop_monitor{false};

  explicit Impl(ServeOptions opts)
      : options(std::move(opts)),
        graph_cache(options.graph_cache_limits),
        spectrum_cache(options.spectrum_cache_limits),
        scheduler(options.threads),
        queue(options.queue_depth == 0 ? 1 : options.queue_depth),
        epoch(Clock::now()) {
    write_line = [](const std::string&) {};
    const std::size_t worker_count =
        options.job_workers == 0 ? 1 : options.job_workers;
    workers.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i) {
      workers.emplace_back([this] { worker_loop(); });
    }
    monitor = std::thread([this] { monitor_loop(); });
  }

  ~Impl() {
    queue.close();
    for (std::thread& worker : workers) {
      if (worker.joinable()) {
        worker.join();
      }
    }
    stop_monitor.store(true, std::memory_order_relaxed);
    if (monitor.joinable()) {
      monitor.join();
    }
  }

  std::int64_t now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - epoch)
        .count();
  }

  // ---- output ----------------------------------------------------

  void emit(const json::Value& record) {
    const std::string line = record.dump();
    const std::lock_guard<std::mutex> lock(write_mutex);
    write_line(line);
  }

  void set_writer(std::function<void(const std::string&)> writer) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    write_line = std::move(writer);
  }

  json::Value cache_summary() const {
    // The reserve() calls below (and in every other record builder
    // here) keep GCC 12's -Warray-bounds from false-firing on
    // emplace_back growth from an empty Object under -Werror.
    json::Object graph;
    graph.reserve(4);
    graph.emplace_back("hits", graph_cache.hits());
    graph.emplace_back("misses", graph_cache.misses());
    graph.emplace_back("evictions", graph_cache.evictions());
    graph.emplace_back("resident_bytes", graph_cache.resident_bytes());
    json::Object spectrum;
    spectrum.reserve(6);
    spectrum.emplace_back("record_hits", spectrum_cache.hits());
    spectrum.emplace_back("record_misses", spectrum_cache.misses());
    spectrum.emplace_back("eigensolves", spectrum_cache.eigensolves());
    spectrum.emplace_back("spectrum_hits",
                          spectrum_cache.spectrum_hits());
    spectrum.emplace_back("evictions", spectrum_cache.evictions());
    spectrum.emplace_back("resident_bytes",
                          spectrum_cache.resident_bytes());
    json::Object caches;
    caches.reserve(2);
    caches.emplace_back("graph", std::move(graph));
    caches.emplace_back("spectrum", std::move(spectrum));
    return json::Value(std::move(caches));
  }

  void emit_ready() {
    json::Object ready;
    ready.reserve(5);
    ready.emplace_back("event", "ready");
    ready.emplace_back("schema", "opindyn-serve-v1");
    ready.emplace_back("queue_depth", queue.depth());
    ready.emplace_back("job_workers", workers.size());
    ready.emplace_back("threads", scheduler.threads());
    emit(json::Value(std::move(ready)));
  }

  void emit_summary(const char* reason, bool drained) {
    json::Object summary;
    summary.reserve(9);
    summary.emplace_back("event", "shutdown");
    summary.emplace_back("reason", reason);
    summary.emplace_back("admitted", admitted);
    summary.emplace_back("ok", ok);
    summary.emplace_back("errors", errors);
    summary.emplace_back("cancelled", cancelled);
    summary.emplace_back("rejected", rejected);
    summary.emplace_back("drained", drained);
    summary.emplace_back("caches", cache_summary());
    emit(json::Value(std::move(summary)));
  }

  // ---- shutdown signalling ---------------------------------------

  void request_shutdown(const char* reason) {
    {
      const std::lock_guard<std::mutex> lock(state_mutex);
      if (!shutdown.load(std::memory_order_relaxed)) {
        shutdown_reason = reason;
      }
      shutdown.store(true, std::memory_order_release);
    }
    // A drain already waiting for jobs must notice the switch from
    // "wait forever" (EOF) to "bounded grace" (shutdown) semantics.
    idle_cv.notify_all();
  }

  /// Latches a pending signal into a shutdown request; true once a
  /// shutdown (signal or request_shutdown) is in effect.
  bool shutdown_requested() {
    if (options.signal_flag != nullptr) {
      const int signo =
          options.signal_flag->load(std::memory_order_relaxed);
      if (signo != 0 && !shutdown.load(std::memory_order_acquire)) {
        request_shutdown(signo == SIGINT ? "SIGINT" : "SIGTERM");
      }
    }
    return shutdown.load(std::memory_order_acquire);
  }

  const char* reason_now() {
    const std::lock_guard<std::mutex> lock(state_mutex);
    return shutdown_reason;
  }

  /// 128+signo when the session ended on a latched SIGTERM/SIGINT --
  /// the same convention as an interrupted `opindyn run` -- so
  /// supervisors can tell a signal-driven drain from a clean EOF.
  /// Programmatic request_shutdown() stays 0: it is the API's own
  /// graceful stop, not an outside interruption.
  int exit_code() const {
    if (options.signal_flag != nullptr) {
      const int signo =
          options.signal_flag->load(std::memory_order_relaxed);
      if (signo != 0) {
        return 128 + signo;
      }
    }
    return 0;
  }

  // ---- admission --------------------------------------------------

  /// The structured record of a job line that never became a job.
  void reject_line(std::int64_t id, const std::string& error) {
    json::Object record;
    record.reserve(3);
    record.emplace_back("job", id);
    record.emplace_back("status", "error");
    record.emplace_back("error", error);
    {
      const std::lock_guard<std::mutex> lock(state_mutex);
      ++errors;
    }
    emit(json::Value(std::move(record)));
  }

  void admit_line(const std::string& raw) {
    const std::string line = trimmed(raw);
    if (line.empty() || line[0] == '#') {
      return;
    }
    const std::int64_t id = ++next_job_id;
    Job job;
    job.id = id;
    // The CLI validates --deadline-ms, but ServeOptions is a public
    // struct: clamp here so no caller can hand us an overflowing stamp.
    std::int64_t deadline_ms =
        std::min(options.default_deadline_ms, kMaxDeadlineMs);
    try {
      const auto kv = parse_job_line(line, &deadline_ms);
      job.spec = engine::parse_spec(kv);
      if (!job.spec.metrics_json_path.empty() ||
          !job.spec.trace_json_path.empty()) {
        throw std::runtime_error(
            "metrics-json/trace-json are not available in serve mode "
            "(per-job metrics would interleave on the shared "
            "scheduler); use the one-shot CLI for traced runs");
      }
    } catch (const std::exception& error) {
      reject_line(id, error.what());
      return;
    }
    // A job line never prints a table: stdout carries records only.
    job.spec.print_table = false;
    job.token = std::make_shared<CancelToken>();
    if (deadline_ms > 0) {
      // Stamped at admission: time spent queued counts against the
      // deadline, so a job stuck behind slow work still times out.
      job.deadline_us = now_us() + deadline_ms * 1000;
    }
    const std::shared_ptr<CancelToken> token = job.token;
    {
      const std::lock_guard<std::mutex> lock(state_mutex);
      active.emplace(id, ActiveJob{token, job.deadline_us});
      ++outstanding;
    }
    const JobQueue::Push push = queue.try_push(std::move(job));
    if (push == JobQueue::Push::accepted) {
      const std::lock_guard<std::mutex> lock(state_mutex);
      ++admitted;
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(state_mutex);
      active.erase(id);
      --outstanding;
      ++rejected;
    }
    idle_cv.notify_all();
    json::Object record;
    record.reserve(3);
    record.emplace_back("job", id);
    record.emplace_back("status", "rejected");
    record.emplace_back(
        "reason",
        push == JobQueue::Push::full
            ? "queue full (depth " + std::to_string(queue.depth()) + ")"
            : std::string("server draining"));
    emit(json::Value(std::move(record)));
  }

  // ---- execution --------------------------------------------------

  void worker_loop() {
    while (std::optional<Job> job = queue.pop()) {
      execute(*job);
    }
  }

  void execute(const Job& job) {
    const Clock::time_point started = Clock::now();
    json::Object record;
    record.reserve(9);
    record.emplace_back("job", job.id);
    try {
      if (job.token->cancelled()) {
        // Deadline or drain hit while the job sat in the queue.
        throw CancelledError(job.token->reason());
      }
      // Validated before the sinks open: opening truncates the files.
      engine::validate_spec(job.spec);
      // summary_out = nullptr: stdout carries records only.
      engine::SpecSinks spec_sinks(job.spec, nullptr);
      engine::RunContext context;
      context.scheduler = &scheduler;
      context.graph_cache = &graph_cache;
      context.spectrum_cache = &spectrum_cache;
      context.cancel = job.token.get();
      const engine::BatchResult result =
          engine::run_experiment(job.spec, spec_sinks.sinks,
                                 spec_sinks.row_sinks, context);
      const double wall_ms =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - started)
                  .count()) /
          1000.0;
      if (result.interrupted) {
        record.emplace_back("status", "cancelled");
        record.emplace_back("reason", result.interrupt_reason);
        record.emplace_back("wall_ms", wall_ms);
        finish_job(job.id, std::move(record), &cancelled);
        return;
      }
      record.emplace_back("status", "ok");
      record.emplace_back("scenario", job.spec.scenario);
      record.emplace_back("rows", result.rows.size());
      record.emplace_back("replica_rows", result.replica_rows.size());
      record.emplace_back("row_exact_phis", result.row_exact_phis);
      record.emplace_back("work_items", result.work_items);
      record.emplace_back("units", result.units);
      record.emplace_back("wall_ms", wall_ms);
      json::Object cache;
      cache.reserve(3);
      cache.emplace_back("graph_hits", result.graph_cache_hits);
      cache.emplace_back("graph_builds", result.graphs_built);
      cache.emplace_back("eigensolves", result.spectra_solved);
      record.emplace_back("cache", std::move(cache));
      finish_job(job.id, std::move(record), &ok);
    } catch (const CancelledError& error) {
      record.emplace_back("status", "cancelled");
      record.emplace_back("reason", error.reason());
      finish_job(job.id, std::move(record), &cancelled);
    } catch (const std::exception& error) {
      // Fault isolation: the job failed, the server did not.
      record.emplace_back("status", "error");
      record.emplace_back("error", error.what());
      finish_job(job.id, std::move(record), &errors);
    }
  }

  /// Emits the job's record, then retires it.  Record before retire:
  /// the drain waits for outstanding == 0, so this order guarantees the
  /// shutdown summary is the last record on the stream.
  void finish_job(std::int64_t id, json::Object record,
                  std::int64_t* counter) {
    emit(json::Value(std::move(record)));
    {
      const std::lock_guard<std::mutex> lock(state_mutex);
      active.erase(id);
      --outstanding;
      ++*counter;
    }
    idle_cv.notify_all();
  }

  // ---- deadline monitor -------------------------------------------

  void monitor_loop() {
    while (!stop_monitor.load(std::memory_order_relaxed)) {
      // Latch a pending SIGTERM/SIGINT into a shutdown request even
      // when no session loop is polling (e.g. mid-drain after EOF).
      shutdown_requested();
      {
        const std::lock_guard<std::mutex> lock(state_mutex);
        const std::int64_t now = now_us();
        for (auto& [id, entry] : active) {
          if (entry.deadline_us >= 0 && now >= entry.deadline_us) {
            entry.token->cancel("deadline_ms exceeded");
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  // ---- drain ------------------------------------------------------

  /// Stops admission and waits for in-flight + queued jobs.  After EOF
  /// the wait is unbounded (every job gets its full time); once a
  /// shutdown is requested -- before the drain or while it waits -- the
  /// wait becomes the drain_timeout_ms grace period, after which queued
  /// jobs are discarded (each with a `cancelled` record) and running
  /// jobs are cancelled cooperatively.  Returns true when everything
  /// finished without hitting the timeout.
  bool drain() {
    queue.close();
    bool drained = true;
    {
      std::unique_lock<std::mutex> lock(state_mutex);
      const auto idle = [this] { return outstanding == 0; };
      // Phase 1: unbounded, but interruptible by a shutdown request
      // (request_shutdown notifies idle_cv; the monitor thread latches
      // signals into requests).
      idle_cv.wait(lock, [this] {
        return outstanding == 0 ||
               shutdown.load(std::memory_order_acquire);
      });
      if (!idle()) {
        // Phase 2: shutdown grace period.
        if (options.drain_timeout_ms >= 0) {
          drained = idle_cv.wait_for(
              lock, std::chrono::milliseconds(options.drain_timeout_ms),
              idle);
        } else {
          idle_cv.wait(lock, idle);
        }
      }
    }
    if (drained) {
      return true;
    }
    // Timeout: discard what never started, cancel what is running.
    while (std::optional<Job> job = queue.try_pop()) {
      job->token->cancel("shutdown drain");
      json::Object record;
      record.reserve(4);
      record.emplace_back("job", job->id);
      record.emplace_back("status", "cancelled");
      record.emplace_back("reason", "shutdown drain");
      finish_job(job->id, std::move(record), &cancelled);
    }
    {
      const std::lock_guard<std::mutex> lock(state_mutex);
      for (auto& [id, entry] : active) {
        entry.token->cancel("shutdown drain");
      }
    }
    // Cancellation is cooperative at burst boundaries, so this wait is
    // short and unbounded on purpose: workers must not outlive the
    // writer the records go to.
    std::unique_lock<std::mutex> lock(state_mutex);
    idle_cv.wait(lock, [this] { return outstanding == 0; });
    return false;
  }

  // ---- sessions ---------------------------------------------------

  template <typename Source>
  void read_loop(Source& source) {
    std::string line;
    for (;;) {
      if (shutdown_requested()) {
        return;
      }
      const auto status = source.next(&line);
      if (status == LineStatus::tick) {
        continue;
      }
      if (status == LineStatus::eof) {
        return;
      }
      if (status == LineStatus::too_long) {
        reject_line(++next_job_id,
                    "job line longer than " +
                        std::to_string(kMaxLineBytes) +
                        " bytes; dropped up to its newline");
        continue;
      }
      admit_line(line);
    }
  }

  template <typename Source>
  int serve_session(Source& source) {
    emit_ready();
    read_loop(source);
    const bool drained = drain();
    // Re-check AFTER the drain: a shutdown that arrived while waiting
    // for jobs names the summary too.
    const bool forced = shutdown_requested();
    emit_summary(forced ? reason_now() : "eof", drained);
    return exit_code();
  }
};

JobStreamService::JobStreamService(ServeOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

JobStreamService::~JobStreamService() = default;

void JobStreamService::request_shutdown(const char* reason) {
  impl_->request_shutdown(reason);
}

int JobStreamService::serve_stream(std::istream& in, std::ostream& out) {
  impl_->set_writer([&out](const std::string& line) {
    out << line << '\n';
    out.flush();
  });
  StreamLineSource source(in);
  return impl_->serve_session(source);
}

int JobStreamService::serve_stdin() {
  impl_->set_writer(
      [](const std::string& line) { write_all(1, line + "\n"); });
  FdLineSource source(0);
  return impl_->serve_session(source);
}

int JobStreamService::serve_socket() {
  const std::string& path = impl_->options.socket_path;
  if (path.empty()) {
    throw std::runtime_error("serve_socket needs a socket path");
  }
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    throw std::runtime_error(std::string("socket(): ") +
                             std::strerror(errno));
  }
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) < 0 ||
      ::listen(listener, 4) < 0) {
    const std::string detail = std::strerror(errno);
    ::close(listener);
    throw std::runtime_error("bind/listen on '" + path + "': " + detail);
  }
  while (!impl_->shutdown_requested()) {
    pollfd poller{};
    poller.fd = listener;
    poller.events = POLLIN;
    const int ready = ::poll(&poller, 1, 100);
    if (ready <= 0) {
      continue;  // timeout or EINTR: re-check the shutdown flag
    }
    const int connection = ::accept(listener, nullptr, nullptr);
    if (connection < 0) {
      continue;
    }
    impl_->set_writer([connection](const std::string& line) {
      write_all(connection, line + "\n", /*is_socket=*/true);
    });
    impl_->emit_ready();
    FdLineSource source(connection);
    impl_->read_loop(source);
    if (!impl_->shutdown_requested()) {
      // Connection EOF: wait for its jobs so every record reaches this
      // client (a shutdown arriving mid-wait breaks out to the drain).
      std::unique_lock<std::mutex> lock(impl_->state_mutex);
      impl_->idle_cv.wait(lock, [this] {
        return impl_->outstanding == 0 ||
               impl_->shutdown.load(std::memory_order_acquire);
      });
    }
    if (impl_->shutdown_requested()) {
      // Final connection: full drain + summary, then stop serving.
      const bool drained = impl_->drain();
      impl_->emit_summary(impl_->reason_now(), drained);
      ::close(connection);
      break;
    }
    ::close(connection);
    impl_->set_writer([](const std::string&) {});
  }
  ::close(listener);
  ::unlink(path.c_str());
  return impl_->exit_code();
}

}  // namespace service
}  // namespace opindyn
