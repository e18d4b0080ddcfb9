#include "src/support/metrics.h"

#include <algorithm>

namespace opindyn {
namespace {

/// The calling thread's active sink, installed by MetricsScope.  One
/// frame per nested scope; metrics::count reads only the innermost.
struct ThreadSink {
  MetricsBuffer* buffer = nullptr;
  std::string label;
  ThreadSink* previous = nullptr;
};

thread_local ThreadSink* t_sink = nullptr;

}  // namespace

void MetricsBuffer::count(const std::string& name, std::int64_t delta) {
  counters_[name] += delta;
}

void MetricsBuffer::count_labeled(const std::string& label,
                                  const std::string& name,
                                  std::int64_t delta) {
  labeled_[label][name] += delta;
}

void MetricsBuffer::add_span(TraceSpan span) {
  spans_.push_back(std::move(span));
}

MetricsRegistry::MetricsRegistry()
    : epoch_(std::chrono::steady_clock::now()) {}

MetricsBuffer& MetricsRegistry::buffer() {
  const std::thread::id self = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, buffer] : buffers_) {
    if (id == self) {
      return *buffer;
    }
  }
  buffers_.emplace_back(self, std::make_unique<MetricsBuffer>());
  return *buffers_.back().second;
}

std::uint64_t MetricsRegistry::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void MetricsRegistry::add_timing(const std::string& name, double ms) {
  const std::lock_guard<std::mutex> lock(mutex_);
  timings_[name] += ms;
}

void MetricsRegistry::set_gauge(const std::string& name,
                                std::int64_t value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  gauges_[name] = value;
}

FoldedMetrics MetricsRegistry::fold() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  FoldedMetrics folded;
  folded.timings_ms = timings_;
  folded.gauges = gauges_;
  int worker = 0;
  for (const auto& [id, buffer] : buffers_) {
    for (const auto& [name, value] : buffer->counters_) {
      folded.counters[name] += value;
    }
    for (const auto& [name, value] : buffer->gauges_) {
      folded.gauges[name] += value;
    }
    for (const auto& [label, counters] : buffer->labeled_) {
      for (const auto& [name, value] : counters) {
        folded.labeled[label][name] += value;
      }
    }
    for (const TraceSpan& span : buffer->spans_) {
      folded.spans.push_back(span);
      folded.spans.back().worker = worker;
      folded.label_busy_us[span.name] += span.duration_us;
    }
    folded.workers.push_back(WorkerReport{
        worker, static_cast<std::int64_t>(buffer->spans_.size()),
        buffer->busy_us_});
    ++worker;
  }
  std::sort(folded.spans.begin(), folded.spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              if (a.worker != b.worker) return a.worker < b.worker;
              return a.start_us < b.start_us;
            });
  return folded;
}

ScopedSpan::ScopedSpan(MetricsRegistry* registry, std::string name,
                       std::string category, std::int64_t replica)
    : registry_(registry),
      name_(std::move(name)),
      category_(std::move(category)),
      replica_(replica) {
  if (registry_ != nullptr) {
    start_us_ = registry_->now_us();
  }
}

ScopedSpan::~ScopedSpan() {
  if (registry_ == nullptr) {
    return;
  }
  const std::uint64_t end_us = registry_->now_us();
  MetricsBuffer& buffer = registry_->buffer();
  buffer.add_span(TraceSpan{std::move(name_), std::move(category_),
                            replica_, start_us_, end_us - start_us_, 0});
  buffer.add_busy(end_us - start_us_);
}

MetricsScope::MetricsScope(MetricsRegistry* registry,
                           const std::string& label) {
  if (registry == nullptr) {
    return;
  }
  t_sink = new ThreadSink{&registry->buffer(), label, t_sink};
  frame_ = t_sink;
  installed_ = true;
}

MetricsScope::~MetricsScope() {
  if (!installed_) {
    return;
  }
  auto* sink = static_cast<ThreadSink*>(frame_);
  t_sink = sink->previous;
  delete sink;
}

namespace metrics {

bool active() noexcept { return t_sink != nullptr; }

void count(const char* name, std::int64_t delta) {
  ThreadSink* sink = t_sink;
  if (sink == nullptr) {
    return;
  }
  sink->buffer->count(name, delta);
  if (!sink->label.empty()) {
    sink->buffer->count_labeled(sink->label, name, delta);
  }
}

void add_gauge(const char* name, std::int64_t delta) {
  if (t_sink != nullptr) {
    t_sink->buffer->add_gauge(name, delta);
  }
}

}  // namespace metrics
}  // namespace opindyn
