#include "src/spectral/spectrum_cache.h"

#include <utility>

#include "src/support/assert.h"

namespace opindyn {

GraphSpectra::GraphSpectra(std::shared_ptr<const Graph> graph,
                           std::shared_ptr<Tally> tally)
    : graph_(std::move(graph)), tally_(std::move(tally)) {
  OPINDYN_EXPECTS(graph_ != nullptr, "GraphSpectra needs a graph");
}

void GraphSpectra::count_solve() const noexcept {
  solves_.fetch_add(1, std::memory_order_relaxed);
  if (tally_ != nullptr) {
    tally_->solves.fetch_add(1, std::memory_order_relaxed);
  }
}

void GraphSpectra::count_hit() const noexcept {
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (tally_ != nullptr) {
    tally_->hits.fetch_add(1, std::memory_order_relaxed);
  }
}

const WalkSpectrum& GraphSpectra::walk() const {
  bool solved = false;
  std::call_once(walk_once_, [&] {
    walk_ = std::make_unique<const WalkSpectrum>(lazy_walk_spectrum(*graph_));
    walk_solved_.store(true, std::memory_order_relaxed);
    count_solve();
    bytes_.fetch_add(
        (walk_->values.size() + walk_->f2.size()) * sizeof(double) +
            sizeof(WalkSpectrum),
        std::memory_order_relaxed);
    solved = true;
  });
  if (!solved) {
    count_hit();
  }
  return *walk_;
}

const LaplacianSpectrum& GraphSpectra::laplacian() const {
  bool solved = false;
  std::call_once(laplacian_once_, [&] {
    laplacian_ = std::make_unique<const LaplacianSpectrum>(
        laplacian_spectrum(*graph_));
    laplacian_solved_.store(true, std::memory_order_relaxed);
    count_solve();
    bytes_.fetch_add(
        (laplacian_->values.size() + laplacian_->f2.size()) * sizeof(double) +
            sizeof(LaplacianSpectrum),
        std::memory_order_relaxed);
    solved = true;
  });
  if (!solved) {
    count_hit();
  }
  return *laplacian_;
}

std::int64_t GraphSpectra::solves() const noexcept {
  return solves_.load(std::memory_order_relaxed);
}

SpectrumNeeds GraphSpectra::solved() const noexcept {
  return {walk_solved_.load(std::memory_order_relaxed),
          laplacian_solved_.load(std::memory_order_relaxed)};
}

std::int64_t GraphSpectra::hits() const noexcept {
  return hits_.load(std::memory_order_relaxed);
}

std::uint64_t GraphSpectra::memory_bytes() const noexcept {
  return bytes_.load(std::memory_order_relaxed) + sizeof(GraphSpectra);
}

std::shared_ptr<GraphSpectra> SpectrumCache::get(
    const std::string& key, std::shared_ptr<const Graph> graph) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(key);
  if (it != records_.end()) {
    ++hits_;
    it->second.last_use = ++use_counter_;
    // Enforce the byte cap on hits too: resident bytes grow *after*
    // insertion as lazy walk()/laplacian() solves complete, so a warm
    // stream of repeat keys must still trigger eviction.
    const std::shared_ptr<GraphSpectra> spectra = it->second.spectra;
    evict_locked(spectra.get());
    return spectra;
  }
  ++misses_;
  auto record = std::make_shared<GraphSpectra>(std::move(graph), tally_);
  records_.emplace(key, Record{record, ++use_counter_});
  evict_locked(record.get());
  return record;
}

void SpectrumCache::evict_locked(const GraphSpectra* keep) {
  while (true) {
    const bool over_entries =
        limits_.max_entries != 0 && records_.size() > limits_.max_entries;
    // Recomputed per pass: records grow as their lazy solves complete,
    // so there is no stable incremental byte total to maintain.
    std::uint64_t bytes = 0;
    if (limits_.max_bytes != 0) {
      for (const auto& [key, record] : records_) {
        bytes += record.spectra->memory_bytes();
      }
    }
    const bool over_bytes = limits_.max_bytes != 0 && bytes > limits_.max_bytes;
    if (!over_entries && !over_bytes) {
      return;
    }
    auto victim = records_.end();
    for (auto it = records_.begin(); it != records_.end(); ++it) {
      if (it->second.spectra.get() == keep) {
        continue;
      }
      if (victim == records_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == records_.end()) {
      return;
    }
    ++evictions_;
    records_.erase(victim);
  }
}

std::size_t SpectrumCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::int64_t SpectrumCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::int64_t SpectrumCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::int64_t SpectrumCache::eigensolves() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tally_->solves.load(std::memory_order_relaxed);
}

std::int64_t SpectrumCache::spectrum_hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tally_->hits.load(std::memory_order_relaxed);
}

std::int64_t SpectrumCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::uint64_t SpectrumCache::resident_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [key, record] : records_) {
    total += record.spectra->memory_bytes();
  }
  return total;
}

void SpectrumCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.clear();
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
  tally_ = std::make_shared<GraphSpectra::Tally>();
}

}  // namespace opindyn
