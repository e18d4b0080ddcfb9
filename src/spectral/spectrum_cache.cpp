#include "src/spectral/spectrum_cache.h"

#include <utility>

#include "src/support/assert.h"

namespace opindyn {

GraphSpectra::GraphSpectra(std::shared_ptr<const Graph> graph,
                           std::shared_ptr<Tally> tally)
    : graph_(std::move(graph)), tally_(std::move(tally)) {
  OPINDYN_EXPECTS(graph_ != nullptr, "GraphSpectra needs a graph");
}

void GraphSpectra::count_solve(bool vectors) const noexcept {
  solves_.fetch_add(1, std::memory_order_relaxed);
  if (tally_ != nullptr) {
    tally_->solves.fetch_add(1, std::memory_order_relaxed);
    if (vectors) {
      tally_->vector_solves.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void GraphSpectra::count_hit() const noexcept {
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (tally_ != nullptr) {
    tally_->hits.fetch_add(1, std::memory_order_relaxed);
  }
}

template <class Values>
const Values& GraphSpectra::values_of(Memo<Values>& memo,
                                      Values (*solver)(const Graph&)) const {
  bool solved = false;
  std::call_once(memo.values_once, [&] {
    memo.values = std::make_unique<const Values>(solver(*graph_));
    memo.values_solved.store(true, std::memory_order_relaxed);
    count_solve(false);
    bytes_.fetch_add(
        memo.values->values.size() * sizeof(double) + sizeof(Values),
        std::memory_order_relaxed);
    solved = true;
  });
  if (!solved) {
    count_hit();
  }
  return *memo.values;
}

template <class Values, class Spectrum>
const std::vector<double>& GraphSpectra::f2_of(
    Memo<Values>& memo, Spectrum (*solver)(const Graph&)) const {
  bool solved = false;
  std::call_once(memo.f2_once, [&] {
    // With the eigenvalues not yet solved, the full solve runs under
    // their latch as well: its eigenvalues are the values-only solve's,
    // bit for bit, and an eigenvalue reader arriving meanwhile waits for
    // them instead of solving a second time.
    bool filled_values = false;
    std::call_once(memo.values_once, [&] {
      Spectrum full = solver(*graph_);
      memo.f2 = std::move(full.f2);
      memo.values = std::make_unique<const Values>(
          std::move(static_cast<Values&>(full)));
      bytes_.fetch_add(
          memo.values->values.size() * sizeof(double) + sizeof(Values),
          std::memory_order_relaxed);
      filled_values = true;
    });
    if (!filled_values) {
      memo.f2 = solver(*graph_).f2;
    }
    memo.f2_solved.store(true, std::memory_order_relaxed);
    count_solve(true);
    bytes_.fetch_add(memo.f2.size() * sizeof(double),
                     std::memory_order_relaxed);
    solved = true;
  });
  if (!solved) {
    count_hit();
  }
  return memo.f2;
}

const WalkEigenvalues& GraphSpectra::walk() const {
  return values_of(walk_, &lazy_walk_eigenvalues);
}

const LaplacianEigenvalues& GraphSpectra::laplacian() const {
  return values_of(laplacian_, &laplacian_eigenvalues);
}

const std::vector<double>& GraphSpectra::walk_f2() const {
  return f2_of(walk_, &lazy_walk_spectrum);
}

const std::vector<double>& GraphSpectra::laplacian_f2() const {
  return f2_of(laplacian_, &laplacian_spectrum);
}

void GraphSpectra::solve(SpectrumNeeds needs) const {
  if (needs.walk_f2) {
    walk_f2();
  } else if (needs.walk) {
    walk();
  }
  if (needs.laplacian_f2) {
    laplacian_f2();
  } else if (needs.laplacian) {
    laplacian();
  }
}

std::int64_t GraphSpectra::solves() const noexcept {
  return solves_.load(std::memory_order_relaxed);
}

SpectrumNeeds GraphSpectra::solved() const noexcept {
  // values_solved marks only an eigenvalues-only solve: the full solve
  // fills the values memo without setting it.
  return {walk_.values_solved.load(std::memory_order_relaxed),
          laplacian_.values_solved.load(std::memory_order_relaxed),
          walk_.f2_solved.load(std::memory_order_relaxed),
          laplacian_.f2_solved.load(std::memory_order_relaxed)};
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

std::int64_t SpectrumCache::vector_solves() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tally_->vector_solves.load(std::memory_order_relaxed);
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
