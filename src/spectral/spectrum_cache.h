// Memoised per-graph eigensolves.  The paper's tightness and convergence
// predictions (Prop. B.2, Thm. 2.4, the f2_* initial states) all consume
// per-graph spectral quantities -- lambda_2 and f_2 of the lazy walk
// matrix P, the Laplacian spectrum -- and a sweep revisits the same
// graph in cell after cell.  A GraphSpectra record memoises each
// eigensolve per graph; the SpectrumCache shares one record per
// graph-cache key, so a whole sweep performs exactly one eigensolve per
// distinct graph and spectrum kind.
//
// Locking mirrors GraphCache: the cache's global mutex only guards the
// key -> record map, never an eigensolve.  Each record runs its solves
// under its own per-kind once-latch (std::call_once), so concurrent
// cells needing the *same* spectrum solve once while cells needing
// *different* graphs solve in parallel.
//
// Declared spectra solve up front: a scenario declares the spectra it
// reads (Scenario::reads_spectra) and the initial distribution declares
// its own (initial_reads_spectra).  The runner's prefetch pass solves
// the initial's spectra before drawing the initial state, then queues
// one unit per distinct graph for the scenario's, ahead of every cell's
// units -- so two graphs' eigensolves run at the same time instead of
// one after the other behind the first prediction unit's once-latch,
// and the replicas run beside them.  An eigensolve of a spectrum that
// neither declared is a late solve (BatchResult /
// spectrum_cache.late_solves): it means a declaration is missing.
#ifndef OPINDYN_SPECTRAL_SPECTRUM_CACHE_H
#define OPINDYN_SPECTRAL_SPECTRUM_CACHE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/graph/graph.h"
#include "src/spectral/spectra.h"
#include "src/support/cache_limits.h"

namespace opindyn {

/// Which spectra of a graph a consumer reads: the lazy-walk spectrum
/// (lambda_2(P), gap, f_2(P)) and/or the Laplacian spectrum
/// (lambda_2(L), f_2(L)).  The default reads none.
struct SpectrumNeeds {
  bool walk = false;
  bool laplacian = false;

  bool any() const noexcept { return walk || laplacian; }
  SpectrumNeeds operator|(SpectrumNeeds other) const noexcept {
    return {walk || other.walk, laplacian || other.laplacian};
  }
};

/// Lazily-computed spectral record of one immutable graph.  Each
/// accessor runs its eigensolve on first use (on the *calling* thread,
/// under a per-kind once-latch) and returns the memoised result
/// afterwards; accessors are safe to call concurrently.  The referenced
/// graph is kept alive by the record.
class GraphSpectra {
 public:
  /// Solve/hit totals a SpectrumCache shares with every record it
  /// creates, so its counters include the solves a record runs after
  /// eviction while a holder still uses it.
  struct Tally {
    std::atomic<std::int64_t> solves{0};
    std::atomic<std::int64_t> hits{0};
  };

  explicit GraphSpectra(std::shared_ptr<const Graph> graph,
                        std::shared_ptr<Tally> tally = nullptr);

  /// Full lazy-walk spectrum (lambda_2(P), gap, f_2); solved once.
  const WalkSpectrum& walk() const;
  /// Full Laplacian spectrum (lambda_2(L), f_2); solved once.
  const LaplacianSpectrum& laplacian() const;

  const Graph& graph() const noexcept { return *graph_; }

  /// Eigensolves this record has actually run (0..2).
  std::int64_t solves() const noexcept;
  /// The spectra memoised so far.  Safe to read while other threads
  /// solve.
  SpectrumNeeds solved() const noexcept;
  /// Accessor calls served from the memo without solving.
  std::int64_t hits() const noexcept;

  /// Heap bytes of the memoised spectra solved so far (grows as lazy
  /// solves complete; excludes the shared graph, which GraphCache
  /// accounts).  Safe to read while other threads solve.
  std::uint64_t memory_bytes() const noexcept;

 private:
  /// Bumps the per-record and the shared counter.
  void count_solve() const noexcept;
  void count_hit() const noexcept;

  std::shared_ptr<const Graph> graph_;
  std::shared_ptr<Tally> tally_;
  mutable std::once_flag walk_once_;
  mutable std::once_flag laplacian_once_;
  mutable std::unique_ptr<const WalkSpectrum> walk_;
  mutable std::unique_ptr<const LaplacianSpectrum> laplacian_;
  mutable std::atomic<bool> walk_solved_{false};
  mutable std::atomic<bool> laplacian_solved_{false};
  mutable std::atomic<std::int64_t> solves_{0};
  mutable std::atomic<std::int64_t> hits_{0};
  mutable std::atomic<std::uint64_t> bytes_{0};
};

/// Thread-safe memo from graph-cache key (see graph_cache_key) to the
/// graph's GraphSpectra record.  `get` only ever takes the map lock;
/// the eigensolves themselves run lazily inside the returned record.
/// Like GraphCache, the cache can be bounded (CacheLimits) for
/// process-lifetime use: eviction drops the LRU record from the map
/// (holders keep their shared_ptr; the next request re-creates an empty
/// record and re-solves lazily).  Eigensolve/hit totals stay cumulative
/// across evictions.  The default is the historical unbounded cache.
class SpectrumCache {
 public:
  SpectrumCache() = default;
  explicit SpectrumCache(CacheLimits limits) : limits_(limits) {}

  /// Returns the (shared) spectra record for `key`, creating an empty
  /// one holding `graph` on the first request.  No eigensolve runs
  /// here -- the record solves lazily on first accessor use.  With
  /// limits set, LRU records may be evicted (never the one returned).
  std::shared_ptr<GraphSpectra> get(const std::string& key,
                                    std::shared_ptr<const Graph> graph);

  std::size_t size() const;
  /// Requests that found an existing record / had to create one.
  /// Cumulative over the cache's lifetime (evictions don't subtract).
  std::int64_t hits() const;
  std::int64_t misses() const;
  /// Eigensolves actually run across all records ever cached (the
  /// expensive work); a sweep sharing one graph and one spectrum kind
  /// reports exactly 1.  Includes records since evicted, and the solves
  /// they ran after eviction.
  std::int64_t eigensolves() const;
  /// Spectrum accesses served from a memoised result (incl. evicted).
  std::int64_t spectrum_hits() const;
  /// Records dropped by the LRU bound (0 for an unbounded cache).
  std::int64_t evictions() const;
  /// Bytes of memoised spectra across the currently resident records
  /// (recomputed on read: records grow as their lazy solves complete).
  std::uint64_t resident_bytes() const;

  void clear();

 private:
  struct Record {
    std::shared_ptr<GraphSpectra> spectra;
    std::uint64_t last_use = 0;
  };

  /// Drops LRU records (never `keep`) until within limits.  Byte usage
  /// is recomputed per pass because records grow lazily.  Caller holds
  /// mutex_.
  void evict_locked(const GraphSpectra* keep);

  mutable std::mutex mutex_;
  std::map<std::string, Record> records_;
  CacheLimits limits_;
  std::uint64_t use_counter_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
  /// Solve/hit counts of every record this cache created, evicted or
  /// not; clear() starts a fresh tally.
  std::shared_ptr<GraphSpectra::Tally> tally_ =
      std::make_shared<GraphSpectra::Tally>();
};

}  // namespace opindyn

#endif  // OPINDYN_SPECTRAL_SPECTRUM_CACHE_H
