// Memoised per-graph eigensolves.  The paper's tightness and convergence
// predictions (Prop. B.2, Thm. 2.4, the f2_* initial states) all consume
// per-graph spectral quantities -- lambda_2 and f_2 of the lazy walk
// matrix P, the Laplacian spectrum -- and a sweep revisits the same
// graph in cell after cell.  A GraphSpectra record memoises each
// eigensolve per graph; the SpectrumCache shares one record per
// graph-cache key, so a whole sweep performs exactly one eigensolve per
// distinct graph and spectrum kind.
//
// Eigenvalues and eigenvectors are memoised apart.  The rates (Thm. 2.2,
// Thm. 2.4, Prop. B.1) read only eigenvalues, which walk() / laplacian()
// serve from an eigenvalues-only Jacobi solve; only the f2_* initial
// states and propB1_drop read f_2, through walk_f2() / laplacian_f2(),
// which run the full solve and fill the eigenvalue memo with it (the two
// solves' eigenvalues are bit-identical).  So an eigenvalue request
// after an f2 request is a hit, but an f2 request on a record whose
// eigenvalues a values-only solve already filled -- a later serve job on
// the same graph, say -- runs one more solve, counted like any other
// (and in vector_solves).
//
// Locking mirrors GraphCache: the cache's global mutex only guards the
// key -> record map, never an eigensolve.  Each record runs its solves
// under its own once-latches (std::call_once), one for the eigenvalues
// and one for f_2 per kind, so concurrent cells needing the *same*
// spectrum solve once while cells needing *different* graphs solve in
// parallel.
//
// Declared spectra solve up front: a scenario declares the spectra it
// reads (Scenario::reads_spectra) and the initial distribution declares
// its own (initial_reads_spectra), eigenvalues and f_2 apart
// (SpectrumNeeds).  The runner's prefetch pass solves the initial's
// spectra before drawing the initial state, then queues one unit per
// distinct graph for the scenario's, ahead of every cell's units -- so
// two graphs' eigensolves run at the same time instead of one after the
// other behind the first prediction unit's once-latch, and the replicas
// run beside them.  Declaring f_2 makes that one unit run the full
// solve, so a run still solves once per graph and kind.  An eigensolve
// of a spectrum that neither declared is a late solve (BatchResult /
// spectrum_cache.late_solves): it means a declaration is missing.
#ifndef OPINDYN_SPECTRAL_SPECTRUM_CACHE_H
#define OPINDYN_SPECTRAL_SPECTRUM_CACHE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/spectral/spectra.h"
#include "src/support/cache_limits.h"

namespace opindyn {

/// Which spectra of a graph a consumer reads: the lazy-walk eigenvalues
/// (lambda_2(P), gap) and/or the Laplacian ones (lambda_2(L)), and
/// whether it reads f_2 of that kind as well.  An f2 flag is set
/// together with its kind's eigenvalue flag.  The default reads none.
struct SpectrumNeeds {
  bool walk = false;
  bool laplacian = false;
  bool walk_f2 = false;
  bool laplacian_f2 = false;

  bool any() const noexcept {
    return walk || laplacian || walk_f2 || laplacian_f2;
  }
  SpectrumNeeds operator|(SpectrumNeeds other) const noexcept {
    return {walk || other.walk, laplacian || other.laplacian,
            walk_f2 || other.walk_f2, laplacian_f2 || other.laplacian_f2};
  }
};

/// Lazily-computed spectral record of one immutable graph.  Each
/// accessor runs its eigensolve on first use (on the *calling* thread,
/// under a once-latch) and returns the memoised result afterwards;
/// accessors are safe to call concurrently.  The referenced graph is
/// kept alive by the record.
class GraphSpectra {
 public:
  /// Solve/hit totals a SpectrumCache shares with every record it
  /// creates, so its counters include the solves a record runs after
  /// eviction while a holder still uses it.
  struct Tally {
    std::atomic<std::int64_t> solves{0};
    std::atomic<std::int64_t> vector_solves{0};
    std::atomic<std::int64_t> hits{0};
  };

  explicit GraphSpectra(std::shared_ptr<const Graph> graph,
                        std::shared_ptr<Tally> tally = nullptr);

  /// Lazy-walk eigenvalues (lambda_2(P), gap); an eigenvalues-only
  /// solve, once, unless walk_f2() filled them first.
  const WalkEigenvalues& walk() const;
  /// Laplacian eigenvalues (lambda_2(L)); likewise.
  const LaplacianEigenvalues& laplacian() const;
  /// f_2(P), pi-normalised (WalkSpectrum::f2); one full solve, which
  /// also fills walk() if it was not yet solved (under walk()'s latch,
  /// so a concurrent walk() waits for it).  A unit reading both calls
  /// this first: walk() is then a hit whichever unit solved.
  const std::vector<double>& walk_f2() const;
  /// f_2(L) (LaplacianSpectrum::f2); likewise.
  const std::vector<double>& laplacian_f2() const;
  /// Calls the accessors `needs` asks for: the f2 one where an f2 flag
  /// is set (it serves the eigenvalues too), else the eigenvalue one.
  void solve(SpectrumNeeds needs) const;

  const Graph& graph() const noexcept { return *graph_; }

  /// Eigensolves this record has actually run (0..4).
  std::int64_t solves() const noexcept;
  /// The solves run so far: walk / laplacian for an eigenvalues-only
  /// solve, walk_f2 / laplacian_f2 for a full one (whose eigenvalues
  /// serve walk() / laplacian() as well).  Safe to read while other
  /// threads solve.
  SpectrumNeeds solved() const noexcept;
  /// Accessor calls served from the memo without solving.
  std::int64_t hits() const noexcept;

  /// Heap bytes of the memoised spectra solved so far (grows as lazy
  /// solves complete; excludes the shared graph, which GraphCache
  /// accounts).  Safe to read while other threads solve.
  std::uint64_t memory_bytes() const noexcept;

 private:
  /// One kind's memo: the eigenvalues and f_2, each behind its own
  /// once-latch.
  template <class Values>
  struct Memo {
    std::once_flag values_once;
    std::once_flag f2_once;
    std::unique_ptr<const Values> values;
    std::vector<double> f2;
    std::atomic<bool> values_solved{false};
    std::atomic<bool> f2_solved{false};
  };

  template <class Values>
  const Values& values_of(Memo<Values>& memo,
                          Values (*solver)(const Graph&)) const;
  template <class Values, class Spectrum>
  const std::vector<double>& f2_of(Memo<Values>& memo,
                                   Spectrum (*solver)(const Graph&)) const;
  /// Bumps the per-record and the shared counters.
  void count_solve(bool vectors) const noexcept;
  void count_hit() const noexcept;

  std::shared_ptr<const Graph> graph_;
  std::shared_ptr<Tally> tally_;
  mutable Memo<WalkEigenvalues> walk_;
  mutable Memo<LaplacianEigenvalues> laplacian_;
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
  /// The part of eigensolves() that rotated eigenvectors: the full
  /// solves behind walk_f2() / laplacian_f2().  0 for a sweep that
  /// reads only eigenvalues.
  std::int64_t vector_solves() const;
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
