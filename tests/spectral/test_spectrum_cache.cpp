// SpectrumCache / GraphSpectra: one eigensolve per graph and spectrum
// kind, lazily and under concurrency, with eigenvalues and f2 memoised
// apart; shared records per cache key; the memoised values match the
// direct solvers bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "src/graph/generators.h"
#include "src/spectral/spectrum_cache.h"

namespace opindyn {
namespace {

TEST(GraphSpectra, SolvesEachKindLazilyAndOnce) {
  GraphSpectra spectra(std::make_shared<const Graph>(gen::cycle(8)));
  EXPECT_EQ(spectra.solves(), 0);  // nothing solved until asked

  const WalkEigenvalues& walk = spectra.walk();
  EXPECT_EQ(spectra.solves(), 1);
  const LaplacianEigenvalues& laplacian = spectra.laplacian();
  EXPECT_EQ(spectra.solves(), 2);

  // Repeat accesses are memo hits, never new solves.
  EXPECT_EQ(&spectra.walk(), &walk);
  EXPECT_EQ(&spectra.laplacian(), &laplacian);
  EXPECT_EQ(spectra.solves(), 2);
  EXPECT_EQ(spectra.hits(), 2);
}

TEST(GraphSpectra, ValuesMatchTheDirectSolvers) {
  const auto graph = std::make_shared<const Graph>(gen::petersen());
  GraphSpectra spectra(graph);
  const WalkSpectrum direct_walk = lazy_walk_spectrum(*graph);
  const LaplacianSpectrum direct_lap = laplacian_spectrum(*graph);
  // The record runs the identical deterministic solver, so the values
  // are bitwise equal -- the cache can never change golden outputs.
  EXPECT_EQ(spectra.walk().lambda2, direct_walk.lambda2);
  EXPECT_EQ(spectra.walk_f2(), direct_walk.f2);
  EXPECT_EQ(spectra.laplacian().lambda2, direct_lap.lambda2);
  EXPECT_EQ(spectra.laplacian_f2(), direct_lap.f2);
}

TEST(GraphSpectra, ConcurrentAccessorsSolveExactlyOnce) {
  GraphSpectra spectra(std::make_shared<const Graph>(gen::complete(24)));
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&spectra] {
      // Latecomers block on the once-latch and then read the memo.
      EXPECT_GT(spectra.walk().lambda2, 0.0);
      EXPECT_GT(spectra.laplacian().lambda2, 0.0);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(spectra.solves(), 2);
  EXPECT_EQ(spectra.hits(), 14);  // 8 accesses per kind, 1 solve each
}

TEST(GraphSpectra, F2SolveServesTheEigenvaluesButNotTheReverse) {
  const auto graph = std::make_shared<const Graph>(gen::petersen());
  // f2 first: the full solve fills the eigenvalue memo, so the later
  // eigenvalue request is a hit.
  GraphSpectra f2_first(graph);
  const std::vector<double>& f2 = f2_first.walk_f2();
  EXPECT_EQ(f2_first.solves(), 1);
  EXPECT_EQ(f2_first.walk().lambda2, lazy_walk_spectrum(*graph).lambda2);
  EXPECT_EQ(f2_first.solves(), 1);
  EXPECT_EQ(f2_first.hits(), 1);
  EXPECT_EQ(f2_first.solved().walk, false);  // no values-only solve ran
  EXPECT_EQ(f2_first.solved().walk_f2, true);

  // Eigenvalues first: an eigenvalues-only solve holds no f2, so the f2
  // request runs one more (full) solve.
  GraphSpectra values_first(graph);
  const double lambda2 = values_first.walk().lambda2;
  EXPECT_EQ(values_first.solves(), 1);
  EXPECT_EQ(values_first.walk_f2(), f2);
  EXPECT_EQ(values_first.solves(), 2);
  EXPECT_EQ(values_first.walk().lambda2, lambda2);
  EXPECT_EQ(values_first.laplacian_f2(), laplacian_spectrum(*graph).f2);
  EXPECT_EQ(values_first.solves(), 3);
  EXPECT_EQ(values_first.hits(), 1);
}

TEST(GraphSpectra, ConcurrentValuesAndF2CallersSolveOnceEachWay) {
  // Half the threads read the eigenvalues, half f2, of both kinds, on
  // one cold record: each once-latch runs its solve once.  Whether the
  // eigenvalue latch runs a values-only solve or is filled by the full
  // solve depends on who arrives first, so there are one or two solves
  // per kind, and every call is either a solve or a hit.
  constexpr int kThreads = 8;
  const auto graph = std::make_shared<const Graph>(gen::complete(24));
  const auto tally = std::make_shared<GraphSpectra::Tally>();
  GraphSpectra spectra(graph, tally);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&spectra, t] {
      if (t % 2 == 0) {
        EXPECT_GT(spectra.walk().lambda2, 0.0);
        EXPECT_GT(spectra.laplacian().lambda2, 0.0);
      } else {
        EXPECT_EQ(spectra.walk_f2().size(), 24u);
        EXPECT_EQ(spectra.laplacian_f2().size(), 24u);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(tally->vector_solves.load(), 2);  // one full solve per kind
  EXPECT_GE(spectra.solves(), 2);
  EXPECT_LE(spectra.solves(), 4);
  EXPECT_EQ(spectra.solves() + spectra.hits(), 2 * kThreads);
  // The memo holds the direct solvers' results whichever way it filled.
  EXPECT_EQ(spectra.walk().values, lazy_walk_spectrum(*graph).values);
  EXPECT_EQ(spectra.walk_f2(), lazy_walk_spectrum(*graph).f2);
  EXPECT_EQ(spectra.laplacian().values, laplacian_spectrum(*graph).values);
  EXPECT_EQ(spectra.laplacian_f2(), laplacian_spectrum(*graph).f2);
}

TEST(SpectrumCache, SharesOneRecordPerKey) {
  SpectrumCache cache;
  const auto cycle = std::make_shared<const Graph>(gen::cycle(8));
  const auto star = std::make_shared<const Graph>(gen::star(8));

  const auto a = cache.get("cycle;8", cycle);
  const auto b = cache.get("cycle;8", cycle);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);

  const auto c = cache.get("star;8", star);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 2u);

  // get() never solves anything; only accessor use does.
  EXPECT_EQ(cache.eigensolves(), 0);
  a->walk();
  b->walk();  // same record: second access is a spectrum hit
  c->laplacian();
  EXPECT_EQ(cache.eigensolves(), 2);
  EXPECT_EQ(cache.vector_solves(), 0);  // eigenvalues only so far
  EXPECT_EQ(cache.spectrum_hits(), 1);
  c->laplacian_f2();
  EXPECT_EQ(cache.eigensolves(), 3);
  EXPECT_EQ(cache.vector_solves(), 1);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.eigensolves(), 0);
  // Records already handed out survive a clear (shared ownership).
  EXPECT_EQ(a->graph().node_count(), 8);
}


TEST(SpectrumCache, EntryCapEvictsLeastRecentlyUsedRecord) {
  SpectrumCache cache(CacheLimits{2, 0});
  const auto a =
      cache.get("c8", std::make_shared<const Graph>(gen::cycle(8)));
  a->walk();  // one eigensolve lives in this record
  cache.get("c12", std::make_shared<const Graph>(gen::cycle(12)));
  // Touch "c8" so "c12" is the LRU victim.
  cache.get("c8", std::make_shared<const Graph>(gen::cycle(8)));
  cache.get("c16", std::make_shared<const Graph>(gen::cycle(16)));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  // Eviction retires the record but never loses the cumulative solve
  // counters, and holders keep the record alive.
  EXPECT_EQ(cache.eigensolves(), 1);
  EXPECT_EQ(a->graph().node_count(), 8);

  const std::int64_t misses_before = cache.misses();
  cache.get("c12", std::make_shared<const Graph>(gen::cycle(12)));
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST(SpectrumCache, ByteCapCountsSolvedSpectraLazily) {
  // Records grow when a spectrum is actually solved, so the byte cap
  // must be re-evaluated against current record sizes on admission.
  // Measure two fully-solved records to pick a cap that holds either
  // one alone but not both together.
  GraphSpectra probe8(std::make_shared<const Graph>(gen::cycle(8)));
  probe8.walk();
  probe8.laplacian();
  GraphSpectra probe32(std::make_shared<const Graph>(gen::cycle(32)));
  probe32.walk();
  probe32.laplacian();
  const std::uint64_t cap =
      probe8.memory_bytes() + probe32.memory_bytes() - 1;

  SpectrumCache cache(CacheLimits{0, cap});
  const auto a =
      cache.get("c8", std::make_shared<const Graph>(gen::cycle(8)));
  const std::uint64_t empty_bytes = cache.resident_bytes();
  ASSERT_GT(empty_bytes, 0u);
  a->walk();
  a->laplacian();
  EXPECT_GT(cache.resident_bytes(), empty_bytes);
  const auto b =
      cache.get("c32", std::make_shared<const Graph>(gen::cycle(32)));
  b->walk();
  b->laplacian();
  EXPECT_EQ(cache.evictions(), 0);  // nothing admitted since the growth

  // This admission sees the grown total and evicts the LRU record a.
  cache.get("c12", std::make_shared<const Graph>(gen::cycle(12)));
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_LE(cache.resident_bytes(), cap);
  // The retired record keeps its cumulative counters in the cache
  // totals and stays usable through the holder's pointer.
  EXPECT_EQ(cache.eigensolves(), 4);
  EXPECT_EQ(a->graph().node_count(), 8);
}

TEST(SpectrumCache, ByteCapEnforcedOnHitsWithoutNewAdmissions) {
  // A warm serve process can keep hitting the same keys while lazy
  // solves grow resident bytes past the cap; enforcement must not wait
  // for a new key to arrive.
  GraphSpectra probe8(std::make_shared<const Graph>(gen::cycle(8)));
  probe8.walk();
  probe8.laplacian();
  GraphSpectra probe32(std::make_shared<const Graph>(gen::cycle(32)));
  probe32.walk();
  probe32.laplacian();
  const std::uint64_t cap =
      probe8.memory_bytes() + probe32.memory_bytes() - 1;

  SpectrumCache cache(CacheLimits{0, cap});
  const auto a =
      cache.get("c8", std::make_shared<const Graph>(gen::cycle(8)));
  const auto b =
      cache.get("c32", std::make_shared<const Graph>(gen::cycle(32)));
  a->walk();
  a->laplacian();
  b->walk();
  b->laplacian();
  EXPECT_EQ(cache.evictions(), 0);  // growth alone never evicts

  // A plain hit on the warm key sees the grown total; the hit record
  // is pinned, so the LRU record a is the victim.
  cache.get("c32", std::make_shared<const Graph>(gen::cycle(32)));
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_LE(cache.resident_bytes(), cap);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(a->graph().node_count(), 8);
}

}  // namespace
}  // namespace opindyn
