#include "src/data/generator.h"

#include <algorithm>
#include <vector>

#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace gjoin::data {

Relation MakeUniqueUniform(size_t n, uint64_t seed) {
  Relation rel;
  rel.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rel.Append(static_cast<uint32_t>(i + 1), static_cast<uint32_t>(i));
  }
  util::Rng rng(seed);
  // Shuffle keys only; payload i remains the row id of position i.
  util::Shuffle(&rel.keys, &rng);
  return rel;
}

Relation MakeUniformProbe(size_t n, size_t distinct, uint64_t seed) {
  distinct = std::max<size_t>(distinct, 1);
  Relation rel;
  rel.Reserve(n);
  util::Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t key = static_cast<uint32_t>(rng.Uniform(distinct) + 1);
    rel.Append(key, static_cast<uint32_t>(i));
  }
  return rel;
}

void StreamUniqueUniform(size_t n, uint64_t seed, size_t chunk_tuples,
                         const ChunkSink& sink) {
  chunk_tuples = std::max<size_t>(chunk_tuples, 1);
  // The shuffle needs the whole key column; payloads are synthesized
  // per chunk (payload of position i is i, as in MakeUniqueUniform).
  std::vector<uint32_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<uint32_t>(i + 1);
  util::Rng rng(seed);
  util::Shuffle(&keys, &rng);
  std::vector<uint32_t> payloads(std::min(n, chunk_tuples));
  for (size_t begin = 0; begin < n; begin += chunk_tuples) {
    const size_t end = std::min(n, begin + chunk_tuples);
    for (size_t i = begin; i < end; ++i) {
      payloads[i - begin] = static_cast<uint32_t>(i);
    }
    sink(RelationView{keys.data() + begin, payloads.data(), end - begin, 4});
  }
}

void StreamUniformProbe(size_t n, size_t distinct, uint64_t seed,
                        size_t chunk_tuples, const ChunkSink& sink) {
  distinct = std::max<size_t>(distinct, 1);
  chunk_tuples = std::max<size_t>(chunk_tuples, 1);
  util::Rng rng(seed);
  std::vector<uint32_t> keys(std::min(n, chunk_tuples));
  std::vector<uint32_t> payloads(std::min(n, chunk_tuples));
  for (size_t begin = 0; begin < n; begin += chunk_tuples) {
    const size_t end = std::min(n, begin + chunk_tuples);
    for (size_t i = begin; i < end; ++i) {
      keys[i - begin] = static_cast<uint32_t>(rng.Uniform(distinct) + 1);
      payloads[i - begin] = static_cast<uint32_t>(i);
    }
    sink(RelationView{keys.data(), payloads.data(), end - begin, 4});
  }
}

Relation MakeZipf(size_t n, size_t distinct, double skew, uint64_t seed,
                  uint64_t perm_seed) {
  distinct = std::max<size_t>(distinct, 1);
  Relation rel;
  rel.Reserve(n);
  util::ZipfGenerator zipf(distinct, skew, seed);
  // Map ranks to keys through a mixing permutation so that the popular
  // values are spread over the key domain (and thus over partitions) the
  // way hashing real skewed data would — otherwise all heavy hitters
  // would collide into partition 0. A shared perm_seed aligns the
  // popular values of two relations (identical skew).
  if (perm_seed == 0) perm_seed = seed ^ 0xabcdef12345ULL;
  util::Rng rng(perm_seed);
  std::vector<uint32_t> rank_to_key(distinct);
  for (size_t i = 0; i < distinct; ++i) {
    rank_to_key[i] = static_cast<uint32_t>(i + 1);
  }
  util::Shuffle(&rank_to_key, &rng);

  // Each rejection-inversion step takes one draw and accepts or rejects
  // it on that draw alone, so a block of draws taken in order maps to
  // ranks in parallel, and its accepted ranks kept in draw order are
  // exactly Next()'s. The rank-to-key lookups, which mostly miss the
  // cache, run as a batch instead of each waiting behind a pow() chain.
  // A block never holds more draws than tuples are missing, so no draw is
  // wasted. Skew 0 keeps its sequential Rng::Uniform ranks (one may take
  // several draws); only their lookups are batched.
  const bool uniform = zipf.skew() == 0.0;
  std::vector<uint64_t> block(std::min(n, kZipfDrawBlock));
  while (rel.size() < n) {
    const size_t draws = std::min(kZipfDrawBlock, n - rel.size());
    for (size_t j = 0; j < draws; ++j) {
      block[j] = uniform ? zipf.Next() : zipf.rng()->Next64();
    }
    // Keys start at 1, so 0 still marks a rejected draw after the lookup.
    util::ThreadPool::Default()->ParallelForRanges(
        draws, [&](size_t /*worker*/, size_t begin, size_t end) {
          if (!uniform) {
            for (size_t j = begin; j < end; ++j) {
              block[j] = zipf.Candidate(block[j]);
            }
          }
          for (size_t j = begin; j < end; ++j) {
            if (block[j] != 0) block[j] = rank_to_key[block[j] - 1];
          }
        });
    for (size_t j = 0; j < draws; ++j) {
      if (block[j] == 0) continue;
      rel.Append(static_cast<uint32_t>(block[j]),
                 static_cast<uint32_t>(rel.size()));
    }
  }
  return rel;
}

Relation MakeReplicated(size_t n, double avg_replicas, uint64_t seed) {
  if (avg_replicas < 1.0) avg_replicas = 1.0;
  const size_t distinct =
      static_cast<size_t>(static_cast<double>(n) / avg_replicas);
  return MakeUniformProbe(n, distinct, seed);
}

}  // namespace gjoin::data
