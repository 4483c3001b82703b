// Workload generators for the paper's evaluation (Section V).
//
// All generators are deterministic in their seed. Key spaces start at 1
// (key 0 is reserved as the empty slot marker of the perfect-hash
// baseline). An empty key domain (`distinct` = 0) is treated as the one
// key 1, the way util::ZipfGenerator treats n = 0.

#ifndef GJOIN_DATA_GENERATOR_H_
#define GJOIN_DATA_GENERATOR_H_

#include <cstdint>
#include <functional>

#include "src/data/relation.h"

namespace gjoin::data {

/// Unique uniform keys: a random permutation of [1, n]. This is the
/// paper's default build-side workload — unique keys over a contiguous
/// range (which is what makes the perfect-hash baseline of Fig. 8
/// applicable).
Relation MakeUniqueUniform(size_t n, uint64_t seed);

/// Probe side that hits the same distinct value set [1, distinct] with
/// `n` tuples drawn uniformly. Used for the 1:2 / 1:4 build-to-probe
/// ratios, where "for each build-side table size, we keep the same set of
/// distinct values in the probe-side" (Fig. 8).
Relation MakeUniformProbe(size_t n, size_t distinct, uint64_t seed);

/// Zipf-distributed foreign keys over [1, distinct] with skew `s`
/// (s = 0 is uniform). Drives Figures 17, 18 and 20.
///
/// Ranks are mapped to keys through a permutation derived from
/// `perm_seed`, spreading heavy hitters over the key domain (and thus
/// over radix partitions). Two relations generated with the same
/// perm_seed but different `seed`s are "identically skewed with the same
/// popular values" — the paper's worst case; different perm_seeds give
/// independently skewed relations. perm_seed = 0 derives it from `seed`.
///
/// The output is exactly that of one util::ZipfGenerator::Next() and one
/// rank-to-key lookup per tuple, computed in blocks of at most
/// kZipfDrawBlock generator draws: the draws are taken in order on the
/// calling thread, mapped to ranks (s > 0) and keys on
/// util::ThreadPool::Default(), and kept in draw order. So MakeZipf must
/// not be called from inside a ThreadPool::Default() task
/// (ThreadPool::Wait() forbids that).
Relation MakeZipf(size_t n, size_t distinct, double skew, uint64_t seed,
                  uint64_t perm_seed = 0);

/// Largest number of generator draws MakeZipf maps per pool dispatch.
inline constexpr size_t kZipfDrawBlock = size_t{1} << 15;

/// Uniform distribution with duplicates: n tuples over n / avg_replicas
/// distinct values, so every key appears `avg_replicas` times on average
/// (Fig. 19).
Relation MakeReplicated(size_t n, double avg_replicas, uint64_t seed);

/// \brief Consumer of a streamed relation: called with consecutive
/// views covering tuples [0, n) in order. Views borrow generator-owned
/// storage and are invalidated by the next call.
using ChunkSink = std::function<void(const RelationView&)>;

/// Streams the exact tuple sequence of MakeUniqueUniform(n, seed) in
/// chunks of at most `chunk_tuples`. Only the shuffled key column is
/// ever materialized (the payload of position i is just i, synthesized
/// per chunk), so peak residency is n key bytes plus one chunk instead
/// of a full relation — what lets fig13 run at --divisor=1.
void StreamUniqueUniform(size_t n, uint64_t seed, size_t chunk_tuples,
                         const ChunkSink& sink);

/// Streams the exact tuple sequence of MakeUniformProbe(n, distinct,
/// seed) in chunks of at most `chunk_tuples`. Every draw is
/// independent, so peak residency is a single chunk.
void StreamUniformProbe(size_t n, size_t distinct, uint64_t seed,
                        size_t chunk_tuples, const ChunkSink& sink);

}  // namespace gjoin::data

#endif  // GJOIN_DATA_GENERATOR_H_
