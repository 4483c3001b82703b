#include "src/gpujoin/agg_table.h"

#include <algorithm>

#include "src/util/bits.h"

namespace gjoin::gpujoin {

namespace {

constexpr uint64_t kOne = uint64_t{1} << 48;
constexpr uint64_t kSumMask = kOne - 1;

}  // namespace

void AggTable::Build(const BucketChains& chains, uint32_t p,
                     uint32_t build_tuples, int radix_bits,
                     uint32_t hash_slots) {
  // At most a quarter full. Measured on 2048-tuple co-partitions: at
  // half full, the probes that step past their home entry cost a third
  // more probe time than this.
  const uint32_t key_cap = static_cast<uint32_t>(
      util::NextPowerOfTwo(std::max<uint32_t>(4 * build_tuples, 16)));
  if (keys_.size() < key_cap) {
    keys_.resize(key_cap);
    aggs_.resize(key_cap);
  }
  if (lengths_.size() < hash_slots) lengths_.resize(hash_slots);
  std::fill_n(lengths_.data(), hash_slots, 0);
  std::fill_n(keys_.data(), key_cap, 0);
  key_mask_ = key_cap - 1;
  hash_slots_ = hash_slots;
  radix_bits_ = radix_bits;

  uint32_t* keys = keys_.data();
  uint64_t* aggs = aggs_.data();
  const uint32_t cap = chains.bucket_capacity();
  uint64_t zero_agg = 0;
  for (int32_t b = chains.heads()[p]; b != BucketChains::kNull;
       b = chains.next()[b]) {
    const size_t base = static_cast<size_t>(b) * cap;
    const uint32_t* bkeys = chains.keys() + base;
    const uint32_t* bpays = chains.payloads() + base;
    for (uint32_t i = 0; i < chains.fill()[b]; ++i) {
      const uint32_t key = bkeys[i];
      ++lengths_[util::HashTableSlot(key, radix_bits, hash_slots)];
      if (key == 0) {
        zero_agg += kOne + bpays[i];
        continue;
      }
      uint32_t k = util::Mix32(key) & key_mask_;
      while (keys[k] != key && keys[k] != 0) k = (k + 1) & key_mask_;
      const uint64_t prior = keys[k] == 0 ? 0 : aggs[k];
      keys[k] = key;
      aggs[k] = prior + kOne + bpays[i];
    }
  }
  // Key 0 last: where a probe for key 0 stops (see agg_table.h).
  uint32_t k = util::Mix32(0) & key_mask_;
  while (keys[k] != 0) k = (k + 1) & key_mask_;
  aggs[k] = zero_agg;
}

void AggTable::Probe(const uint32_t* probe_keys, const uint32_t* probe_pays,
                     uint32_t n, uint64_t* steps, uint64_t* matches,
                     uint64_t* checksum) const {
  const uint16_t* lengths = lengths_.data();
  const uint32_t* keys = keys_.data();
  const uint64_t* aggs = aggs_.data();
  uint64_t st = 0, m = 0, c = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t key = probe_keys[i];
    st += lengths[util::HashTableSlot(key, radix_bits_, hash_slots_)];
    uint32_t k = util::Mix32(key) & key_mask_;
    while (keys[k] != key && keys[k] != 0) k = (k + 1) & key_mask_;
    const uint64_t agg = keys[k] == key ? aggs[k] : 0;
    const uint64_t count = agg >> 48;
    m += count;
    c += (agg & kSumMask) + count * probe_pays[i];
  }
  *steps += st;
  *matches += m;
  *checksum += c;
}

}  // namespace gjoin::gpujoin
