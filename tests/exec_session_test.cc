// Tests for the multi-query session scheduler (src/exec/).
//
// Invariant 1 (bit-identity): a 1-query session — and therefore
// gjoin::Join, which is one — must reproduce the pre-session
// implementation's JoinStats exactly. The goldens below were captured
// from the PR 2 tree's gjoin::Join (before it was reimplemented on
// exec::Session) with a %.17g capture harness, the same technique as
// gpujoin_stat_invariance_test: any drift in a count, checksum or
// modeled-seconds value fails the test.
//
// Invariant 2 (sharing is free): queries in a batch return stats
// bit-identical to their standalone runs, while the batch timeline
// charges shared uploads/builds once and overlaps one query's PCIe
// transfers with another's kernels (makespan < sum of solo times).
//
// Plus unit tests of the UploadCache's refcounting and budget eviction.

#include <gtest/gtest.h>

#include <vector>

#include "src/api/gjoin.h"
#include "src/data/generator.h"
#include "src/exec/session.h"
#include "src/exec/upload_cache.h"
#include "src/gpujoin/partitioned_join.h"

namespace gjoin {
namespace {

using exec::Session;
using exec::SessionConfig;
using exec::UploadCache;

/// Golden JoinStats captured from the pre-session gjoin::Join.
struct GoldenStats {
  uint64_t matches;
  uint64_t payload_sum;
  double seconds;
  double partition_s;
  double join_s;
  double transfer_s;
  double cpu_s;
};

void ExpectStatsEqual(const gpujoin::JoinStats& stats,
                      const GoldenStats& golden) {
  EXPECT_EQ(stats.matches, golden.matches);
  EXPECT_EQ(stats.payload_sum, golden.payload_sum);
  EXPECT_DOUBLE_EQ(stats.seconds, golden.seconds);
  EXPECT_DOUBLE_EQ(stats.partition_s, golden.partition_s);
  EXPECT_DOUBLE_EQ(stats.join_s, golden.join_s);
  EXPECT_DOUBLE_EQ(stats.transfer_s, golden.transfer_s);
  EXPECT_DOUBLE_EQ(stats.cpu_s, golden.cpu_s);
}

void ExpectStatsBitIdentical(const gpujoin::JoinStats& a,
                             const gpujoin::JoinStats& b) {
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.payload_sum, b.payload_sum);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_DOUBLE_EQ(a.partition_s, b.partition_s);
  EXPECT_DOUBLE_EQ(a.join_s, b.join_s);
  EXPECT_DOUBLE_EQ(a.transfer_s, b.transfer_s);
  EXPECT_DOUBLE_EQ(a.cpu_s, b.cpu_s);
}

class ExecSessionTest : public ::testing::Test {
 protected:
  ExecSessionTest()
      : r_(data::MakeUniqueUniform(100000, 21)),
        s_(data::MakeUniformProbe(200000, 100000, 22)) {}

  data::Relation r_;
  data::Relation s_;
};

// ---------------------------------------------------------------------------
// Invariant 1: 1-query sessions reproduce the pre-session goldens.
// ---------------------------------------------------------------------------

TEST_F(ExecSessionTest, OneQueryInGpuAggregateMatchesGolden) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  api::JoinConfig cfg;
  cfg.pass_bits = {6, 5};
  auto out = api::Join(&device, r_, s_, cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->strategy, api::Strategy::kInGpu);
  ExpectStatsEqual(out->stats,
                   {200000u, 30006356267ull, 0.00012578700876018098,
                    0.00010094888376018099, 2.4838125e-05,
                    0.00021512195121951218, 0.0});
}

TEST_F(ExecSessionTest, OneQueryInGpuMaterializeMatchesGolden) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  api::JoinConfig cfg;
  cfg.pass_bits = {6, 5};
  cfg.materialize = true;
  auto out = api::Join(&device, r_, s_, cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  ExpectStatsEqual(out->stats,
                   {200000u, 30006356267ull, 0.00013086227832428355,
                    0.00010094888376018099, 2.9913394564102558e-05,
                    0.00021512195121951218, 0.0});
}

TEST_F(ExecSessionTest, OneQueryInGpuDefaultConfigMatchesGolden) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  auto out = api::Join(&device, r_, s_, api::JoinConfig());
  ASSERT_TRUE(out.ok()) << out.status();
  ExpectStatsEqual(out->stats,
                   {200000u, 30006356267ull, 0.00044555871576018103,
                    0.00014376184076018097, 0.00030179687500000004,
                    0.00021512195121951218, 0.0});
}

TEST_F(ExecSessionTest, OneQueryStreamingProbeMatchesGolden) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  api::JoinConfig cfg;
  cfg.pass_bits = {6, 5};
  cfg.strategy = api::Strategy::kStreamingProbe;
  auto out = api::Join(&device, r_, s_, cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  ExpectStatsEqual(out->stats,
                   {200000u, 30006356267ull, 0.00032371133878321011,
                    0.00014927615376018096, 9.6926875000000014e-05,
                    0.00024512195121951217, 0.0});
}

TEST_F(ExecSessionTest, OneQueryCoProcessingMatchesGolden) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  api::JoinConfig cfg;
  cfg.pass_bits = {6, 5};
  cfg.strategy = api::Strategy::kCoProcessing;
  cfg.cpu_threads = 4;  // pin: the default clamps to the host
  auto out = api::Join(&device, r_, s_, cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  ExpectStatsEqual(out->stats,
                   {200000u, 30006356267ull, 0.00057678844397969324,
                    0.00010204836776018099, 2.9618124999999999e-05,
                    0.0002051219512195122, 0.00024000000000000001});
}

// The session's in-GPU branch and PartitionedJoinFromHost end in the
// same join tail (gpujoin::JoinPartitioned): under one config their
// counts and modeled partition/join seconds agree bit for bit.
TEST_F(ExecSessionTest, InGpuQueryMatchesPartitionedJoinFromHost) {
  for (const bool materialize : {false, true}) {
    SCOPED_TRACE(materialize ? "materialize" : "aggregate");
    api::JoinConfig cfg;
    cfg.pass_bits = {6, 5};
    cfg.materialize = materialize;
    sim::Device session_device{hw::HardwareSpec::Icde2019Testbed()};
    auto out = api::Join(&session_device, r_, s_, cfg);
    ASSERT_TRUE(out.ok()) << out.status();
    ASSERT_EQ(out->strategy, api::Strategy::kInGpu);

    gpujoin::PartitionedJoinConfig join_cfg;
    join_cfg.partition.pass_bits = cfg.pass_bits;
    join_cfg.join.output = materialize ? gpujoin::OutputMode::kMaterialize
                                       : gpujoin::OutputMode::kAggregate;
    sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
    auto direct = gpujoin::PartitionedJoinFromHost(&device, r_, s_, join_cfg);
    ASSERT_TRUE(direct.ok()) << direct.status();
    EXPECT_EQ(out->stats.matches, direct->matches);
    EXPECT_EQ(out->stats.payload_sum, direct->payload_sum);
    EXPECT_DOUBLE_EQ(out->stats.partition_s, direct->partition_s);
    EXPECT_DOUBLE_EQ(out->stats.join_s, direct->join_s);
    EXPECT_DOUBLE_EQ(out->stats.seconds, direct->seconds);
  }
}

TEST_F(ExecSessionTest, OneQuerySessionSpeedupIsExactlyOne) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  Session session(&device);
  api::JoinConfig cfg;
  cfg.pass_bits = {6, 5};
  const auto handle = session.Submit(r_, s_, cfg);
  ASSERT_TRUE(session.Run().ok());
  // The merged timeline of one query is its solo timeline: same ops,
  // same order, same arithmetic.
  EXPECT_DOUBLE_EQ(session.stats().makespan_s,
                   session.result(handle).solo_seconds);
  EXPECT_DOUBLE_EQ(session.stats().speedup, 1.0);
  EXPECT_EQ(session.stats().shared_build_hits, 0u);
  EXPECT_EQ(session.stats().shared_upload_hits, 0u);
}

TEST_F(ExecSessionTest, TryResultChecksHandleAndRunState) {
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  Session session(&device);
  api::JoinConfig cfg;
  cfg.pass_bits = {6, 5};
  const auto handle = session.Submit(r_, s_, cfg);

  auto before = session.TryResult(handle);
  ASSERT_FALSE(before.ok());
  EXPECT_EQ(before.status().code(), util::StatusCode::kInvalid);
  EXPECT_NE(before.status().message().find("handle 0"), std::string::npos)
      << before.status();

  ASSERT_TRUE(session.Run().ok());
  auto after = session.TryResult(handle);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, &session.result(handle));
  EXPECT_EQ((*after)->outcome.stats.matches, 200000u);

  for (const exec::QueryHandle bad : {-1, 1, 42}) {
    auto unknown = session.TryResult(bad);
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(), util::StatusCode::kInvalid);
    EXPECT_NE(unknown.status().message().find(
                  "unknown query handle " + std::to_string(bad)),
              std::string::npos)
        << unknown.status();
  }
}

// ---------------------------------------------------------------------------
// Invariant 2: batched queries return standalone-identical stats.
// ---------------------------------------------------------------------------

// A relation whose payload column is shorter than its key column would
// be read past its end by the upload: TrySubmit refuses it with a typed
// kInvalid naming the side and both lengths, and Submit enqueues it
// rejected so Run() reports that status while its siblings run.
TEST_F(ExecSessionTest, RejectsRelationsWithColumnsOfDifferentLengths) {
  api::JoinConfig cfg;
  cfg.pass_bits = {6, 5};
  data::Relation short_build = r_;
  short_build.payloads.pop_back();
  data::Relation long_probe = s_;
  long_probe.payloads.push_back(7);

  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  Session session(&device);
  auto refused = session.TrySubmit(short_build, s_, cfg);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kInvalid);
  EXPECT_EQ(refused.status().message(),
            "build relation has 100000 keys but 99999 payloads");
  refused = session.TrySubmit(r_, long_probe, cfg);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().message(),
            "probe relation has 200000 keys but 200001 payloads");

  // The columns are checked again when Run() starts: a probe that
  // matched at Submit but lost a payload since is rejected too.
  data::Relation shrunk_probe = s_;
  const auto bad_build = session.Submit(short_build, s_, cfg);
  const auto good = session.Submit(r_, s_, cfg);
  const auto bad_probe = session.Submit(r_, long_probe, cfg);
  const auto shrunk = session.Submit(r_, shrunk_probe, cfg);
  shrunk_probe.payloads.pop_back();
  ASSERT_TRUE(session.Run().ok());
  const util::Status& build_status = session.result(bad_build).status;
  EXPECT_EQ(build_status.code(), util::StatusCode::kInvalid);
  EXPECT_EQ(build_status.message(),
            "build relation has 100000 keys but 99999 payloads");
  EXPECT_EQ(session.result(bad_probe).status.message(),
            "probe relation has 200000 keys but 200001 payloads");
  EXPECT_EQ(session.result(shrunk).status.message(),
            "probe relation has 200000 keys but 199999 payloads");
  EXPECT_EQ(session.stats().failed_queries, 3u);
  EXPECT_EQ(session.stats().shed_queries, 0u);

  sim::Device solo_device{hw::HardwareSpec::Icde2019Testbed()};
  auto solo = api::Join(&solo_device, r_, s_, cfg);
  ASSERT_TRUE(solo.ok()) << solo.status();
  ASSERT_TRUE(session.result(good).status.ok());
  ExpectStatsBitIdentical(session.result(good).outcome.stats, solo->stats);

  // gjoin::Join is a one-query session: it returns the same status.
  sim::Device join_device{hw::HardwareSpec::Icde2019Testbed()};
  auto joined = api::Join(&join_device, short_build, s_, cfg);
  ASSERT_FALSE(joined.ok());
  EXPECT_EQ(joined.status().code(), util::StatusCode::kInvalid);
}

TEST_F(ExecSessionTest, SharedBuildBatchIsBitIdenticalPerQuery) {
  api::JoinConfig cfg;
  cfg.pass_bits = {6, 5};
  std::vector<data::Relation> probes;
  for (uint64_t seed : {22, 23, 24, 25}) {
    probes.push_back(data::MakeUniformProbe(200000, 100000, seed));
  }

  // Standalone runs, one fresh device each.
  std::vector<gpujoin::JoinStats> solo;
  for (const auto& probe : probes) {
    sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
    auto out = api::Join(&device, r_, probe, cfg);
    ASSERT_TRUE(out.ok()) << out.status();
    solo.push_back(out->stats);
  }

  // One batch sharing the build relation.
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  Session session(&device);
  std::vector<exec::QueryHandle> handles;
  for (const auto& probe : probes) {
    handles.push_back(session.Submit(r_, probe, cfg));
  }
  ASSERT_TRUE(session.Run().ok());

  for (size_t q = 0; q < probes.size(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    ExpectStatsBitIdentical(session.result(handles[q]).outcome.stats,
                            solo[q]);
  }
  // The build was uploaded + partitioned once, for four probes.
  EXPECT_EQ(session.stats().shared_build_hits, 3u);
  // Sharing + cross-query overlap must beat four independent runs.
  EXPECT_LT(session.stats().makespan_s, session.stats().independent_s);
  EXPECT_GT(session.stats().speedup, 1.0);
}

TEST_F(ExecSessionTest, SharedProbeUploadIsDeduplicated) {
  api::JoinConfig cfg;
  cfg.pass_bits = {6, 5};
  const auto r2 = data::MakeUniqueUniform(100000, 31);

  std::vector<gpujoin::JoinStats> solo;
  for (const data::Relation* build :
       std::initializer_list<const data::Relation*>{&r_, &r2}) {
    sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
    auto out = api::Join(&device, *build, s_, cfg);
    ASSERT_TRUE(out.ok()) << out.status();
    solo.push_back(out->stats);
  }

  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  Session session(&device);
  const auto h0 = session.Submit(r_, s_, cfg);
  const auto h1 = session.Submit(r2, s_, cfg);
  ASSERT_TRUE(session.Run().ok());
  ExpectStatsBitIdentical(session.result(h0).outcome.stats, solo[0]);
  ExpectStatsBitIdentical(session.result(h1).outcome.stats, solo[1]);
  EXPECT_EQ(session.stats().shared_upload_hits, 1u);
  EXPECT_EQ(session.stats().shared_build_hits, 0u);
}

TEST_F(ExecSessionTest, StreamingQueriesShareThePreparedBuild) {
  api::JoinConfig cfg;
  cfg.pass_bits = {6, 5};
  cfg.strategy = api::Strategy::kStreamingProbe;
  const auto s2 = data::MakeUniformProbe(200000, 100000, 42);

  std::vector<gpujoin::JoinStats> solo;
  for (const data::Relation* probe :
       std::initializer_list<const data::Relation*>{&s_, &s2}) {
    sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
    auto out = api::Join(&device, r_, *probe, cfg);
    ASSERT_TRUE(out.ok()) << out.status();
    solo.push_back(out->stats);
  }

  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  Session session(&device);
  const auto h0 = session.Submit(r_, s_, cfg);
  const auto h1 = session.Submit(r_, s2, cfg);
  ASSERT_TRUE(session.Run().ok());
  ExpectStatsBitIdentical(session.result(h0).outcome.stats, solo[0]);
  ExpectStatsBitIdentical(session.result(h1).outcome.stats, solo[1]);
  EXPECT_EQ(session.stats().shared_build_hits, 1u);
  EXPECT_LT(session.stats().makespan_s, session.stats().independent_s);
}

TEST_F(ExecSessionTest, UnsharedBatchStillOverlapsAcrossQueries) {
  api::JoinConfig cfg;
  cfg.pass_bits = {6, 5};
  const auto r2 = data::MakeUniqueUniform(100000, 51);
  const auto s2 = data::MakeUniformProbe(200000, 100000, 52);

  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  Session session(&device);
  session.Submit(r_, s_, cfg);
  session.Submit(r2, s2, cfg);
  ASSERT_TRUE(session.Run().ok());
  EXPECT_EQ(session.stats().shared_build_hits, 0u);
  EXPECT_EQ(session.stats().shared_upload_hits, 0u);
  // No sharing — the entire win is query B's transfers hiding behind
  // query A's kernels (and vice versa).
  EXPECT_LT(session.stats().makespan_s, session.stats().independent_s);
}

TEST_F(ExecSessionTest, MixedStrategyBatchKeepsPerQueryFallback) {
  api::JoinConfig ingpu_cfg;
  ingpu_cfg.pass_bits = {6, 5};
  api::JoinConfig stream_cfg = ingpu_cfg;
  stream_cfg.strategy = api::Strategy::kStreamingProbe;
  api::JoinConfig co_cfg = ingpu_cfg;
  co_cfg.strategy = api::Strategy::kCoProcessing;
  co_cfg.cpu_threads = 4;

  std::vector<gpujoin::JoinStats> solo;
  for (const api::JoinConfig* cfg : {&ingpu_cfg, &stream_cfg, &co_cfg}) {
    sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
    auto out = api::Join(&device, r_, s_, *cfg);
    ASSERT_TRUE(out.ok()) << out.status();
    solo.push_back(out->stats);
  }

  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  Session session(&device);
  const auto h0 = session.Submit(r_, s_, ingpu_cfg);
  const auto h1 = session.Submit(r_, s_, stream_cfg);
  const auto h2 = session.Submit(r_, s_, co_cfg);
  ASSERT_TRUE(session.Run().ok());
  EXPECT_EQ(session.result(h0).outcome.strategy, api::Strategy::kInGpu);
  EXPECT_EQ(session.result(h1).outcome.strategy,
            api::Strategy::kStreamingProbe);
  EXPECT_EQ(session.result(h2).outcome.strategy,
            api::Strategy::kCoProcessing);
  ExpectStatsBitIdentical(session.result(h0).outcome.stats, solo[0]);
  ExpectStatsBitIdentical(session.result(h1).outcome.stats, solo[1]);
  ExpectStatsBitIdentical(session.result(h2).outcome.stats, solo[2]);
  // The in-GPU and streaming queries share r_'s prepared build (same
  // partitioning layout).
  EXPECT_EQ(session.stats().shared_build_hits, 1u);
}

TEST_F(ExecSessionTest, TinyCacheBudgetForcesReuploadsButKeepsResults) {
  api::JoinConfig cfg;
  cfg.pass_bits = {6, 5};
  const auto s2 = data::MakeUniformProbe(200000, 100000, 61);

  auto run_batch = [&](uint64_t budget) {
    sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
    SessionConfig session_cfg;
    session_cfg.cache_budget_bytes = budget;
    Session session(&device, session_cfg);
    session.Submit(r_, s_, cfg);
    session.Submit(r_, s2, cfg);
    auto status = session.Run();
    EXPECT_TRUE(status.ok()) << status;
    return std::make_tuple(session.result(0).outcome.stats,
                           session.result(1).outcome.stats,
                           session.stats());
  };

  const auto [big_a, big_b, big] = run_batch(0);  // default: half device
  const auto [tiny_a, tiny_b, tiny] = run_batch(1);  // nothing fits

  // Per-query stats never depend on the budget...
  ExpectStatsBitIdentical(big_a, tiny_a);
  ExpectStatsBitIdentical(big_b, tiny_b);
  // ...but the batch pays for the re-upload and re-partitioning.
  EXPECT_EQ(big.shared_build_hits, 1u);
  EXPECT_EQ(tiny.shared_build_hits, 0u);
  EXPECT_GT(tiny.cache.insert_failures, 0u);
  EXPECT_GT(tiny.makespan_s, big.makespan_s);
}

TEST_F(ExecSessionTest, UnconfiguredLifecycleStateIsInert) {
  // The query-lifecycle machinery (deadlines, retry budgets, admission
  // limits, the circuit breaker) must be invisible when unconfigured:
  // a default-config session reports every lifecycle counter as zero
  // and all queries on the happy path.
  sim::Device device{hw::HardwareSpec::Icde2019Testbed()};
  Session session(&device, SessionConfig{});
  api::JoinConfig cfg;
  cfg.pass_bits = {6, 5};
  session.Submit(r_, s_, cfg);
  session.Submit(r_, s_, cfg);
  ASSERT_TRUE(session.Run().ok());

  const exec::SessionStats& stats = session.stats();
  EXPECT_EQ(stats.shed_queries, 0u);
  EXPECT_EQ(stats.deadline_misses, 0u);
  EXPECT_EQ(stats.cancelled_queries, 0u);
  EXPECT_EQ(stats.device_quarantines, 0u);
  EXPECT_EQ(stats.retry_budget_exhausted, 0u);
  for (int q = 0; q < 2; ++q) {
    EXPECT_TRUE(session.result(q).status.ok());
    EXPECT_DOUBLE_EQ(session.result(q).fault_penalty_s, 0.0);
  }
}

// ---------------------------------------------------------------------------
// UploadCache unit tests: refcounting, budget eviction.
// ---------------------------------------------------------------------------

class UploadCacheTest : public ::testing::Test {
 protected:
  UploadCacheTest() : device_(hw::HardwareSpec::Icde2019Testbed()) {}

  /// Uploads `rel` and returns (relation, measured device bytes).
  std::pair<gpujoin::DeviceRelation, uint64_t> MakeUpload(
      const data::Relation& rel) {
    const uint64_t before = device_.memory().used();
    auto uploaded = gpujoin::DeviceRelation::Upload(&device_, rel);
    uploaded.status().CheckOK();
    return {std::move(uploaded).ValueOrDie(),
            device_.memory().used() - before};
  }

  sim::Device device_;
};

TEST_F(UploadCacheTest, HitConsumesDemandAndRefcounts) {
  const auto rel = data::MakeUniqueUniform(1000, 7);
  const std::string key = UploadCache::UploadKey(rel);
  UploadCache cache(1 << 20);
  cache.AddDemand(key);
  cache.AddDemand(key);

  EXPECT_EQ(cache.AcquireUpload(key), nullptr);  // miss
  auto [uploaded, bytes] = MakeUpload(rel);
  const auto inserted = cache.InsertUpload(key, &uploaded, bytes);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  const auto* cached = *inserted;
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached->size, rel.size());
  EXPECT_EQ(cache.DemandOf(key), 1);
  cache.Release(key);

  const auto* hit = cache.AcquireUpload(key);
  EXPECT_EQ(hit, cached);
  EXPECT_EQ(cache.DemandOf(key), 0);
  cache.Release(key);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.bytes_cached(), bytes);
}

TEST_F(UploadCacheTest, LruEvictionUnderBudget) {
  const auto rel_a = data::MakeUniqueUniform(1000, 1);
  const auto rel_b = data::MakeUniqueUniform(1000, 2);
  auto [up_a, bytes_a] = MakeUpload(rel_a);
  auto [up_b, bytes_b] = MakeUpload(rel_b);
  const std::string key_a = UploadCache::UploadKey(rel_a);
  const std::string key_b = UploadCache::UploadKey(rel_b);

  // Budget holds exactly one of them.
  UploadCache cache(bytes_a);
  ASSERT_NE(*cache.InsertUpload(key_a, &up_a, bytes_a), nullptr);
  cache.Release(key_a);
  ASSERT_NE(*cache.InsertUpload(key_b, &up_b, bytes_b), nullptr);
  cache.Release(key_b);

  EXPECT_FALSE(cache.Contains(key_a));  // evicted (LRU, undemanded)
  EXPECT_TRUE(cache.Contains(key_b));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.bytes_cached(), bytes_b);
}

TEST_F(UploadCacheTest, PinnedEntriesAreNeverEvicted) {
  const auto rel_a = data::MakeUniqueUniform(1000, 1);
  const auto rel_b = data::MakeUniqueUniform(1000, 2);
  auto [up_a, bytes_a] = MakeUpload(rel_a);
  auto [up_b, bytes_b] = MakeUpload(rel_b);
  const std::string key_a = UploadCache::UploadKey(rel_a);
  const std::string key_b = UploadCache::UploadKey(rel_b);

  UploadCache cache(bytes_a);
  ASSERT_NE(*cache.InsertUpload(key_a, &up_a, bytes_a), nullptr);
  // key_a still in use: key_b cannot fit and must NOT displace it. The
  // budget could hold key_b in principle, so this is the transient
  // refusal shape — an OK result carrying nullptr, not an error.
  const auto refused = cache.InsertUpload(key_b, &up_b, bytes_b);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(*refused, nullptr);
  EXPECT_TRUE(cache.Contains(key_a));
  EXPECT_EQ(cache.stats().insert_failures, 1u);
  // The refused artifact stays with the caller as a private copy.
  EXPECT_TRUE(up_b.keys.allocated());
}

TEST_F(UploadCacheTest, EvictionPrefersUndemandedEntries) {
  const auto rel_a = data::MakeUniqueUniform(1000, 1);
  const auto rel_b = data::MakeUniqueUniform(1000, 2);
  const auto rel_c = data::MakeUniqueUniform(1000, 3);
  auto [up_a, bytes_a] = MakeUpload(rel_a);
  auto [up_b, bytes_b] = MakeUpload(rel_b);
  auto [up_c, bytes_c] = MakeUpload(rel_c);
  const std::string key_a = UploadCache::UploadKey(rel_a);
  const std::string key_b = UploadCache::UploadKey(rel_b);
  const std::string key_c = UploadCache::UploadKey(rel_c);

  UploadCache cache(bytes_a + bytes_b);
  // key_a is older than key_b, but key_a is still demanded and key_b is
  // not — so inserting key_c must evict key_b despite LRU order.
  cache.AddDemand(key_a);
  cache.AddDemand(key_a);
  ASSERT_NE(*cache.InsertUpload(key_a, &up_a, bytes_a), nullptr);
  cache.Release(key_a);
  ASSERT_NE(*cache.InsertUpload(key_b, &up_b, bytes_b), nullptr);
  cache.Release(key_b);
  ASSERT_NE(*cache.InsertUpload(key_c, &up_c, bytes_c), nullptr);
  cache.Release(key_c);

  EXPECT_TRUE(cache.Contains(key_a));
  EXPECT_FALSE(cache.Contains(key_b));
  EXPECT_TRUE(cache.Contains(key_c));
}

TEST_F(UploadCacheTest, OversizeArtifactReturnsTypedOutOfMemory) {
  const auto rel = data::MakeUniqueUniform(1000, 7);
  auto [uploaded, bytes] = MakeUpload(rel);
  const std::string key = UploadCache::UploadKey(rel);

  // Budget smaller than the artifact itself: it can NEVER be cached,
  // and the refusal is a typed kOutOfMemory (the session's strict
  // budget mode feeds it to the degradation ladder).
  UploadCache cache(bytes - 1);
  cache.AddDemand(key);
  const auto refused = cache.InsertUpload(key, &uploaded, bytes);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kOutOfMemory);
  EXPECT_NE(refused.status().ToString().find("exceeds"), std::string::npos);
  EXPECT_EQ(cache.stats().insert_failures, 1u);
  EXPECT_EQ(cache.DemandOf(key), 0);  // the declared use was consumed
  // The caller keeps the artifact as a private, uncached copy.
  EXPECT_TRUE(uploaded.keys.allocated());
  EXPECT_EQ(cache.bytes_cached(), 0u);
}

TEST_F(UploadCacheTest, BuildAndUploadKeysAreDistinct) {
  const auto rel = data::MakeUniqueUniform(1000, 7);
  gpujoin::RadixPartitionConfig partition;
  EXPECT_NE(UploadCache::UploadKey(rel), UploadCache::BuildKey(rel, partition));
  // Different partitioning layouts yield different build artifacts.
  gpujoin::RadixPartitionConfig other = partition;
  other.pass_bits = {4, 4};
  EXPECT_NE(UploadCache::BuildKey(rel, partition),
            UploadCache::BuildKey(rel, other));
}

}  // namespace
}  // namespace gjoin
