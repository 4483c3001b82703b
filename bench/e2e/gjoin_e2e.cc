// End-to-end benchmark driver: runs one named workload per process,
// times every call into the public gjoin API from outside, and checks
// every result against data::JoinOracle.
//
//   GJOIN_CPU_THREADS=2 gjoin_e2e --workload=ingpu_uniform --seed=1
//       --seconds=10 [--reps=N] [--trace_dir=DIR] [--smoke]
//
// bench/e2e/run.py builds and drives this binary; bench/e2e/README.md
// describes the workloads and every metric. The load shape is a closed
// loop with one client: the process makes sequential calls, each only
// after the previous one returned.
//
// A run has three phases:
//   1. set-up, repeated kSetupReps times: generate the inputs from
//      --seed, compute the oracle, make one untimed warm-up call;
//   2. timed calls (api::Join, or one exec::Session::Run for the
//      multi-query workload) until --seconds have passed and at least
//      --reps calls were made;
//   3. with --trace_dir only: traced repetitions, alternating a session
//      call with the session's own profiler attached and a decomposed
//      call that invokes the public layer functions Session::ExecuteAttempt
//      uses, each wrapped in a span. The spans become the per-layer
//      metrics and a Chrome-trace JSON file (loadable in Perfetto).
//      Traced and untraced calls split --seconds evenly.
//
// The last stdout line is `RESULT {json}` with every metric as
// [value, unit]. A wrong result, a strategy other than the workload's,
// or modeled numbers that differ between calls exit with status 3;
// bad arguments or a wrong pool width exit with status 2.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "src/api/gjoin.h"
#include "src/cpu/cpu_partition.h"
#include "src/data/generator.h"
#include "src/data/oracle.h"
#include "src/exec/session.h"
#include "src/gpujoin/join_copartitions.h"
#include "src/gpujoin/output_ring.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/gpujoin/radix_partition.h"
#include "src/hw/cpu_cost.h"
#include "src/hw/numa.h"
#include "src/hw/pcie.h"
#include "src/obs/profile.h"
#include "src/outofgpu/coprocess.h"
#include "src/outofgpu/streaming_probe.h"
#include "src/sim/topology.h"

namespace gjoin::e2e {
namespace {

// Load shape. Host timings depend on the pool width, so it is pinned;
// 2 leaves a 4-core host a core for the calling thread and the system.
// cpu_threads is a modeled resource: left at its default it would follow
// the host's core count and change the modeled numbers.
constexpr size_t kPoolWidth = 2;
constexpr int kCpuThreads = 16;

// Set-up repetitions per process; setup_s is their median.
constexpr int kSetupReps = 3;
// --smoke divides every size, and the scaled hardware with it, by this.
constexpr int64_t kSmokeFactor = 16;
// Fixed piece of host work timed at process start (bench.calibration_s)
// so that two sets of runs on a drifting machine can be told apart.
constexpr size_t kCalibrationTuples = 4 << 20;

constexpr uint64_t kM = bench::kM;

// ---------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  uint64_t reps = 1;
  std::string trace_dir;
  bool smoke = false;
};

[[noreturn]] void Refuse(const std::string& why) {
  std::fprintf(stderr,
               "gjoin_e2e: %s\n"
               "usage: gjoin_e2e --workload=NAME [--seed=N] [--seconds=S] "
               "[--reps=N] [--trace_dir=DIR] [--smoke]\n",
               why.c_str());
  std::exit(2);
}

uint64_t ParseCount(const std::string& token, const std::string& value) {
  uint64_t out = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (value.empty() || ec != std::errc() || ptr != end) {
    Refuse("malformed value in '" + token + "': expected a whole number");
  }
  return out;
}

double ParseSeconds(const std::string& token, const std::string& value) {
  char* end = nullptr;
  const double out = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() ||
      !std::isfinite(out) || out < 0 || out > 3600) {
    Refuse("malformed value in '" + token +
           "': expected seconds in [0, 3600]");
  }
  return out;
}

Options ParseOptions(int argc, char** argv) {
  static const std::set<std::string> kValued = {"workload", "seed", "seconds",
                                                "reps", "trace_dir"};
  Options opt;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      Refuse("unexpected argument '" + token + "'");
    }
    std::string name = token.substr(2);
    std::string value;
    bool has_value = false;
    if (const size_t eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
      has_value = true;
    }
    if (name != "smoke" && kValued.count(name) == 0) {
      Refuse("unknown option '" + token + "'");
    }
    if (!seen.insert(name).second) {
      Refuse("option '--" + name + "' given twice");
    }
    if (name == "smoke") {
      if (has_value) Refuse("option '" + token + "' takes no value");
      opt.smoke = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) Refuse("option '" + token + "' needs a value");
      value = argv[++i];
    }
    if (name == "workload") {
      opt.workload = value;
    } else if (name == "trace_dir") {
      if (value.empty()) Refuse("option '" + token + "' needs a directory");
      opt.trace_dir = value;
    } else if (name == "seed") {
      opt.seed = ParseCount(token, value);
    } else if (name == "reps") {
      opt.reps = ParseCount(token, value);
      if (opt.reps < 1 || opt.reps > 100000) {
        Refuse("value out of range in '" + token + "': expected 1..100000");
      }
    } else {
      opt.seconds = ParseSeconds(token, value);
    }
  }
  if (opt.workload.empty()) Refuse("missing --workload");
  return opt;
}

// ---------------------------------------------------------------------
// Process clocks
// ---------------------------------------------------------------------

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Nearest-rank percentile (p in (0, 100]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

// One timed interval. `call` groups the spans of one repetition; spans
// are kept in memory and written when the run ends.
struct Span {
  std::string name;    // "<layer>.<operation>"
  std::string detail;  // free text for the trace viewer
  double start_s = 0;
  double end_s = 0;
  double cpu_s = -1;  // process CPU seconds inside the span; -1 = unknown
  int parent = -1;
  int call = -1;

  double wall_s() const { return end_s - start_s; }
};

class Tracer {
 public:
  explicit Tracer(const obs::HostProfiler* clock) : clock_(clock) {}

  double Now() const { return clock_->NowSeconds(); }

  int Begin(std::string name, int call, std::string detail = "") {
    Span span;
    span.name = std::move(name);
    span.detail = std::move(detail);
    span.parent = open_.empty() ? -1 : open_.back();
    span.call = call;
    span.cpu_s = ProcessCpuSeconds();
    span.start_s = Now();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_s = Now();
    span.cpu_s = ProcessCpuSeconds() - span.cpu_s;
    open_.pop_back();
  }

  // Records an already finished span (imported from a HostProfiler that
  // shares this tracer's clock).
  int Add(Span span) {
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span: its duration minus the part its children
  // cover.
  std::vector<double> SelfWall() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].wall_s();
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.wall_s();
    }
    return self;
  }

 private:
  const obs::HostProfiler* clock_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null tracer records nothing.
class Scoped {
 public:
  Scoped(Tracer* tracer, std::string name, int call, std::string detail = "")
      : tracer_(tracer),
        id_(tracer != nullptr
                ? tracer->Begin(std::move(name), call, std::move(detail))
                : -1) {}
  ~Scoped() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct QuerySpec {
  size_t build = 0;  // index into Inputs::rels
  size_t probe = 0;
  api::Strategy expected = api::Strategy::kInGpu;
  data::OracleResult oracle;
};

struct Inputs {
  std::vector<data::Relation> rels;
  std::vector<QuerySpec> queries;

  uint64_t TuplesPerCall() const {
    uint64_t total = 0;
    for (const QuerySpec& q : queries) {
      total += rels[q.build].size() + rels[q.probe].size();
    }
    return total;
  }
};

// Seed of relation `stream` of a run with seed `seed` (splitmix64). Never
// 0: data::MakeZipf reads a perm_seed of 0 as "derive from seed".
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z =
      seed * 0x9E3779B97F4A7C15ull + (stream + 1) * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) | 1;
}

using Generator = void (*)(const bench::BenchContext& ctx, uint64_t seed,
                           Inputs* in);

struct Workload {
  const char* name;
  int64_t divisor;  // bench::BenchContext scaling divisor
  int devices;      // > 1 runs one exec::Session on a sim::Topology
  bool materialize;
  Generator generate;
};

// Fig. 8: unique build x uniform probe over the build's key range.
void GenIngpuUniform(const bench::BenchContext& ctx, uint64_t seed,
                     Inputs* in) {
  const size_t r = ctx.Scale(64 * kM);
  const size_t s = ctx.Scale(256 * kM);
  in->rels.push_back(data::MakeUniqueUniform(r, DeriveSeed(seed, 0)));
  in->rels.push_back(data::MakeUniformProbe(s, r, DeriveSeed(seed, 1)));
  in->queries.push_back({0, 1, api::Strategy::kInGpu, {}});
}

// Fig. 17: both sides Zipf 0.5 with the same popular values.
void GenIngpuSkewMat(const bench::BenchContext& ctx, uint64_t seed,
                     Inputs* in) {
  const size_t n = ctx.Scale(32 * kM);
  const uint64_t perm = DeriveSeed(seed, 2);
  in->rels.push_back(data::MakeZipf(n, n, 0.5, DeriveSeed(seed, 0), perm));
  in->rels.push_back(data::MakeZipf(n, n, 0.5, DeriveSeed(seed, 1), perm));
  in->queries.push_back({0, 1, api::Strategy::kInGpu, {}});
}

// Fig. 12: neither side fits the (scaled) device.
void GenCoprocessUniform(const bench::BenchContext& ctx, uint64_t seed,
                         Inputs* in) {
  const size_t r = ctx.Scale(1024 * kM);
  const size_t s = ctx.Scale(2048 * kM);
  in->rels.push_back(data::MakeUniqueUniform(r, DeriveSeed(seed, 0)));
  in->rels.push_back(data::MakeUniformProbe(s, r, DeriveSeed(seed, 1)));
  in->queries.push_back({0, 1, api::Strategy::kCoProcessing, {}});
}

// Figs. 23/24: four builds, each probed by four queries; two probes are
// too large for the device and stream.
void GenSessionMixed(const bench::BenchContext& ctx, uint64_t seed,
                     Inputs* in) {
  constexpr size_t kBuilds = 4;
  constexpr size_t kProbesPerBuild = 4;
  const size_t build_n = ctx.Scale(16 * kM);
  for (size_t b = 0; b < kBuilds; ++b) {
    in->rels.push_back(data::MakeUniqueUniform(build_n, DeriveSeed(seed, b)));
  }
  for (size_t b = 0; b < kBuilds; ++b) {
    for (size_t j = 0; j < kProbesPerBuild; ++j) {
      const bool streams = j == kProbesPerBuild - 1 && b % 2 == 1;
      const size_t probe_n = ctx.Scale((streams ? 400 : 32) * kM);
      const size_t index = in->rels.size();
      in->rels.push_back(data::MakeUniformProbe(
          probe_n, build_n, DeriveSeed(seed, kBuilds + index)));
      in->queries.push_back({b, index,
                             streams ? api::Strategy::kStreamingProbe
                                     : api::Strategy::kInGpu,
                             {}});
    }
  }
}

// Many small, cache-resident joins on the unscaled testbed (2^15
// partitions): fixed per-call cost dominates.
void GenSmallJoins(const bench::BenchContext& ctx, uint64_t seed,
                   Inputs* in) {
  const size_t r = ctx.Scale(64 * 1024);
  const size_t s = ctx.Scale(256 * 1024);
  in->rels.push_back(data::MakeUniqueUniform(r, DeriveSeed(seed, 0)));
  in->rels.push_back(data::MakeUniformProbe(s, r, DeriveSeed(seed, 1)));
  in->queries.push_back({0, 1, api::Strategy::kInGpu, {}});
}

constexpr Workload kWorkloads[] = {
    {"ingpu_uniform", 8, 1, false, GenIngpuUniform},
    {"ingpu_skew_mat", 4, 1, true, GenIngpuSkewMat},
    {"coprocess_uniform", 128, 1, false, GenCoprocessUniform},
    {"session_mixed", 32, 2, false, GenSessionMixed},
    {"small_joins", 1, 1, false, GenSmallJoins},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Calls
// ---------------------------------------------------------------------

struct QueryOutcome {
  gpujoin::JoinStats stats;
  api::Strategy strategy = api::Strategy::kAuto;
};

// Everything one call returned.
struct CallOutput {
  util::Status status;
  std::vector<QueryOutcome> queries;
  exec::SessionStats session;  // session calls only
};

class Runner {
 public:
  Runner(const Workload& workload, const Options& opt)
      : workload_(workload), opt_(opt), ctx_(MakeContext(workload, opt)) {
    config_.pass_bits = ctx_.ScalePassBits({8, 7});
    config_.cpu_threads = kCpuThreads;
    config_.materialize = workload.materialize;
    if (workload.devices > 1) {
      topology_ =
          std::make_unique<sim::Topology>(ctx_.spec(), workload.devices);
    } else {
      device_ = std::make_unique<sim::Device>(ctx_.spec());
    }
    if (device0()->functional_parallelism() != kPoolWidth) {
      Refuse("pool width " +
             std::to_string(device0()->functional_parallelism()) +
             " differs from the benchmark's " + std::to_string(kPoolWidth) +
             " (set GJOIN_CPU_THREADS=" + std::to_string(kPoolWidth) + ")");
    }
  }

  int Run();

 private:
  static bench::BenchContext MakeContext(const Workload& workload,
                                         const Options& opt) {
    const int64_t divisor =
        workload.divisor * (opt.smoke ? kSmokeFactor : int64_t{1});
    std::string arg0 = "gjoin_e2e";
    std::string arg1 = "--divisor=" + std::to_string(divisor);
    char* argv[] = {arg0.data(), arg1.data(), nullptr};
    bench::BenchContext ctx = bench::BenchContext::Create(
        2, argv, workload.name, "end-to-end benchmark workload", divisor);
    if (ctx.divisor() != divisor) {
      Refuse("scaling divisor " + std::to_string(ctx.divisor()) +
             " differs from the workload's " + std::to_string(divisor) +
             " (unset GJOIN_FULL_SCALE)");
    }
    return ctx;
  }

  sim::Device* device0() {
    return topology_ != nullptr ? &topology_->device(0) : device_.get();
  }

  std::vector<sim::Device*> devices() {
    if (topology_ == nullptr) return {device_.get()};
    std::vector<sim::Device*> out;
    for (int d = 0; d < topology_->device_count(); ++d) {
      out.push_back(&topology_->device(d));
    }
    return out;
  }

  // Kernel launches since the last ClearProfiles().
  uint64_t KernelLaunches() {
    uint64_t total = 0;
    for (sim::Device* d : devices()) total += d->profile().size();
    return total;
  }

  void ClearProfiles() {
    for (sim::Device* d : devices()) d->ClearProfile();
  }

  // The benchmark's unit of work: api::Join for one query on one device,
  // otherwise one exec::Session::Run over every query.
  CallOutput Call();

  // Runs every query through one exec::Session with `profiler` attached
  // and returns the session (kept alive for TraceJson).
  std::unique_ptr<exec::Session> RunSession(obs::HostProfiler* profiler,
                                            CallOutput* out);

  // The same work, calling the layer functions Session::ExecuteAttempt
  // calls, each inside a span.
  CallOutput CallDecomposed(int call);

  // Exits with status 3 unless every query of `out` matches its oracle,
  // its expected strategy and (once known) the first call's modeled
  // stats, bit for bit.
  void Verify(const CallOutput& out, const char* what);

  void Setup(int setup_index);
  void TimedCalls(double budget_s);
  void TracedSessionCall(int call);
  void TracedCalls(double budget_s);
  void EmitEndToEnd();
  void EmitModel();
  void EmitTraced();
  void WriteTrace() const;
  void Emit(const std::string& name, double value, const char* unit);
  void EmitCount(const std::string& name, uint64_t value,
                 const char* unit = "count");
  void PrintResult() const;

  // Per traced repetition (root span), the summed self time (or CPU
  // time) of its spans named `name`.
  std::vector<double> PerRep(const std::vector<int>& roots,
                             const std::string& name, bool cpu) const;

  const Workload& workload_;
  const Options& opt_;
  bench::BenchContext ctx_;
  api::JoinConfig config_;
  std::unique_ptr<sim::Device> device_;
  std::unique_ptr<sim::Topology> topology_;

  Inputs inputs_;
  std::vector<gpujoin::JoinStats> reference_;  // modeled stats of call 1

  // One clock for the driver's spans and the session profiler's.
  obs::HostProfiler clock_;
  Tracer tracer_{&clock_};
  size_t profiler_spans_seen_ = 0;

  int calibration_root_ = -1;
  std::vector<int> setup_roots_;
  std::vector<double> call_s_;  // successful untraced timed calls
  uint64_t timed_calls_ = 0;
  double timed_cpu_s_ = 0;
  uint64_t timed_tuples_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;

  // Traced repetitions: root span ids plus what each session call
  // reported.
  std::vector<int> session_roots_, decomposed_roots_;
  std::vector<exec::SessionStats> session_stats_;
  std::vector<uint64_t> session_launches_;
  std::vector<uint64_t> trace_json_bytes_;
  struct DecomposedCounts {
    uint64_t ingpu_probe_tuples = 0;
    uint64_t ingpu_join_tuples = 0;
    uint64_t cpu_partition_tuples = 0;
    uint64_t output_pairs = 0;
    uint64_t ring_wraps = 0;
    uint64_t working_sets = 0;
    uint64_t transfer_bytes = 0;
  };
  std::vector<DecomposedCounts> decomposed_counts_;

  struct Metric {
    std::string name;
    double value;
    std::string unit;
    bool integral;
  };
  std::vector<Metric> metrics_;
};

std::unique_ptr<exec::Session> Runner::RunSession(obs::HostProfiler* profiler,
                                                  CallOutput* out) {
  exec::SessionConfig session_cfg;
  session_cfg.profiler = profiler;
  std::unique_ptr<exec::Session> session =
      topology_ != nullptr
          ? std::make_unique<exec::Session>(topology_.get(), session_cfg)
          : std::make_unique<exec::Session>(device_.get(), session_cfg);
  for (const QuerySpec& q : inputs_.queries) {
    session->Submit(inputs_.rels[q.build], inputs_.rels[q.probe], config_);
  }
  out->status = session->Run();
  if (!out->status.ok()) return session;
  for (size_t i = 0; i < inputs_.queries.size(); ++i) {
    const exec::QueryResult& result =
        session->result(static_cast<exec::QueryHandle>(i));
    if (!result.status.ok()) {
      out->status = result.status;
      return session;
    }
    out->queries.push_back({result.outcome.stats, result.outcome.strategy});
  }
  out->session = session->stats();
  return session;
}

CallOutput Runner::Call() {
  CallOutput out;
  if (inputs_.queries.size() == 1 && topology_ == nullptr) {
    const QuerySpec& q = inputs_.queries[0];
    util::Result<api::JoinOutcome> joined = api::Join(
        device_.get(), inputs_.rels[q.build], inputs_.rels[q.probe], config_);
    out.status = joined.status();
    if (joined.ok()) out.queries.push_back({joined->stats, joined->strategy});
    return out;
  }
  RunSession(nullptr, &out);
  return out;
}

CallOutput Runner::CallDecomposed(int call) {
  Tracer* tracer = &tracer_;
  CallOutput out;
  DecomposedCounts counts;
  sim::Device* dev = device0();
  const hw::PcieModel pcie(dev->spec().pcie);
  gpujoin::PartitionedJoinConfig join_cfg;
  join_cfg.partition.pass_bits = config_.pass_bits;

  // A build probed by several queries is prepared once, as the session's
  // upload cache does.
  std::map<size_t, gpujoin::PreparedBuild> prepared;
  auto prepare =
      [&](size_t build) -> util::Result<const gpujoin::PreparedBuild*> {
    auto it = prepared.find(build);
    if (it == prepared.end()) {
      Scoped span(tracer, "gpujoin.build_prepare", call);
      GJOIN_ASSIGN_OR_RETURN(
          gpujoin::PreparedBuild fresh,
          gpujoin::PreparePartitionedBuild(dev, inputs_.rels[build], join_cfg));
      it = prepared.emplace(build, std::move(fresh)).first;
    }
    return &it->second;
  };

  auto run_query = [&](const QuerySpec& q) -> util::Result<QueryOutcome> {
    const data::Relation& build = inputs_.rels[q.build];
    const data::Relation& probe = inputs_.rels[q.probe];
    QueryOutcome outcome;
    outcome.strategy = q.expected;
    gpujoin::JoinStats& stats = outcome.stats;
    switch (q.expected) {
      case api::Strategy::kInGpu: {
        gpujoin::PartitionedJoinConfig cfg = join_cfg;
        cfg.join.output = config_.materialize
                              ? gpujoin::OutputMode::kMaterialize
                              : gpujoin::OutputMode::kAggregate;
        GJOIN_ASSIGN_OR_RETURN(const gpujoin::PreparedBuild* built,
                               prepare(q.build));
        if (cfg.join.key_bits == 0) cfg.join.key_bits = built->key_bits;
        gpujoin::DeviceRelation s_dev;
        {
          Scoped span(tracer, "gpujoin.upload", call);
          GJOIN_ASSIGN_OR_RETURN(s_dev,
                                 gpujoin::DeviceRelation::Upload(dev, probe));
        }
        gpujoin::PartitionedRelation s_parted;
        {
          Scoped span(tracer, "gpujoin.partition", call);
          GJOIN_ASSIGN_OR_RETURN(
              s_parted, gpujoin::RadixPartition(dev, s_dev, cfg.partition));
        }
        gpujoin::OutputRing ring;
        if (config_.materialize) {
          Scoped span(tracer, "gpujoin.ring_alloc", call);
          GJOIN_ASSIGN_OR_RETURN(
              ring, gpujoin::OutputRing::Allocate(
                        &dev->memory(), std::max<size_t>(probe.size(), 1)));
        }
        gpujoin::CoPartitionJoinResult joined;
        {
          Scoped span(tracer, "gpujoin.join", call);
          GJOIN_ASSIGN_OR_RETURN(
              joined, gpujoin::JoinCoPartitions(
                          dev, built->parted, s_parted, cfg.join,
                          config_.materialize ? &ring : nullptr));
        }
        stats.matches = joined.matches;
        stats.payload_sum = joined.payload_sum;
        stats.partition_s = built->parted.seconds + s_parted.seconds;
        stats.join_s = joined.seconds;
        stats.seconds = stats.partition_s + stats.join_s;
        stats.transfer_s =
            pcie.DmaSeconds(build.bytes()) + pcie.DmaSeconds(probe.bytes());
        counts.ingpu_probe_tuples += probe.size();
        counts.ingpu_join_tuples += build.size() + probe.size();
        if (config_.materialize) {
          counts.output_pairs += ring.total_written();
          counts.ring_wraps += ring.total_written() / ring.capacity();
        }
        break;
      }
      case api::Strategy::kStreamingProbe: {
        outofgpu::StreamingProbeConfig stream_cfg;
        stream_cfg.join = join_cfg;
        stream_cfg.materialize_to_host = config_.materialize;
        GJOIN_ASSIGN_OR_RETURN(const gpujoin::PreparedBuild* built,
                               prepare(q.build));
        Scoped span(tracer, "outofgpu.stream", call);
        GJOIN_ASSIGN_OR_RETURN(
            outofgpu::StreamingProbeRun run,
            outofgpu::StreamingProbeExecute(dev, build, probe, stream_cfg,
                                            built));
        stats = run.stats;
        break;
      }
      case api::Strategy::kCoProcessing: {
        outofgpu::CoProcessConfig co_cfg;
        co_cfg.join = join_cfg;
        co_cfg.cpu.threads = config_.cpu_threads;
        co_cfg.materialize_to_host = config_.materialize;
        co_cfg.staging = hw::numa::PlacementPlanner(dev->spec())
                             .Plan(0, co_cfg.cpu.threads)
                             .stage;
        const hw::CpuCostModel cpu_model(dev->spec().cpu);
        cpu::HostPartitions build_parts, probe_parts;
        {
          Scoped span(tracer, "cpu.partition", call, "build");
          GJOIN_ASSIGN_OR_RETURN(
              build_parts,
              cpu::CpuRadixPartition(build, co_cfg.cpu, cpu_model));
        }
        {
          Scoped span(tracer, "cpu.partition", call, "probe");
          GJOIN_ASSIGN_OR_RETURN(
              probe_parts,
              cpu::CpuRadixPartition(probe, co_cfg.cpu, cpu_model));
        }
        counts.cpu_partition_tuples += build.size() + probe.size();
        outofgpu::CoProcessPlan plan;
        {
          Scoped span(tracer, "outofgpu.plan", call);
          GJOIN_ASSIGN_OR_RETURN(
              plan, outofgpu::PlanCoProcessJoinShared(
                        dev, build, probe, co_cfg, &build_parts, &probe_parts,
                        nullptr, nullptr));
        }
        counts.working_sets += plan.runs.size();
        for (const auto& run : plan.runs) {
          counts.transfer_bytes += run.transfer_bytes;
        }
        Scoped span(tracer, "outofgpu.pipeline", call);
        GJOIN_ASSIGN_OR_RETURN(
            outofgpu::CoProcessRun run,
            outofgpu::CoProcessExecutePlanned(dev, plan, co_cfg));
        stats = run.stats;
        break;
      }
      case api::Strategy::kCpuOnly:
      case api::Strategy::kAuto:
        return util::Status::Invalid("no decomposition for this strategy");
    }
    return outcome;
  };

  {
    Scoped root(tracer, "bench.decomposed_call", call);
    decomposed_roots_.push_back(root.id());
    for (const QuerySpec& q : inputs_.queries) {
      util::Result<QueryOutcome> outcome = run_query(q);
      if (!outcome.ok()) {
        out.status = outcome.status();
        break;
      }
      out.queries.push_back(*outcome);
    }
  }
  decomposed_counts_.push_back(counts);
  return out;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameModel(const gpujoin::JoinStats& a, const gpujoin::JoinStats& b) {
  return a.matches == b.matches && a.payload_sum == b.payload_sum &&
         SameBits(a.seconds, b.seconds) &&
         SameBits(a.partition_s, b.partition_s) &&
         SameBits(a.join_s, b.join_s) &&
         SameBits(a.transfer_s, b.transfer_s) && SameBits(a.cpu_s, b.cpu_s);
}

void Runner::Verify(const CallOutput& out, const char* what) {
  auto fail = [&](size_t q, const std::string& why) {
    std::fprintf(stderr, "gjoin_e2e: %s: %s, query %zu: %s\n", workload_.name,
                 what, q, why.c_str());
    std::exit(3);
  };
  if (out.queries.size() != inputs_.queries.size()) {
    fail(out.queries.size(), "no result");
  }
  for (size_t i = 0; i < out.queries.size(); ++i) {
    const QuerySpec& spec = inputs_.queries[i];
    const QueryOutcome& got = out.queries[i];
    if (got.strategy != spec.expected) {
      fail(i, std::string("ran ") + api::StrategyName(got.strategy) +
                  ", expected " + api::StrategyName(spec.expected));
    }
    if (got.stats.matches != spec.oracle.matches ||
        got.stats.payload_sum != spec.oracle.payload_sum) {
      fail(i, "result differs from the oracle (matches " +
                  std::to_string(got.stats.matches) + " vs " +
                  std::to_string(spec.oracle.matches) + ", payload sum " +
                  std::to_string(got.stats.payload_sum) + " vs " +
                  std::to_string(spec.oracle.payload_sum) + ")");
    }
    if (i < reference_.size() && !SameModel(got.stats, reference_[i])) {
      fail(i, "modeled stats differ from the first call's");
    }
  }
  if (reference_.empty()) {
    for (const QueryOutcome& q : out.queries) reference_.push_back(q.stats);
  }
}

void Runner::Setup(int setup_index) {
  // Set-up spans carry negative call ids; traced repetitions count up
  // from 1.
  const int call = -1 - setup_index;
  Scoped root(&tracer_, "bench.setup", call);
  setup_roots_.push_back(root.id());
  inputs_ = Inputs();  // release the previous repetition's relations
  {
    Scoped span(&tracer_, "data.generate", call);
    workload_.generate(ctx_, opt_.seed, &inputs_);
  }
  {
    Scoped span(&tracer_, "data.oracle", call);
    for (QuerySpec& q : inputs_.queries) {
      q.oracle = data::JoinOracle(inputs_.rels[q.build], inputs_.rels[q.probe]);
    }
  }
  {
    Scoped span(&tracer_, "bench.warmup", call);
    const CallOutput out = Call();
    ClearProfiles();
    if (!out.status.ok()) {
      std::fprintf(stderr, "gjoin_e2e: %s: warm-up call failed: %s\n",
                   workload_.name, out.status.ToString().c_str());
      std::exit(3);
    }
    Verify(out, "warm-up call");
  }
}

void Runner::TimedCalls(double budget_s) {
  const double cpu_start = ProcessCpuSeconds();
  const double start = clock_.NowSeconds();
  while (timed_calls_ < opt_.reps || clock_.NowSeconds() - start < budget_s) {
    const double t0 = clock_.NowSeconds();
    const CallOutput out = Call();
    const double t1 = clock_.NowSeconds();
    ClearProfiles();
    ++timed_calls_;
    ++attempted_;
    if (!out.status.ok()) {
      ++failed_;
      std::fprintf(stderr, "gjoin_e2e: %s: call failed: %s\n", workload_.name,
                   out.status.ToString().c_str());
      continue;
    }
    Verify(out, "timed call");
    call_s_.push_back(t1 - t0);
    timed_tuples_ += inputs_.TuplesPerCall();
  }
  timed_cpu_s_ = ProcessCpuSeconds() - cpu_start;
}

void Runner::TracedSessionCall(int call) {
  CallOutput out;
  int run_id = -1;
  {
    Scoped root(&tracer_, "bench.session_call", call);
    session_roots_.push_back(root.id());
    std::unique_ptr<exec::Session> session;
    {
      Scoped run(&tracer_, "exec.run", call);
      run_id = run.id();
      session = RunSession(&clock_, &out);
    }
    session_launches_.push_back(KernelLaunches());
    uint64_t json_bytes = 0;
    if (out.status.ok()) {
      Scoped span(&tracer_, "obs.trace_json", call);
      util::Result<std::string> json = session->TraceJson();
      out.status = json.status();
      if (json.ok()) json_bytes = json->size();
    }
    trace_json_bytes_.push_back(json_bytes);
    Scoped teardown(&tracer_, "exec.teardown", call);
    session.reset();
  }
  session_stats_.push_back(out.session);

  // Import the session profiler's spans of this call: plan, execute and
  // schedule under exec.run, one exec.query per query under execute.
  const std::vector<obs::HostProfiler::Span> recorded = clock_.spans();
  auto to_span = [&](const obs::HostProfiler::Span& s, const char* name,
                     int parent) {
    Span span;
    span.name = name;
    span.start_s = s.start_s;
    span.end_s = s.start_s + s.duration_s;
    span.parent = parent;
    span.call = call;
    return span;
  };
  int execute_id = -1;
  for (size_t i = profiler_spans_seen_; i < recorded.size(); ++i) {
    const obs::HostProfiler::Span& s = recorded[i];
    if (s.name == "session:plan") {
      tracer_.Add(to_span(s, "exec.plan", run_id));
    } else if (s.name == "session:execute") {
      execute_id = tracer_.Add(to_span(s, "exec.execute", run_id));
    } else if (s.name == "session:schedule") {
      tracer_.Add(to_span(s, "exec.schedule", run_id));
    }
  }
  for (size_t i = profiler_spans_seen_; i < recorded.size(); ++i) {
    const obs::HostProfiler::Span& s = recorded[i];
    if (s.name.rfind("execute:q", 0) != 0) continue;
    Span span = to_span(s, "exec.query", execute_id);
    const size_t q = std::strtoul(s.name.c_str() + 9, nullptr, 10);
    span.detail = "q" + std::to_string(q);
    if (q < inputs_.queries.size()) {
      span.detail += std::string(" ") +
                     api::StrategyName(inputs_.queries[q].expected);
    }
    tracer_.Add(std::move(span));
  }
  profiler_spans_seen_ = recorded.size();

  ClearProfiles();
  ++attempted_;
  if (!out.status.ok()) {
    ++failed_;
    std::fprintf(stderr, "gjoin_e2e: %s: traced session call failed: %s\n",
                 workload_.name, out.status.ToString().c_str());
    return;
  }
  Verify(out, "traced session call");
}

void Runner::TracedCalls(double budget_s) {
  const double start = clock_.NowSeconds();
  int call = 0;
  while (session_roots_.empty() || decomposed_roots_.empty() ||
         clock_.NowSeconds() - start < budget_s) {
    ++call;
    if (call % 2 == 1) {
      TracedSessionCall(call);
      continue;
    }
    const CallOutput out = CallDecomposed(call);
    ClearProfiles();
    ++attempted_;
    if (!out.status.ok()) {
      ++failed_;
      std::fprintf(stderr, "gjoin_e2e: %s: decomposed call failed: %s\n",
                   workload_.name, out.status.ToString().c_str());
      continue;
    }
    Verify(out, "decomposed call");
  }
}

std::vector<double> Runner::PerRep(const std::vector<int>& roots,
                                   const std::string& name, bool cpu) const {
  const std::vector<Span>& spans = tracer_.spans();
  const std::vector<double> self = tracer_.SelfWall();
  std::vector<double> out;
  for (int root : roots) {
    const int call = spans[static_cast<size_t>(root)].call;
    double total = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.call != call || s.name != name) continue;
      total += cpu ? std::max(s.cpu_s, 0.0) : self[i];
    }
    out.push_back(total);
  }
  return out;
}

void Runner::Emit(const std::string& name, double value, const char* unit) {
  if (!std::isfinite(value)) {
    std::fprintf(stderr, "gjoin_e2e: metric %s is not finite\n", name.c_str());
    std::exit(1);
  }
  metrics_.push_back({name, value, unit, false});
}

void Runner::EmitCount(const std::string& name, uint64_t value,
                       const char* unit) {
  metrics_.push_back({name, static_cast<double>(value), unit, true});
}

void Runner::EmitEndToEnd() {
  double call_wall = 0;
  for (double s : call_s_) call_wall += s;
  Emit("host_mtps",
       call_wall > 0 ? static_cast<double>(timed_tuples_) / call_wall / 1e6
                     : 0,
       "Mtuples/s");
  Emit("call_s_p50", Median(call_s_), "s");
  Emit("cpu_s_per_call",
       timed_cpu_s_ / static_cast<double>(std::max<uint64_t>(timed_calls_, 1)),
       "s");
  Emit("peak_rss_mb", PeakRssMb(), "MB");
  std::vector<double> setup_s;
  for (int root : setup_roots_) {
    setup_s.push_back(tracer_.spans()[static_cast<size_t>(root)].wall_s());
  }
  Emit("setup_s", Median(setup_s), "s");
  EmitCount("bench.timed_calls", timed_calls_);
  Emit("bench.call_s_p95", Percentile(call_s_, 95), "s");
  Emit("bench.calibration_s",
       tracer_.spans()[static_cast<size_t>(calibration_root_)].wall_s(), "s");
  Emit("data.generate_s",
       Median(PerRep(setup_roots_, "data.generate", false)), "s");
  Emit("data.oracle_s", Median(PerRep(setup_roots_, "data.oracle", false)),
       "s");
}

// Modeled results of the first call: identical on every run of a seed
// unless the model changed.
void Runner::EmitModel() {
  gpujoin::JoinStats sum;
  for (const gpujoin::JoinStats& s : reference_) {
    sum.matches += s.matches;
    sum.seconds += s.seconds;
    sum.partition_s += s.partition_s;
    sum.join_s += s.join_s;
    sum.transfer_s += s.transfer_s;
    sum.cpu_s += s.cpu_s;
  }
  EmitCount("gpujoin.matches", sum.matches);
  Emit("hw.modeled_s", sum.seconds, "sim_s");
  Emit("hw.modeled_partition_s", sum.partition_s, "sim_s");
  Emit("hw.modeled_join_s", sum.join_s, "sim_s");
  Emit("hw.modeled_transfer_s", sum.transfer_s, "sim_s");
  Emit("hw.modeled_cpu_s", sum.cpu_s, "sim_s");
}

void Runner::EmitTraced() {
  const std::vector<Span>& spans = tracer_.spans();
  const std::vector<int>& dec = decomposed_roots_;
  const std::vector<int>& ses = session_roots_;
  auto med = [&](const std::vector<int>& roots, const char* name) {
    return Median(PerRep(roots, name, false));
  };
  auto med_cpu = [&](const std::vector<int>& roots, const char* name) {
    return Median(PerRep(roots, name, true));
  };
  // Median over decomposed repetitions of numerator[i] / denominator[i].
  auto med_ratio = [&](const std::vector<double>& num,
                       const std::vector<double>& den, double scale) {
    std::vector<double> v;
    for (size_t i = 0; i < num.size() && i < den.size(); ++i) {
      v.push_back(den[i] > 0 ? num[i] / den[i] * scale : 0);
    }
    return Median(v);
  };
  auto counts = [&](uint64_t DecomposedCounts::* field) {
    std::vector<double> v;
    for (const DecomposedCounts& c : decomposed_counts_) {
      v.push_back(static_cast<double>(c.*field));
    }
    return v;
  };

  // gpujoin: the in-GPU join's layer functions.
  const std::vector<double> part = PerRep(dec, "gpujoin.partition", false);
  const std::vector<double> join = PerRep(dec, "gpujoin.join", false);
  const std::vector<double> part_cpu = PerRep(dec, "gpujoin.partition", true);
  const std::vector<double> join_cpu = PerRep(dec, "gpujoin.join", true);
  std::vector<double> busy, busy_cpu;
  for (size_t i = 0; i < part.size(); ++i) {
    busy.push_back((part[i] + join[i]) * static_cast<double>(kPoolWidth));
    busy_cpu.push_back(part_cpu[i] + join_cpu[i]);
  }
  Emit("gpujoin.build_prepare_s", med(dec, "gpujoin.build_prepare"), "s");
  Emit("gpujoin.upload_s", med(dec, "gpujoin.upload"), "s");
  Emit("gpujoin.partition_s", Median(part), "s");
  Emit("gpujoin.partition_cpu_s", Median(part_cpu), "s");
  Emit("gpujoin.partition_ns_per_tuple",
       med_ratio(part, counts(&DecomposedCounts::ingpu_probe_tuples), 1e9),
       "ns/tuple");
  Emit("gpujoin.join_s", Median(join), "s");
  Emit("gpujoin.join_cpu_s", Median(join_cpu), "s");
  Emit("gpujoin.join_ns_per_tuple",
       med_ratio(join, counts(&DecomposedCounts::ingpu_join_tuples), 1e9),
       "ns/tuple");
  Emit("gpujoin.pool_util", med_ratio(busy_cpu, busy, 1.0), "ratio");
  Emit("gpujoin.ring_alloc_s", med(dec, "gpujoin.ring_alloc"), "s");
  const DecomposedCounts& last = decomposed_counts_.back();
  EmitCount("gpujoin.output_pairs", last.output_pairs);
  EmitCount("gpujoin.ring_wraps", last.ring_wraps);

  // cpu: the co-processing host partitioner.
  const std::vector<double> cpu_part = PerRep(dec, "cpu.partition", false);
  Emit("cpu.partition_s", Median(cpu_part), "s");
  Emit("cpu.partition_cpu_s", med_cpu(dec, "cpu.partition"), "s");
  Emit("cpu.partition_ns_per_tuple",
       med_ratio(cpu_part, counts(&DecomposedCounts::cpu_partition_tuples),
                 1e9),
       "ns/tuple");

  // outofgpu: working-set planning, pipeline timing, probe streaming.
  Emit("outofgpu.plan_s", med(dec, "outofgpu.plan"), "s");
  Emit("outofgpu.plan_cpu_s", med_cpu(dec, "outofgpu.plan"), "s");
  Emit("outofgpu.pipeline_s", med(dec, "outofgpu.pipeline"), "s");
  Emit("outofgpu.stream_s", med(dec, "outofgpu.stream"), "s");
  EmitCount("outofgpu.working_sets", last.working_sets);
  EmitCount("outofgpu.transfer_bytes", last.transfer_bytes, "bytes");

  // exec: the session's own phases, from its profiler.
  std::vector<double> run_self, ingpu, streaming;
  for (int root : ses) {
    const int call = spans[static_cast<size_t>(root)].call;
    double run = 0, queries = 0, q_ingpu = 0, q_stream = 0;
    for (const Span& s : spans) {
      if (s.call != call) continue;
      if (s.name == "exec.run") run += s.wall_s();
      if (s.name != "exec.query") continue;
      queries += s.wall_s();
      if (s.detail.find(api::StrategyName(api::Strategy::kInGpu)) !=
          std::string::npos) {
        q_ingpu += s.wall_s();
      } else if (s.detail.find(api::StrategyName(
                     api::Strategy::kStreamingProbe)) != std::string::npos) {
        q_stream += s.wall_s();
      }
    }
    run_self.push_back(run - queries);
    ingpu.push_back(q_ingpu);
    streaming.push_back(q_stream);
  }
  Emit("exec.plan_s", med(ses, "exec.plan"), "s");
  Emit("exec.execute_s", med(ses, "exec.execute"), "s");
  Emit("exec.schedule_s", med(ses, "exec.schedule"), "s");
  Emit("exec.teardown_s", med(ses, "exec.teardown"), "s");
  Emit("exec.self_s", Median(run_self), "s");
  Emit("exec.query_ingpu_s", Median(ingpu), "s");
  Emit("exec.query_streaming_s", Median(streaming), "s");
  const exec::SessionStats& stats = session_stats_.back();
  EmitCount("exec.shared_build_hits", stats.shared_build_hits);
  EmitCount("exec.shared_upload_hits", stats.shared_upload_hits);
  EmitCount("exec.cache_evictions", stats.cache.evictions);
  EmitCount("exec.scheduled_ops", stats.schedule.start_s.size());
  Emit("exec.modeled_makespan_s", stats.makespan_s, "sim_s");
  Emit("exec.modeled_speedup", stats.speedup, "ratio");

  // sim: device-side counters of the session call.
  EmitCount("sim.kernel_launches", session_launches_.back());
  uint64_t peak = 0;
  for (uint64_t bytes : stats.device_peak_bytes) peak = std::max(peak, bytes);
  EmitCount("sim.device_peak_bytes", peak, "bytes");

  // obs: building the session's Chrome trace.
  Emit("obs.trace_json_s", med(ses, "obs.trace_json"), "s");
  EmitCount("obs.trace_json_bytes", trace_json_bytes_.back(), "bytes");

  // bench: how much of each traced call the spans account for, and what
  // tracing costs against the untraced calls.
  std::vector<int> roots = ses;
  roots.insert(roots.end(), dec.begin(), dec.end());
  const std::vector<double> self = tracer_.SelfWall();
  double root_wall = 0, root_self = 0;
  for (int root : roots) {
    root_wall += spans[static_cast<size_t>(root)].wall_s();
    root_self += self[static_cast<size_t>(root)];
  }
  Emit("bench.trace_coverage", root_wall > 0 ? 1.0 - root_self / root_wall : 0,
       "ratio");
  std::vector<double> traced_call;
  const std::vector<double> trace_json = PerRep(ses, "obs.trace_json", false);
  for (size_t i = 0; i < ses.size(); ++i) {
    traced_call.push_back(spans[static_cast<size_t>(ses[i])].wall_s() -
                          trace_json[i]);
  }
  const double untraced = Median(call_s_);
  Emit("bench.traced_call_s", Median(traced_call), "s");
  Emit("bench.trace_overhead_frac",
       untraced > 0 ? Median(traced_call) / untraced - 1.0 : 0, "ratio");
}

void Runner::WriteTrace() const {
  std::error_code ec;
  std::filesystem::create_directories(opt_.trace_dir, ec);
  const std::string path =
      opt_.trace_dir + "/" + std::string(workload_.name) + ".json";
  std::FILE* f = ec ? nullptr : std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "gjoin_e2e: cannot write trace %s\n", path.c_str());
    std::exit(1);
  }
  // Chrome trace-event format: complete ("X") events nest by time on one
  // track, which is how Perfetto draws the span tree.
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"gjoin_e2e %s seed %llu\"}}",
               workload_.name, static_cast<unsigned long long>(opt_.seed));
  const std::vector<Span>& spans = tracer_.spans();
  for (const Span& s : spans) {
    const std::string parent =
        s.parent >= 0 ? spans[static_cast<size_t>(s.parent)].name : "";
    const std::string cat = s.name.substr(0, s.name.find('.'));
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"call\":%d,"
                 "\"parent\":\"%s\",\"detail\":\"%s\"",
                 s.name.c_str(), cat.c_str(), s.start_s * 1e6,
                 s.wall_s() * 1e6, s.call, parent.c_str(), s.detail.c_str());
    if (s.cpu_s >= 0) std::fprintf(f, ",\"cpu_s\":%.6f", s.cpu_s);
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "gjoin_e2e: cannot write trace %s\n", path.c_str());
    std::exit(1);
  }
}

void Runner::PrintResult() const {
  std::printf(
      "RESULT {\"workload\":\"%s\",\"seed\":%llu,\"smoke\":%s,"
      "\"divisor\":%lld,\"pool_width\":%zu,\"cpu_threads\":%d,"
      "\"correct\":true,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
      workload_.name, static_cast<unsigned long long>(opt_.seed),
      opt_.smoke ? "true" : "false", static_cast<long long>(ctx_.divisor()),
      kPoolWidth, config_.cpu_threads,
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\":[", i == 0 ? "" : ",", m.name.c_str());
    if (m.integral) {
      std::printf("%llu", static_cast<unsigned long long>(m.value));
    } else {
      std::printf("%.17g", m.value);
    }
    std::printf(",\"%s\"]", m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Runner::Run() {
  {
    Scoped span(&tracer_, "bench.calibration", 0);
    calibration_root_ = span.id();
    const data::Relation rel =
        data::MakeUniqueUniform(kCalibrationTuples, DeriveSeed(opt_.seed, 99));
    if (rel.size() != kCalibrationTuples) std::exit(1);
  }
  for (int k = 0; k < kSetupReps; ++k) Setup(k);

  const bool traced = !opt_.trace_dir.empty();
  TimedCalls(traced ? opt_.seconds / 2 : opt_.seconds);
  if (traced) TracedCalls(opt_.seconds / 2);

  EmitEndToEnd();
  EmitModel();
  if (traced) {
    EmitTraced();
    WriteTrace();
  }
  PrintResult();
  return 0;
}

}  // namespace
}  // namespace gjoin::e2e

int main(int argc, char** argv) {
  using namespace gjoin::e2e;
  const Options opt = ParseOptions(argc, argv);
  const Workload* workload = FindWorkload(opt.workload);
  if (workload == nullptr) {
    std::string names;
    for (const Workload& w : kWorkloads) {
      names += names.empty() ? "" : ", ";
      names += w.name;
    }
    Refuse("unknown workload '" + opt.workload + "' (one of: " + names + ")");
  }
  Runner runner(*workload, opt);
  return runner.Run();
}
