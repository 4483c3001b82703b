#include "src/exec/session.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/cpu/cpu_joins.h"
#include "src/hw/cpu_cost.h"
#include "src/hw/numa.h"
#include "src/hw/pcie.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "src/outofgpu/coprocess.h"
#include "src/outofgpu/streaming_probe.h"
#include "src/sim/fault.h"

namespace gjoin::exec {

using gjoin::gpujoin::DeviceRelation;
using gjoin::gpujoin::JoinStats;
using gjoin::gpujoin::OutputMode;
using gjoin::gpujoin::PartitionedJoinConfig;
using gjoin::gpujoin::PartitionedRelation;
using gjoin::gpujoin::PreparedBuild;

namespace {

/// The strategy-independent join configuration a standalone gjoin::Join
/// derives from the API config.
PartitionedJoinConfig MakeJoinConfig(const api::JoinConfig& config) {
  PartitionedJoinConfig join_cfg;
  join_cfg.partition.pass_bits = config.pass_bits;
  join_cfg.join.algo = config.probe_algorithm;
  return join_cfg;
}

/// Per-device cache budget for `device` under `config`.
uint64_t CacheBudget(const SessionConfig& config, sim::Device* device) {
  return config.cache_budget_bytes != 0
             ? config.cache_budget_bytes
             : static_cast<uint64_t>(device->memory().capacity()) / 2;
}

/// Identity key of the CPU pre-partitioning of `rel`: the partitioner
/// geometry that determines its functional output (radix bits and chunk
/// granularity — chunking fixes the intra-partition tuple order).
std::string HostPartsKey(const data::Relation& rel,
                         const cpu::CpuPartitionConfig& cpu_cfg) {
  // Built with append to dodge GCC 12's -Wrestrict false positive on
  // char* + std::string&& chains (as in query_graph.cc).
  std::string key = "hostparts:";
  key += UploadCache::UploadKey(rel);
  key += ":rb";
  key += std::to_string(cpu_cfg.radix_bits);
  key += ":ck";
  key += std::to_string(cpu_cfg.chunk_tuples);
  return key;
}

/// The next rung down the paper's strategy lattice; kAuto = exhausted.
api::Strategy NextRung(api::Strategy strategy) {
  switch (strategy) {
    case api::Strategy::kInGpu:
      return api::Strategy::kStreamingProbe;
    case api::Strategy::kStreamingProbe:
      return api::Strategy::kCoProcessing;
    case api::Strategy::kCoProcessing:
      return api::Strategy::kCpuOnly;
    case api::Strategy::kCpuOnly:
    case api::Strategy::kAuto:
      return api::Strategy::kAuto;
  }
  return api::Strategy::kAuto;
}

/// Rejects a relation whose payload column differs in length from its
/// key column: every upload copies size() = keys.size() payloads.
util::Status ValidateColumns(const data::Relation& rel, const char* side) {
  if (rel.ColumnsMatch()) return util::Status::OK();
  return util::Status::Invalid(
      std::string(side) + " relation has " + std::to_string(rel.keys.size()) +
      " keys but " + std::to_string(rel.payloads.size()) + " payloads");
}

/// ValidateColumns over both join inputs.
util::Status ValidateInputs(const data::Relation& build,
                            const data::Relation& probe) {
  GJOIN_RETURN_NOT_OK(ValidateColumns(build, "build"));
  return ValidateColumns(probe, "probe");
}

/// Releases every cache lease it holds when the attempt scope ends —
/// error returns included, so a failed attempt never leaves an artifact
/// pinned in its device's cache.
class LeaseGuard {
 public:
  explicit LeaseGuard(UploadCache* cache) : cache_(cache) {}
  LeaseGuard(const LeaseGuard&) = delete;
  LeaseGuard& operator=(const LeaseGuard&) = delete;
  ~LeaseGuard() {
    for (const std::string& key : keys_) cache_->Release(key);
  }
  void Add(std::string key) { keys_.push_back(std::move(key)); }

 private:
  UploadCache* cache_;
  std::vector<std::string> keys_;
};

}  // namespace

Session::Session(sim::Device* device, SessionConfig config)
    : devices_{device}, config_(config) {
  config_.device_count = 1;
  caches_.push_back(std::make_unique<UploadCache>(CacheBudget(config_, device)));
}

Session::Session(sim::Topology* topology, SessionConfig config)
    : config_(config) {
  int count = topology->device_count();
  if (config_.device_count > 0) count = std::min(count, config_.device_count);
  config_.device_count = count;
  for (int d = 0; d < count; ++d) {
    devices_.push_back(&topology->device(d));
    caches_.push_back(
        std::make_unique<UploadCache>(CacheBudget(config_, devices_.back())));
  }
}

QueryHandle Session::Submit(const data::Relation& build,
                            const data::Relation& probe,
                            const api::JoinConfig& config) {
  Query query;
  query.build = &build;
  query.probe = &probe;
  query.config = config;
  query.invalid = !ValidateInputs(build, probe).ok();
  query.shed = !query.invalid &&
               !AdmitOne(build.bytes() + probe.bytes(), config.deadline_s).ok();
  queries_.push_back(query);
  return static_cast<QueryHandle>(queries_.size()) - 1;
}

util::Result<QueryHandle> Session::TrySubmit(const data::Relation& build,
                                             const data::Relation& probe,
                                             const api::JoinConfig& config) {
  GJOIN_RETURN_NOT_OK(ValidateInputs(build, probe));
  const util::Status admitted =
      AdmitOne(build.bytes() + probe.bytes(), config.deadline_s);
  if (!admitted.ok()) {
    ++refused_submissions_;
    return admitted;
  }
  Query query;
  query.build = &build;
  query.probe = &probe;
  query.config = config;
  queries_.push_back(query);
  return static_cast<QueryHandle>(queries_.size()) - 1;
}

util::Status Session::Cancel(QueryHandle handle) {
  if (handle < 0 || static_cast<size_t>(handle) >= queries_.size()) {
    return util::Status::Invalid("Session::Cancel: unknown query handle " +
                                 std::to_string(handle));
  }
  util::MutexLock lock(&cancel_mu_);
  cancelled_.insert(handle);
  return util::Status::OK();
}

util::Result<const QueryResult*> Session::TryResult(
    QueryHandle handle) const {
  if (handle < 0 || static_cast<size_t>(handle) >= queries_.size()) {
    return util::Status::Invalid("Session::TryResult: unknown query handle " +
                                 std::to_string(handle));
  }
  if (!completed_) {
    return util::Status::Invalid("Session::TryResult: query handle " +
                                 std::to_string(handle) +
                                 " has no result: Run() has not succeeded");
  }
  return &results_[static_cast<size_t>(handle)];
}

double Session::EstimateCost(uint64_t bytes) const {
  const hw::HardwareSpec& spec = devices_[0]->spec();
  const hw::PcieModel pcie(spec.pcie);
  const double gpu_gbps = spec.gpu.device_bw_gbps * spec.gpu.stream_efficiency;
  return static_cast<double>(bytes) * 6.0 / (gpu_gbps * 1e9) +
         pcie.DmaSeconds(bytes);
}

util::Status Session::AdmitOne(uint64_t bytes, double deadline_s) {
  if (config_.max_queued_queries == 0 && config_.max_queued_bytes == 0) {
    return util::Status::OK();
  }
  const auto has_room = [this, bytes]() {
    size_t queued = 0;
    uint64_t queued_bytes = 0;
    for (const Query& q : queries_) {
      if (!q.admitted()) continue;
      ++queued;
      queued_bytes += q.build->bytes() + q.probe->bytes();
    }
    return (config_.max_queued_queries == 0 ||
            queued + 1 <= config_.max_queued_queries) &&
           (config_.max_queued_bytes == 0 ||
            queued_bytes + bytes <= config_.max_queued_bytes);
  };
  if (has_room()) return util::Status::OK();

  if (config_.admission == api::AdmissionPolicy::kDeadlineAware) {
    // Shed queued queries whose deadlines are already unmeetable by the
    // accumulated estimated cost ahead of them — their slots go to
    // arrivals that can still make it.
    const double n = static_cast<double>(std::max(device_count(), 1));
    double est_s = 0;
    for (Query& q : queries_) {
      if (!q.admitted()) continue;
      est_s += EstimateCost(q.build->bytes() + q.probe->bytes()) / n;
      if (q.config.deadline_s > 0 && est_s > q.config.deadline_s) {
        q.shed = true;
      }
    }
    if (deadline_s > 0 && est_s + EstimateCost(bytes) / n > deadline_s) {
      return util::Status::Overloaded(
          "query shed: its deadline of " + std::to_string(deadline_s) +
          "s is already unmeetable by estimated queue cost");
    }
    if (has_room()) return util::Status::OK();
  }
  return util::Status::Overloaded(
      "session queue limits exceeded (max_queued_queries=" +
      std::to_string(config_.max_queued_queries) +
      ", max_queued_bytes=" + std::to_string(config_.max_queued_bytes) + ")");
}

std::vector<int> Session::AdmissionOrder() const {
  std::vector<int> order;
  order.reserve(queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (queries_[i].admitted()) order.push_back(static_cast<int>(i));
  }
  if (config_.admission == api::AdmissionPolicy::kShortestJobFirst) {
    std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
      const Query& qa = queries_[static_cast<size_t>(a)];
      const Query& qb = queries_[static_cast<size_t>(b)];
      return qa.build->bytes() + qa.probe->bytes() <
             qb.build->bytes() + qb.probe->bytes();
    });
  }
  return order;
}

void Session::PlanPlacement(const std::vector<int>& order) {
  const int n_dev = device_count();
  const hw::HardwareSpec& spec = devices_[0]->spec();
  const hw::PcieModel pcie(spec.pcie);
  const hw::InterconnectModel peer(spec.interconnect);

  // Coarse, deterministic cost proxies. They only *place* queries; the
  // merged timeline later charges exact modeled costs, so a mediocre
  // estimate costs balance, never correctness.
  const double gpu_gbps = spec.gpu.device_bw_gbps * spec.gpu.stream_efficiency;
  auto compute_est = [&](uint64_t bytes) {
    // Partition passes + probe: ~6 streaming sweeps over the data.
    return static_cast<double>(bytes) * 6.0 / (gpu_gbps * 1e9);
  };

  est_busy_.assign(static_cast<size_t>(n_dev), 0.0);
  std::vector<double>& est_busy = est_busy_;
  // Estimate-time build residency: key -> devices assumed to hold it.
  std::map<std::string, std::vector<bool>> build_on;

  // A device with a planned death (armed FaultPlan) is only eligible
  // for work its estimate says finishes before the death; queued work
  // is re-placed onto survivors.
  auto death_time = [&](int d) {
    const sim::FaultInjector* inj = devices_[static_cast<size_t>(d)]->faults();
    return (inj != nullptr && inj->DeathPlanned()) ? inj->death_time_s()
                                                   : -1.0;
  };
  bool any_death = false;
  for (int d = 0; d < n_dev; ++d) any_death = any_death || death_time(d) >= 0;

  for (int qi : order) {
    Query& query = queries_[static_cast<size_t>(qi)];
    const PartitionedJoinConfig join_cfg = MakeJoinConfig(query.config);
    const uint64_t build_bytes = query.build->bytes();
    const uint64_t probe_bytes = query.probe->bytes();
    const bool has_build_artifact =
        query.strategy == api::Strategy::kInGpu ||
        (query.strategy == api::Strategy::kStreamingProbe &&
         !query.build->empty());
    const std::string build_key =
        has_build_artifact
            ? UploadCache::BuildKey(*query.build, join_cfg.partition)
            : std::string();

    // Partitioned placement slices every in-GPU query across the whole
    // group; its functional artifacts live on device 0. Under a death
    // plan a slice would strand on the dying device, so split placement
    // is disabled and queries place whole onto survivors.
    if (config_.placement == api::PlacementPolicy::kPartition && n_dev > 1 &&
        query.strategy == api::Strategy::kInGpu && !any_death) {
      query.split = true;
      query.device = 0;
      const double total = compute_est(build_bytes + probe_bytes) +
                           pcie.DmaSeconds(build_bytes) +
                           pcie.DmaSeconds(probe_bytes);
      for (double& busy : est_busy) busy += total / n_dev;
      cache(0).AddDemand(build_key);
      cache(0).AddDemand(UploadCache::UploadKey(*query.probe));
      continue;
    }

    // Whole-query placement: greedy earliest estimated finish,
    // respecting where the query's build already lives (a device that
    // holds it skips the replica charge).
    int best = -1;
    double best_finish = 0;
    double best_cost = 0;
    int best_any = -1;  // Ignoring planned deaths, to count failovers.
    double best_any_finish = 0;
    for (int d = 0; d < n_dev; ++d) {
      double cost = 0;
      switch (query.strategy) {
        case api::Strategy::kInGpu:
        case api::Strategy::kStreamingProbe:
          cost = pcie.DmaSeconds(probe_bytes) +
                 compute_est(build_bytes + probe_bytes);
          break;
        case api::Strategy::kCoProcessing:
          cost = pcie.DmaSeconds(build_bytes + probe_bytes) +
                 compute_est(build_bytes + probe_bytes) +
                 static_cast<double>(build_bytes + probe_bytes) /
                     (spec.cpu.socket_mem_bw_gbps * 1e9);
          break;
        case api::Strategy::kCpuOnly:
          // Host-resident: no device lanes occupied; the least-busy
          // device becomes the nominal home.
          break;
        case api::Strategy::kAuto:
          break;
      }
      if (has_build_artifact) {
        const auto it = build_on.find(build_key);
        const bool here =
            it != build_on.end() && it->second[static_cast<size_t>(d)];
        const bool anywhere =
            it != build_on.end() &&
            std::find(it->second.begin(), it->second.end(), true) !=
                it->second.end();
        if (!here) {
          // Replicas charge whichever mechanism is cheaper: a peer copy
          // of the ~2x-sized partitioned artifact, or a fresh host
          // upload + re-partition on the device's own lanes.
          const double fresh =
              pcie.DmaSeconds(build_bytes) + compute_est(build_bytes);
          cost += anywhere
                      ? std::min(peer.PeerCopySeconds(2 * build_bytes), fresh)
                      : fresh;
        }
      }
      const double finish = est_busy[static_cast<size_t>(d)] + cost;
      if (best_any < 0 || finish < best_any_finish) {
        best_any = d;
        best_any_finish = finish;
      }
      const double death = death_time(d);
      if (death >= 0 && finish > death) continue;  // dies before finishing
      if (best < 0 || finish < best_finish) {
        best = d;
        best_finish = finish;
        best_cost = cost;
      }
    }
    if (best < 0) {
      // Every device dies before this query could finish. Recovery
      // re-plans it onto the host CPU rung; otherwise it fails cleanly
      // at execution while its siblings proceed.
      ++stats_.device_failovers;
      query.device = 0;
      if (recovery_enabled_) {
        query.strategy = api::Strategy::kCpuOnly;
      } else {
        query.doomed = true;
      }
      continue;
    }
    // Without planned deaths both scans agree; a disagreement means the
    // preferred device was excluded by its death — a failover.
    if (best != best_any) ++stats_.device_failovers;
    query.device = best;
    est_busy[static_cast<size_t>(best)] += best_cost;
    if (has_build_artifact) {
      auto& resident =
          build_on
              .try_emplace(build_key,
                           std::vector<bool>(static_cast<size_t>(n_dev), false))
              .first->second;
      resident[static_cast<size_t>(best)] = true;
    }

    // Declare shared-artifact demand on the home device's cache.
    switch (query.strategy) {
      case api::Strategy::kInGpu:
        cache(best).AddDemand(build_key);
        cache(best).AddDemand(UploadCache::UploadKey(*query.probe));
        break;
      case api::Strategy::kStreamingProbe:
        if (!query.build->empty()) cache(best).AddDemand(build_key);
        break;
      case api::Strategy::kCoProcessing:
      case api::Strategy::kCpuOnly:
      case api::Strategy::kAuto:
        break;  // Host-resident pipeline; no device artifacts to share.
    }
  }
}

util::Status Session::ChargeTransferFaults(int device_index,
                                           sim::FaultInjector* injector,
                                           double transfer_s, const char* what,
                                           QueryResult* result) {
  if (injector == nullptr || injector->plan().transfer_fault_p <= 0) {
    return util::Status::OK();
  }
  const sim::FaultPlan& plan = injector->plan();
  // The draw is unconditional and identical to the budget-free path, so
  // arming budgets or the circuit breaker never shifts the seeded fault
  // stream — runs stay comparable fault for fault.
  const int failures = injector->DrawTransferFailures();
  const bool permanent = failures >= plan.max_transfer_attempts;
  DeviceHealth& health = health_[static_cast<size_t>(device_index)];

  if (config_.device_failure_rate > 0) {
    // Sliding window of attempt outcomes; a full window at or above the
    // failure-rate threshold trips the breaker.
    const size_t window =
        static_cast<size_t>(std::max(config_.device_failure_window, 1));
    for (int i = 0; i < failures; ++i) health.window.push_back(1);
    if (!permanent) health.window.push_back(0);
    if (health.window.size() > window) {
      health.window.erase(
          health.window.begin(),
          health.window.end() - static_cast<ptrdiff_t>(window));
    }
    if (health.state == DeviceState::kHealthy &&
        health.window.size() >= window) {
      int faulted = 0;
      for (uint8_t outcome : health.window) faulted += outcome;
      if (static_cast<double>(faulted) >=
          config_.device_failure_rate * static_cast<double>(window)) {
        health.state = DeviceState::kQuarantined;
        health.probation_until_s =
            est_clock_s_ + config_.quarantine_probation_s;
        ++stats_.device_quarantines;
      }
    }
  }

  // Retry budgets: only the retries the query/device may still afford
  // are attempted (and charged); the rest of the drawn faults abandon
  // the transfer.
  int allowed = failures;
  const char* exhausted_by = nullptr;
  if (config_.query_retry_budget > 0) {
    const int left = config_.query_retry_budget - result->transfer_retries;
    if (left < allowed) {
      allowed = std::max(left, 0);
      exhausted_by = "query";
    }
  }
  if (config_.device_retry_budget > 0) {
    const int left = config_.device_retry_budget - health.retries_used;
    if (left < allowed) {
      allowed = std::max(left, 0);
      exhausted_by = "device";
    }
  }

  double backoff_s =
      std::min(plan.transfer_backoff_base_s, plan.transfer_max_backoff_s);
  for (int i = 0; i < allowed; ++i) {
    result->fault_penalty_s += transfer_s + backoff_s;
    backoff_s = std::min(backoff_s * 2, plan.transfer_max_backoff_s);
  }
  result->transfer_retries += allowed;
  health.retries_used += allowed;
  if (exhausted_by != nullptr && allowed < failures) {
    ++stats_.retry_budget_exhausted;
    return util::Status::ExecutionError(
        std::string(what) + " transfer abandoned: " + exhausted_by +
        " retry budget exhausted after " + std::to_string(allowed) +
        " charged retries");
  }
  if (permanent) {
    return util::Status::ExecutionError(
        std::string(what) + " transfer failed after " +
        std::to_string(plan.max_transfer_attempts) + " attempts");
  }
  return util::Status::OK();
}

bool Session::ResolveQuarantinedPlacement(int index) {
  if (config_.device_failure_rate <= 0) return true;
  // Probation runs on the deterministic est-clock: a quarantined device
  // whose timer elapsed turns half-open (one trial query re-admits it).
  for (DeviceHealth& health : health_) {
    if (health.state == DeviceState::kQuarantined &&
        est_clock_s_ >= health.probation_until_s) {
      health.state = DeviceState::kHalfOpen;
    }
  }
  Query& query = queries_[static_cast<size_t>(index)];
  if (query.split) return true;  // Sliced across the group; slices stay.
  if (health_[static_cast<size_t>(query.device)].state !=
      DeviceState::kQuarantined) {
    return true;
  }
  // Home device is quarantined: re-place onto the earliest-estimated-
  // finish survivor (PR 7's death-failover shape, driven by health).
  int best = -1;
  for (int d = 0; d < device_count(); ++d) {
    if (health_[static_cast<size_t>(d)].state == DeviceState::kQuarantined) {
      continue;
    }
    if (best < 0 ||
        est_busy_[static_cast<size_t>(d)] < est_busy_[static_cast<size_t>(best)]) {
      best = d;
    }
  }
  ++stats_.device_failovers;
  if (best < 0) {
    if (recovery_enabled_) {
      // Every device quarantined: fall to the host rung.
      query.strategy = api::Strategy::kCpuOnly;
      query.device = 0;
      return true;
    }
    return false;
  }
  query.device = best;
  est_busy_[static_cast<size_t>(best)] +=
      EstimateCost(query.build->bytes() + query.probe->bytes());
  return true;
}

void Session::UpdateDeviceHealthAfterQuery(int index, uint64_t faults_before) {
  if (config_.device_failure_rate <= 0) return;
  const Query& query = queries_[static_cast<size_t>(index)];
  DeviceHealth& health = health_[static_cast<size_t>(query.device)];
  if (health.state != DeviceState::kHalfOpen) return;
  const sim::FaultInjector* injector = device(query.device)->faults();
  const uint64_t faults_after =
      injector != nullptr ? injector->transfer_faults() : 0;
  if (faults_after > faults_before) {
    // The trial faulted: back to quarantine, probation restarts.
    health.state = DeviceState::kQuarantined;
    health.probation_until_s = est_clock_s_ + config_.quarantine_probation_s;
    ++stats_.device_quarantines;
  } else {
    health.state = DeviceState::kHealthy;
    health.window.clear();
  }
}

util::Status Session::Run() {
  if (ran_) {
    return util::Status::Internal("Session::Run called twice");
  }
  ran_ = true;

  // ---- Plan: resolve strategies, place queries, declare demand ----
  std::vector<int> order;
  {
    obs::ProfileSpan plan_span(config_.profiler, "session:plan");
    recovery_enabled_ = config_.recovery;
    for (const sim::Device* d : devices_) {
      if (d->faults() != nullptr) recovery_enabled_ = true;
    }
    health_.assign(devices_.size(), DeviceHealth());
    est_clock_s_ = 0;
    for (Query& query : queries_) {
      // The columns are read from here on: check them again.
      query.invalid = !ValidateInputs(*query.build, *query.probe).ok();
      if (!query.admitted()) continue;  // Never planned, never charged.
      query.strategy = query.config.strategy;
      if (query.strategy == api::Strategy::kAuto) {
        query.strategy = api::ChooseStrategy(
            *devices_[0], query.build->bytes(), query.probe->bytes());
      }
      if (query.strategy == api::Strategy::kAuto) {
        return util::Status::Internal("unresolved auto strategy");
      }
    }
    order = AdmissionOrder();
    PlanPlacement(order);
  }

  // ---- Execute: functional runs + op DAGs spliced into the batch ----
  // Failures are isolated per query: an error lands in that query's
  // QueryResult::status (with its outcome zeroed) and its siblings
  // proceed; Run() itself only fails on batch-level errors.
  results_.assign(queries_.size(), QueryResult());
  {
    obs::ProfileSpan execute_span(config_.profiler, "session:execute");
    for (int q : order) {
      std::string span_name = "execute:q";
      span_name += std::to_string(q);
      obs::ProfileSpan query_span(config_.profiler, std::move(span_name));
      QueryResult& result = results_[static_cast<size_t>(q)];
      // Cooperative cancellation: checked once at the query boundary —
      // a cancelled query charges nothing and its siblings proceed.
      bool cancelled = false;
      {
        util::MutexLock lock(&cancel_mu_);
        cancelled = cancelled_.count(q) > 0;
      }
      if (cancelled) {
        result.status =
            util::Status::Cancelled("query " + std::to_string(q) +
                                    " cancelled before execution");
        ++stats_.cancelled_queries;
        ++stats_.failed_queries;
        continue;
      }
      if (!ResolveQuarantinedPlacement(q)) {
        result.status = util::Status::ExecutionError(
            "every session device is quarantined (enable "
            "SessionConfig::recovery for a host-CPU fallback)");
        ++stats_.failed_queries;
        continue;
      }
      const sim::FaultInjector* home_injector =
          device(queries_[static_cast<size_t>(q)].device)->faults();
      const uint64_t faults_before =
          home_injector != nullptr ? home_injector->transfer_faults() : 0;
      result.status = ExecuteQuery(q, &graph_, &result);
      est_clock_s_ += result.solo_seconds;
      UpdateDeviceHealthAfterQuery(q, faults_before);
      if (!result.status.ok()) {
        ++stats_.failed_queries;
        result.outcome.stats = JoinStats();
        result.solo_seconds = 0;
      }
    }
    // Rejected and shed submissions surface their typed refusal as the
    // per-query status (TrySubmit refusals were never enqueued; shed ones
    // only count).
    for (size_t i = 0; i < queries_.size(); ++i) {
      if (queries_[i].invalid) {
        results_[i].status =
            ValidateInputs(*queries_[i].build, *queries_[i].probe);
        ++stats_.failed_queries;
        continue;
      }
      if (!queries_[i].shed) continue;
      results_[i].status = util::Status::Overloaded(
          "query shed by session admission limits");
      ++stats_.shed_queries;
      ++stats_.failed_queries;
    }
    stats_.shed_queries += refused_submissions_;
  }

  // ---- Schedule the merged DAG on the shared device timelines ----
  {
    obs::ProfileSpan schedule_span(config_.profiler, "session:schedule");
    const std::vector<std::string> extra_lanes =
        sim::Topology::ExtraLaneNames(device_count());
    // Per-query modeled-clock deadlines for the scheduler's op-boundary
    // checks; queries that already failed (shed, cancelled, errored)
    // have no ops to abort.
    std::vector<double> deadlines(queries_.size(), 0.0);
    bool any_deadline = false;
    for (size_t q = 0; q < queries_.size(); ++q) {
      if (!results_[q].status.ok()) continue;
      deadlines[q] = queries_[q].config.deadline_s;
      any_deadline = any_deadline || deadlines[q] > 0;
    }
    GJOIN_ASSIGN_OR_RETURN(
        ScheduledBatch batch,
        ScheduleBatch(graph_, static_cast<int>(queries_.size()),
                      extra_lanes.empty() ? nullptr : &extra_lanes,
                      any_deadline ? &deadlines : nullptr));
    batch_ = std::move(batch);
  }
  stats_.makespan_s = batch_.schedule.makespan_s;
  stats_.independent_s = 0;
  for (size_t q = 0; q < queries_.size(); ++q) {
    results_[q].finish_s = batch_.query_finish_s[q];
    if (q < batch_.deadline_missed.size() && batch_.deadline_missed[q] != 0 &&
        results_[q].status.ok()) {
      // Deadline miss: remaining ops were aborted (or the last op
      // finished late). Charged work stays charged — the wasted issued
      // seconds fold into the fault penalty — but the query reports no
      // result.
      QueryResult& result = results_[q];
      result.status = util::Status::DeadlineExceeded(
          "query " + std::to_string(q) +
          " missed its modeled deadline of " +
          std::to_string(queries_[q].config.deadline_s) + "s");
      result.fault_penalty_s += batch_.wasted_s[q];
      stats_.fault_penalty_s += batch_.wasted_s[q];
      result.outcome.stats = JoinStats();
      result.solo_seconds = 0;
      ++stats_.deadline_misses;
      ++stats_.failed_queries;
    }
    stats_.independent_s += results_[q].solo_seconds;
  }
  stats_.speedup = stats_.makespan_s > 0
                       ? stats_.independent_s / stats_.makespan_s
                       : 1.0;
  stats_.schedule = batch_.schedule;
  stats_.cache = UploadCacheStats();
  for (const auto& device_cache : caches_) {
    const UploadCacheStats& c = device_cache->stats();
    stats_.cache.hits += c.hits;
    stats_.cache.misses += c.misses;
    stats_.cache.evictions += c.evictions;
    stats_.cache.insert_failures += c.insert_failures;
  }
  for (const sim::Device* d : devices_) {
    if (const sim::FaultInjector* inj = d->faults()) {
      stats_.injected_alloc_faults += inj->allocation_faults();
      stats_.injected_transfer_faults += inj->transfer_faults();
    }
  }
  // Peak simulated memory pressure per device: pure observation of the
  // allocator's high-water mark, always collected.
  stats_.device_peak_bytes.clear();
  for (const sim::Device* d : devices_) {
    stats_.device_peak_bytes.push_back(
        static_cast<uint64_t>(d->memory().peak_used()));
  }
  PublishMetrics();
  completed_ = true;
  return util::Status::OK();
}

void Session::PublishMetrics() {
  obs::MetricsRegistry* registry = config_.metrics;
  if (registry == nullptr) return;

  obs::Histogram* latency = registry->GetHistogram(
      "gjoin_query_latency_modeled_seconds",
      obs::MetricsRegistry::LatencyBuckets(),
      "Modeled end-to-end per-query latency within the batch schedule.");
  for (const QueryResult& result : results_) {
    if (result.status.ok()) {
      std::string name = "gjoin_queries_completed_total{strategy=\"";
      name += api::StrategyName(result.outcome.strategy);
      name += "\"}";
      registry
          ->GetCounter(name, "Queries completed, by executed strategy.")
          ->Increment();
      latency->Observe(result.finish_s);
    } else {
      registry
          ->GetCounter("gjoin_queries_failed_total",
                       "Queries that finished with a non-OK status.")
          ->Increment();
    }
    if (result.degradations > 0) {
      registry
          ->GetCounter("gjoin_queries_degraded_total",
                       "Queries the recovery ladder stepped down at least "
                       "one strategy rung.")
          ->Increment();
    }
  }
  registry
      ->GetCounter("gjoin_query_degradations_total",
                   "Recovery-ladder strategy downgrades.")
      ->Increment(stats_.degradations);
  registry
      ->GetCounter("gjoin_transfer_retries_total",
                   "Transient transfer faults absorbed by retries.")
      ->Increment(stats_.transfer_retries);
  registry
      ->GetCounter("gjoin_cpu_fallbacks_total",
                   "Queries that landed on the host-CPU recovery rung.")
      ->Increment(stats_.cpu_fallbacks);
  registry
      ->GetCounter("gjoin_upload_cache_hits_total",
                   "Shared-artifact cache hits across session devices.")
      ->Increment(stats_.cache.hits);
  registry
      ->GetCounter("gjoin_upload_cache_misses_total",
                   "Shared-artifact cache misses across session devices.")
      ->Increment(stats_.cache.misses);
  registry
      ->GetCounter("gjoin_upload_cache_evictions_total",
                   "Shared artifacts evicted to make room.")
      ->Increment(stats_.cache.evictions);
  for (size_t d = 0; d < stats_.device_peak_bytes.size(); ++d) {
    std::string name = "gjoin_device_memory_peak_bytes{device=\"";
    name += std::to_string(d);
    name += "\"}";
    registry
        ->GetGauge(name,
                   "High-water mark of simulated device-memory usage.")
        ->UpdateMax(static_cast<double>(stats_.device_peak_bytes[d]));
  }
  registry
      ->GetGauge("gjoin_batch_makespan_modeled_seconds",
                 "Modeled makespan of the most recent session batch.")
      ->Set(stats_.makespan_s);

  // Lifecycle metrics register only when their feature is configured
  // (or fired), keeping the exposition of an unconfigured session
  // byte-identical to pre-lifecycle builds.
  if (config_.max_queued_queries > 0 || config_.max_queued_bytes > 0 ||
      stats_.shed_queries > 0) {
    registry
        ->GetCounter("gjoin_queries_shed_total",
                     "Submissions shed by session admission limits.")
        ->Increment(stats_.shed_queries);
  }
  bool any_deadline = false;
  for (const Query& query : queries_) {
    any_deadline = any_deadline || query.config.deadline_s > 0;
  }
  if (any_deadline || stats_.deadline_misses > 0) {
    registry
        ->GetCounter("gjoin_deadline_miss_total",
                     "Queries that missed their modeled deadline.")
        ->Increment(stats_.deadline_misses);
  }
  if (stats_.cancelled_queries > 0) {
    registry
        ->GetCounter("gjoin_queries_cancelled_total",
                     "Queries cancelled before execution.")
        ->Increment(stats_.cancelled_queries);
  }
  if (config_.device_failure_rate > 0) {
    registry
        ->GetCounter("gjoin_device_quarantines_total",
                     "Times a session device entered quarantine.")
        ->Increment(stats_.device_quarantines);
    for (size_t d = 0; d < health_.size(); ++d) {
      double ratio = 1.0;
      if (!health_[d].window.empty()) {
        int faulted = 0;
        for (uint8_t outcome : health_[d].window) faulted += outcome;
        ratio = 1.0 - static_cast<double>(faulted) /
                          static_cast<double>(health_[d].window.size());
      }
      std::string name = "gjoin_device_health_ratio{device=\"";
      name += std::to_string(d);
      name += "\"}";
      registry
          ->GetGauge(name,
                     "1 - recent transfer-fault fraction of the device's "
                     "health window (1.0 = no recent faults).")
          ->Set(ratio);
    }
  }
}

util::Result<std::string> Session::TraceJson() const {
  if (!ran_) {
    return util::Status::Invalid("Session::TraceJson called before Run()");
  }
  if (batch_.node_to_op.size() != graph_.size()) {
    return util::Status::Invalid(
        "Session::TraceJson: batch was never scheduled (Run() failed)");
  }
  obs::TraceExporter exporter;
  const std::vector<QueryNode>& nodes = graph_.nodes();
  for (size_t n = 0; n < nodes.size(); ++n) {
    const int q = nodes[n].query;
    if (q < 0 || static_cast<size_t>(q) >= results_.size()) continue;
    const sim::OpId op = batch_.node_to_op[n];
    if (op < 0) continue;  // Aborted by a deadline: never issued.
    const Query& query = queries_[static_cast<size_t>(q)];
    const QueryResult& result = results_[static_cast<size_t>(q)];
    exporter.Annotate(op, "query", static_cast<int64_t>(q));
    exporter.Annotate(op, "strategy",
                      api::StrategyName(result.outcome.strategy));
    exporter.Annotate(op, "device", static_cast<int64_t>(result.device));
    exporter.Annotate(op, "bytes_moved",
                      static_cast<int64_t>(query.build->bytes() +
                                           query.probe->bytes()));
    exporter.Annotate(op, "transfer_retries",
                      static_cast<int64_t>(result.transfer_retries));
    exporter.Annotate(op, "degradations",
                      static_cast<int64_t>(result.degradations));
    if (result.status.code() == util::StatusCode::kDeadlineExceeded) {
      exporter.Annotate(op, "deadline_missed", static_cast<int64_t>(1));
    }
  }
  if (config_.profiler != nullptr) {
    for (const obs::HostProfiler::Span& span : config_.profiler->spans()) {
      exporter.AddHostSpan(span.name, span.start_s, span.duration_s);
    }
  }
  return exporter.ToJson(batch_.timeline, batch_.schedule);
}

void Session::EmitSplitInGpu(int index, QueryGraph* graph, double build_part_s,
                             double probe_part_s, double join_s,
                             bool build_shared, bool build_cached,
                             bool probe_shared, bool probe_cached) {
  const Query& query = queries_[static_cast<size_t>(index)];
  const int n_dev = device_count();
  const double n = static_cast<double>(n_dev);
  const hw::PcieModel pcie(devices_[0]->spec().pcie);
  const PartitionedJoinConfig join_cfg = MakeJoinConfig(query.config);
  const std::string build_tag =
      UploadCache::BuildKey(*query.build, join_cfg.partition) + "#split";
  const std::string probe_tag =
      UploadCache::UploadKey(*query.probe) + "#split";
  std::string prefix = "q";
  prefix += std::to_string(index);
  prefix += ':';

  // Build side: one 1/N slice per device (upload + partition), shared by
  // every split query over this build. A cache hit produced by a
  // *whole-query* placement of the same build uses a different slicing,
  // so it cannot be aliased — the slices are then charged afresh.
  std::vector<NodeId> build_nodes;  // [h2d0, part0, h2d1, part1, ...]
  const auto build_reg = artifact_nodes_.find(build_tag);
  if (build_shared && build_reg != artifact_nodes_.end()) {
    build_nodes = build_reg->second;
  } else {
    const uint64_t slice = query.build->bytes() / static_cast<uint64_t>(n_dev);
    for (int d = 0; d < n_dev; ++d) {
      std::string suffix = ".";
      suffix += std::to_string(d);
      const NodeId h2d =
          graph->AddNode(index, sim::Topology::H2dLane(d),
                         pcie.DmaSeconds(slice), {}, prefix + "h2d:R" + suffix);
      const NodeId part = graph->AddNode(index, sim::Topology::ComputeLane(d),
                                         build_part_s / n, {h2d},
                                         prefix + "part:R" + suffix);
      build_nodes.push_back(h2d);
      build_nodes.push_back(part);
    }
    // Register while resident — also on a cross-slicing hit (the cached
    // artifact was produced whole): these slices are the charged
    // producers for later split queries.
    if (build_cached) artifact_nodes_[build_tag] = build_nodes;
  }

  // Probe side: deduplicated sliced upload, partitioned per query.
  std::vector<NodeId> probe_h2d;
  const auto probe_reg = artifact_nodes_.find(probe_tag);
  if (probe_shared && probe_reg != artifact_nodes_.end()) {
    probe_h2d = probe_reg->second;
  } else {
    const uint64_t slice = query.probe->bytes() / static_cast<uint64_t>(n_dev);
    for (int d = 0; d < n_dev; ++d) {
      probe_h2d.push_back(graph->AddNode(
          index, sim::Topology::H2dLane(d), pcie.DmaSeconds(slice), {},
          prefix + "h2d:S." + std::to_string(d)));
    }
    if (probe_cached) artifact_nodes_[probe_tag] = probe_h2d;
  }
  std::vector<NodeId> probe_part;
  for (int d = 0; d < n_dev; ++d) {
    probe_part.push_back(graph->AddNode(
        index, sim::Topology::ComputeLane(d), probe_part_s / n,
        {probe_h2d[static_cast<size_t>(d)]},
        prefix + "part:S." + std::to_string(d)));
  }
  for (int d = 0; d < n_dev; ++d) {
    graph->AddNode(index, sim::Topology::ComputeLane(d), join_s / n,
                   {build_nodes[static_cast<size_t>(2 * d + 1)],
                    probe_part[static_cast<size_t>(d)]},
                   prefix + "join." + std::to_string(d));
  }
}

util::Status Session::ExecuteQuery(int index, QueryGraph* graph,
                                   QueryResult* result) {
  const Query& query = queries_[static_cast<size_t>(index)];
  if (query.doomed) {
    return util::Status::ExecutionError(
        "every session device dies before this query could finish "
        "(planned device death; enable SessionConfig::recovery for a "
        "host-CPU fallback)");
  }
  result->planned_strategy = query.strategy;
  sim::Device* dev = device(query.device);
  const hw::PcieModel pcie(dev->spec().pcie);

  // Degradation ladder: on a simulated device OOM with recovery armed,
  // tear down whatever the failed attempt staged (charged as one DMA of
  // the staged bytes — the modeled cost of having uploaded it for
  // nothing) and retry one rung down the strategy lattice. Any other
  // error — or OOM without recovery — propagates to this query's
  // QueryResult::status and never aborts its siblings.
  api::Strategy rung = query.strategy;
  util::Status attempt_status;
  for (;;) {
    const uint64_t staged_before = dev->memory().total_reserved();
    attempt_status = ExecuteAttempt(index, rung, graph, result);
    if (attempt_status.ok() || !recovery_enabled_ ||
        attempt_status.code() != util::StatusCode::kOutOfMemory) {
      break;
    }
    const uint64_t staged = dev->memory().total_reserved() - staged_before;
    result->fault_penalty_s += pcie.DmaSeconds(staged);
    const api::Strategy next = NextRung(rung);
    if (next == api::Strategy::kAuto) break;  // lattice exhausted
    ++result->degradations;
    ++stats_.degradations;
    rung = next;
  }
  stats_.transfer_retries += result->transfer_retries;
  if (result->fault_penalty_s > 0) {
    // Retry and teardown costs occupy the home device's upload engine on
    // the shared timeline, and lengthen the query run standalone. They
    // are charged even when the query ultimately failed: its doomed
    // attempts consumed the engine all the same.
    std::string label = "q";
    label += std::to_string(index);
    label += ":fault:penalty";
    graph->AddNode(index, sim::Topology::H2dLane(query.device),
                   result->fault_penalty_s, {}, std::move(label));
    result->solo_seconds += result->fault_penalty_s;
    stats_.fault_penalty_s += result->fault_penalty_s;
  }
  GJOIN_RETURN_NOT_OK(attempt_status);
  if (rung == api::Strategy::kCpuOnly &&
      query.strategy != api::Strategy::kCpuOnly) {
    ++stats_.cpu_fallbacks;
  }
  return util::Status::OK();
}

util::Status Session::ExecuteAttempt(int index, api::Strategy strategy,
                                     QueryGraph* graph, QueryResult* result) {
  const Query& query = queries_[static_cast<size_t>(index)];
  const data::Relation& build = *query.build;
  const data::Relation& probe = *query.probe;
  result->outcome.stats = JoinStats();  // drop any failed attempt's partials
  result->outcome.strategy = strategy;
  result->device = query.device;
  const bool split = query.split && strategy == api::Strategy::kInGpu;
  result->split = split;
  JoinStats& stats = result->outcome.stats;

  sim::Device* dev = device(query.device);
  UploadCache& dcache = cache(query.device);
  LeaseGuard leases(&dcache);
  sim::FaultInjector* injector = dev->faults();
  const int n_dev = device_count();
  const hw::PcieModel pcie(dev->spec().pcie);
  const hw::InterconnectModel peer(dev->spec().interconnect);
  PartitionedJoinConfig join_cfg = MakeJoinConfig(query.config);

  // Per-device artifact namespace of the merged graph (a "#split" tag
  // for sliced placements): producer nodes are only reusable by queries
  // on the same device under the same slicing.
  std::string device_tag = "@";
  device_tag += std::to_string(query.device);

  sim::Timeline solo;
  // The op DAG spliced into the batch. Usually the solo DAG itself;
  // co-processing queries that reuse a shared CPU pre-partitioning
  // splice a cheaper pipeline (the shared phase is charged once).
  const sim::Timeline* batch_dag = &solo;
  sim::Timeline batch_override;
  std::map<sim::OpId, NodeId> alias;
  // Artifact ops of this query's solo DAG, registered as producers when
  // this query materialized the artifact into the cache.
  std::vector<std::pair<std::string, std::vector<sim::OpId>>> produced;
  bool split_emitted = false;

  // Finds a device other than this query's home whose cache holds
  // `key` with registered producer nodes — the source of a peer-to-peer
  // replica copy. (Raw uploads never replicate: their source is host
  // memory, so a re-upload costs the same as a peer copy; only computed
  // artifacts — partitioned builds — are worth shipping between
  // devices.)
  auto replica_source = [&](const std::string& key) {
    for (int e = 0; e < n_dev; ++e) {
      if (e == query.device) continue;
      if (caches_[static_cast<size_t>(e)]->Contains(key) &&
          artifact_nodes_.count(key + "@" + std::to_string(e)) > 0) {
        return e;
      }
    }
    return -1;
  };

  // Links this query's build-artifact ops into the merged graph: aliases
  // a same-device cache hit to its producer nodes, charges a replica
  // when another device already holds the build (over the peer
  // interconnect when that is cheaper than re-uploading and
  // re-partitioning from the host — on NVLink-class fabrics it is; on
  // the testbed's PCIe switch it is not), or registers a fresh
  // production for later reuse.
  auto link_build_artifact = [&](const std::string& build_key,
                                 sim::OpId h2d_op, sim::OpId part_op,
                                 bool build_shared, double fresh_s,
                                 uint64_t measured_bytes) {
    const auto reg = artifact_nodes_.find(build_key + device_tag);
    if (build_shared) {
      if (reg != artifact_nodes_.end()) {
        alias[h2d_op] = reg->second[0];
        alias[part_op] = reg->second[1];
      } else {
        // Functional hit, but the resident artifact was charged under a
        // different slicing (a kPartition "#split" production): a whole
        // query needs the build gathered on its device, so its upload +
        // partition are charged afresh — and become this device's
        // producers for later whole-query consumers.
        produced.push_back({build_key + device_tag, {h2d_op, part_op}});
      }
      return;
    }
    const int source = replica_source(build_key);
    if (source >= 0) {
      ++stats_.replicated_builds;
      const double peer_s = peer.PeerCopySeconds(artifact_bytes_[build_key]);
      if (peer_s < fresh_s) {
        const NodeId src_part =
            artifact_nodes_[build_key + "@" + std::to_string(source)][1];
        std::string label = "q";
        label += std::to_string(index);
        label += ":p2p:R";
        const NodeId p2p =
            graph->AddNode(index, sim::Topology::PeerLane(n_dev), peer_s,
                           {src_part}, std::move(label));
        alias[h2d_op] = p2p;
        alias[part_op] = p2p;
        if (dcache.Contains(build_key)) {
          artifact_nodes_[build_key + device_tag] = {p2p, p2p};
        }
        return;
      }
      // Host re-upload + re-partition is cheaper on this interconnect:
      // fall through and charge the replica on the device's own lanes.
    }
    if (dcache.Contains(build_key)) {
      produced.push_back({build_key + device_tag, {h2d_op, part_op}});
      artifact_bytes_[build_key] = measured_bytes;
    }
  };

  // Acquires the partitioned form of `build` under `cfg` from this
  // device's cache (one partitioned build serves every probe against
  // it), or prepares it into `local_build` and offers it to the cache;
  // an artifact over the whole budget stays private unless the budget is
  // strict. A fresh upload is charged its transfer faults.
  PreparedBuild local_build;
  std::string build_key;
  bool build_shared = false;
  uint64_t build_artifact_bytes = 0;
  auto acquire_build = [&](const PartitionedJoinConfig& cfg)
      -> util::Result<const PreparedBuild*> {
    build_key = UploadCache::BuildKey(build, cfg.partition);
    leases.Add(build_key);
    const PreparedBuild* prepared = dcache.AcquireBuild(build_key);
    build_shared = prepared != nullptr;
    if (build_shared) {
      ++stats_.shared_build_hits;
      return prepared;
    }
    const uint64_t before = dev->memory().used();
    GJOIN_ASSIGN_OR_RETURN(
        local_build, gjoin::gpujoin::PreparePartitionedBuild(dev, build, cfg));
    build_artifact_bytes = dev->memory().used() - before;
    util::Result<const PreparedBuild*> cached =
        dcache.InsertBuild(build_key, &local_build, build_artifact_bytes);
    if (!cached.ok()) {
      if (config_.strict_cache_budget) return cached.status();
      prepared = &local_build;
    } else {
      prepared = *cached != nullptr ? *cached : &local_build;
    }
    GJOIN_RETURN_NOT_OK(ChargeTransferFaults(query.device, injector,
                                             pcie.DmaSeconds(build.bytes()),
                                             "build", result));
    return prepared;
  };

  switch (strategy) {
    case api::Strategy::kInGpu: {
      PartitionedJoinConfig cfg = join_cfg;
      cfg.join.output = query.config.materialize ? OutputMode::kMaterialize
                                                 : OutputMode::kAggregate;

      GJOIN_ASSIGN_OR_RETURN(const PreparedBuild* prepared,
                             acquire_build(cfg));
      if (cfg.join.key_bits == 0) cfg.join.key_bits = prepared->key_bits;

      // Probe side: deduplicated raw upload, partitioned per query.
      const std::string probe_key = UploadCache::UploadKey(probe);
      leases.Add(probe_key);
      DeviceRelation local_probe;
      const DeviceRelation* s_dev = dcache.AcquireUpload(probe_key);
      const bool probe_shared = s_dev != nullptr;
      if (probe_shared) {
        ++stats_.shared_upload_hits;
      } else {
        const uint64_t before = dev->memory().used();
        GJOIN_ASSIGN_OR_RETURN(local_probe,
                               DeviceRelation::Upload(dev, probe));
        const uint64_t bytes = dev->memory().used() - before;
        util::Result<const DeviceRelation*> cached =
            dcache.InsertUpload(probe_key, &local_probe, bytes);
        if (!cached.ok()) {
          if (config_.strict_cache_budget) return cached.status();
          s_dev = &local_probe;  // over-budget artifact stays private
        } else {
          s_dev = *cached != nullptr ? *cached : &local_probe;
        }
        GJOIN_RETURN_NOT_OK(ChargeTransferFaults(
            query.device, injector, pcie.DmaSeconds(probe.bytes()), "probe",
            result));
      }

      GJOIN_ASSIGN_OR_RETURN(
          PartitionedRelation s_parted,
          gjoin::gpujoin::RadixPartition(dev, *s_dev, cfg.partition));

      GJOIN_ASSIGN_OR_RETURN(
          stats, gjoin::gpujoin::JoinPartitioned(dev, prepared->parted,
                                                 s_parted, cfg, probe.size()));
      // The one-time input transfer (the paper's in-GPU numbers assume
      // resident data; end-to-end reporting charges it separately).
      stats.transfer_s =
          pcie.DmaSeconds(build.bytes()) + pcie.DmaSeconds(probe.bytes());

      // Solo op DAG: uploads on the H2D engine, partition + join on the
      // compute engine.
      const sim::OpId h2d_r = solo.Add(
          sim::Engine::kCopyH2D, pcie.DmaSeconds(build.bytes()), {}, "h2d:R");
      const sim::OpId part_r =
          solo.Add(sim::Engine::kComputeGpu, prepared->parted.seconds,
                   {h2d_r}, "part:R");
      const sim::OpId h2d_s = solo.Add(
          sim::Engine::kCopyH2D, pcie.DmaSeconds(probe.bytes()), {}, "h2d:S");
      const sim::OpId part_s = solo.Add(
          sim::Engine::kComputeGpu, s_parted.seconds, {h2d_s}, "part:S");
      solo.Add(sim::Engine::kComputeGpu, stats.join_s, {part_r, part_s},
               "join");

      if (split) {
        EmitSplitInGpu(index, graph, prepared->parted.seconds,
                       s_parted.seconds, stats.join_s, build_shared,
                       dcache.Contains(build_key), probe_shared,
                       dcache.Contains(probe_key));
        split_emitted = true;
        break;
      }

      link_build_artifact(build_key, h2d_r, part_r, build_shared,
                          pcie.DmaSeconds(build.bytes()) +
                              prepared->parted.seconds,
                          build_artifact_bytes);
      const auto probe_reg = artifact_nodes_.find(probe_key + device_tag);
      if (probe_shared && probe_reg != artifact_nodes_.end()) {
        alias[h2d_s] = probe_reg->second[0];
      } else if (probe_shared || dcache.Contains(probe_key)) {
        // Fresh production, or a hit charged under a different slicing
        // (see link_build_artifact): register this query's charged op.
        produced.push_back({probe_key + device_tag, {h2d_s}});
      }
      break;
    }

    case api::Strategy::kStreamingProbe: {
      outofgpu::StreamingProbeConfig stream_cfg;
      stream_cfg.join = join_cfg;
      stream_cfg.materialize_to_host = query.config.materialize;

      const PreparedBuild* prepared = nullptr;
      if (!build.empty()) {
        GJOIN_ASSIGN_OR_RETURN(prepared, acquire_build(stream_cfg.join));
      }

      GJOIN_ASSIGN_OR_RETURN(
          outofgpu::StreamingProbeRun run,
          outofgpu::StreamingProbeExecute(dev, build, probe, stream_cfg,
                                          prepared));
      stats = run.stats;
      solo = std::move(run.timeline);
      if (!build_key.empty()) {
        link_build_artifact(build_key, run.build_h2d, run.build_part,
                            build_shared,
                            pcie.DmaSeconds(build.bytes()) +
                                prepared->parted.seconds,
                            build_artifact_bytes);
      }
      break;
    }

    case api::Strategy::kCoProcessing: {
      outofgpu::CoProcessConfig co_cfg;
      co_cfg.join = join_cfg;
      co_cfg.cpu.threads = query.config.cpu_threads;
      co_cfg.materialize_to_host = query.config.materialize;
      // The NUMA planner picks the pinned-buffer/staging placement for
      // this device's upload path (on the paper's testbed: stage).
      const hw::numa::PlacementPlanner planner(dev->spec());
      co_cfg.staging = planner.Plan(query.device, co_cfg.cpu.threads).stage;

      // Reuse the CPU pre-partitioning of relations shared with earlier
      // co-processing queries (deterministic, so one partitioned form
      // serves them all).
      const std::string build_parts_key = HostPartsKey(build, co_cfg.cpu);
      const std::string probe_parts_key = HostPartsKey(probe, co_cfg.cpu);
      const cpu::HostPartitions* build_parts = nullptr;
      const cpu::HostPartitions* probe_parts = nullptr;
      uint64_t shared_part_bytes = 0;
      if (const auto it = host_parts_.find(build_parts_key);
          it != host_parts_.end()) {
        build_parts = &it->second;
        shared_part_bytes += build.bytes();
        ++stats_.coprocess_part_hits;
      }
      if (const auto it = host_parts_.find(probe_parts_key);
          it != host_parts_.end()) {
        probe_parts = &it->second;
        shared_part_bytes += probe.bytes();
        ++stats_.coprocess_part_hits;
      }
      cpu::HostPartitions fresh_build, fresh_probe;
      GJOIN_ASSIGN_OR_RETURN(
          outofgpu::CoProcessPlan plan,
          outofgpu::PlanCoProcessJoinShared(dev, build, probe, co_cfg,
                                            build_parts, probe_parts,
                                            &fresh_build, &fresh_probe));
      if (build_parts == nullptr && !fresh_build.parts.empty()) {
        host_parts_.emplace(build_parts_key, std::move(fresh_build));
      }
      if (probe_parts == nullptr && !fresh_probe.parts.empty()) {
        host_parts_.emplace(probe_parts_key, std::move(fresh_probe));
      }

      GJOIN_ASSIGN_OR_RETURN(
          outofgpu::CoProcessRun run,
          outofgpu::CoProcessExecutePlanned(dev, plan, co_cfg));
      stats = run.stats;
      solo = std::move(run.timeline);
      if (shared_part_bytes > 0) {
        // The batch charges the shared pre-partitioning once: this
        // query's pipeline runs with that phase already performed.
        outofgpu::CoProcessConfig batch_cfg = co_cfg;
        batch_cfg.prepartitioned_bytes = shared_part_bytes;
        GJOIN_ASSIGN_OR_RETURN(
            outofgpu::CoProcessRun batch_run,
            outofgpu::CoProcessExecutePlanned(dev, plan, batch_cfg));
        batch_override = std::move(batch_run.timeline);
        batch_dag = &batch_override;
      }
      break;
    }

    case api::Strategy::kCpuOnly: {
      // The recovery ladder's last rung (or an explicit request): the
      // paper's CPU radix join (PRO), entirely host-resident. No device
      // memory is touched, so it cannot OOM on simulated device faults.
      cpu::CpuJoinConfig cpu_cfg;
      cpu_cfg.threads = query.config.cpu_threads;
      GJOIN_ASSIGN_OR_RETURN(
          cpu::CpuJoinResult run,
          cpu::ProJoin(build, probe, cpu_cfg,
                       hw::CpuCostModel(dev->spec().cpu)));
      stats.matches = run.matches;
      stats.payload_sum = run.payload_sum;
      stats.partition_s = run.cost.partition_s;
      stats.join_s = run.cost.build_s + run.cost.probe_s;
      stats.cpu_s = run.seconds;
      stats.seconds = run.seconds;
      solo.Add(sim::Engine::kCpu, run.seconds, {}, "cpu-join");
      break;
    }

    case api::Strategy::kAuto:
      return util::Status::Internal("unresolved auto strategy");
  }

  // Solo end-to-end seconds: what this query would take alone.
  GJOIN_ASSIGN_OR_RETURN(sim::Schedule solo_schedule, solo.Run());
  result->solo_seconds = solo_schedule.makespan_s;
  if (split_emitted) return util::Status::OK();

  // Splice into the batch DAG on the home device's lanes; register
  // freshly-produced artifacts.
  const std::vector<sim::LaneId> lane_map =
      sim::Topology::EngineLaneMap(query.device);
  const std::vector<NodeId> mapping = graph->Append(
      index, *batch_dag, alias, query.device == 0 ? nullptr : &lane_map);
  for (auto& [key, ops] : produced) {
    std::vector<NodeId>& nodes = artifact_nodes_[key];
    nodes.clear();
    for (sim::OpId op : ops) {
      nodes.push_back(mapping[static_cast<size_t>(op)]);
    }
  }
  return util::Status::OK();
}

}  // namespace gjoin::exec
