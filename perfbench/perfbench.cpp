// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload on the simulated Samhita DSM, repeating it in this
// process until `--seconds` of host time have passed, checks every
// repetition's output, prints every metric with its unit, and ends with one
// JSON line {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics of untraced repetitions. --trace 1 spends half the
// budget on untraced repetitions and half on traced ones (protocol trace on,
// every runtime call stamped; see call_tracer.hpp) and reports the per-layer
// metrics. Workloads, metrics and their expected interactions are described
// in README.md next to this file.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "api/sam_api.hpp"
#include "apps/jacobi.hpp"
#include "apps/kvstore.hpp"
#include "apps/microbench.hpp"
#include "call_tracer.hpp"
#include "core/samhita_runtime.hpp"
#include "obs/critical_path.hpp"

namespace {

using namespace sam;
using perfbench::BenchRuntime;
using perfbench::Clock;
using perfbench::Layer;
using perfbench::LayerTimes;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Upper bound of the uniform per-delivery network jitter the seed draws.
/// The batch kernels read no random input, so this is what makes --seed an
/// input of strided-hit and jacobi-512; it is small next to a ~2 us IB
/// message, and functional results are invariant under it.
constexpr SimDuration kSeedJitterNs = 50;

/// Span-store size of traced runs. A traced repetition that overflows it
/// aborts the benchmark rather than report a partial critical path.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 22;

// --- KV serving parameters ---------------------------------------------------

constexpr std::array<double, 3> kKvRates = {25e3, 50e3, 100e3};  ///< offered ops/s
constexpr std::size_t kKvMidRate = 1;           ///< index of the reported point
constexpr std::uint64_t kKvOpsPerRate = 10000;  ///< p99.9 has 10 ops beyond it
constexpr double kKvLatencyLimitNs = 1e6;       ///< tail limit of kv_max_rate_ops_s
constexpr double kKvMinAchievedShare = 0.95;    ///< achieved/offered to count
constexpr double kTailBeyond = 10;              ///< samples a percentile needs past it

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// One offered-rate point of the KV workload.
struct KvPoint {
  double offered = 0;
  double achieved = 0;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t samples = 0;
  double p50_ns = 0;
  double tail_pct = 0;  ///< p99.9, or the highest percentile with 10 beyond it
  double tail_ns = 0;
  bool operator==(const KvPoint&) const = default;

  bool meets_limit() const {
    return failed == 0 && samples > 0 && tail_pct >= 99.9 &&
           tail_ns <= kKvLatencyLimitNs && achieved >= kKvMinAchievedShare * offered;
  }
};

/// Everything a repetition simulated. For one seed it must repeat exactly,
/// traced or not.
struct Virtual {
  double elapsed_s = 0;  ///< summed over the repetition's instances
  double sync_s = 0;     ///< summed mean per-thread sync time
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t twins = 0;
  std::uint64_t diffs = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t update_set_bytes = 0;
  std::uint64_t scl_retries = 0;
  std::uint64_t resumes = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t update_window_max = 0;
  std::vector<double> outputs;          ///< gsum / residual per instance
  std::vector<std::uint64_t> checksums; ///< KV value checksum per instance
  std::vector<KvPoint> kv;
  bool operator==(const Virtual&) const = default;
};

struct Rep {
  double setup_s = 0;
  double host_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  Virtual v;
  LayerTimes layers;
  obs::CriticalPathBreakdown cp{};  ///< summed over instances (traced, first rep)
  double cp_total_s = 0;
};

/// Thrown when a traced run dropped spans: the critical path would be cut.
struct TraceTruncated : std::runtime_error {
  using std::runtime_error::runtime_error;
};

core::SamhitaConfig platform(const Options& o, unsigned nodes, bool traced) {
  core::SamhitaConfig cfg;
  cfg.compute_nodes = nodes;
  cfg.cores_per_node = 8;
  cfg.network_jitter = kSeedJitterNs;
  cfg.jitter_seed = o.seed;
  if (traced) {
    cfg.trace_enabled = true;
    cfg.trace_capacity = kTraceCapacity;
  }
  return cfg;
}

void collect_counters(const core::SamhitaRuntime& sim, Virtual& v) {
  for (std::uint32_t t = 0; t < sim.ran_threads(); ++t) {
    const core::Metrics& m = sim.metrics(t);
    v.cache_hits += m.cache_hits;
    v.cache_misses += m.cache_misses;
    v.prefetch_issued += m.prefetch_issued;
    v.prefetch_hits += m.prefetch_hits;
    v.twins += m.twins_created;
    v.diffs += m.diffs_flushed;
    v.invalidations += m.invalidations;
    v.update_set_bytes += m.update_set_bytes;
    v.scl_retries += m.scl_retries;
  }
  v.resumes += sim.sim_thread_resumes();
  v.net_messages += sim.network_messages();
  v.net_bytes += sim.network_bytes();
  for (rt::MutexId m = 0; m < sim.services().mutex_count(); ++m) {
    v.update_window_max = std::max<std::uint64_t>(v.update_window_max,
                                                  sim.services().mutex(m).window.size());
  }
}

/// Simulates one instance into `rep`: constructs the runtime, runs `app`
/// through the decorator, and books host times, counters and (traced) layer
/// times and critical path. `ops` is what the instance attempts; all of it
/// fails when the app throws.
void run_instance(const core::SamhitaConfig& cfg, bool want_cp, std::uint64_t ops,
                  Rep& rep, const std::function<void(rt::Runtime&, Rep&)>& app) {
  rep.attempted += ops;
  const Clock::time_point t0 = Clock::now();
  core::SamhitaRuntime sim(cfg);
  BenchRuntime bench(sim, cfg.trace_enabled);
  try {
    app(bench, rep);
  } catch (const std::exception& e) {
    rep.errors.push_back(e.what());
    rep.failed += ops;
  }
  if (!bench.ran()) return;
  rep.setup_s += seconds_between(t0, bench.run_begin());
  rep.host_s += seconds_between(bench.run_begin(), bench.run_end());
  collect_counters(sim, rep.v);
  if (!cfg.trace_enabled) return;
  rep.layers += bench.layers();
  if (sim.trace().spans_dropped() > 0) {
    throw TraceTruncated("traced run dropped " +
                         std::to_string(sim.trace().spans_dropped()) +
                         " spans; raise kTraceCapacity");
  }
  if (want_cp) {
    const obs::CriticalPath cp = obs::build_critical_path(sim);
    if (cp.truncated) throw TraceTruncated("critical path built from a truncated trace");
    const obs::CriticalPathBreakdown& b = cp.breakdown;
    rep.cp.compute_seconds += b.compute_seconds;
    rep.cp.demand_fetch_seconds += b.demand_fetch_seconds;
    rep.cp.server_service_seconds += b.server_service_seconds;
    rep.cp.network_seconds += b.network_seconds;
    rep.cp.lock_wait_seconds += b.lock_wait_seconds;
    rep.cp.barrier_wait_seconds += b.barrier_wait_seconds;
    rep.cp.recovery_seconds += b.recovery_seconds;
    rep.cp_total_s += cp.total_thread_seconds;
  }
}

// --- workloads ----------------------------------------------------------------

bool close_to(double got, double want, double rel) {
  return std::abs(got - want) <= std::abs(want) * rel;
}

apps::MicrobenchParams strided_params() {
  apps::MicrobenchParams p;
  p.threads = 16;
  p.N = 10;
  p.M = 10000;
  p.S = 2;
  p.B = 256;
  p.alloc = apps::MicrobenchAlloc::kGlobalStrided;
  return p;
}

void strided_rep(const Options& o, bool traced, bool want_cp, Rep& rep) {
  const apps::MicrobenchParams p = strided_params();
  const std::uint64_t row_updates = std::uint64_t{p.threads} * p.N * p.M * p.S;
  run_instance(platform(o, 4, traced), want_cp, row_updates, rep,
               [&](rt::Runtime& runtime, Rep& r) {
                 const apps::MicrobenchResult out = apps::run_microbench(runtime, p);
                 r.v.elapsed_s += out.elapsed_seconds;
                 r.v.sync_s += out.mean_sync_seconds;
                 r.v.outputs.push_back(out.gsum);
               });
}

std::string strided_check(const Options&, const Rep& rep) {
  const double want = apps::microbench_reference_gsum(strided_params());
  for (const double got : rep.v.outputs) {
    if (!close_to(got, want, 1e-12)) {
      return "micro gsum " + std::to_string(got) + " != reference " +
             std::to_string(want);
    }
  }
  return {};
}

apps::JacobiParams jacobi_params() {
  apps::JacobiParams p;
  p.threads = 512;
  p.n = 1024;
  p.iterations = 10;
  return p;
}

void jacobi_rep(const Options& o, bool traced, bool want_cp, Rep& rep) {
  const apps::JacobiParams p = jacobi_params();
  const std::uint64_t points = std::uint64_t{p.n - 2} * (p.n - 2) * p.iterations;
  run_instance(platform(o, 64, traced), want_cp, points, rep,
               [&](rt::Runtime& runtime, Rep& r) {
                 const apps::JacobiResult out = apps::run_jacobi(runtime, p);
                 r.v.elapsed_s += out.elapsed_seconds;
                 r.v.sync_s += out.mean_sync_seconds;
                 r.v.outputs.push_back(out.final_residual);
               });
}

/// Residual of the same grid on the cache-coherent Pthreads baseline, which
/// models one 8-core node. Run once, after the measured repetitions, so it
/// cannot raise their peak RSS.
double jacobi_pthreads_residual() {
  static const double residual = [] {
    apps::JacobiParams p = jacobi_params();
    p.threads = 8;
    auto baseline = api::make_pthreads_runtime();
    return apps::run_jacobi(*baseline, p).final_residual;
  }();
  return residual;
}

std::string jacobi_check(const Options&, const Rep& rep) {
  const double want = jacobi_pthreads_residual();
  for (const double got : rep.v.outputs) {
    // The two runs split the residual sum over different thread counts and
    // add the parts in lock-grant order: allow for re-association only.
    if (!close_to(got, want, 1e-9)) {
      return "jacobi residual " + std::to_string(got) + " != pthreads " +
             std::to_string(want);
    }
  }
  return {};
}

apps::KvParams kv_params(const Options& o, double rate) {
  apps::KvParams p;
  p.partitions = 4;
  p.clients = 4;
  p.ops = kKvOpsPerRate;
  p.arrival_rate = rate;
  p.zipf_theta = 0.99;
  p.read_ratio = 0.95;
  p.seed = o.seed;
  return p;
}

/// Highest percentile, capped at p99.9, with kTailBeyond samples beyond it.
double tail_percentile(std::uint64_t samples) {
  if (static_cast<double>(samples) <= kTailBeyond) return 0;
  return std::min(99.9, 100.0 * (1.0 - kTailBeyond / static_cast<double>(samples)));
}

void kv_rep(const Options& o, bool traced, bool want_cp, Rep& rep) {
  for (const double rate : kKvRates) {
    const apps::KvParams p = kv_params(o, rate);
    KvPoint pt;
    pt.offered = rate;
    pt.sent = p.ops;
    run_instance(platform(o, 4, traced), want_cp, p.ops, rep,
                 [&](rt::Runtime& runtime, Rep& r) {
                   const apps::KvResult out = apps::run_kvstore(runtime, p);
                   r.v.elapsed_s += out.elapsed_seconds;
                   r.v.sync_s += out.mean_sync_seconds;
                   r.v.checksums.push_back(out.value_checksum);
                   pt.achieved = out.achieved_rate;
                   pt.completed = out.ops_completed;
                   pt.samples = out.latency.count();
                   if (pt.samples > 0) pt.p50_ns = out.latency.percentile(50.0);
                   pt.tail_pct = tail_percentile(pt.samples);
                   if (pt.tail_pct > 0) pt.tail_ns = out.latency.percentile(pt.tail_pct);
                 });
    pt.failed = pt.sent - std::min(pt.sent, pt.completed);
    rep.v.kv.push_back(pt);
  }
}

std::string kv_check(const Options& o, const Rep& rep) {
  for (std::size_t i = 0; i < rep.v.checksums.size() && i < kKvRates.size(); ++i) {
    const std::uint64_t want =
        apps::kvstore_reference_checksum(kv_params(o, kKvRates[i]));
    if (rep.v.checksums[i] != want) {
      return "kv checksum " + std::to_string(rep.v.checksums[i]) + " != reference " +
             std::to_string(want) + " at rate " + std::to_string(kKvRates[i]);
    }
  }
  for (const KvPoint& pt : rep.v.kv) {
    if (pt.failed > 0) {
      return std::to_string(pt.failed) + " kv ops not completed at rate " +
             std::to_string(pt.offered);
    }
  }
  return {};
}

struct Workload {
  const char* name;
  std::function<void(const Options&, bool traced, bool want_cp, Rep&)> rep;
  std::function<std::string(const Options&, const Rep&)> check;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"strided-hit", strided_rep, strided_check},
      {"jacobi-512", jacobi_rep, jacobi_check},
      {"kv-open", kv_rep, kv_check},
  };
  return all;
}

// --- measurement ------------------------------------------------------------------

/// Repeats the workload until `budget` host seconds have passed and at least
/// `min_reps` repetitions ran. Only the first traced repetition builds the
/// critical path (virtual results are identical across repetitions).
std::vector<Rep> repeat(const Workload& w, const Options& o, bool traced, double budget,
                        int min_reps) {
  std::vector<Rep> reps;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(reps.size()) < min_reps ||
         seconds_between(start, Clock::now()) < budget) {
    Rep rep;
    w.rep(o, traced, traced && reps.empty(), rep);
    reps.push_back(std::move(rep));
  }
  return reps;
}

double median_of(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double median_host_s(std::span<const Rep> reps) {
  std::vector<double> xs;
  for (const Rep& r : reps) xs.push_back(r.host_s);
  return median_of(xs);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> kv_metrics(const Virtual& v) {
  double max_rate = 0;
  KvPoint mid;
  if (v.kv.size() == kKvRates.size()) {
    mid = v.kv[kKvMidRate];
    for (const KvPoint& pt : v.kv) {
      if (pt.meets_limit()) max_rate = std::max(max_rate, pt.offered);
    }
  }
  return {{"kv_p50_us", mid.p50_ns * 1e-3, "us"},
          {"kv_p999_us", mid.tail_ns * 1e-3, "us"},
          {"kv_tail_pct", mid.tail_pct, "pct"},
          {"kv_achieved_ops_s", mid.achieved, "1/s"},
          {"kv_max_rate_ops_s", max_rate, "1/s"}};
}

/// The process's first repetition is a warm-up: checked and counted, but
/// left out of the host-time medians. Its host time runs 10-25% above the
/// rest while the allocator and page tables settle.
std::span<const Rep> timed_reps(const std::vector<Rep>& untraced) {
  return std::span<const Rep>(untraced).subspan(1);
}

std::vector<Metric> end_to_end(std::span<const Rep> reps, double rss_mb) {
  std::vector<double> setups;
  for (const Rep& r : reps) setups.push_back(r.setup_s);
  const double host_s = median_host_s(reps);
  const Virtual& v = reps.front().v;
  const auto accesses = static_cast<double>(v.cache_hits + v.cache_misses);
  return {{"setup_s", median_of(setups), "s"},
          {"host_s", host_s, "s"},
          {"host_ns_per_access", ratio(host_s * 1e9, accesses), "ns"},
          {"peak_rss_mb", rss_mb, "MB"},
          {"virt_elapsed_ms", v.elapsed_s * 1e3, "ms"},
          {"virt_sync_ms", v.sync_s * 1e3, "ms"}};
}

std::vector<Metric> per_layer(const std::vector<Rep>& untraced,
                              const std::vector<Rep>& traced) {
  // Layer times come from the traced repetition with the median host time,
  // so they add up against that repetition's own host_s.
  std::vector<const Rep*> order;
  for (const Rep& r : traced) order.push_back(&r);
  std::sort(order.begin(), order.end(),
            [](const Rep* a, const Rep* b) { return a->host_s < b->host_s; });
  const Rep& med = *order[(order.size() - 1) / 2];
  const LayerTimes& l = med.layers;
  const Virtual& v = untraced.front().v;
  const Rep& cp = traced.front();
  const auto per_call_ns = [&](Layer layer) {
    return ratio(l.self_s(layer) * 1e9, static_cast<double>(l.count(layer)));
  };
  const auto cp_frac = [&](double s) { return ratio(s, cp.cp_total_s); };
  const auto n = [](std::uint64_t x) { return static_cast<double>(x); };

  std::vector<Metric> m = {
      {"apps.self_s", l.self_s(Layer::kApps), "s"},
      {"core.hit_self_s", l.self_s(Layer::kHit), "s"},
      {"core.hit_ns", per_call_ns(Layer::kHit), "ns"},
      {"core.miss_self_s", l.self_s(Layer::kMiss), "s"},
      {"core.miss_ns", per_call_ns(Layer::kMiss), "ns"},
      {"core.sync_self_s", l.self_s(Layer::kSync), "s"},
      {"regc.barrier_self_s", l.self_s(Layer::kBarrier), "s"},
      {"rt.charge_self_s", l.self_s(Layer::kCharge), "s"},
      {"rt.other_self_s", l.self_s(Layer::kOther), "s"},
      {"rt.handoff_self_s", l.self_s(Layer::kHandoff), "s"},
      {"sim.spawn_s", med.host_s - l.attributed_s(), "s"},
      {"sim.ns_per_resume", ratio(l.self_s(Layer::kHandoff) * 1e9, n(v.resumes)), "ns"},
      {"sim.resumes", n(v.resumes), "count"},
      {"core.cache_hits", n(v.cache_hits), "count"},
      {"core.cache_misses", n(v.cache_misses), "count"},
      {"core.hit_ratio", ratio(n(v.cache_hits), n(v.cache_hits + v.cache_misses)),
       "frac"},
      {"core.prefetch_useful_ratio", ratio(n(v.prefetch_hits), n(v.prefetch_issued)),
       "frac"},
      {"regc.twins", n(v.twins), "count"},
      {"regc.diffs", n(v.diffs), "count"},
      {"regc.invalidations", n(v.invalidations), "count"},
      {"regc.update_set_bytes", n(v.update_set_bytes), "B"},
      {"regc.update_window_max", n(v.update_window_max), "count"},
      {"net.messages", n(v.net_messages), "count"},
      {"net.bytes", n(v.net_bytes), "B"},
      {"scl.retries", n(v.scl_retries), "count"},
      {"cp.compute_frac", cp_frac(cp.cp.compute_seconds), "frac"},
      {"cp.fetch_frac", cp_frac(cp.cp.demand_fetch_seconds), "frac"},
      {"cp.server_frac", cp_frac(cp.cp.server_service_seconds), "frac"},
      {"cp.network_frac", cp_frac(cp.cp.network_seconds), "frac"},
      {"cp.lock_frac", cp_frac(cp.cp.lock_wait_seconds), "frac"},
      {"cp.barrier_frac", cp_frac(cp.cp.barrier_wait_seconds), "frac"},
      {"cp.recovery_frac", cp_frac(cp.cp.recovery_seconds), "frac"},
      {"apps.gen_late_max_us", static_cast<double>(l.max_pacing_late) * 1e-3, "us"},
      {"trace.host_s", med.host_s, "s"},
      {"trace.layer_sum_frac", ratio(l.attributed_s(), med.host_s), "frac"},
      {"trace.overhead_frac",
       ratio(median_host_s(traced), median_host_s(timed_reps(untraced))) - 1.0, "frac"},
  };
  for (const Metric& k : kv_metrics(v)) m.push_back(k);
  return m;
}

void print_kv_points(const Virtual& v, std::uint64_t paced_calls, bool traced) {
  for (const KvPoint& pt : v.kv) {
    std::printf("kv point offered=%.0f/s achieved=%.1f/s sent=%llu completed=%llu "
                "failed=%llu samples=%llu p50=%.3fus p%.4g=%.3fus%s\n",
                pt.offered, pt.achieved, static_cast<unsigned long long>(pt.sent),
                static_cast<unsigned long long>(pt.completed),
                static_cast<unsigned long long>(pt.failed),
                static_cast<unsigned long long>(pt.samples), pt.p50_ns * 1e-3,
                pt.tail_pct, pt.tail_ns * 1e-3,
                pt.meets_limit() ? "" : "  (misses the limit)");
  }
  if (traced) {
    std::printf("kv sends observed at the call boundary: %llu\n",
                static_cast<unsigned long long>(paced_calls));
  }
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-26s %.9g %s\n", m.name.c_str(), m.value, m.unit);
  }
}

bool parse_options(int argc, char** argv, Options& o) {
  if (argc % 2 == 0) return false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      if (val[0] == '-') return false;
      o.seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val, &end);
      if (!(o.seconds > 0 && o.seconds <= 3600)) return false;
    } else if (key == "--trace") {
      const std::string t = val;
      if (t != "0" && t != "1") return false;
      o.trace = t == "1";
    } else {
      return false;
    }
    if (end != nullptr && (end == val || *end != '\0' || errno != 0)) return false;
  }
  return !o.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_options(argc, argv, o)) {
    std::fprintf(stderr, "usage: %s --workload <strided-hit|jacobi-512|kv-open> "
                         "--seed <n> --seconds <s> --trace <0|1>\n", argv[0]);
    return 2;
  }
  const auto w = std::find_if(workloads().begin(), workloads().end(),
                              [&](const Workload& x) { return o.workload == x.name; });
  if (w == workloads().end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }

  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  try {
    const double budget = o.trace ? o.seconds / 2 : o.seconds;
    untraced = repeat(*w, o, false, budget, 3);
    if (o.trace) traced = repeat(*w, o, true, budget, 2);
  } catch (const TraceTruncated& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  const double rss_mb = peak_rss_mb();

  // Output checks (references computed now, after the peak-RSS sample), then
  // determinism: every repetition, traced or not, must simulate the same run.
  const Virtual& first = untraced.front().v;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  for (std::vector<Rep>* set : {&untraced, &traced}) {
    for (Rep& r : *set) {
      std::string err = w->check(o, r);
      if (err.empty() && r.errors.empty() && !(r.v == first)) {
        err = set == &traced ? "traced virtual results differ from untraced ones"
                             : "virtual results differ between repetitions";
      }
      if (!err.empty()) r.errors.push_back(err);
      if (!r.errors.empty()) r.failed = r.attempted;
      attempted += r.attempted;
      failed += r.failed;
      errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    }
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());
  }

  std::printf("perfbench %s seed=%llu trace=%d: %zu untraced + %zu traced repetitions\n",
              w->name, static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
              untraced.size(), traced.size());
  for (const std::vector<Rep>* set : {&untraced, &traced}) {
    if (set->empty()) continue;
    std::printf("%s host_s per repetition:", set == &traced ? "traced" : "untraced");
    for (const Rep& r : *set) std::printf(" %.4f", r.host_s);
    std::printf("\n");
  }
  const std::vector<Metric> e2e = end_to_end(timed_reps(untraced), rss_mb);
  std::printf("end-to-end:\n");
  print_metrics(e2e);
  std::printf("  %-26s %.9g frac\n", "failed_frac",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  const bool is_kv = !first.kv.empty();
  if (is_kv) {
    print_metrics(kv_metrics(first));
    print_kv_points(first, o.trace ? traced.front().layers.paced_calls : 0, o.trace);
  }
  std::vector<Metric> layers;
  if (o.trace) {
    layers = per_layer(untraced, traced);
    std::printf("per-layer (traced):\n");
    print_metrics(layers);
  }

  const std::vector<Metric>& out = o.trace ? layers : e2e;
  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", out[i].name.c_str(),
                  std::isfinite(out[i].value) ? out[i].value : 0.0, out[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
