// Call-boundary host-time attribution for one simulated run.
//
// BenchRuntime decorates a SamhitaRuntime through the public rt::Runtime
// interface. Untraced, it only stamps the host clock around parallel_run;
// every ThreadCtx call reaches the runtime undecorated. Traced, each compute
// thread sees a TracedCtx that stamps the host clock on entry to and exit
// from every runtime call, plus the start and end of the thread body.
//
// All fibers of a run share one OS thread (sim::CoopScheduler), so the
// stamps form a single time-ordered sequence and the interval between two
// consecutive stamps belongs to exactly one layer:
//   same fiber, call entry -> its exit   the call's layer (hit, miss, ...)
//   same fiber, otherwise                apps (kernel code between calls)
//   different fibers                     handoff (scheduler switch plus the
//                                        head and tail of the blocked calls)
// Only the spans before the first stamp and after the last one stay
// unattributed; they are the scheduler's fiber creation and teardown.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "core/metrics.hpp"
#include "core/samhita_runtime.hpp"
#include "rt/runtime.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

enum class Layer : std::uint8_t {
  kApps,     ///< kernel code between two runtime calls of one fiber
  kHit,      ///< view calls during which the thread's cache_misses held still
  kMiss,     ///< view calls that missed
  kSync,     ///< lock, unlock, cond_*, atomic_rmw
  kBarrier,  ///< barrier (diff flush, invalidation, placement)
  kCharge,   ///< charge_flops, charge_mem_ops
  kOther,    ///< alloc, free, sleep_until, begin/end_measurement
  kHandoff,  ///< intervals that end on another fiber than they began
};
inline constexpr std::size_t kLayerCount = 8;

/// Host time and call counts per layer, plus the open-loop generator's
/// lateness observed at sleep_until.
struct LayerTimes {
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::array<std::uint64_t, kLayerCount> calls{};
  std::uint64_t paced_calls = 0;         ///< sleep_until calls (open-loop sends)
  sam::SimDuration max_pacing_late = 0;  ///< largest now() - t at sleep_until(t)

  double self_s(Layer l) const {
    return static_cast<double>(self_ns[static_cast<std::size_t>(l)]) * 1e-9;
  }
  std::uint64_t count(Layer l) const { return calls[static_cast<std::size_t>(l)]; }
  double attributed_s() const;
  LayerTimes& operator+=(const LayerTimes& o);
};

class CallTracer {
 public:
  enum class Edge : std::uint8_t { kBodyBegin, kEnter, kExit, kBodyEnd };

  /// Records a boundary stamp on `fiber`; `call` names the layer of the call
  /// that a kExit edge closes and is ignored otherwise.
  void mark(std::uint32_t fiber, Edge edge, Layer call = Layer::kApps);
  void note_pacing(sam::SimTime now, sam::SimTime target);

  const LayerTimes& times() const { return times_; }

 private:
  LayerTimes times_;
  Clock::time_point last_{};
  std::uint32_t last_fiber_ = 0;
  Edge last_edge_ = Edge::kBodyEnd;
  bool have_last_ = false;
};

/// rt::Runtime decorator over a SamhitaRuntime; see the file comment.
class BenchRuntime final : public sam::rt::Runtime {
 public:
  BenchRuntime(sam::core::SamhitaRuntime& inner, bool traced)
      : inner_(inner), traced_(traced) {}

  const std::string& name() const override { return inner_.name(); }
  sam::rt::MutexId create_mutex() override { return inner_.create_mutex(); }
  sam::rt::CondId create_cond() override { return inner_.create_cond(); }
  sam::rt::BarrierId create_barrier(std::uint32_t parties) override {
    return inner_.create_barrier(parties);
  }
  void parallel_run(std::uint32_t nthreads,
                    const std::function<void(sam::rt::ThreadCtx&)>& body) override;
  sam::rt::ThreadReport report(std::uint32_t thread) const override {
    return inner_.report(thread);
  }
  std::uint32_t ran_threads() const override { return inner_.ran_threads(); }
  void read_global(sam::rt::Addr addr, std::byte* out, std::size_t bytes) const override {
    inner_.read_global(addr, out, bytes);
  }

  bool ran() const { return ran_; }
  Clock::time_point run_begin() const { return run_begin_; }
  Clock::time_point run_end() const { return run_end_; }
  const LayerTimes& layers() const { return tracer_.times(); }

 private:
  sam::core::SamhitaRuntime& inner_;
  bool traced_;
  bool ran_ = false;
  CallTracer tracer_;
  Clock::time_point run_begin_{};
  Clock::time_point run_end_{};
};

}  // namespace perfbench
