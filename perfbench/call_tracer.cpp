#include "call_tracer.hpp"

#include <algorithm>
#include <type_traits>

namespace perfbench {

namespace {

using sam::rt::Addr;
using Edge = CallTracer::Edge;

/// ThreadCtx decorator: stamps every runtime call. Pure getters (index,
/// nthreads, now, view_granularity) pass through unstamped, so their cost
/// counts as kernel time.
class TracedCtx final : public sam::rt::ThreadCtx {
  // Defined ahead of the overrides: a deduced return type must be seen
  // before its first use.
  template <typename F>
  auto timed(Layer layer, F&& call) {
    tracer_.mark(fiber_, Edge::kEnter);
    if constexpr (std::is_void_v<decltype(call())>) {
      call();
      tracer_.mark(fiber_, Edge::kExit, layer);
    } else {
      auto out = call();
      tracer_.mark(fiber_, Edge::kExit, layer);
      return out;
    }
  }

  /// A view call is a miss when it moved this thread's miss counter.
  template <typename F>
  auto viewed(F&& call) {
    tracer_.mark(fiber_, Edge::kEnter);
    const std::uint64_t misses = metrics_.cache_misses;
    auto out = call();
    tracer_.mark(fiber_, Edge::kExit,
                 metrics_.cache_misses != misses ? Layer::kMiss : Layer::kHit);
    return out;
  }

 public:
  TracedCtx(sam::rt::ThreadCtx& inner, CallTracer& tracer,
            const sam::core::Metrics& metrics)
      : inner_(inner), tracer_(tracer), metrics_(metrics), fiber_(inner.index()) {}

  std::uint32_t index() const override { return inner_.index(); }
  std::uint32_t nthreads() const override { return inner_.nthreads(); }
  sam::SimTime now() const override { return inner_.now(); }
  std::size_t view_granularity() const override { return inner_.view_granularity(); }

  Addr alloc(std::size_t bytes) override {
    return timed(Layer::kOther, [&] { return inner_.alloc(bytes); });
  }
  Addr alloc_shared(std::size_t bytes) override {
    return timed(Layer::kOther, [&] { return inner_.alloc_shared(bytes); });
  }
  void free(Addr addr) override {
    timed(Layer::kOther, [&] { inner_.free(addr); });
  }

  std::span<const std::byte> read_view(Addr addr, std::size_t bytes) override {
    return viewed([&] { return inner_.read_view(addr, bytes); });
  }
  std::span<std::byte> write_view(Addr addr, std::size_t bytes) override {
    return viewed([&] { return inner_.write_view(addr, bytes); });
  }

  void charge_flops(double flops) override {
    timed(Layer::kCharge, [&] { inner_.charge_flops(flops); });
  }
  void charge_mem_ops(std::uint64_t loads, std::uint64_t stores) override {
    timed(Layer::kCharge, [&] { inner_.charge_mem_ops(loads, stores); });
  }

  void lock(sam::rt::MutexId m) override {
    timed(Layer::kSync, [&] { inner_.lock(m); });
  }
  void unlock(sam::rt::MutexId m) override {
    timed(Layer::kSync, [&] { inner_.unlock(m); });
  }
  void cond_wait(sam::rt::CondId c, sam::rt::MutexId m) override {
    timed(Layer::kSync, [&] { inner_.cond_wait(c, m); });
  }
  void cond_signal(sam::rt::CondId c) override {
    timed(Layer::kSync, [&] { inner_.cond_signal(c); });
  }
  void cond_broadcast(sam::rt::CondId c) override {
    timed(Layer::kSync, [&] { inner_.cond_broadcast(c); });
  }
  void barrier(sam::rt::BarrierId b) override {
    timed(Layer::kBarrier, [&] { inner_.barrier(b); });
  }
  std::uint64_t atomic_rmw(Addr addr, std::size_t width, sam::rt::RmwOp op,
                           std::uint64_t a, std::uint64_t b) override {
    return timed(Layer::kSync, [&] { return inner_.atomic_rmw(addr, width, op, a, b); });
  }

  void sleep_until(sam::SimTime t) override {
    tracer_.note_pacing(inner_.now(), t);
    timed(Layer::kOther, [&] { inner_.sleep_until(t); });
  }
  void begin_measurement() override {
    timed(Layer::kOther, [&] { inner_.begin_measurement(); });
  }
  void end_measurement() override {
    timed(Layer::kOther, [&] { inner_.end_measurement(); });
  }

 private:
  sam::rt::ThreadCtx& inner_;
  CallTracer& tracer_;
  const sam::core::Metrics& metrics_;
  std::uint32_t fiber_;
};

}  // namespace

double LayerTimes::attributed_s() const {
  std::int64_t ns = 0;
  for (const std::int64_t v : self_ns) ns += v;
  return static_cast<double>(ns) * 1e-9;
}

LayerTimes& LayerTimes::operator+=(const LayerTimes& o) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    self_ns[i] += o.self_ns[i];
    calls[i] += o.calls[i];
  }
  paced_calls += o.paced_calls;
  max_pacing_late = std::max(max_pacing_late, o.max_pacing_late);
  return *this;
}

void CallTracer::mark(std::uint32_t fiber, Edge edge, Layer call) {
  const Clock::time_point now = Clock::now();
  if (have_last_) {
    Layer to = Layer::kApps;
    if (fiber != last_fiber_) {
      to = Layer::kHandoff;
    } else if (last_edge_ == Edge::kEnter) {
      to = call;
    }
    times_.self_ns[static_cast<std::size_t>(to)] += (now - last_).count();
  }
  if (edge == Edge::kExit) ++times_.calls[static_cast<std::size_t>(call)];
  have_last_ = true;
  last_ = now;
  last_fiber_ = fiber;
  last_edge_ = edge;
}

void CallTracer::note_pacing(sam::SimTime now, sam::SimTime target) {
  ++times_.paced_calls;
  if (now > target) {
    times_.max_pacing_late = std::max(times_.max_pacing_late, now - target);
  }
}

void BenchRuntime::parallel_run(std::uint32_t nthreads,
                                const std::function<void(sam::rt::ThreadCtx&)>& body) {
  ran_ = true;
  run_begin_ = Clock::now();
  if (!traced_) {
    inner_.parallel_run(nthreads, body);
  } else {
    inner_.parallel_run(nthreads, [&](sam::rt::ThreadCtx& ctx) {
      TracedCtx traced(ctx, tracer_, inner_.metrics(ctx.index()));
      tracer_.mark(ctx.index(), Edge::kBodyBegin);
      body(traced);
      tracer_.mark(ctx.index(), Edge::kBodyEnd);
    });
  }
  run_end_ = Clock::now();
}

}  // namespace perfbench
