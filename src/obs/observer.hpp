// The Observer sink: one attachable bundle of TraceRecorder + MetricsRegistry.
//
// Every instrumented layer (SimKernel, CheckpointEngine, ReplicatedStore,
// RecoveryManager, the fault injectors, TortureHarness) takes an
// `Observer*` that defaults to null.  The disabled path is therefore a
// single pointer test per hook — no virtual dispatch, no allocation, no
// formatting — so observability costs nothing unless a sink is attached.
//
// Wiring: attach the Observer to a SimKernel first
// (`kernel.set_observer(&obs)`), which binds the trace clock to the
// kernel's *effective* time (now() + step_charge(), so events emitted while
// the scheduler clock is frozen inside a step still advance).  Layers
// without a kernel (ReplicatedStore) reuse the same Observer and inherit
// that clock.
//
// Determinism contract: everything an Observer records derives from
// simulated time and deterministic sequence numbers — never host time,
// host thread ids or pointers — and instrumented parallel sections must
// not emit from pool workers (they ledger sim-time charges and render
// events after the ordered join).  Exports are therefore byte-identical
// across runs and for any pool width, and attaching an Observer
// never perturbs the simulation it observes: hooks record, they never
// charge sim time themselves.
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ckpt::obs {

class Observer {
 public:
  /// The trace ring reports every eviction as the explicit
  /// `obs.trace_dropped` counter, so a capped soak trace is visibly capped
  /// rather than silently truncated.  The hook captures `this`, so the
  /// bundle is pinned (non-copyable, non-movable) — every consumer already
  /// holds it by pointer.
  Observer() {
    trace_.set_drop_hook([this] { metrics_.add("obs.trace_dropped"); });
  }
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  /// Span/instant/counter event log, stamped with sim-time + monotonic
  /// seq; exports deterministic Chrome trace-event JSON.
  [[nodiscard]] TraceRecorder& trace() { return trace_; }
  [[nodiscard]] const TraceRecorder& trace() const { return trace_; }
  /// Counters/gauges/histograms; snapshots are sorted and integer-only, so
  /// two identical runs serialize byte-identically.
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

  /// Bind the trace clock (normally done by kernel.set_observer, which
  /// also unbinds it on kernel destruction).  The clock must read
  /// *simulated* time; binding a host clock would break replay identity.
  void set_clock(TraceRecorder::Clock clock) { trace_.set_clock(std::move(clock)); }
  /// Current trace-clock reading (0 when no clock is bound).
  [[nodiscard]] SimTime now() const { return trace_.now(); }

  /// Drop recorded events and metric values (the clock binding stays).
  void reset() {
    trace_.clear();
    metrics_.clear();
  }

 private:
  TraceRecorder trace_;
  MetricsRegistry metrics_;
};

/// Null-tolerant tracer accessor for call sites holding an Observer*.
[[nodiscard]] inline TraceRecorder* tracer(Observer* observer) {
  return observer == nullptr ? nullptr : &observer->trace();
}

}  // namespace ckpt::obs
