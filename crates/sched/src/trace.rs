//! The engine's conformance trace stream.
//!
//! Every semantically meaningful step of an engine run — a grant being
//! issued, a window of requests being served, a fault being delivered, a
//! processor completing — can be emitted as a [`TraceEvent`] through a
//! caller-supplied [`TraceSink`]. The stream is the substrate of the
//! conformance oracle in `parapage-conform`: streaming checkers replay the
//! paper's structural invariants (instantaneous memory ≤ budget, box
//! geometry, phase halving) over it, a naive reference simulator is
//! cross-checked against it event-for-event, and byte-identical replay of
//! two runs certifies determinism.
//!
//! Tracing is zero-cost when disabled: the default entry points pass
//! [`NullSink`], whose `emit` is an inlined no-op, so the event
//! constructions are dead code the optimizer removes. The general
//! runner ([`crate::engine::run_engine_with`]) is generic
//! over the sink, so enabling tracing costs one vector push per event and
//! nothing else.
//!
//! Events are emitted in the exact order the engine makes its decisions:
//! global time order, with fault deliveries before any decision at their
//! timestamp and completion notifications before grant decisions at equal
//! times (mirroring the engine's event heap ordering). Two runs of the same
//! `(workload, policy, seed, FaultPlan)` therefore produce identical
//! streams, which is itself one of the checked invariants.

use parapage_cache::{ProcId, Time};
use parapage_core::FaultEvent;

/// One step of an engine run, as observed on the trace stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The policy issued a grant (possibly a stall, `height == 0`).
    Grant {
        /// The granted processor.
        proc: ProcId,
        /// Decision time.
        at: Time,
        /// Granted cache height (0 = stall).
        height: usize,
        /// Grant duration.
        duration: Time,
        /// When the engine's peak-memory accounting releases the pages:
        /// the grant's end, or the completion instant when the processor
        /// finishes mid-grant. Always `at` for stalls.
        release_at: Time,
    },
    /// The window of requests served inside the grant just issued.
    Window {
        /// The serving processor.
        proc: ProcId,
        /// Window start (= the grant's decision time).
        at: Time,
        /// Requests served (hits + fetches).
        served: u64,
        /// Requests served from cache.
        hits: u64,
        /// Requests fetched from memory (the *fetch* events of the model;
        /// each costs `s` — or `s × factor` under a latency spike).
        fetches: u64,
        /// Pages evicted while serving the window, including evictions
        /// forced by the box boundary itself (cache shrink on resize, or a
        /// full flush under compartmentalized semantics).
        evictions: u64,
        /// Time consumed serving (`≤` the grant's duration).
        time_used: Time,
        /// Whether the processor's sequence completed in this window.
        finished: bool,
    },
    /// The engine deferred a grant request because the processor lies in an
    /// injected stall window (no grant was issued; the request re-fires at
    /// `until`).
    StallDeferred {
        /// The frozen processor.
        proc: ProcId,
        /// Time of the deferred request.
        at: Time,
        /// End of the stall window (when the request re-fires).
        until: Time,
    },
    /// A fault event was delivered to the policy.
    Fault {
        /// Delivery time (the first decision point at-or-after the fault's
        /// own timestamp).
        at: Time,
        /// The injected fault.
        event: FaultEvent,
    },
    /// A processor served its last request.
    Completion {
        /// The finished processor.
        proc: ProcId,
        /// Completion time.
        at: Time,
    },
    /// A phase transition of a phase-structured policy (DET-PAR). The
    /// engine itself is phase-agnostic; this marker is synthesized into the
    /// stream by the conformance harness from the policy's phase log so
    /// that streaming checkers know the base height in force at any time.
    Phase {
        /// Phase start time.
        at: Time,
        /// Base height `b = k/p_Q` of the phase.
        base_height: usize,
        /// Roster size (active processors at phase start).
        roster_len: usize,
    },
}

impl TraceEvent {
    /// The simulated time the event refers to.
    pub fn at(&self) -> Time {
        match *self {
            TraceEvent::Grant { at, .. }
            | TraceEvent::Window { at, .. }
            | TraceEvent::StallDeferred { at, .. }
            | TraceEvent::Fault { at, .. }
            | TraceEvent::Completion { at, .. }
            | TraceEvent::Phase { at, .. } => at,
        }
    }
}

/// A consumer of the engine's trace stream.
///
/// Implementations must not assume anything beyond the documented event
/// order; in particular they must tolerate multiple events at equal
/// timestamps.
pub trait TraceSink {
    /// Receives one event, in emission order.
    fn emit(&mut self, event: &TraceEvent);
}

/// The disabled sink: every emission is an inlined no-op, so untraced runs
/// pay nothing for the instrumentation.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn emit(&mut self, _event: &TraceEvent) {}
}

/// A sink that records the whole stream in memory, for checkers and
/// replay/differential comparison.
#[derive(Clone, Debug, Default)]
pub struct TraceRecorder {
    events: Vec<TraceEvent>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the recorder, yielding the events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for TraceRecorder {
    fn emit(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_keeps_emission_order() {
        let mut rec = TraceRecorder::new();
        let a = TraceEvent::Completion {
            proc: ProcId(0),
            at: 5,
        };
        let b = TraceEvent::Grant {
            proc: ProcId(1),
            at: 5,
            height: 4,
            duration: 40,
            release_at: 45,
        };
        rec.emit(&a);
        rec.emit(&b);
        assert_eq!(rec.events(), &[a, b]);
        assert_eq!(rec.len(), 2);
        assert!(!rec.is_empty());
    }

    #[test]
    fn event_times_are_exposed() {
        let ev = TraceEvent::Fault {
            at: 7,
            event: FaultEvent::LatencySpike {
                from: 7,
                until: 9,
                factor: 2,
            },
        };
        assert_eq!(ev.at(), 7);
        assert_eq!(
            TraceEvent::Phase {
                at: 11,
                base_height: 8,
                roster_len: 4
            }
            .at(),
            11
        );
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut sink = NullSink;
        sink.emit(&TraceEvent::Completion {
            proc: ProcId(3),
            at: 0,
        });
    }
}
