//! Typed abnormal-condition reporting for the execution engine.
//!
//! The engine used to `panic!` on a misbehaving policy or a pathological
//! model instance, killing the whole process. Every abnormal condition is
//! now a variant of [`EngineError`], so callers (experiment harnesses, the
//! CLI fault matrix, batch sweeps) can observe a failed run, report it, and
//! carry on with the next configuration.

use std::fmt;

use parapage_cache::Time;

/// Why an engine run was aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The policy emitted a grant with `duration == 0`. A zero-duration
    /// grant would re-enqueue the same grant request at the same timestamp
    /// forever, so the engine refuses it outright.
    ZeroDurationGrant {
        /// Name of the offending policy.
        policy: &'static str,
        /// Time of the offending grant request.
        at: Time,
    },
    /// Concurrently allocated height exceeded the enforced memory limit
    /// (from [`crate::EngineOpts::memory_limit`] or a
    /// [`parapage_core::FaultEvent::MemoryPressure`] event).
    MemoryLimitExceeded {
        /// Time of the grant that crossed the limit.
        at: Time,
        /// Concurrently allocated height after the offending grant.
        allocated: usize,
        /// The enforced limit, in pages.
        limit: usize,
    },
    /// Simulated time passed [`crate::EngineOpts::max_time`] with work
    /// still pending — the signature of a policy stalling forever.
    TimeCapExceeded {
        /// The first event time observed past the cap.
        at: Time,
        /// The configured cap.
        cap: Time,
    },
    /// Event-time arithmetic overflowed `u64` — a pathological miss
    /// penalty, latency-spike factor, or grant duration would have wrapped
    /// silently.
    TimeOverflow {
        /// The last valid time before the overflowing addition.
        at: Time,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EngineError::ZeroDurationGrant { policy, at } => {
                write!(f, "zero-duration grant from policy `{policy}` at t={at}")
            }
            EngineError::MemoryLimitExceeded {
                at,
                allocated,
                limit,
            } => write!(
                f,
                "memory limit exceeded at t={at}: {allocated} pages allocated, limit {limit}"
            ),
            EngineError::TimeCapExceeded { at, cap } => {
                write!(
                    f,
                    "simulated time {at} exceeded max_time={cap} (policy stalled?)"
                )
            }
            EngineError::TimeOverflow { at } => {
                write!(f, "event-time arithmetic overflowed u64 past t={at}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod error_path_tests {
    //! Every [`EngineError`] variant, produced by a *real engine run* and
    //! asserted as a typed value — not just constructed by hand. These
    //! pin the exact payload (policy name, time, limit) each abnormal
    //! condition carries, so downstream harnesses can match on it.

    use super::*;
    use crate::engine::{run_engine, run_engine_with, EngineOpts};
    use crate::fault::FaultPlan;
    use crate::trace::NullSink;
    use parapage_cache::{LruCache, PageId, ProcId};
    use parapage_core::{BoxAllocator, FaultEvent, Grant, ModelParams, StaticPartition};

    fn seqs(p: usize, len: usize, width: u64) -> Vec<Vec<PageId>> {
        (0..p)
            .map(|x| {
                (0..len)
                    .map(|i| PageId::namespaced(ProcId(x as u32), i as u64 % width))
                    .collect()
            })
            .collect()
    }

    /// A policy that always answers with one fixed grant.
    struct Fixed {
        height: usize,
        duration: u64,
    }
    impl BoxAllocator for Fixed {
        fn grant(&mut self, _x: ProcId, _now: Time) -> Grant {
            Grant {
                height: self.height,
                duration: self.duration,
            }
        }
        fn on_proc_finished(&mut self, _x: ProcId, _now: Time) {}
        fn name(&self) -> &'static str {
            "fixed"
        }
    }

    #[test]
    fn zero_duration_grant_carries_policy_name_and_time() {
        let params = ModelParams::new(1, 4, 10);
        let err = run_engine(
            &mut Fixed {
                height: 2,
                duration: 0,
            },
            &seqs(1, 5, 4),
            &params,
            &EngineOpts::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            EngineError::ZeroDurationGrant {
                policy: "fixed",
                at: 0
            }
        );
    }

    #[test]
    fn memory_limit_error_reports_overshoot_and_limit() {
        // StaticPartition allocates k/p = 8 per processor; a limit of 12
        // admits the first grant (8 <= 12) and rejects the second
        // (16 > 12), all at t=0.
        let params = ModelParams::new(2, 16, 10);
        let opts = EngineOpts {
            memory_limit: Some(12),
            ..Default::default()
        };
        let err = run_engine(
            &mut StaticPartition::new(&params),
            &seqs(2, 20, 4),
            &params,
            &opts,
        )
        .unwrap_err();
        assert_eq!(
            err,
            EngineError::MemoryLimitExceeded {
                at: 0,
                allocated: 16,
                limit: 12
            }
        );
    }

    #[test]
    fn memory_limit_error_reports_the_faulted_limit() {
        // No static limit: the MemoryPressure event activates enforcement
        // mid-run, and the error carries the *tightened* limit.
        let params = ModelParams::new(2, 16, 10);
        let plan = FaultPlan::new(vec![FaultEvent::MemoryPressure {
            at: 1,
            new_limit: 4,
        }]);
        let err = run_engine_with(
            &mut StaticPartition::new(&params),
            &seqs(2, 400, 12),
            &params,
            &EngineOpts::default(),
            &plan,
            |_| LruCache::new(0),
            &mut NullSink,
        )
        .unwrap_err();
        match err {
            EngineError::MemoryLimitExceeded {
                at,
                allocated,
                limit,
            } => {
                assert_eq!(limit, 4);
                assert!(at >= 1, "enforcement cannot precede the fault");
                assert!(allocated > 4);
            }
            other => panic!("expected MemoryLimitExceeded, got {other:?}"),
        }
    }

    #[test]
    fn time_cap_error_reports_cap_and_crossing_time() {
        // A real policy making real progress, against a cap shorter than
        // the workload: the run dies at the first grant request past it.
        let params = ModelParams::new(1, 4, 10);
        let opts = EngineOpts {
            max_time: 50,
            ..Default::default()
        };
        let err = run_engine(
            &mut StaticPartition::new(&params),
            &seqs(1, 1000, 16),
            &params,
            &opts,
        )
        .unwrap_err();
        match err {
            EngineError::TimeCapExceeded { at, cap } => {
                assert_eq!(cap, 50);
                assert!(at > 50);
            }
            other => panic!("expected TimeCapExceeded, got {other:?}"),
        }
    }

    #[test]
    fn time_overflow_error_reports_last_valid_time() {
        // A short first grant advances the clock to t=10; the second
        // grant's end time `10 + u64::MAX` would wrap. The cap is lifted
        // so the overflow check (not the time cap) is what fires.
        struct Escalating(bool);
        impl BoxAllocator for Escalating {
            fn grant(&mut self, _x: ProcId, _now: Time) -> Grant {
                let duration = if self.0 { u64::MAX } else { 10 };
                self.0 = true;
                Grant {
                    height: 1,
                    duration,
                }
            }
            fn on_proc_finished(&mut self, _x: ProcId, _now: Time) {}
            fn name(&self) -> &'static str {
                "escalating"
            }
        }
        let params = ModelParams::new(1, 4, 10);
        let opts = EngineOpts {
            max_time: u64::MAX,
            ..Default::default()
        };
        let err = run_engine(&mut Escalating(false), &seqs(1, 50, 4), &params, &opts).unwrap_err();
        assert_eq!(err, EngineError::TimeOverflow { at: 10 });
    }

    #[test]
    fn errors_are_data_not_fatal() {
        // The contract the typed errors exist for: a sweep observes a
        // failed configuration and carries on. Same workload, three
        // configurations, only the middle one fails.
        let params = ModelParams::new(2, 16, 10);
        let w = seqs(2, 50, 4);
        let outcomes: Vec<Result<_, EngineError>> = [None, Some(6), None]
            .into_iter()
            .map(|limit| {
                let opts = EngineOpts {
                    memory_limit: limit,
                    ..Default::default()
                };
                run_engine(&mut StaticPartition::new(&params), &w, &params, &opts)
            })
            .collect();
        assert!(outcomes[0].is_ok());
        assert!(matches!(
            outcomes[1],
            Err(EngineError::MemoryLimitExceeded { .. })
        ));
        assert!(outcomes[2].is_ok());
    }

    #[test]
    fn engine_error_works_as_a_boxed_error() {
        // EngineError implements std::error::Error, so it flows through
        // `?` in harnesses using Box<dyn Error>.
        let params = ModelParams::new(1, 4, 10);
        let run = || -> Result<u64, Box<dyn std::error::Error>> {
            let res = run_engine(
                &mut Fixed {
                    height: 2,
                    duration: 0,
                },
                &seqs(1, 5, 4),
                &params,
                &EngineOpts::default(),
            )?;
            Ok(res.makespan)
        };
        let err = run().unwrap_err();
        let engine_err = err.downcast_ref::<EngineError>().expect("downcasts back");
        assert!(matches!(engine_err, EngineError::ZeroDurationGrant { .. }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases: Vec<(EngineError, &str)> = vec![
            (
                EngineError::ZeroDurationGrant {
                    policy: "bad",
                    at: 7,
                },
                "zero-duration",
            ),
            (
                EngineError::MemoryLimitExceeded {
                    at: 3,
                    allocated: 40,
                    limit: 32,
                },
                "limit 32",
            ),
            (
                EngineError::TimeCapExceeded { at: 11, cap: 10 },
                "max_time=10",
            ),
            (EngineError::TimeOverflow { at: 9 }, "overflow"),
        ];
        for (e, needle) in cases {
            let s = e.to_string();
            assert!(s.contains(needle), "`{s}` missing `{needle}`");
        }
    }
}
