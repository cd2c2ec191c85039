//! Supervised crash recovery: run a workload with periodic checkpoints,
//! roll back and retry on failure.
//!
//! The paper's pipelined-operation claim (§VIII) only pays off in long
//! multi-problem runs — exactly the runs where an injected outage or a
//! watchdog trip used to force a full replay from `t = 0`. The supervisor
//! in this module bounds that cost: it checkpoints every
//! [`checkpoint_events`](RecoveryPolicy::checkpoint_events) deliveries,
//! detects failure (a [`SimError`], or quiescence without any completion
//! probe reporting), rolls back to the last good
//! [`Snapshot`](crate::snapshot::Snapshot), lets the
//! caller *heal* the engine (clear an outage, raise a budget), and retries
//! — with bounded attempts, escalating rollback depth when retries make no
//! progress, and an adaptively shortened checkpoint cadence so each
//! subsequent failure replays less work.
//!
//! Every recovery is visible: the replayed window is recorded as a
//! `RECOVERY` span on the [`Recorder`](crate::Recorder) among the engine's
//! [`Instruments`](crate::Instruments), if one is installed (it shows up in
//! Perfetto traces and `phase_totals` tables), and the returned [`RecoveryReport`]
//! quantifies attempts, replayed events/bit-time and overhead for the
//! `analysis` report tables and the bench `recovery` section.

use crate::engine::{Engine, RunStatus};
use orthotrees_obs::json::Json;
use orthotrees_vlsi::{BitTime, SimError};

/// How hard the supervisor tries before giving up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Total run attempts permitted (first run included). The supervisor
    /// returns the last failure once this many attempts have failed.
    pub max_attempts: u32,
    /// Initial checkpoint cadence, in delivered events.
    pub checkpoint_events: u64,
    /// Floor for the adaptive cadence: after each failure the cadence
    /// halves (cheaper replays) but never below this.
    pub min_checkpoint_events: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { max_attempts: 5, checkpoint_events: 256, min_checkpoint_events: 16 }
    }
}

impl RecoveryPolicy {
    /// A policy with the given attempt budget and default cadences.
    pub fn attempts(max_attempts: u32) -> Self {
        RecoveryPolicy { max_attempts, ..RecoveryPolicy::default() }
    }
}

/// What a supervised run cost: the structured outcome of
/// [`supervise_engine`] / [`supervise_steps`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Run attempts started (`rollbacks + 1`; 1 means no failure occurred).
    pub attempts: u32,
    /// Failures recovered from by rolling back to a checkpoint.
    pub rollbacks: u32,
    /// Checkpoints taken over the whole supervised run.
    pub checkpoints: u64,
    /// Events delivered again because of rollbacks (0 without failures).
    pub replayed_events: u64,
    /// Simulated bit-time replayed because of rollbacks.
    pub replayed_time: BitTime,
    /// Completion time of the (finally) successful run — identical to the
    /// uninterrupted run's, since replayed time is wall-clock waste, not
    /// simulated time.
    pub completion: BitTime,
    /// Checkpoint cadence in effect when the run finally succeeded (equal
    /// to the policy's initial cadence unless failures shortened it).
    pub final_checkpoint_events: u64,
}

impl RecoveryReport {
    /// Replayed bit-time as a percentage of the completed run — the price
    /// of crash recovery relative to a crash-free run.
    pub fn overhead_pct(&self) -> f64 {
        if self.completion == BitTime::ZERO {
            0.0
        } else {
            100.0 * self.replayed_time.get() as f64 / self.completion.get() as f64
        }
    }

    /// The report as a JSON object (the shape embedded in the bench
    /// summary's `recovery` section).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("attempts", Json::u64(u64::from(self.attempts))),
            ("rollbacks", Json::u64(u64::from(self.rollbacks))),
            ("checkpoints", Json::u64(self.checkpoints)),
            ("replayed_events", Json::u64(self.replayed_events)),
            ("replayed_bits", Json::u64(self.replayed_time.get())),
            ("completion_bits", Json::u64(self.completion.get())),
            ("overhead_pct", Json::f64(self.overhead_pct())),
            ("final_checkpoint_events", Json::u64(self.final_checkpoint_events)),
        ])
    }
}

/// How many recent checkpoints the supervisor keeps (besides the pristine
/// initial one) for escalating rollback.
const KEPT_CHECKPOINTS: usize = 8;

/// Runs `engine` to completion under supervision.
///
/// The engine runs in slices of the current checkpoint cadence, snapshotting
/// at every slice boundary. *Success* is quiescence with at least one node's
/// completion probe reporting. *Failure* is a [`SimError`] from the run
/// (watchdog trip, unrecoverable fault) or quiescence with no completion —
/// the signature of outage-suppressed bits. On failure the supervisor:
///
/// 1. marks the lost window as a `RECOVERY` span on the recorder (if any),
/// 2. rolls back to the newest kept checkpoint — one checkpoint *deeper*
///    for every consecutive failure that made no progress, so a checkpoint
///    corrupted by mid-outage state cannot wedge the retry loop,
/// 3. calls `heal(engine, failures_so_far)` so the caller can repair the
///    cause (clear the fault plan, raise the budget), and
/// 4. halves the checkpoint cadence (never below the policy floor) and
///    retries, up to [`RecoveryPolicy::max_attempts`] total attempts.
///
/// # Errors
///
/// Returns the last failure once the attempt budget is spent: the run's
/// [`SimError`], or [`SimError::NoCompletion`] for quiescence-without-
/// completion. A failed [`Engine::restore`] is returned immediately (the
/// engine is unusable).
pub fn supervise_engine(
    engine: &mut Engine,
    policy: &RecoveryPolicy,
    mut heal: impl FnMut(&mut Engine, u32),
) -> Result<RecoveryReport, SimError> {
    let mut cadence = policy.checkpoint_events.max(1);
    let mut checkpoints = vec![engine.snapshot()];
    if let Some(fl) = engine.instruments_mut().and_then(|i| i.flight.as_mut()) {
        fl.note_checkpoint(checkpoints[0].delivered_events());
    }
    let mut report = RecoveryReport {
        attempts: 1,
        rollbacks: 0,
        checkpoints: 0,
        replayed_events: 0,
        replayed_time: BitTime::ZERO,
        completion: BitTime::ZERO,
        final_checkpoint_events: cadence,
    };
    // Most events any failed attempt delivered: a failure at or below this
    // high-water mark made no progress and triggers a deeper rollback.
    let mut best_delivered = 0u64;

    loop {
        let len_at_attempt_start = checkpoints.len();
        let failure: SimError = loop {
            match engine.try_run_for(cadence) {
                Ok(RunStatus::Paused(_)) => {
                    checkpoints.push(engine.snapshot());
                    let ckpt_id = engine.delivered_events();
                    if let Some(fl) = engine.instruments_mut().and_then(|i| i.flight.as_mut()) {
                        fl.note_checkpoint(ckpt_id);
                    }
                    report.checkpoints += 1;
                    // Keep the pristine checkpoint plus a bounded recent
                    // window; long runs must not hoard every snapshot.
                    if checkpoints.len() > KEPT_CHECKPOINTS + 1 {
                        checkpoints.remove(1);
                    }
                }
                Ok(RunStatus::Quiescent(_)) => match engine.completion_time() {
                    Some(t) => {
                        report.completion = t;
                        report.final_checkpoint_events = cadence;
                        return Ok(report);
                    }
                    None => break SimError::NoCompletion { what: "supervised workload" },
                },
                Err(e) => break e,
            }
        };

        if report.attempts >= policy.max_attempts {
            return Err(failure);
        }

        // Escalate: a failure that beat the high-water mark earns a plain
        // last-checkpoint rollback; a *stuck* one (no new progress) first
        // discards every checkpoint the failed attempt pushed — they hold
        // the same poisoned state that just failed — and then one more, so
        // each stuck retry strictly drains toward the pristine checkpoint
        // instead of livelocking on its own fresh snapshots.
        let fail_delivered = engine.delivered_events();
        if fail_delivered > best_delivered {
            best_delivered = fail_delivered;
        } else {
            checkpoints.truncate(len_at_attempt_start.max(1));
            if checkpoints.len() > 1 {
                checkpoints.pop();
            }
        }
        let snap = checkpoints.last().expect("pristine checkpoint is never popped");

        let fail_now = engine.now();
        report.rollbacks += 1;
        report.attempts += 1;
        report.replayed_events += fail_delivered.saturating_sub(snap.delivered_events());
        report.replayed_time += BitTime::new(fail_now.get().saturating_sub(snap.now().get()));
        if let Some(inst) = engine.instruments_mut() {
            if let Some(rec) = &mut inst.recorder {
                rec.open("RECOVERY", snap.now());
                rec.close(fail_now.max(snap.now()));
                rec.count("recovery.rollbacks", 1);
            }
            if let Some(tel) = &mut inst.telemetry {
                tel.count("recovery.rollbacks", 1);
            }
        }
        // Every rollback leaves a post-mortem: what the engine was doing
        // when the attempt failed, before restore rewinds that state away.
        engine.flight_post_mortem("rollback", fail_now);

        engine.restore(snap)?;
        heal(engine, report.rollbacks);
        cadence = (cadence / 2).max(policy.min_checkpoint_events.max(1));
    }
}

/// Supervises a *step-structured* workload: word-level simulations whose
/// natural checkpoint boundary is a whole primitive or problem (one SORT of
/// a pipelined batch), not a single event.
///
/// `checkpoint` captures the state after a successful step; `restore` rolls
/// the state back (rolling the simulated clock back with it, so the
/// eventual successful run stays clock-identical to a crash-free one);
/// `elapsed` reads the simulated clock (for replay accounting); `step`
/// executes step `index` on retry `attempt` (0 on the first try — the
/// attempt number lets the caller advance a fault-epoch cursor so a retry
/// sees fresh fault draws rather than deterministically hitting the same
/// transient).
///
/// # Errors
///
/// Returns the step's error once one step has failed
/// [`RecoveryPolicy::max_attempts`] times, or any `restore` error
/// immediately.
pub fn supervise_steps<S, C>(
    state: &mut S,
    steps: usize,
    policy: &RecoveryPolicy,
    mut checkpoint: impl FnMut(&S) -> C,
    mut restore: impl FnMut(&mut S, &C) -> Result<(), SimError>,
    mut elapsed: impl FnMut(&S) -> BitTime,
    mut step: impl FnMut(&mut S, usize, u32) -> Result<(), SimError>,
) -> Result<RecoveryReport, SimError> {
    let mut report = RecoveryReport {
        attempts: 1,
        rollbacks: 0,
        checkpoints: 1,
        replayed_events: 0,
        replayed_time: BitTime::ZERO,
        completion: BitTime::ZERO,
        final_checkpoint_events: policy.checkpoint_events,
    };
    let mut last = checkpoint(state);
    let mut last_elapsed = elapsed(state);
    for index in 0..steps {
        let mut attempt = 0u32;
        loop {
            match step(state, index, attempt) {
                Ok(()) => {
                    last = checkpoint(state);
                    last_elapsed = elapsed(state);
                    report.checkpoints += 1;
                    break;
                }
                Err(e) => {
                    attempt += 1;
                    report.rollbacks += 1;
                    report.attempts += 1;
                    report.replayed_time +=
                        BitTime::new(elapsed(state).get().saturating_sub(last_elapsed.get()));
                    if attempt >= policy.max_attempts {
                        return Err(e);
                    }
                    restore(state, &last)?;
                }
            }
        }
    }
    report.completion = elapsed(state);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_bounded() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.max_attempts, 5);
        assert!(p.min_checkpoint_events <= p.checkpoint_events);
        assert_eq!(RecoveryPolicy::attempts(3).max_attempts, 3);
    }

    #[test]
    fn report_overhead_is_a_percentage() {
        let mut r = RecoveryReport {
            attempts: 2,
            rollbacks: 1,
            checkpoints: 4,
            replayed_events: 100,
            replayed_time: BitTime::new(25),
            completion: BitTime::new(100),
            final_checkpoint_events: 128,
        };
        assert!((r.overhead_pct() - 25.0).abs() < 1e-12);
        r.completion = BitTime::ZERO;
        assert_eq!(r.overhead_pct(), 0.0, "empty run has no overhead");
    }

    #[test]
    fn report_serializes_every_field() {
        let r = RecoveryReport {
            attempts: 3,
            rollbacks: 2,
            checkpoints: 7,
            replayed_events: 40,
            replayed_time: BitTime::new(9),
            completion: BitTime::new(90),
            final_checkpoint_events: 64,
        };
        let doc = r.to_json();
        assert_eq!(doc.get("attempts").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("replayed_bits").and_then(Json::as_u64), Some(9));
        assert_eq!(doc.get("completion_bits").and_then(Json::as_u64), Some(90));
        assert!(doc.get("overhead_pct").and_then(Json::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn supervise_steps_retries_and_accounts_replay() {
        // State: (clock, completed-steps). Step 1 fails twice before
        // succeeding; each attempt advances the clock by 10 before failing.
        let mut state = (0u64, 0usize);
        let mut failures_left = 2;
        let policy = RecoveryPolicy::attempts(4);
        let report = supervise_steps(
            &mut state,
            3,
            &policy,
            |s| *s,
            |s, c| {
                *s = *c;
                Ok(())
            },
            |s| BitTime::new(s.0),
            |s, i, _attempt| {
                s.0 += 10;
                if i == 1 && failures_left > 0 {
                    failures_left -= 1;
                    return Err(SimError::NoCompletion { what: "test step" });
                }
                s.1 += 1;
                Ok(())
            },
        )
        .expect("recovers within budget");
        assert_eq!(state.1, 3, "all steps completed");
        assert_eq!(state.0, 30, "clock identical to a crash-free run");
        assert_eq!(report.rollbacks, 2);
        assert_eq!(report.attempts, 3);
        assert_eq!(report.replayed_time, BitTime::new(20));
        assert_eq!(report.completion, BitTime::new(30));
    }

    #[test]
    fn supervise_steps_gives_up_after_attempt_budget() {
        let mut state = 0u64;
        let policy = RecoveryPolicy::attempts(3);
        let err = supervise_steps(
            &mut state,
            1,
            &policy,
            |s| *s,
            |s, c| {
                *s = *c;
                Ok(())
            },
            |s| BitTime::new(*s),
            |_, _, _| Err(SimError::NoCompletion { what: "always fails" }),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::NoCompletion { .. }));
    }
}
