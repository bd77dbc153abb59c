//! The per-worker supervision state machine.
//!
//! Pure and clock-injected: every transition takes `now: Instant` from
//! the caller, so the probe loop feeds it `Instant::now()` while the
//! unit tests advance a plain `Instant` by hand and walk the backoff
//! schedule deterministically. The machine never touches
//! sockets or processes — the probe loop owns those and reports what it
//! saw.
//!
//! ```text
//!            announce/probe-ok                probe-fail × fail_threshold
//! Starting ───────────────────▶ Up ─────────────────────────────────┐
//!    ▲                          │  process exit                     │
//!    │ respawn (backoff due)    ▼                                   ▼
//!    └───────────────── Restarting{until} ◀─────────────────────────┘
//!                               │ attempt > restart_budget
//!                               ▼
//!                              Dead   (leaves the placement domain)
//! ```
//!
//! Hysteresis runs both ways: `fail_threshold` *consecutive* probe
//! failures are needed to declare a wedged worker down (one dropped
//! probe under load must not trigger a restart storm), and
//! `ok_threshold` consecutive healthy probes are needed before the
//! backoff attempt counter resets (a worker that boots, serves two
//! requests and dies again must keep escalating its backoff, not start
//! over — that is what eventually exhausts the restart budget of a
//! crash-looping worker and marks it dead).

use std::time::{Duration, Instant};

/// Tunables for one worker's supervision.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Consecutive probe failures before a live-but-wedged worker is
    /// killed and restarted.
    pub fail_threshold: u32,
    /// Consecutive healthy probes before the backoff attempt counter
    /// resets (the worker has proven itself stable).
    pub ok_threshold: u32,
    /// First restart delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on the restart delay.
    pub backoff_cap: Duration,
    /// Restarts granted before the worker is marked dead. The budget
    /// only replenishes after `ok_threshold` healthy probes.
    pub restart_budget: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            fail_threshold: 3,
            ok_threshold: 3,
            backoff_base: Duration::from_millis(200),
            backoff_cap: Duration::from_secs(5),
            restart_budget: 5,
        }
    }
}

/// Where one worker is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Spawned, waiting for the listening announce / first healthy probe.
    Starting,
    /// Announced and probing healthy: receives routed traffic.
    Up,
    /// Crashed or wedged; waiting out the backoff before a respawn.
    Restarting {
        /// When the respawn becomes due.
        until: Instant,
    },
    /// Restart budget exhausted; out of the placement domain for good.
    Dead,
}

impl Phase {
    /// Stable lowercase name for health output and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Starting => "starting",
            Phase::Up => "up",
            Phase::Restarting { .. } => "restarting",
            Phase::Dead => "dead",
        }
    }
}

/// What the probe loop must do after reporting an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Nothing; keep probing.
    None,
    /// Kill the process (if still running) and respawn once the backoff
    /// elapses ([`WorkerSupervisor::restart_due`]).
    Restart {
        /// The backoff delay that was scheduled.
        after: Duration,
    },
    /// Budget exhausted: reap the process and rebalance placement.
    Dead,
}

/// The supervision state for one worker slot.
#[derive(Debug)]
pub struct WorkerSupervisor {
    cfg: SupervisorConfig,
    phase: Phase,
    consecutive_fails: u32,
    consecutive_oks: u32,
    /// Restarts consumed since the worker last proved stable.
    attempt: u32,
}

impl WorkerSupervisor {
    /// A freshly spawned worker, waiting to announce.
    pub fn new(cfg: SupervisorConfig) -> Self {
        Self { cfg, phase: Phase::Starting, consecutive_fails: 0, consecutive_oks: 0, attempt: 0 }
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Whether traffic may be routed here (announced and probing healthy).
    pub fn routable(&self) -> bool {
        self.phase == Phase::Up
    }

    /// Whether the worker still participates in placement. Restarting
    /// workers stay in the domain — their shards fail over to the other
    /// replica without moving anyone else — only death rebalances.
    pub fn in_placement(&self) -> bool {
        self.phase != Phase::Dead
    }

    /// Restarts consumed since the worker last proved stable (test hook).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The probe loop respawned the process.
    pub fn on_spawned(&mut self) {
        self.phase = Phase::Starting;
        self.consecutive_fails = 0;
        self.consecutive_oks = 0;
    }

    /// A healthy `/healthz` probe (or the listening announce).
    pub fn on_probe_ok(&mut self) {
        if matches!(self.phase, Phase::Restarting { .. } | Phase::Dead) {
            return; // stale probe of a process already condemned
        }
        self.phase = Phase::Up;
        self.consecutive_fails = 0;
        self.consecutive_oks = self.consecutive_oks.saturating_add(1);
        if self.consecutive_oks >= self.cfg.ok_threshold {
            self.attempt = 0; // proven stable: full restart budget again
        }
    }

    /// A failed or timed-out probe of a live process. Only
    /// `fail_threshold` *consecutive* failures condemn the worker.
    pub fn on_probe_fail(&mut self, now: Instant) -> Decision {
        if matches!(self.phase, Phase::Restarting { .. } | Phase::Dead) {
            return Decision::None;
        }
        self.consecutive_oks = 0;
        self.consecutive_fails += 1;
        if self.consecutive_fails >= self.cfg.fail_threshold {
            self.schedule_restart(now)
        } else {
            Decision::None
        }
    }

    /// The process exited (crash, abort, kill): hard evidence, no
    /// hysteresis.
    pub fn on_exit(&mut self, now: Instant) -> Decision {
        match self.phase {
            // Already condemned (the wedged-worker kill lands here) or
            // already written off.
            Phase::Restarting { .. } | Phase::Dead => Decision::None,
            _ => self.schedule_restart(now),
        }
    }

    /// Whether a scheduled restart's backoff has elapsed.
    pub fn restart_due(&self, now: Instant) -> bool {
        matches!(self.phase, Phase::Restarting { until } if now >= until)
    }

    fn schedule_restart(&mut self, now: Instant) -> Decision {
        if self.attempt >= self.cfg.restart_budget {
            self.phase = Phase::Dead;
            return Decision::Dead;
        }
        let after = backoff(self.cfg.backoff_base, self.cfg.backoff_cap, self.attempt);
        self.attempt += 1;
        self.consecutive_fails = 0;
        self.consecutive_oks = 0;
        self.phase = Phase::Restarting { until: now + after };
        Decision::Restart { after }
    }
}

/// `base · 2^attempt`, capped. The shift saturates far past any real
/// cap, so a long crash loop cannot overflow the multiply.
fn backoff(base: Duration, cap: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.min(20)).min(cap)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::placement;

    fn cfg() -> SupervisorConfig {
        SupervisorConfig {
            fail_threshold: 3,
            ok_threshold: 3,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_millis(400),
            restart_budget: 3,
        }
    }

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let mut now = Instant::now();
        let mut sup = WorkerSupervisor::new(cfg());
        sup.on_probe_ok();
        let mut seen = Vec::new();
        for _ in 0..3 {
            match sup.on_exit(now) {
                Decision::Restart { after } => seen.push(after),
                other => panic!("expected a restart, got {other:?}"),
            }
            // Not due until the full backoff has elapsed.
            now += Duration::from_millis(1);
            assert!(!sup.restart_due(now));
            now += *seen.last().unwrap();
            assert!(sup.restart_due(now));
            sup.on_spawned();
        }
        assert_eq!(
            seen,
            vec![
                Duration::from_millis(100),
                Duration::from_millis(200),
                Duration::from_millis(400), // capped
            ]
        );
    }

    #[test]
    fn probe_flapping_needs_consecutive_failures() {
        let now = Instant::now();
        let mut sup = WorkerSupervisor::new(cfg());
        sup.on_probe_ok();
        // Two failures, then a success: the streak resets, no restart.
        assert_eq!(sup.on_probe_fail(now), Decision::None);
        assert_eq!(sup.on_probe_fail(now), Decision::None);
        sup.on_probe_ok();
        assert!(sup.routable(), "a flapping probe must not condemn the worker");
        // Three consecutive failures do.
        assert_eq!(sup.on_probe_fail(now), Decision::None);
        assert_eq!(sup.on_probe_fail(now), Decision::None);
        assert_eq!(
            sup.on_probe_fail(now),
            Decision::Restart { after: Duration::from_millis(100) }
        );
        assert!(!sup.routable());
        // Probes of the condemned incarnation are stale: ignored.
        sup.on_probe_ok();
        assert!(!sup.routable());
    }

    #[test]
    fn stability_resets_the_attempt_counter() {
        let now = Instant::now();
        let mut sup = WorkerSupervisor::new(cfg());
        sup.on_probe_ok();
        assert!(matches!(sup.on_exit(now), Decision::Restart { .. }));
        sup.on_spawned();
        assert_eq!(sup.attempt(), 1);
        // Two healthy probes are not enough (ok_threshold = 3)...
        sup.on_probe_ok();
        sup.on_probe_ok();
        assert_eq!(sup.attempt(), 1);
        // ...the third proves stability and restores the full budget.
        sup.on_probe_ok();
        assert_eq!(sup.attempt(), 0);
        assert_eq!(
            sup.on_exit(now),
            Decision::Restart { after: Duration::from_millis(100) },
            "backoff restarts from the base after a stable stretch"
        );
    }

    #[test]
    fn budget_exhaustion_marks_dead_and_rebalances_placement() {
        let mut now = Instant::now();
        let mut sups: Vec<WorkerSupervisor> =
            (0..3).map(|_| WorkerSupervisor::new(cfg())).collect();
        for s in &mut sups {
            s.on_probe_ok();
        }
        let domain: Vec<usize> =
            (0..3).filter(|&i| sups[i].in_placement()).collect();
        let before = placement::replicas("german-lr", &domain, 2);
        let victim = before[0];

        // Crash-loop the primary straight through its budget: each
        // incarnation dies before ok_threshold healthy probes, so the
        // attempt counter never resets.
        for _ in 0..cfg().restart_budget {
            assert!(matches!(
                sups[victim].on_exit(now),
                Decision::Restart { .. }
            ));
            now += Duration::from_secs(1);
            assert!(sups[victim].restart_due(now));
            sups[victim].on_spawned();
            sups[victim].on_probe_ok(); // one probe, then dead again
        }
        assert_eq!(sups[victim].on_exit(now), Decision::Dead);
        assert_eq!(sups[victim].phase(), Phase::Dead);
        assert!(!sups[victim].in_placement());

        // Placement rebalances: the dead worker leaves the domain, the
        // surviving replica is promoted, and a fresh worker fills in.
        let domain: Vec<usize> =
            (0..3).filter(|&i| sups[i].in_placement()).collect();
        let after = placement::replicas("german-lr", &domain, 2);
        assert!(!after.contains(&victim));
        assert_eq!(after[0], before[1], "surviving replica promoted to primary");
        assert_eq!(after.len(), 2, "replication restored from the remaining workers");
    }

    #[test]
    fn starting_worker_counts_probe_failures_too() {
        let now = Instant::now();
        let mut sup = WorkerSupervisor::new(cfg());
        assert_eq!(sup.phase(), Phase::Starting);
        assert!(!sup.routable());
        for _ in 0..2 {
            assert_eq!(sup.on_probe_fail(now), Decision::None);
        }
        assert!(matches!(sup.on_probe_fail(now), Decision::Restart { .. }));
    }
}
