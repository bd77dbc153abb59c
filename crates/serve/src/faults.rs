//! Deterministic fault injection for the serving path.
//!
//! Extends the benchmark runner's `FAIRLENS_FAULT` hook to the online
//! stack so a chaos run can prove the server survives executor death,
//! stuck predictions, and transient failures. Both parse the one spec
//! grammar in `fairlens_budget::parse_faults`, each with its own kinds
//! and field order. Specs are matched by **model id** and carry a
//! budget of `k` activations, decremented atomically, so a scripted run
//! knows exactly how many faults fire and can assert the breaker
//! re-closes once the budget is spent:
//!
//! * `panic:<model>:<k>` — the executor thread panics at dequeue (before
//!   the flush guard), killing it. Queued jobs lose their reply channel,
//!   handlers observe a dead executor (503), the breaker counts the
//!   failure, and the registry respawns the executor from the artifact
//!   on the next admitted request.
//! * `hang:<model>:<k>` — one flush stalls until the first job's budget
//!   is cancelled (the handler cancels it at its deadline), then every
//!   job in the flush is answered with a structured timeout.
//! * `flaky:<k>:<model>` — the first `k` flushes fail with an injected
//!   internal error (breaker fodder that stops on its own).
//! * `abort:<model>:<k>` — the **whole process** aborts
//!   (`std::process::abort`) when the k-th request for the model is
//!   dequeued. Unlike the budgeted kinds this is a countdown: the first
//!   `k - 1` requests pass through untouched and the fault fires exactly
//!   once, which is what the fleet supervisor's respawn path needs — a
//!   worker that dies deterministically mid-storm, and whose respawned
//!   incarnation (launched without the fault) stays up.
//!
//! Unlike the bench hook this is not `cfg`-gated: the serving hot path
//! pays one `Vec::is_empty` check per flush, and keeping it always
//! compiled lets integration tests and the chaos smoke inject faults
//! without feature plumbing. The hook only activates when the
//! `FAIRLENS_FAULT` environment variable (or an explicit config) names
//! a model.

use std::sync::atomic::{AtomicU32, Ordering};

/// What an activated fault does to the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeFaultKind {
    /// Kill the executor thread (exercises supervision + respawn).
    Panic,
    /// Stall one flush until the client's deadline cancels it.
    Hang,
    /// Fail one flush with an injected internal error.
    Flaky,
    /// Abort the whole process at the k-th request (countdown, fires once).
    Abort,
}

#[derive(Debug)]
struct FaultEntry {
    kind: ServeFaultKind,
    model: String,
    remaining: AtomicU32,
}

/// A parsed fault plan with per-spec activation budgets.
#[derive(Debug, Default)]
pub struct ServeFaults {
    specs: Vec<FaultEntry>,
}

impl ServeFaults {
    /// No faults (production default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Parse a `;`-separated spec list: `panic:<model>:<k>`,
    /// `hang:<model>:<k>`, `flaky:<k>:<model>`, `abort:<model>:<k>`.
    pub fn parse(s: &str) -> Result<Self, String> {
        Ok(Self { specs: fairlens_budget::parse_faults(s, parse_entry)? })
    }

    /// Faults from the `FAIRLENS_FAULT` environment variable. Malformed
    /// specs abort the process — a chaos-run configuration error must be
    /// caught before any request is served.
    pub fn from_env() -> Self {
        Self { specs: fairlens_budget::faults_from_env(parse_entry) }
    }

    /// Whether any spec exists at all (hot-path early-out).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Consume one activation of `kind` for `model`, if any budget is
    /// left. Each call burns at most one activation. Budgeted kinds
    /// (panic/hang/flaky) activate on each of the first `k` calls;
    /// `abort` is a countdown and activates only on the call that takes
    /// the budget from 1 to 0 — i.e. exactly the k-th matching request.
    pub fn take(&self, model: &str, kind: ServeFaultKind) -> bool {
        self.specs
            .iter()
            .filter(|e| e.kind == kind && e.model == model)
            .any(|e| {
                match e
                    .remaining
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                {
                    Ok(prev) => !matches!(e.kind, ServeFaultKind::Abort) || prev == 1,
                    Err(_) => false,
                }
            })
    }
}

/// One serve fault spec, already split into its fields.
fn parse_entry(part: &str, fields: &[&str]) -> Result<FaultEntry, String> {
    let (kind, model, k) = match fields {
        ["panic", model, k] => (ServeFaultKind::Panic, *model, *k),
        ["hang", model, k] => (ServeFaultKind::Hang, *model, *k),
        ["flaky", k, model] => (ServeFaultKind::Flaky, *model, *k),
        ["abort", model, k] => (ServeFaultKind::Abort, *model, *k),
        _ => {
            return Err(format!(
                "bad fault spec {part:?} (want panic:<model>:<k>, \
                 hang:<model>:<k>, flaky:<k>:<model> or abort:<model>:<k>)"
            ))
        }
    };
    let k: u32 = k.parse().map_err(|_| format!("bad activation count {k:?} in {part:?}"))?;
    Ok(FaultEntry { kind, model: model.to_string(), remaining: AtomicU32::new(k) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_three_kinds() {
        let f = ServeFaults::parse("panic:german-lr:1; hang:german-lr:2;flaky:3:adult-feld").unwrap();
        assert!(!f.is_empty());
        assert!(f.take("german-lr", ServeFaultKind::Panic));
        assert!(!f.take("german-lr", ServeFaultKind::Panic), "budget of 1 is spent");
        assert!(f.take("german-lr", ServeFaultKind::Hang));
        assert!(f.take("german-lr", ServeFaultKind::Hang));
        assert!(!f.take("german-lr", ServeFaultKind::Hang));
        for _ in 0..3 {
            assert!(f.take("adult-feld", ServeFaultKind::Flaky));
        }
        assert!(!f.take("adult-feld", ServeFaultKind::Flaky));
    }

    #[test]
    fn abort_counts_down_and_fires_exactly_once() {
        let f = ServeFaults::parse("abort:german-lr:3").unwrap();
        assert!(!f.take("german-lr", ServeFaultKind::Abort), "request 1 passes");
        assert!(!f.take("german-lr", ServeFaultKind::Abort), "request 2 passes");
        assert!(f.take("german-lr", ServeFaultKind::Abort), "fires on the 3rd");
        assert!(!f.take("german-lr", ServeFaultKind::Abort), "spent");
        // k = 0 never fires.
        let f = ServeFaults::parse("abort:german-lr:0").unwrap();
        assert!(!f.take("german-lr", ServeFaultKind::Abort));
    }

    #[test]
    fn non_matching_models_are_untouched() {
        let f = ServeFaults::parse("panic:german-lr:5").unwrap();
        assert!(!f.take("other-model", ServeFaultKind::Panic));
        assert!(!f.take("german-lr", ServeFaultKind::Flaky));
    }

    #[test]
    fn empty_and_malformed_specs() {
        assert!(ServeFaults::parse("").unwrap().is_empty());
        assert!(ServeFaults::parse(" ; ").unwrap().is_empty());
        assert!(ServeFaults::parse("panic:x").is_err());
        assert!(ServeFaults::parse("flaky:x:2").is_err(), "count must be numeric");
        assert!(ServeFaults::parse("explode:x:1").is_err());
    }
}
