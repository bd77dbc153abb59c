//! Cooperative per-cell execution budgets.
//!
//! The benchmark runner gives every (approach × dataset × fold) cell a
//! [`Budget`] — a shared cancellation flag that a watchdog thread trips
//! when the cell exceeds its deadline. Long-running iteration loops deep in
//! the solver stack (simplex pivots, NMF updates, MaxSAT local-search
//! flips, gradient descent) call [`checkpoint`] once per iteration; when
//! the installed budget has been cancelled, `checkpoint` unwinds with the
//! [`Interrupted`] payload, which the runner's `catch_unwind` recognises
//! and converts into a structured `timed_out` cell failure instead of a
//! crash.
//!
//! Design constraints:
//!
//! * **Cheap when idle.** With no budget installed (every non-benchmark
//!   caller), `checkpoint` is a thread-local read of a `None`.
//! * **Cheap when armed.** With a budget installed it is one relaxed
//!   atomic load — the watchdog does the clock-reading, not the hot loop.
//! * **No signature churn.** Interruption travels by unwinding rather than
//!   by threading `Result`s through every numeric kernel; only code that
//!   catches unwinds (the runner) ever observes it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Unwind payload used by [`checkpoint`] when the installed budget has
/// been cancelled. The benchmark runner downcasts caught panics to this
/// type to distinguish a deadline expiry from a genuine panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted;

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "execution budget exhausted")
    }
}

/// A shared cancellation token. Clones observe the same flag; cancelling
/// any clone cancels them all.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    cancelled: Arc<AtomicBool>,
}

thread_local! {
    static CURRENT: RefCell<Option<Budget>> = const { RefCell::new(None) };
}

impl Budget {
    /// A fresh, un-cancelled budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the cancellation flag (typically from a watchdog thread).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the budget has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Block until this budget is cancelled or `max_wait` elapses,
    /// polling every `tick`. Returns `true` if the budget was cancelled.
    /// For callers that must *wait out* a cancellation signal rather
    /// than unwind on it (e.g. the serve chaos hook stalling a flush
    /// until the request's deadline fires).
    pub fn wait_cancelled(&self, tick: std::time::Duration, max_wait: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + max_wait;
        while !self.is_cancelled() {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(tick);
        }
        true
    }

    /// Install this budget on the current thread for the lifetime of the
    /// returned guard; [`checkpoint`] calls on this thread observe it.
    /// Nested installs restore the previous budget on drop.
    pub fn install(&self) -> BudgetGuard {
        let prev = CURRENT.with(|c| c.replace(Some(self.clone())));
        BudgetGuard { prev }
    }
}

/// RAII guard from [`Budget::install`]; restores the previously installed
/// budget (if any) when dropped.
#[derive(Debug)]
pub struct BudgetGuard {
    prev: Option<Budget>,
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        // Ignore a torn-down thread-local during thread exit.
        let _ = CURRENT.try_with(|c| *c.borrow_mut() = prev);
    }
}

/// Whether a budget is installed on the current thread (armed loops may
/// use this to pick a coarser check stride, though the plain [`checkpoint`]
/// is cheap enough for per-iteration use).
pub fn armed() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Cooperative cancellation point. No-op without an installed budget;
/// unwinds with the [`Interrupted`] payload once the installed budget is
/// cancelled. Call once per iteration of any potentially long loop.
#[inline]
pub fn checkpoint() {
    let cancelled =
        CURRENT.with(|c| c.borrow().as_ref().is_some_and(Budget::is_cancelled));
    if cancelled {
        std::panic::panic_any(Interrupted);
    }
}

/// Parse a fault-injection spec list: the one `FAIRLENS_FAULT` grammar
/// shared by the benchmark runner and the server. Specs are
/// `;`-separated and blank ones are skipped; `parse_one` receives each
/// trimmed spec with its `:`-separated fields and owns the fault kinds
/// and their field order.
pub fn parse_faults<T>(
    list: &str,
    mut parse_one: impl FnMut(&str, &[&str]) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    list.split(';')
        .map(str::trim)
        .filter(|spec| !spec.is_empty())
        .map(|spec| parse_one(spec, &spec.split(':').collect::<Vec<_>>()))
        .collect()
}

/// Faults from the `FAIRLENS_FAULT` environment variable, parsed by
/// [`parse_faults`]; none when it is unset or blank. A malformed spec
/// panics: a fault-injection run's configuration error must surface
/// before any work starts.
pub fn faults_from_env<T>(parse_one: impl FnMut(&str, &[&str]) -> Result<T, String>) -> Vec<T> {
    let list = std::env::var("FAIRLENS_FAULT").unwrap_or_default();
    parse_faults(&list, parse_one).unwrap_or_else(|e| panic!("FAIRLENS_FAULT: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_is_noop_without_budget() {
        assert!(!armed());
        checkpoint(); // must not unwind
    }

    #[test]
    fn checkpoint_passes_until_cancelled() {
        let b = Budget::new();
        let _g = b.install();
        assert!(armed());
        checkpoint();
        b.cancel();
        let caught = std::panic::catch_unwind(checkpoint).unwrap_err();
        assert!(caught.downcast_ref::<Interrupted>().is_some());
    }

    #[test]
    fn guard_restores_previous_budget() {
        let outer = Budget::new();
        let inner = Budget::new();
        let _og = outer.install();
        {
            let _ig = inner.install();
            inner.cancel();
            assert!(std::panic::catch_unwind(checkpoint).is_err());
        }
        // inner guard dropped: outer (un-cancelled) is current again
        checkpoint();
        outer.cancel();
        assert!(std::panic::catch_unwind(checkpoint).is_err());
    }

    #[test]
    fn wait_cancelled_observes_the_flag_or_times_out() {
        use std::time::Duration;
        let b = Budget::new();
        assert!(!b.wait_cancelled(Duration::from_millis(1), Duration::from_millis(10)));
        let c = b.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            c.cancel();
        });
        assert!(b.wait_cancelled(Duration::from_millis(1), Duration::from_secs(5)));
        h.join().unwrap();
    }

    #[test]
    fn fault_lists_split_on_semicolons_then_colons() {
        let fields = |spec: &str, f: &[&str]| match f {
            [_, _] => Ok(f.join("|")),
            _ => Err(format!("bad {spec:?}")),
        };
        assert_eq!(parse_faults(" a:b ;; c:d;", fields).unwrap(), ["a|b", "c|d"]);
        assert!(parse_faults(" ; ", fields).unwrap().is_empty());
        assert_eq!(parse_faults("a:b;c", fields).unwrap_err(), "bad \"c\"");
    }

    #[test]
    fn clones_share_the_flag_across_threads() {
        let b = Budget::new();
        let c = b.clone();
        let h = std::thread::spawn(move || c.cancel());
        h.join().unwrap();
        assert!(b.is_cancelled());
    }
}
