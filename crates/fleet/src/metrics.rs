//! Prometheus text-format metrics for the fleet front door, built on the
//! serve crate's one exposition writer (`fairlens_serve::metrics`). The
//! families here describe the *fleet* — worker lifecycle, failover,
//! reload — while each worker keeps its own `/metrics` for per-model
//! detail.

use fairlens_serve::metric_registry;
use fairlens_serve::metrics::Family;

const WORKER: &[&str] = &["worker"];

metric_registry! {
    /// The fleet's metric registry: 8 families. Callers update a family
    /// directly, except the worker pair, which `set_worker` keeps in step.
    pub struct FleetMetrics {
        pub requests: Family<(String, u16)> = Family::counter("fairlens_fleet_requests_total",
            &["route", "status"], "Front-door responses by route and status."),
        worker_up: Family<usize> = Family::gauge("fairlens_worker_up", WORKER,
            "Whether the worker shard is routable (announced and probing healthy)."),
        worker_pid: Family<usize> = Family::gauge("fairlens_worker_pid", WORKER,
            "The worker shard's OS process id."),
        pub worker_restarts: Family<usize> = Family::counter("fairlens_worker_restarts_total",
            WORKER, "Supervisor respawns of the worker shard."),
        pub failovers: Family<String> = Family::counter("fairlens_fleet_failovers_total",
            &["model"], "Requests answered by a fallback replica after a transport failure."),
        pub forward_retries: Family<()> = Family::counter("fairlens_fleet_forward_retries_total",
            &[], "Forward attempts that failed at the transport level."),
        pub reloads: Family<&'static str> = Family::counter("fairlens_fleet_reloads_total",
            &["outcome"], "Blue/green reload attempts by outcome."),
        pub paused: Family<()> = Family::gauge("fairlens_fleet_paused_models", &[],
            "Models currently paused for a blue/green cutover."),
    }
}

impl FleetMetrics {
    /// Respawns of `worker` so far.
    pub fn restarts(&self, worker: usize) -> u64 {
        self.worker_restarts.series().get(&worker).copied().unwrap_or(0)
    }

    /// Publish `worker`'s routability and pid.
    pub fn set_worker(&self, worker: usize, up: bool, pid: u32) {
        self.worker_up.set(&worker, u64::from(up));
        self.worker_pid.set(&worker, u64::from(pid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_families_deterministically() {
        let m = FleetMetrics::new();
        m.requests.inc(&("/v1/predict".to_string(), 200));
        m.requests.inc(&("/v1/predict".to_string(), 200));
        m.worker_restarts.inc(&1);
        m.set_worker(0, true, 100);
        m.set_worker(1, false, 101);
        m.failovers.inc("german-lr");
        m.forward_retries.inc(&());
        m.reloads.inc(&"ok");
        m.paused.set(&(), 1);
        let text = m.render();
        for needle in [
            "fairlens_fleet_requests_total{route=\"/v1/predict\",status=\"200\"} 2",
            "fairlens_worker_up{worker=\"0\"} 1",
            "fairlens_worker_up{worker=\"1\"} 0",
            "fairlens_worker_pid{worker=\"0\"} 100",
            "fairlens_worker_restarts_total{worker=\"1\"} 1",
            "fairlens_fleet_failovers_total{model=\"german-lr\"} 1",
            "fairlens_fleet_forward_retries_total 1",
            "fairlens_fleet_reloads_total{outcome=\"ok\"} 1",
            "fairlens_fleet_paused_models 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert_eq!(text, m.render(), "render order is deterministic");
    }

    /// A fixed event sequence touching all 8 families; worker ids 2 and
    /// 10 pin numeric (not lexicographic) series order.
    #[test]
    fn exposition_bytes_are_pinned() {
        let m = FleetMetrics::new();
        m.requests.inc(&("/v1/predict".to_string(), 200));
        m.requests.inc(&("/v1/predict".to_string(), 200));
        m.requests.inc(&("/v1/reload".to_string(), 409));
        m.worker_restarts.inc(&10);
        m.worker_restarts.inc(&2);
        m.worker_restarts.inc(&2);
        m.set_worker(10, false, 1010);
        m.set_worker(2, true, 1002);
        m.failovers.inc("german-lr");
        m.forward_retries.inc(&());
        m.forward_retries.inc(&());
        m.reloads.inc(&"ok");
        m.reloads.inc(&"rejected");
        m.paused.set(&(), 1);
        assert_eq!(m.restarts(2), 2);
        assert_eq!(m.restarts(3), 0);
        let text = m.render();
        assert_eq!(text, include_str!("testdata/metrics.prom"));
        assert_preambles(&text, 8);
    }

    #[test]
    fn client_supplied_model_cannot_forge_lines() {
        let m = FleetMetrics::new();
        m.failovers.inc("x\"} 1\nfairlens_worker_up{worker=\"0\"} 1\n#");
        let text = m.render();
        assert!(text.contains(
            "fairlens_fleet_failovers_total{model=\"x\\\"} 1\\nfairlens_worker_up{worker=\\\"0\\\"} 1\\n#\"} 1\n"
        ), "{text}");
        assert_preambles(&text, 8);
    }

    /// Every family has one `# HELP`, then one `# TYPE`, before its samples.
    fn assert_preambles(text: &str, families: usize) {
        assert!(text.starts_with("# HELP "), "samples before the first preamble");
        let blocks: Vec<&str> = text.split("# HELP ").skip(1).collect();
        assert_eq!(blocks.len(), families);
        for block in blocks {
            let name = block.split(' ').next().unwrap();
            assert_eq!(text.matches(&format!("# HELP {name} ")).count(), 1, "{name}");
            let mut lines = block.lines().skip(1);
            assert!(lines.next().is_some_and(|t| t.starts_with(&format!("# TYPE {name} "))));
            assert!(lines.all(|l| l.starts_with(name) && !l.starts_with('#')), "{name}");
        }
    }
}
