//! Scraping the servers' Prometheus `/metrics` exposition.

use std::collections::BTreeMap;

/// One scrape: series (`name{labels}` exactly as exposed) → value.
#[derive(Debug, Clone, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parse the text exposition; comment and malformed lines are skipped.
    pub fn parse(text: &str) -> Self {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            if let Ok(v) = value.parse::<f64>() {
                series.insert(key.to_string(), v);
            }
        }
        Self(series)
    }

    /// One series' value; 0 when absent.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Sum of every series of metric `name` (all label sets).
    pub fn sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(name)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
            })
            .fold(0.0, |acc, (_, v)| acc + v)
    }

    /// Element-wise sum of several scrapes (e.g. every fleet worker).
    pub fn add(&mut self, other: &Scrape) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0.0) += v;
        }
    }

    /// `self − earlier`, series by series.
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        Scrape(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.get(k)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_series_and_deltas() {
        let a = Scrape::parse(
            "# HELP x y\nfairlens_phase_seconds_sum{phase=\"queue\"} 0.5\n\
             fairlens_shed_total{reason=\"inflight\"} 2\nfairlens_shed_total{reason=\"queue_full\"} 1\n\
             fairlens_batch_rows_count 10\n",
        );
        assert_eq!(a.get("fairlens_phase_seconds_sum{phase=\"queue\"}"), 0.5);
        assert_eq!(a.sum("fairlens_shed_total"), 3.0);
        assert_eq!(a.sum("fairlens_batch_rows"), 0.0);
        let b = Scrape::parse("fairlens_batch_rows_count 25\n");
        assert_eq!(b.since(&a).get("fairlens_batch_rows_count"), 15.0);
        let mut c = a.clone();
        c.add(&b);
        assert_eq!(c.get("fairlens_batch_rows_count"), 35.0);
    }
}
