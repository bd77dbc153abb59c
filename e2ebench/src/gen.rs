//! Seeded, pure input generators.
//!
//! Everything the benchmark sends is a pure function of `(seed, index)`:
//! the artifact-export seed, the experiment seeds of the offline grid
//! repeats, the row pool, and every request of every stream. The program
//! under test only ever sees the generated inputs, never the seed.

use fairlens_frame::{Column, Dataset};
use fairlens_json::{object, Value};
use fairlens_synth::DatasetKind;

/// The three German quick-scale models every serving workload exports.
/// `german-hardt-eo` is stochastic, so the server never merges its jobs.
pub const MODELS: [&str; 3] = ["german-lr", "german-feld-dp-1-0", "german-hardt-eo"];

/// Approach names handed to `export_models --approaches`, index-aligned
/// with [`MODELS`].
pub const EXPORT_APPROACHES: &str = "LR,Feld^DP(1.0),Hardt^EO";

/// Rows in the request pool.
pub const POOL_ROWS: usize = 400;

/// Salts separating the independent streams derived from one seed.
pub mod salt {
    /// Seed handed to `export_models`.
    pub const EXPORT: u64 = 0x6578_706f_7274;
    /// Seed of the row pool's synthetic generation.
    pub const POOL: u64 = 0x706f_6f6c;
    /// Experiment seeds of the offline grid repeats.
    pub const GRID: u64 = 0x6772_6964;
    /// The closed-loop request stream.
    pub const CLOSED: u64 = 0x636c_6f73_6564;
    /// The open-loop request stream.
    pub const OPEN: u64 = 0x6f70_656e;
    /// The open-loop arrival times.
    pub const ARRIVALS: u64 = 0x6172_7269_7665;
}

/// SplitMix64 finalizer: one well-mixed word per `(seed, index)` pair.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seed for one named purpose, derived from the benchmark seed.
pub fn derive(seed: u64, salt: u64, i: u64) -> u64 {
    mix(mix(seed, salt), i)
}

/// The rows requests are drawn from: German rows generated from the seed,
/// with their true labels for `/v1/feedback`.
pub struct RowPool {
    rows: Vec<Value>,
    labels: Vec<u8>,
}

impl RowPool {
    /// The pool for `seed`.
    pub fn new(seed: u64) -> Self {
        let data = DatasetKind::German.generate(POOL_ROWS, derive(seed, salt::POOL, 0));
        let rows = (0..data.n_rows()).map(|r| row_json(&data, r)).collect();
        Self {
            rows,
            labels: data.labels().to_vec(),
        }
    }

    /// The JSON row object at pool index `r`.
    pub fn row(&self, r: usize) -> &Value {
        &self.rows[r]
    }

    /// True label of pool row `r`.
    pub fn label(&self, r: usize) -> u8 {
        self.labels[r]
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }
}

/// One schema-shaped JSON row, as a client would send it.
fn row_json(data: &Dataset, r: usize) -> Value {
    let mut fields: Vec<(String, Value)> = data
        .columns()
        .iter()
        .zip(data.attr_names())
        .map(|(col, name)| {
            let v = match col {
                Column::Numeric(xs) => Value::Number(xs[r]),
                Column::Categorical { codes, levels } => {
                    Value::String(levels[codes[r] as usize].clone())
                }
            };
            (name.clone(), v)
        })
        .collect();
    fields.push((
        data.sensitive_name().to_string(),
        Value::Integer(u64::from(data.sensitive()[r])),
    ));
    Value::Object(fields)
}

/// One generated predict request.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictReq {
    /// Index of [`MODELS`] the request targets.
    pub model: usize,
    /// Pool rows in the body, in order.
    pub rows: Vec<usize>,
    /// Whether a `/v1/feedback` post follows a 2xx answer (closed loop).
    pub feedback: bool,
    /// The JSON body.
    pub body: String,
}

fn predict_body(pool: &RowPool, model: usize, rows: &[usize]) -> String {
    let id = Value::String(MODELS[model].to_string());
    let body = if rows.len() == 1 {
        object([("model", id), ("row", pool.row(rows[0]).clone())])
    } else {
        let batch = rows.iter().map(|&r| pool.row(r).clone()).collect();
        object([("model", id), ("rows", Value::Array(batch))])
    };
    body.to_json()
}

/// Share of answered closed-loop predicts followed by a `/v1/feedback`
/// post, in tenths: the rate of the monitor smoke in `scripts/check.sh`
/// and of the feedback example in EXPERIMENTS.md (`loadgen --feedback 0.7`).
pub const FEEDBACK_TENTHS: u64 = 7;

/// The request shape of loadgen's `body_for` (crates/serve/examples):
/// a quarter of requests carry one row, three quarters a batch of 2–9
/// consecutive pool rows. The model is drawn uniformly from [`MODELS`].
fn shaped(pool: &RowPool, h: u64) -> PredictReq {
    let model = (mix(h, 1) % MODELS.len() as u64) as usize;
    let rows = if h.is_multiple_of(4) {
        vec![(h >> 8) as usize % pool.len()]
    } else {
        let n = 2 + ((h >> 16) % 8) as usize;
        (0..n)
            .map(|j| ((h >> 24) as usize + j) % pool.len())
            .collect()
    };
    PredictReq {
        model,
        body: predict_body(pool, model, &rows),
        rows,
        feedback: false,
    }
}

/// Request `i` of the closed-loop stream: the loadgen shape, with
/// [`FEEDBACK_TENTHS`] of answered predicts followed by a feedback post.
pub fn closed_request(pool: &RowPool, seed: u64, i: u64) -> PredictReq {
    let h = derive(seed, salt::CLOSED, i);
    PredictReq {
        feedback: mix(h, 2) % 10 < FEEDBACK_TENTHS,
        ..shaped(pool, h)
    }
}

/// Request `i` of the open-loop stream: the loadgen shape, predict only.
pub fn open_request(pool: &RowPool, seed: u64, i: u64) -> PredictReq {
    shaped(pool, derive(seed, salt::OPEN, i))
}

/// Due times, in µs from the start, of `count` open-loop requests from
/// index `first` at `rate` per second: Poisson arrivals, as independent
/// callers make, conditioned on the count arriving in exactly
/// `count / rate` seconds, so every seed offers the same rate. Gap `i` is
/// exponential, drawn from `(seed, i)`.
pub fn poisson_schedule(seed: u64, first: u64, rate: f64, count: u64) -> Vec<u64> {
    let gaps: Vec<f64> = (first..first + count)
        .map(|i| {
            // A uniform draw in (0, 1] from the top 53 bits.
            let u = ((derive(seed, salt::ARRIVALS, i) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            -u.ln()
        })
        .collect();
    let scale = count as f64 / rate * 1e6 / gaps.iter().sum::<f64>();
    let mut t = 0.0;
    gaps.iter()
        .map(|g| {
            let due = t;
            t += g * scale;
            due as u64
        })
        .collect()
}

/// The feedback body for a predict answered with `seq`: the rows' true
/// labels from the pool.
pub fn feedback_body(pool: &RowPool, req: &PredictReq, seq: u64) -> String {
    let labels = req
        .rows
        .iter()
        .map(|&r| Value::Integer(u64::from(pool.label(r))))
        .collect();
    object([
        ("model", Value::String(MODELS[req.model].to_string())),
        ("seq", Value::Integer(seq)),
        ("labels", Value::Array(labels)),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, f: fn(&RowPool, u64, u64) -> PredictReq) -> String {
        let pool = RowPool::new(seed);
        (0..500)
            .map(|i| f(&pool, seed, i).body)
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        assert_eq!(stream(7, closed_request), stream(7, closed_request));
        assert_eq!(stream(7, open_request), stream(7, open_request));
    }

    #[test]
    fn another_seed_gives_a_different_stream() {
        assert_ne!(stream(7, closed_request), stream(8, closed_request));
        assert_ne!(stream(7, open_request), stream(8, open_request));
    }

    #[test]
    fn poisson_schedule_is_pure_and_keeps_its_rate() {
        let a = poisson_schedule(5, 0, 200.0, 4000);
        assert_eq!(a, poisson_schedule(5, 0, 200.0, 4000));
        assert_ne!(a, poisson_schedule(6, 0, 200.0, 4000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // The last gap runs to 20 s exactly; it is not in the schedule.
        assert!(a[3999] < 20_000_000 && a[3999] > 19_900_000, "{}", a[3999]);
        let gaps: Vec<u64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let short = gaps.iter().filter(|&&g| g < 2_000).count();
        // P(gap < 2 ms) = 1 - exp(-0.4) ≈ 0.33 at 200/s.
        assert!((1100..1500).contains(&short), "{short} gaps under 2 ms");
    }

    #[test]
    fn derived_seeds_depend_on_seed_salt_and_index() {
        assert_eq!(derive(3, salt::EXPORT, 0), derive(3, salt::EXPORT, 0));
        assert_ne!(derive(3, salt::EXPORT, 0), derive(4, salt::EXPORT, 0));
        assert_ne!(derive(3, salt::EXPORT, 0), derive(3, salt::POOL, 0));
        assert_ne!(derive(3, salt::GRID, 0), derive(3, salt::GRID, 1));
    }

    #[test]
    fn streams_cover_every_model_and_shape() {
        let pool = RowPool::new(1);
        let closed: Vec<PredictReq> = (0..400).map(|i| closed_request(&pool, 1, i)).collect();
        let open: Vec<PredictReq> = (0..400).map(|i| open_request(&pool, 1, i)).collect();
        for m in 0..MODELS.len() {
            assert!(closed.iter().any(|r| r.model == m));
            assert!(open.iter().any(|r| r.model == m));
        }
        for stream in [&closed, &open] {
            let singles = stream.iter().filter(|r| r.rows.len() == 1).count();
            assert!(
                (70..=130).contains(&singles),
                "{singles} single-row predicts"
            );
            assert!(stream.iter().all(|r| r.rows.len() <= 9));
            assert!(stream.iter().any(|r| r.rows.len() == 9));
        }
        let feedback = closed.iter().filter(|r| r.feedback).count();
        assert!((250..=310).contains(&feedback), "{feedback} feedback posts");
        assert!(open.iter().all(|r| !r.feedback));
    }
}
