//! Accumulators for normalised measurements and the run's result line.
//!
//! A phase records raw times tagged with the measured window they fell in;
//! once the phase ends, [`crate::host::Phase::factors`] gives each window's
//! host factor and the raw times are normalised with it.

/// Frames (or calls) and time over a set of measured windows, raw and at
/// reference host speed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Meter {
    pub frames: u64,
    pub raw_s: f64,
    pub norm_s: f64,
}

impl Meter {
    pub fn fps(&self) -> f64 {
        self.frames as f64 / self.norm_s
    }

    pub fn raw_fps(&self) -> f64 {
        self.frames as f64 / self.raw_s
    }

    /// Mean (normalised, raw) µs per counted item.
    pub fn mean_us(&self) -> (f64, f64) {
        let n = self.frames as f64;
        (self.norm_s * 1e6 / n, self.raw_s * 1e6 / n)
    }
}

/// Raw counts and times per measured window.
#[derive(Debug, Default, Clone)]
pub struct Windows {
    entries: Vec<(usize, u64, f64)>,
}

impl Windows {
    /// Records `count` items that took `raw_s` in window `window`.
    pub fn push(&mut self, window: usize, count: u64, raw_s: f64) {
        self.entries.push((window, count, raw_s));
    }

    pub fn meter(&self, factors: &[f64]) -> Meter {
        let mut m = Meter::default();
        for &(w, n, raw) in &self.entries {
            m.frames += n;
            m.raw_s += raw;
            m.norm_s += raw * factors[w];
        }
        m
    }
}

/// Latency samples each percentile needs, so that at least ten lie beyond
/// the 99th.
pub const MIN_SAMPLES: usize = 1000;

/// Whether an open-loop phase that has run `elapsed` of its `share`
/// seconds and taken `samples` latency samples goes on: past its share
/// until it has [`MIN_SAMPLES`] (a camera paced by capacity offers fewer
/// frames on a slower host), but never past three times its share.
pub fn open_phase_running(elapsed: f64, share: f64, samples: usize) -> bool {
    elapsed < share || (samples < MIN_SAMPLES && elapsed < 3.0 * share)
}

/// Consecutive segments a latency quantile is taken over (see
/// [`Latency::quantile`]).
const SEGMENTS: usize = 5;

/// Raw latency samples (s), each tagged with its measured window.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    raw: Vec<f64>,
    window: Vec<usize>,
}

impl Samples {
    pub fn push(&mut self, window: usize, raw_s: f64) {
        self.raw.push(raw_s);
        self.window.push(window);
    }

    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// The samples in µs, raw and normalised with the phase's factors.
    pub fn normalise(&self, factors: &[f64]) -> Latency {
        Latency {
            raw: self.raw.iter().map(|r| r * 1e6).collect(),
            norm: self
                .raw
                .iter()
                .zip(&self.window)
                .map(|(r, &w)| r * factors[w] * 1e6)
                .collect(),
        }
    }
}

/// Latency samples in µs, raw and normalised.
#[derive(Default)]
pub struct Latency {
    raw: Vec<f64>,
    norm: Vec<f64>,
}

impl Latency {
    /// Quantile `q` of (raw, normalised) samples: the median over
    /// [`SEGMENTS`] consecutive segments of each segment's nearest-rank
    /// quantile. A host stall delays every frame queued behind it, so in one
    /// pooled sample it can own the whole tail; split this way it moves one
    /// segment and not the result.
    pub fn quantile(&self, q: f64) -> (f64, f64) {
        let seg = |xs: &[f64]| {
            let n = xs.len().div_ceil(SEGMENTS).max(1);
            median(&xs.chunks(n).map(|c| quantile(c, q)).collect::<Vec<_>>())
        };
        (seg(&self.raw), seg(&self.norm))
    }

    pub fn mean(&self) -> (f64, f64) {
        (mean(&self.raw), mean(&self.norm))
    }

    /// The latencies from their due times that the same frames, with the
    /// same service times, get when frame `i` belongs to camera
    /// `camera[i]` and is due `gap[i] × mean_gap_us[camera]` (raw,
    /// normalised) after that camera's previous frame, and each camera's
    /// tracker serves its frames in order.
    pub fn replay(&self, camera: &[usize], gap: &[f64], mean_gap_us: &[(f64, f64)]) -> Latency {
        let raw: Vec<f64> = mean_gap_us.iter().map(|p| p.0).collect();
        let norm: Vec<f64> = mean_gap_us.iter().map(|p| p.1).collect();
        Latency {
            raw: fifo_latency(&self.raw, camera, gap, &raw),
            norm: fifo_latency(&self.norm, camera, gap, &norm),
        }
    }
}

/// Latency from the due time of each frame of one FIFO server per camera,
/// by Lindley's recursion: a frame waits for what is left of the previous
/// frame's latency after the gap between their due times.
fn fifo_latency(service: &[f64], camera: &[usize], gap: &[f64], mean_gap: &[f64]) -> Vec<f64> {
    let mut previous = vec![0.0; mean_gap.len()];
    service
        .iter()
        .zip(camera)
        .zip(gap)
        .map(|((&s, &c), &g)| {
            let latency = (previous[c] - g * mean_gap[c]).max(0.0) + s;
            previous[c] = latency;
            latency
        })
        .collect()
}

/// Nearest-rank quantile (`+inf` samples sort last).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// (raw value, host factor) for normalised timings.
    raw: Option<(f64, f64)>,
}

/// A run's metrics, check failures and frame tallies.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Frames offered in the measured phases.
    pub attempted: u64,
    /// Frames whose output failed a check.
    pub failed: u64,
    /// Every failed check, one line each.
    pub errors: Vec<String>,
}

impl Report {
    /// A value that is not a host-speed-dependent timing (counts, ratios,
    /// accuracy, memory).
    pub fn plain(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            raw: None,
        });
    }

    /// A normalised timing, printed beside its raw value and host factor.
    pub fn timed(&mut self, name: &'static str, norm: f64, raw: f64, unit: &'static str) {
        let factor = if unit.ends_with("/s") {
            raw / norm
        } else {
            norm / raw
        };
        self.metrics.push(Metric {
            name,
            value: norm,
            unit,
            raw: Some((raw, factor)),
        });
    }

    /// The 50th and 99th percentile of `lat` under `names`.
    pub fn quantiles(&mut self, names: [&'static str; 2], lat: &Latency) {
        for (name, q) in names.into_iter().zip([0.50, 0.99]) {
            let (raw, norm) = lat.quantile(q);
            self.timed(name, norm, raw, "us");
        }
    }

    /// Records a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Prints the human-readable table, then the result line last.
    pub fn print(&mut self) {
        println!(
            "{:<26} {:>14} {:>8} {:>14} {:>8}",
            "metric", "normalised", "unit", "raw", "host_f"
        );
        for m in &self.metrics {
            match m.raw {
                Some((raw, f)) => println!(
                    "{:<26} {:>14.4} {:>8} {:>14.4} {:>8.4}",
                    m.name, m.value, m.unit, raw, f
                ),
                None => println!("{:<26} {:>14.4} {:>8}", m.name, m.value, m.unit),
            }
        }
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.errors.push(format!("metric {} is not finite", m.name));
            }
        }
        for e in &self.errors {
            println!("check failed: {e}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}
