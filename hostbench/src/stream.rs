//! Single-tracker workloads: one closed-loop tracker per backend, windows
//! rotated across backends. The open-loop latencies replay the measured
//! frames behind a camera that offers frames at a fixed share of each
//! tracker's capacity.

use crate::host::{Host, Phase};
use crate::report::{mean, Meter, Report, Samples, Windows, MIN_SAMPLES};
use crate::setup::{self, backend_name, Motion, Traffic, BACKENDS, WARMUP_FRAMES};
use eyecod_core::tracker::{EyeTracker, GazeBackend, TrackedFrame};
use eyecod_faults::FrameQuality;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Mixed into `--seed` for the open-loop arrival times.
const ARRIVAL_SEED: u64 = 0x0A44_1BA1;

/// A stream workload's mode.
#[derive(Clone, Copy)]
pub struct StreamMode {
    pub delta: bool,
    pub motion: Motion,
    /// Frames per measured window (a multiple of the ROI refresh period, so
    /// each window holds exactly one refresh frame per period).
    pub window: u64,
    /// Open-loop offered load as a share of each backend's capacity. A
    /// frame that comes while an earlier one is still in service waits; at
    /// this load few enough do that the median stays off the boundary
    /// between waiting and not waiting, and the tail measures the wait
    /// behind refresh frames.
    pub open_utilisation: f64,
}

/// One tracker per backend over shared pre-rendered traffic.
pub struct StreamSet {
    pub trackers: Vec<EyeTracker>,
    pub traffic: Traffic,
    /// Angular error sums over each tracker's first pass through the
    /// traffic (frames `0..traffic.len()`), so the accuracy figure does not
    /// depend on how many frames a run gets through.
    err_sum: [f64; 3],
    err_n: [u64; 3],
}

/// Frame tallies the checks compare against the program's counters.
#[derive(Default, Debug, Clone, Copy)]
pub struct Tally {
    pub frames: u64,
    pub refresh: u64,
    pub gated: u64,
    pub ok: u64,
    /// Dense Tikhonov solves the frames imply.
    pub solves: u64,
    /// Frames whose output failed a check.
    pub bad: u64,
}

impl Tally {
    /// Accounts one completed frame of a tracker with `backend`/`delta`.
    pub fn frame(
        &mut self,
        out: &TrackedFrame,
        backend: GazeBackend,
        delta: bool,
        errors: &mut Vec<String>,
    ) {
        self.frames += 1;
        let due = setup::refresh_due(out.frame);
        self.refresh += out.roi_refreshed as u64;
        self.gated += out.gaze_skipped as u64;
        self.ok += (out.quality == FrameQuality::Ok) as u64;
        // dense solves: every refresh frame; every other frame only on the
        // dense f32/int8 paths (the latent fast path senses without a
        // solve, the delta path updates columns or skips)
        if due || (!delta && backend != GazeBackend::Latent) {
            self.solves += 1;
        }
        let g = out.gaze;
        let mut bad = false;
        if !(g.x.is_finite() && g.y.is_finite() && g.z.is_finite()) {
            errors.push(format!(
                "{} frame {}: non-finite gaze {g:?}",
                backend_name(backend),
                out.frame
            ));
            bad = true;
        }
        if out.roi_refreshed != due {
            errors.push(format!(
                "{} frame {}: roi_refreshed = {} but refresh due = {due}",
                backend_name(backend),
                out.frame,
                out.roi_refreshed
            ));
            bad = true;
        }
        if out.gaze_skipped && !delta {
            errors.push(format!(
                "{} frame {}: gated in dense mode",
                backend_name(backend),
                out.frame
            ));
            bad = true;
        }
        self.bad += bad as u64;
    }
}

/// A program counter's current value.
pub fn counter(name: &str) -> u64 {
    eyecod_telemetry::counter(name).get()
}

impl StreamSet {
    /// Builds and warms one tracker per backend (the part of set-up a
    /// stream workload repeats).
    pub fn build(seed: u64, mode: StreamMode) -> Self {
        let config = setup::tracker_config(GazeBackend::F32, mode.delta);
        let models = setup::train(&config);
        let acquisition = EyeTracker::build_acquisition(&config);
        let traffic = Traffic::render(seed, mode.motion, config.scene_size);
        let trackers = BACKENDS
            .iter()
            .map(|&b| setup::stream_tracker(b, mode.delta, &models, &acquisition))
            .collect();
        let mut set = StreamSet {
            trackers,
            traffic,
            err_sum: [0.0; 3],
            err_n: [0; 3],
        };
        for b in 0..BACKENDS.len() {
            for _ in 0..WARMUP_FRAMES {
                set.step(b);
            }
        }
        set
    }

    /// Runs tracker `b`'s next frame through `process_frame`.
    pub fn step(&mut self, b: usize) -> TrackedFrame {
        let t = &mut self.trackers[b];
        let i = t.frames_processed();
        let out = t.process_frame(self.traffic.scene(i), self.traffic.noise_seed(i));
        self.account_error(b, &out);
        out
    }

    fn account_error(&mut self, b: usize, out: &TrackedFrame) {
        if (out.frame as usize) < self.traffic.len() {
            self.err_sum[b] +=
                out.gaze
                    .angular_error_degrees(&self.traffic.truth(out.frame)) as f64;
            self.err_n[b] += 1;
        }
    }

    /// Mean angular error over every tracker's first pass through the
    /// traffic; `None` until every tracker has made that pass.
    pub fn gaze_err(&self) -> Option<f64> {
        let n = self.traffic.len() as u64;
        if self.err_n.iter().any(|&c| c < n) {
            return None;
        }
        Some(mean(&[0, 1, 2].map(|b| self.err_sum[b] / n as f64)))
    }
}

/// Median of `reps` set-ups, each bracketed by one-thread reference windows:
/// (normalised s, raw s). Returns the last set-up's objects.
///
/// Only the rendering and acquisition of the training corpus run on the
/// pool; the training epochs, the traffic rendering, the warm-up frames
/// and most fleet joins run on one thread. With the two-thread reference
/// the normalised set-up time spread by 0.36 of its median over five runs,
/// against 0.08 raw.
pub fn repeated_setup<T>(
    host: &mut Host,
    reps: usize,
    mut build: impl FnMut() -> T,
) -> Result<(T, f64, f64), String> {
    let mut norm = Vec::new();
    let mut raw = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let (out, f) = crate::host::bracketed(host, 1, || {
            let t0 = Instant::now();
            let out = build();
            (out, t0.elapsed().as_secs_f64())
        })?;
        println!("set-up: {:.4} s raw at host factor {f:.4}", out.1);
        raw.push(out.1);
        norm.push(out.1 * f);
        last = Some(out.0);
    }
    Ok((
        last.expect("at least one set-up"),
        crate::report::median(&norm),
        crate::report::median(&raw),
    ))
}

/// The stream workloads' end-to-end run.
pub fn run(
    seed: u64,
    seconds: f64,
    mode: StreamMode,
    reps: usize,
    report: &mut Report,
) -> Result<(), String> {
    let mut host = Host::new()?;
    let (mut set, setup_norm, setup_raw) =
        repeated_setup(&mut host, reps, || StreamSet::build(seed, mode))?;

    let solves0 = counter("optics/recon_solves");
    let skipped0 = counter("tracker/gaze_skipped");
    let delta0 = counter("tracker/delta_frames");
    let mut tally = Tally::default();

    // closed loop: windows rotated across backends, complete rounds only
    let mut closed = Phase::begin(&mut host, 1)?;
    let mut windows: [Windows; 3] = Default::default();
    let mut lat = Samples::default();
    let mut backend_of = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        for b in 0..BACKENDS.len() {
            let w = closed.window();
            let w0 = Instant::now();
            for _ in 0..mode.window {
                let f0 = Instant::now();
                let out = set.step(b);
                lat.push(w, f0.elapsed().as_secs_f64());
                backend_of.push(b);
                tally.frame(&out, BACKENDS[b], mode.delta, &mut report.errors);
            }
            windows[b].push(w, mode.window, w0.elapsed().as_secs_f64());
            closed.close(&mut host)?;
        }
    }
    let factors = closed.factors();
    let meters = windows.each_ref().map(|w| w.meter(&factors));
    let lat = lat.normalise(&factors);

    // open loop, replayed: each backend's camera offers frames at random
    // times (Poisson, from the seed) at open_utilisation × that backend's
    // capacity, and each measured frame, with its measured service time,
    // waits for the ones before it of its backend. A live open loop leaves
    // the tracker idle between frames, and what its caches then still hold
    // depends on what else ran on the host: a gated delta frame, ~6 µs back
    // to back, took ~6 µs in some stretches and ~20 µs in others, evicting
    // the caches before each frame did not settle it, and the open-loop
    // median of a run spread by 0.2-0.4 of itself. Replayed, the latencies
    // follow from the measured service times alone.
    let mut rng = StdRng::seed_from_u64(seed ^ ARRIVAL_SEED);
    let gap: Vec<f64> = (0..backend_of.len())
        .map(|_| -(1.0 - rng.gen::<f64>()).ln())
        .collect();
    let mean_gap_us: Vec<(f64, f64)> = meters
        .iter()
        .map(|m| {
            let per_frame = |fps: f64| 1e6 / (mode.open_utilisation * fps);
            (per_frame(m.raw_fps()), per_frame(m.fps()))
        })
        .collect();
    let open = lat.replay(&backend_of, &gap, &mean_gap_us);

    // checks: the program's own counters agree with the frame tallies
    let solves = counter("optics/recon_solves") - solves0;
    let skipped = counter("tracker/gaze_skipped") - skipped0;
    let sparse = counter("tracker/delta_frames") - delta0;
    report.check(solves == tally.solves, || {
        format!(
            "optics/recon_solves moved by {solves}, frames imply {}",
            tally.solves
        )
    });
    report.check(skipped == tally.gated, || {
        format!(
            "tracker/gaze_skipped moved by {skipped}, frames show {} gated",
            tally.gated
        )
    });
    if mode.delta {
        report.check(tally.gated + sparse + tally.refresh == tally.frames, || {
            format!(
                "gated {} + sparse {sparse} + refresh {} != frames {}",
                tally.gated, tally.refresh, tally.frames
            )
        });
    } else {
        report.check(sparse == 0, || {
            format!("{sparse} sparse frames in dense mode")
        });
    }
    report.check(tally.frames >= MIN_SAMPLES as u64, || {
        format!("only {} latency samples", tally.frames)
    });
    let gaze_err = set.gaze_err();
    report.check(gaze_err.is_some(), || {
        "a tracker did not finish its first pass".into()
    });
    report.attempted = tally.frames;
    report.failed = tally.bad;

    let mut all = Meter::default();
    for m in &meters {
        all.frames += m.frames;
        all.raw_s += m.raw_s;
        all.norm_s += m.norm_s;
    }
    report.timed("setup_s", setup_norm, setup_raw, "s");
    report.timed("fps", all.fps(), all.raw_fps(), "1/s");
    for (b, name) in ["fps_f32", "fps_int8", "fps_latent"]
        .into_iter()
        .enumerate()
    {
        report.timed(name, meters[b].fps(), meters[b].raw_fps(), "1/s");
    }
    report.quantiles(["p50_us", "p99_us"], &lat);
    report.quantiles(["open_p50_us", "open_p99_us"], &open);
    report.plain("gaze_err_deg", gaze_err.unwrap_or(f64::NAN), "deg");
    report.plain("ok_frac", tally.ok as f64 / tally.frames as f64, "ratio");
    report.plain("peak_rss_mb", crate::host::peak_rss_mb()?, "MiB");
    println!(
        "frames {} refresh {} gated {} sparse {sparse} solves {solves}; \
         open-loop mean camera periods {:.1?} µs (raw, normalised)",
        tally.frames, tally.refresh, tally.gated, mean_gap_us
    );
    println!("{}", host.summary());
    Ok(())
}
