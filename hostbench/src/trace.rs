//! The traced run: the per-stage and per-layer numbers.
//!
//! Spans come from the benchmark's own code around each public stage call
//! (`begin_frame` → `capture_stage` → `recon_stage` → `roi_stage` →
//! `crop_stage` → gaze forward → `complete_stage`), timed as siblings under
//! one frame span. The gaze forward is called directly on the network the
//! tracker would run: `ProxyGazeNet::forward_infer` (f32, and latent
//! refresh frames), `QuantizedGazeNet::forward_into` from
//! `tracker.quantized_gaze()` (int8) and `LatentGazeNet::forward_infer`
//! (latent steady-state frames). A twin tracker runs the same frames through
//! `process_frame` untraced; every traced output must be bit-identical to
//! its twin's, and the twin's throughput gives the tracing overhead.

use crate::fleet::{self, FleetTally, ServeTrace};
use crate::host::{bracketed, Host, Phase};
use crate::report::{mean, Report, Windows};
use crate::setup::{self, backend_name, Fleet, Motion, Traffic, BACKENDS, FLEET, WARMUP_FRAMES};
use crate::stream::{counter, StreamMode, Tally};
use eyecod_accel::cost::{model_cost, total_cycles};
use eyecod_accel::AcceleratorConfig;
use eyecod_core::acquisition::AcquireScratch;
use eyecod_core::tracker::{EyeTracker, GazeBackend, TrackedFrame};
use eyecod_core::training::TrackerModels;
use eyecod_models::infer::GazeInferWorkspace;
use eyecod_tensor::{Shape, Tensor};
use std::time::Instant;

/// Stage spans, in report order.
#[derive(Clone, Copy)]
enum Stage {
    Capture,
    Recon,
    Roi,
    Crop,
    GazeF32,
    GazeInt8,
    GazeLatent,
    Complete,
    Frame,
}
const STAGES: usize = 9;

/// The caller-owned buffers the stage API borrows.
struct Buffers {
    acquire: AcquireScratch,
    image: Tensor,
    crop: Tensor,
    gaze_in: Tensor,
    pred: Tensor,
    infer: GazeInferWorkspace,
}

impl Buffers {
    fn new() -> Self {
        let t = || Tensor::zeros(Shape::new(1, 1, 1, 1));
        Buffers {
            acquire: AcquireScratch::new(),
            image: t(),
            crop: t(),
            gaze_in: t(),
            pred: t(),
            infer: GazeInferWorkspace::new(),
        }
    }
}

/// Raw span sums and call counts of one window.
#[derive(Default, Clone, Copy)]
struct Spans {
    raw: [f64; STAGES],
    calls: [u64; STAGES],
}

impl Spans {
    fn add(&mut self, stage: Stage, t0: Instant, t1: Instant) {
        self.raw[stage as usize] += (t1 - t0).as_secs_f64();
        self.calls[stage as usize] += 1;
    }
}

/// Per-frame facts the traced loop counts beside the tracker's output.
#[derive(Default)]
struct StageCounts {
    frames: u64,
    refresh: u64,
    gated: u64,
    sparse: u64,
}

/// Runs one frame of `t` through the stage API with spans around each call.
fn traced_frame(
    t: &mut EyeTracker,
    models: &TrackerModels,
    buf: &mut Buffers,
    traffic: &Traffic,
    spans: &mut Spans,
    counts: &mut StageCounts,
) -> TrackedFrame {
    let i = t.frames_processed();
    let (scene, seed) = (traffic.scene(i), traffic.noise_seed(i));
    let backend = t.config().gaze_backend;
    let delta = t.config().delta;
    let t0 = Instant::now();
    let mut cur = t.begin_frame(scene);
    let t1 = Instant::now();
    t.capture_stage(&mut cur, scene, seed, &mut buf.acquire);
    let t2 = Instant::now();
    spans.add(Stage::Capture, t1, t2);
    let gated = cur.gaze_skipped();
    t.recon_stage(&mut cur, scene, seed, &mut buf.acquire, &mut buf.image);
    let t3 = Instant::now();
    if !gated {
        spans.add(Stage::Recon, t2, t3);
    }
    let refresh = cur.due() && cur.has_gaze_input();
    t.roi_stage(&mut cur, &buf.image);
    let t4 = Instant::now();
    if refresh {
        spans.add(Stage::Roi, t3, t4);
    }
    t.crop_stage(&cur, &buf.image, &mut buf.crop, &mut buf.gaze_in);
    let t5 = Instant::now();
    if cur.has_gaze_input() {
        spans.add(Stage::Crop, t4, t5);
        let stage = match backend {
            GazeBackend::F32 => {
                models
                    .gaze
                    .forward_infer(&buf.gaze_in, &mut buf.infer, &mut buf.pred);
                Stage::GazeF32
            }
            GazeBackend::Int8 => {
                t.quantized_gaze()
                    .expect("int8 tracker is calibrated after warm-up")
                    .forward_into(&buf.gaze_in, &mut buf.infer, &mut buf.pred);
                Stage::GazeInt8
            }
            GazeBackend::Latent if !cur.due() => {
                models
                    .latent
                    .forward_infer(&buf.gaze_in, &mut buf.infer, &mut buf.pred);
                Stage::GazeLatent
            }
            GazeBackend::Latent => {
                models
                    .gaze
                    .forward_infer(&buf.gaze_in, &mut buf.infer, &mut buf.pred);
                Stage::GazeF32
            }
        };
        spans.add(stage, t5, Instant::now());
    }
    let t6 = Instant::now();
    let out = t.complete_stage(cur, &mut buf.pred);
    let t7 = Instant::now();
    spans.add(Stage::Complete, t6, t7);
    spans.add(Stage::Frame, t0, t7);
    counts.frames += 1;
    counts.refresh += out.roi_refreshed as u64;
    counts.gated += gated as u64;
    counts.sparse += (delta && !setup::refresh_due(i) && !gated) as u64;
    out
}

/// Whether two outputs of the same frame are bit-identical.
fn same(a: &TrackedFrame, b: &TrackedFrame) -> bool {
    let bits = |f: &TrackedFrame| [f.gaze.x.to_bits(), f.gaze.y.to_bits(), f.gaze.z.to_bits()];
    bits(a) == bits(b)
        && a.frame == b.frame
        && a.roi == b.roi
        && a.roi_refreshed == b.roi_refreshed
        && a.gaze_skipped == b.gaze_skipped
        && a.gaze_degenerate == b.gaze_degenerate
        && a.quality == b.quality
}

/// Share of the measured time the stage run gets (the rest goes to the
/// fleet phase).
fn stage_share(fleet_workload: bool) -> f64 {
    if fleet_workload {
        0.3
    } else {
        0.7
    }
}

/// The traced run of any workload.
pub fn run(
    seed: u64,
    seconds: f64,
    mode: StreamMode,
    fleet_workload: bool,
    report: &mut Report,
) -> Result<(), String> {
    let mut host = Host::new()?;

    // set-up, with its parts timed against the one-thread reference, as the
    // end-to-end set-up is (see `stream::repeated_setup`)
    let config = setup::tracker_config(GazeBackend::F32, mode.delta);
    fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        (f(), t0.elapsed().as_secs_f64())
    }
    let ((models, train_raw), f_train) =
        bracketed(&mut host, 1, || timed(|| setup::train(&config)))?;
    let ((acquisition, acq_raw), f_acq) = bracketed(&mut host, 1, || {
        timed(|| EyeTracker::build_acquisition(&config))
    })?;
    let (traffic, f_render) = bracketed(&mut host, 1, || {
        Traffic::render(seed, mode.motion, config.scene_size)
    })?;
    let render_us = traffic.render_us;
    let warm = |b| {
        let mut t = setup::stream_tracker(b, mode.delta, &models, &acquisition);
        for _ in 0..WARMUP_FRAMES {
            let i = t.frames_processed();
            t.process_frame(traffic.scene(i), traffic.noise_seed(i));
        }
        t
    };
    let mut twins: Vec<EyeTracker> = BACKENDS.iter().map(|&b| warm(b)).collect();
    let mut traced: Vec<EyeTracker> = BACKENDS.iter().map(|&b| warm(b)).collect();
    let mut bufs: Vec<Buffers> = BACKENDS.iter().map(|_| Buffers::new()).collect();

    // stage phase
    let solves0 = counter("optics/recon_solves");
    let skipped0 = counter("tracker/gaze_skipped");
    let delta0 = counter("tracker/delta_frames");
    let mut tally = Tally::default();
    let mut counts = StageCounts::default();
    let mut stage_windows: [Windows; STAGES] = Default::default();
    let mut untraced = Windows::default();
    let mut traced_windows = Windows::default();
    let mut twin_out = Vec::with_capacity(mode.window as usize);
    let mut mismatches = 0u64;
    let mut phase = Phase::begin(&mut host, 1)?;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds * stage_share(fleet_workload) {
        for b in 0..BACKENDS.len() {
            twin_out.clear();
            let w0 = Instant::now();
            for _ in 0..mode.window {
                let t = &mut twins[b];
                let i = t.frames_processed();
                twin_out.push(t.process_frame(traffic.scene(i), traffic.noise_seed(i)));
            }
            untraced.push(phase.window(), mode.window, w0.elapsed().as_secs_f64());
            phase.close(&mut host)?;

            let mut spans = Spans::default();
            let w1 = Instant::now();
            for twin in &twin_out {
                let out = traced_frame(
                    &mut traced[b],
                    &models,
                    &mut bufs[b],
                    &traffic,
                    &mut spans,
                    &mut counts,
                );
                tally.frame(&out, BACKENDS[b], mode.delta, &mut report.errors);
                if !same(&out, twin) {
                    mismatches += 1;
                    report.errors.push(format!(
                        "{} frame {}: traced output {:?} differs from process_frame {:?}",
                        backend_name(BACKENDS[b]),
                        out.frame,
                        out.gaze,
                        twin.gaze
                    ));
                }
            }
            let w = phase.window();
            traced_windows.push(w, mode.window, w1.elapsed().as_secs_f64());
            for (st, win) in stage_windows.iter_mut().enumerate() {
                win.push(w, spans.calls[st], spans.raw[st]);
            }
            phase.close(&mut host)?;
        }
    }
    let factors = phase.factors();
    let norm = stage_windows.each_ref().map(|w| w.meter(&factors));
    let untraced = untraced.meter(&factors);
    let traced_meter = traced_windows.meter(&factors);
    // both twins ran every frame, so each program counter moved twice what
    // the traced frames imply
    let solves = counter("optics/recon_solves") - solves0;
    let skipped = counter("tracker/gaze_skipped") - skipped0;
    let sparse = counter("tracker/delta_frames") - delta0;
    report.check(solves == 2 * tally.solves, || {
        format!(
            "optics/recon_solves moved by {solves}, frames imply 2 x {}",
            tally.solves
        )
    });
    report.check(skipped == 2 * counts.gated, || {
        format!(
            "tracker/gaze_skipped moved by {skipped}, frames show 2 x {} gated",
            counts.gated
        )
    });
    report.check(sparse == 2 * counts.sparse, || {
        format!(
            "tracker/delta_frames moved by {sparse}, frames show 2 x {} sparse",
            counts.sparse
        )
    });
    report.check(
        counts.gated + counts.sparse + counts.refresh == counts.frames || !mode.delta,
        || {
            format!(
                "gated {} + sparse {} + refresh {} != frames {}",
                counts.gated, counts.sparse, counts.refresh, counts.frames
            )
        },
    );
    let int8_spec = traced[1]
        .quantized_gaze()
        .expect("int8 tracker is calibrated")
        .model_spec(config.gaze_input.0, config.gaze_input.1);

    // fleet phase: the mixed fleet on saccadic traffic
    let fleet_traffic = if mode.motion == Motion::Saccadic {
        traffic
    } else {
        Traffic::render(seed, Motion::Saccadic, config.scene_size)
    };
    let mut fleets = vec![Fleet::join(
        setup::serve_config(),
        &models,
        setup::mixed_backends(FLEET),
        &fleet_traffic,
    )];
    let fleet_s = seconds * (1.0 - stage_share(fleet_workload));
    let mut serve = ServeTrace::default();
    let mut ftally = FleetTally::default();
    let closed = fleet::closed_phase(
        &mut host,
        &mut fleets,
        &[0],
        &fleet_traffic,
        fleet_s * 0.6,
        &mut ftally,
        &mut report.errors,
        Some(&mut serve),
    )?;
    fleet::open_phase(
        &mut host,
        &mut fleets[0],
        &fleet_traffic,
        closed[0].raw_fps(),
        fleet_s * 0.4,
        &mut ftally,
        &mut report.errors,
        Some(&mut serve),
    )?;
    report.check(ftally.completed + ftally.shed == ftally.offered, || {
        format!(
            "fleet completed {} + shed {} != offered {}",
            ftally.completed, ftally.shed, ftally.offered
        )
    });
    report.attempted = tally.frames + ftally.offered;
    report.failed = tally.bad.max(mismatches);

    // metrics
    for (name, s) in [
        ("core.capture_us", Stage::Capture),
        ("core.recon_us", Stage::Recon),
        ("core.roi_us", Stage::Roi),
        ("core.crop_us", Stage::Crop),
        ("core.complete_us", Stage::Complete),
        ("models.gaze_f32_us", Stage::GazeF32),
        ("models.gaze_int8_us", Stage::GazeInt8),
        ("models.gaze_latent_us", Stage::GazeLatent),
    ] {
        let (n, r) = norm[s as usize].mean_us();
        report.timed(name, n, r, "us");
    }
    report.plain("core.frames", counts.frames as f64, "count");
    report.plain("core.refresh_frames", counts.refresh as f64, "count");
    report.plain("core.gated_frames", counts.gated as f64, "count");
    report.plain("core.sparse_frames", counts.sparse as f64, "count");
    report.plain(
        "core.gated_ratio",
        counts.gated as f64 / counts.frames as f64,
        "ratio",
    );
    report.quantiles(["serve.tick_p50_us", "serve.tick_p99_us"], &serve.tick);
    let (feed_raw, feed) = serve.feed.mean();
    report.timed("serve.feed_us", feed, feed_raw, "us");
    let per_tick = |v: u64| v as f64 / serve.ticks as f64;
    report.plain("serve.staged_per_tick", per_tick(serve.staged), "count");
    report.plain("serve.f32_forwards", per_tick(serve.f32_forwards), "count");
    report.plain(
        "serve.int8_forwards",
        per_tick(serve.int8_forwards),
        "count",
    );
    report.plain(
        "serve.latent_forwards",
        per_tick(serve.latent_forwards),
        "count",
    );
    let (wait_raw, wait) = serve.queue_wait.mean();
    report.timed("serve.queue_wait_us", wait, wait_raw, "us");
    report.plain("serve.shed", ftally.shed as f64, "count");
    let (late_raw, late) = serve.generator_late.mean();
    report.timed("serve.generator_late_us", late, late_raw, "us");
    report.timed("eyedata.render_us", render_us * f_render, render_us, "us");
    report.timed("core.train_s", train_raw * f_train, train_raw, "s");
    report.timed("core.acquisition_build_s", acq_raw * f_acq, acq_raw, "s");
    report.plain("bench.host_factor", mean(&host.factors[0]), "ratio");
    report.plain(
        "bench.trace_overhead",
        untraced.fps() / traced_meter.fps(),
        "ratio",
    );
    // the frame span minus its sibling stage spans: begin_frame plus the
    // benchmark's own timing overhead
    let mut remainder = norm[Stage::Frame as usize];
    for m in &norm[..Stage::Frame as usize] {
        remainder.norm_s -= m.norm_s;
        remainder.raw_s -= m.raw_s;
    }
    let (rem, rem_raw) = remainder.mean_us();
    report.timed("bench.span_remainder_us", rem, rem_raw, "us");
    let accel = AcceleratorConfig::paper_default();
    let costs = model_cost(&int8_spec.layers, accel.mac_lanes, &accel);
    report.plain(
        "accel.gaze_int8_cycles",
        total_cycles(&costs) as f64,
        "cycles",
    );
    report.plain("accel.gaze_int8_macs", int8_spec.macs() as f64, "count");
    println!(
        "stage frames {} (refresh {}, gated {}, sparse {}); untraced fps {:.1} traced fps {:.1}; fleet offered {} shed {}",
        counts.frames,
        counts.refresh,
        counts.gated,
        counts.sparse,
        untraced.fps(),
        traced_meter.fps(),
        ftally.offered,
        ftally.shed
    );
    println!("{}", host.summary());
    Ok(())
}
