//! The multi-session workload: `ServeRegistry` fleets in the default
//! batched tick mode, 16 sessions each, joined one per tick so ROI
//! refreshes spread across ticks.
//!
//! A closed-loop saturation phase feeds every session one frame per tick,
//! in windows rotated over the mixed-backend fleet (capacity `fps`) and one
//! single-backend fleet per backend (`fps_<backend>`). It keeps both cores
//! busy, so it is normalised with the two-thread reference. Its tick
//! latency is a traced per-layer metric only: every frame of a tick
//! completes at the tick's end, so a run holds a few hundred independent
//! samples, and their tail moved with host stalls from run to run (slow
//! ticks showed no relation to the tick's refresh mix).
//!
//! An open-loop phase then drives every session of the mixed fleet from a
//! camera on a fixed period with a per-session phase offset, at
//! [`OPEN_UTILISATION`] of the closed-loop capacity. Each frame is timed
//! from its due time to the end of the tick that completes it
//! (`open_p50_us` / `open_p99_us`) and from that tick's start (its service
//! time, `p50_us` / `p99_us`). At this load most ticks carry one frame,
//! which one thread serves, so the phase is normalised with the one-thread
//! reference. (At 60% load the fleet drifted between small and large
//! batches from run to run and its latency tail spread by more than 100%.)

use crate::host::{Host, Phase};
use crate::report::{open_phase_running, Latency, Meter, Report, Samples, Windows, MIN_SAMPLES};
use crate::setup::{self, Fleet, Motion, Traffic, FLEET};
use crate::stream::{counter, repeated_setup};
use eyecod_core::tracker::GazeBackend;
use std::collections::VecDeque;
use std::time::Instant;

/// Ticks per measured closed-loop window.
const WINDOW_TICKS: usize = 4;

/// Frames each session's camera offers per open-loop window.
const OPEN_FRAMES: u64 = 6;

/// Open-loop offered load as a share of the fleet's closed-loop capacity.
const OPEN_UTILISATION: f64 = 0.3;

/// Share of the measured time spent in the closed-loop phase.
const CLOSED_SHARE: f64 = 0.6;

/// Per-call serve timings, kept only by the traced run.
#[derive(Default)]
pub struct ServeTrace {
    pub feed: Latency,
    pub tick: Latency,
    pub ticks: u64,
    pub staged: u64,
    pub f32_forwards: u64,
    pub int8_forwards: u64,
    pub latent_forwards: u64,
    pub queue_wait: Latency,
    pub generator_late: Latency,
}

/// Frame tallies of the fleet phases.
#[derive(Default)]
pub struct FleetTally {
    pub offered: u64,
    pub completed: u64,
    pub shed: u64,
    /// Dense Tikhonov solves the completed frames imply.
    pub solves: u64,
}

fn implied_solve(backend: GazeBackend, frame: u64) -> u64 {
    (backend != GazeBackend::Latent || setup::refresh_due(frame)) as u64
}

/// Raw per-call serve samples of a traced closed-loop phase.
#[derive(Default)]
struct CallSamples {
    feed: Samples,
    tick: Samples,
}

/// One closed-loop round: every session is fed one frame, then the
/// registry ticks once.
fn closed_round(
    fleet: &mut Fleet,
    traffic: &Traffic,
    window: usize,
    tally: &mut FleetTally,
    errors: &mut Vec<String>,
    mut trace: Option<(&mut ServeTrace, &mut CallSamples)>,
) {
    let n = fleet.ids.len();
    for s in 0..n {
        let c0 = trace.is_some().then(Instant::now);
        fleet.feed_one(s, traffic);
        if let (Some((_, calls)), Some(c0)) = (trace.as_mut(), c0) {
            calls.feed.push(window, c0.elapsed().as_secs_f64());
        }
    }
    let c0 = Instant::now();
    let rep = fleet.registry.tick();
    if let Some((tr, calls)) = trace {
        calls.tick.push(window, c0.elapsed().as_secs_f64());
        tr.ticks += 1;
        tr.staged += rep.staged as u64;
        tr.f32_forwards += rep.f32_forwards as u64;
        tr.int8_forwards += rep.int8_forwards as u64;
        tr.latent_forwards += rep.latent_forwards as u64;
    }
    if rep.staged != n || rep.completed != n {
        errors.push(format!(
            "closed-loop tick staged {} completed {} of {n}",
            rep.staged, rep.completed
        ));
    }
    tally.offered += n as u64;
    tally.completed += rep.completed as u64;
    for s in 0..n {
        // closed loop never sheds, so the frame just fed is the one done
        tally.solves += implied_solve(fleet.backends[s], fleet.fed[s] - 1);
    }
}

/// Closed-loop windows of [`WINDOW_TICKS`] ticks on the fleets in
/// `rotation` order (indices into `fleets`) until `seconds` have passed.
/// Returns each fleet's capacity.
#[allow(clippy::too_many_arguments)]
pub fn closed_phase(
    host: &mut Host,
    fleets: &mut [Fleet],
    rotation: &[usize],
    traffic: &Traffic,
    seconds: f64,
    tally: &mut FleetTally,
    errors: &mut Vec<String>,
    mut trace: Option<&mut ServeTrace>,
) -> Result<Vec<Meter>, String> {
    let mut phase = Phase::begin(host, 2)?;
    let mut windows = vec![Windows::default(); fleets.len()];
    let mut calls = CallSamples::default();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        for &k in rotation {
            let w = phase.window();
            let w0 = Instant::now();
            for _ in 0..WINDOW_TICKS {
                let tr = trace.as_deref_mut().map(|t| (t, &mut calls));
                closed_round(&mut fleets[k], traffic, w, tally, errors, tr);
            }
            windows[k].push(
                w,
                (WINDOW_TICKS * fleets[k].ids.len()) as u64,
                w0.elapsed().as_secs_f64(),
            );
            phase.close(host)?;
            check_outputs(&fleets[k], errors);
        }
    }
    let factors = phase.factors();
    if let Some(t) = trace {
        t.feed = calls.feed.normalise(&factors);
        t.tick = calls.tick.normalise(&factors);
    }
    Ok(windows.iter().map(|w| w.meter(&factors)).collect())
}

/// Every session's most recent output has a finite gaze.
fn check_outputs(fleet: &Fleet, errors: &mut Vec<String>) {
    for &id in &fleet.ids {
        let snap = fleet.registry.snapshot(id).expect("live session");
        if let Some(last) = snap.last {
            let g = last.gaze;
            if !(g.x.is_finite() && g.y.is_finite() && g.z.is_finite()) {
                errors.push(format!(
                    "session {id:?} frame {}: non-finite gaze",
                    last.frame
                ));
            }
        }
    }
}

/// Open-loop windows until `seconds` have passed: each session's camera
/// offers [`OPEN_FRAMES`] frames on a fixed period with a per-session phase
/// offset. The offered rate is [`OPEN_UTILISATION`] of `raw_capacity`, the
/// raw frames/s of the closed loop that ran just before. (This phase is
/// rated against the one-thread reference, the closed loop against the
/// two-thread one, so their factors do not compare; a single reference
/// window is also too noisy to rescale the rate by.) Returns each frame's
/// latency from its due time to the end of the tick that completes it (a
/// shed frame is a miss, `+inf`), each completed frame's service time (its
/// tick's duration), and the number of latency samples.
#[allow(clippy::too_many_arguments)]
pub fn open_phase(
    host: &mut Host,
    fleet: &mut Fleet,
    traffic: &Traffic,
    raw_capacity: f64,
    seconds: f64,
    tally: &mut FleetTally,
    errors: &mut Vec<String>,
    trace: Option<&mut ServeTrace>,
) -> Result<(Latency, Latency, usize), String> {
    let n = fleet.ids.len();
    let mut phase = Phase::begin(host, 1)?;
    let period = n as f64 / (OPEN_UTILISATION * raw_capacity);
    let due = |s: usize, k: u64| (k as f64 + s as f64 / n as f64) * period;
    let (mut lat, mut service) = (Samples::default(), Samples::default());
    let (mut queue_wait, mut generator_late) = (Samples::default(), Samples::default());
    let mut pending: Vec<VecDeque<f64>> = vec![VecDeque::new(); n];
    // each session's next frame index inside the tracker (shed frames
    // consume an index when they are shed)
    let mut index: Vec<u64> = fleet.fed.clone();
    let t0 = Instant::now();
    while open_phase_running(t0.elapsed().as_secs_f64(), seconds, lat.len()) {
        let w = phase.window();
        let mut next_k = vec![0u64; n];
        let start = Instant::now();
        loop {
            let now = start.elapsed().as_secs_f64();
            for s in 0..n {
                while next_k[s] < OPEN_FRAMES && due(s, next_k[s]) <= now {
                    let d = due(s, next_k[s]);
                    next_k[s] += 1;
                    let out = fleet.feed_one(s, traffic);
                    tally.offered += 1;
                    generator_late.push(w, now - d);
                    if out.was_shed() {
                        pending[s].pop_front();
                        index[s] += 1;
                        tally.shed += 1;
                        lat.push(w, f64::INFINITY);
                    }
                    pending[s].push_back(d);
                }
            }
            if pending.iter().any(|q| !q.is_empty()) {
                let ts = start.elapsed().as_secs_f64();
                let rep = fleet.registry.tick();
                let te = start.elapsed().as_secs_f64();
                let mut done = 0;
                for s in 0..n {
                    if let Some(d) = pending[s].pop_front() {
                        done += 1;
                        lat.push(w, te - d);
                        service.push(w, te - ts);
                        queue_wait.push(w, ts - d);
                        tally.solves += implied_solve(fleet.backends[s], index[s]);
                        index[s] += 1;
                    }
                }
                if rep.completed != done {
                    errors.push(format!(
                        "open-loop tick completed {} but {done} were queued",
                        rep.completed
                    ));
                }
                tally.completed += rep.completed as u64;
            } else if next_k.iter().all(|&k| k == OPEN_FRAMES) {
                break;
            } else {
                let next_due = (0..n)
                    .filter(|&s| next_k[s] < OPEN_FRAMES)
                    .map(|s| due(s, next_k[s]))
                    .fold(f64::INFINITY, f64::min);
                crate::host::wait_until(start, next_due);
            }
        }
        phase.close(host)?;
        check_outputs(fleet, errors);
    }
    let factors = phase.factors();
    if let Some(t) = trace {
        t.queue_wait = queue_wait.normalise(&factors);
        t.generator_late = generator_late.normalise(&factors);
    }
    Ok((
        lat.normalise(&factors),
        service.normalise(&factors),
        lat.len(),
    ))
}

/// Builds the fleets on a fresh training run and traffic (the part of
/// set-up the fleet workload repeats): the mixed-backend fleet first, then
/// one single-backend fleet per backend.
fn build(seed: u64) -> (Vec<Fleet>, Traffic) {
    let config = setup::serve_config();
    let models = setup::train(&config.tracker);
    let traffic = Traffic::render(seed, Motion::Saccadic, config.tracker.scene_size);
    let mut compositions = vec![setup::mixed_backends(FLEET)];
    compositions.extend(setup::BACKENDS.map(|b| vec![b; FLEET]));
    let fleets = compositions
        .into_iter()
        .map(|backends| Fleet::join(config.clone(), &models, backends, &traffic))
        .collect();
    (fleets, traffic)
}

/// Ticks of the accuracy pass.
const EVAL_TICKS: usize = 25;

/// Mean angular error of the fleet over [`EVAL_TICKS`] closed-loop ticks
/// (deterministic in the seed: batching never changes results).
fn eval_pass(fleet: &mut Fleet, traffic: &Traffic, errors: &mut Vec<String>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for _ in 0..EVAL_TICKS {
        fleet.feed_all(traffic);
        let (_, done) = fleet.registry.tick_traced();
        for (id, out) in done {
            let s = fleet
                .ids
                .iter()
                .position(|&x| x == id)
                .expect("fleet session");
            let g = out.gaze;
            if !(g.x.is_finite() && g.y.is_finite() && g.z.is_finite()) {
                errors.push(format!("session {s} frame {}: non-finite gaze", out.frame));
            }
            let truth = traffic.truth(fleet.frame_of(s, out.frame));
            sum += out.gaze.angular_error_degrees(&truth) as f64;
            n += 1;
        }
    }
    sum / n as f64
}

/// The fleet workload's end-to-end run.
pub fn run(seed: u64, seconds: f64, reps: usize, report: &mut Report) -> Result<(), String> {
    let mut host = Host::new()?;
    let ((mut fleets, traffic), setup_norm, setup_raw) =
        repeated_setup(&mut host, reps, || build(seed))?;
    let gaze_err = eval_pass(&mut fleets[0], &traffic, &mut report.errors);

    let stats0 = fleets[0].registry.fleet_stats();
    let solves0 = counter("optics/recon_solves");
    let mut tally = FleetTally::default();
    // the mixed fleet gets every other window
    let closed = closed_phase(
        &mut host,
        &mut fleets,
        &[0, 1, 0, 2, 0, 3],
        &traffic,
        seconds * CLOSED_SHARE,
        &mut tally,
        &mut report.errors,
        None,
    )?;
    let closed_offered = tally.offered;
    let (open, service, open_samples) = open_phase(
        &mut host,
        &mut fleets[0],
        &traffic,
        closed[0].raw_fps(),
        seconds * (1.0 - CLOSED_SHARE),
        &mut tally,
        &mut report.errors,
        None,
    )?;
    let stats1 = fleets[0].registry.fleet_stats();
    let mixed_offered = closed[0].frames + tally.offered - closed_offered;

    let solves = counter("optics/recon_solves") - solves0;
    report.check(solves == tally.solves, || {
        format!(
            "optics/recon_solves moved by {solves}, frames imply {}",
            tally.solves
        )
    });
    report.check(tally.completed + tally.shed == tally.offered, || {
        format!(
            "completed {} + shed {} != offered {}",
            tally.completed, tally.shed, tally.offered
        )
    });
    report.check(open_samples >= MIN_SAMPLES, || {
        format!("only {open_samples} open-loop latency samples")
    });
    report.attempted = tally.offered;

    report.timed("setup_s", setup_norm, setup_raw, "s");
    report.timed("fps", closed[0].fps(), closed[0].raw_fps(), "1/s");
    for (m, name) in closed[1..]
        .iter()
        .zip(["fps_f32", "fps_int8", "fps_latent"])
    {
        report.timed(name, m.fps(), m.raw_fps(), "1/s");
    }
    report.quantiles(["p50_us", "p99_us"], &service);
    report.quantiles(["open_p50_us", "open_p99_us"], &open);
    report.plain("gaze_err_deg", gaze_err, "deg");
    let ok = (stats1.frames_ok - stats0.frames_ok) as f64;
    report.plain("ok_frac", ok / mixed_offered as f64, "ratio");
    report.plain("peak_rss_mb", crate::host::peak_rss_mb()?, "MiB");
    println!(
        "offered {} completed {} shed {} solves {solves}; open-loop samples {open_samples}",
        tally.offered, tally.completed, tally.shed
    );
    println!("{}", host.summary());
    Ok(())
}
