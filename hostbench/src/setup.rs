//! Everything a run builds before it measures: configurations written out
//! field by field (never from `TrackerConfig::small()`, which reads
//! `EYECOD_*` variables), the reduced training run, the pre-rendered
//! traffic, and warmed trackers and fleets.

use eyecod_core::tracker::{EyeTracker, GazeBackend, RoiSizing, TrackerConfig};
use eyecod_core::training::{train_tracker_models, TrackerModels, TrainingSetup};
use eyecod_eyedata::render::{render_eye, EyeParams};
use eyecod_eyedata::{EyeMotionGenerator, GazeVector, MotionConfig};
use eyecod_faults::FaultPlan;
use eyecod_models::proxy::GazeFamily;
use eyecod_serve::{FeedOutcome, ServeConfig, ServeRegistry, SessionId, TickMode};
use eyecod_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Every gaze backend, in report order.
pub const BACKENDS: [GazeBackend; 3] = [GazeBackend::F32, GazeBackend::Int8, GazeBackend::Latent];

/// Frames per ROI refresh period.
pub const ROI_PERIOD: usize = 10;

/// Whether frame `frame` of a tracker is a scheduled ROI-refresh frame.
pub fn refresh_due(frame: u64) -> bool {
    frame.is_multiple_of(ROI_PERIOD as u64)
}

/// Frames each stream tracker runs before measurement: past the int8
/// calibration window (8 frames) and three ROI refreshes, and a multiple of
/// [`ROI_PERIOD`] so every measured window starts on a refresh frame.
pub const WARMUP_FRAMES: usize = 30;

/// Sessions per fleet.
pub const FLEET: usize = 16;

/// Pre-rendered traffic: segments of one eye's motion, each segment from a
/// fresh random eye, cycled by frame index.
pub const TRAFFIC_SEGMENTS: usize = 8;
pub const SEGMENT_FRAMES: usize = 50;

pub fn backend_name(b: GazeBackend) -> &'static str {
    match b {
        GazeBackend::F32 => "f32",
        GazeBackend::Int8 => "int8",
        GazeBackend::Latent => "latent",
    }
}

/// The working-scale tracker configuration (48×48 scene, 64×64 sensor,
/// 24×24 segmentation, 24×32 ROI and gaze input, refresh every 10 frames).
pub fn tracker_config(backend: GazeBackend, delta: bool) -> TrackerConfig {
    TrackerConfig {
        scene_size: 48,
        sensor_size: 64,
        seg_size: 24,
        roi: (24, 32),
        gaze_input: (24, 32),
        roi_period: ROI_PERIOD,
        epsilon: 1e-3,
        flatcam: true,
        mask_seed: 17,
        roi_sizing: RoiSizing::Fixed,
        gaze_backend: backend,
        calibration_frames: 8,
        delta,
        delta_threshold: 16,
        delta_epsilon: 0.05,
    }
}

/// The fleet configuration: batched ticks on the global pool.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        tracker: tracker_config(GazeBackend::F32, false),
        max_sessions: FLEET,
        queue_capacity: 4,
        mode: TickMode::Batched,
        threads: None,
    }
}

/// A fixed, reduced training run: the network shapes (and so the per-frame
/// op counts) of `TrainingSetup::quick()`, with one epoch per network.
pub fn training_setup() -> TrainingSetup {
    TrainingSetup {
        n_samples: 32,
        seg_epochs: 1,
        gaze_epochs: 1,
        batch: 6,
        seg_lr: 3e-3,
        gaze_lr: 3e-3,
        gaze_family: GazeFamily::ResNetLike,
        augment_flip: false,
        seed: 0,
    }
}

/// The motion mix of a workload's traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Motion {
    Saccadic,
    Fixation,
}

/// Pre-rendered frames with their ground truth.
pub struct Traffic {
    pub scenes: Vec<Tensor>,
    pub truths: Vec<GazeVector>,
    /// Mean wall time of one `render_eye` call (raw µs).
    pub render_us: f64,
    seed: u64,
}

impl Traffic {
    pub fn render(seed: u64, motion: Motion, scene: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0005_EED0_FEE5);
        let config = match motion {
            Motion::Saccadic => MotionConfig::saccadic(),
            Motion::Fixation => MotionConfig::fixation(),
        };
        let mut scenes = Vec::with_capacity(TRAFFIC_SEGMENTS * SEGMENT_FRAMES);
        let mut truths = Vec::with_capacity(TRAFFIC_SEGMENTS * SEGMENT_FRAMES);
        let mut render_s = 0.0;
        for seg in 0..TRAFFIC_SEGMENTS {
            let eye = EyeParams::random(&mut rng);
            let mut gen = EyeMotionGenerator::new(eye, config.clone(), seed ^ (seg as u64 + 1));
            for params in gen.take_frames(SEGMENT_FRAMES) {
                let t0 = Instant::now();
                let sample = render_eye(&params, scene, seed.wrapping_add(scenes.len() as u64));
                render_s += t0.elapsed().as_secs_f64();
                scenes.push(sample.image);
                truths.push(sample.gaze);
            }
        }
        let render_us = render_s * 1e6 / scenes.len() as f64;
        Traffic {
            scenes,
            truths,
            render_us,
            seed,
        }
    }

    pub fn len(&self) -> usize {
        self.scenes.len()
    }

    /// The scene a stream shows at frame index `i` (offset per session).
    pub fn scene(&self, i: u64) -> &Tensor {
        &self.scenes[i as usize % self.scenes.len()]
    }

    pub fn truth(&self, i: u64) -> GazeVector {
        self.truths[i as usize % self.truths.len()]
    }

    /// The sensor-noise seed of frame `i`.
    pub fn noise_seed(&self, i: u64) -> u64 {
        self.seed.wrapping_mul(1_000_003).wrapping_add(i)
    }
}

/// Trains the models with [`training_setup`] (the training corpus is
/// rendered and acquired on the pool).
pub fn train(config: &TrackerConfig) -> TrackerModels {
    train_tracker_models(&training_setup(), config)
}

/// A stream tracker with faults off (callers warm it through
/// [`WARMUP_FRAMES`]).
pub fn stream_tracker(
    backend: GazeBackend,
    delta: bool,
    models: &TrackerModels,
    acquisition: &eyecod_core::acquisition::Acquisition,
) -> EyeTracker {
    EyeTracker::with_acquisition(
        tracker_config(backend, delta),
        models.clone_models(),
        acquisition.clone(),
    )
    .with_faults(FaultPlan::none())
}

/// A fleet of [`FLEET`] sessions, joined one per tick.
pub struct Fleet {
    pub registry: ServeRegistry,
    pub ids: Vec<SessionId>,
    pub backends: Vec<GazeBackend>,
    /// Frames fed to each session so far (its next frame index).
    pub fed: Vec<u64>,
}

impl Fleet {
    /// Builds a registry and joins `backends.len()` sessions one per tick,
    /// feeding every joined session one frame per tick, so ROI refreshes
    /// spread across ticks; then ticks on until the fleet's int8
    /// calibration (if any) is done.
    pub fn join(
        config: ServeConfig,
        models: &TrackerModels,
        backends: Vec<GazeBackend>,
        traffic: &Traffic,
    ) -> Self {
        let registry =
            ServeRegistry::new(config, models.clone_models()).with_faults(FaultPlan::none());
        let mut fleet = Fleet {
            registry,
            ids: Vec::new(),
            backends: Vec::new(),
            fed: Vec::new(),
        };
        for b in &backends {
            let id = fleet
                .registry
                .create_with_backend(*b)
                .expect("fleet fits max_sessions");
            fleet.ids.push(id);
            fleet.backends.push(*b);
            fleet.fed.push(0);
            fleet.feed_all(traffic);
            fleet.registry.tick();
        }
        let wants_int8 = backends.contains(&GazeBackend::Int8);
        while wants_int8 && !fleet.registry.int8_calibrated() {
            fleet.feed_all(traffic);
            fleet.registry.tick();
        }
        fleet
    }

    /// Session `s` sees the traffic offset by a per-session stride.
    pub fn frame_of(&self, s: usize, i: u64) -> u64 {
        i + (s as u64) * 37
    }

    /// Feeds session `s` its next frame.
    pub fn feed_one(&mut self, s: usize, traffic: &Traffic) -> FeedOutcome {
        let f = self.frame_of(s, self.fed[s]);
        self.fed[s] += 1;
        self.registry
            .feed(self.ids[s], traffic.scene(f), traffic.noise_seed(f))
            .expect("live session, well-shaped scene")
    }

    /// Feeds every session its next frame (closed loop: one per tick).
    pub fn feed_all(&mut self, traffic: &Traffic) {
        for s in 0..self.ids.len() {
            self.feed_one(s, traffic);
        }
    }
}

/// Round-robin mixed backends for a fleet of `n`.
pub fn mixed_backends(n: usize) -> Vec<GazeBackend> {
    (0..n).map(|s| BACKENDS[s % BACKENDS.len()]).collect()
}
