//! Host-speed normalisation: a fixed reference kernel interleaved with the
//! measured windows, a quiescence guard around every reference window, and
//! the host fingerprint recorded with every run.
//!
//! The kernel lives only here and never calls repository code, so a change
//! to the program under test cannot move the yardstick. A measured span is
//! reported at reference host speed:
//!
//! ```text
//! t_norm = t_raw × measured_ref_rate / NOMINAL_REF_RATE
//! ```
//!
//! where `measured_ref_rate` is the kernel's rate per thread in the
//! reference windows around the span. Single-threaded phases use a
//! one-thread reference; phases that use the pool use a reference running
//! on both cores at once, rated by its slower thread.

use std::hint::black_box;
use std::time::Instant;

/// Per-thread reference-kernel rate (iterations/s) that defines "reference
/// host speed", a host factor of 1.0, for the one-thread and the two-thread
/// reference. Close to the median rates of the 2-core KVM host the
/// benchmark was tuned on (its two vCPUs slow each other down when both
/// run), so normalised values read like raw values on a typical window
/// there.
pub const NOMINAL_REF_RATE: [f64; 2] = [12000.0, 8500.0];

/// Side of the reference matmul (`N×N` f64, `N³` multiply-adds per
/// iteration).
const N: usize = 64;

/// Iterations per thread in one reference window (~8 ms at nominal speed).
const REF_ITERS: usize = 100;

/// Run time other threads of the process may get during a reference window
/// before the guard throws the window away: fixed slack for a pool worker
/// going back to sleep, plus a share of the window.
const BUSY_SLACK_S: f64 = 0.0005;
const BUSY_SHARE: f64 = 0.05;

/// Busy reference windows in a row that fail the run. A pool worker going
/// back to sleep is sometimes charged a few ms when the hypervisor
/// preempts it, about once in 400 windows; a spinning worker is busy in
/// every window.
const GUARD_ATTEMPTS: usize = 3;

/// The fixed reference kernel: `C = A·B` over 64×64 f64 matrices.
struct Kernel {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl Kernel {
    fn new() -> Self {
        let a = (0..N * N)
            .map(|i| ((i * 7 % 13) as f64 - 6.0) / 8.0)
            .collect();
        let b = (0..N * N)
            .map(|i| ((i * 5 % 11) as f64 - 5.0) / 8.0)
            .collect();
        Kernel {
            a,
            b,
            c: vec![0.0; N * N],
        }
    }

    fn iterate(&mut self, iters: usize) -> f64 {
        let mut check = 0.0;
        for _ in 0..iters {
            self.c.fill(0.0);
            let (a, b) = (black_box(&self.a), black_box(&self.b));
            for i in 0..N {
                let row = &mut self.c[i * N..(i + 1) * N];
                for k in 0..N {
                    let aik = a[i * N + k];
                    let brow = &b[k * N..(k + 1) * N];
                    for (cj, bj) in row.iter_mut().zip(brow) {
                        *cj += aik * bj;
                    }
                }
            }
            check += black_box(self.c[N + 1]);
        }
        check
    }

    /// Runs `iters` iterations; returns the rate (iterations/s wall).
    fn rate(&mut self, iters: usize) -> f64 {
        let t0 = Instant::now();
        black_box(self.iterate(iters));
        iters as f64 / t0.elapsed().as_secs_f64()
    }
}

/// Run time (ns, from `/proc/self/task/<tid>/schedstat`) of every thread of
/// the process except `skip`, by thread id.
fn thread_runtimes(skip: &str) -> Result<Vec<(String, u64)>, String> {
    let dir =
        std::fs::read_dir("/proc/self/task").map_err(|e| format!("cannot list threads: {e}"))?;
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let tid = entry.file_name().to_string_lossy().into_owned();
        if tid == skip {
            continue;
        }
        // a thread may exit between the listing and the read
        if let Ok(stat) = std::fs::read_to_string(entry.path().join("schedstat")) {
            let ns = stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("unparsable schedstat {stat:?}"))?;
            out.push((tid, ns));
        }
    }
    Ok(out)
}

/// The host-speed yardstick for one run: measures reference windows and
/// keeps every measured factor for the report.
pub struct Host {
    kernel: Kernel,
    /// Thread id of the thread that runs the reference windows.
    tid: String,
    /// Every host factor measured this run, per thread count (index 0: one
    /// thread, index 1: two threads).
    pub factors: [Vec<f64>; 2],
    /// Largest run time (s) other threads of the process got during a
    /// reference window.
    pub max_busy_s: f64,
    /// Reference windows thrown away because another thread ran.
    pub busy_windows: u64,
}

impl Host {
    pub fn new() -> Result<Self, String> {
        let link = std::fs::read_link("/proc/thread-self")
            .map_err(|e| format!("cannot resolve own thread id: {e}"))?;
        let tid = link
            .file_name()
            .map(|t| t.to_string_lossy().into_owned())
            .ok_or("no thread id in /proc/thread-self")?;
        let mut kernel = Kernel::new();
        // fault in the pages and settle the caches
        black_box(kernel.iterate(4));
        Ok(Host {
            kernel,
            tid,
            factors: [Vec::new(), Vec::new()],
            max_busy_s: 0.0,
            busy_windows: 0,
        })
    }

    /// One line on the reference windows of the run.
    pub fn summary(&self) -> String {
        let med = |v: &[f64]| {
            if v.is_empty() {
                f64::NAN
            } else {
                crate::report::median(v)
            }
        };
        format!(
            "host factor median 1-thread {:.4} ({} windows), 2-thread {:.4} ({} windows); \
             {} busy windows re-measured, max other-thread run time {:.3} ms",
            med(&self.factors[0]),
            self.factors[0].len(),
            med(&self.factors[1]),
            self.factors[1].len(),
            self.busy_windows,
            self.max_busy_s * 1e3
        )
    }

    /// Runs one reference window on `threads` (1 or 2) threads at once and
    /// returns the host factor `measured_ref_rate / NOMINAL_REF_RATE`.
    ///
    /// A window during which another thread of the process ran is thrown
    /// away and measured again; the run fails when [`GUARD_ATTEMPTS`]
    /// windows in a row were busy (a spinning pool worker would slow the
    /// reference and inflate every normalised number). The two-thread
    /// window's helper starts after the first thread snapshot and ends
    /// before the second, so it is never counted.
    pub fn factor(&mut self, threads: usize) -> Result<f64, String> {
        assert!(
            threads == 1 || threads == 2,
            "reference runs on 1 or 2 threads"
        );
        let mut last_err = String::new();
        for _ in 0..GUARD_ATTEMPTS {
            match self.window(threads)? {
                Ok(f) => {
                    self.factors[threads - 1].push(f);
                    return Ok(f);
                }
                Err(e) => {
                    self.busy_windows += 1;
                    last_err = e;
                }
            }
        }
        Err(format!("{last_err} ({GUARD_ATTEMPTS} windows in a row)"))
    }

    /// One reference window: `Ok(Ok(factor))`, or `Ok(Err(why))` when
    /// another thread ran during it.
    fn window(&mut self, threads: usize) -> Result<Result<f64, String>, String> {
        let before = thread_runtimes(&self.tid)?;
        let t0 = Instant::now();
        let rate = if threads == 1 {
            self.kernel.rate(REF_ITERS)
        } else {
            std::thread::scope(|s| {
                let helper = s.spawn(|| Kernel::new().rate(REF_ITERS));
                let mine = self.kernel.rate(REF_ITERS);
                // a pool phase advances at the pace of its slower thread
                mine.min(helper.join().expect("reference helper panicked"))
            })
        };
        let wall = t0.elapsed().as_secs_f64();
        let after = thread_runtimes(&self.tid)?;
        let busy_ns: u64 = after
            .iter()
            .filter_map(|(tid, ns)| {
                before
                    .iter()
                    .find(|(t, _)| t == tid)
                    .map(|(_, b)| ns.saturating_sub(*b))
            })
            .sum();
        let busy = busy_ns as f64 * 1e-9;
        self.max_busy_s = self.max_busy_s.max(busy);
        if busy > BUSY_SLACK_S + BUSY_SHARE * wall {
            return Ok(Err(format!(
                "quiescence guard: other threads ran {:.2} ms during a {:.1} ms \
                 {threads}-thread reference window",
                busy * 1e3,
                wall * 1e3
            )));
        }
        Ok(Ok(rate / NOMINAL_REF_RATE[threads - 1]))
    }
}

/// Reference windows on each side of a [`bracketed`] span. A set-up step
/// runs for seconds without a break, so one window per side would sample
/// the host's speed too thinly.
const BRACKET_WINDOWS: usize = 5;

/// Runs `work` between two groups of reference windows and returns its
/// result with the bracketing host factor (the median over both groups).
pub fn bracketed<R>(
    host: &mut Host,
    threads: usize,
    work: impl FnOnce() -> R,
) -> Result<(R, f64), String> {
    let mut refs = Vec::with_capacity(2 * BRACKET_WINDOWS);
    for _ in 0..BRACKET_WINDOWS {
        refs.push(host.factor(threads)?);
    }
    let out = work();
    for _ in 0..BRACKET_WINDOWS {
        refs.push(host.factor(threads)?);
    }
    Ok((out, crate::report::median(&refs)))
}

/// Reference windows on each side of a measured window's own two that its
/// factor takes the median over. The host's speed moves in stretches of
/// 0.1–1 s, longer than a window, while one 10 ms reference window is
/// noisy on its own: over repeated runs the median of the four nearest
/// reference windows gave the steadiest results (fps spread 0.02–0.05 of
/// the median, against 0.07–0.08 for the mean of the bracketing pair and
/// 0.24–0.26 raw).
const NEIGHBOURS: usize = 1;

/// The reference windows interleaved with one phase's measured windows:
/// `refs[i]` ran just before window `i` and `refs[i + 1]` just after it.
/// Measured windows keep raw times; [`Phase::factors`] turns the reference
/// windows into one host factor per measured window once the phase ends.
pub struct Phase {
    threads: usize,
    refs: Vec<f64>,
}

impl Phase {
    /// Starts a phase with its first reference window.
    pub fn begin(host: &mut Host, threads: usize) -> Result<Self, String> {
        Ok(Phase {
            threads,
            refs: vec![host.factor(threads)?],
        })
    }

    /// Closes the current measured window with a reference window.
    pub fn close(&mut self, host: &mut Host) -> Result<(), String> {
        self.refs.push(host.factor(self.threads)?);
        Ok(())
    }

    /// Index of the window being measured (windows closed so far).
    pub fn window(&self) -> usize {
        self.refs.len() - 1
    }

    /// One host factor per closed window: the median of its two bracketing
    /// reference windows and [`NEIGHBOURS`] more on each side.
    pub fn factors(&self) -> Vec<f64> {
        let last = self.refs.len() - 1;
        (0..last)
            .map(|i| {
                crate::report::median(
                    &self.refs[i.saturating_sub(NEIGHBOURS)..=(i + 1 + NEIGHBOURS).min(last)],
                )
            })
            .collect()
    }
}

/// Busy-waits until `at` seconds after `start`, reading the clock without
/// `spin_loop()`: a KVM guest spinning on `pause` is taken off its core by
/// pause-loop exiting, and the frame due next then starts cold.
pub fn wait_until(start: Instant, at: f64) {
    while start.elapsed().as_secs_f64() < at {}
}

/// A host fingerprint, printed with every run.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let (avx2, vnni) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512vnni"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, vnni) = (false, false);
    format!(
        "{{\"nproc\": {nproc}, \"avx2\": {avx2}, \"avx512_vnni\": {vnni}, \
         \"simd_avx2_enabled\": {}, \"telemetry\": {}, \"nominal_ref_rate\": {NOMINAL_REF_RATE:?}}}",
        eyecod_tensor::simd::avx2_enabled(),
        eyecod_telemetry::enabled()
    )
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {line:?}"))?;
    Ok(kb / 1024.0)
}
