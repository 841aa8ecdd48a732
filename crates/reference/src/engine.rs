//! The discrete-event engine before the hot-path overhaul.
//!
//! [`BaselineEngine`] is the straight-line form of `gpu_sim::Engine`:
//! pending streams sit in a `Vec` sorted by start time (binary insert per
//! arrival), every event re-sums the running set's contention from scratch
//! through `co_run_slowdowns`, progress is a scalar decrement and min-scan,
//! and retired streams keep their slots forever. It consumes the same RNG
//! protocol as the optimized engine — session factor at seeding, then one
//! noise draw and (with a fault spec installed) one spike draw per kernel
//! launch — so the two are comparable completion for completion with
//! `f64::to_bits`.

use gpu_sim::{co_run_slowdowns, GpuSpec, KernelDesc, KernelFaultSpec, NoiseModel, RunningKernel};
use workload::{fork_seed, SeededRng};

struct Stream {
    kernels: Vec<KernelDesc>,
    next: usize,
    start_ms: f64,
    end_ms: Option<f64>,
    remaining_ms: f64,
}

/// The pre-overhaul engine (see the module docs).
pub struct BaselineEngine {
    gpu: GpuSpec,
    noise: NoiseModel,
    rng: SeededRng,
    session_factor: f64,
    time_ms: f64,
    streams: Vec<Stream>,
    /// Sorted by start time descending, soonest at the back. Among equal
    /// starts the newest arrival sits nearest the back and activates
    /// first.
    pending: Vec<usize>,
    active: Vec<usize>,
    profiles: Vec<RunningKernel>,
    slowdowns: Vec<f64>,
    /// Spike spec plus its forked draw stream. The optimized engine's
    /// fault state is crate-private, so this reimplements the protocol:
    /// one unconditional `f64` draw per kernel launch from a stream forked
    /// from `(spec seed, run seed)`, window tested on engine-local time.
    faults: Option<(KernelFaultSpec, SeededRng)>,
    events: u64,
}

impl BaselineEngine {
    /// An idle engine on `gpu` with the noise stream seeded from `seed`.
    pub fn new(gpu: GpuSpec, noise: NoiseModel, seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        let session_factor = noise.session_factor(&mut rng);
        Self {
            gpu,
            noise,
            rng,
            session_factor,
            time_ms: 0.0,
            streams: Vec::new(),
            pending: Vec::new(),
            active: Vec::new(),
            profiles: Vec::new(),
            slowdowns: Vec::new(),
            faults: None,
            events: 0,
        }
    }

    /// Drop every stream and reseed the noise (and fault) streams, as if
    /// freshly constructed with `seed`.
    pub fn reset(&mut self, seed: u64) {
        self.rng = SeededRng::new(seed);
        self.session_factor = self.noise.session_factor(&mut self.rng);
        if let Some((spec, rng)) = &mut self.faults {
            *rng = SeededRng::new(fork_seed(spec.seed, seed));
        }
        self.time_ms = 0.0;
        self.events = 0;
        self.streams.clear();
        self.pending.clear();
        self.active.clear();
        self.profiles.clear();
        self.slowdowns.clear();
    }

    /// Install a kernel-spike spec for the run seeded with `run_seed`.
    pub fn set_kernel_faults(&mut self, spec: KernelFaultSpec, run_seed: u64) {
        self.faults = Some((spec, SeededRng::new(fork_seed(spec.seed, run_seed))));
    }

    /// Current simulated time, ms.
    pub fn now(&self) -> f64 {
        self.time_ms
    }

    /// Kernel completions processed since the last seeding.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Enqueue a stream starting at `start_ms` (clamped to now); returns
    /// its id.
    pub fn add_stream(&mut self, kernels: Vec<KernelDesc>, start_ms: f64) -> usize {
        let start_ms = start_ms.max(self.time_ms);
        self.streams.push(Stream {
            kernels,
            next: 0,
            start_ms,
            end_ms: None,
            remaining_ms: 0.0,
        });
        let id = self.streams.len() - 1;
        let at = self
            .pending
            .partition_point(|&i| self.streams[i].start_ms >= start_ms);
        self.pending.insert(at, id);
        id
    }

    fn activate_due_streams(&mut self) {
        while let Some(&idx) = self.pending.last() {
            if self.streams[idx].start_ms > self.time_ms + 1e-12 {
                break;
            }
            self.pending.pop();
            self.start_next_kernel(idx);
        }
    }

    fn start_next_kernel(&mut self, idx: usize) {
        loop {
            let next = self.streams[idx].next;
            if next >= self.streams[idx].kernels.len() {
                self.streams[idx].end_ms = Some(self.time_ms);
                return;
            }
            let kernel = self.streams[idx].kernels[next];
            self.streams[idx].next = next + 1;
            let kf = self.noise.kernel_factor(&mut self.rng);
            let mut dur = kernel.solo_ms(&self.gpu) * self.session_factor * kf;
            if let Some((spec, rng)) = &mut self.faults {
                let u = rng.f64();
                let spiked = u < spec.prob
                    && self.time_ms >= spec.window_start_ms
                    && self.time_ms < spec.window_end_ms;
                dur *= if spiked { spec.factor } else { 1.0 };
            }
            if dur <= 0.0 {
                continue;
            }
            self.streams[idx].remaining_ms = dur;
            self.active.push(idx);
            self.profiles
                .push(RunningKernel::profile(&kernel, &self.gpu));
            return;
        }
    }

    /// Advance until the next stream completes; `(id, start, end)`, or
    /// `None` once the engine is idle with nothing pending.
    pub fn step(&mut self) -> Option<(usize, f64, f64)> {
        loop {
            self.activate_due_streams();
            if self.active.is_empty() {
                let &idx = self.pending.last()?;
                self.time_ms = self.streams[idx].start_ms;
                continue;
            }
            // Re-sum the whole running set every event.
            co_run_slowdowns(&self.profiles, &mut self.slowdowns);
            let mut dt = f64::INFINITY;
            for (pos, &idx) in self.active.iter().enumerate() {
                let t = self.streams[idx].remaining_ms * self.slowdowns[pos];
                if t < dt {
                    dt = t;
                }
            }
            if let Some(&idx) = self.pending.last() {
                let until_start = self.streams[idx].start_ms - self.time_ms;
                if until_start < dt {
                    self.advance(until_start);
                    continue;
                }
            }
            self.advance(dt);
            let mut completed = None;
            let mut pos = 0;
            while pos < self.active.len() {
                let idx = self.active[pos];
                if self.streams[idx].remaining_ms <= 1e-9 {
                    self.active.swap_remove(pos);
                    self.profiles.swap_remove(pos);
                    self.events += 1;
                    self.start_next_kernel(idx);
                    if self.streams[idx].end_ms.is_some() && completed.is_none() {
                        completed = Some(idx);
                    }
                } else {
                    pos += 1;
                }
            }
            if let Some(idx) = completed {
                let s = &self.streams[idx];
                return Some((idx, s.start_ms, s.end_ms.unwrap()));
            }
        }
    }

    fn advance(&mut self, dt: f64) {
        if dt == 0.0 {
            return;
        }
        self.time_ms += dt;
        for (pos, &idx) in self.active.iter().enumerate() {
            let s = self.slowdowns[pos];
            self.streams[idx].remaining_ms -= dt / s;
            if self.streams[idx].remaining_ms < 0.0 {
                self.streams[idx].remaining_ms = 0.0;
            }
        }
    }
}

/// The four kernel shapes every engine fixture mixes: under-occupied
/// compute, saturating compute, memory-bound, and mixed just-saturating —
/// enough to keep both the proportional-sharing and the interference term
/// of the contention model live.
pub fn shapes(gpu: &GpuSpec) -> [KernelDesc; 4] {
    [
        KernelDesc::new(2e9, 1e7, 0.2 * gpu.block_slots()),
        KernelDesc::new(2e10, 1e7, 4.0 * gpu.block_slots()),
        KernelDesc::new(1e8, 4e8, 0.5 * gpu.block_slots()),
        KernelDesc::new(5e8, 5e7, 1.1 * gpu.block_slots()),
    ]
}
