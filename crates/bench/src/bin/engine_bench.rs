//! Perf snapshot of the discrete-event engine core. Measures kernel-level
//! events/sec on two workloads — an open-loop arrival backlog (the calendar
//! queue's worst case) and a tight group-mode reset loop (the SoA/SIMD hot
//! loop) — for both the current `gpu_sim::Engine` and the pre-overhaul
//! `reference::engine::BaselineEngine`, and emits `BENCH_engine.json` with
//! the measured speedup. The two engines must agree bit for bit: every run
//! cross-checks a completion checksum before any number is reported.
//!
//! Usage:
//!
//! ```text
//! engine_bench [--quick] [--out PATH] [--check BASELINE]
//! ```
//!
//! * `--quick` — smaller workloads (CI smoke; also honoured via the
//!   `ABACUS_BENCH_QUICK` env var).
//! * `--out PATH` — where to write the JSON (default `BENCH_engine.json`;
//!   suppressed in `--check` mode unless given explicitly).
//! * `--check BASELINE` — compare measured events/sec against a committed
//!   baseline; exit non-zero past 2x regression.
//!
//! The baseline columns time the same reference engine the
//! `golden_engine` test pins the optimized engine to: a binary-insert
//! `pending: Vec<usize>`, the running set's contention re-summed from
//! scratch through `co_run_slowdowns` on every event, and a scalar
//! decrement and min-scan. The `--check` gate reads only the optimized
//! rate.

use gpu_sim::{Engine, GpuSpec, KernelDesc, NoiseModel};
use reference::engine::{shapes, BaselineEngine};
use reference::Lcg;
use std::io::Write as _;
use std::num::NonZeroUsize;
use std::time::Instant;

/// A metric fails the `--check` gate past this factor.
const REGRESSION_FACTOR: f64 = 2.0;

/// Deterministic open-loop workload: `n` streams of 1..=4 mixed-shape
/// kernels with Poisson-ish spaced (and periodically tied) start times.
fn open_loop_workload(seed: u64, n: usize) -> Vec<(f64, Vec<KernelDesc>)> {
    let shapes = shapes(&GpuSpec::a100());
    let mut rng = Lcg::new(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|i| {
            if i % 5 != 0 {
                t += (rng.draw() % 1000) as f64 / 140.0;
            }
            let len = 1 + (rng.draw() % 4) as usize;
            let kernels = (0..len)
                .map(|_| shapes[(rng.draw() as usize) % shapes.len()])
                .collect();
            (t, kernels)
        })
        .collect()
}

/// Fold a completion into a running checksum (order- and bit-sensitive).
fn fold(acc: u64, id: usize, start: f64, end: f64) -> u64 {
    let mut h = acc ^ (id as u64).wrapping_mul(0x9E3779B97F4A7C15);
    h = h.rotate_left(17) ^ start.to_bits();
    h.rotate_left(17) ^ end.to_bits()
}

struct Measured {
    events: u64,
    elapsed_s: f64,
    checksum: u64,
}

/// Workload A — open-loop: every stream pre-enqueued, then drained. The
/// pending structure holds the whole backlog, so this is where the
/// calendar queue vs. binary-insert memmove difference shows.
fn run_open_loop_optimized(work: &[(f64, Vec<KernelDesc>)], seed: u64) -> Measured {
    let t0 = Instant::now();
    let mut e = Engine::new(GpuSpec::a100(), NoiseModel::calibrated(), seed);
    for (at, kernels) in work {
        e.add_stream_slice(kernels, *at);
    }
    let mut checksum = 0u64;
    while let Some(c) = e.step() {
        checksum = fold(checksum, c.id.0, c.start_ms, c.end_ms);
    }
    Measured {
        events: e.events(),
        elapsed_s: t0.elapsed().as_secs_f64(),
        checksum,
    }
}

fn run_open_loop_baseline(work: &[(f64, Vec<KernelDesc>)], seed: u64) -> Measured {
    let t0 = Instant::now();
    let mut e = BaselineEngine::new(GpuSpec::a100(), NoiseModel::calibrated(), seed);
    for (at, kernels) in work {
        e.add_stream(kernels.clone(), *at);
    }
    let mut checksum = 0u64;
    while let Some((id, start, end)) = e.step() {
        checksum = fold(checksum, id, start, end);
    }
    Measured {
        events: e.events(),
        elapsed_s: t0.elapsed().as_secs_f64(),
        checksum,
    }
}

/// Workload B — group mode: reset, launch `width` streams at `t = 0`, run
/// to idle, repeat. The executor's pattern; exercises the SoA decrement /
/// min-scan / slowdown refresh hot loop with a dense running set.
fn group_mode_groups(seed: u64, width: usize) -> Vec<Vec<Vec<KernelDesc>>> {
    let shapes = shapes(&GpuSpec::a100());
    let mut rng = Lcg::new(seed);
    (0..8)
        .map(|_| {
            (0..width)
                .map(|_| {
                    let len = 4 + (rng.draw() % 12) as usize;
                    (0..len)
                        .map(|_| shapes[(rng.draw() as usize) % shapes.len()])
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn run_groups_optimized(groups: &[Vec<Vec<KernelDesc>>], reps: usize, seed: u64) -> Measured {
    let t0 = Instant::now();
    let mut e = Engine::new(GpuSpec::a100(), NoiseModel::calibrated(), seed);
    let mut checksum = 0u64;
    let mut events = 0u64;
    for rep in 0..reps {
        for (gi, group) in groups.iter().enumerate() {
            e.reset(seed ^ (rep * groups.len() + gi) as u64);
            for kernels in group {
                e.add_stream_slice(kernels, 0.0);
            }
            while let Some(c) = e.step() {
                checksum = fold(checksum, c.id.0, c.start_ms, c.end_ms);
            }
            events += e.events();
        }
    }
    Measured {
        events,
        elapsed_s: t0.elapsed().as_secs_f64(),
        checksum,
    }
}

fn run_groups_baseline(groups: &[Vec<Vec<KernelDesc>>], reps: usize, seed: u64) -> Measured {
    let t0 = Instant::now();
    let mut e = BaselineEngine::new(GpuSpec::a100(), NoiseModel::calibrated(), seed);
    let mut checksum = 0u64;
    let mut events = 0u64;
    for rep in 0..reps {
        for (gi, group) in groups.iter().enumerate() {
            e.reset(seed ^ (rep * groups.len() + gi) as u64);
            for kernels in group {
                e.add_stream(kernels.clone(), 0.0);
            }
            while let Some((id, start, end)) = e.step() {
                checksum = fold(checksum, id, start, end);
            }
            events += e.events();
        }
    }
    Measured {
        events,
        elapsed_s: t0.elapsed().as_secs_f64(),
        checksum,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = std::env::var("ABACUS_BENCH_QUICK").is_ok();
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = Some(it.next().expect("--out needs a path").clone()),
            "--check" => check_path = Some(it.next().expect("--check needs a path").clone()),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let host_cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    let (open_streams, group_width, group_reps) = if quick {
        (8_000usize, 24usize, 40usize)
    } else {
        (160_000usize, 48usize, 160usize)
    };
    let seed = 2021u64;

    eprintln!("open-loop workload: {open_streams} streams...");
    let work = open_loop_workload(7, open_streams);
    // Warm up page cache / branch predictors on a small slice first.
    std::hint::black_box(run_open_loop_optimized(&work[..work.len().min(500)], seed));
    std::hint::black_box(run_open_loop_baseline(&work[..work.len().min(500)], seed));
    let opt_a = run_open_loop_optimized(&work, seed);
    let base_a = run_open_loop_baseline(&work, seed);
    assert_eq!(
        opt_a.checksum, base_a.checksum,
        "open-loop completions diverged between baseline and optimized engines"
    );
    assert_eq!(
        opt_a.events, base_a.events,
        "open-loop event counts diverged"
    );
    eprintln!(
        "  open loop: optimized {:.0} ev/s, baseline {:.0} ev/s ({:.2}x), {} events, identical",
        opt_a.events as f64 / opt_a.elapsed_s,
        base_a.events as f64 / base_a.elapsed_s,
        base_a.elapsed_s / opt_a.elapsed_s,
        opt_a.events,
    );

    eprintln!("group-mode workload: 8 groups x {group_width} streams x {group_reps} reps...");
    let groups = group_mode_groups(11, group_width);
    std::hint::black_box(run_groups_optimized(&groups, 1, seed));
    std::hint::black_box(run_groups_baseline(&groups, 1, seed));
    let opt_b = run_groups_optimized(&groups, group_reps, seed);
    let base_b = run_groups_baseline(&groups, group_reps, seed);
    assert_eq!(
        opt_b.checksum, base_b.checksum,
        "group-mode completions diverged between baseline and optimized engines"
    );
    assert_eq!(
        opt_b.events, base_b.events,
        "group-mode event counts diverged"
    );
    eprintln!(
        "  group mode: optimized {:.0} ev/s, baseline {:.0} ev/s ({:.2}x), {} events, identical",
        opt_b.events as f64 / opt_b.elapsed_s,
        base_b.events as f64 / base_b.elapsed_s,
        base_b.elapsed_s / opt_b.elapsed_s,
        opt_b.events,
    );

    let events = opt_a.events + opt_b.events;
    let events_per_sec = events as f64 / (opt_a.elapsed_s + opt_b.elapsed_s);
    let baseline_events_per_sec = events as f64 / (base_a.elapsed_s + base_b.elapsed_s);
    let speedup = baseline_events_per_sec.recip() * events_per_sec;
    eprintln!(
        "  combined: optimized {events_per_sec:.0} ev/s vs baseline {baseline_events_per_sec:.0} ev/s = {speedup:.2}x"
    );

    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"engine\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    s.push_str(&format!("  \"events\": {events},\n"));
    s.push_str(&format!(
        "  \"open_loop_events_per_sec\": {:.0},\n",
        opt_a.events as f64 / opt_a.elapsed_s
    ));
    s.push_str(&format!(
        "  \"open_loop_baseline_events_per_sec\": {:.0},\n",
        base_a.events as f64 / base_a.elapsed_s
    ));
    s.push_str(&format!(
        "  \"group_mode_events_per_sec\": {:.0},\n",
        opt_b.events as f64 / opt_b.elapsed_s
    ));
    s.push_str(&format!(
        "  \"group_mode_baseline_events_per_sec\": {:.0},\n",
        base_b.events as f64 / base_b.elapsed_s
    ));
    s.push_str(&format!(
        "  \"baseline_events_per_sec\": {baseline_events_per_sec:.0},\n"
    ));
    s.push_str(&format!("  \"events_per_sec\": {events_per_sec:.0},\n"));
    s.push_str(&format!("  \"speedup\": {speedup:.2},\n"));
    s.push_str("  \"identical\": true\n");
    s.push_str("}\n");

    let checking = check_path.is_some();
    if let Some(path) = out_path.or_else(|| (!checking).then(|| "BENCH_engine.json".to_string())) {
        let mut f = std::fs::File::create(&path).expect("create output file");
        f.write_all(s.as_bytes()).expect("write json");
        eprintln!("wrote {path}");
    }

    if let Some(path) = check_path {
        let baseline_json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let num_after = |key: &str| -> Option<f64> {
            let at = baseline_json.find(key)? + key.len();
            let rest = baseline_json[at..].trim_start_matches([':', ' ']);
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        };
        let mut failed = false;
        // events/sec: lower is worse. The rate is per-event, so quick-mode
        // runs compare against full-mode baselines directly.
        if let Some(base) = num_after("\"events_per_sec\"") {
            let ratio = base / events_per_sec;
            if ratio > REGRESSION_FACTOR {
                eprintln!(
                    "REGRESSION: {events_per_sec:.0} events/sec vs baseline {base:.0} ({ratio:.2}x slower > {REGRESSION_FACTOR}x)"
                );
                failed = true;
            } else {
                eprintln!("ok: {events_per_sec:.0} events/sec vs baseline {base:.0} ({ratio:.2}x)");
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("engine bench check passed");
    }
}
