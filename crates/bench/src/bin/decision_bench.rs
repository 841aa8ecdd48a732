//! Perf snapshot of the scheduler decision hot path. Replays fixed-seed
//! churned queues (admits, drops, partial progress, completions) against
//! both the current `AbacusScheduler` — incremental `(deadline, id)` order
//! index, arena-backed round scratch, template-patched probe encoding —
//! and the pre-overhaul `reference::decision::BaselineController`, and
//! emits `BENCH_decision.json` with decision rounds/sec for each. The two
//! controllers must agree bit for bit: every run cross-checks a decision
//! checksum (dropped ids, planned entries, predicted duration, overhead)
//! before any number is reported.
//!
//! Usage:
//!
//! ```text
//! decision_bench [--quick] [--out PATH] [--check BASELINE]
//! ```
//!
//! * `--quick` — fewer rounds (CI smoke; also honoured via the
//!   `ABACUS_BENCH_QUICK` env var).
//! * `--out PATH` — where to write the JSON (default `BENCH_decision.json`;
//!   suppressed in `--check` mode unless given explicitly).
//! * `--check BASELINE` — compare measured rounds/sec against a committed
//!   baseline; exit non-zero past 2x regression.
//!
//! The baseline column times the same reference controller and search the
//! `golden_decisions` test pins the scheduler to: per round a fresh
//! `Vec<&Query>` collect, headroom sort and `retain` passes,
//! `sorted.remove(0)` on each infeasible head, fresh search buffers per
//! `plan_group` call, and every candidate and level-2 probe encoded from
//! scratch with `encode_features` (per-entry graph lookups). The `--check`
//! gate reads only the optimized rate.
//!
//! The predictor is the constant-time `reference::SpanModel` (per-slot
//! cost proportional to the normalised operator span), so what the bench
//! measures is the decision layer itself — ordering, candidate filtering,
//! buffer lifecycle, search bookkeeping — not MLP inference time.

use abacus_core::{AbacusConfig, AbacusScheduler, Query, RoundDecision, Scheduler};
use dnn_models::{ModelId, ModelLibrary, QueryInput};
use reference::decision::BaselineController;
use reference::{Lcg, SpanModel};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// A metric fails the `--check` gate past this factor.
const REGRESSION_FACTOR: f64 = 2.0;

/// Per-round prediction latency pinned for both controllers, ms, so the
/// Eq. 3 overhead account is bit-identical and independent of the host.
const PREDICT_ROUND_MS: f64 = 0.09;

/// The decision-layer surface the driver replays against either controller.
trait Controller {
    fn decide_into(&mut self, now_ms: f64, queue: &[Query], out: &mut RoundDecision);
    fn on_admit(&mut self, _q: &Query) {}
    fn on_retire(&mut self, _q: &Query) {}
    fn on_group_complete(&mut self, _duration_ms: f64) {}
}

/// The optimized path, driven exactly as the serving node drives it:
/// admit/retire hooks feeding the order index, the decision written in
/// place so the entry buffer cycles through it.
struct Optimized(AbacusScheduler);

impl Controller for Optimized {
    fn decide_into(&mut self, now_ms: f64, queue: &[Query], out: &mut RoundDecision) {
        Scheduler::decide_into(&mut self.0, now_ms, queue, out);
    }
    fn on_admit(&mut self, q: &Query) {
        Scheduler::on_admit(&mut self.0, q);
    }
    fn on_retire(&mut self, q: &Query) {
        Scheduler::on_retire(&mut self.0, q);
    }
    fn on_group_complete(&mut self, duration_ms: f64) {
        Scheduler::on_group_complete(&mut self.0, duration_ms);
    }
}

/// The baseline path, driven exactly as the old node drove it: a fresh
/// decision returned by value each round, no hooks.
struct Baseline(BaselineController);

impl Controller for Baseline {
    fn decide_into(&mut self, now_ms: f64, queue: &[Query], out: &mut RoundDecision) {
        *out = self.0.decide(now_ms, queue);
    }
    fn on_group_complete(&mut self, duration_ms: f64) {
        self.0.on_group_complete(duration_ms);
    }
}

fn config() -> AbacusConfig {
    AbacusConfig {
        predict_round_ms: Some(PREDICT_ROUND_MS),
        ..AbacusConfig::default()
    }
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v.wrapping_mul(0x9E3779B97F4A7C15)).rotate_left(17)
}

/// Fold one decision into a running checksum (order- and bit-sensitive:
/// dropped ids, planned entries, predicted duration, rounds, overhead).
fn fold_decision(mut h: u64, d: &RoundDecision) -> u64 {
    h = mix(h, d.dropped.len() as u64);
    for &id in &d.dropped {
        h = mix(h, id);
    }
    h = mix(h, d.overhead_ms.to_bits());
    match &d.group {
        Some(g) => {
            h = mix(h, 1);
            h = mix(h, g.predicted_ms.to_bits());
            h = mix(h, g.prediction_rounds as u64);
            for e in &g.entries {
                h = mix(h, e.query_id);
                h = mix(h, e.op_start as u64);
                h = mix(h, e.op_end as u64);
            }
        }
        None => h = mix(h, 0),
    }
    h
}

struct Measured {
    rounds: u64,
    elapsed_s: f64,
    checksum: u64,
}

/// Replay `rounds` decision rounds over a churned queue held at
/// `target_depth`: refill with deterministic admits, apply the decision
/// (drops, partial progress, completions at the predicted duration), and
/// fold every decision into the checksum. Byte-identical queue evolution
/// for any two controllers that emit byte-identical decisions. Only the
/// `decide_into` calls are timed — the replay harness (admits, position
/// lookups, progress bookkeeping) is identical for both controllers and
/// would otherwise dilute the measured difference.
fn run<C: Controller>(
    ctrl: &mut C,
    lib: &ModelLibrary,
    rounds: u64,
    target_depth: usize,
    seed: u64,
) -> Measured {
    let mut decide_s = 0.0f64;
    let mut rng = Lcg::new(seed);
    const QOS_MS: [f64; 4] = [40.0, 60.0, 90.0, 140.0];
    let mut queue: Vec<Query> = Vec::new();
    let mut now = 0.0f64;
    let mut next_id = 0u64;
    let mut decision = RoundDecision::idle();
    let mut checksum = 0u64;
    for _ in 0..rounds {
        while queue.len() < target_depth {
            let m = ModelId::ALL[(rng.draw() as usize) % ModelId::ALL.len()];
            let input = QueryInput::new(8, if m.is_nlp() { 16 } else { 1 });
            let n_ops = lib.graph(m, input).len();
            let qos = QOS_MS[(rng.draw() as usize) % QOS_MS.len()];
            let q = Query::new(next_id, m, input, now, qos, n_ops);
            next_id += 1;
            ctrl.on_admit(&q);
            queue.push(q);
        }
        let t0 = Instant::now();
        ctrl.decide_into(now, &queue, &mut decision);
        decide_s += t0.elapsed().as_secs_f64();
        checksum = fold_decision(checksum, &decision);
        for &id in &decision.dropped {
            let pos = queue
                .iter()
                .position(|q| q.id == id)
                .expect("dropped unknown query");
            ctrl.on_retire(&queue[pos]);
            queue.swap_remove(pos);
        }
        match decision.group.as_ref() {
            Some(g) => {
                now += decision.overhead_ms;
                let duration_ms = g.predicted_ms.max(0.05);
                for e in &g.entries {
                    let pos = queue
                        .iter()
                        .position(|q| q.id == e.query_id)
                        .expect("planned unknown query");
                    queue[pos].mark_started(now);
                    queue[pos].advance_to(e.op_end);
                    if queue[pos].is_complete() {
                        ctrl.on_retire(&queue[pos]);
                        queue.swap_remove(pos);
                    }
                }
                now += duration_ms;
                ctrl.on_group_complete(duration_ms);
            }
            None => now += decision.overhead_ms + 0.1,
        }
    }
    Measured {
        rounds,
        elapsed_s: decide_s,
        checksum,
    }
}

fn run_optimized(lib: &Arc<ModelLibrary>, rounds: u64, depth: usize, seed: u64) -> Measured {
    let mut c = Optimized(AbacusScheduler::new(
        Arc::new(SpanModel::uniform(10.0)),
        lib.clone(),
        config(),
    ));
    run(&mut c, lib, rounds, depth, seed)
}

fn run_baseline(lib: &Arc<ModelLibrary>, rounds: u64, depth: usize, seed: u64) -> Measured {
    let mut c = Baseline(BaselineController::new(
        Arc::new(SpanModel::uniform(10.0)),
        lib.clone(),
        config(),
    ));
    run(&mut c, lib, rounds, depth, seed)
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
    let rounds: u64 = if quick { 40_000 } else { 400_000 };
    let depth = 16usize;
    let seed = 2021u64;
    let lib = Arc::new(ModelLibrary::new());

    eprintln!("decision workload: {rounds} rounds over a {depth}-deep churned queue...");
    std::hint::black_box(run_optimized(&lib, 2_000, depth, seed));
    std::hint::black_box(run_baseline(&lib, 2_000, depth, seed));
    let opt = run_optimized(&lib, rounds, depth, seed);
    let base = run_baseline(&lib, rounds, depth, seed);
    assert_eq!(
        opt.checksum, base.checksum,
        "decision streams diverged between baseline and optimized controllers"
    );
    let rounds_per_sec = opt.rounds as f64 / opt.elapsed_s;
    let baseline_rounds_per_sec = base.rounds as f64 / base.elapsed_s;
    let speedup = rounds_per_sec / baseline_rounds_per_sec;
    eprintln!(
        "  decisions: optimized {rounds_per_sec:.0} rounds/s, baseline {baseline_rounds_per_sec:.0} rounds/s ({speedup:.2}x), identical"
    );

    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"decision\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"rounds\": {rounds},\n"));
    s.push_str(&format!("  \"queue_depth\": {depth},\n"));
    s.push_str(&format!(
        "  \"baseline_rounds_per_sec\": {baseline_rounds_per_sec:.0},\n"
    ));
    s.push_str(&format!("  \"rounds_per_sec\": {rounds_per_sec:.0},\n"));
    s.push_str(&format!("  \"speedup\": {speedup:.2},\n"));
    s.push_str("  \"identical\": true\n");
    s.push_str("}\n");

    let checking = check_path.is_some();
    if let Some(path) = out_path.or_else(|| (!checking).then(|| "BENCH_decision.json".to_string()))
    {
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
        // rounds/sec: lower is worse. The rate is per-round, so quick-mode
        // runs compare against full-mode baselines directly.
        if let Some(base) = num_after("\"rounds_per_sec\"") {
            let ratio = base / rounds_per_sec;
            if ratio > REGRESSION_FACTOR {
                eprintln!(
                    "REGRESSION: {rounds_per_sec:.0} rounds/sec vs baseline {base:.0} ({ratio:.2}x slower > {REGRESSION_FACTOR}x)"
                );
                failed = true;
            } else {
                eprintln!("ok: {rounds_per_sec:.0} rounds/sec vs baseline {base:.0} ({ratio:.2}x)");
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("decision bench check passed");
    }
}
