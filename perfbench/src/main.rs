//! End-to-end benchmark of the Abacus reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campaign-cold|node-colocate|cluster-diurnal> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs passes of the workload (set-up, generation, serving; see
//! `pipeline`) back to back for `--seconds`, checks every pass, and prints
//! as its last stdout line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
//! ones (host times are medians over passes); with `--trace 1` untraced
//! and traced passes alternate and the metrics are the per-layer ones, and
//! the traced spans are written to `perfbench/out/`. Exits 1 when any
//! correctness check fails, 2 on bad arguments.
//!
//! Everything runs on the calling thread except the program's own worker
//! pool, which sizes itself to the host's cores; the benchmark starts no
//! threads of its own.

mod pipeline;
mod stats;
mod tracer;
mod workloads;
mod wrap;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use pipeline::{Host, Pass, TelemetryPair, PREDICT_ROUND_MS, VIOL_LIMIT, WAYS};
use stats::{median, percentile_sorted, supported_tail};
use workloads::Workload;

const USAGE: &str = "usage: perfbench --workload <campaign-cold|node-colocate|cluster-diurnal> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Fewest untraced passes a run makes, however long they take.
const MIN_PASSES: usize = 3;

/// Layers whose self time the traced run reports, in pipeline order.
const LAYERS: [&str; 7] = [
    "models",
    "predictor",
    "workload",
    "serving",
    "core",
    "cluster",
    "perfbench",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = args;
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        if flags.insert(key.clone(), value).is_some() {
            return Err(format!("{key} given twice"));
        }
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; expected one of {:?}",
            workloads::NAMES
        )
    })?;
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<u32>()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(1..=3600).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=3600"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?}; expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: f64::from(seconds),
        trace,
    })
}

/// One reported number.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run keeps of each pass once it has been checked against the
/// first: its timings and, for a traced pass, its per-layer metrics.
struct Kept {
    host: Host,
    telemetry_pair: Option<TelemetryPair>,
    layers: Option<Vec<Metric>>,
}

/// The passes of one run. The first pass is kept whole as the reference
/// every later pass must reproduce; the others are reduced to [`Kept`] so
/// memory does not grow with the number of passes.
struct Passes {
    reference: Option<Pass>,
    untraced: Vec<Kept>,
    traced: Vec<Kept>,
    last_spans: Vec<tracer::Span>,
    failures: Vec<String>,
}

impl Passes {
    fn add(&mut self, mut p: Pass) {
        let n = self.untraced.len() + self.traced.len();
        for f in std::mem::take(&mut p.failures) {
            if !self.failures.contains(&f) {
                self.failures.push(f);
            }
        }
        if let Some(r) = &self.reference {
            if p.sim != r.sim || p.work != r.work {
                self.failures
                    .push(format!("pass {n}: simulated outcome differs from pass 0"));
            }
            if p.data != r.data {
                self.failures
                    .push(format!("pass {n}: campaign dataset differs from pass 0"));
            }
            let bits =
                |p: &Pass| -> Vec<u64> { p.mlp.raw_params().iter().map(|x| x.to_bits()).collect() };
            if bits(&p) != bits(r) {
                self.failures
                    .push(format!("pass {n}: trained weights differ from pass 0"));
            }
        }
        let h = &p.host;
        eprintln!(
            "perfbench: pass {n} ({}): wall {:.4} s, setup {:.4} s, serve {:.4} s{}",
            if p.layers.is_some() {
                "traced"
            } else {
                "untraced"
            },
            h.wall_s,
            h.setup_s,
            h.serve_s,
            p.telemetry_pair.map_or(String::new(), |t| format!(
                "; cluster rerun with telemetry {:.4} s, without {:.4} s",
                t.on_s, t.off_s
            )),
        );
        let layers = p.layers.as_ref().map(|_| layer_metrics(&p));
        let kept = Kept {
            host: p.host,
            telemetry_pair: p.telemetry_pair,
            layers,
        };
        if let Some(l) = p.layers.take() {
            self.last_spans = l.spans;
            self.traced.push(kept);
        } else {
            self.untraced.push(kept);
        }
        if self.reference.is_none() {
            self.reference = Some(p);
        }
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    let started = Instant::now();
    let mut passes = Passes {
        reference: None,
        untraced: Vec::new(),
        traced: Vec::new(),
        last_spans: Vec::new(),
        failures: Vec::new(),
    };
    loop {
        let off_first = passes.untraced.len().is_multiple_of(2);
        passes.add(pipeline::run(
            w,
            args.seed,
            false,
            args.trace.then_some(off_first),
        ));
        if args.trace {
            passes.add(pipeline::run(w, args.seed, true, None));
        }
        let n = passes.untraced.len();
        let per_round = started.elapsed().as_secs_f64() / n as f64;
        if n >= MIN_PASSES && started.elapsed().as_secs_f64() + per_round > args.seconds {
            break;
        }
    }
    let reference = passes.reference.take().expect("at least one pass");
    let mut failures = std::mem::take(&mut passes.failures);
    if !args.trace {
        // The traced passes build the campaign stage by stage and are
        // compared with the first pass above; an untraced run checks the
        // same stages once, outside its timed passes.
        if let Err(e) = pipeline::check_staged_dataset(w, &reference.data) {
            failures.push(e);
        }
    }

    let provenance = provenance(&args, host_cores(), &reference, &passes);
    println!("{provenance}");
    let metrics = if args.trace {
        let m = per_layer(&reference, &passes);
        if let Err(e) = write_trace(&args, &provenance, &passes.last_spans, &m) {
            eprintln!("perfbench: could not write the trace: {e}");
        }
        m
    } else {
        end_to_end(&reference, &passes.untraced)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            failures.push(format!("metric {} is not finite", m.name));
        }
        println!("{:<32} {:>20} {}", m.name, m.value, m.unit);
    }
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let acct = reference.sim.acct;
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        failures.is_empty(),
        acct.offered,
        acct.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("write to String");
    }
    out.push_str("}}");
    println!("{out}");
    std::process::exit(if failures.is_empty() { 0 } else { 1 });
}

fn med(kept: &[Kept], f: impl Fn(&Kept) -> f64) -> f64 {
    median(&kept.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(reference: &Pass, untraced: &[Kept]) -> Vec<Metric> {
    let med = |f: fn(&Kept) -> f64| med(untraced, f);
    let sim = &reference.sim;
    vec![
        metric("setup_s", med(|p| p.host.setup_s), "s"),
        metric("wall_s", med(|p| p.host.wall_s), "s"),
        metric(
            "serve_qps_host",
            med(|p| p.host.retired as f64 / p.host.serve_s),
            "queries/s",
        ),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        metric("viol_ratio", sim.viol_ratio, "ratio"),
        metric("p99_norm", sim.p99_norm, "ratio"),
        metric("goodput_qps", sim.goodput_qps, "queries/sim-s"),
        metric("capacity_qps", sim.capacity_qps, "queries/sim-s"),
        metric("pred_mape_pct", sim.pred_mape_pct, "%"),
    ]
}

/// Per-layer metrics of one traced pass.
fn layer_metrics(p: &Pass) -> Vec<Metric> {
    let l = p.layers.as_ref().expect("traced pass");
    let w = &p.work;
    let spans = &l.spans;
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.total_ns as f64 * 1e-9)
            .sum()
    };
    let self_ns = tracer::self_times(spans);
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    let mut remainder = 0.0;
    for (s, &st) in spans.iter().zip(&self_ns) {
        if s.parent.is_none() {
            remainder += st as f64 * 1e-9;
        } else {
            *by_layer.entry(s.layer()).or_default() += st as f64 * 1e-9;
        }
    }
    let wall = total("wall");
    let node_s = total("serving.node");
    let decide_s = total("core.decide");
    let loop_self_s = node_s - decide_s;
    let profile_s = total("predictor.profile");
    let train_s = total("predictor.train");
    let mut decide: Vec<f64> = l.decide_ns.iter().map(|&ns| ns as f64 * 1e-3).collect();
    decide.sort_by(f64::total_cmp);
    let tail_pct = supported_tail(decide.len()).unwrap_or(50.0);
    let pct = |p: f64| {
        if decide.is_empty() {
            0.0
        } else {
            percentile_sorted(&decide, p)
        }
    };
    let mut m = vec![
        metric("models.library_s", total("models.library"), "s"),
        metric("predictor.sample_s", total("predictor.sample"), "s"),
        metric("predictor.groups_sampled", w.groups_sampled as f64, "count"),
        metric("predictor.profile_s", profile_s, "s"),
        metric("predictor.profile_runs", w.profile_runs as f64, "count"),
        metric(
            "predictor.profile_runs_per_s",
            w.profile_runs as f64 / profile_s,
            "1/s",
        ),
        metric("predictor.featurize_s", total("predictor.featurize"), "s"),
        metric("predictor.dataset_rows", w.dataset_rows as f64, "count"),
        metric("predictor.train_s", train_s, "s"),
        metric("predictor.sample_epochs", w.sample_epochs as f64, "count"),
        metric(
            "predictor.sample_epochs_per_s",
            w.sample_epochs as f64 / train_s,
            "1/s",
        ),
        metric("predictor.eval_s", total("predictor.eval"), "s"),
        metric("workload.gen_s", total("workload.gen"), "s"),
        metric("serving.node_s", node_s, "s"),
        metric("serving.loop_self_s", loop_self_s, "s"),
        metric("serving.queue_p50_ms", w.queue_p50_ms, "ms"),
        metric("serving.queue_p99_ms", w.queue_p99_ms, "ms"),
        metric("core.decide_calls", l.decide_ns.len() as f64, "count"),
        metric("core.decide_s", decide_s, "s"),
        metric("core.decide_p50_us", pct(50.0), "us"),
        metric("core.decide_p99_us", pct(99.0), "us"),
        metric("core.decide_tail_pct", tail_pct, "%"),
        metric("core.decide_tail_us", pct(tail_pct), "us"),
        metric("core.groups", l.groups as f64, "count"),
        metric(
            "core.group_width_mean",
            l.entries as f64 / l.groups.max(1) as f64,
            "entries/group",
        ),
        metric("core.drops", l.drops as f64, "count"),
        metric("core.full_rebuilds", w.full_rebuilds as f64, "count"),
        metric(
            "predictor.forward_calls",
            l.node_forward.calls as f64,
            "count",
        ),
        metric(
            "predictor.forward_rows",
            l.node_forward.rows as f64,
            "count",
        ),
        metric("predictor.forward_s", l.node_forward.secs, "s"),
        metric("gpu-sim.groups", w.exec_groups as f64, "count"),
        metric("gpu-sim.engine_events", w.engine_events as f64, "count"),
        metric(
            "gpu-sim.events_per_host_s",
            w.engine_events as f64 / loop_self_s,
            "1/s",
        ),
        metric("gpu-sim.busy_frac", w.busy_frac, "ratio"),
        metric("cluster.run_s", total("cluster.run"), "s"),
        metric("cluster.routed", w.routed as f64, "count"),
        metric("cluster.spilled", w.spilled as f64, "count"),
        metric("cluster.shed", w.shed as f64, "count"),
        metric("cluster.forwards", w.router_forwards as f64, "count"),
        metric("cluster.router_forward_s", l.router_forward.secs, "s"),
        metric(
            "cluster.router_forward_rows",
            l.router_forward.rows as f64,
            "count",
        ),
        metric("cluster.pool_forward_s", l.pool_forward.secs, "s"),
        metric(
            "cluster.pool_forward_rows",
            l.pool_forward.rows as f64,
            "count",
        ),
        metric("cluster.active_gpus_mean", w.active_gpus_mean, "GPUs"),
        metric("cluster.busy_frac_mean", w.busy_frac_mean, "ratio"),
        metric("cluster.overlap_gain_mean", w.overlap_gain_mean, "ratio"),
        metric("trace.wall_s", wall, "s"),
        metric("trace.accounted_s", by_layer.values().sum(), "s"),
        metric("trace.remainder_s", remainder, "s"),
    ];
    for layer in LAYERS {
        let v = by_layer.get(layer).copied().unwrap_or(0.0);
        m.push(metric(format!("self.{layer}_s"), v, "s"));
    }
    m
}

fn per_layer(reference: &Pass, passes: &Passes) -> Vec<Metric> {
    let per_pass: Vec<&Vec<Metric>> = passes
        .traced
        .iter()
        .map(|k| k.layers.as_ref().expect("traced pass"))
        .collect();
    let mut out: Vec<Metric> = per_pass[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let vals: Vec<f64> = per_pass.iter().map(|ms| ms[i].value).collect();
            metric(m.name.clone(), median(&vals), m.unit)
        })
        .collect();
    let untraced = &passes.untraced;
    let untraced_wall = med(untraced, |k| k.host.wall_s);
    let pair = |k: &Kept| k.telemetry_pair.expect("paired cluster run");
    let with_tel = med(untraced, |k| pair(k).on_s);
    let without_tel = med(untraced, |k| pair(k).off_s);
    out.push(metric(
        "core.predict_round_ms_host",
        abacus_core::calibrate_predict_round_ms(reference.mlp.as_ref(), WAYS),
        "ms",
    ));
    out.push(metric("telemetry.overhead_s", with_tel - without_tel, "s"));
    out.push(metric("trace.untraced_wall_s", untraced_wall, "s"));
    out.push(metric(
        "trace.overhead_s",
        med(&passes.traced, |k| k.host.wall_s) - untraced_wall,
        "s",
    ));
    out
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Cores available to this process, as `nproc` reports them.
fn host_cores() -> usize {
    std::process::Command::new("nproc")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn sets_json(sets: &[Vec<dnn_models::ModelId>]) -> String {
    let sets: Vec<String> = sets
        .iter()
        .map(|s| {
            let names: Vec<String> = s.iter().map(|m| format!("\"{m:?}\"")).collect();
            format!("[{}]", names.join(", "))
        })
        .collect();
    format!("[{}]", sets.join(", "))
}

fn provenance(args: &Args, nproc: usize, reference: &Pass, passes: &Passes) -> String {
    let w = &args.workload;
    let c = &w.campaign;
    let n = &w.node;
    let f = &w.fleet;
    let sim = &reference.sim;
    let a = sim.acct;
    let rungs: Vec<String> = sim
        .rungs
        .iter()
        .map(|r| {
            format!(
                "{{\"qps\": {}, \"viol_ratio\": {}, \"p99_norm\": {}}}",
                r.qps, r.viol_ratio, r.p99_norm
            )
        })
        .collect();
    let pools: Vec<String> = f
        .pools
        .iter()
        .map(|p| format!("{{\"name\": \"{}\", \"gpus\": {}}}", p.name, p.gpus))
        .collect();
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"passes\": {}, \"traced_passes\": {}, \
         \"record_digest\": \"{:016x}\", \"predict_round_ms_pinned\": {PREDICT_ROUND_MS}, \
         \"viol_limit\": {VIOL_LIMIT}, \"primary\": \"{:?}\", \
         \"campaign\": {{\"gpu\": \"{:?}\", \"sets\": {}, \"samples_per_set\": {}, \
         \"runs_per_group\": {}, \"epochs\": {}, \"holdout_per_set\": {}}}, \
         \"node\": {{\"gpu\": \"{:?}\", \"sets\": {}, \"rungs_qps\": {:?}, \"horizon_ms\": {}, \
         \"rungs\": [{}]}}, \
         \"fleet\": {{\"pools\": [{}], \"models\": {}, \"qos_ms\": {}, \"buckets\": {}, \
         \"bucket_ms\": {}, \"plateau_qps\": {}, \"autoscale_qps_per_gpu\": {}, \"min_gpus\": {}}}, \
         \"accounting\": {{\"offered\": {}, \"completed\": {}, \"dropped\": {}, \
         \"timed_out\": {}, \"shed\": {}, \"failed\": {}}}}}}}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        passes.untraced.len(),
        passes.traced.len(),
        sim.digest,
        w.primary,
        c.gpu,
        sets_json(&c.sets),
        c.samples_per_set,
        c.runs_per_group,
        c.epochs,
        c.holdout_per_set,
        n.gpu,
        sets_json(&n.sets),
        n.rungs_qps,
        n.horizon_ms,
        rungs.join(", "),
        pools.join(", "),
        sets_json(std::slice::from_ref(&f.models)),
        f.qos_ms,
        f.buckets,
        f.bucket_ms,
        f.plateau_qps,
        f.autoscale_qps_per_gpu,
        f.min_gpus,
        a.offered,
        a.completed,
        a.dropped,
        a.timed_out,
        a.shed,
        a.failed(),
    )
}

/// Write the last traced pass's spans, with their self times, and the
/// per-layer summary to `perfbench/out/`.
fn write_trace(
    args: &Args,
    provenance: &str,
    spans: &[tracer::Span],
    metrics: &[Metric],
) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-{}.json", args.workload.name, args.seed));
    let self_ns = tracer::self_times(spans);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "{{\"run\": {provenance},")?;
    writeln!(f, "\"metrics\": {{")?;
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i + 1 == metrics.len() { "" } else { "," };
        writeln!(
            f,
            "  \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}{sep}",
            m.name, m.value, m.unit
        )?;
    }
    writeln!(f, "}},\n\"spans\": [")?;
    for (i, (s, st)) in spans.iter().zip(&self_ns).enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "  {{\"id\": {i}, \"name\": \"{}\", \"cell\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}, \"total_ns\": {}, \"self_ns\": {st}}}{sep}",
            s.name, s.cell, s.start_ns, s.end_ns, s.calls, s.total_ns
        )?;
    }
    writeln!(f, "]}}")?;
    f.flush()?;
    eprintln!("perfbench: wrote {}", path.display());
    Ok(())
}
