//! Perf snapshot of the cluster ingress hot path. Replays a fixed-seed
//! ~100k-query diurnal burst against a heterogeneous 16-GPU fleet twice:
//! once through the current headroom-scored router
//! (`cluster::run_routed_cluster` — one batched predictor forward per
//! arrival, ingress shed/spill, epoch-batched per-GPU simulation driven
//! through `decide_into` + admit/retire hooks) and once through the
//! line-faithful copy of the pre-overhaul cluster path in
//! `reference::cluster` (round-robin node ingress + per-node
//! least-connections, per-round `decide()` allocations, every arrival
//! enqueued no matter how doomed).
//! Emits `BENCH_cluster.json` with end-to-end routed queries/sec for each
//! path.
//!
//! Every run cross-checks itself: each path executes twice (warmup +
//! timed) and the two record-stream checksums must match bit for bit —
//! a nondeterministic simulation fails the bench before any number is
//! reported. Both paths must also account every arrival exactly once
//! (completed + dropped + shed == arrivals).
//!
//! Usage:
//!
//! ```text
//! cluster_bench [--quick] [--out PATH] [--check BASELINE]
//! ```
//!
//! * `--quick` — smaller trace (CI smoke; also honoured via the
//!   `ABACUS_BENCH_QUICK` env var).
//! * `--out PATH` — where to write the JSON (default `BENCH_cluster.json`;
//!   suppressed in `--check` mode unless given explicitly).
//! * `--check BASELINE` — compare measured queries/sec against a committed
//!   baseline; exit non-zero past 2x regression or if the routed path no
//!   longer clears the 3x speedup floor.

use abacus_core::AbacusConfig;
use abacus_metrics::{QueryOutcome, QueryRecord, ServiceStats};
use cluster::{ClusterConfig, NodePool, RoutedClusterConfig};
use dnn_models::{ModelId, ModelLibrary, QueryInput};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::LatencyModel;
use reference::{cluster as baseline, SpanModel};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;
use workload::RateTrace;

/// A metric fails the `--check` gate past this factor.
const REGRESSION_FACTOR: f64 = 2.0;

/// The routed path must stay at least this much faster than the embedded
/// pre-overhaul path (the tentpole target).
const MIN_SPEEDUP: f64 = 3.0;

/// Offered load at the diurnal peak, queries/sec — far past the fleet's
/// capacity, which is exactly the regime that separates ingress designs:
/// the old path funnels every doomed query through a scheduler queue, the
/// router sheds it with one batched forward.
const PEAK_QPS: f64 = 78000.0;

/// Per-round prediction latency pinned for both paths, ms (simulated time
/// only; keeps the Abacus overhead account host-independent).
const PREDICT_ROUND_MS: f64 = 0.09;

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v.wrapping_mul(0x9E3779B97F4A7C15)).rotate_left(17)
}

/// Bit-sensitive checksum over a record stream: any nondeterminism in
/// routing, scheduling, or execution shifts it.
fn fold_records(records: &[QueryRecord]) -> u64 {
    let mut h = 0u64;
    for r in records {
        h = mix(h, r.service as u64);
        h = mix(h, r.arrival_ms.to_bits());
        h = mix(h, r.latency_ms.to_bits());
        h = mix(
            h,
            match r.outcome {
                QueryOutcome::Completed => 1,
                QueryOutcome::Dropped => 2,
                QueryOutcome::TimedOut => 3,
            },
        );
        h = mix(h, u64::from(r.requests));
        h = mix(h, r.queue_ms.to_bits());
    }
    h
}

/// The heterogeneous fleet both paths run: 16 single-GPU nodes — 4 at
/// reference speed, 8 mid-tier (V100-class vs the A100 reference), 4
/// slow (MIG-slice-class).
const SLOWDOWNS: [f64; 3] = [1.0, 1.77, 4.0];
const POOL_SIZES: [usize; 3] = [4, 8, 4];
const POOL_NAMES: [&str; 3] = ["a100", "mid", "slow"];

fn fleet_slowdowns() -> Vec<f64> {
    POOL_SIZES
        .iter()
        .zip(SLOWDOWNS)
        .flat_map(|(&n, s)| std::iter::repeat_n(s, n))
        .collect()
}

fn abacus_config() -> AbacusConfig {
    AbacusConfig {
        predict_round_ms: Some(PREDICT_ROUND_MS),
        ..AbacusConfig::default()
    }
}

struct Measured {
    queries: usize,
    elapsed_s: f64,
    checksum: u64,
    stats: ServiceStats,
}

fn run_baseline(
    cfg: &ClusterConfig,
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    predictor: &Arc<dyn LatencyModel>,
    arrivals: &[workload::Arrival],
    inputs: &[QueryInput],
) -> Measured {
    let bcfg = baseline::Config {
        nodes: cfg.nodes,
        gpus_per_node: cfg.gpus_per_node,
        models: cfg.models.clone(),
        qos_ms: cfg.qos_ms,
        seed: cfg.seed,
        abacus: cfg.abacus.clone(),
        parallel: cfg.parallel,
        slowdowns: fleet_slowdowns(),
    };
    let t0 = Instant::now();
    let records = baseline::run(&bcfg, lib, gpu, noise, predictor.clone(), arrivals, inputs);
    let elapsed_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        records.len(),
        arrivals.len(),
        "baseline lost or duplicated queries"
    );
    let mut stats = ServiceStats::new();
    stats.record_all(&records);
    Measured {
        queries: records.len(),
        elapsed_s,
        checksum: fold_records(&records),
        stats,
    }
}

fn run_routed(
    cfg: &RoutedClusterConfig,
    lib: &Arc<ModelLibrary>,
    noise: &NoiseModel,
    router_model: &Arc<dyn LatencyModel>,
    arrivals: &[workload::Arrival],
    inputs: &[QueryInput],
) -> (Measured, cluster::RouterStats) {
    let t0 = Instant::now();
    let out = cluster::run_routed_cluster_on(
        cfg,
        lib,
        noise,
        router_model.clone(),
        None,
        None,
        arrivals,
        inputs,
    );
    let elapsed_s = t0.elapsed().as_secs_f64();
    let mut stats = ServiceStats::new();
    stats.record_all(&out.records);
    (
        Measured {
            queries: out.records.len(),
            elapsed_s,
            checksum: fold_records(&out.records),
            stats,
        },
        out.router,
    )
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
    let seed = 2021u64;
    // Diurnal-peak burst replay: ~100x the fleet's sustainable rate —
    // roughly 100k queries over a 1.6s ramp-plus-peak in full mode, a
    // CI-sized ~31k single-bucket spike in quick mode. Short horizon on purpose: the ingress designs differ in
    // per-arrival cost, and a long horizon would only add identical
    // GPU-simulation time to both paths.
    let trace = if quick {
        RateTrace::with_bucket_ms(vec![PEAK_QPS], 400.0)
    } else {
        RateTrace::with_bucket_ms(vec![PEAK_QPS * 0.6, PEAK_QPS], 800.0)
    };
    let lib = Arc::new(ModelLibrary::new());
    let reference = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    let models = vec![
        ModelId::ResNet101,
        ModelId::ResNet152,
        ModelId::Vgg19,
        ModelId::Bert,
    ];

    // Baseline fleet: 16 single-GPU nodes, heterogeneity via per-node
    // slowdowns (the only vocabulary the pre-overhaul path had).
    let base_cfg = ClusterConfig {
        nodes: 16,
        gpus_per_node: 1,
        models: models.clone(),
        qos_ms: 100.0,
        trace: trace.clone(),
        seed,
        abacus: abacus_config(),
        parallel: true,
        degraded: Vec::new(),
    };
    // Routed fleet: identical hardware expressed as heterogeneous pools
    // (the slowdown-derived specs give derates of exactly 1.0/1.77/4.0
    // against the reference).
    let pools: Vec<NodePool> = POOL_NAMES
        .iter()
        .zip(POOL_SIZES)
        .zip(SLOWDOWNS)
        .map(|((name, gpus), s)| {
            let mut gpu = reference.clone();
            gpu.peak_flops /= s;
            gpu.peak_bw /= s;
            NodePool { name, gpus, gpu }
        })
        .collect();
    let routed_cfg = RoutedClusterConfig {
        pools,
        reference: reference.clone(),
        models,
        qos_ms: 100.0,
        trace,
        seed,
        abacus: abacus_config(),
        parallel: true,
        epoch_ms: 50.0,
        spill_slack_ms: 20.0,
        autoscale: None,
    };
    let span: Arc<dyn LatencyModel> = Arc::new(SpanModel::solo_weighted(&lib, &reference));

    eprintln!(
        "cluster workload: ~{:.0} queries over a 16-GPU heterogeneous fleet...",
        routed_cfg.trace.rates().iter().sum::<f64>() * routed_cfg.trace.bucket_ms() / 1000.0
    );
    // The workload is derived once, outside every timed region: the bench
    // measures ingress + simulation, not trace synthesis. Both paths
    // replay the exact same arrival stream.
    let (arrivals, inputs) = cluster::cluster_workload(&base_cfg, &lib);
    // Warmup + timed; the checksums must agree or the simulation is
    // nondeterministic and no number below can be trusted.
    let (routed_warm, _) = run_routed(&routed_cfg, &lib, &noise, &span, &arrivals, &inputs);
    let (routed, router_stats) = run_routed(&routed_cfg, &lib, &noise, &span, &arrivals, &inputs);
    assert_eq!(
        routed_warm.checksum, routed.checksum,
        "routed cluster run is nondeterministic"
    );
    let base_warm = run_baseline(
        &base_cfg, &lib, &reference, &noise, &span, &arrivals, &inputs,
    );
    let base = run_baseline(
        &base_cfg, &lib, &reference, &noise, &span, &arrivals, &inputs,
    );
    assert_eq!(
        base_warm.checksum, base.checksum,
        "baseline cluster run is nondeterministic"
    );
    assert_eq!(routed.queries, base.queries, "paths saw different arrivals");

    let queries_per_sec = routed.queries as f64 / routed.elapsed_s;
    let baseline_queries_per_sec = base.queries as f64 / base.elapsed_s;
    let speedup = queries_per_sec / baseline_queries_per_sec;
    let horizon_ms = routed_cfg.trace.horizon_ms();
    let routed_goodput = routed.stats.goodput_qps(horizon_ms);
    let base_goodput = base.stats.goodput_qps(horizon_ms);
    eprintln!(
        "  ingress: routed {queries_per_sec:.0} q/s, round-robin {baseline_queries_per_sec:.0} q/s ({speedup:.2}x), deterministic"
    );
    eprintln!(
        "  qos: routed goodput {routed_goodput:.0} q/s (shed {}), round-robin {base_goodput:.0} q/s (dropped {})",
        router_stats.shed,
        base.stats.dropped()
    );

    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"cluster\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"queries\": {},\n", routed.queries));
    s.push_str("  \"gpus\": 16,\n");
    s.push_str(&format!(
        "  \"baseline_queries_per_sec\": {baseline_queries_per_sec:.0},\n"
    ));
    s.push_str(&format!("  \"queries_per_sec\": {queries_per_sec:.0},\n"));
    s.push_str(&format!("  \"speedup\": {speedup:.2},\n"));
    s.push_str(&format!("  \"routed_goodput_qps\": {routed_goodput:.1},\n"));
    s.push_str(&format!("  \"baseline_goodput_qps\": {base_goodput:.1},\n"));
    s.push_str(&format!("  \"shed\": {},\n", router_stats.shed));
    s.push_str(&format!("  \"spilled\": {},\n", router_stats.spilled));
    s.push_str(&format!("  \"forwards\": {},\n", router_stats.forwards));
    s.push_str("  \"identical\": true\n");
    s.push_str("}\n");

    let checking = check_path.is_some();
    if let Some(path) = out_path.or_else(|| (!checking).then(|| "BENCH_cluster.json".to_string())) {
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
        // queries/sec: lower is worse. The rate is per-query, so quick-mode
        // runs compare against full-mode baselines directly.
        if let Some(base) = num_after("\"queries_per_sec\"") {
            let ratio = base / queries_per_sec;
            if ratio > REGRESSION_FACTOR {
                eprintln!(
                    "REGRESSION: {queries_per_sec:.0} queries/sec vs baseline {base:.0} ({ratio:.2}x slower > {REGRESSION_FACTOR}x)"
                );
                failed = true;
            } else {
                eprintln!(
                    "ok: {queries_per_sec:.0} queries/sec vs baseline {base:.0} ({ratio:.2}x)"
                );
            }
        }
        // The tentpole floor: routed ingress must stay >= MIN_SPEEDUP x the
        // embedded pre-overhaul path. Same-host ratio, so core count and
        // load do not excuse it.
        if speedup < MIN_SPEEDUP {
            eprintln!(
                "REGRESSION: routed/baseline speedup {speedup:.2}x below the {MIN_SPEEDUP}x floor"
            );
            failed = true;
        } else {
            eprintln!("ok: routed/baseline speedup {speedup:.2}x (floor {MIN_SPEEDUP}x)");
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("cluster bench check passed");
    }
}
