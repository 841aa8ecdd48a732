//! One pass of a workload: set-up (model library, offline campaign,
//! held-out evaluation), arrival and input generation, then serving (node
//! ladder, routed cluster), scored into host and simulated metrics.

use abacus_core::{AbacusConfig, AbacusScheduler, Scheduler, SegmentalExecutor};
use abacus_metrics::{QueryOutcome, QueryRecord, ServiceStats};
use cluster::{
    cluster_workload, derate_of, run_routed_cluster_on, ClusterConfig, PredictiveAutoscaler,
    RoutedClusterConfig, RoutedRunResult,
};
use dnn_models::{ModelId, ModelLibrary, QueryInput};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::{
    profile_group, profile_groups, sample_groups, Dataset, DeratedModel, GroupSpec, LatencyModel,
    Mlp, MlpConfig, ProfiledGroup,
};
use rayon::prelude::*;
use serving::{
    build_workload, services_for, simulate_node_checked, train_unified, ColocationConfig,
    InvariantChecker, NodeOptions, NodeWorkload, ServiceSpec, TrainerConfig,
};
use std::sync::Arc;
use std::time::Instant;
use telemetry::Telemetry;
use workload::{fork_seed, synthesize_maf_like, Arrival, RateTrace};

use crate::stats::{digest_records, ladder_capacity, FNV_OFFSET};
use crate::tracer::{self, set_cell, span, Span};
use crate::workloads::{Primary, Workload};
use crate::wrap::{CountingModel, ForwardStats, TimedScheduler};

/// Per-round prediction latency pinned in every Abacus config, ms. Left
/// unset, each scheduler would calibrate it from the host clock and the
/// simulated QoS metrics would move with host noise (Eq. 3).
pub const PREDICT_ROUND_MS: f64 = 0.09;

/// Pooled violation ratio a ladder rung may reach and still count toward
/// `capacity_qps`.
pub const VIOL_LIMIT: f64 = 0.10;

/// Search ways of every Abacus config (the paper's default).
pub const WAYS: usize = 4;

/// Seed of the training campaign (the trainer's default). The campaign is
/// the program's offline configuration, not a serving input, so it is the
/// same on every `--seed`: a change to the campaign then moves the trained
/// model identically on every seed instead of hiding in seed-to-seed noise.
const CAMPAIGN_SEED: u64 = 0xAB;

/// Seed of the diurnal rate curve. Like the campaign it defines the
/// workload; the arrivals sampled from it come from `--seed`.
const TRACE_SEED: u64 = 0x3A;

/// Set labels of the held-out groups, far above any set index, so their
/// streams off [`CAMPAIGN_SEED`] are disjoint from the training streams.
/// Fixed like the campaign: `pred_mape_pct` scores the trained model, not
/// the serving inputs.
const HOLDOUT_LABEL: u64 = 0x4E1D_0000;

// Sub-streams forked off `--seed`: node-cell arrivals, inputs and
// execution noise, and the cluster's arrivals, inputs, noise and spill
// draw.
const NODE_STREAM: u64 = 0x40DE;
const CLUSTER_STREAM: u64 = 0xC1;

// Per-set sampling/profiling streams, derived exactly as the trainer
// derives them: `fork_seed(fork_seed(seed, set index), stream)`.
const SAMPLE_STREAM: u64 = 0;
const PROFILE_STREAM: u64 = 1;

fn stream_seed(seed: u64, label: u64, stream: u64) -> u64 {
    fork_seed(fork_seed(seed, label), stream)
}

fn pinned_abacus() -> AbacusConfig {
    AbacusConfig {
        ways: WAYS,
        predict_round_ms: Some(PREDICT_ROUND_MS),
        ..AbacusConfig::default()
    }
}

/// Where every offered query ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    pub offered: u64,
    pub completed: u64,
    /// Dropped by a node scheduler (cluster sheds excluded).
    pub dropped: u64,
    pub timed_out: u64,
    /// Shed at the cluster ingress.
    pub shed: u64,
}

impl Accounting {
    /// Offered queries that did not complete.
    pub fn failed(&self) -> u64 {
        self.offered - self.completed
    }
}

/// QoS at one ladder rung, pooled over the sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    pub qps: f64,
    pub viol_ratio: f64,
    pub p99_norm: f64,
}

/// The simulated outcome: a pure function of the workload and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    pub viol_ratio: f64,
    pub p99_norm: f64,
    pub goodput_qps: f64,
    pub capacity_qps: f64,
    pub pred_mape_pct: f64,
    /// FNV-1a of every record: node cells in order, then the cluster.
    pub digest: u64,
    pub acct: Accounting,
    pub rungs: Vec<Rung>,
}

/// Host-clock phase times of one pass, s.
#[derive(Debug, Clone, Copy, Default)]
pub struct Host {
    pub wall_s: f64,
    pub setup_s: f64,
    pub serve_s: f64,
    /// Queries retired (any outcome) in the serving phase.
    pub retired: u64,
}

/// Counters only the traced pass collects.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub spans: Vec<Span>,
    pub decide_ns: Vec<u64>,
    pub groups: u64,
    pub entries: u64,
    pub drops: u64,
    pub node_forward: ForwardStats,
    pub router_forward: ForwardStats,
    pub pool_forward: ForwardStats,
}

/// Deterministic work counters, collected on every pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Work {
    pub groups_sampled: u64,
    pub profile_runs: u64,
    pub dataset_rows: u64,
    pub sample_epochs: u64,
    pub full_rebuilds: u64,
    pub exec_groups: u64,
    pub engine_events: u64,
    pub busy_frac: f64,
    pub queue_p50_ms: f64,
    pub queue_p99_ms: f64,
    pub routed: u64,
    pub spilled: u64,
    pub shed: u64,
    pub router_forwards: u64,
    pub active_gpus_mean: f64,
    pub busy_frac_mean: f64,
    pub overlap_gain_mean: f64,
}

/// Everything one pass produced.
pub struct Pass {
    pub host: Host,
    pub sim: Sim,
    pub work: Work,
    pub layers: Option<Layers>,
    pub mlp: Arc<Mlp>,
    pub data: Dataset,
    pub failures: Vec<String>,
    /// The pass's cluster rerun with telemetry on and off, when paired.
    pub telemetry_pair: Option<TelemetryPair>,
}

/// Host seconds of one cluster run with telemetry on and one with it off,
/// both outside the pass and in alternating order, so neither arm pays for
/// what the pass left in memory more than the other.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryPair {
    pub on_s: f64,
    pub off_s: f64,
}

/// Run one pass. `traced` records spans and puts the forwarding wrappers
/// in place. `pair_telemetry: Some(off_first)` then reruns the cluster with
/// telemetry on and off (outside the pass's wall time, in the given order)
/// and checks both reproduce the pass's records.
pub fn run(w: &Workload, seed: u64, traced: bool, pair_telemetry: Option<bool>) -> Pass {
    if traced {
        tracer::enable();
    }
    let t0 = Instant::now();
    let (mut pass, lib, cluster) = span("wall", || body(w, seed, traced));
    pass.host.wall_s = t0.elapsed().as_secs_f64();
    if let Some(layers) = pass.layers.as_mut() {
        layers.spans = tracer::finish();
    }
    pass.telemetry_pair = pair_telemetry.map(|off_first| {
        let mut arms = [false, true];
        if !off_first {
            arms.reverse();
        }
        let mut pair = TelemetryPair::default();
        for telemetry in arms {
            let (secs, same) = cluster_arm(&cluster, &lib, &pass.mlp, telemetry);
            if telemetry {
                pair.on_s = secs;
            } else {
                pair.off_s = secs;
            }
            if !same {
                pass.failures.push(format!(
                    "cluster records differ in the paired run with telemetry {}",
                    if telemetry { "on" } else { "off" }
                ));
            }
        }
        pair
    });
    pass
}

/// Rerun a pass's cluster untraced, with telemetry on or off: host
/// seconds, and whether the records match the pass's.
fn cluster_arm(
    c: &ClusterRun,
    lib: &Arc<ModelLibrary>,
    mlp: &Arc<Mlp>,
    telemetry: bool,
) -> (f64, bool) {
    let mut tel = Telemetry::with_health();
    let t = Instant::now();
    let r = run_routed_cluster_on(
        &c.cfg,
        lib,
        &NoiseModel::calibrated(),
        mlp.clone(),
        None,
        telemetry.then_some(&mut tel),
        &c.arrivals,
        &c.inputs,
    );
    (t.elapsed().as_secs_f64(), r.records == c.records)
}

/// A pass's cluster inputs and records, kept for the telemetry pairing.
struct ClusterRun {
    cfg: RoutedClusterConfig,
    arrivals: Vec<Arrival>,
    inputs: Vec<QueryInput>,
    records: Vec<QueryRecord>,
}

struct Cell {
    id: u32,
    set: usize,
    rung: usize,
    seed: u64,
    services: Vec<ServiceSpec>,
    workload: NodeWorkload,
}

struct CellOut {
    rung: usize,
    stats: ServiceStats,
    qos_ms: Vec<f64>,
    records: Vec<QueryRecord>,
}

fn trainer_config(w: &Workload) -> TrainerConfig {
    let c = &w.campaign;
    TrainerConfig {
        samples_per_set: c.samples_per_set,
        runs_per_group: c.runs_per_group,
        mlp: MlpConfig {
            epochs: c.epochs,
            ..MlpConfig::default()
        },
        seed: CAMPAIGN_SEED,
    }
}

fn body(w: &Workload, seed: u64, traced: bool) -> (Pass, Arc<ModelLibrary>, ClusterRun) {
    let mut failures = Vec::new();
    let mut work = Work::default();
    let mut layers = traced.then(Layers::default);
    let noise = NoiseModel::calibrated();

    // --- set-up: library, campaign, held-out evaluation ---
    let t_setup = Instant::now();
    let lib = Arc::new(span("models.library", ModelLibrary::new));
    let gpu = w.campaign.gpu.spec();
    let cfg = trainer_config(w);
    let sets = &w.campaign.sets;
    let (mlp, data) = if traced {
        let data = staged_dataset(sets, &lib, &gpu, &noise, &cfg);
        let mlp = span("predictor.train", || Mlp::train(&data, &cfg.mlp));
        (mlp, data)
    } else {
        train_unified(sets, &lib, &gpu, &noise, &cfg)
    };
    let mlp = Arc::new(mlp);
    let pred_mape_pct = span("predictor.eval", || {
        holdout_mape(
            &mlp,
            sets,
            &lib,
            &gpu,
            &noise,
            &cfg,
            w.campaign.holdout_per_set,
        )
    });
    let setup_s = t_setup.elapsed().as_secs_f64();
    work.groups_sampled = (sets.len() * cfg.samples_per_set) as u64;
    work.profile_runs = work.groups_sampled * cfg.runs_per_group as u64;
    work.dataset_rows = data.len() as u64;
    work.sample_epochs = work.dataset_rows * cfg.mlp.epochs as u64;

    // --- arrival and input generation ---
    let node_gpu = w.node.gpu.spec();
    let mut cells = Vec::new();
    for (si, set) in w.node.sets.iter().enumerate() {
        for (ri, &qps) in w.node.rungs_qps.iter().enumerate() {
            let id = cells.len() as u32 + 1;
            set_cell(id);
            let cell_seed = fork_seed(fork_seed(seed, NODE_STREAM), u64::from(id));
            let services = services_for(set, &lib, &node_gpu, false);
            let ccfg = ColocationConfig {
                qps_per_service: qps / set.len() as f64,
                horizon_ms: w.node.horizon_ms,
                seed: cell_seed,
                small_inputs: false,
                abacus: pinned_abacus(),
            };
            let workload = span("workload.gen", || build_workload(&services, &lib, &ccfg));
            cells.push(Cell {
                id,
                set: si,
                rung: ri,
                seed: cell_seed,
                services,
                workload,
            });
        }
    }
    let cluster_cell = cells.len() as u32 + 1;
    set_cell(cluster_cell);
    let rcfg = routed_config(w, seed, &gpu);
    let (arrivals, inputs) = span("workload.gen", || {
        let mut cc = ClusterConfig::paper(rcfg.trace.clone(), rcfg.seed);
        cc.models = rcfg.models.clone();
        cluster_workload(&cc, &lib)
    });

    // --- serving: node ladder, then the routed cluster ---
    let t_serve = Instant::now();
    let base: Arc<dyn LatencyModel> = mlp.clone();
    let node_model = traced.then(|| CountingModel::new(base.clone(), "predictor.forward"));
    let node_dyn: Arc<dyn LatencyModel> = match &node_model {
        Some(m) => m.clone(),
        None => base.clone(),
    };
    let mut outs = Vec::with_capacity(cells.len());
    let (mut busy_ms, mut horizon_ms) = (0.0, 0.0);
    for c in &cells {
        set_cell(c.id);
        let scheduler = AbacusScheduler::new(node_dyn.clone(), lib.clone(), pinned_abacus());
        let mut exec = SegmentalExecutor::new(
            node_gpu.clone(),
            noise.clone(),
            lib.clone(),
            fork_seed(c.seed, 0xE0),
        );
        let mut checker = InvariantChecker::new();
        let records = match layers.as_mut() {
            Some(l) => {
                let mut s = TimedScheduler::new(scheduler);
                let r = serve_cell(&mut s, &mut exec, &lib, c, &mut checker);
                work.full_rebuilds += s.decision_stats().full_rebuilds;
                l.decide_ns.extend_from_slice(&s.decide_ns);
                l.groups += s.groups;
                l.entries += s.entries;
                l.drops += s.drops;
                r
            }
            None => {
                let mut s = scheduler;
                let r = serve_cell(&mut s, &mut exec, &lib, c, &mut checker);
                work.full_rebuilds += s.decision_stats().full_rebuilds;
                r
            }
        };
        if let Err(v) = checker.report() {
            failures.push(format!(
                "cell {} (set {}, {} qps): {} invariant violations, first: {}",
                c.id,
                c.set,
                w.node.rungs_qps[c.rung],
                v.len(),
                v[0]
            ));
        }
        if let Err(e) = conserved(&c.workload.arrivals, &records, |s| s) {
            failures.push(format!("cell {}: {e}", c.id));
        }
        work.exec_groups += exec.rounds();
        work.engine_events += exec.engine_events();
        busy_ms += exec.busy_ms();
        horizon_ms += w.node.horizon_ms;
        let mut stats = ServiceStats::new();
        stats.record_all(&records);
        outs.push(CellOut {
            rung: c.rung,
            stats,
            qos_ms: c.services.iter().map(|s| s.qos_ms).collect(),
            records,
        });
    }
    work.busy_frac = busy_ms / horizon_ms;

    set_cell(cluster_cell);
    let mut tel = Telemetry::with_health();
    let result: RoutedRunResult = match layers.as_mut() {
        Some(l) => {
            let router = CountingModel::new(base.clone(), "cluster.router_forward");
            let pools: Vec<Arc<CountingModel>> = rcfg
                .pools
                .iter()
                .map(|p| {
                    let derated =
                        DeratedModel::new(base.clone(), derate_of(&p.gpu, &rcfg.reference));
                    CountingModel::new(Arc::new(derated), "cluster.pool_forward")
                })
                .collect();
            let pool_dyn: Vec<Arc<dyn LatencyModel>> = pools
                .iter()
                .map(|m| m.clone() as Arc<dyn LatencyModel>)
                .collect();
            let r = span("cluster.run", || {
                run_routed_cluster_on(
                    &rcfg,
                    &lib,
                    &noise,
                    router.clone(),
                    Some(&pool_dyn),
                    Some(&mut tel),
                    &arrivals,
                    &inputs,
                )
            });
            l.router_forward = router.stats();
            for p in &pools {
                let s = p.stats();
                l.pool_forward.calls += s.calls;
                l.pool_forward.rows += s.rows;
                l.pool_forward.secs += s.secs;
            }
            r
        }
        None => span("cluster.run", || {
            run_routed_cluster_on(
                &rcfg,
                &lib,
                &noise,
                base.clone(),
                None,
                Some(&mut tel),
                &arrivals,
                &inputs,
            )
        }),
    };
    let serve_s = t_serve.elapsed().as_secs_f64();
    // Cluster records name the service by its model's index.
    if let Err(e) = conserved(&arrivals, &result.records, |s| rcfg.models[s].index()) {
        failures.push(format!("cluster: {e}"));
    }
    if let Some(l) = layers.as_mut() {
        if let Some(m) = &node_model {
            l.node_forward = m.stats();
        }
    }

    // --- scoring ---
    let sim = span("perfbench.score", || {
        score(
            w,
            &outs,
            &result,
            &rcfg,
            pred_mape_pct,
            &mut work,
            &mut failures,
        )
    });
    let retired = sim.acct.offered;
    let pass = Pass {
        host: Host {
            wall_s: 0.0,
            setup_s,
            serve_s,
            retired,
        },
        sim,
        work,
        layers,
        mlp,
        data,
        failures,
        telemetry_pair: None,
    };
    let cluster = ClusterRun {
        cfg: rcfg,
        arrivals,
        inputs,
        records: result.records,
    };
    (pass, lib, cluster)
}

/// Query conservation: the records are exactly one per arrival, matched
/// as multisets of (service, arrival time). `service_of` maps an arrival's
/// service index to the one its record carries.
fn conserved(
    arrivals: &[Arrival],
    records: &[QueryRecord],
    service_of: impl Fn(usize) -> usize,
) -> Result<(), String> {
    let key = |service: usize, at_ms: f64| (service, at_ms.to_bits());
    let mut offered: Vec<_> = arrivals
        .iter()
        .map(|a| key(service_of(a.service), a.at_ms))
        .collect();
    let mut retired: Vec<_> = records
        .iter()
        .map(|r| key(r.service, r.arrival_ms))
        .collect();
    offered.sort_unstable();
    retired.sort_unstable();
    if offered == retired {
        Ok(())
    } else {
        Err(format!(
            "{} arrivals but {} records, not one record per arrival",
            arrivals.len(),
            records.len()
        ))
    }
}

fn serve_cell<S: Scheduler>(
    scheduler: &mut S,
    exec: &mut SegmentalExecutor,
    lib: &ModelLibrary,
    c: &Cell,
    checker: &mut InvariantChecker,
) -> Vec<QueryRecord> {
    span("serving.node", || {
        simulate_node_checked(
            scheduler,
            exec,
            lib,
            &c.services,
            &c.workload,
            NodeOptions::default(),
            Some(checker),
        )
    })
}

/// The fleet config: the diurnal trace compressed to `bucket_ms` buckets,
/// the autoscaler reading it one bucket ahead, every Abacus config pinned.
fn routed_config(w: &Workload, seed: u64, reference: &GpuSpec) -> RoutedClusterConfig {
    let f = &w.fleet;
    let minutes = synthesize_maf_like(f.buckets, f.plateau_qps, TRACE_SEED);
    let trace = RateTrace::with_bucket_ms(minutes.rates().to_vec(), f.bucket_ms);
    let mut cfg = RoutedClusterConfig::paper(trace, fork_seed(seed, CLUSTER_STREAM));
    cfg.pools = f.pools.clone();
    cfg.reference = reference.clone();
    cfg.models = f.models.clone();
    cfg.qos_ms = f.qos_ms;
    cfg.abacus = pinned_abacus();
    cfg.autoscale = Some(PredictiveAutoscaler {
        lead_ms: f.bucket_ms,
        ..PredictiveAutoscaler::new(f.autoscale_qps_per_gpu, f.min_gpus)
    });
    cfg
}

/// Sample, profile and featurize stage by stage, with the seeds and the
/// single flattened parallel profiling pass `train_unified` uses.
fn staged_dataset(
    sets: &[Vec<ModelId>],
    lib: &ModelLibrary,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    cfg: &TrainerConfig,
) -> Dataset {
    let specs_per_set: Vec<Vec<GroupSpec>> = span("predictor.sample", || {
        sets.iter()
            .enumerate()
            .map(|(i, set)| {
                let s = stream_seed(cfg.seed, i as u64, SAMPLE_STREAM);
                sample_groups(set, cfg.samples_per_set, lib, s)
            })
            .collect()
    });
    let profiled: Vec<ProfiledGroup> = span("predictor.profile", || {
        let jobs: Vec<(&GroupSpec, u64)> = specs_per_set
            .iter()
            .enumerate()
            .flat_map(|(i, specs)| {
                let profile_seed = stream_seed(cfg.seed, i as u64, PROFILE_STREAM);
                specs
                    .iter()
                    .enumerate()
                    .map(move |(g, spec)| (spec, fork_seed(profile_seed, g as u64)))
            })
            .collect();
        jobs.par_iter()
            .map(|(spec, s)| profile_group(spec, lib, gpu, noise, *s, cfg.runs_per_group))
            .collect()
    });
    span("predictor.featurize", || {
        Dataset::from_profiles(&profiled, lib)
    })
}

/// Check that the stage-by-stage campaign yields the dataset
/// `train_unified` returned.
pub fn check_staged_dataset(w: &Workload, data: &Dataset) -> Result<(), String> {
    let lib = ModelLibrary::new();
    let cfg = trainer_config(w);
    let staged = staged_dataset(
        &w.campaign.sets,
        &lib,
        &w.campaign.gpu.spec(),
        &NoiseModel::calibrated(),
        &cfg,
    );
    if &staged == data {
        Ok(())
    } else {
        Err("stage-by-stage campaign dataset differs from train_unified's".into())
    }
}

/// MAPE (%) of `mlp` on groups sampled and profiled from the held-out
/// streams.
fn holdout_mape(
    mlp: &Mlp,
    sets: &[Vec<ModelId>],
    lib: &ModelLibrary,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    cfg: &TrainerConfig,
    per_set: usize,
) -> f64 {
    let mut held_out = Dataset::new();
    for (i, set) in sets.iter().enumerate() {
        let label = HOLDOUT_LABEL + i as u64;
        let specs = sample_groups(
            set,
            per_set,
            lib,
            stream_seed(cfg.seed, label, SAMPLE_STREAM),
        );
        let profiled = profile_groups(
            &specs,
            lib,
            gpu,
            noise,
            stream_seed(cfg.seed, label, PROFILE_STREAM),
            cfg.runs_per_group,
        );
        held_out.extend(Dataset::from_profiles(&profiled, lib));
    }
    100.0 * predictor::eval::mape(mlp, &held_out)
}

/// Pooled QoS of a group of node cells: (viol ratio, p99 over the mean
/// QoS target, within-QoS completions per simulated node-second).
fn pooled_node(outs: &[&CellOut], horizon_ms: f64) -> (f64, f64, f64) {
    let mut all = ServiceStats::new();
    let mut qos = Vec::new();
    for o in outs {
        all.extend_from(&o.stats);
        qos.extend_from_slice(&o.qos_ms);
    }
    let mean_qos = qos.iter().sum::<f64>() / qos.len() as f64;
    let node_secs = outs.len() as f64 * horizon_ms / 1000.0;
    (
        all.violation_ratio(),
        all.p99_latency() / mean_qos,
        all.goodput_queries() as f64 / node_secs,
    )
}

fn score(
    w: &Workload,
    outs: &[CellOut],
    cluster: &RoutedRunResult,
    rcfg: &RoutedClusterConfig,
    pred_mape_pct: f64,
    work: &mut Work,
    failures: &mut Vec<String>,
) -> Sim {
    let rungs: Vec<Rung> = w
        .node
        .rungs_qps
        .iter()
        .enumerate()
        .map(|(ri, &qps)| {
            let at: Vec<&CellOut> = outs.iter().filter(|o| o.rung == ri).collect();
            let (viol_ratio, p99_norm, _) = pooled_node(&at, w.node.horizon_ms);
            Rung {
                qps,
                viol_ratio,
                p99_norm,
            }
        })
        .collect();
    let viols: Vec<f64> = rungs.iter().map(|r| r.viol_ratio).collect();
    let capacity_qps = match ladder_capacity(&w.node.rungs_qps, &viols, VIOL_LIMIT) {
        Ok(c) => c,
        Err(e) => {
            failures.push(format!("capacity ladder: {e}"));
            0.0
        }
    };

    let mut cluster_stats = ServiceStats::new();
    cluster_stats.record_all(&cluster.records);
    let horizon_ms = rcfg.trace.horizon_ms();
    let (viol_ratio, p99_norm, goodput_qps) = match w.primary {
        Primary::NodeRung(r) => {
            let at: Vec<&CellOut> = outs.iter().filter(|o| o.rung == r).collect();
            pooled_node(&at, w.node.horizon_ms)
        }
        Primary::NodeLadder => pooled_node(&outs.iter().collect::<Vec<_>>(), w.node.horizon_ms),
        Primary::Cluster => (
            cluster_stats.violation_ratio(),
            cluster_stats.p99_latency() / rcfg.qos_ms,
            cluster_stats.goodput_qps(horizon_ms),
        ),
    };

    let mut node_all = ServiceStats::new();
    let mut digest = FNV_OFFSET;
    let mut acct = Accounting::default();
    let mut tally = |records: &[QueryRecord], acct: &mut Accounting| {
        digest_records(&mut digest, records);
        acct.offered += records.len() as u64;
        for r in records {
            match r.outcome {
                QueryOutcome::Completed => acct.completed += 1,
                QueryOutcome::Dropped => acct.dropped += 1,
                QueryOutcome::TimedOut => acct.timed_out += 1,
            }
        }
    };
    for o in outs {
        node_all.extend_from(&o.stats);
        tally(&o.records, &mut acct);
    }
    tally(&cluster.records, &mut acct);
    // Ingress sheds are recorded as drops; count them apart.
    acct.shed = cluster.router.shed;
    acct.dropped -= acct.shed;

    work.queue_p50_ms = node_all.queue_p50_ms();
    work.queue_p99_ms = node_all.queue_p99_ms();
    work.routed = cluster.router.routed;
    work.spilled = cluster.router.spilled;
    work.shed = cluster.router.shed;
    work.router_forwards = cluster.router.forwards;
    work.active_gpus_mean = cluster.autoscale.mean_active_gpus;
    let n = cluster.gpu_usage.len() as f64;
    work.busy_frac_mean = cluster
        .gpu_usage
        .iter()
        .map(|u| u.busy_fraction(horizon_ms))
        .sum::<f64>()
        / n;
    work.overlap_gain_mean = cluster
        .gpu_usage
        .iter()
        .map(|u| u.overlap_gain())
        .sum::<f64>()
        / n;

    Sim {
        viol_ratio,
        p99_norm,
        goodput_qps,
        capacity_qps,
        pred_mape_pct,
        digest,
        acct,
        rungs,
    }
}
