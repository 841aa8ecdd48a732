//! The node-run driver for the §7.2–7.5 single-GPU studies.
//!
//! A [`RunSpec`] names everything one run depends on — the deployed
//! services, the policy, the predictor and optional certifier, the
//! [`FaultPlan`], the defensive [`NodeOptions`] and the
//! [`ColocationConfig`] — and [`run`] executes it on one GPU, returning
//! the aggregated statistics the paper's figures report together with the
//! raw records, the invariant checker's verdict and the controller's
//! degradation flag. Telemetry is attached per call. The workload (arrival
//! times and query inputs) is derived solely from the experiment seed, so
//! the four policies of a figure row are compared on *identical* query
//! streams.

use crate::invariants::InvariantChecker;
use crate::node::{simulate_node_instrumented, NodeOptions, NodeWorkload, ServiceSpec};
use abacus_core::{
    AbacusConfig, AbacusScheduler, BaselinePolicy, BaselineScheduler, Scheduler,
    SegmentalExecutor,
};
use abacus_metrics::{QueryRecord, ServiceStats};
use dnn_models::{ModelId, ModelLibrary};
use faults::{burst_arrivals, burst_input_rng, FaultPlan};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::LatencyModel;
use std::sync::Arc;
use telemetry::Telemetry;
use workload::{fork_seed, merge_arrivals, PoissonProcess, SeededRng};

/// The four policies compared throughout §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// First come, first served (Nexus/Clockwork default).
    Fcfs,
    /// Shortest job first.
    Sjf,
    /// Earliest deadline first.
    Edf,
    /// The paper's system.
    Abacus,
}

impl PolicyKind {
    /// All policies in the paper's figure order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Fcfs,
        PolicyKind::Sjf,
        PolicyKind::Edf,
        PolicyKind::Abacus,
    ];

    /// Figure label.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "FCFS",
            PolicyKind::Sjf => "SJF",
            PolicyKind::Edf => "EDF",
            PolicyKind::Abacus => "Abacus",
        }
    }
}

/// One co-location experiment's knobs.
#[derive(Debug, Clone)]
pub struct ColocationConfig {
    /// Offered load per service, queries per second (50 for the QoS
    /// studies, 100 for peak throughput).
    pub qps_per_service: f64,
    /// Measurement horizon, ms.
    pub horizon_ms: f64,
    /// Experiment seed (drives arrivals, inputs, and execution noise).
    pub seed: u64,
    /// Fig. 16 mode: pin every query to the model's minimum input and
    /// tighten QoS to 2× the minimum-input solo latency.
    pub small_inputs: bool,
    /// Abacus controller configuration.
    pub abacus: AbacusConfig,
}

impl Default for ColocationConfig {
    fn default() -> Self {
        Self {
            qps_per_service: 50.0,
            horizon_ms: 30_000.0,
            seed: 2021,
            small_inputs: false,
            abacus: AbacusConfig::default(),
        }
    }
}

/// One node run: what is deployed, under which policy and predictor, and
/// every optional knob, resolved to a value.
///
/// [`RunSpec::new`] fills the knobs with their inert defaults (no
/// certifier, [`FaultPlan::none`], default [`NodeOptions`]); override a
/// field with struct-update syntax. Every default is inert: the run is
/// bit-identical to one without the knob, which the run-equivalence table
/// test pins.
#[derive(Clone)]
pub struct RunSpec<'a> {
    /// Deployed services in deployment order (a record's `service` indexes
    /// this list). The MIG study overrides it to keep QoS targets
    /// calibrated on the full GPU while `gpu` is a slice.
    pub services: Vec<ServiceSpec>,
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Mean latency predictor; required for [`PolicyKind::Abacus`] and
    /// ignored otherwise.
    pub predictor: Option<Arc<dyn LatencyModel>>,
    /// Conformal certifier wired into the Abacus controller
    /// ([`AbacusScheduler::with_certifier`]); inert unless
    /// `cfg.abacus.conformal` is set.
    pub certifier: Option<Arc<dyn LatencyModel>>,
    /// Injected faults. The plan wraps only the *mean* predictor: the
    /// certifier calibrates a bound over the healthy model's behaviour.
    pub plan: FaultPlan,
    /// Defensive serving-loop options.
    pub opts: NodeOptions,
    /// Load, horizon, seed and Abacus configuration.
    pub cfg: ColocationConfig,
    /// Model library.
    pub lib: &'a Arc<ModelLibrary>,
    /// The GPU the services execute on.
    pub gpu: &'a GpuSpec,
    /// Execution-noise model.
    pub noise: &'a NoiseModel,
}

impl<'a> RunSpec<'a> {
    /// A fault-free, undefended, uncertified run of `models` on `gpu`, with
    /// QoS targets resolved by [`services_for`].
    pub fn new(
        models: &[ModelId],
        policy: PolicyKind,
        predictor: Option<Arc<dyn LatencyModel>>,
        lib: &'a Arc<ModelLibrary>,
        gpu: &'a GpuSpec,
        noise: &'a NoiseModel,
        cfg: &ColocationConfig,
    ) -> Self {
        Self {
            services: services_for(models, lib, gpu, cfg.small_inputs),
            policy,
            predictor,
            certifier: None,
            plan: FaultPlan::none(),
            opts: NodeOptions::default(),
            cfg: cfg.clone(),
            lib,
            gpu,
            noise,
        }
    }
}

/// Outcome of one node run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Stats per service, in deployment order.
    pub per_service: Vec<ServiceStats>,
    /// Pooled stats over every query of the run.
    pub all: ServiceStats,
    /// The horizon used (for throughput normalisation).
    pub horizon_ms: f64,
    /// Per-service QoS targets, ms.
    pub qos_ms: Vec<f64>,
    /// Raw per-query records, in completion/drop order (the telemetry
    /// event stream joins against them by query id).
    pub records: Vec<QueryRecord>,
    /// Serving-loop invariant violations detected during the run
    /// (empty = every invariant held).
    pub invariant_violations: Vec<String>,
    /// Whether the Abacus controller degraded to FCFS dispatch
    /// (always `false` for baseline policies).
    pub degraded: bool,
}

impl RunOutcome {
    /// Pooled p99 normalised to the *mean* QoS target (the paper's Fig. 14
    /// normalises each pair's latency to its QoS target).
    pub fn normalized_p99(&self) -> f64 {
        let mean_qos = self.qos_ms.iter().sum::<f64>() / self.qos_ms.len() as f64;
        self.all.p99_latency() / mean_qos
    }

    /// Pooled QoS violation ratio (drops count, Fig. 15).
    pub fn violation_ratio(&self) -> f64 {
        self.all.violation_ratio()
    }

    /// Goodput in queries/s (completions within QoS).
    pub fn goodput_qps(&self) -> f64 {
        self.all.goodput_qps(self.horizon_ms)
    }

    /// Peak throughput in completed queries/s (Fig. 17 convention).
    pub fn completed_qps(&self) -> f64 {
        self.all.completed_qps(self.horizon_ms)
    }
}

/// Build the deterministic workload for a deployment.
pub fn build_workload(
    services: &[ServiceSpec],
    lib: &ModelLibrary,
    cfg: &ColocationConfig,
) -> NodeWorkload {
    let mut rng = SeededRng::new(fork_seed(cfg.seed, 0x77));
    let streams: Vec<_> = (0..services.len())
        .map(|s| PoissonProcess::new(s, cfg.qps_per_service).generate(cfg.horizon_ms, &mut rng))
        .collect();
    let arrivals = merge_arrivals(streams);
    let inputs = arrivals
        .iter()
        .map(|a| {
            let model = services[a.service].model;
            if cfg.small_inputs {
                model.min_input()
            } else {
                lib.random_input(model, &mut rng)
            }
        })
        .collect();
    NodeWorkload::new(arrivals, inputs)
}

/// Resolve the deployment's services with their QoS targets on `gpu`.
pub fn services_for(
    models: &[ModelId],
    lib: &ModelLibrary,
    gpu: &GpuSpec,
    small_inputs: bool,
) -> Vec<ServiceSpec> {
    models
        .iter()
        .map(|&m| ServiceSpec {
            model: m,
            qos_ms: if small_inputs {
                lib.qos_target_small_ms(m, gpu)
            } else {
                lib.qos_target_ms(m, gpu)
            },
        })
        .collect()
}

/// Run one node to completion under `spec`, recording into `telemetry`
/// when attached.
///
/// The serving-loop [`InvariantChecker`] always rides along; it only
/// observes. Kernel spans are harvested exactly when the telemetry asks
/// for them. Telemetry never feeds back into the simulation, so the
/// records are bit-identical with and without it.
pub fn run(spec: &RunSpec, mut telemetry: Option<&mut Telemetry>) -> RunOutcome {
    let RunSpec {
        ref services,
        policy,
        ref predictor,
        ref certifier,
        ref plan,
        opts,
        ref cfg,
        lib,
        gpu,
        noise,
    } = *spec;
    let workload = build_faulty_workload(services, lib, cfg, plan);
    let mut executor = SegmentalExecutor::new(
        gpu.clone(),
        noise.clone(),
        lib.clone(),
        fork_seed(cfg.seed, 0xE0),
    );
    executor.set_kernel_faults(plan.kernel_fault_spec());
    if telemetry
        .as_deref()
        .is_some_and(Telemetry::kernel_trace_enabled)
    {
        executor.enable_kernel_trace();
    }
    let baseline = match policy {
        PolicyKind::Fcfs => Some(BaselinePolicy::Fcfs),
        PolicyKind::Sjf => Some(BaselinePolicy::Sjf),
        PolicyKind::Edf => Some(BaselinePolicy::Edf),
        PolicyKind::Abacus => None,
    };
    let (mut abacus, mut fixed) = (None, None);
    let scheduler: &mut dyn Scheduler = match baseline {
        Some(kind) => fixed.insert(BaselineScheduler::new(kind, lib.clone(), gpu.clone())),
        None => {
            if let Some(t) = telemetry.as_deref_mut() {
                t.set_predictor_ways(cfg.abacus.ways);
            }
            let model = predictor.clone().expect("Abacus needs a latency predictor");
            abacus.insert(AbacusScheduler::with_certifier(
                plan.wrap_predictor(model),
                certifier.clone(),
                lib.clone(),
                cfg.abacus.clone(),
            ))
        }
    };
    let mut checker = InvariantChecker::new();
    let records = simulate_node_instrumented(
        scheduler,
        &mut executor,
        lib,
        services,
        &workload,
        opts,
        Some(&mut checker),
        telemetry,
    );
    let mut per_service: Vec<ServiceStats> = services.iter().map(|_| ServiceStats::new()).collect();
    let mut all = ServiceStats::new();
    for r in &records {
        per_service[r.service].record(r);
        all.record(r);
    }
    RunOutcome {
        per_service,
        all,
        horizon_ms: cfg.horizon_ms,
        qos_ms: services.iter().map(|s| s.qos_ms).collect(),
        records,
        invariant_violations: checker.violations().to_vec(),
        degraded: abacus.is_some_and(|s| s.is_degraded()),
    }
}

/// The deterministic workload for a deployment with a [`FaultPlan`]'s
/// arrival burst merged in.
///
/// The base workload's RNG draws are untouched — the burst arrivals and
/// their inputs come from streams forked off the *plan* seed, then the two
/// time-sorted streams are merged stably by `(at_ms, service)` with the
/// base stream winning ties. A plan without a burst returns exactly
/// [`build_workload`]'s output.
fn build_faulty_workload(
    services: &[ServiceSpec],
    lib: &ModelLibrary,
    cfg: &ColocationConfig,
    plan: &FaultPlan,
) -> NodeWorkload {
    let base = build_workload(services, lib, cfg);
    let Some(burst) = plan.burst else {
        return base;
    };
    let extra = burst_arrivals(&burst, services.len(), plan.seed);
    if extra.is_empty() {
        return base;
    }
    let mut rng = burst_input_rng(plan.seed);
    let extra_inputs: Vec<_> = extra
        .iter()
        .map(|a| {
            let model = services[a.service].model;
            if cfg.small_inputs {
                model.min_input()
            } else {
                lib.random_input(model, &mut rng)
            }
        })
        .collect();
    let mut pairs: Vec<_> = base
        .arrivals
        .into_iter()
        .zip(base.inputs)
        .chain(extra.into_iter().zip(extra_inputs))
        .collect();
    pairs.sort_by(|a, b| a.0.at_ms.total_cmp(&b.0.at_ms).then(a.0.service.cmp(&b.0.service)));
    let (arrivals, inputs) = pairs.into_iter().unzip();
    NodeWorkload::new(arrivals, inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{train_unified, TrainerConfig};
    use telemetry::HealthConfig;

    fn setup() -> (Arc<ModelLibrary>, GpuSpec, NoiseModel) {
        (
            Arc::new(ModelLibrary::new()),
            GpuSpec::a100(),
            NoiseModel::calibrated(),
        )
    }

    fn small_cfg() -> ColocationConfig {
        ColocationConfig {
            qps_per_service: 40.0,
            horizon_ms: 6_000.0,
            seed: 3,
            ..ColocationConfig::default()
        }
    }

    #[test]
    fn abacus_beats_fcfs_on_overlap_friendly_pair() {
        let (lib, gpu, noise) = setup();
        let models = [ModelId::ResNet50, ModelId::ResNet152];
        let (mlp, _) = train_unified(
            &[models.to_vec()],
            &lib,
            &gpu,
            &noise,
            &TrainerConfig {
                samples_per_set: 600,
                runs_per_group: 3,
                ..TrainerConfig::fast()
            },
        );
        let mlp: Arc<dyn LatencyModel> = Arc::new(mlp);
        let cfg = small_cfg();
        let spec = |policy, pred| RunSpec::new(&models, policy, pred, &lib, &gpu, &noise, &cfg);
        let fcfs = run(&spec(PolicyKind::Fcfs, None), None);
        let abacus = run(&spec(PolicyKind::Abacus, Some(mlp)), None);
        // Same total queries (identical workload).
        assert_eq!(fcfs.all.total(), abacus.all.total());
        assert!(
            abacus.goodput_qps() >= fcfs.goodput_qps() * 0.98,
            "abacus {} vs fcfs {}",
            abacus.goodput_qps(),
            fcfs.goodput_qps()
        );
        assert!(
            abacus.violation_ratio() <= fcfs.violation_ratio() + 0.02,
            "abacus {} vs fcfs {}",
            abacus.violation_ratio(),
            fcfs.violation_ratio()
        );
    }

    #[test]
    fn policies_see_identical_workloads() {
        let (lib, gpu, noise) = setup();
        let models = [ModelId::ResNet50, ModelId::Bert];
        let cfg = small_cfg();
        let spec = |policy| RunSpec::new(&models, policy, None, &lib, &gpu, &noise, &cfg);
        let a = run(&spec(PolicyKind::Fcfs), None);
        let b = run(&spec(PolicyKind::Edf), None);
        assert_eq!(a.all.total(), b.all.total());
    }

    #[test]
    fn small_input_mode_tightens_qos() {
        let (lib, gpu, _) = setup();
        let normal = services_for(&[ModelId::ResNet101], &lib, &gpu, false);
        let small = services_for(&[ModelId::ResNet101], &lib, &gpu, true);
        assert!(small[0].qos_ms < normal[0].qos_ms);
    }

    /// The fixture of the inert-knob tests: the small ResNet-50 + BERT
    /// cell with `predict_round_ms` pinned (startup calibration is
    /// wall-clock-measured, so unpinned Abacus runs are not repeatable)
    /// and a trained mean predictor.
    fn inert_fixture() -> (
        Arc<ModelLibrary>,
        GpuSpec,
        NoiseModel,
        ColocationConfig,
        Arc<dyn LatencyModel>,
    ) {
        let (lib, gpu, noise) = setup();
        let mut cfg = small_cfg();
        cfg.abacus.predict_round_ms = Some(0.08);
        assert!(!cfg.abacus.conformal);
        let (mlp, _) = train_unified(
            &[INERT_PAIR.to_vec()],
            &lib,
            &gpu,
            &noise,
            &TrainerConfig::fast(),
        );
        (lib, gpu, noise, cfg, Arc::new(mlp))
    }

    const INERT_PAIR: [ModelId; 2] = [ModelId::ResNet50, ModelId::Bert];

    /// Runs `spec` with `tel` attached and asserts it reproduces `expected`
    /// bit for bit, holds every serving invariant and never degrades.
    fn assert_matches_bare(
        spec: &RunSpec,
        tel: Option<&mut Telemetry>,
        expected: &[QueryRecord],
        leg: &str,
    ) {
        let out = run(spec, tel);
        let name = spec.policy.name();
        assert_eq!(out.records, expected, "{name}: {leg} changed the records");
        assert_eq!(
            out.invariant_violations,
            Vec::<String>::new(),
            "{name}: {leg}"
        );
        assert!(!out.degraded, "{name}: {leg} degraded");
    }

    /// A plan that injects nothing leaves every policy's run bit-identical,
    /// even with a seed and the defensive options spelled out.
    #[test]
    fn faulty_runner_with_none_plan_matches_plain_runner() {
        let (lib, gpu, noise, cfg, mlp) = inert_fixture();
        for policy in PolicyKind::ALL {
            let pred = (policy == PolicyKind::Abacus).then(|| mlp.clone());
            let bare = RunSpec::new(&INERT_PAIR, policy, pred, &lib, &gpu, &noise, &cfg);
            let expected = run(&bare, None).records;
            let none_plan = RunSpec {
                plan: FaultPlan {
                    seed: 0x5EED,
                    ..FaultPlan::none()
                },
                opts: NodeOptions::default(),
                ..bare.clone()
            };
            assert!(none_plan.plan.is_none());
            assert_matches_bare(&none_plan, None, &expected, "empty fault plan");
        }
    }

    /// A certifier carried with `conformal` off is inert for every policy,
    /// the Abacus controller included.
    #[test]
    fn certified_runner_without_certifier_matches_faulty_runner() {
        let (lib, gpu, noise, cfg, mlp) = inert_fixture();
        for policy in PolicyKind::ALL {
            let pred = (policy == PolicyKind::Abacus).then(|| mlp.clone());
            let bare = RunSpec::new(&INERT_PAIR, policy, pred, &lib, &gpu, &noise, &cfg);
            let expected = run(&bare, None).records;
            let certified = RunSpec {
                certifier: Some(mlp.clone()),
                ..bare.clone()
            };
            assert_matches_bare(&certified, None, &expected, "certifier, conformal off");
        }
    }

    /// Telemetry with kernel traces and health monitors attached observes
    /// every policy's run without perturbing it.
    #[test]
    fn observed_runner_matches_plain_runner() {
        let (lib, gpu, noise, cfg, mlp) = inert_fixture();
        for policy in PolicyKind::ALL {
            let pred = (policy == PolicyKind::Abacus).then(|| mlp.clone());
            let bare = RunSpec::new(&INERT_PAIR, policy, pred, &lib, &gpu, &noise, &cfg);
            let expected = run(&bare, None).records;
            let mut observed = Telemetry::with_kernel_trace();
            observed.enable_health(HealthConfig::default());
            assert_matches_bare(&bare, Some(&mut observed), &expected, "telemetry + health");
            // The telemetry really observed the run.
            let arrived = observed.registry.get(telemetry::Counter::QueriesArrived);
            assert_eq!(arrived, expected.len() as u64);
            assert!(!observed.kernel_spans().is_empty() && observed.health().is_some());
        }
    }

    #[test]
    fn faulty_run_holds_invariants_and_grows_workload() {
        let (lib, gpu, noise) = setup();
        let models = [ModelId::ResNet50, ModelId::ResNet101];
        let cfg = small_cfg();
        let plan = FaultPlan::at_intensity(11, 0.6);
        let services = services_for(&models, &lib, &gpu, cfg.small_inputs);
        let base = build_workload(&services, &lib, &cfg);
        let bursty = build_faulty_workload(&services, &lib, &cfg, &plan);
        assert!(bursty.len() > base.len(), "burst must add arrivals");
        // Base draws are a subsequence: injection never reshuffles them.
        let mut base_iter = base.arrivals.iter().zip(&base.inputs).peekable();
        for pair in bursty.arrivals.iter().zip(&bursty.inputs) {
            if base_iter.peek() == Some(&pair) {
                base_iter.next();
            }
        }
        assert!(base_iter.peek().is_none(), "base workload perturbed");

        let spec = RunSpec {
            plan,
            opts: NodeOptions {
                timeout_factor: Some(4.0),
            },
            ..RunSpec::new(&models, PolicyKind::Fcfs, None, &lib, &gpu, &noise, &cfg)
        };
        let out = run(&spec, None);
        assert_eq!(
            out.invariant_violations,
            Vec::<String>::new(),
            "faults must not break serving invariants"
        );
        assert_eq!(out.all.total(), bursty.len());
    }

    #[test]
    fn conformal_certification_changes_planning_when_enabled() {
        let (lib, gpu, noise) = setup();
        let models = [ModelId::ResNet50, ModelId::ResNet152];
        let mut cfg = small_cfg();
        cfg.abacus.conformal = true;
        let certified = crate::trainer::train_certified(
            &[models.to_vec()],
            &lib,
            &gpu,
            &noise,
            &TrainerConfig::fast(),
            0.05,
        );
        let mean: Arc<dyn LatencyModel> = Arc::new(certified.mean);
        let spec = RunSpec {
            certifier: Some(Arc::new(certified.certifier)),
            ..RunSpec::new(
                &models,
                PolicyKind::Abacus,
                Some(mean),
                &lib,
                &gpu,
                &noise,
                &cfg,
            )
        };
        let out = run(&spec, None);
        assert!(out.invariant_violations.is_empty());
        assert!(!out.degraded);
        assert!(out.all.total() > 0);
        // Certified planning still serves the workload usefully.
        assert!(out.violation_ratio() < 0.5);
    }

    #[test]
    fn results_are_reproducible() {
        let (lib, gpu, noise) = setup();
        let models = [ModelId::InceptionV3, ModelId::Vgg16];
        let spec = RunSpec::new(
            &models,
            PolicyKind::Edf,
            None,
            &lib,
            &gpu,
            &noise,
            &small_cfg(),
        );
        let (a, b) = (run(&spec, None), run(&spec, None));
        assert_eq!(a.all.p99_latency(), b.all.p99_latency());
        assert_eq!(a.all.total(), b.all.total());
    }
}
