//! The three workloads. Each runs the same pipeline — offline campaign,
//! node serving over an offered-load ladder, a routed cluster run — with
//! the weight on a different layer, so every layer is measured on every
//! workload and each workload is dominated by the layer it was chosen for.

use cluster::NodePool;
use dnn_models::ModelId;
use gpu_sim::{GpuSpec, MigProfile};
use predictor::all_pairs;
use ModelId::*;

/// Hardware a phase runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gpu {
    A100,
    V100,
}

impl Gpu {
    pub fn spec(self) -> GpuSpec {
        match self {
            Gpu::A100 => GpuSpec::a100(),
            Gpu::V100 => GpuSpec::v100(),
        }
    }
}

/// The offline predictor campaign (§5.4): sample, profile, featurize,
/// train, then score on a held-out profiled set.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Hardware the campaign profiles and the model predicts for.
    pub gpu: Gpu,
    /// Co-location sets sampled.
    pub sets: Vec<Vec<ModelId>>,
    /// Groups sampled per set.
    pub samples_per_set: usize,
    /// Profiling runs per group.
    pub runs_per_group: usize,
    /// `Mlp::train` epochs.
    pub epochs: usize,
    /// Held-out groups per set, from a seed stream disjoint from training.
    pub holdout_per_set: usize,
}

/// Abacus serving every set at every rung of an offered-load ladder, one
/// single-GPU node per (set, rate) cell.
#[derive(Debug, Clone)]
pub struct NodeLadder {
    pub gpu: Gpu,
    pub sets: Vec<Vec<ModelId>>,
    /// Total offered load per cell, queries/s, ascending.
    pub rungs_qps: Vec<f64>,
    /// Arrival horizon per cell, simulated ms.
    pub horizon_ms: f64,
}

/// A heterogeneous fleet behind `HeadroomRouter` with the predictive
/// autoscaler, replaying a MAF-like diurnal trace.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// (label, GPUs, hardware) per pool.
    pub pools: Vec<NodePool>,
    pub models: Vec<ModelId>,
    pub qos_ms: f64,
    /// Trace length in buckets (the synthesizer's minutes).
    pub buckets: usize,
    /// Bucket length, simulated ms (compresses the diurnal shape).
    pub bucket_ms: f64,
    /// Plateau offered load, queries/s across the fleet.
    pub plateau_qps: f64,
    /// Autoscaler sizing: queries/s one reference GPU sustains.
    pub autoscale_qps_per_gpu: f64,
    pub min_gpus: usize,
}

/// Which phase the workload's QoS metrics (`viol_ratio`, `p99_norm`,
/// `goodput_qps`) are measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primary {
    /// Every set at one rung of the ladder.
    NodeRung(usize),
    /// Every cell of the ladder.
    NodeLadder,
    /// The cluster run.
    Cluster,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub campaign: Campaign,
    pub node: NodeLadder,
    pub fleet: Fleet,
    pub primary: Primary,
}

/// Names accepted by `--workload`.
pub const NAMES: [&str; 3] = ["campaign-cold", "node-colocate", "cluster-diurnal"];

/// The §7.4 quadruplet; also the cluster's service mix (Fig. 22).
const QUAD: [ModelId; 4] = [ResNet101, ResNet152, Vgg19, Bert];

fn fleet_pools(a100: usize, v100: usize, mig: usize) -> Vec<NodePool> {
    vec![
        NodePool {
            name: "a100",
            gpus: a100,
            gpu: GpuSpec::a100(),
        },
        NodePool {
            name: "v100",
            gpus: v100,
            gpu: GpuSpec::v100(),
        },
        NodePool {
            name: "mig-4g",
            gpus: mig,
            gpu: GpuSpec::a100().mig_slice(MigProfile::FourG20Gb),
        },
    ]
}

/// A small fleet run that keeps the routing and telemetry layers measured
/// on the node-heavy workloads.
fn probe_fleet(models: &[ModelId]) -> Fleet {
    Fleet {
        pools: fleet_pools(1, 2, 1),
        models: models.to_vec(),
        qos_ms: 100.0,
        buckets: 8,
        bucket_ms: 500.0,
        plateau_qps: 120.0,
        autoscale_qps_per_gpu: 55.0,
        min_gpus: 2,
    }
}

pub fn by_name(name: &str) -> Option<Workload> {
    let w = match name {
        // What a user pays on a cold `fig14`: the unified model over all 21
        // paper pairs, then a short serving pass at the 50 QPS QoS load.
        "campaign-cold" => Workload {
            name: "campaign-cold",
            campaign: Campaign {
                gpu: Gpu::A100,
                sets: all_pairs().iter().map(|p| p.to_vec()).collect(),
                samples_per_set: 600,
                runs_per_group: 3,
                epochs: 80,
                holdout_per_set: 100,
            },
            node: NodeLadder {
                gpu: Gpu::A100,
                sets: vec![
                    vec![ResNet50, Bert],
                    vec![ResNet50, Vgg16],
                    vec![ResNet101, InceptionV3],
                    vec![ResNet101, Vgg19],
                    vec![ResNet152, Bert],
                    vec![InceptionV3, Vgg16],
                    vec![InceptionV3, Bert],
                    vec![Vgg19, Bert],
                ],
                rungs_qps: vec![50.0, 100.0],
                horizon_ms: 45_000.0,
            },
            fleet: probe_fleet(&[ResNet50, Bert]),
            primary: Primary::NodeRung(0),
        },
        // Warm single-GPU serving: small-kernel pairs where overlap is
        // nearly free, VGG pairs where it degenerates to time-sharing, and
        // the paper's triplets and quadruplet, over a load ladder from the
        // 50 QPS QoS load and the 100 QPS peak upward.
        "node-colocate" => {
            let sets = vec![
                vec![ResNet50, Bert],
                vec![ResNet101, Bert],
                vec![Vgg16, Vgg19],
                vec![Vgg19, ResNet152],
                vec![ResNet101, ResNet152, Bert],
                vec![ResNet152, Vgg19, Bert],
                QUAD.to_vec(),
            ];
            Workload {
                name: "node-colocate",
                campaign: Campaign {
                    gpu: Gpu::A100,
                    sets: sets.clone(),
                    samples_per_set: 200,
                    runs_per_group: 2,
                    epochs: 40,
                    holdout_per_set: 100,
                },
                node: NodeLadder {
                    gpu: Gpu::A100,
                    sets,
                    rungs_qps: vec![30.0, 50.0, 100.0, 150.0, 200.0, 300.0],
                    horizon_ms: 20_000.0,
                },
                fleet: probe_fleet(&QUAD),
                primary: Primary::NodeLadder,
            }
        }
        // A 16-GPU A100/V100/MIG fleet behind the headroom router and the
        // predictive autoscaler, sized at capacity for the diurnal trace.
        "cluster-diurnal" => Workload {
            name: "cluster-diurnal",
            campaign: Campaign {
                gpu: Gpu::V100,
                sets: vec![QUAD.to_vec()],
                samples_per_set: 1000,
                runs_per_group: 3,
                epochs: 60,
                holdout_per_set: 500,
            },
            node: NodeLadder {
                gpu: Gpu::V100,
                sets: vec![QUAD.to_vec()],
                rungs_qps: vec![10.0, 15.0, 40.0, 60.0],
                horizon_ms: 30_000.0,
            },
            fleet: Fleet {
                pools: fleet_pools(4, 8, 4),
                models: QUAD.to_vec(),
                qos_ms: 100.0,
                buckets: 48,
                bucket_ms: 2_500.0,
                plateau_qps: 850.0,
                autoscale_qps_per_gpu: 55.0,
                min_gpus: 4,
            },
            primary: Primary::Cluster,
        },
        _ => return None,
    };
    Some(w)
}
