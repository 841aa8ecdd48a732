//! The pre-overhaul K8s cluster path: round-robin ingress across nodes,
//! least-connections GPU pick within a node, every GPU advanced to each
//! arrival's timestamp, per-round `Scheduler::decide` (fresh allocations,
//! no admit/retire hooks), and no ingress admission — every arrival is
//! enqueued regardless of whether any GPU could still meet its deadline.
//!
//! A line-faithful copy of `cluster::sim`'s per-GPU loop and K8s driver as
//! of the pre-overhaul tree. `cluster_bench` times it as the ingress
//! baseline, and the K8s golden test pins `cluster::run_cluster_detailed`
//! to it record for record.

use abacus_core::{AbacusConfig, AbacusScheduler, Query, Scheduler, SegmentalExecutor};
use abacus_metrics::{QueryOutcome, QueryRecord};
use dnn_models::{ModelId, ModelLibrary, QueryInput};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::LatencyModel;
use std::sync::Arc;
use workload::{fork_seed, Arrival};

/// Heterogeneity the way the pre-overhaul path expressed it: one
/// reference spec plus per-node capacity slowdowns.
pub struct Config {
    /// Server nodes; arrivals go round-robin across them.
    pub nodes: usize,
    /// GPUs per node, picked by least outstanding queries.
    pub gpus_per_node: usize,
    /// Deployed services (arrival service index ↦ model).
    pub models: Vec<ModelId>,
    /// Uniform QoS target, ms.
    pub qos_ms: f64,
    /// Seed the per-GPU execution noise forks from.
    pub seed: u64,
    /// Per-GPU Abacus controller settings.
    pub abacus: AbacusConfig,
    /// Simulate the nodes on separate threads.
    pub parallel: bool,
    /// Slowdown per node (1.0 = reference hardware).
    pub slowdowns: Vec<f64>,
}

fn node_gpu_spec(gpu: &GpuSpec, slowdown: f64) -> GpuSpec {
    assert!(
        slowdown.is_finite() && slowdown >= 1.0,
        "slowdown must be finite and >= 1, got {slowdown}"
    );
    if slowdown == 1.0 {
        return gpu.clone();
    }
    let mut g = gpu.clone();
    g.peak_flops /= slowdown;
    g.peak_bw /= slowdown;
    g
}

fn record_of(q: &Query, latency_ms: f64, outcome: QueryOutcome) -> QueryRecord {
    QueryRecord {
        service: q.model.index(),
        arrival_ms: q.arrival_ms,
        latency_ms,
        qos_ms: q.qos_ms,
        outcome,
        requests: q.input.batch,
        queue_ms: q.queue_ms().unwrap_or(latency_ms),
    }
}

struct GpuSim {
    scheduler: Box<dyn Scheduler>,
    executor: SegmentalExecutor,
    queue: Vec<Query>,
    free_at: f64,
}

impl GpuSim {
    fn outstanding(&self) -> usize {
        self.queue.len()
    }

    fn advance(&mut self, until: f64, lib: &ModelLibrary, records: &mut Vec<QueryRecord>) {
        loop {
            if self.queue.is_empty() {
                break;
            }
            let earliest = self
                .queue
                .iter()
                .map(|q| q.arrival_ms)
                .fold(f64::INFINITY, f64::min);
            let t = self.free_at.max(earliest);
            if t > until {
                break;
            }
            let decision = self.scheduler.decide(t, &self.queue);
            for id in &decision.dropped {
                let pos = self.queue.iter().position(|q| q.id == *id).unwrap();
                let q = self.queue.swap_remove(pos);
                records.push(record_of(&q, t - q.arrival_ms, QueryOutcome::Dropped));
            }
            let Some(group) = decision.group else {
                continue;
            };
            let start = t + decision.overhead_ms;
            for e in &group.entries {
                let pos = self.queue.iter().position(|q| q.id == e.query_id).unwrap();
                self.queue[pos].mark_started(start);
            }
            let spec = group.to_spec(|id| self.queue.iter().find(|q| q.id == id).unwrap(), lib);
            let out = self.executor.execute(&spec);
            self.free_at = start + out.duration_ms;
            self.scheduler.on_group_complete(out.duration_ms);
            for e in &group.entries {
                let pos = self.queue.iter().position(|q| q.id == e.query_id).unwrap();
                self.queue[pos].advance_to(e.op_end);
                if self.queue[pos].is_complete() {
                    let q = self.queue.swap_remove(pos);
                    records.push(record_of(
                        &q,
                        self.free_at - q.arrival_ms,
                        QueryOutcome::Completed,
                    ));
                }
            }
        }
    }
}

/// Run the cluster; records are concatenated in node order.
pub fn run(
    cfg: &Config,
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    predictor: Arc<dyn LatencyModel>,
    arrivals: &[Arrival],
    inputs: &[QueryInput],
) -> Vec<QueryRecord> {
    let nodes = cfg.nodes.max(1);
    let mut node_arrivals: Vec<Vec<(u64, &Arrival, QueryInput)>> = vec![Vec::new(); nodes];
    for (i, (a, &input)) in arrivals.iter().zip(inputs).enumerate() {
        node_arrivals[i % nodes].push((i as u64, a, input));
    }
    let run_node = |node: usize| -> Vec<QueryRecord> {
        let node_gpu = node_gpu_spec(gpu, cfg.slowdowns[node]);
        let mut gpus: Vec<GpuSim> = (0..cfg.gpus_per_node)
            .map(|local| {
                let g = node * cfg.gpus_per_node + local;
                GpuSim {
                    scheduler: Box::new(AbacusScheduler::new(
                        predictor.clone(),
                        lib.clone(),
                        cfg.abacus.clone(),
                    )),
                    executor: SegmentalExecutor::new(
                        node_gpu.clone(),
                        noise.clone(),
                        lib.clone(),
                        fork_seed(cfg.seed, 0xE000 + g as u64),
                    ),
                    queue: Vec::new(),
                    free_at: 0.0,
                }
            })
            .collect();
        let mut records = Vec::with_capacity(node_arrivals[node].len());
        for &(id, a, input) in &node_arrivals[node] {
            for g in gpus.iter_mut() {
                g.advance(a.at_ms, lib, &mut records);
            }
            let target = gpus
                .iter()
                .enumerate()
                .min_by_key(|(i, g)| (g.outstanding(), *i))
                .map(|(i, _)| i)
                .unwrap();
            let model = cfg.models[a.service];
            let n_ops = lib.graph(model, input).len();
            gpus[target]
                .queue
                .push(Query::new(id, model, input, a.at_ms, cfg.qos_ms, n_ops));
        }
        for g in gpus.iter_mut() {
            g.advance(f64::INFINITY, lib, &mut records);
        }
        records
    };
    let per_node: Vec<Vec<QueryRecord>> = if cfg.parallel && nodes > 1 {
        use rayon::prelude::*;
        (0..nodes).into_par_iter().map(run_node).collect()
    } else {
        (0..nodes).map(run_node).collect()
    };
    per_node.into_iter().flatten().collect()
}
