//! Single-GPU serving simulation and experiment drivers.
//!
//! This crate ties the substrate together into the paper's evaluation
//! harness: [`node`] is the one per-GPU serving loop, [`NodeServer`]
//! (arrivals → queue → scheduler → segmental executor), which single-GPU
//! runs and every cluster GPU share, [`mps`] reproduces the Fig. 3
//! free-overlap motivation, [`trainer`] runs the offline
//! sample-profile-train pipeline, and [`experiment`] holds the one node-run
//! driver ([`run`] over a [`RunSpec`]) behind the §7.2–7.5 co-location
//! studies, with paired workloads across policies.

pub mod deploy;
pub mod experiment;
pub mod invariants;
pub mod mps;
pub mod node;
pub mod trainer;

pub use deploy::{memory_report, MemoryReport, ServiceFootprint};
pub use experiment::{
    build_workload, run, services_for, ColocationConfig, PolicyKind, RunOutcome, RunSpec,
};
pub use invariants::InvariantChecker;
pub use mps::{mps_victim_latencies, victim_solo_ms, MpsConfig};
pub use node::{
    simulate_node_checked, GpuUsage, NodeIo, NodeOptions, NodeServer, NodeWorkload, ServiceSpec,
};
pub use trainer::{
    collect_dataset, collect_profiles, train_certified, train_unified, CertifiedPredictor,
    TrainerConfig,
};
