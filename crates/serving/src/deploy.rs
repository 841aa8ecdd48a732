//! Deployment memory accounting.
//!
//! §7.6 notes "Clockwork and Abacus use the same amount of GPU global
//! memory", and §7.8 bounds the executor's intermediate-result footprint.
//! This module answers the deployment-time question: do these models fit
//! resident on this GPU (or MIG slice) at all? Weights are counted once per
//! deployed service; the activation workspace is estimated from the largest
//! operator of each model at its maximum input.

use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::GpuSpec;

/// Memory footprint of one deployed service, bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceFootprint {
    /// Which model.
    pub model: ModelId,
    /// Resident parameter bytes.
    pub weight_bytes: f64,
    /// Estimated peak activation workspace at the maximum input, bytes.
    pub workspace_bytes: f64,
}

impl ServiceFootprint {
    /// Total bytes for this service.
    pub fn total(&self) -> f64 {
        self.weight_bytes + self.workspace_bytes
    }
}

/// A deployment's memory report against a GPU's capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryReport {
    /// Per-service footprints.
    pub services: Vec<ServiceFootprint>,
    /// GPU capacity, bytes.
    pub capacity_bytes: f64,
}

impl MemoryReport {
    /// Total deployment footprint, bytes.
    pub fn total_bytes(&self) -> f64 {
        self.services.iter().map(ServiceFootprint::total).sum()
    }

    /// True when the deployment fits in the GPU's global memory.
    pub fn fits(&self) -> bool {
        self.total_bytes() <= self.capacity_bytes
    }
}

/// Build the memory report for deploying `models` on `gpu`.
pub fn memory_report(models: &[ModelId], lib: &ModelLibrary, gpu: &GpuSpec) -> MemoryReport {
    let services = models
        .iter()
        .map(|&m| {
            let g = lib.graph(m, m.max_input());
            // Peak live activations ≈ the largest operator's traffic (its
            // inputs + outputs are simultaneously resident).
            let workspace = g.ops.iter().map(|o| o.bytes).fold(0.0, f64::max);
            ServiceFootprint {
                model: m,
                weight_bytes: g.weight_bytes(),
                workspace_bytes: workspace,
            }
        })
        .collect();
    MemoryReport {
        services,
        capacity_bytes: gpu.memory_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::MigProfile;

    #[test]
    fn weights_match_published_parameter_counts() {
        let lib = ModelLibrary::new();
        let gpu = GpuSpec::a100();
        let report = memory_report(&ModelId::PAPER_MODELS, &lib, &gpu);
        let mb = |m: ModelId| {
            report
                .services
                .iter()
                .find(|s| s.model == m)
                .unwrap()
                .weight_bytes
                / 1e6
        };
        // Published FP32 weight sizes: ResNet-50 ≈ 102 MB, ResNet-152 ≈
        // 240 MB, VGG-16 ≈ 550 MB (FC-heavy), BERT-base ≈ 440 MB (we model
        // the encoder + pooler, embeddings excluded → ~350 MB).
        assert!(
            (80.0..120.0).contains(&mb(ModelId::ResNet50)),
            "{}",
            mb(ModelId::ResNet50)
        );
        assert!(
            (200.0..280.0).contains(&mb(ModelId::ResNet152)),
            "{}",
            mb(ModelId::ResNet152)
        );
        assert!(
            (450.0..620.0).contains(&mb(ModelId::Vgg16)),
            "{}",
            mb(ModelId::Vgg16)
        );
        assert!(
            (250.0..450.0).contains(&mb(ModelId::Bert)),
            "{}",
            mb(ModelId::Bert)
        );
    }

    #[test]
    fn quad_deployment_fits_everywhere_the_paper_deploys_it() {
        let lib = ModelLibrary::new();
        let quad = [
            ModelId::ResNet101,
            ModelId::ResNet152,
            ModelId::Vgg19,
            ModelId::Bert,
        ];
        // Full A100, the 4g.20gb slice and a V100 all hold the quad.
        for gpu in [
            GpuSpec::a100(),
            GpuSpec::a100().mig_slice(MigProfile::FourG20Gb),
            GpuSpec::v100(),
        ] {
            let r = memory_report(&quad, &lib, &gpu);
            assert!(r.fits(), "{}: {:.1} GB", gpu.name, r.total_bytes() / 1e9);
        }
    }

    #[test]
    fn single_model_fits_smallest_slice() {
        let lib = ModelLibrary::new();
        let slice = GpuSpec::a100().mig_slice(MigProfile::OneG5Gb);
        for m in ModelId::PAPER_MODELS {
            let r = memory_report(&[m], &lib, &slice);
            assert!(
                r.fits(),
                "{} on 1g.5gb: {:.2} GB",
                m.name(),
                r.total_bytes() / 1e9
            );
        }
    }

    #[test]
    fn capacity_violation_detected() {
        let lib = ModelLibrary::new();
        let mut slice = GpuSpec::a100().mig_slice(MigProfile::OneG5Gb);
        slice.memory_bytes = 0.3e9; // pathological 300 MB device
        let r = memory_report(&[ModelId::Vgg19], &lib, &slice);
        assert!(!r.fits());
    }
}
