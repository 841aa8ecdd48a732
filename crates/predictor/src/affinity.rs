//! Co-location affinity analysis and service-group planning (§7.8).
//!
//! Profiling all `C(N,2)` pairs scales poorly; the paper's answer is to
//! analyse the profiling data once and then "divide [the N DNNs] into
//! several service groups of size k", deploying together only models that
//! actually benefit from overlap: "If the latency of the co-located DNN
//! models always equals that of sequential execution, Abacus does not
//! deploy them together" — e.g. (VGG16, VGG19) is avoided.
//!
//! [`overlap_affinity`] quantifies a pair's benefit as the mean ratio of
//! sequential execution time to measured group latency (1.0 = pure
//! time-sharing, ≥ ~1.3 = healthy overlap). [`plan_service_groups`]
//! greedily packs models into groups of size ≤ k, maximising intra-group
//! affinity and refusing groups whose members never overlap.

use crate::features::{GroupEntry, GroupSpec};
use crate::profiler::{profile_groups, ProfiledGroup};
use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use workload::SeededRng;

/// A pair's measured overlap benefit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairAffinity {
    /// The two models.
    pub pair: [ModelId; 2],
    /// Mean sequential-time ÷ group-latency over the profiled groups
    /// (≥ 1.0 up to the interference margin).
    pub gain: f64,
}

/// Affinity threshold below which a pair is considered overlap-hostile
/// ("always equals sequential execution" up to noise). §7.5 assesses this
/// *under peak load* — i.e. with maximum inputs — which is what
/// [`peak_affinity`] measures.
pub const NO_OVERLAP_GAIN: f64 = 1.15;

/// Compute a pair's overlap affinity from its profiled operator groups.
///
/// Only multi-entry groups are informative; single-entry samples are
/// skipped. Panics if no multi-entry group exists.
pub fn overlap_affinity(
    pair: [ModelId; 2],
    profiles: &[ProfiledGroup],
    lib: &ModelLibrary,
    gpu: &GpuSpec,
) -> PairAffinity {
    let mut sum = 0.0;
    let mut n = 0usize;
    for p in profiles {
        if p.spec.entries.len() < 2 {
            continue;
        }
        sum += p.spec.sequential_ms(lib, gpu) / p.mean_ms.max(1e-9);
        n += 1;
    }
    assert!(n > 0, "no co-located groups profiled for {pair:?}");
    PairAffinity {
        pair,
        gain: sum / n as f64,
    }
}

/// Greedily partition `models` into service groups of size ≤ `k`.
///
/// Pairs with measured gain below [`NO_OVERLAP_GAIN`] are never placed in
/// the same group. Within that constraint the packer repeatedly grows the
/// group around the unassigned model with the best available partner.
pub fn plan_service_groups(
    models: &[ModelId],
    affinities: &[PairAffinity],
    k: usize,
) -> Vec<Vec<ModelId>> {
    assert!(k >= 1);
    let gain_of = |a: ModelId, b: ModelId| -> f64 {
        affinities
            .iter()
            .find(|p| (p.pair[0] == a && p.pair[1] == b) || (p.pair[0] == b && p.pair[1] == a))
            .map(|p| p.gain)
            .unwrap_or(1.0)
    };
    let mut unassigned: Vec<ModelId> = models.to_vec();
    let mut groups: Vec<Vec<ModelId>> = Vec::new();
    while let Some(seed) = unassigned.first().copied() {
        unassigned.retain(|&m| m != seed);
        let mut group = vec![seed];
        while group.len() < k {
            // Best unassigned candidate by mean affinity to the group,
            // subject to every pairwise gain clearing the threshold.
            let best = unassigned
                .iter()
                .filter(|&&cand| group.iter().all(|&g| gain_of(g, cand) >= NO_OVERLAP_GAIN))
                .map(|&cand| {
                    let mean: f64 =
                        group.iter().map(|&g| gain_of(g, cand)).sum::<f64>() / group.len() as f64;
                    (cand, mean)
                })
                .max_by(|a, b| a.1.total_cmp(&b.1));
            match best {
                Some((cand, _)) => {
                    unassigned.retain(|&m| m != cand);
                    group.push(cand);
                }
                None => break,
            }
        }
        groups.push(group);
    }
    groups
}

/// Measure a pair's overlap affinity under peak load: operator groups with
/// *maximum* inputs (batch 32, the longest sequences), random ranges with
/// at least one completing query — §7.5's "avoided under peak load" test.
pub fn peak_affinity(
    pair: [ModelId; 2],
    lib: &ModelLibrary,
    gpu: &GpuSpec,
    noise: &NoiseModel,
    samples: usize,
    runs: usize,
    seed: u64,
) -> PairAffinity {
    let mut rng = SeededRng::new(seed);
    let specs: Vec<GroupSpec> = (0..samples)
        .map(|_| {
            let entries = pair
                .iter()
                .enumerate()
                .map(|(i, &m)| {
                    let input = m.max_input();
                    let n = lib.graph(m, input).len();
                    // The first entry completes; the second gets a random
                    // range (mirrors the Fig. 9 invariants at peak inputs).
                    let (op_start, op_end) = if i == 0 {
                        (rng.index(n), n)
                    } else {
                        let s = rng.index(n);
                        (s, s + 1 + rng.index(n - s))
                    };
                    GroupEntry {
                        model: m,
                        op_start,
                        op_end,
                        input,
                    }
                })
                .collect();
            GroupSpec::new(entries, lib)
        })
        .collect();
    let profiles = profile_groups(&specs, lib, gpu, noise, seed ^ 0xAFF1, runs);
    overlap_affinity(pair, &profiles, lib, gpu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::ModelLibrary;

    fn affinity_of(pair: [ModelId; 2]) -> f64 {
        let lib = ModelLibrary::new();
        let gpu = GpuSpec::a100();
        peak_affinity(pair, &lib, &gpu, &NoiseModel::calibrated(), 120, 3, 5).gain
    }

    #[test]
    fn vgg_pair_is_overlap_hostile_resnet_pair_is_not() {
        // The paper's exact example: (VGG16, VGG19) always ≈ sequential.
        let vgg = affinity_of([ModelId::Vgg16, ModelId::Vgg19]);
        let res = affinity_of([ModelId::ResNet50, ModelId::ResNet152]);
        assert!(vgg < NO_OVERLAP_GAIN, "vgg gain {vgg}");
        assert!(res > NO_OVERLAP_GAIN, "resnet gain {res}");
        assert!(res > vgg);
    }

    #[test]
    fn planner_separates_hostile_pairs() {
        use ModelId::*;
        let affinities = vec![
            PairAffinity {
                pair: [Vgg16, Vgg19],
                gain: 1.1,
            },
            PairAffinity {
                pair: [Vgg16, ResNet50],
                gain: 1.4,
            },
            PairAffinity {
                pair: [Vgg19, ResNet152],
                gain: 1.35,
            },
            PairAffinity {
                pair: [ResNet50, ResNet152],
                gain: 1.5,
            },
            PairAffinity {
                pair: [Vgg16, ResNet152],
                gain: 1.3,
            },
            PairAffinity {
                pair: [Vgg19, ResNet50],
                gain: 1.3,
            },
        ];
        let groups = plan_service_groups(&[Vgg16, Vgg19, ResNet50, ResNet152], &affinities, 2);
        for g in &groups {
            assert!(
                !(g.contains(&Vgg16) && g.contains(&Vgg19)),
                "hostile pair grouped: {groups:?}"
            );
        }
        // Every model assigned exactly once.
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn planner_respects_group_size() {
        use ModelId::*;
        let models = [ResNet50, ResNet101, ResNet152, InceptionV3, Bert];
        let affinities: Vec<PairAffinity> = models
            .iter()
            .enumerate()
            .flat_map(|(i, &a)| {
                models[i + 1..].iter().map(move |&b| PairAffinity {
                    pair: [a, b],
                    gain: 1.5,
                })
            })
            .collect();
        for k in 1..=4 {
            let groups = plan_service_groups(&models, &affinities, k);
            assert!(groups.iter().all(|g| g.len() <= k));
            assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), models.len());
        }
    }

    #[test]
    fn isolated_hostile_model_gets_own_group() {
        use ModelId::*;
        let affinities = vec![PairAffinity {
            pair: [Vgg16, Vgg19],
            gain: 1.0,
        }];
        let groups = plan_service_groups(&[Vgg16, Vgg19], &affinities, 4);
        assert_eq!(groups.len(), 2);
    }
}
