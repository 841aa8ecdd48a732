//! Golden test: the optimized engine (calendar pending queue, incremental
//! `U_c`/`U_m` aggregates, SoA/SIMD progress loop, slot recycling, engine
//! reuse via `reset`) must be bit-identical to the pre-overhaul engine.
//!
//! The reference is `reference::engine::BaselineEngine`, the straight-line
//! engine the `engine_bench` baseline also times: a binary-insert pending
//! `Vec`, slowdowns re-summed over the running set from scratch every
//! event, retired streams keeping their slots forever. Running long seeded
//! open-loop workloads — including clusters of equal-start arrivals, whose
//! activation order decides the order noise factors are drawn in — through
//! both engines and comparing every completion with `f64::to_bits` pins
//! the optimizations to the old semantics exactly, not approximately.

use gpu_sim::{Engine, GpuSpec, KernelDesc, KernelFaultSpec, NoiseModel};
use reference::engine::{shapes, BaselineEngine};
use reference::Lcg;
use std::cell::RefCell;

/// A seeded open-loop workload: (start time, kernel sequence) per stream,
/// with deliberate clusters of equal start times so activation tie order
/// is exercised, and the fixture kernel shapes so the interference term of
/// the contention model is live.
fn workload(seed: u64, n: usize) -> Vec<(f64, Vec<KernelDesc>)> {
    let shapes = shapes(&GpuSpec::a100());
    let mut rng = Lcg::new(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|i| {
            // Every 5th stream shares the previous start time exactly —
            // an equal-start tie whose activation order must match.
            if i % 5 != 0 {
                t += (rng.draw() % 1000) as f64 / 800.0;
            }
            let len = 1 + (rng.draw() % 6) as usize;
            let kernels = (0..len).map(|_| shapes[(rng.draw() % 4) as usize]).collect();
            (t, kernels)
        })
        .collect()
}

/// Drive an engine through the workload open-loop: streams are only added
/// once simulated time reaches their start (as a serving loop would), so
/// slot recycling actually reuses retired slots.
fn drive(
    work: &[(f64, Vec<KernelDesc>)],
    mut add: impl FnMut(&[KernelDesc], f64),
    mut step: impl FnMut() -> Option<(f64, f64)>,
    now: impl Fn() -> f64,
) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut next = 0;
    loop {
        while next < work.len() && work[next].0 <= now() + 1e-9 {
            add(&work[next].1, work[next].0);
            next += 1;
        }
        match step() {
            Some((s, e)) => out.push((s.to_bits(), e.to_bits())),
            None if next >= work.len() => break,
            None => {
                // Idle gap before the next arrival: admit it directly.
                add(&work[next].1, work[next].0);
                next += 1;
            }
        }
    }
    out
}

/// Completions of the reference engine over `work`.
fn run_reference(
    work: &[(f64, Vec<KernelDesc>)],
    noise: &NoiseModel,
    seed: u64,
    spec: Option<KernelFaultSpec>,
) -> Vec<(u64, u64)> {
    let mut engine = BaselineEngine::new(GpuSpec::a100(), noise.clone(), seed);
    if let Some(spec) = spec {
        engine.set_kernel_faults(spec, seed);
    }
    let e = RefCell::new(engine);
    drive(
        work,
        |k, at| {
            e.borrow_mut().add_stream(k.to_vec(), at);
        },
        || e.borrow_mut().step().map(|(_, s, end)| (s, end)),
        || e.borrow().now(),
    )
}

/// Completions of a recycling optimized engine over `work`, driven
/// through `engine` as handed in.
fn run_optimized(work: &[(f64, Vec<KernelDesc>)], mut engine: Engine) -> Vec<(u64, u64)> {
    engine.enable_slot_recycling();
    let e = RefCell::new(engine);
    drive(
        work,
        |k, at| {
            e.borrow_mut().add_stream_slice(k, at);
        },
        || e.borrow_mut().step().map(|c| (c.start_ms, c.end_ms)),
        || e.borrow().now(),
    )
}

#[test]
fn optimized_engine_matches_pre_refactor_reference_bitwise() {
    let seed = 0xABACu64;
    let work = workload(seed, 400);
    let noise = NoiseModel::calibrated();
    let reference = run_reference(&work, &noise, seed, None);
    // Exercise `reset` reuse on top of recycling: dirty the engine with an
    // unrelated run first, then reset to the golden seed.
    let mut engine = Engine::new(GpuSpec::a100(), noise, seed);
    engine.add_stream_slice(&work[0].1, 0.0);
    engine.run_until_idle();
    engine.reset(seed);
    let optimized = run_optimized(&work, engine);

    assert_eq!(reference.len(), work.len());
    assert_eq!(
        reference, optimized,
        "optimized engine diverged from the pre-refactor reference"
    );
}

#[test]
fn reference_and_optimized_agree_across_seeds() {
    // Smaller sweeps across several seeds: guards against a lucky match on
    // one seed's draw sequence.
    for seed in [1u64, 9, 77, 2021] {
        let work = workload(seed, 80);
        let noise = NoiseModel::calibrated();
        let reference = run_reference(&work, &noise, seed, None);
        let optimized = run_optimized(&work, Engine::new(GpuSpec::a100(), noise, seed));
        assert_eq!(reference, optimized, "divergence at seed {seed}");
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Like [`workload`], but wilder: empty streams, launch-only kernels,
    /// true zero-cost kernels (which draw noise but finish instantly) and
    /// a denser cluster of equal-start ties.
    fn random_workload(seed: u64, n: usize, exotic: bool) -> Vec<(f64, Vec<KernelDesc>)> {
        let [a, b, c, d] = shapes(&GpuSpec::a100());
        let shapes = [
            a,
            b,
            c,
            d,
            // Launch-only: contends for nothing, still takes wall time.
            KernelDesc {
                flops: 0.0,
                bytes: 0.0,
                blocks: 1.0,
                launch_ms: 0.012,
            },
            // True zero-cost kernel: draws its noise factor, then
            // completes instantly without entering the running set.
            KernelDesc {
                flops: 0.0,
                bytes: 0.0,
                blocks: 1.0,
                launch_ms: 0.0,
            },
        ];
        let mut rng = Lcg::new(seed);
        let shape_pool = if exotic { shapes.len() } else { 4 };
        let mut t = 0.0f64;
        (0..n)
            .map(|i| {
                // Every 4th stream shares the previous start time exactly.
                if i % 4 != 0 {
                    t += (rng.draw() % 1000) as f64 / 900.0;
                }
                // Length 0 = empty stream (completes at activation).
                let len = (rng.draw() % 6) as usize;
                let kernels = (0..len)
                    .map(|_| shapes[(rng.draw() as usize) % shape_pool])
                    .collect();
                (t, kernels)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random open-loop workloads — varied stream counts, zero-cost
        /// kernels, tied starts/completions, with and without noise and
        /// fault specs — through both engines, compared bit for bit.
        #[test]
        fn random_workloads_are_bit_identical(
            seed in 0u64..(1 << 32),
            n in 1usize..90,
            flags in (0u64..2, 0u64..2).prop_map(|(a, b)| (a == 1, b == 1)),
            fault in proptest::option::of((
                (0u64..1_000, 0.0f64..=1.0),
                (0.25f64..4.0, 0.0f64..30.0, 0.0f64..40.0),
            )),
        ) {
            let (exotic, noisy) = flags;
            let work = random_workload(seed, n, exotic);
            let noise = if noisy {
                NoiseModel::calibrated()
            } else {
                NoiseModel::disabled()
            };
            let spec = fault.map(|((fseed, prob), (factor, w0, wlen))| KernelFaultSpec {
                seed: fseed,
                window_start_ms: w0,
                window_end_ms: w0 + wlen,
                prob,
                factor,
            });
            let reference = run_reference(&work, &noise, seed, spec);
            let mut engine = Engine::new(GpuSpec::a100(), noise, seed);
            engine.set_kernel_faults(spec);
            let optimized = run_optimized(&work, engine);
            prop_assert_eq!(
                reference,
                optimized,
                "divergence: seed {} n {} exotic {} noisy {} spec {:?}",
                seed,
                n,
                exotic,
                noisy,
                spec
            );
        }
    }
}
