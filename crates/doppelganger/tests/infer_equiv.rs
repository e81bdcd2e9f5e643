//! Equivalence gates for the fast sampling path.
//!
//! The headline guarantee of `nnet::infer`: the frozen, arena-backed
//! forward is **bitwise-equal** to the training forward — same weights +
//! same RNG state → identical bytes out, for every batch size and every
//! field codec (continuous and categorical segments in both metadata and
//! records).

use doppelganger::{DgConfig, DgGenerator, DoppelGanger, FeatureSpec, Segment};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Mixed-codec specs: categorical + continuous in both meta and record,
/// so every transform branch is exercised.
fn mixed_meta_spec() -> FeatureSpec {
    FeatureSpec::new(vec![
        Segment::Categorical { dim: 3 },
        Segment::Continuous { dim: 2 },
        Segment::Categorical { dim: 2 },
    ])
}

fn mixed_record_spec() -> FeatureSpec {
    FeatureSpec::new(vec![
        Segment::Continuous { dim: 2 },
        Segment::Categorical { dim: 4 },
    ])
}

fn build_generator(seed: u64) -> DgGenerator {
    let mut rng = StdRng::seed_from_u64(seed);
    DgGenerator::new(
        mixed_meta_spec(),
        mixed_record_spec(),
        6,
        4,
        &[16, 12],
        10,
        &[12],
        5,
        &mut rng,
    )
}

#[test]
fn frozen_generate_is_bitwise_equal_across_batch_sizes() {
    let mut gen = build_generator(17);
    for &batch in &[1usize, 7, 32] {
        let mut rng_ref = StdRng::seed_from_u64(1000 + batch as u64);
        let reference = gen.generate(batch, &mut rng_ref);

        let frozen = gen.freeze().expect("linear-only generator");
        let mut arena = nnet::infer::Arena::new();
        let mut rng_fast = StdRng::seed_from_u64(1000 + batch as u64);
        let fast = frozen.generate(batch, &mut rng_fast, &mut arena);

        assert_eq!(
            reference.meta.data(),
            fast.meta.data(),
            "metadata must be bitwise-equal at batch {batch}"
        );
        assert_eq!(
            reference.records.data(),
            fast.records.data(),
            "records must be bitwise-equal at batch {batch}"
        );
        assert_eq!(
            rng_ref.state(),
            rng_fast.state(),
            "both paths must consume the same noise at batch {batch}"
        );
    }
}

#[test]
fn frozen_generate_is_bitwise_stable_on_a_warm_arena() {
    // A warm (reused) arena must not change results: pooled buffers are
    // re-zeroed on take, so iteration 2 sees the same starting state.
    let mut gen = build_generator(23);
    let reference = {
        let mut rng = StdRng::seed_from_u64(5);
        gen.generate(9, &mut rng)
    };
    let frozen = gen.freeze().expect("linear-only generator");
    let mut arena = nnet::infer::Arena::new();
    for round in 0..3 {
        let mut rng = StdRng::seed_from_u64(5);
        let fast = frozen.generate(9, &mut rng, &mut arena);
        assert_eq!(reference.meta.data(), fast.meta.data(), "round {round}");
        assert_eq!(reference.records.data(), fast.records.data(), "round {round}");
    }
    assert!(arena.reuses() > 0, "later rounds must run on pooled buffers");
}

fn sampler_config() -> DgConfig {
    let mut cfg = DgConfig::small(mixed_meta_spec(), mixed_record_spec(), 5);
    cfg.meta_hidden = vec![16];
    cfg.rnn_hidden = 12;
    cfg.head_hidden = vec![12];
    cfg.disc_hidden = vec![16];
    cfg.aux_hidden = vec![8];
    cfg.batch_size = 7; // forces multi-chunk sampling with a remainder
    cfg
}

#[test]
fn sample_fast_is_bitwise_equal_to_sample() {
    let mut model = DoppelGanger::new(sampler_config());
    let state = model.rng_state();
    let reference = model.sample(50);

    model.set_rng_state(state);
    let fast = model.sample_fast(50);

    assert_eq!(reference.len(), fast.len());
    for (i, (a, b)) in reference.iter().zip(&fast).enumerate() {
        assert_eq!(a.meta, b.meta, "sample {i} metadata");
        assert_eq!(a.records, b.records, "sample {i} records");
    }
}

#[test]
fn sample_fast_repeated_calls_reuse_the_arena_and_stay_equal() {
    // The model-owned arena persists across calls; equality must hold on
    // the second and third call just as on the first.
    let mut model = DoppelGanger::new(sampler_config());
    let state = model.rng_state();
    let mut reference = Vec::new();
    for _ in 0..3 {
        reference.extend(model.sample(11));
    }
    model.set_rng_state(state);
    let mut fast = Vec::new();
    for _ in 0..3 {
        fast.extend(model.sample_fast(11));
    }
    assert_eq!(reference.len(), fast.len());
    for (a, b) in reference.iter().zip(&fast) {
        assert_eq!(a.meta, b.meta);
        assert_eq!(a.records, b.records);
    }
}
