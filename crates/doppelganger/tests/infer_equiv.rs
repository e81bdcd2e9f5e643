//! Equivalence gates for the fast sampling path.
//!
//! The headline guarantee of `nnet::infer`: the frozen, arena-backed
//! forward is **bitwise-equal** to the training forward — same weights +
//! same RNG state → identical bytes out, for every batch size and every
//! field codec (continuous and categorical segments in both metadata and
//! records).
//!
//! Two kinds of generator: small mixed-codec ones, whose GRU products
//! all stay on the naive kernel, and FlowCodec-shaped ones (metadata 139
//! wide, hidden 48), whose GRU input products take the tiled kernel and
//! with it the replay of the metadata columns' addends.

use doppelganger::{DgConfig, DgGenerator, DoppelGanger, FeatureSpec, Segment};
use nnet::{Gru, Parameterized, Tensor};
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

/// Metadata laid out as `FlowCodec::meta_spec` gives it at `embed_dim
/// 12`, `n_chunks 10`: 139 columns.
fn flow_meta_spec() -> FeatureSpec {
    FeatureSpec::new(vec![
        Segment::Continuous { dim: 64 },
        Segment::Categorical { dim: 12 },
        Segment::Continuous { dim: 12 },
        Segment::Categorical { dim: 12 },
        Segment::Continuous { dim: 12 },
        Segment::Categorical { dim: 4 },
        Segment::Continuous { dim: 12 },
        Segment::Continuous { dim: 11 },
    ])
}

/// A FlowCodec-shaped generator (`rnn_hidden 48`, four continuous record
/// fields). The metadata MLP's output weights for columns `0..16` are
/// scaled up so that their sigmoids saturate: most rows get exact `0.0`
/// (or `1.0`) there, so whole input blocks of the GRU are zero-skipped.
fn build_flow_generator(seed: u64, z_record_dim: usize, max_len: usize) -> DgGenerator {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = DgGenerator::new(
        flow_meta_spec(),
        FeatureSpec::continuous(4),
        8,
        z_record_dim,
        &[64],
        48,
        &[48],
        max_len,
        &mut rng,
    );
    let mut params = gen.meta_net.parameters_mut();
    let bias = params.pop().expect("meta net output bias");
    let w = params.pop().expect("meta net output weights");
    for col in 0..16 {
        bias.set(0, col, 0.0);
        for row in 0..w.rows() {
            w.set(row, col, w.get(row, col) * 1.0e4);
        }
    }
    gen
}

/// The generators every equivalence test below runs on: the small
/// mixed-codec one, and FlowCodec-shaped ones at 8 and 32 records per
/// flow and with 8 and 5 noise columns (5 puts a `KB` block across the
/// noise/metadata boundary).
fn generators() -> Vec<(String, DgGenerator)> {
    let mut gens = vec![("mixed".to_string(), build_generator(17))];
    for (z, max_len) in [(8, 8), (8, 32), (5, 32)] {
        gens.push((format!("flow z{z} len{max_len}"), build_flow_generator(31, z, max_len)));
    }
    gens
}

#[test]
fn frozen_generate_is_bitwise_equal_across_batch_sizes() {
    for (name, mut gen) in generators() {
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
                "{name}: metadata must be bitwise-equal at batch {batch}"
            );
            assert_eq!(
                reference.records.data(),
                fast.records.data(),
                "{name}: records must be bitwise-equal at batch {batch}"
            );
            assert_eq!(
                rng_ref.state(),
                rng_fast.state(),
                "{name}: both paths must consume the same noise at batch {batch}"
            );
        }
    }
}

#[test]
fn flow_generators_zero_whole_metadata_blocks() {
    // Guards the premise of the skipped-block coverage above.
    let mut gen = build_flow_generator(31, 8, 8);
    let meta = gen.generate(32, &mut StdRng::seed_from_u64(3)).meta;
    let zero_blocks = (0..meta.rows())
        .filter(|&r| meta.row(r)[..16].chunks(4).any(|b| b.iter().all(|&v| v == 0.0)))
        .count();
    assert!(zero_blocks > 0, "no metadata row has an all-zero block");
}

/// The GRU step with its constant metadata columns replayed, against the
/// training step, on the serving shape (`[noise ‖ 139]` → 48) with rows
/// of exact `0.0` / `-0.0` metadata, which no generator produces.
#[test]
fn constant_input_gru_steps_are_bitwise_equal_to_training_steps() {
    for z in [8usize, 5] {
        for batch in [1usize, 7, 32] {
            let mut rng = StdRng::seed_from_u64(41 + z as u64);
            let mut gru = Gru::new(z + 139, 48, &mut rng);
            let mut x = Tensor::randn(batch, z + 139, &mut rng);
            for col in z..z + 139 {
                // Row 0: signed zeros in every other block; the last row:
                // all metadata zero.
                if (col / 4) % 2 == 0 {
                    x.set(0, col, if col % 3 == 0 { -0.0 } else { 0.0 });
                }
                x.set(batch - 1, col, if col % 2 == 0 { -0.0 } else { 0.0 });
            }
            let mut h_ref = Tensor::zeros(batch, 48);
            let mut h_fast = h_ref.clone();
            let frozen_weights = gru.clone();
            let frozen = frozen_weights.freeze();
            let stepper = frozen.with_constant_input(&x, z);
            let mut arena = nnet::infer::Arena::new();
            for t in 0..32 {
                x.fill_randn_cols(z, &mut rng);
                h_ref = gru.step(&x, &h_ref);
                let next = stepper.step(&x, &h_fast, &mut arena);
                h_fast = next;
                assert_eq!(
                    h_ref.data(),
                    h_fast.data(),
                    "z {z}, batch {batch}: step {t} differs from the training step"
                );
            }
        }
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
