//! The rebuild contract: a model rebuilt from an artifact draws no
//! initial weights, yet is exactly the model `DoppelGanger::new` +
//! `restore` + `set_rng_state` gives — every tensor, the sampler state,
//! the DP step count and the samples — and `DoppelGanger::new` still
//! draws the weights it always drew.

use doppelganger::{
    DgConfig, DoppelGanger, FeatureSpec, ModelArtifact, Segment, TimeSeriesDataset,
};
use nnet::dpsgd::DpSgdConfig;
use nnet::Parameterized;
use rand::prelude::*;
use rand::rngs::StdRng;

fn cfg(dp: bool) -> DgConfig {
    let mut cfg = DgConfig::small(
        FeatureSpec::new(vec![
            Segment::Categorical { dim: 3 },
            Segment::Continuous { dim: 2 },
        ]),
        FeatureSpec::new(vec![
            Segment::Continuous { dim: 2 },
            Segment::Categorical { dim: 2 },
        ]),
        4,
    );
    cfg.batch_size = 12;
    cfg.meta_hidden = vec![16];
    cfg.rnn_hidden = 10;
    cfg.head_hidden = vec![8];
    cfg.disc_hidden = vec![16];
    cfg.aux_hidden = vec![8];
    cfg.seed = 5;
    cfg.dp = dp.then_some(DpSgdConfig {
        clip_norm: 1.0,
        noise_multiplier: 0.7,
    });
    cfg
}

fn data(n: usize) -> TimeSeriesDataset {
    let mut rng = StdRng::seed_from_u64(3);
    let meta = (0..n)
        .map(|i| {
            let mut m = vec![0.0; 5];
            m[i % 3] = 1.0;
            m[3] = rng.gen();
            m[4] = rng.gen();
            m
        })
        .collect();
    let seqs = (0..n)
        .map(|i| {
            (0..1 + i % 4)
                .map(|t| vec![rng.gen(), rng.gen(), (t % 2) as f32, (1 - t % 2) as f32])
                .collect()
        })
        .collect();
    TimeSeriesDataset::new(meta, seqs, 4)
}

fn bits(tensors: Vec<&nnet::Tensor>) -> Vec<Vec<u32>> {
    tensors
        .iter()
        .map(|t| t.data().iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn grads(model: &mut DoppelGanger) -> Vec<Vec<u32>> {
    let mut g = model.gen.gradients_mut();
    g.extend(model.disc.gradients_mut());
    g.iter()
        .map(|t| t.data().iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn sample_bits(model: &mut DoppelGanger, n: usize) -> Vec<Vec<u32>> {
    model
        .sample_fast(n)
        .iter()
        .map(|s| {
            let mut row: Vec<u32> = s.meta.iter().map(|x| x.to_bits()).collect();
            row.extend(s.records.iter().flatten().map(|x| x.to_bits()));
            row
        })
        .collect()
}

/// Everything observable of a model's state, bit for bit.
fn assert_same(a: &mut DoppelGanger, b: &mut DoppelGanger, what: &str) {
    assert_eq!(
        bits(a.gen.parameters()),
        bits(b.gen.parameters()),
        "{what}: generator"
    );
    assert_eq!(
        bits(a.disc.parameters()),
        bits(b.disc.parameters()),
        "{what}: discriminators"
    );
    assert_eq!(grads(a), grads(b), "{what}: gradient buffers");
    assert_eq!(a.rng_state(), b.rng_state(), "{what}: sampler state");
    assert_eq!(a.dp_steps(), b.dp_steps(), "{what}: DP steps");
}

#[test]
fn rebuild_is_new_plus_restore_plus_rng_state() {
    let data = data(60);
    for dp in [false, true] {
        let mut trained = DoppelGanger::new(cfg(dp));
        trained.train_steps(&data, 3);
        let rate = dp.then(|| (0.2, trained.dp_steps()));
        let art = ModelArtifact::capture(&trained, rate);
        // The artifact as a store object holds it: through its stored form.
        let art: ModelArtifact =
            serde_json::from_str(&serde_json::to_string(&art).unwrap()).unwrap();

        let mut reference = DoppelGanger::new(cfg(dp));
        reference.restore(&(art.gen.clone(), art.disc.clone()));
        reference.set_rng_state(art.rng_state.as_slice().try_into().unwrap());
        let mut rebuilt = art.rebuild(cfg(dp)).unwrap();
        let what = if dp { "DP" } else { "non-DP" };
        assert_same(&mut rebuilt, &mut reference, what);
        assert_eq!(
            sample_bits(&mut rebuilt, 64),
            sample_bits(&mut reference, 64),
            "{what}: samples"
        );
        assert_same(&mut rebuilt, &mut reference, what);

        // Optimizers and the DP trainer's noise start alike too: training
        // on from both lands on the same weights.
        rebuilt.train_steps(&data, 2);
        reference.train_steps(&data, 2);
        assert_same(&mut rebuilt, &mut reference, what);
        assert!(!dp || rebuilt.dp_steps() > 0);
    }
}

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    })
}

/// Every weight of a fresh model and where its sampler RNG stands after
/// them, digested.
fn init_digest(model: &DoppelGanger) -> u64 {
    let mut params = model.gen.parameters();
    params.extend(model.disc.parameters());
    let weights = params
        .into_iter()
        .flat_map(|t| t.data().iter().map(|x| x.to_bits() as u64));
    fnv(weights.chain(model.rng_state()))
}

/// Pinned before `nnet::Init` replaced the constructors' RNG parameter:
/// `DoppelGanger::new` still draws every weight it drew, in the same
/// order, and leaves the sampler where it left it.
#[test]
fn new_draws_the_weights_it_always_drew() {
    assert_eq!(
        init_digest(&DoppelGanger::new(cfg(false))),
        1_665_881_361_745_899_343
    );
    let mut paper = DgConfig::small(FeatureSpec::continuous(139), FeatureSpec::continuous(6), 8);
    paper.seed = 42;
    assert_eq!(
        init_digest(&DoppelGanger::new(paper)),
        3_448_886_556_369_067_622
    );
}
