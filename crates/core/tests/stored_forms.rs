//! Every stored float survives storage bit for bit: ±0, ±Inf, NaNs with
//! payloads, subnormals and the extremes come back from a checkpoint, a
//! `ModelArtifact` store object, an `ArtifactBundle` file and a stored
//! `TupleCodec` exactly as they went in. (Float text wrote ±Inf and NaN
//! as `null` and read them back as a plain NaN.)

use netshare::tuplecodec::TupleCodec;
use netshare::{ArtifactBundle, ModelArtifact};
use nnet::serialize::{self, Checkpoint, F32Bits};
use nnet::Tensor;
use orchestrator::{FsStore, ObjectStore};

const SPECIAL: [f32; 9] = [
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::from_bits(0x7fc0_1234), // quiet NaN with a payload
    f32::from_bits(0xff80_0001), // signalling NaN, sign bit set
    f32::from_bits(1),           // smallest subnormal
    f32::MIN_POSITIVE,
    f32::MAX,
];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn all_bits(c: &Checkpoint) -> Vec<Vec<u32>> {
    c.tensors.iter().map(|t| bits(t.data())).collect()
}

fn cfg() -> doppelganger::DgConfig {
    use doppelganger::{DgConfig, FeatureSpec};
    let mut cfg = DgConfig::small(FeatureSpec::continuous(3), FeatureSpec::continuous(2), 3);
    cfg.meta_hidden = vec![8];
    cfg.rnn_hidden = 6;
    cfg.head_hidden = vec![6];
    cfg.disc_hidden = vec![8];
    cfg.aux_hidden = vec![6];
    cfg
}

/// A bundle whose first generator and first discriminator tensors start
/// with every special value.
fn special_bundle() -> ArtifactBundle {
    let mut bundle =
        ArtifactBundle::capture("special", &doppelganger::DoppelGanger::new(cfg()), None);
    for ckpt in [&mut bundle.artifact.gen, &mut bundle.artifact.disc] {
        ckpt.tensors[0].data_mut()[..SPECIAL.len()].copy_from_slice(&SPECIAL);
    }
    bundle
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("netshare-stored-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_checkpoint_keeps_every_bit() {
    let ckpt = Checkpoint {
        tensors: vec![Tensor::from_vec(3, 3, SPECIAL.to_vec())],
    };
    let back = serialize::from_json(&serialize::to_json(&ckpt)).unwrap();
    assert_eq!(all_bits(&back), all_bits(&ckpt));
}

#[test]
fn a_model_artifact_store_object_keeps_every_bit() {
    let art = special_bundle().artifact;
    let dir = scratch("object");
    let store = FsStore::open(&dir).unwrap();
    let digest = store
        .put(serde_json::to_string(&art).unwrap().as_bytes())
        .unwrap()
        .digest;
    let text = String::from_utf8(store.get(digest).unwrap()).unwrap();
    let back: ModelArtifact = serde_json::from_str(&text).unwrap();
    assert_eq!(all_bits(&back.gen), all_bits(&art.gen));
    assert_eq!(all_bits(&back.disc), all_bits(&art.disc));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_saved_bundle_keeps_every_bit() {
    let bundle = special_bundle();
    let dir = scratch("bundle");
    let path = dir.join("special.json");
    bundle.save(&path).unwrap();
    let back = ArtifactBundle::load(&path).unwrap();
    assert_eq!(all_bits(&back.artifact.gen), all_bits(&bundle.artifact.gen));
    assert_eq!(
        all_bits(&back.artifact.disc),
        all_bits(&bundle.artifact.disc)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Replaces the first `values.len()` values of the stored vector `field`.
fn plant(text: &str, field: &str, values: &[f32]) -> String {
    let start = text.find(&format!("\"{field}\":\"")).expect(field) + field.len() + 4;
    let end = start + 8 * values.len();
    format!(
        "{}{}{}",
        &text[..start],
        F32Bits::encode(values),
        &text[end..]
    )
}

#[test]
fn a_stored_codec_keeps_every_bit() {
    let public = trace_synth::public::ip2vec_public_corpus(300, 5);
    let text = TupleCodec::fit_public(&public, SPECIAL.len(), 3)
        .to_json()
        .unwrap();
    let mut planted = text.clone();
    for field in [
        "embeddings",
        "port_lo",
        "port_hi",
        "proto_lo",
        "proto_hi",
        "fallback_port",
        "fallback_proto",
    ] {
        planted = plant(&planted, field, &SPECIAL);
    }
    assert_ne!(planted, text);
    let back = TupleCodec::from_json(&planted).unwrap().to_json().unwrap();
    assert_eq!(
        back, planted,
        "every planted value written back as it was read"
    );
}
