//! The serializable products of training: [`ModelArtifact`] (one trained
//! chunk model) and [`ArtifactBundle`] (artifact + config + name — the
//! self-contained on-disk unit the `netshared` serving daemon loads).
//!
//! An artifact captures everything a sampler needs from a trained chunk
//! model: generator + discriminator parameters, the sampler RNG's raw
//! state, and the chunk's DP accounting. Both the live path and the
//! resume path rebuild models *from artifacts* — one shared path is what
//! makes a resumed run bitwise identical to an uninterrupted one, and
//! what makes a served stream bitwise identical to an offline
//! `sample_fast` run from the same bundle.
//!
//! Stored, both are JSON whose parameters are [`Checkpoint`]s in their
//! exact bit-pattern form (format 2, see `nnet::serialize`). A file
//! whose checkpoints are in any other form — the float text of earlier
//! builds counts as format 1 — is refused, and the error names the
//! format found.

use crate::train::{DgConfig, DoppelGanger};
use nnet::serialize::Checkpoint;
use nnet::{Parameterized, Unset};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// A trained chunk model in portable form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelArtifact {
    /// Generator parameters.
    pub gen: Checkpoint,
    /// Discriminator-pair parameters.
    pub disc: Checkpoint,
    /// xoshiro256++ sampler state, length 4 (a `Vec` because the serde
    /// shim has no fixed-size array impls). Restoring it makes the rebuilt
    /// model continue the exact sample stream the trained model would.
    pub rng_state: Vec<u64>,
    /// `(sampling rate q, DP-SGD steps)` for the privacy accountant;
    /// `None` outside DP mode (and for the pretrain artifact).
    pub dp_rate: Option<(f64, u64)>,
}

impl ModelArtifact {
    /// Captures a trained model.
    pub fn capture(model: &DoppelGanger, dp_rate: Option<(f64, u64)>) -> Self {
        let (gen, disc) = model.checkpoint();
        ModelArtifact {
            gen,
            disc,
            rng_state: model.rng_state().to_vec(),
            dp_rate,
        }
    }

    /// Rebuilds a sampling-ready model under `cfg` (which must describe
    /// the same architecture the artifact was trained with). Fails with a
    /// message instead of panicking so a stale on-disk artifact surfaces
    /// as an orchestrator error, not a crash.
    ///
    /// The networks are built [`Unset`] — no initial weights are drawn —
    /// and every value the model then holds comes from the artifact, so
    /// the result equals [`DoppelGanger::new`] followed by
    /// [`DoppelGanger::restore`] and [`DoppelGanger::set_rng_state`].
    pub fn rebuild(&self, cfg: DgConfig) -> Result<DoppelGanger, String> {
        let (mut gen, mut disc) = DoppelGanger::networks(&cfg, &mut Unset);
        check_shapes("generator", &gen, &self.gen)?;
        check_shapes("discriminator", &disc, &self.disc)?;
        let state: [u64; 4] = self
            .rng_state
            .as_slice()
            .try_into()
            .map_err(|_| format!("artifact rng state has {} words, want 4", self.rng_state.len()))?;
        nnet::serialize::restore(&mut gen, &self.gen);
        nnet::serialize::restore(&mut disc, &self.disc);
        Ok(DoppelGanger::assemble(cfg, gen, disc, StdRng::from_state(state)))
    }
}

/// A named, self-describing artifact: the [`DgConfig`] travels with the
/// [`ModelArtifact`] so anything holding the file can rebuild a sampler —
/// no out-of-band architecture knowledge needed. This is the unit
/// `netshared --artifact <file>` serves and `ArtifactBundle::load` reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactBundle {
    /// The name clients subscribe to (`SUBSCRIBE` frames name it).
    pub name: String,
    /// Architecture + sampler hyper-parameters of the artifact.
    pub cfg: DgConfig,
    /// The trained model.
    pub artifact: ModelArtifact,
}

impl ArtifactBundle {
    /// Captures a model as a named bundle.
    pub fn capture(name: &str, model: &DoppelGanger, dp_rate: Option<(f64, u64)>) -> Self {
        ArtifactBundle {
            name: name.to_string(),
            cfg: model.cfg.clone(),
            artifact: ModelArtifact::capture(model, dp_rate),
        }
    }

    /// Rebuilds a sampling-ready model. Every call returns an identical
    /// model (same weights, same RNG state), so two subscribers to the
    /// same bundle receive the same sample stream.
    pub fn rebuild(&self) -> Result<DoppelGanger, String> {
        self.artifact.rebuild(self.cfg.clone())
    }

    /// Serializes the bundle to a JSON file.
    pub fn save(&self, path: &std::path::Path) -> Result<(), String> {
        let json =
            serde_json::to_string(self).map_err(|e| format!("encode {}: {e}", path.display()))?;
        std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Reads a bundle back from a JSON file written by
    /// [`ArtifactBundle::save`].
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        serde_json::from_str(&json).map_err(|e| format!("parse {}: {e}", path.display()))
    }
}

fn check_shapes(what: &str, model: &dyn Parameterized, ckpt: &Checkpoint) -> Result<(), String> {
    let params = model.parameters();
    if params.len() != ckpt.tensors.len() {
        return Err(format!(
            "artifact {what} has {} tensors, model wants {}",
            ckpt.tensors.len(),
            params.len()
        ));
    }
    for (i, (p, t)) in params.iter().zip(&ckpt.tensors).enumerate() {
        if p.shape() != t.shape() {
            return Err(format!(
                "artifact {what} tensor {i} shape {:?} != model shape {:?}",
                t.shape(),
                p.shape()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FeatureSpec;

    fn toy_cfg() -> DgConfig {
        let mut cfg = DgConfig::small(
            FeatureSpec::continuous(2),
            FeatureSpec::continuous(1),
            3,
        );
        cfg.meta_hidden = vec![8];
        cfg.rnn_hidden = 6;
        cfg.head_hidden = vec![6];
        cfg.disc_hidden = vec![8];
        cfg.aux_hidden = vec![6];
        cfg
    }

    #[test]
    fn capture_rebuild_round_trips_bitwise() {
        let model = DoppelGanger::new(toy_cfg());
        let art = ModelArtifact::capture(&model, Some((0.5, 12)));
        let rebuilt = art.rebuild(toy_cfg()).unwrap();
        for (a, b) in model.gen.parameters().iter().zip(rebuilt.gen.parameters()) {
            assert_eq!(a.data(), b.data());
        }
        assert_eq!(model.rng_state(), rebuilt.rng_state());
        assert_eq!(art.dp_rate, Some((0.5, 12)));
    }

    #[test]
    fn artifact_survives_json_bitwise() {
        let model = DoppelGanger::new(toy_cfg());
        let art = ModelArtifact::capture(&model, None);
        let json = serde_json::to_string(&art).unwrap();
        let back: ModelArtifact = serde_json::from_str(&json).unwrap();
        assert_eq!(back, art, "f32 params and u64 rng state must round-trip exactly");
    }

    #[test]
    fn rebuild_rejects_wrong_architecture() {
        let model = DoppelGanger::new(toy_cfg());
        let art = ModelArtifact::capture(&model, None);
        let mut other = toy_cfg();
        other.rnn_hidden = 5;
        assert!(art.rebuild(other).is_err());

        let mut bad_rng = art.clone();
        bad_rng.rng_state.pop();
        assert!(bad_rng.rebuild(toy_cfg()).is_err());
    }

    #[test]
    fn bundle_saves_loads_and_rebuilds_identically() {
        let model = DoppelGanger::new(toy_cfg());
        let bundle = ArtifactBundle::capture("toy", &model, None);
        let dir = std::env::temp_dir().join(format!("bundle_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.json");
        bundle.save(&path).unwrap();
        let back = ArtifactBundle::load(&path).unwrap();
        assert_eq!(back, bundle, "bundle JSON round trip is exact");
        assert_eq!(back.name, "toy");

        let mut a = bundle.rebuild().unwrap();
        let mut b = back.rebuild().unwrap();
        let sa = a.sample_fast(9);
        let sb = b.sample_fast(9);
        assert_eq!(sa, sb, "rebuilt samplers emit identical streams");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bundle_load_reports_missing_and_malformed_files() {
        let missing = std::path::Path::new("/definitely/not/here.json");
        assert!(ArtifactBundle::load(missing).unwrap_err().contains("read"));
        let dir = std::env::temp_dir().join(format!("bundle_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{ not json").unwrap();
        assert!(ArtifactBundle::load(&path).unwrap_err().contains("parse"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A bundle as earlier builds saved it: checkpoints as float text,
    /// with no `format` field.
    #[derive(Serialize)]
    struct FloatTextBundle {
        name: String,
        cfg: DgConfig,
        artifact: FloatTextArtifact,
    }

    #[derive(Serialize)]
    struct FloatTextArtifact {
        gen: FloatTextCheckpoint,
        disc: FloatTextCheckpoint,
        rng_state: Vec<u64>,
        dp_rate: Option<(f64, u64)>,
    }

    #[derive(Serialize)]
    struct FloatTextCheckpoint {
        tensors: Vec<nnet::Tensor>,
    }

    #[test]
    fn a_float_text_bundle_is_refused_naming_its_format() {
        let model = DoppelGanger::new(toy_cfg());
        let (gen, disc) = model.checkpoint();
        let old = FloatTextBundle {
            name: "old".into(),
            cfg: toy_cfg(),
            artifact: FloatTextArtifact {
                gen: FloatTextCheckpoint { tensors: gen.tensors },
                disc: FloatTextCheckpoint { tensors: disc.tensors },
                rng_state: model.rng_state().to_vec(),
                dp_rate: None,
            },
        };
        let dir = std::env::temp_dir().join(format!("bundle_old_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.json");
        std::fs::write(&path, serde_json::to_string(&old).unwrap()).unwrap();
        let err = ArtifactBundle::load(&path).unwrap_err();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("format 1") && err.contains("reads format 2"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The smallest network the config allows: a stored artifact and
    /// bundle of a few hundred bytes.
    fn tiny_cfg() -> DgConfig {
        let mut cfg = DgConfig::small(FeatureSpec::continuous(1), FeatureSpec::continuous(1), 1);
        cfg.z_meta_dim = 1;
        cfg.z_record_dim = 1;
        cfg.meta_hidden = vec![];
        cfg.rnn_hidden = 1;
        cfg.head_hidden = vec![];
        cfg.disc_hidden = vec![];
        cfg.aux_hidden = vec![];
        cfg
    }

    fn tiny_texts() -> (String, String) {
        let bundle = ArtifactBundle::capture("tiny", &DoppelGanger::new(tiny_cfg()), None);
        (serde_json::to_string(&bundle.artifact).unwrap(), serde_json::to_string(&bundle).unwrap())
    }

    /// Whether the two stored-form readers accept their text: a
    /// `ModelArtifact` store object, and an `ArtifactBundle` file.
    fn read_both(artifact: &str, bundle: &str, path: &std::path::Path) -> (bool, bool) {
        std::fs::write(path, bundle).unwrap();
        (
            serde_json::from_str::<ModelArtifact>(artifact).is_ok(),
            ArtifactBundle::load(path).is_ok(),
        )
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bundle_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("b.json")
    }

    #[test]
    fn every_truncation_of_an_artifact_or_bundle_is_an_error() {
        let (artifact, bundle) = tiny_texts();
        assert!(bundle.len() < 2_000, "{} bytes", bundle.len());
        let path = scratch("trunc");
        assert_eq!(read_both(&artifact, &bundle, &path), (true, true));
        for end in 0..artifact.len() {
            assert!(serde_json::from_str::<ModelArtifact>(&artifact[..end]).is_err(), "byte {end}");
        }
        for end in 0..bundle.len() {
            std::fs::write(&path, &bundle[..end]).unwrap();
            assert!(ArtifactBundle::load(&path).is_err(), "byte {end}");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn hostile_bits_shapes_and_formats_are_refused() {
        let (artifact, bundle) = tiny_texts();
        let path = scratch("hostile");
        let (bits, rows, format) = ("\"bits\":\"", "\"rows\":", "\"format\":");
        let huge = usize::MAX.to_string();
        // Each edit lands in the first checkpoint, which both texts hold.
        let edits = [
            ("odd length", bits, "\"bits\":\"0".to_string()),
            ("uppercase", bits, "\"bits\":\"3F800000".into()),
            ("non-hex", bits, "\"bits\":\"3f80000z".into()),
            ("a value too many", bits, "\"bits\":\"3f800000".into()),
            ("rows x cols overflows", rows, format!("\"rows\":{huge},\"x\":")),
            ("rows x cols too small", rows, "\"rows\":0,\"x\":".into()),
            ("format 3", format, "\"format\":3,\"x\":".into()),
            ("format 1", format, "\"format\":1,\"x\":".into()),
        ];
        for (what, needle, with) in edits {
            let art = artifact.replacen(needle, &with, 1);
            let bun = bundle.replacen(needle, &with, 1);
            assert_ne!(art, artifact, "{what}: the edit applies");
            assert_eq!(read_both(&art, &bun, &path), (false, false), "{what}");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    proptest::proptest! {
        #[test]
        fn junk_in_an_artifact_or_bundle_never_panics(
            junk in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..32),
            at in 0usize..2_000,
        ) {
            let (artifact, bundle) = tiny_texts();
            let splice = |text: &str| {
                let mut bytes = text.as_bytes().to_vec();
                let at = at.min(bytes.len());
                bytes.splice(at..at, junk.iter().copied());
                bytes
            };
            let art = splice(&artifact);
            let _ = serde_json::from_str::<ModelArtifact>(&String::from_utf8_lossy(&art));
            let path = scratch("junk");
            std::fs::write(&path, splice(&bundle)).unwrap();
            let _ = ArtifactBundle::load(&path);
            std::fs::remove_dir_all(path.parent().unwrap()).ok();
        }
    }
}
