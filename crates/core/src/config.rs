//! Pipeline configuration.

use nnet::dpsgd::DpSgdConfig;
use std::path::PathBuf;

/// How the chunk-training jobs are scheduled, checkpointed, and retried
/// (the reproduction of the paper's Ray-based training topology).
///
/// None of these fields affect *what* is trained — the orchestrated run is
/// bitwise identical at any worker count — so they are excluded from the
/// run fingerprint that gates [`resume`](OrchestratorOptions::resume).
#[derive(Debug, Clone, Default)]
pub struct OrchestratorOptions {
    /// Worker threads for the job pool; `0` means one per logical core
    /// (honoring `RAYON_NUM_THREADS`).
    pub workers: usize,
    /// Directory for the checkpoint manifest, per-job model payloads, and
    /// the `events.jsonl` stream; `None` disables persistence.
    pub checkpoint_dir: Option<PathBuf>,
    /// Skip jobs the manifest can verify (same config fingerprint, intact
    /// payload digest) instead of retraining them.
    pub resume: bool,
    /// Retries after a job's first failed attempt (panic or error) before
    /// the run fails. `None` uses the orchestrator default.
    pub max_retries: Option<u32>,
    /// Test/CI fault injection: a parsed plan of the `;`-joined grammar in
    /// DESIGN.md §9, which `netshare_cli` reads from
    /// `NETSHARE_INJECT_FAULT`. Its attempt and persist faults strike the
    /// training jobs.
    pub faults: Option<orchestrator::FaultPlan>,
    /// Watchdog wall-clock budget per job attempt (seconds); an attempt
    /// running past it is cooperatively cancelled and retried. `None`
    /// disables the deadline.
    pub max_job_secs: Option<f64>,
    /// Verified checkpoint generations retained per job (older ones are
    /// pruned). `None` uses the orchestrator default (3).
    pub keep_generations: Option<usize>,
    /// Divergence-sentinel rollbacks allowed per training job before the
    /// job fails. `None` uses the sentinel default.
    pub rollback_budget: Option<u32>,
    /// Test/CI divergence injection: `"<job-id>:<step>"` poisons the named
    /// job's model with a NaN at that generator step, forcing the sentinel
    /// to roll back. Also settable via `NETSHARE_INJECT_DIVERGENCE`.
    pub divergence_spec: Option<String>,
}

/// Which public dataset seeds the DP pre-training (paper Fig. 5's
/// "DP Pretrained-SAME" vs "DP Pretrained-DIFF").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DpPretrainSource {
    /// Same-domain public data (CAIDA-Chicago-2015-like backbone trace).
    #[default]
    SameDomain,
    /// Different-domain public data (data-center trace) — the paper shows
    /// this gives much smaller gains.
    DifferentDomain,
}

/// Differential-privacy options for [`crate::NetShare`].
#[derive(Debug, Clone, Copy)]
pub struct DpOptions {
    /// DP-SGD noise multiplier σ (per-coordinate noise stddev is
    /// σ·clip_norm on the per-batch gradient sum).
    pub noise_multiplier: f32,
    /// Per-example gradient clipping norm.
    pub clip_norm: f32,
    /// δ for the reported (ε, δ) guarantee.
    pub delta: f64,
    /// Generator steps of *public* pre-training before the DP fine-tune
    /// (paper Insight 4). Zero reproduces "Naive DP".
    pub public_pretrain_steps: usize,
    /// Which public dataset to pre-train on.
    pub pretrain_source: DpPretrainSource,
}

impl DpOptions {
    /// The DP-SGD configuration for the critic.
    pub fn dpsgd(&self) -> DpSgdConfig {
        DpSgdConfig {
            clip_norm: self.clip_norm,
            noise_multiplier: self.noise_multiplier,
        }
    }
}

/// End-to-end NetShare configuration.
#[derive(Debug, Clone)]
pub struct NetShareConfig {
    /// Number of fixed-time chunks `M` (paper default: 10). `1` disables
    /// chunked fine-tuning and reproduces the monolithic "NetShare-V0".
    pub n_chunks: usize,
    /// Maximum records (flow datasets) or packets (packet datasets) per
    /// five-tuple sequence within a chunk; longer sequences truncate.
    pub max_seq_len: usize,
    /// Generator steps for the seed chunk (and for V0's single model).
    pub seed_steps: usize,
    /// Generator steps for each fine-tuned chunk (≪ `seed_steps`; this is
    /// where the Insight-3 CPU-hours saving comes from).
    pub finetune_steps: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Critic steps per generator step.
    pub n_critic: usize,
    /// WGAN weight-clipping bound for the critics.
    pub weight_clip: f32,
    /// Weight of the auxiliary (metadata-only) critic.
    pub aux_weight: f32,
    /// IP2Vec embedding width for ports/protocols.
    pub embed_dim: usize,
    /// Number of public packets used to train the IP2Vec dictionary.
    pub ip2vec_public_packets: usize,
    /// Whether flow records carry labels to model (labeled datasets).
    pub with_labels: bool,
    /// Whether to append the Insight-3 flow tags (start flag + chunk
    /// presence bits) to the metadata. Disabling is an ablation knob; the
    /// tag dimensions are still allocated but zeroed so architectures
    /// stay comparable.
    pub use_flow_tags: bool,
    /// Master RNG seed.
    pub seed: u64,
    /// Differential privacy; `None` trains non-privately.
    pub dp: Option<DpOptions>,
    /// Job scheduling, checkpointing, and fault tolerance.
    pub orchestrator: OrchestratorOptions,
}

impl NetShareConfig {
    /// Paper-shaped defaults scaled to CPU experiments.
    pub fn default_config() -> Self {
        NetShareConfig {
            n_chunks: 10,
            max_seq_len: 8,
            seed_steps: 300,
            finetune_steps: 60,
            batch_size: 32,
            lr: 1e-3,
            n_critic: 2,
            weight_clip: 0.1,
            aux_weight: 1.0,
            embed_dim: 12,
            ip2vec_public_packets: 12_000,
            with_labels: false,
            use_flow_tags: true,
            seed: 17,
            dp: None,
            orchestrator: OrchestratorOptions::default(),
        }
    }

    /// A fast configuration for tests and examples (minutes → seconds).
    pub fn fast() -> Self {
        NetShareConfig {
            n_chunks: 4,
            max_seq_len: 5,
            seed_steps: 60,
            finetune_steps: 15,
            batch_size: 24,
            ip2vec_public_packets: 3_000,
            embed_dim: 8,
            ..NetShareConfig::default_config()
        }
    }

    /// The "NetShare-V0" ablation: one monolithic model over the whole
    /// trace (no chunking, no fine-tuning) — the intermediate design of
    /// paper Fig. 4 that costs ~10× more CPU for the same data.
    pub fn v0_from(mut self) -> Self {
        // All records in one chunk, all trained at full (seed) depth.
        self.n_chunks = 1;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v0_collapses_to_one_chunk() {
        let cfg = NetShareConfig::default_config().v0_from();
        assert_eq!(cfg.n_chunks, 1);
    }

    #[test]
    fn dp_options_map_to_dpsgd() {
        let dp = DpOptions {
            noise_multiplier: 1.3,
            clip_norm: 0.7,
            delta: 1e-5,
            public_pretrain_steps: 10,
            pretrain_source: DpPretrainSource::SameDomain,
        };
        let cfg = dp.dpsgd();
        assert_eq!(cfg.noise_multiplier, 1.3);
        assert_eq!(cfg.clip_norm, 0.7);
    }
}
