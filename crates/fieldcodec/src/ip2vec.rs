//! IP2Vec: Word2Vec-style embeddings of header-field "words"
//! (Ring et al., ICDMW 2017), as used by NetShare and E-WGAN-GP.
//!
//! Each five-tuple is a *sentence*; its IPs, ports, and protocol are
//! *words*. A skip-gram model with negative sampling learns a fixed-length
//! vector per word; generated vectors are decoded back to words by
//! nearest-neighbour search over the dictionary.
//!
//! The privacy subtlety the paper leans on (Insight 2): the dictionary is
//! training-data-dependent, so NetShare trains the embedding **only on
//! public data** and uses it **only for ports and protocols**, whose public
//! support ("almost every possible port number and protocol") covers the
//! private data's words. IPs get the data-independent bit encoding instead.

use nettrace::{FlowTrace, PacketTrace};
use rand::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A vocabulary item: one value of one header field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Word {
    /// An IPv4 address.
    Ip(u32),
    /// A port number (source or destination — IP2Vec does not distinguish).
    Port(u16),
    /// A transport protocol number.
    Proto(u8),
}

impl Word {
    /// True for port words (the nearest-neighbour filter NetShare uses).
    pub fn is_port(&self) -> bool {
        matches!(self, Word::Port(_))
    }

    /// True for protocol words.
    pub fn is_proto(&self) -> bool {
        matches!(self, Word::Proto(_))
    }
}

/// IP2Vec training hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Ip2VecConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Passes over the sentence corpus.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Ip2VecConfig {
    fn default() -> Self {
        Ip2VecConfig {
            dim: 16,
            epochs: 3,
            lr: 0.05,
            negatives: 5,
            seed: 0x1926ec,
        }
    }
}

/// A trained IP2Vec model: the dictionary and its embeddings. (The
/// output/context matrix exists only while [`Ip2Vec::train`] runs;
/// nothing reads it afterwards.)
#[derive(Debug, Clone)]
pub struct Ip2Vec {
    dim: usize,
    vocab: Vec<Word>,
    index: BTreeMap<Word, usize>,
    /// Embeddings, `vocab.len() × dim`, row-major.
    emb: Vec<f32>,
}

/// The negative-sampling distribution (unigram^0.75) as a CDF with a
/// guide table over it: `guide[b]` is the first CDF position that can
/// answer a `u` in bucket `b` of 2¹⁶ equal ones, so a draw
/// searches `cdf[guide[b]..guide[b + 1]]` — usually empty or one entry —
/// and lands on the index a binary search of the whole CDF would.
pub struct NegativeTable {
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

/// Buckets of [`NegativeTable`]'s guide. A power of two, so `u * B` and
/// `b / B` are exact and `b / B <= u < (b + 1) / B` holds for every `u`.
const GUIDE_BUCKETS: usize = 1 << 16;

impl NegativeTable {
    /// The table for a vocabulary with these unigram counts.
    pub fn new(counts: &[u64]) -> Self {
        let weights: Vec<f64> = counts.iter().map(|&c| (c as f64).powf(0.75)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(counts.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total.max(f64::MIN_POSITIVE);
            cdf.push(acc);
        }
        // `acc` never decreases, so one forward walk finds every bucket's
        // partition point.
        let mut guide = Vec::with_capacity(GUIDE_BUCKETS + 1);
        let mut i = 0;
        for b in 0..=GUIDE_BUCKETS {
            let edge = b as f64 / GUIDE_BUCKETS as f64;
            while i < cdf.len() && cdf[i] < edge {
                i += 1;
            }
            guide.push(i as u32);
        }
        NegativeTable { cdf, guide }
    }

    /// The cumulative distribution, one entry per word.
    pub fn cdf(&self) -> &[f64] {
        &self.cdf
    }

    /// The word a uniform draw `u` in `[0, 1)` selects:
    /// `cdf.partition_point(|&c| c < u)`, clamped to the last word.
    pub fn index_of(&self, u: f64) -> usize {
        debug_assert!((0.0..1.0).contains(&u), "u = {u}");
        let b = ((u * GUIDE_BUCKETS as f64) as usize).min(GUIDE_BUCKETS - 1);
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        let i = lo + self.cdf[lo..hi].partition_point(|&c| c < u);
        i.min(self.cdf.len().saturating_sub(1))
    }
}

impl Ip2Vec {
    /// A dictionary from its parts: `vocab` in first-seen order and its
    /// `vocab.len() × dim` row-major embeddings. The word index is built
    /// here, so every `Ip2Vec` — trained or loaded — answers lookups.
    pub fn from_parts(dim: usize, vocab: Vec<Word>, emb: Vec<f32>) -> Result<Self, String> {
        if vocab.len().checked_mul(dim) != Some(emb.len()) {
            return Err(format!(
                "{} embedding values for {} words of dimension {dim}",
                emb.len(),
                vocab.len()
            ));
        }
        let index = word_index(&vocab);
        if index.len() != vocab.len() {
            return Err("a word appears twice in the vocabulary".into());
        }
        Ok(Ip2Vec { dim, vocab, index, emb })
    }

    /// Trains on explicit sentences (each a slice of words).
    pub fn train(sentences: &[Vec<Word>], cfg: Ip2VecConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Vocabulary and unigram counts, with every sentence resolved to
        // word ids once: `ids[ends[s - 1]..ends[s]]` is sentence `s`.
        let mut index: BTreeMap<Word, usize> = BTreeMap::new();
        let mut vocab: Vec<Word> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        let mut ids: Vec<u32> = Vec::with_capacity(sentences.iter().map(Vec::len).sum());
        let mut ends: Vec<usize> = Vec::with_capacity(sentences.len());
        for s in sentences {
            for w in s {
                let i = *index.entry(*w).or_insert_with(|| {
                    vocab.push(*w);
                    counts.push(0);
                    vocab.len() - 1
                });
                counts[i] += 1;
                ids.push(i as u32);
            }
            ends.push(ids.len());
        }
        let dim = cfg.dim;
        let mut emb: Vec<f32> = (0..vocab.len() * dim)
            .map(|_| (rng.gen::<f32>() - 0.5) / dim as f32)
            .collect();
        let mut ctx: Vec<f32> = vec![0.0; emb.len()];
        let negatives = NegativeTable::new(&counts);

        let sigmoid = |x: f32| 1.0 / (1.0 + (-x).exp());
        let dot = |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
        // One positive or negative update: accumulates the center
        // gradient and moves the context row.
        let update = |grad_c: &mut [f32], center: &[f32], context: &mut [f32], g: f32| {
            for ((gc, &e), c) in grad_c.iter_mut().zip(center).zip(context) {
                *gc += g * *c;
                *c -= g * e;
            }
        };

        let mut grad_c = vec![0.0f32; dim];
        for _ in 0..cfg.epochs {
            let mut start = 0;
            for &end in &ends {
                let s = &ids[start..end];
                start = end;
                for (ci, &c_idx) in s.iter().enumerate() {
                    let vc = c_idx as usize * dim;
                    for (oi, &o_idx) in s.iter().enumerate() {
                        if ci == oi {
                            continue;
                        }
                        // Positive update + negatives, accumulating the
                        // center-gradient before applying it.
                        grad_c.fill(0.0);
                        let center = &mut emb[vc..vc + dim];
                        let uo = o_idx as usize * dim;
                        let context = &mut ctx[uo..uo + dim];
                        let g = (sigmoid(dot(center, context)) - 1.0) * cfg.lr;
                        update(&mut grad_c, center, context, g);
                        for _ in 0..cfg.negatives {
                            let n_idx = negatives.index_of(rng.gen::<f64>());
                            if n_idx == o_idx as usize {
                                continue;
                            }
                            let un = n_idx * dim;
                            let context = &mut ctx[un..un + dim];
                            let g = sigmoid(dot(center, context)) * cfg.lr;
                            update(&mut grad_c, center, context, g);
                        }
                        for (e, g) in center.iter_mut().zip(&grad_c) {
                            *e -= g;
                        }
                    }
                }
            }
        }

        Ip2Vec { dim, vocab, index, emb }
    }

    /// Trains from a packet trace: one sentence per packet,
    /// `[src_ip, src_port, dst_ip, dst_port, proto]` (port words only for
    /// TCP/UDP).
    pub fn train_on_packets(trace: &PacketTrace, cfg: Ip2VecConfig) -> Self {
        let sentences: Vec<Vec<Word>> = trace
            .packets
            .iter()
            .map(|p| sentence(p.five_tuple))
            .collect();
        Self::train(&sentences, cfg)
    }

    /// Trains from a flow trace (one sentence per record).
    pub fn train_on_flows(trace: &FlowTrace, cfg: Ip2VecConfig) -> Self {
        let sentences: Vec<Vec<Word>> = trace
            .flows
            .iter()
            .map(|f| sentence(f.five_tuple))
            .collect();
        Self::train(&sentences, cfg)
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Dictionary size.
    pub fn vocab_len(&self) -> usize {
        self.vocab.len()
    }

    /// The dictionary, in first-seen order (the order [`Self::nearest`]
    /// scans, so the order its ties break in).
    pub fn words(&self) -> &[Word] {
        &self.vocab
    }

    /// Every embedding, `vocab_len() × dim()`, row-major in
    /// [`Self::words`] order.
    pub fn embeddings(&self) -> &[f32] {
        &self.emb
    }

    /// The dictionary restricted to the words `keep` accepts, order and
    /// embeddings unchanged: lookups and nearest-neighbour searches over
    /// kept words answer as before.
    pub fn retain(&self, keep: impl Fn(&Word) -> bool) -> Self {
        let mut vocab = Vec::new();
        let mut emb = Vec::new();
        for (i, w) in self.vocab.iter().enumerate() {
            if keep(w) {
                vocab.push(*w);
                emb.extend_from_slice(&self.emb[i * self.dim..(i + 1) * self.dim]);
            }
        }
        Ip2Vec { dim: self.dim, index: word_index(&vocab), vocab, emb }
    }

    /// The embedding of a word, if in the dictionary.
    pub fn embedding(&self, w: &Word) -> Option<&[f32]> {
        self.index
            .get(w)
            .map(|&i| &self.emb[i * self.dim..(i + 1) * self.dim])
    }

    /// Nearest dictionary word to `vec` (by Euclidean distance) among
    /// words passing `filter`. This is the paper's decode step: "upon
    /// generating a new embedding, it is mapped to a word via
    /// nearest-neighbor search over the dictionary." Euclidean (rather
    /// than cosine) distance makes decoding *exact* for vectors that are
    /// themselves dictionary embeddings, regardless of embedding quality.
    pub fn nearest(&self, vec: &[f32], filter: impl Fn(&Word) -> bool) -> Option<Word> {
        assert_eq!(vec.len(), self.dim, "query dimension mismatch");
        let mut best: Option<(Word, f32)> = None;
        for (i, w) in self.vocab.iter().enumerate() {
            if !filter(w) {
                continue;
            }
            let e = &self.emb[i * self.dim..(i + 1) * self.dim];
            let d2: f32 = e.iter().zip(vec).map(|(a, b)| (a - b) * (a - b)).sum();
            if best.map(|(_, b)| d2 < b).unwrap_or(true) {
                best = Some((*w, d2));
            }
        }
        best.map(|(w, _)| w)
    }

    /// Decodes a generated vector to the nearest port word.
    pub fn nearest_port(&self, vec: &[f32]) -> Option<u16> {
        match self.nearest(vec, Word::is_port) {
            Some(Word::Port(p)) => Some(p),
            _ => None,
        }
    }

    /// Decodes a generated vector to the nearest protocol word.
    pub fn nearest_proto(&self, vec: &[f32]) -> Option<u8> {
        match self.nearest(vec, Word::is_proto) {
            Some(Word::Proto(p)) => Some(p),
            _ => None,
        }
    }
}

fn word_index(vocab: &[Word]) -> BTreeMap<Word, usize> {
    vocab.iter().enumerate().map(|(i, w)| (*w, i)).collect()
}

/// The IP2Vec sentence for a five-tuple.
pub fn sentence(ft: nettrace::FiveTuple) -> Vec<Word> {
    let mut s = vec![Word::Ip(ft.src_ip)];
    if ft.proto.has_ports() {
        s.push(Word::Port(ft.src_port));
    }
    s.push(Word::Ip(ft.dst_ip));
    if ft.proto.has_ports() {
        s.push(Word::Port(ft.dst_port));
    }
    s.push(Word::Proto(ft.proto.number()));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::{FiveTuple, Protocol};

    /// A toy corpus with two strongly-separated "services": port 53 always
    /// appears with UDP and subnet A; port 80 with TCP and subnet B.
    fn toy_corpus() -> Vec<Vec<Word>> {
        let mut sentences = Vec::new();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..400 {
            if rng.gen::<bool>() {
                let ft = FiveTuple::new(
                    0x0a000000 + rng.gen_range(0..4u32),
                    0x0a0000ff,
                    rng.gen_range(1024..2048),
                    53,
                    Protocol::Udp,
                );
                sentences.push(sentence(ft));
            } else {
                let ft = FiveTuple::new(
                    0x14000000 + rng.gen_range(0..4u32),
                    0x140000ff,
                    rng.gen_range(1024..2048),
                    80,
                    Protocol::Tcp,
                );
                sentences.push(sentence(ft));
            }
        }
        sentences
    }

    fn cos(a: &[f32], b: &[f32]) -> f32 {
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>() / (na * nb)
    }

    fn small_cfg() -> Ip2VecConfig {
        Ip2VecConfig {
            dim: 12,
            epochs: 6,
            lr: 0.05,
            negatives: 4,
            seed: 1,
        }
    }

    #[test]
    fn cooccurring_words_embed_close() {
        let model = Ip2Vec::train(&toy_corpus(), small_cfg());
        let p53 = model.embedding(&Word::Port(53)).unwrap().to_vec();
        let udp = model.embedding(&Word::Proto(17)).unwrap().to_vec();
        let p80 = model.embedding(&Word::Port(80)).unwrap().to_vec();
        let tcp = model.embedding(&Word::Proto(6)).unwrap().to_vec();
        assert!(
            cos(&p53, &udp) > cos(&p53, &tcp),
            "53 is closer to UDP than TCP: {} vs {}",
            cos(&p53, &udp),
            cos(&p53, &tcp)
        );
        assert!(cos(&p80, &tcp) > cos(&p80, &udp), "80 closer to TCP");
    }

    #[test]
    fn embeddings_decode_to_themselves() {
        let model = Ip2Vec::train(&toy_corpus(), small_cfg());
        let e53 = model.embedding(&Word::Port(53)).unwrap().to_vec();
        assert_eq!(model.nearest_port(&e53), Some(53));
        let etcp = model.embedding(&Word::Proto(6)).unwrap().to_vec();
        assert_eq!(model.nearest_proto(&etcp), Some(6));
    }

    #[test]
    fn nearest_respects_filter() {
        let model = Ip2Vec::train(&toy_corpus(), small_cfg());
        let e = model.embedding(&Word::Proto(6)).unwrap().to_vec();
        // Even querying with a protocol vector, a port filter returns a port.
        let w = model.nearest(&e, Word::is_port).unwrap();
        assert!(w.is_port());
    }

    #[test]
    fn unknown_word_has_no_embedding() {
        let model = Ip2Vec::train(&toy_corpus(), small_cfg());
        assert!(model.embedding(&Word::Port(9999)).is_none());
    }

    #[test]
    fn sentence_omits_ports_for_icmp() {
        let ft = FiveTuple::new(1, 2, 0, 0, Protocol::Icmp);
        let s = sentence(ft);
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|w| !w.is_port()));
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = toy_corpus();
        let a = Ip2Vec::train(&corpus, small_cfg());
        let b = Ip2Vec::train(&corpus, small_cfg());
        assert_eq!(a.emb, b.emb);
    }
}
