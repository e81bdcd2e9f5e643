//! `Ip2Vec::train` against the loop it replaced, bit for bit.
//!
//! The trainer resolves sentences to word ids once, reuses one gradient
//! buffer and samples negatives through a guide table; none of that may
//! change a single `f32` operation or RNG draw. `reference_train` is the
//! previous loop, kept verbatim (map lookups, a fresh gradient vector
//! per pair, a binary search of the whole CDF per negative) as the
//! oracle.

use fieldcodec::ip2vec::{sentence, NegativeTable};
use fieldcodec::{Ip2Vec, Ip2VecConfig, Word};
use proptest::prelude::*;
use rand::prelude::*;
use std::collections::BTreeMap;

/// The trainer as it was: `(vocabulary in first-seen order, embeddings)`.
fn reference_train(sentences: &[Vec<Word>], cfg: Ip2VecConfig) -> (Vec<Word>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Build vocabulary + unigram counts.
    let mut index: BTreeMap<Word, usize> = BTreeMap::new();
    let mut vocab: Vec<Word> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    for s in sentences {
        for w in s {
            match index.get(w) {
                Some(&i) => counts[i] += 1,
                None => {
                    index.insert(*w, vocab.len());
                    vocab.push(*w);
                    counts.push(1);
                }
            }
        }
    }
    let v = vocab.len().max(1);
    let dim = cfg.dim;
    let mut emb: Vec<f32> = (0..v * dim)
        .map(|_| (rng.gen::<f32>() - 0.5) / dim as f32)
        .collect();
    let mut ctx: Vec<f32> = vec![0.0; v * dim];

    // Negative-sampling distribution: unigram^0.75 CDF.
    let weights: Vec<f64> = counts.iter().map(|&c| (c as f64).powf(0.75)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(v);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total.max(f64::MIN_POSITIVE);
        cdf.push(acc);
    }
    let sample_negative = |rng: &mut StdRng| -> usize {
        let u = rng.gen::<f64>();
        cdf.partition_point(|&c| c < u).min(v - 1)
    };

    let sigmoid = |x: f32| 1.0 / (1.0 + (-x).exp());

    for _ in 0..cfg.epochs {
        for s in sentences {
            for (ci, c) in s.iter().enumerate() {
                let c_idx = index[c];
                for (oi, o) in s.iter().enumerate() {
                    if ci == oi {
                        continue;
                    }
                    let o_idx = index[o];
                    // Positive update + negatives, accumulating the
                    // center-gradient before applying it.
                    let mut grad_c = vec![0.0f32; dim];
                    {
                        let (vc, uo) = (c_idx * dim, o_idx * dim);
                        let dot: f32 = (0..dim).map(|d| emb[vc + d] * ctx[uo + d]).sum();
                        let g = (sigmoid(dot) - 1.0) * cfg.lr;
                        for d in 0..dim {
                            grad_c[d] += g * ctx[uo + d];
                            ctx[uo + d] -= g * emb[vc + d];
                        }
                    }
                    for _ in 0..cfg.negatives {
                        let n_idx = sample_negative(&mut rng);
                        if n_idx == o_idx {
                            continue;
                        }
                        let (vc, un) = (c_idx * dim, n_idx * dim);
                        let dot: f32 = (0..dim).map(|d| emb[vc + d] * ctx[un + d]).sum();
                        let g = sigmoid(dot) * cfg.lr;
                        for d in 0..dim {
                            grad_c[d] += g * ctx[un + d];
                            ctx[un + d] -= g * emb[vc + d];
                        }
                    }
                    let vc = c_idx * dim;
                    for d in 0..dim {
                        emb[vc + d] -= grad_c[d];
                    }
                }
            }
        }
    }
    emb.truncate(vocab.len() * dim);
    (vocab, emb)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Trains both ways; returns how many embedding values were compared.
fn assert_bit_equal(sentences: &[Vec<Word>], cfg: Ip2VecConfig) -> usize {
    let (vocab, emb) = reference_train(sentences, cfg);
    let model = Ip2Vec::train(sentences, cfg);
    assert_eq!(model.words(), &vocab[..], "vocabulary order");
    assert_eq!(bits(model.embeddings()), bits(&emb), "embedding bits");
    emb.len()
}

// Small pools, so words repeat within and across sentences.
fn word() -> impl Strategy<Value = Word> {
    prop_oneof![
        (0u32..6).prop_map(Word::Ip),
        (0u16..8).prop_map(Word::Port),
        (0u8..3).prop_map(Word::Proto),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn train_matches_the_reference_loop(
        // Empty, one-word and repeated-word sentences included.
        sentences in prop::collection::vec(prop::collection::vec(word(), 0..7), 1..=400),
        dim in 1usize..=16,
        negatives in 0usize..=6,
        epochs in 0usize..=3,
        seed in any::<u64>(),
    ) {
        assert_bit_equal(&sentences, Ip2VecConfig { dim, epochs, lr: 0.05, negatives, seed });
    }
}

#[test]
fn an_empty_corpus_trains_an_empty_dictionary() {
    assert_eq!(assert_bit_equal(&[], Ip2VecConfig::default()), 0);
    assert_eq!(assert_bit_equal(&[vec![], vec![]], Ip2VecConfig::default()), 0);
}

#[test]
fn train_matches_the_reference_on_the_default_public_corpus() {
    // What every `NetShare::fit` trains at the default configuration.
    let public = trace_synth::public::ip2vec_public_corpus(12_000, 17 ^ 0xab);
    let sentences: Vec<Vec<Word>> = public.packets.iter().map(|p| sentence(p.five_tuple)).collect();
    let cfg = Ip2VecConfig { dim: 12, epochs: 2, lr: 0.05, negatives: 4, seed: 17 ^ 0xcd };
    let compared = assert_bit_equal(&sentences, cfg);
    assert!(compared > 100_000, "a 12-wide dictionary of thousands of words: {compared}");
}

/// Every `u` worth asking about one CDF value: itself and its two
/// neighbours in `f64`.
fn around(c: f64) -> [f64; 3] {
    [f64::from_bits(c.to_bits().saturating_sub(1)), c, f64::from_bits(c.to_bits() + 1)]
}

fn assert_table_matches_partition_point(counts: &[u64]) {
    let table = NegativeTable::new(counts);
    let cdf = table.cdf();
    assert_eq!(cdf.len(), counts.len());
    let largest_below_one = f64::from_bits(1.0f64.to_bits() - 1);
    let probes = cdf
        .iter()
        .flat_map(|&c| around(c))
        .chain([0.0, largest_below_one])
        .filter(|u| (0.0..1.0).contains(u));
    for u in probes {
        let want = cdf.partition_point(|&c| c < u).min(counts.len() - 1);
        assert_eq!(table.index_of(u), want, "u = {u:e} over {} words", counts.len());
    }
}

#[test]
fn guide_table_sampler_agrees_with_partition_point() {
    assert_table_matches_partition_point(&[7]);
    assert_table_matches_partition_point(&[1, 1]);
    assert_table_matches_partition_point(&[1_000_000, 1, 1, 1]);
    // More words than guide buckets: many CDF values share a bucket.
    let mut rng = StdRng::seed_from_u64(5);
    let skewed: Vec<u64> =
        (0..100_000).map(|i| 1 + rng.gen_range(0..1_000u64) / (1 + i % 97)).collect();
    assert_table_matches_partition_point(&skewed);
    // The default corpus's own counts.
    let public = trace_synth::public::ip2vec_public_corpus(12_000, 17 ^ 0xab);
    let mut counts: BTreeMap<Word, u64> = BTreeMap::new();
    for p in &public.packets {
        for w in sentence(p.five_tuple) {
            *counts.entry(w).or_insert(0) += 1;
        }
    }
    assert_table_matches_partition_point(&counts.into_values().collect::<Vec<_>>());
}

#[test]
fn a_dictionary_rebuilt_from_its_parts_answers_every_lookup() {
    // The parts are what a stored dictionary holds; the index is not
    // among them, so `from_parts` has to have built it.
    let public = trace_synth::public::ip2vec_public_corpus(1_500, 3);
    let cfg = Ip2VecConfig { dim: 8, epochs: 1, ..Ip2VecConfig::default() };
    let trained = Ip2Vec::train_on_packets(&public, cfg);
    let loaded =
        Ip2Vec::from_parts(trained.dim(), trained.words().to_vec(), trained.embeddings().to_vec())
            .unwrap();
    assert!(trained.vocab_len() > 100);
    for w in trained.words() {
        let e = trained.embedding(w).expect("a trained word has an embedding");
        assert_eq!(loaded.embedding(w), Some(e), "{w:?}");
        assert_eq!(loaded.nearest_port(e), trained.nearest_port(e), "{w:?}");
        assert_eq!(loaded.nearest_proto(e), trained.nearest_proto(e), "{w:?}");
    }
    assert!(loaded.embedding(&Word::Ip(1)).is_none(), "an unknown word still has none");

    // Restricting the dictionary keeps order, embeddings and answers.
    let ports_only = trained.retain(Word::is_port);
    assert!(ports_only.words().iter().all(Word::is_port));
    for w in ports_only.words() {
        let e = trained.embedding(w).unwrap();
        assert_eq!(ports_only.embedding(w), Some(e));
        assert_eq!(ports_only.nearest_port(e), trained.nearest_port(e));
    }
    assert_eq!(ports_only.nearest_proto(&[0.0; 8]), None);

    // Parts that do not fit together are refused, not indexed.
    assert!(Ip2Vec::from_parts(8, trained.words().to_vec(), vec![0.0; 7]).is_err());
    assert!(Ip2Vec::from_parts(1, vec![Word::Port(1), Word::Port(1)], vec![0.0; 2]).is_err());
}
