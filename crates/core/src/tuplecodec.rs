//! Five-tuple ↔ metadata-vector codec (paper Insight 2 / Table 2).
//!
//! Layout per tuple: `[src_ip 32 bits ‖ dst_ip 32 bits ‖ src-port hybrid ‖
//! dst-port hybrid ‖ protocol hybrid]`.
//!
//! * IPs use the data-independent bit encoding (DP-safe).
//! * Ports and protocol use a **hybrid categorical + IP2Vec** encoding:
//!   a softmax over the top-K most frequent port words of the *public*
//!   corpus (DoppelGANger's native treatment of categorical metadata)
//!   plus the IP2Vec embedding, which both disambiguates the "other"
//!   bucket and carries semantics for rare ports. The categorical
//!   vocabulary is derived from public data only, so — like the bit
//!   encoding — it never touches the private trace (the Insight-2 privacy
//!   requirement). Decoding uses the category when it names a concrete
//!   port and falls back to nearest-neighbour search over the public
//!   dictionary otherwise, restricted to (port, protocol) pairs the
//!   public corpus exhibits (keeps Appendix-B Test 3 compliance).
//!
//! A fitted codec is a function of the public corpus, the embedding
//! width and the seed — nothing private — so it can be written down
//! ([`TupleCodec::to_json`]) and read back ([`TupleCodec::from_json`])
//! instead of being trained again; the pipeline keeps it in a run
//! directory's object store.

use doppelganger::Segment;
use fieldcodec::{BitCodec, Ip2Vec, Ip2VecConfig, Word};
use nettrace::{FiveTuple, PacketTrace, Protocol};
use nnet::serialize::F32Bits;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Number of public-corpus service ports given categorical slots.
const TOP_PORTS: usize = 40;
/// Protocol categorical vocabulary (TCP, UDP, ICMP) + other.
const PROTO_VOCAB: [u8; 3] = [6, 17, 1];

/// Version of the stored form; a reader refuses any other. Format 1
/// wrote each `f32` as a JSON integer; format 2 writes each vector as one
/// [`F32Bits`] hex string.
pub const CODEC_FORMAT: u32 = 2;

/// A fitted five-tuple codec.
pub struct TupleCodec {
    /// The public dictionary's port and protocol words. IPs are
    /// bit-encoded, so their rows are dropped once training is over.
    ip2vec: Ip2Vec,
    ip_bits: BitCodec,
    embed_dim: usize,
    /// Top-K public ports, most frequent first; index = categorical slot.
    service_ports: Vec<u16>,
    service_index: BTreeMap<u16, usize>,
    port_lo: Vec<f32>,
    port_hi: Vec<f32>,
    proto_lo: Vec<f32>,
    proto_hi: Vec<f32>,
    /// Fallback port embedding for out-of-dictionary ports (zeros before
    /// normalization — decodes to the dictionary's most central port).
    fallback_port: Vec<f32>,
    fallback_proto: Vec<f32>,
    /// (port, protocol) pairs observed in the public corpus.
    port_proto_pairs: BTreeSet<(u16, u8)>,
}

/// [`TupleCodec`]'s stored form. `f32`s travel as bit patterns, the
/// form checkpoints use too: the JSON float text would round-trip finite
/// values, but not a non-finite one, and costs more bytes and far more
/// parsing.
#[derive(Serialize, Deserialize)]
struct StoredCodec {
    format: u32,
    embed_dim: usize,
    words: Vec<Word>,
    embeddings: F32Bits,
    service_ports: Vec<u16>,
    port_lo: F32Bits,
    port_hi: F32Bits,
    proto_lo: F32Bits,
    proto_hi: F32Bits,
    fallback_port: F32Bits,
    fallback_proto: F32Bits,
    port_proto_pairs: Vec<(u16, u8)>,
}

impl TupleCodec {
    /// Trains the IP2Vec dictionary on a public packet corpus and fits the
    /// categorical vocabulary and embedding normalization ranges.
    pub fn fit_public(public: &PacketTrace, embed_dim: usize, seed: u64) -> Self {
        let cfg = Ip2VecConfig {
            dim: embed_dim,
            epochs: 2,
            lr: 0.05,
            negatives: 4,
            seed,
        };
        let ip2vec =
            Ip2Vec::train_on_packets(public, cfg).retain(|w| !matches!(w, Word::Ip(_)));

        // Port popularity + per-kind embedding ranges over the corpus.
        let mut port_counts: BTreeMap<u16, u64> = BTreeMap::new();
        let mut port_lo = vec![f32::INFINITY; embed_dim];
        let mut port_hi = vec![f32::NEG_INFINITY; embed_dim];
        let mut proto_lo = vec![f32::INFINITY; embed_dim];
        let mut proto_hi = vec![f32::NEG_INFINITY; embed_dim];
        let mut any_port = vec![0.0f32; embed_dim];
        let mut any_proto = vec![0.0f32; embed_dim];
        let mut n_port = 0u32;
        let mut n_proto = 0u32;
        let mut port_proto_pairs = BTreeSet::new();
        for p in &public.packets {
            if p.five_tuple.proto.has_ports() {
                let pr = p.five_tuple.proto.number();
                port_proto_pairs.insert((p.five_tuple.src_port, pr));
                port_proto_pairs.insert((p.five_tuple.dst_port, pr));
                // Destination ports define "service" popularity.
                *port_counts.entry(p.five_tuple.dst_port).or_insert(0) += 1;
            }
            for w in fieldcodec::ip2vec::sentence(p.five_tuple) {
                let (lo, hi, sum, n) = match w {
                    Word::Port(_) => (&mut port_lo, &mut port_hi, &mut any_port, &mut n_port),
                    Word::Proto(_) => (&mut proto_lo, &mut proto_hi, &mut any_proto, &mut n_proto),
                    Word::Ip(_) => continue,
                };
                if let Some(e) = ip2vec.embedding(&w) {
                    for d in 0..embed_dim {
                        lo[d] = lo[d].min(e[d]);
                        hi[d] = hi[d].max(e[d]);
                        sum[d] += e[d];
                    }
                    *n += 1;
                }
            }
        }
        let mut by_count: Vec<(u16, u64)> = port_counts.into_iter().collect();
        by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let service_ports: Vec<u16> = by_count.iter().take(TOP_PORTS).map(|&(p, _)| p).collect();
        let service_index = service_ports
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i))
            .collect();

        let fix = |lo: &mut Vec<f32>, hi: &mut Vec<f32>| {
            for d in 0..embed_dim {
                if !lo[d].is_finite() || !hi[d].is_finite() {
                    lo[d] = 0.0;
                    hi[d] = 1.0;
                }
                if hi[d] - lo[d] < 1e-6 {
                    hi[d] = lo[d] + 1e-6;
                }
            }
        };
        fix(&mut port_lo, &mut port_hi);
        fix(&mut proto_lo, &mut proto_hi);
        let fallback_port = any_port
            .iter()
            .map(|s| if n_port > 0 { s / n_port as f32 } else { 0.0 })
            .collect();
        let fallback_proto = any_proto
            .iter()
            .map(|s| if n_proto > 0 { s / n_proto as f32 } else { 0.0 })
            .collect();
        TupleCodec {
            ip2vec,
            ip_bits: BitCodec::ipv4(),
            embed_dim,
            service_ports,
            service_index,
            port_lo,
            port_hi,
            proto_lo,
            proto_hi,
            fallback_port,
            fallback_proto,
            port_proto_pairs,
        }
    }

    /// The codec as JSON: exactly what [`Self::encode_into`] and
    /// [`Self::decode`] read. Floats are written as their bit patterns,
    /// so [`Self::from_json`] rebuilds every one of them exactly.
    pub fn to_json(&self) -> Result<String, String> {
        let stored = StoredCodec {
            format: CODEC_FORMAT,
            embed_dim: self.embed_dim,
            words: self.ip2vec.words().to_vec(),
            embeddings: F32Bits(self.ip2vec.embeddings().to_vec()),
            service_ports: self.service_ports.clone(),
            port_lo: F32Bits(self.port_lo.clone()),
            port_hi: F32Bits(self.port_hi.clone()),
            proto_lo: F32Bits(self.proto_lo.clone()),
            proto_hi: F32Bits(self.proto_hi.clone()),
            fallback_port: F32Bits(self.fallback_port.clone()),
            fallback_proto: F32Bits(self.fallback_proto.clone()),
            port_proto_pairs: self.port_proto_pairs.iter().copied().collect(),
        };
        serde_json::to_string(&stored).map_err(|e| e.to_string())
    }

    /// Rebuilds a codec from [`Self::to_json`]'s text. Refuses another
    /// format version and any vector whose length the decoder would
    /// index past.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let s: StoredCodec = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if s.format != CODEC_FORMAT {
            return Err(format!("codec format {} (this build reads {CODEC_FORMAT})", s.format));
        }
        let ranges =
            [&s.port_lo, &s.port_hi, &s.proto_lo, &s.proto_hi, &s.fallback_port, &s.fallback_proto];
        if ranges.iter().any(|r| r.0.len() != s.embed_dim) {
            return Err(format!("a range vector is not {} wide", s.embed_dim));
        }
        let service_index: BTreeMap<u16, usize> =
            s.service_ports.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        if service_index.len() != s.service_ports.len() {
            return Err("a service port appears twice".into());
        }
        Ok(TupleCodec {
            ip2vec: Ip2Vec::from_parts(s.embed_dim, s.words, s.embeddings.0)?,
            ip_bits: BitCodec::ipv4(),
            embed_dim: s.embed_dim,
            service_ports: s.service_ports,
            service_index,
            port_lo: s.port_lo.0,
            port_hi: s.port_hi.0,
            proto_lo: s.proto_lo.0,
            proto_hi: s.proto_hi.0,
            fallback_port: s.fallback_port.0,
            fallback_proto: s.fallback_proto.0,
            port_proto_pairs: s.port_proto_pairs.into_iter().collect(),
        })
    }

    /// Width of one hybrid port block: categorical (K + other) + embedding.
    fn port_block(&self) -> usize {
        self.service_ports.len() + 1 + self.embed_dim
    }

    /// Width of the hybrid protocol block: categorical (3 + other) + embedding.
    fn proto_block(&self) -> usize {
        PROTO_VOCAB.len() + 1 + self.embed_dim
    }

    /// Encoded width.
    pub fn dim(&self) -> usize {
        64 + 2 * self.port_block() + self.proto_block()
    }

    /// Embedding width.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    /// The feature-spec segments for this codec's output, in order — the
    /// GAN applies softmax to the categorical slots and sigmoid to the
    /// rest (DoppelGANger's native categorical treatment).
    pub fn segments(&self) -> Vec<Segment> {
        let k = self.service_ports.len() + 1;
        vec![
            Segment::Continuous { dim: 64 },
            Segment::Categorical { dim: k },
            Segment::Continuous { dim: self.embed_dim },
            Segment::Categorical { dim: k },
            Segment::Continuous { dim: self.embed_dim },
            Segment::Categorical { dim: PROTO_VOCAB.len() + 1 },
            Segment::Continuous { dim: self.embed_dim },
        ]
    }

    fn norm(v: f32, lo: f32, hi: f32) -> f32 {
        ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
    }

    fn denorm(v: f32, lo: f32, hi: f32) -> f32 {
        lo + v.clamp(0.0, 1.0) * (hi - lo)
    }

    fn encode_port(&self, port: u16, out: &mut Vec<f32>) {
        let k = self.service_ports.len() + 1;
        let start = out.len();
        out.resize(start + k, 0.0);
        match self.service_index.get(&port) {
            Some(&i) => out[start + i] = 1.0,
            None => out[start + k - 1] = 1.0, // "other"
        }
        let emb = self
            .ip2vec
            .embedding(&Word::Port(port))
            .unwrap_or(&self.fallback_port);
        for (d, &e) in emb.iter().enumerate().take(self.embed_dim) {
            out.push(Self::norm(e, self.port_lo[d], self.port_hi[d]));
        }
    }

    fn encode_proto(&self, proto: Protocol, out: &mut Vec<f32>) {
        let k = PROTO_VOCAB.len() + 1;
        let start = out.len();
        out.resize(start + k, 0.0);
        match PROTO_VOCAB.iter().position(|&p| p == proto.number()) {
            Some(i) => out[start + i] = 1.0,
            None => out[start + k - 1] = 1.0,
        }
        let emb = self
            .ip2vec
            .embedding(&Word::Proto(proto.number()))
            .unwrap_or(&self.fallback_proto);
        for (d, &e) in emb.iter().enumerate().take(self.embed_dim) {
            out.push(Self::norm(e, self.proto_lo[d], self.proto_hi[d]));
        }
    }

    /// Appends the encoding of a five-tuple to `out`.
    pub fn encode_into(&self, ft: &FiveTuple, out: &mut Vec<f32>) {
        self.ip_bits.encode_into(ft.src_ip as u64, out);
        self.ip_bits.encode_into(ft.dst_ip as u64, out);
        self.encode_port(ft.src_port, out);
        self.encode_port(ft.dst_port, out);
        self.encode_proto(ft.proto, out);
    }

    /// Encodes into a fresh vector.
    pub fn encode(&self, ft: &FiveTuple) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.dim());
        self.encode_into(ft, &mut out);
        out
    }

    fn argmax(slice: &[f32]) -> usize {
        slice
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Nearest port whose (port, protocol) pair occurs in the public
    /// corpus; falls back to the unrestricted nearest neighbour.
    fn nearest_compatible_port(&self, vec: &[f32], proto_num: u8) -> u16 {
        let restricted = self.ip2vec.nearest(vec, |w| match w {
            Word::Port(p) => self.port_proto_pairs.contains(&(*p, proto_num)),
            _ => false,
        });
        match restricted {
            Some(Word::Port(p)) => p,
            _ => self.ip2vec.nearest_port(vec).unwrap_or(0),
        }
    }

    fn decode_port(&self, block: &[f32], proto_num: u8) -> u16 {
        let k = self.service_ports.len() + 1;
        let cat = Self::argmax(&block[..k]);
        if cat < self.service_ports.len() {
            let port = self.service_ports[cat];
            // Only accept the categorical decode when the (port, proto)
            // pair is publicly attested; otherwise fall through to the
            // protocol-compatible embedding path (Appendix-B Test 3).
            if self.port_proto_pairs.contains(&(port, proto_num)) {
                return port;
            }
        }
        // "Other" (or incompatible category): nearest-neighbour over the
        // embedding slice, restricted to non-catalogue, protocol-compatible
        // ports — catalogue ports have their own slots, so the embedding
        // path represents the ephemeral mass.
        let emb: Vec<f32> = block[k..]
            .iter()
            .enumerate()
            .map(|(d, &x)| Self::denorm(x, self.port_lo[d], self.port_hi[d]))
            .collect();
        let restricted = self.ip2vec.nearest(&emb, |w| match w {
            Word::Port(p) => {
                !self.service_index.contains_key(p)
                    && self.port_proto_pairs.contains(&(*p, proto_num))
            }
            _ => false,
        });
        match restricted {
            Some(Word::Port(p)) => p,
            _ => self.nearest_compatible_port(&emb, proto_num),
        }
    }

    fn decode_proto(&self, block: &[f32]) -> Protocol {
        let k = PROTO_VOCAB.len() + 1;
        let cat = Self::argmax(&block[..k]);
        if cat < PROTO_VOCAB.len() {
            return Protocol::from_number(PROTO_VOCAB[cat]);
        }
        let emb: Vec<f32> = block[k..]
            .iter()
            .enumerate()
            .map(|(d, &x)| Self::denorm(x, self.proto_lo[d], self.proto_hi[d]))
            .collect();
        Protocol::from_number(self.ip2vec.nearest_proto(&emb).unwrap_or(6))
    }

    /// Decodes a generated metadata slice back to a five-tuple.
    ///
    /// # Panics
    /// Panics if `v.len() != self.dim()`.
    pub fn decode(&self, v: &[f32]) -> FiveTuple {
        assert_eq!(v.len(), self.dim(), "metadata width mismatch");
        let pb = self.port_block();
        let src_ip = self.ip_bits.decode(&v[0..32]) as u32;
        let dst_ip = self.ip_bits.decode(&v[32..64]) as u32;
        let proto = self.decode_proto(&v[64 + 2 * pb..]);
        let (src_port, dst_port) = if proto.has_ports() {
            (
                self.decode_port(&v[64..64 + pb], proto.number()),
                self.decode_port(&v[64 + pb..64 + 2 * pb], proto.number()),
            )
        } else {
            (0, 0)
        };
        FiveTuple::new(src_ip, dst_ip, src_port, dst_port, proto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_synth::public::ip2vec_public_corpus;

    fn codec() -> TupleCodec {
        TupleCodec::fit_public(&ip2vec_public_corpus(2_000, 3), 8, 11)
    }

    #[test]
    fn encode_decode_round_trips_common_tuples() {
        let c = codec();
        for &(sp, dp, proto) in &[
            (40_000u16, 80u16, Protocol::Tcp),
            (51_515, 53, Protocol::Udp),
            (0, 0, Protocol::Icmp),
        ] {
            let ft = FiveTuple::new(0x0a010203, 0xc0a80011, sp, dp, proto);
            let enc = c.encode(&ft);
            assert_eq!(enc.len(), c.dim());
            assert!(enc.iter().all(|&x| (0.0..=1.0).contains(&x)), "encoded in [0,1]");
            let back = c.decode(&enc);
            assert_eq!(back.src_ip, ft.src_ip);
            assert_eq!(back.dst_ip, ft.dst_ip);
            assert_eq!(back.proto, ft.proto, "protocol survives");
            assert_eq!(back.dst_port, ft.dst_port, "well-known port survives");
        }
    }

    #[test]
    fn segments_cover_the_full_dim() {
        let c = codec();
        let total: usize = c.segments().iter().map(|s| s.dim()).sum();
        assert_eq!(total, c.dim());
    }

    #[test]
    fn service_ports_use_categorical_slots() {
        let c = codec();
        // Port 80 must be in the public top-K (it dominates the corpus).
        assert!(c.service_index.contains_key(&80), "80 in catalogue");
        let ft = FiveTuple::new(1, 2, 40_000, 80, Protocol::Tcp);
        let enc = c.encode(&ft);
        let k = c.service_ports.len() + 1;
        let dst_cat = &enc[64 + c.port_block()..64 + c.port_block() + k];
        assert_eq!(dst_cat.iter().filter(|&&x| x == 1.0).count(), 1);
        assert!(dst_cat[c.service_index[&80]] == 1.0);
    }

    #[test]
    fn icmp_decodes_with_zero_ports() {
        let c = codec();
        let ft = FiveTuple::new(1, 2, 0, 0, Protocol::Icmp);
        let back = c.decode(&c.encode(&ft));
        assert_eq!(back.src_port, 0);
        assert_eq!(back.dst_port, 0);
    }

    #[test]
    fn unknown_port_falls_back_gracefully() {
        let c = codec();
        let ft = FiveTuple::new(1, 2, 65_535, 80, Protocol::Tcp);
        let back = c.decode(&c.encode(&ft));
        assert_eq!(back.dst_port, 80);
    }

    #[test]
    fn decoded_ports_are_protocol_compatible() {
        // Even for arbitrary metadata vectors, the decoded (port, proto)
        // pair must be valid (Appendix-B Test 3).
        let c = codec();
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let mut v: Vec<f32> = (0..c.dim()).map(|_| rng.gen()).collect();
            // Harden the categorical slots like generation does.
            let spec = doppelganger::FeatureSpec::new(c.segments());
            spec.harden_row(&mut v);
            let ft = c.decode(&v);
            assert!(
                nettrace::validity::test3_port_protocol(ft.src_port, ft.dst_port, ft.proto),
                "incompatible decode: {ft}"
            );
        }
    }

    #[test]
    fn ephemeral_ports_decode_via_embedding() {
        let c = codec();
        // A high ephemeral port not in the catalogue should round-trip to
        // *some* non-catalogue port via the embedding path (exact identity
        // is not required for ephemeral ports).
        let ft = FiveTuple::new(1, 2, 1024, 49_000, Protocol::Tcp);
        let enc = c.encode(&ft);
        let back = c.decode(&enc);
        // Ephemeral identity is not preserved, but the decode must land
        // outside the service catalogue (the "other" mass stays ephemeral).
        assert!(
            !c.service_index.contains_key(&back.dst_port),
            "ephemeral decoded into the catalogue: {}",
            back.dst_port
        );
    }

    #[test]
    fn stored_codec_encodes_and_decodes_like_the_fitted_one() {
        use trace_synth::{generate_flows, generate_packets, DatasetKind};
        let fitted = codec();
        let text = fitted.to_json().unwrap();
        let loaded = TupleCodec::from_json(&text).unwrap();
        assert_eq!(loaded.to_json().unwrap(), text, "one stored form, stable under a round trip");
        assert!(loaded.ip2vec.words().iter().all(|w| !matches!(w, Word::Ip(_))), "no IP rows kept");

        let flows = generate_flows(DatasetKind::Ugr16, 600, 9);
        let packets = generate_packets(DatasetKind::Caida, 600, 9);
        let mut tuples: Vec<FiveTuple> = flows
            .flows
            .iter()
            .map(|f| f.five_tuple)
            .chain(packets.packets.iter().map(|p| p.five_tuple))
            .collect();
        tuples.push(FiveTuple::new(1, 2, 0, 0, Protocol::Icmp));
        tuples.push(FiveTuple::new(1, 2, 65_535, 65_534, Protocol::Udp)); // out of dictionary
        tuples.push(FiveTuple::new(1, 2, 7, 9, Protocol::from_number(47))); // outside PROTO_VOCAB
        for proto in [Protocol::Tcp, Protocol::Udp, Protocol::Icmp] {
            assert!(tuples.iter().any(|t| t.proto == proto), "{proto:?} covered");
        }
        for ft in &tuples {
            let enc = fitted.encode(ft);
            assert_eq!(loaded.decode(&enc), fitted.decode(&enc), "{ft}");
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            assert_eq!(bits(&loaded.encode(ft)), bits(&enc), "{ft}");
        }
        // Generated metadata is not an encoding of anything: the
        // nearest-neighbour paths must agree on arbitrary vectors too.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..200 {
            let v: Vec<f32> = (0..fitted.dim()).map(|_| rng.gen()).collect();
            assert_eq!(loaded.decode(&v), fitted.decode(&v));
        }
    }

    #[test]
    fn from_json_refuses_what_decode_could_not_survive() {
        let text = codec().to_json().unwrap();
        assert!(TupleCodec::from_json(&text[..text.len() / 2]).is_err(), "truncated");
        let refusal = |text: &str| TupleCodec::from_json(text).err().expect("refused");
        for other in ["1", "3"] {
            let other_format = text.replacen("\"format\":2", &format!("\"format\":{other}"), 1);
            assert!(refusal(&other_format).contains(&format!("format {other}")));
        }
        let short_range = text.replacen("\"port_lo\":\"", "\"port_lo\":\"00000000", 1);
        assert!(refusal(&short_range).contains("wide"));
        let lost_row = text.replacen("\"embeddings\":\"", "\"embeddings\":\"00000000", 1);
        assert!(refusal(&lost_row).contains("embedding values"));
        let odd = text.replacen("\"port_hi\":\"", "\"port_hi\":\"0", 1);
        assert!(refusal(&odd).contains("hex digits"));
        let upper = text.replacen("\"proto_lo\":\"", "\"proto_lo\":\"3F800000", 1);
        assert!(refusal(&upper).contains("lowercase"));
        let not_hex = text.replacen("\"fallback_port\":\"", "\"fallback_port\":\"3f80000x", 1);
        assert!(refusal(&not_hex).contains("lowercase"));
        let integers = text.replacen("\"proto_hi\":\"", "\"proto_hi\":[1],\"x\":\"", 1);
        assert!(refusal(&integers).contains("hex string"), "format 1's integer arrays");
    }

    /// A codec small enough to truncate at every byte: a few dozen public
    /// packets, two embedding dimensions.
    fn small_text() -> String {
        TupleCodec::fit_public(&ip2vec_public_corpus(40, 5), 2, 3).to_json().unwrap()
    }

    #[test]
    fn every_truncation_of_a_stored_codec_is_an_error() {
        let text = small_text();
        assert!(text.len() < 4_000, "{} bytes", text.len());
        for end in 0..text.len() {
            assert!(TupleCodec::from_json(&text[..end]).is_err(), "truncated at byte {end}");
        }
        assert!(TupleCodec::from_json(&text).is_ok());
    }

    proptest::proptest! {
        #[test]
        fn junk_in_a_stored_codec_never_panics(
            junk in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..32),
            at in 0usize..4_000,
        ) {
            let mut bytes = small_text().into_bytes();
            let at = at.min(bytes.len());
            bytes.splice(at..at, junk);
            let _ = TupleCodec::from_json(&String::from_utf8_lossy(&bytes));
        }
    }
}
