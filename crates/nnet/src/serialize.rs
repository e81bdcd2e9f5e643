//! Parameter checkpointing.
//!
//! NetShare's scalability insight (I3) trains a seed chunk, then fine-tunes
//! the remaining chunks *in parallel* from that seed model; its privacy
//! insight (I4) fine-tunes a public pre-trained model with DP-SGD. Both
//! need cheap save/restore of model parameters, provided here as a JSON
//! snapshot that stores every `f32` as its exact bit pattern.
//!
//! The stored form is `{"format":2,"tensors":[{"rows","cols","bits"}]}`,
//! where `bits` is an [`F32Bits`] string: eight lowercase hex digits of
//! `f32::to_bits` per value. It is exact for every value — ±0, ±Inf and
//! NaN payloads included — and loading it parses one string per tensor
//! rather than one decimal float per weight. A reader refuses any other
//! format number; the float-text form of earlier builds (no `format`
//! field) counts as format 1.

use crate::tensor::Tensor;
use crate::Parameterized;
use serde::{Deserialize, Serialize, Value};

/// Version of [`Checkpoint`]'s stored form; a reader refuses any other.
const CHECKPOINT_FORMAT: u64 = 2;

/// A parameter snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Parameter tensors in `Parameterized::parameters` order.
    pub tensors: Vec<Tensor>,
}

/// A `Vec<f32>` stored as one lowercase hex string, eight digits of
/// `f32::to_bits` per value, most significant digit first. A reader
/// refuses a length that is not a whole number of values, uppercase and
/// any other non-hex byte.
#[derive(Debug, Clone)]
pub struct F32Bits(pub Vec<f32>);

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Lowercase hex digit → its value; every other byte → `0xff`.
const NIBBLE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        i += 1;
    }
    table
};

impl F32Bits {
    /// The stored text of `values`.
    pub fn encode(values: &[f32]) -> String {
        let mut out = Vec::with_capacity(values.len() * 8);
        for v in values {
            let bits = v.to_bits();
            out.extend((0..8).rev().map(|d| HEX_DIGITS[(bits >> (4 * d)) as usize & 0xf]));
        }
        // Every byte pushed is an ASCII hex digit.
        String::from_utf8(out).unwrap_or_default()
    }

    /// The values [`F32Bits::encode`] wrote. The result is sized by the
    /// text's length, never by anything the text declares.
    pub fn decode(hex: &str) -> Result<Vec<f32>, String> {
        let bytes = hex.as_bytes();
        if !bytes.len().is_multiple_of(8) {
            return Err(format!(
                "{} hex digits are not a whole number of 8-digit values",
                bytes.len()
            ));
        }
        let mut out = Vec::with_capacity(bytes.len() / 8);
        for (i, digits) in bytes.chunks_exact(8).enumerate() {
            let (mut bits, mut seen) = (0u32, 0u8);
            for &b in digits {
                let n = NIBBLE[b as usize];
                seen |= n;
                bits = bits << 4 | u32::from(n & 0xf);
            }
            if seen > 0xf {
                let at = digits.iter().position(|&b| NIBBLE[b as usize] > 0xf).unwrap_or(0);
                return Err(format!(
                    "byte {} is {:?}, not a lowercase hex digit",
                    8 * i + at,
                    char::from(digits[at])
                ));
            }
            out.push(f32::from_bits(bits));
        }
        Ok(out)
    }
}

impl Serialize for F32Bits {
    fn to_value(&self) -> Value {
        Value::Str(F32Bits::encode(&self.0))
    }
}

impl Deserialize for F32Bits {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::Str(hex) => F32Bits::decode(hex).map(F32Bits).map_err(serde::Error::msg),
            _ => Err(serde::Error::msg("expected a hex string of f32 bit patterns")),
        }
    }
}

/// One stored tensor, as [`Checkpoint`]'s reader takes it apart.
#[derive(Deserialize)]
struct StoredTensor {
    rows: usize,
    cols: usize,
    bits: F32Bits,
}

#[derive(Deserialize)]
struct StoredCheckpoint {
    tensors: Vec<StoredTensor>,
}

impl Serialize for Checkpoint {
    fn to_value(&self) -> Value {
        let tensors = self
            .tensors
            .iter()
            .map(|t| {
                Value::Map(vec![
                    ("rows".into(), t.rows().to_value()),
                    ("cols".into(), t.cols().to_value()),
                    ("bits".into(), Value::Str(F32Bits::encode(t.data()))),
                ])
            })
            .collect();
        Value::Map(vec![
            ("format".into(), CHECKPOINT_FORMAT.to_value()),
            ("tensors".into(), Value::Seq(tensors)),
        ])
    }
}

impl Deserialize for Checkpoint {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let map = v.as_map().ok_or_else(|| serde::Error::msg("expected a checkpoint map"))?;
        let format = match map.iter().find(|(k, _)| k == "format") {
            Some((_, f)) => u64::from_value(f)
                .map_err(|_| serde::Error::msg("checkpoint format is not a number"))?,
            None => 1,
        };
        if format != CHECKPOINT_FORMAT {
            return Err(serde::Error::msg(format!(
                "checkpoint format {format}; this build reads format {CHECKPOINT_FORMAT}"
            )));
        }
        let stored = StoredCheckpoint::from_value(v)?;
        let mut tensors = Vec::with_capacity(stored.tensors.len());
        for (i, t) in stored.tensors.into_iter().enumerate() {
            if t.rows.checked_mul(t.cols) != Some(t.bits.0.len()) {
                return Err(serde::Error::msg(format!(
                    "tensor {i} is {} x {} but holds {} values",
                    t.rows,
                    t.cols,
                    t.bits.0.len()
                )));
            }
            tensors.push(Tensor::from_vec(t.rows, t.cols, t.bits.0));
        }
        Ok(Checkpoint { tensors })
    }
}

/// Captures a model's parameters.
pub fn snapshot(model: &dyn Parameterized) -> Checkpoint {
    Checkpoint {
        tensors: model.parameters().into_iter().cloned().collect(),
    }
}

/// Restores a snapshot into a model of identical architecture.
///
/// # Panics
/// Panics on a parameter count or shape mismatch.
pub fn restore(model: &mut dyn Parameterized, ckpt: &Checkpoint) {
    let mut params = model.parameters_mut();
    assert_eq!(params.len(), ckpt.tensors.len(), "checkpoint parameter count mismatch");
    for (p, t) in params.iter_mut().zip(&ckpt.tensors) {
        assert_eq!(p.shape(), t.shape(), "checkpoint shape mismatch");
        p.data_mut().copy_from_slice(t.data());
    }
}

/// Serializes a checkpoint to JSON.
pub fn to_json(ckpt: &Checkpoint) -> String {
    // The shim's writer has no failure path.
    serde_json::to_string(ckpt).unwrap_or_default()
}

/// Parses a checkpoint from JSON.
pub fn from_json(s: &str) -> Result<Checkpoint, serde_json::Error> {
    serde_json::from_str(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Sequential};
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let src = Sequential::mlp(3, &[5], 2, Activation::Tanh, &mut rng);
        let ckpt = snapshot(&src);
        let json = to_json(&ckpt);
        let parsed = from_json(&json).unwrap();
        let mut dst = Sequential::mlp(3, &[5], 2, Activation::Tanh, &mut rng);
        restore(&mut dst, &parsed);
        for (a, b) in src.parameters().iter().zip(dst.parameters()) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn restore_rejects_wrong_architecture() {
        let mut rng = StdRng::seed_from_u64(2);
        let src = Sequential::mlp(3, &[5], 2, Activation::Tanh, &mut rng);
        let mut dst = Sequential::mlp(3, &[6], 2, Activation::Tanh, &mut rng);
        restore(&mut dst, &snapshot(&src));
    }

    #[test]
    fn stored_form_is_format_2_hex() {
        let ckpt = Checkpoint {
            tensors: vec![Tensor::from_vec(1, 2, vec![1.0, -0.0]), Tensor::zeros(0, 3)],
        };
        assert_eq!(
            to_json(&ckpt),
            r#"{"format":2,"tensors":[{"rows":1,"cols":2,"bits":"3f80000080000000"},{"rows":0,"cols":3,"bits":""}]}"#
        );
    }

    #[test]
    fn f32_bits_refuses_what_it_did_not_write() {
        for bad in ["3f80000", "3F800000", "3f80000g", "3f8 0000", "3f80000\u{e9}"] {
            assert!(F32Bits::decode(bad).is_err(), "{bad:?}");
        }
        assert!(F32Bits::decode("").unwrap().is_empty());
        assert!(from_json(r#"{"format":2,"tensors":[{"rows":1,"cols":1,"bits":7}]}"#).is_err());
    }

    #[test]
    fn a_float_text_checkpoint_is_refused_by_its_format() {
        #[derive(Serialize)]
        struct FloatText {
            tensors: Vec<Tensor>,
        }
        let old = serde_json::to_string(&FloatText { tensors: vec![Tensor::zeros(1, 1)] }).unwrap();
        let err = from_json(&old).unwrap_err().to_string();
        assert!(err.contains("format 1") && err.contains("reads format 2"), "{err}");
        let other = r#"{"format":3,"tensors":[]}"#;
        assert!(from_json(other).unwrap_err().to_string().contains("format 3"));
    }

    #[test]
    fn a_declared_shape_must_match_the_data() {
        let case = |rows: &str, cols: &str, hex: &str| {
            format!(r#"{{"format":2,"tensors":[{{"rows":{rows},"cols":{cols},"bits":"{hex}"}}]}}"#)
        };
        assert!(from_json(&case("1", "2", "3f80000080000000")).is_ok());
        assert!(from_json(&case("2", "2", "3f80000080000000")).is_err(), "too few values");
        assert!(from_json(&case("1", "1", "3f80000080000000")).is_err(), "too many values");
        let huge = usize::MAX.to_string();
        assert!(from_json(&case(&huge, "2", "")).is_err(), "rows x cols overflows");
        assert!(from_json(&case(&huge, &huge, "3f800000")).is_err());
        assert!(from_json(&case("-1", "1", "3f800000")).is_err());
    }

    fn small_text() -> String {
        let mut rng = StdRng::seed_from_u64(9);
        to_json(&snapshot(&Sequential::mlp(2, &[3], 1, Activation::Relu, &mut rng)))
    }

    #[test]
    fn every_truncation_is_an_error() {
        let text = small_text();
        for end in 0..text.len() {
            assert!(from_json(&text[..end]).is_err(), "truncated at byte {end}");
        }
        assert!(from_json(&text).is_ok());
    }

    proptest! {
        #[test]
        fn junk_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..64), at in 0usize..400) {
            let text = small_text();
            let mut bytes = text.into_bytes();
            let at = at.min(bytes.len());
            bytes.splice(at..at, junk);
            let _ = from_json(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn any_bits_round_trip(raw in proptest::collection::vec(any::<u32>(), 0..40)) {
            let values: Vec<f32> = raw.iter().map(|&b| f32::from_bits(b)).collect();
            let ckpt = Checkpoint { tensors: vec![Tensor::from_vec(1, values.len(), values)] };
            let back = from_json(&to_json(&ckpt)).unwrap();
            prop_assert_eq!(bits(back.tensors[0].data()), raw);
        }
    }
}
