//! Jensen-Shannon divergence for categorical distributions.

use std::collections::HashMap;
use std::hash::Hash;

/// JSD between two discrete distributions given as count maps. Returns a
/// value in `[0, ln 2]`; 0 iff the normalized distributions are equal.
///
/// Categories absent from one map are treated as probability zero there —
/// exactly the situation when a generator invents or misses values.
pub fn jsd_from_counts<K: Eq + Hash>(p: &HashMap<K, u64>, q: &HashMap<K, u64>) -> f64 {
    let p_total: u64 = p.values().sum();
    let q_total: u64 = q.values().sum();
    if p_total == 0 || q_total == 0 {
        // One side is empty: maximal divergence unless both are empty.
        return if p_total == q_total { 0.0 } else { (2.0f64).ln() };
    }
    let mut keys: Vec<&K> = p.keys().collect();
    for k in q.keys() {
        if !p.contains_key(k) {
            keys.push(k);
        }
    }
    // Terms are summed in sorted order, not the maps' iteration order,
    // so the result does not depend on the hasher's per-process seed.
    let mut terms: Vec<f64> = Vec::with_capacity(2 * keys.len());
    for k in keys {
        let pi = *p.get(k).unwrap_or(&0) as f64 / p_total as f64;
        let qi = *q.get(k).unwrap_or(&0) as f64 / q_total as f64;
        let mi = 0.5 * (pi + qi);
        if pi > 0.0 {
            terms.push(0.5 * pi * (pi / mi).ln());
        }
        if qi > 0.0 {
            terms.push(0.5 * qi * (qi / mi).ln());
        }
    }
    terms.sort_by(f64::total_cmp);
    terms.iter().sum::<f64>().max(0.0)
}

/// JSD between two sample streams of a categorical variable.
pub fn jsd_from_samples<K: Eq + Hash + Clone>(p: &[K], q: &[K]) -> f64 {
    let mut pc: HashMap<K, u64> = HashMap::new();
    for x in p {
        *pc.entry(x.clone()).or_insert(0) += 1;
    }
    let mut qc: HashMap<K, u64> = HashMap::new();
    for x in q {
        *qc.entry(x.clone()).or_insert(0) += 1;
    }
    jsd_from_counts(&pc, &qc)
}

/// JSD between two *rank-frequency* profiles: the inputs are count maps
/// whose keys are discarded; only the sorted frequency profile matters.
/// This is the paper's SA/DA metric ("relative frequency of addresses
/// ranking from most- to least-frequent") — it compares popularity
/// *structure* without requiring the same addresses on both sides.
pub fn jsd_rank_frequency<K: Eq + Hash>(p: &HashMap<K, u64>, q: &HashMap<K, u64>) -> f64 {
    let profile = |m: &HashMap<K, u64>| -> Vec<u64> {
        let mut v: Vec<u64> = m.values().cloned().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    };
    let pv = profile(p);
    let qv = profile(q);
    let n = pv.len().max(qv.len());
    let mut pc = HashMap::with_capacity(n);
    let mut qc = HashMap::with_capacity(n);
    for i in 0..n {
        pc.insert(i, pv.get(i).cloned().unwrap_or(0));
        qc.insert(i, qv.get(i).cloned().unwrap_or(0));
    }
    jsd_from_counts(&pc, &qc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&'static str, u64)]) -> HashMap<&'static str, u64> {
        pairs.iter().cloned().collect()
    }

    #[test]
    fn identical_distributions_have_zero_jsd() {
        let p = counts(&[("a", 10), ("b", 5)]);
        let q = counts(&[("a", 20), ("b", 10)]); // same normalized dist
        assert!(jsd_from_counts(&p, &q) < 1e-12);
    }

    #[test]
    fn disjoint_supports_give_ln2() {
        let p = counts(&[("a", 10)]);
        let q = counts(&[("b", 10)]);
        assert!((jsd_from_counts(&p, &q) - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn jsd_is_symmetric() {
        let p = counts(&[("a", 7), ("b", 3), ("c", 1)]);
        let q = counts(&[("a", 2), ("b", 8)]);
        assert!((jsd_from_counts(&p, &q) - jsd_from_counts(&q, &p)).abs() < 1e-12);
    }

    #[test]
    fn jsd_bounded_by_ln2() {
        let p = counts(&[("a", 1), ("b", 100), ("c", 3)]);
        let q = counts(&[("x", 50), ("b", 1)]);
        let d = jsd_from_counts(&p, &q);
        assert!(d > 0.0 && d <= (2.0f64).ln() + 1e-12);
    }

    #[test]
    fn samples_api_matches_counts_api() {
        let p = vec!["a", "a", "b"];
        let q = vec!["a", "b", "b"];
        let via_samples = jsd_from_samples(&p, &q);
        let via_counts = jsd_from_counts(&counts(&[("a", 2), ("b", 1)]), &counts(&[("a", 1), ("b", 2)]));
        assert!((via_samples - via_counts).abs() < 1e-12);
    }

    #[test]
    fn rank_frequency_ignores_identity() {
        // Same popularity structure under different labels → zero JSD.
        let p = counts(&[("a", 10), ("b", 5), ("c", 1)]);
        let q = counts(&[("x", 10), ("y", 5), ("z", 1)]);
        assert!(jsd_rank_frequency(&p, &q) < 1e-12);
        // Different structure → positive.
        let r = counts(&[("x", 6), ("y", 6), ("z", 4)]);
        assert!(jsd_rank_frequency(&p, &r) > 0.01);
    }

    #[test]
    fn empty_vs_nonempty_is_maximal() {
        let p: HashMap<&str, u64> = HashMap::new();
        let q = counts(&[("a", 3)]);
        assert!((jsd_from_counts(&p, &q) - (2.0f64).ln()).abs() < 1e-12);
        let r: HashMap<&str, u64> = HashMap::new();
        assert_eq!(jsd_from_counts(&p, &r), 0.0);
    }
}
