//! Pins the serving-path contract: a [`SampleCursor`] consumed
//! batch-by-batch yields *bitwise* the same sample stream as one offline
//! [`DoppelGanger::sample_fast`] call on an identically-seeded model —
//! including the model's RNG state afterwards. `netshared` streams DATA
//! frames straight off a cursor, so this is what makes served output
//! byte-identical to a local batch run.

use doppelganger::{DgConfig, DoppelGanger, FeatureSpec, Segment};

fn toy_cfg() -> DgConfig {
    let mut cfg = DgConfig::small(
        FeatureSpec::new(vec![
            Segment::Continuous { dim: 3 },
            Segment::Categorical { dim: 4 },
        ]),
        FeatureSpec::continuous(2),
        5,
    );
    cfg.meta_hidden = vec![8];
    cfg.rnn_hidden = 6;
    cfg.head_hidden = vec![6];
    cfg.disc_hidden = vec![8];
    cfg.aux_hidden = vec![6];
    cfg.batch_size = 4; // small so a 23-sample pull spans many batches
    cfg
}

#[test]
fn cursor_concatenation_is_bitwise_identical_to_sample_fast() {
    let mut offline = DoppelGanger::new(toy_cfg());
    let mut streamed = DoppelGanger::new(toy_cfg());
    let want = offline.sample_fast(23);

    let mut got = Vec::new();
    let mut cursor = streamed.sample_cursor(23).unwrap();
    let mut batches = 0usize;
    while let Some(batch) = cursor.next_batch() {
        assert!(batch.len() <= 4, "batch larger than cfg.batch_size");
        got.extend(batch);
        batches += 1;
    }
    assert_eq!(cursor.remaining(), 0);
    assert_eq!(cursor.produced(), 23);
    drop(cursor);

    assert_eq!(batches, 6, "23 samples over batch_size 4 is 6 batches");
    assert_eq!(got, want, "streamed and offline sample streams diverge");
    assert_eq!(
        offline.rng_state(),
        streamed.rng_state(),
        "both paths must consume RNG identically"
    );
}

#[test]
fn truncated_cursor_matches_offline_prefix() {
    let mut offline = DoppelGanger::new(toy_cfg());
    let mut streamed = DoppelGanger::new(toy_cfg());
    let want = offline.sample_fast(8); // two full batches

    let mut got = Vec::new();
    let mut cursor = streamed.sample_cursor(23).unwrap();
    for _ in 0..2 {
        got.extend(cursor.next_batch().unwrap());
    }
    assert_eq!(cursor.remaining(), 15);
    drop(cursor); // disconnect mid-stream

    assert_eq!(got, want, "a truncated stream is a prefix of the offline run");
}

#[test]
fn exhausted_cursor_stays_none() {
    let mut model = DoppelGanger::new(toy_cfg());
    let mut cursor = model.sample_cursor(3).unwrap();
    assert_eq!(cursor.next_batch().unwrap().len(), 3);
    assert!(cursor.next_batch().is_none());
    assert!(cursor.next_batch().is_none());
}

#[test]
fn zero_total_cursor_is_immediately_done() {
    let mut model = DoppelGanger::new(toy_cfg());
    let before = model.rng_state();
    let mut cursor = model.sample_cursor(0).unwrap();
    assert!(cursor.next_batch().is_none());
    drop(cursor);
    assert_eq!(model.rng_state(), before, "no samples, no RNG consumption");
}

#[test]
fn seek_to_a_mark_is_the_uninterrupted_suffix() {
    let mut offline = DoppelGanger::new(toy_cfg());
    let want = offline.sample_fast(23);
    let mut longer = DoppelGanger::new(toy_cfg());
    let want_longer = longer.sample_fast(31);

    // One walk of the 23-sample stream, marking before every batch.
    let mut marked = DoppelGanger::new(toy_cfg());
    let mut cursor = marked.sample_cursor(23).unwrap();
    let mut marks = vec![cursor.mark()];
    while cursor.next_batch().is_some() {
        marks.push(cursor.mark());
    }
    let after_short_batch = marks.pop().unwrap();
    assert_eq!(after_short_batch.produced(), 23);
    drop(cursor);
    assert_eq!(marks.iter().map(|m| m.produced()).collect::<Vec<_>>(), [0, 4, 8, 12, 16, 20]);

    for &mark in &marks {
        // A fresh model, and a total the mark was not taken under: only
        // the tail batch depends on the total.
        for (total, want, end) in [(23, &want, &offline), (31, &want_longer, &longer)] {
            let mut fresh = DoppelGanger::new(toy_cfg());
            let mut cursor = fresh.sample_cursor(total).unwrap();
            cursor.seek(mark).unwrap();
            assert_eq!(cursor.produced(), mark.produced());
            assert_eq!(cursor.remaining(), total - mark.produced());
            let mut got = Vec::new();
            while let Some(batch) = cursor.next_batch() {
                got.extend(batch);
            }
            assert_eq!(cursor.produced(), total, "produced() counts the skipped prefix");
            drop(cursor);
            assert_eq!(got, want[mark.produced()..], "suffix from sample {}", mark.produced());
            assert_eq!(fresh.rng_state(), end.rng_state());
        }
    }

    // Seeking backwards replays: a mark is a position, not a direction.
    let mut model = DoppelGanger::new(toy_cfg());
    let mut cursor = model.sample_cursor(23).unwrap();
    let first = cursor.next_batch().unwrap();
    cursor.next_batch().unwrap();
    cursor.seek(marks[0]).unwrap();
    assert_eq!(cursor.next_batch().unwrap(), first);

    // Refused, and the cursor left where it was: a mark past the total,
    // and one no full-batch walk passes through.
    let before = cursor.mark();
    assert!(cursor.seek(after_short_batch).unwrap_err().contains("boundary"));
    assert_eq!(cursor.mark(), before);
    drop(cursor);
    let mut short = model.sample_cursor(8).unwrap();
    let before = short.mark();
    assert!(short.seek(marks[3]).unwrap_err().contains("past"));
    assert_eq!(short.mark(), before);
    assert_eq!((short.produced(), short.remaining()), (0, 8));
}
