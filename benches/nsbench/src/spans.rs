//! The benchmark's own span recorder. Spans sit in the benchmark's
//! files, around the calls into each layer; nothing here reaches into
//! product code. Spans are kept in memory and written out once, when
//! the run ends, so recording costs two clock reads and a `Vec` push.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in its recorder.
    pub id: usize,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    /// Layer boundary the span brackets, e.g. `client.decode`.
    pub name: &'static str,
    /// Request the span belongs to: the pull, fit or run index.
    pub req: u64,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin; 0 while still open.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// A single-threaded span recorder; a disabled one records nothing, so
/// the same client code runs with tracing on and off.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    req: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans, timed from `origin`.
    pub fn enabled(origin: Instant) -> Self {
        Recorder {
            enabled: true,
            origin,
            req: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder whose calls do nothing.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::enabled(Instant::now())
        }
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_req(&mut self, req: u64) {
        self.req = req;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            req: self.req,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Records a closed span from two instants the caller already took.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            req: self.req,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        });
    }

    /// How many spans are open; pair with [`Recorder::unwind`].
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes spans until only `depth` are open: what an early return
    /// out of nested spans leaves to do.
    pub fn unwind(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit();
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, by id: its duration minus the part of that
/// interval its direct children cover (children are clipped to the
/// parent and overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64 / 1e9
        })
        .collect()
}

/// Summed self time, in seconds, of the spans named `name`.
pub fn self_time_of(spans: &[Span], name: &str) -> f64 {
    let own = self_times(spans);
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| own[s.id])
        .sum()
}

/// Durations, in seconds, of the spans named `name`, in recording order.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Writes one JSON object per span to `path`.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let own = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            parent,
            s.name,
            s.req,
            s.start_ns,
            s.end_ns,
            (own[s.id] * 1e9).round() as u64
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 0,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(0, None, "pull", 0, 1_000),
            span(1, Some(0), "wait", 100, 400),
            span(2, Some(0), "decode", 400, 700),
            span(3, Some(2), "inner", 450, 500),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![400e-9, 300e-9, 250e-9, 50e-9]);
        assert_eq!(self_time_of(&spans, "decode"), 250e-9);
        // Self times of a tree add up to the root's duration.
        assert!((own.iter().sum::<f64>() - 1_000e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = vec![
            span(0, None, "root", 100, 200),
            span(1, Some(0), "a", 110, 150),
            span(2, Some(0), "b", 140, 180), // overlaps a by 10
            span(3, Some(0), "c", 190, 260), // overhangs the parent by 60
        ];
        // cover = [110,180] + [190,200] = 80 of 100
        assert_eq!(self_times(&spans)[0], 20e-9);
    }

    #[test]
    fn recorder_nests_unwinds_and_can_be_switched_off() {
        let mut r = Recorder::enabled(Instant::now());
        r.set_req(7);
        r.enter("outer");
        r.enter("inner");
        r.exit();
        r.exit();
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[1].req, 7);
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);

        // An early return leaves spans open; unwinding closes them.
        r.enter("a");
        let depth = r.depth();
        r.enter("b");
        r.enter("c");
        r.unwind(depth);
        assert_eq!(r.depth(), depth);
        assert!(r.spans()[3].end_ns > 0 && r.spans()[4].end_ns > 0);
        assert_eq!(r.spans()[2].end_ns, 0, "`a` is still open");

        let mut off = Recorder::disabled();
        off.enter("outer");
        off.record("x", Instant::now(), Instant::now());
        off.exit();
        assert!(off.spans().is_empty());
    }
}
