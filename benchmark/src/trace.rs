//! Spans of the traced run. The benchmark records them from outside, around
//! each call into a layer's public function; they stay in memory and are
//! written as JSON lines when the run ends.
//!
//! Layers nest like an onion: the same operations are replayed against each
//! surface from the outside in, and the span of operation `op` on an inner
//! surface names as its parent the span of `op` on the surface around it. A
//! layer's self time is its spans' time minus its children's.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a span of the outermost surface.
    pub parent: u32,
    pub op: u32,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Self and total time of one layer, over all its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: i64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span and return its id (ids start at 1).
    pub fn record(
        &mut self,
        layer: &'static str,
        op: u32,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            layer,
            start_ns,
            end_ns,
        });
        id
    }

    /// Time `f` as one span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        op: u32,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.record(layer, op, parent, start, end))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-layer totals and self times. A child's time is taken from its
    /// parent's layer whichever replay recorded it, so self times of nested
    /// layers add up to the outermost layer's total.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let own = out.entry(s.layer).or_default();
            own.spans += 1;
            own.total_ns += dur;
            own.self_ns += dur as i64;
            if s.parent != 0 {
                let parent_layer = self.spans[s.parent as usize - 1].layer;
                out.entry(parent_layer).or_default().self_ns -= dur as i64;
            }
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.layer, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_total_minus_children_across_replays() {
        let mut t = Tracer::new();
        // Outer replay: two ops of 100 ns and 80 ns.
        let a = t.record("outer", 0, 0, 0, 100);
        let b = t.record("outer", 1, 0, 100, 180);
        // Inner replay, later in wall time, same ops: 60 ns and 50 ns.
        let c = t.record("inner", 0, a, 1000, 1060);
        t.record("inner", 1, b, 1060, 1110);
        // Innermost under op 0 only: 20 ns.
        t.record("core", 0, c, 2000, 2020);
        let lt = t.layer_times();
        assert_eq!(
            lt["outer"],
            LayerTime {
                spans: 2,
                total_ns: 180,
                self_ns: 70
            }
        );
        assert_eq!(
            lt["inner"],
            LayerTime {
                spans: 2,
                total_ns: 110,
                self_ns: 90
            }
        );
        assert_eq!(
            lt["core"],
            LayerTime {
                spans: 1,
                total_ns: 20,
                self_ns: 20
            }
        );
        let sum: i64 = lt.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 180);
    }
}
