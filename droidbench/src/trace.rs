//! In-memory span aggregation for the traced run.
//!
//! Spans nest (a minimizer replay runs inside the minimizer span), so each
//! layer keeps both its inclusive busy time and its self time — the busy
//! time minus the part covered by child spans. Only per-layer aggregates
//! are kept: the benchmark needs shares and counts, not a timeline, and
//! storing every span of a 48-hour campaign would distort its memory.

use std::time::Instant;

/// The engine layers the traced mirror puts spans around, in step order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Corpus,
    Generate,
    Mutate,
    Lint,
    Absint,
    Supervisor,
    Feedback,
    Minimize,
    Replay,
    Relation,
    Crashes,
    Device,
}

impl Layer {
    pub const ALL: [Layer; 12] = [
        Layer::Corpus,
        Layer::Generate,
        Layer::Mutate,
        Layer::Lint,
        Layer::Absint,
        Layer::Supervisor,
        Layer::Feedback,
        Layer::Minimize,
        Layer::Replay,
        Layer::Relation,
        Layer::Crashes,
        Layer::Device,
    ];

    /// Metric-name prefix, named after the crate module the span wraps.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Corpus => "corpus",
            Layer::Generate => "fuzzlang.generate",
            Layer::Mutate => "fuzzlang.mutate",
            Layer::Lint => "analysis.lint",
            Layer::Absint => "analysis.absint",
            Layer::Supervisor => "supervisor",
            Layer::Feedback => "feedback",
            Layer::Minimize => "minimize",
            Layer::Replay => "exec.replay",
            Layer::Relation => "relation",
            Layer::Crashes => "crashes",
            Layer::Device => "device",
        }
    }
}

/// Aggregate of every span of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerStat {
    pub calls: u64,
    /// Inclusive time inside the layer's spans.
    pub busy_ns: u64,
    /// Busy time not covered by child spans.
    pub self_ns: u64,
}

struct Open {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

/// Span recorder: `enter`/`exit` pairs around calls into a layer.
pub struct Tracer {
    stats: [LayerStat; Layer::ALL.len()],
    stack: Vec<Open>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            stats: [LayerStat::default(); Layer::ALL.len()],
            stack: Vec::with_capacity(4),
        }
    }
}

impl Tracer {
    pub fn enter(&mut self, layer: Layer) {
        self.stack.push(Open {
            layer,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    pub fn exit(&mut self) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let ns = open.start.elapsed().as_nanos() as u64;
        let stat = &mut self.stats[open.layer as usize];
        stat.calls += 1;
        stat.busy_ns += ns;
        stat.self_ns += ns.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
        }
    }

    pub fn stat(&self, layer: Layer) -> LayerStat {
        self.stats[layer as usize]
    }

    /// Sum of self time over all layers: the wall time the spans explain.
    pub fn total_self_ns(&self) -> u64 {
        self.stats.iter().map(|s| s.self_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time_from_busy_time() {
        let mut t = Tracer::default();
        t.enter(Layer::Minimize);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.enter(Layer::Replay);
        std::thread::sleep(std::time::Duration::from_millis(4));
        t.exit();
        t.exit();
        let outer = t.stat(Layer::Minimize);
        let inner = t.stat(Layer::Replay);
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert_eq!(inner.busy_ns, inner.self_ns);
        assert_eq!(outer.self_ns, outer.busy_ns - inner.busy_ns);
        assert!(outer.self_ns >= 2_000_000 && inner.self_ns >= 4_000_000);
        assert_eq!(t.total_self_ns(), outer.busy_ns);
    }
}
