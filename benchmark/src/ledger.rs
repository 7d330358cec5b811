//! The layer ledger: spans recorded from outside the program, kept in
//! memory, and written out when the run ends.
//!
//! A span is one call into a layer's public function (or one `step()`,
//! or one request seen by the client). Its *self time* is its duration
//! minus the part its children cover, so the self times of a tree add up
//! to the root's duration and no nanosecond is counted twice. Children
//! measured in a replay (see `sim.rs`, `replay.rs`) are laid end to end
//! from their parent's start. A replayed child is an estimate: it can come
//! out longer than the parent it sits in. Self times are therefore summed
//! per span name before they are floored at zero — flooring each span
//! would keep every overestimate and drop every underestimate — and what
//! is left over when a name's children outlast it is reported as
//! `overshoot`, never hidden.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Index of a span in its [`Ledger`]; `NONE` marks a root.
pub type SpanId = u32;
/// The parent of a root span.
pub const NONE: SpanId = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`; the layer is the crate the call goes into.
    pub name: &'static str,
    /// Nanoseconds since the ledger's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the ledger's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// Request or event id shared by the spans of one operation.
    pub op: u64,
    /// Calls folded into this span (64 quotes of one bid are one span).
    pub calls: u32,
    /// Σ durations of direct children, maintained by [`Ledger::child`].
    children_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerRow {
    /// Spans of this name.
    pub spans: u64,
    /// Calls they stand for.
    pub calls: u64,
    /// Σ durations, children included.
    pub total_ns: u64,
    /// Σ durations of the direct children of these spans.
    pub children_ns: u64,
}

impl LayerRow {
    /// Σ self times: what these spans spent outside their children.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.children_ns)
    }

    /// Child time beyond these spans' own duration (replay noise).
    pub fn overshoot_ns(&self) -> u64 {
        self.children_ns.saturating_sub(self.total_ns)
    }

    /// Mean duration of one call, children included.
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// All spans of one traced round.
#[derive(Debug, Default)]
pub struct Ledger {
    spans: Vec<Span>,
}

impl Ledger {
    /// An empty ledger with room for `cap` spans.
    pub fn with_capacity(cap: usize) -> Self {
        Ledger {
            spans: Vec::with_capacity(cap),
        }
    }

    /// Records a measured root span.
    pub fn root(&mut self, name: &'static str, start_ns: u64, end_ns: u64, op: u64) -> SpanId {
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent: NONE,
            op,
            calls: 1,
            children_ns: 0,
        })
    }

    /// Records a child of `parent` lasting `dur_ns`, placed after the
    /// parent's earlier children. `calls` operations are folded into it.
    pub fn child(&mut self, parent: SpanId, name: &'static str, dur_ns: u64, calls: u32) -> SpanId {
        let p = &mut self.spans[parent as usize];
        let start_ns = p.start_ns + p.children_ns;
        p.children_ns += dur_ns;
        let op = p.op;
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent,
            op,
            calls,
            children_ns: 0,
        })
    }

    /// Records a child with measured (not laid-out) endpoints.
    pub fn child_at(
        &mut self,
        parent: SpanId,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let p = &mut self.spans[parent as usize];
        p.children_ns += end_ns.saturating_sub(start_ns);
        let op = p.op;
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            calls: 1,
            children_ns: 0,
        })
    }

    fn push(&mut self, span: Span) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        assert!(id != NONE, "span ids exhausted");
        self.spans.push(span);
        id
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Totals per span name, in name order.
    pub fn rows(&self) -> BTreeMap<&'static str, LayerRow> {
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for s in &self.spans {
            let row = rows.entry(s.name).or_default();
            let dur = s.duration();
            row.spans += 1;
            row.calls += u64::from(s.calls);
            row.total_ns += dur;
            row.children_ns += s.children_ns;
        }
        rows
    }

    /// Σ self times over every span: what the ledger accounts for.
    pub fn self_total_ns(&self) -> u64 {
        self.rows().values().map(LayerRow::self_ns).sum()
    }

    /// Writes one JSON object per span: name, start, end, parent (−1 for
    /// a root), the operation id, and the calls it folds.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::with_capacity(1 << 20, std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.calls
            )?;
        }
        w.flush()
    }
}

/// `1 − Σ self / wall`: the share of the traced wall no span accounts for
/// (negative when replayed children overshoot their parents).
pub fn gap_share(self_total_ns: u64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        return 0.0;
    }
    1.0 - self_total_ns as f64 / wall_ns as f64
}

/// Prints the per-name table under a traced run.
pub fn print_rows(rows: &BTreeMap<&'static str, LayerRow>, wall_ns: u64) {
    println!(
        "  {:<26} {:>10} {:>12} {:>12} {:>8} {:>10}",
        "span", "calls", "mean ns", "self ms", "self %", "over ms"
    );
    for (name, r) in rows {
        println!(
            "  {:<26} {:>10} {:>12.1} {:>12.2} {:>7.2}% {:>10.2}",
            name,
            r.calls,
            r.mean_ns(),
            r.self_ns() as f64 / 1e6,
            100.0 * r.self_ns() as f64 / wall_ns.max(1) as f64,
            r.overshoot_ns() as f64 / 1e6
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut l = Ledger::default();
        let step = l.root("site.step", 1_000, 1_100, 7);
        let submit = l.child(step, "site.submit", 80, 1);
        l.child(submit, "core.pool_push", 30, 1);
        l.child(submit, "core.pool_select", 40, 1);
        l.child(step, "sim.queue_pop", 5, 1);
        let rows = l.rows();
        // step: 100 − (80 + 5); submit: 80 − (30 + 40); leaves keep all.
        assert_eq!(rows["site.step"].self_ns(), 15);
        assert_eq!(rows["site.submit"].self_ns(), 10);
        assert_eq!(rows["core.pool_push"].self_ns(), 30);
        assert_eq!(rows["core.pool_select"].self_ns(), 40);
        assert_eq!(rows["sim.queue_pop"].self_ns(), 5);
        // A grandchild reduces its parent's self time, not the root's,
        // and the tree's self times add up to the root's duration.
        assert_eq!(l.self_total_ns(), 100);
        assert_eq!(gap_share(l.self_total_ns(), 100), 0.0);
        assert!((gap_share(l.self_total_ns(), 125) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn children_are_laid_end_to_end_and_share_the_operation_id() {
        let mut l = Ledger::default();
        let root = l.root("market.step_arrival", 500, 900, 42);
        let a = l.child(root, "site.evaluate", 100, 64);
        let b = l.child(root, "site.submit", 50, 1);
        let spans = &l.spans;
        assert_eq!(
            (spans[a as usize].start_ns, spans[a as usize].end_ns),
            (500, 600)
        );
        assert_eq!(
            (spans[b as usize].start_ns, spans[b as usize].end_ns),
            (600, 650)
        );
        assert_eq!(spans[b as usize].op, 42);
        assert_eq!(spans[b as usize].parent, root);
        let rows = l.rows();
        assert_eq!(rows["site.evaluate"].calls, 64);
        assert!((rows["site.evaluate"].mean_ns() - 100.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn overshoot_is_floored_per_name_and_reported() {
        let mut l = Ledger::default();
        let root = l.root("site.step", 0, 100, 0);
        l.child(root, "core.pool_select", 130, 1);
        let rows = l.rows();
        assert_eq!(rows["site.step"].self_ns(), 0);
        assert_eq!(rows["site.step"].overshoot_ns(), 30);
        // The ledger then claims more than the wall: a negative gap.
        assert!(gap_share(l.self_total_ns(), 100) < 0.0);
        // A second step whose replayed child came out short cancels the
        // first one's excess: the name's self time is 100 + 100 − 130 − 60.
        let root = l.root("site.step", 100, 200, 1);
        l.child(root, "core.pool_select", 60, 1);
        let rows = l.rows();
        assert_eq!(rows["site.step"].self_ns(), 10);
        assert_eq!(rows["site.step"].overshoot_ns(), 0);
        assert_eq!(l.self_total_ns(), 200);
    }

    #[test]
    fn measured_children_keep_their_endpoints() {
        let mut l = Ledger::default();
        let req = l.root("client.request", 10, 110, 3);
        l.child_at(req, "client.send", 10, 14);
        l.child_at(req, "client.wait", 14, 90);
        l.child_at(req, "client.read", 90, 110);
        let rows = l.rows();
        assert_eq!(rows["client.request"].self_ns(), 0);
        assert_eq!(rows["client.wait"].total_ns, 76);
    }
}
