//! Δ read/write footprints for cross-transaction conflict detection
//! (DESIGN.md §16).
//!
//! The paper's *conflict-detection* snap semantics (§4.1) verifies that
//! the requests of one Δ commute with each other. This module lifts the
//! same idea across transactions: while a session evaluates against its
//! pinned base snapshot, the forked store records
//!
//! * the **redo ops** of every mutation (the same [`RedoOp`]s the WAL
//!   logs), so a validated Δ can be replayed onto the live store;
//! * a **write footprint** — `(node, aspects)` pairs for every mutated
//!   base-snapshot node (writes to nodes the Δ itself allocated are
//!   excluded: no committed transaction can have observed them);
//! * a **read footprint** — `(node, aspects)` pairs for every
//!   evaluator-visible accessor call, again filtered to base nodes.
//!
//! Commit-time validation is classic backward OCC: transaction T
//! conflicts iff T's *read* footprint intersects the *write* footprint of
//! some Δ committed after T's base epoch. Mutator-internal reads (splice
//! index search, precondition checks) are deliberately *not* traced:
//! replaying the ops re-validates every precondition against the live
//! store and recomputes positions, so only reads that shaped the op
//! stream or the response body need validation. That is what lets two
//! blind appends into the same container commute.

use crate::node::NodeId;
use crate::wal::RedoOp;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Aspect bits: which facet of a node a read or write touched. Aspect
/// granularity is what keeps sibling tenants independent — a name test
/// over `tenantA` reads only [`aspect::NAME`] of its siblings, so a write
/// inside `tenantB` (children-aspect of `tenantB`) does not conflict.
pub mod aspect {
    /// Element/attribute name (rename).
    pub const NAME: u8 = 1;
    /// Text content / attribute value.
    pub const VALUE: u8 = 1 << 1;
    /// Child list (insert/detach of children).
    pub const CHILDREN: u8 = 1 << 2;
    /// Attribute list (attach/detach of attributes).
    pub const ATTRS: u8 = 1 << 3;
    /// Parent link (attach/detach of the node itself).
    pub const PARENT: u8 = 1 << 4;
    /// Every aspect.
    pub const ALL: u8 = NAME | VALUE | CHILDREN | ATTRS | PARENT;
}

/// A set of `(node, aspects)` marks, plus a *global* flag for the rare
/// whole-store effects (explicit garbage collection of base nodes) that
/// conflict with everything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    entries: HashMap<NodeId, u8>,
    global: bool,
}

impl Footprint {
    /// An empty footprint.
    pub fn new() -> Footprint {
        Footprint::default()
    }

    /// Mark `aspects` of `id`.
    pub fn record(&mut self, id: NodeId, aspects: u8) {
        *self.entries.entry(id).or_insert(0) |= aspects;
    }

    /// Mark the whole store (conflicts with every non-empty footprint and
    /// with every transaction's validation, even one that read nothing:
    /// a global effect may invalidate node ids themselves).
    pub fn set_global(&mut self) {
        self.global = true;
    }

    /// Did a whole-store effect occur?
    pub fn is_global(&self) -> bool {
        self.global
    }

    /// No marks at all?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && !self.global
    }

    /// Number of marked nodes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The aspects marked for `id` (0 when unmarked).
    pub fn aspects(&self, id: NodeId) -> u8 {
        if self.global {
            aspect::ALL
        } else {
            self.entries.get(&id).copied().unwrap_or(0)
        }
    }

    /// Iterate the marked `(node, aspects)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u8)> + '_ {
        self.entries.iter().map(|(&n, &a)| (n, a))
    }

    /// The aspect bits on which `self` (a read footprint) and `other`
    /// (a write footprint) collide: the union over common node ids of
    /// the intersected aspect masks. A global mark on either side
    /// collides on every aspect regardless of the other side's contents —
    /// maximal conservatism for the whole-store effects.
    pub fn conflict_aspects(&self, other: &Footprint) -> u8 {
        if self.global || other.global {
            return aspect::ALL;
        }
        let (small, large) = if self.entries.len() <= other.entries.len() {
            (&self.entries, &other.entries)
        } else {
            (&other.entries, &self.entries)
        };
        let mut bits = 0u8;
        for (id, &a) in small {
            if let Some(&b) = large.get(id) {
                bits |= a & b;
            }
        }
        bits
    }
}

/// Everything one transaction's forked run recorded: the redo ops to
/// replay at commit, and the read/write footprints to validate with.
/// Produced by `Store::take_capture`; consumed by `Store::apply_captured`
/// and the server's commit-time validator.
#[derive(Debug, Clone, Default)]
pub struct CapturedDelta {
    /// The forward ops, in application order (fork-local node ids; the
    /// replay remaps them onto live allocations).
    pub(crate) ops: Vec<RedoOp>,
    pub(crate) reads: Footprint,
    pub(crate) writes: Footprint,
}

impl CapturedDelta {
    /// The read footprint (base-snapshot nodes only).
    pub fn reads(&self) -> &Footprint {
        &self.reads
    }

    /// The write footprint (base-snapshot nodes only).
    pub fn writes(&self) -> &Footprint {
        &self.writes
    }

    /// True when the run mutated nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of recorded redo ops.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }
}

/// The in-store recorder (one per capturing [`crate::Store`]). Mirrors
/// the WAL's pending-ops discipline — frame marks, rollback truncation —
/// and adds the footprints. The read set sits behind an `Arc<Mutex<_>>`
/// because the read views of an effect-free parallel region
/// ([`Capture::read_view`]) record into the same set from worker
/// threads; the disabled path costs one pointer check per accessor.
#[derive(Debug, Default)]
pub(crate) struct Capture {
    pub(crate) ops: Vec<RedoOp>,
    op_marks: Vec<usize>,
    writes: Vec<(NodeId, u8)>,
    write_marks: Vec<usize>,
    /// Nodes allocated during this capture: their reads and writes are
    /// fork-private, invisible to any committed transaction, and so
    /// excluded from both footprints.
    fresh: HashSet<NodeId>,
    global: bool,
    reads: Arc<Mutex<HashMap<NodeId, u8>>>,
    trace_reads: bool,
}

impl Capture {
    pub(crate) fn new(trace_reads: bool) -> Capture {
        Capture {
            trace_reads,
            ..Capture::default()
        }
    }

    /// The capture of a worker's read view: it shares this capture's
    /// read set (and nothing else), so a parallel region's reads join
    /// the transaction's footprint. `None` when this
    /// capture does not trace reads (the view then needs no capture).
    pub(crate) fn read_view(&self) -> Option<Capture> {
        self.trace_reads.then(|| Capture {
            trace_reads: true,
            reads: Arc::clone(&self.reads),
            ..Capture::default()
        })
    }

    /// Is read tracing on? (The executor's index-scan gate.)
    #[inline]
    pub(crate) fn is_tracing(&self) -> bool {
        self.trace_reads
    }

    #[inline]
    pub(crate) fn trace_read(&self, id: NodeId, aspects: u8) {
        if self.trace_reads {
            let mut reads = self.reads.lock().unwrap_or_else(|e| e.into_inner());
            *reads.entry(id).or_insert(0) |= aspects;
        }
    }

    #[inline]
    pub(crate) fn record_write(&mut self, id: NodeId, aspects: u8) {
        if !self.fresh.contains(&id) {
            self.writes.push((id, aspects));
        }
    }

    pub(crate) fn note_fresh(&mut self, id: NodeId) {
        self.fresh.insert(id);
    }

    pub(crate) fn is_fresh(&self, id: NodeId) -> bool {
        self.fresh.contains(&id)
    }

    pub(crate) fn set_global(&mut self) {
        self.global = true;
    }

    pub(crate) fn note_begin_frame(&mut self) {
        self.op_marks.push(self.ops.len());
        self.write_marks.push(self.writes.len());
    }

    pub(crate) fn note_commit_frame(&mut self) {
        self.op_marks.pop();
        self.write_marks.pop();
    }

    /// Rolled-back ops and write marks are dropped (they never happened);
    /// reads are kept — a rolled-back branch still influenced control
    /// flow, so its reads must stay validated. Conservative and sound.
    pub(crate) fn note_rollback_frame(&mut self) {
        if let Some(mark) = self.op_marks.pop() {
            self.ops.truncate(mark);
        }
        if let Some(mark) = self.write_marks.pop() {
            self.writes.truncate(mark);
        }
    }

    /// Drain everything recorded since the last take into a
    /// [`CapturedDelta`], resetting the recorder for the next
    /// transaction (the fresh set included: after a commit those nodes
    /// are base-visible to everyone).
    pub(crate) fn take(&mut self) -> CapturedDelta {
        let ops = std::mem::take(&mut self.ops);
        let mut writes = Footprint::new();
        for (id, aspects) in self.writes.drain(..) {
            writes.record(id, aspects);
        }
        if self.global {
            writes.set_global();
        }
        let mut reads = Footprint::new();
        let drained = std::mem::take(&mut *self.reads.lock().unwrap_or_else(|e| e.into_inner()));
        for (id, aspects) in drained {
            if !self.fresh.contains(&id) {
                reads.record(id, aspects);
            }
        }
        self.fresh.clear();
        self.global = false;
        self.op_marks.clear();
        self.write_marks.clear();
        CapturedDelta { ops, reads, writes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_aspects_intersects_per_node() {
        let mut r = Footprint::new();
        r.record(NodeId(1), aspect::CHILDREN);
        r.record(NodeId(2), aspect::NAME);
        let mut w = Footprint::new();
        w.record(NodeId(1), aspect::NAME | aspect::VALUE);
        w.record(NodeId(2), aspect::NAME);
        assert_eq!(r.conflict_aspects(&w), aspect::NAME);
        let mut w2 = Footprint::new();
        w2.record(NodeId(1), aspect::CHILDREN);
        assert_eq!(r.conflict_aspects(&w2), aspect::CHILDREN);
        assert_eq!(r.conflict_aspects(&Footprint::new()), 0);
    }

    #[test]
    fn global_conflicts_with_everything() {
        let mut g = Footprint::new();
        g.set_global();
        assert_eq!(Footprint::new().conflict_aspects(&g), aspect::ALL);
        assert_eq!(g.conflict_aspects(&Footprint::new()), aspect::ALL);
        assert!(!g.is_empty());
        assert_eq!(g.aspects(NodeId(77)), aspect::ALL);
    }

    #[test]
    fn capture_rollback_drops_ops_and_writes_keeps_reads() {
        let mut c = Capture::new(true);
        c.trace_read(NodeId(1), aspect::NAME);
        c.note_begin_frame();
        c.ops.push(RedoOp::Detach { node: NodeId(2) });
        c.record_write(NodeId(2), aspect::PARENT);
        c.trace_read(NodeId(3), aspect::VALUE);
        c.note_rollback_frame();
        let delta = c.take();
        assert!(delta.is_empty());
        assert!(delta.writes().is_empty());
        assert_eq!(delta.reads().aspects(NodeId(1)), aspect::NAME);
        assert_eq!(delta.reads().aspects(NodeId(3)), aspect::VALUE);
    }

    #[test]
    fn fresh_nodes_stay_out_of_footprints() {
        let mut c = Capture::new(true);
        c.note_fresh(NodeId(9));
        c.record_write(NodeId(9), aspect::CHILDREN);
        c.trace_read(NodeId(9), aspect::CHILDREN);
        c.record_write(NodeId(1), aspect::CHILDREN);
        let delta = c.take();
        assert_eq!(delta.writes().aspects(NodeId(9)), 0);
        assert_eq!(delta.reads().aspects(NodeId(9)), 0);
        assert_eq!(delta.writes().aspects(NodeId(1)), aspect::CHILDREN);
        // After take, the fresh set resets: the next transaction's write
        // to node 9 (now base-visible) is footprinted again.
        c.record_write(NodeId(9), aspect::VALUE);
        assert_eq!(c.take().writes().aspects(NodeId(9)), aspect::VALUE);
    }
}
