//! The mutable node store (paper §3.2).
//!
//! The store maps node ids to kind, parent, name and content, and exposes
//! exactly the three groups of operations the paper's semantics needs:
//!
//! 1. **XDM accessors and constructors** — `parent`, `children`,
//!    `attributes`, `node_name`, `string_value`, plus `new_element` & co.;
//! 2. **Update-request applications** — `apply_insert`, `detach` (the
//!    paper's delete-as-detach), `apply_rename`, each a *partial function*
//!    whose preconditions mirror §3.2 (inserted nodes must be parentless,
//!    the insertion anchor must be a child of the parent, no cycles);
//! 3. **Housekeeping the paper flags as the hard parts** (§4.1): document
//!    order over a mutable forest, and garbage accounting for nodes that
//!    are detached and unreachable yet persistent.

use crate::error::{XdmError, XdmResult};
use crate::footprint::{aspect, Capture, CapturedDelta};
use crate::index::{value_hash, IndexPlane};
use crate::node::{NodeData, NodeId, NodeKind};
use crate::pages::Pages;
use crate::qname::QName;
use crate::symbols::{QNameId, Symbols};
use crate::wal::{
    self, BirthKind, CommitReceipt, Cursor, Fnv64, RecoveryReport, RedoOp, SyncMode, Wal,
};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// Where an insertion lands among a parent's children (paper §3.1's
/// `as first into` / `as last into` / `into` / `after` / `before` forms are
/// all resolved by the evaluator to one of these anchors plus a parent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsertAnchor {
    /// Before the first existing child.
    First,
    /// After the last existing child (also the meaning of plain `into`).
    Last,
    /// Immediately after the given sibling (which must be a child of the
    /// insertion parent — a paper precondition).
    After(NodeId),
}

/// Aggregate statistics about a store, used by the detach/GC experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Total slots ever allocated and still alive.
    pub alive: usize,
    /// Alive nodes reachable from the given roots.
    pub reachable: usize,
    /// Alive nodes *not* reachable from the given roots (detached garbage).
    pub garbage: usize,
}

/// Reusable scratch buffers for document-order sorting and the batch
/// step kernels (DESIGN.md §14). The hot loops — `sort_and_dedup` after
/// every path step, the kernels' per-origin gathers — previously
/// allocated fresh buffers per call; an evaluation owns one `Scratch`
/// and threads it through, so steady-state evaluation reuses the same
/// backing allocations. Pinned by an allocation-count assertion in
/// `tests/obs_invariants.rs`.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Keyed-sort workspace: one `(order-key, node)` pair per input node.
    /// Entries are recycled, so each pair's key `Vec` keeps its capacity
    /// across calls.
    keyed: Vec<(Vec<(u64, u64)>, NodeId)>,
    /// Per-origin gather buffer for the batch step kernels.
    pub(crate) gather: Vec<NodeId>,
}

impl Scratch {
    /// Fresh, empty scratch space.
    pub fn new() -> Self {
        Scratch::default()
    }
}

/// A node test pre-resolved against a store's interner, consumed by the
/// batch step kernels and the evaluator's per-node test. Resolution
/// happens once per step (not once per node), so the hot match is pure
/// integer work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTest {
    /// A name test. `None` records an interner miss: the lexical name
    /// appears on no node in this store, so the test matches nothing.
    Name(Option<QNameId>),
    /// `*` — any name on the principal axis.
    Wildcard,
    /// `text()`
    Text,
    /// `node()`
    AnyKind,
    /// `comment()`
    Comment,
    /// `processing-instruction()`
    Pi,
    /// `element()`
    Element,
    /// `attribute()`
    AttributeTest,
    /// `document-node()`
    Document,
}

impl KernelTest {
    /// Resolve a lexical name test. The returned test is only valid
    /// against the same store's interner (ids are per-store).
    pub fn name(symbols: &Symbols, lexical: &str) -> KernelTest {
        KernelTest::Name(symbols.lookup_lexical(lexical))
    }
}

/// One recorded inverse of a primitive store mutation. Entries are replayed
/// in reverse by [`Store::rollback_frame`]; each replay writes fields
/// directly (never through the journaled mutators) so rollback itself
/// records nothing.
#[derive(Debug, Clone)]
enum UndoEntry {
    /// A node was allocated; `reused` says whether the slot came off the
    /// free list (so undo can restore the free list exactly).
    Alloc { id: NodeId, reused: bool },
    /// An element or attribute was renamed; `name` is the previous
    /// (interned) name — symbol ids stay valid forever, the table being
    /// append-only, so the journal can hold them safely.
    Name { id: NodeId, name: QNameId },
    /// A text node's content was replaced.
    Text { id: NodeId, content: String },
    /// An attribute node's value was replaced.
    AttrValue { id: NodeId, value: String },
    /// A node's sibling order key was rewritten.
    Okey { id: NodeId, okey: u64 },
    /// `count` parentless nodes were spliced into `parent`'s children at
    /// `index` (an insert); undo removes them and clears their parents.
    Splice {
        parent: NodeId,
        index: usize,
        count: usize,
    },
    /// `node` was detached from `parent` at `index` (child list, or the
    /// attribute list when `in_attributes`); undo reinserts it.
    Detach {
        node: NodeId,
        parent: NodeId,
        index: usize,
        in_attributes: bool,
    },
    /// A node's parent link alone was rewritten (detach of a node missing
    /// from its parent's lists — degenerate but journaled exactly).
    Parent { id: NodeId, parent: Option<NodeId> },
    /// An attribute was pushed onto `element`'s attribute list; undo pops
    /// it and clears its parent.
    AttrPush { element: NodeId },
    /// A node was reclaimed by `collect_garbage`; `data` is its full
    /// pre-collection state. Boxed so this rare, fat payload does not
    /// inflate the size of every other journal entry.
    Collected { id: NodeId, data: Box<NodeData> },
}

/// The mutable XML store.
#[derive(Debug, Default)]
pub struct Store {
    /// Node slots: COW paged storage ([`crate::pages`]), so
    /// [`Store::snapshot`] forks the whole slot space in O(pages) and
    /// later mutations copy only the pages they touch.
    nodes: Pages,
    /// Slots retired by `collect_garbage`, available for reuse.
    free: Vec<NodeId>,
    /// Undo journal: inverses of every mutation performed while at least
    /// one frame is open (see [`Store::begin_frame`]).
    undo: Vec<UndoEntry>,
    /// Start offsets into `undo`, one per open frame.
    frames: Vec<usize>,
    /// Attached durable redo log (see [`Store::open_durable`]). While
    /// present, every successful mutation records a forward redo op;
    /// [`Store::wal_commit`] makes them durable.
    wal: Option<Box<Wal>>,
    /// Δ capture for optimistic concurrency (DESIGN.md §16). While
    /// present, every successful mutation records its redo op and write
    /// footprint here, and (when read tracing is on) every accessor
    /// records its read footprint; see [`Store::begin_capture`].
    capture: Option<Box<Capture>>,
    /// Interned names: node slots hold [`QNameId`]s/[`crate::SymbolId`]s
    /// into this append-only table (DESIGN.md §14).
    symbols: Symbols,
    /// Secondary indexes (DESIGN.md §17): derived state maintained by
    /// the same mutators the paper's semantics defines, COW-shared
    /// across snapshots like the node pages.
    index: IndexPlane,
}

impl Clone for Store {
    /// A cloned store is an in-memory fork: node slots, free list,
    /// journal state and the symbol table are copied, but the redo log
    /// stays with the original (two writers on one log would interleave
    /// histories).
    fn clone(&self) -> Self {
        Store {
            nodes: self.nodes.clone(),
            free: self.free.clone(),
            undo: self.undo.clone(),
            frames: self.frames.clone(),
            wal: None,
            capture: None,
            symbols: self.symbols.clone(),
            index: self.index.clone(),
        }
    }
}

impl Drop for Store {
    /// Clean shutdown of a durable store: flush any pending redo ops as
    /// a final commit and append a seal record carrying the fingerprint,
    /// so the next recovery can verify it rebuilt the identical store.
    /// Best-effort — a drop mid-unwind (open frames) seals nothing.
    fn drop(&mut self) {
        if self.wal.is_some() && self.frames.is_empty() {
            let _ = self.wal_commit();
            let fp = self.fingerprint();
            if let Some(w) = &mut self.wal {
                if w.dirty_since_open() {
                    let _ = w.seal(fp);
                }
            }
        }
    }
}

/// Journal capacity retained across outermost commits: the journal is
/// cleared on every outermost [`Store::commit_frame`], and any backing
/// allocation beyond this many entries is released too, so a long-lived
/// session's journal memory stays bounded by its largest recent frame,
/// not its largest-ever frame.
const UNDO_RETAIN_CAP: usize = 4096;

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// Number of alive nodes.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// True when no alive nodes exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An immutable copy-on-write fork of this store: the snapshot shares
    /// every node page with the live store (O(pages), not O(nodes)), and
    /// later mutations of either side copy only the pages they touch.
    /// Node ids remain valid across the fork, so bindings and values
    /// taken against the live store resolve identically in the snapshot.
    ///
    /// The snapshot is a plain in-memory [`Store`]: no redo log (the log
    /// stays with the writer), no undo journal, clean frame state. The
    /// caller must not be inside an open undo frame — a mid-frame fork
    /// would capture uncommitted mutations as if they were state.
    pub fn snapshot(&self) -> Store {
        assert!(self.frames.is_empty(), "snapshot inside an open undo frame");
        Store {
            nodes: self.nodes.clone(),
            free: self.free.clone(),
            undo: Vec::new(),
            frames: Vec::new(),
            wal: None,
            capture: None,
            symbols: self.symbols.clone(),
            index: self.index.clone(),
        }
    }

    /// A copy-on-write read view for one worker of an effect-free
    /// parallel region (DESIGN.md §9): forks the slots in O(pages) like
    /// [`Store::snapshot`], with two differences. It may be taken inside
    /// an open undo frame — the view should see the evaluator's current,
    /// uncommitted state, and is dropped before the frame closes. And
    /// under a read-tracing capture, the view records its reads into the
    /// same capture's read set (so [`Store::tracing_reads`] answers alike
    /// on both), keeping an optimistic writer's read footprint whole.
    pub fn read_view(&self) -> Store {
        Store {
            nodes: self.nodes.clone(),
            free: self.free.clone(),
            undo: Vec::new(),
            frames: Vec::new(),
            wal: None,
            capture: self
                .capture
                .as_deref()
                .and_then(Capture::read_view)
                .map(Box::new),
            symbols: self.symbols.clone(),
            index: self.index.clone(),
        }
    }

    /// A mark that changes whenever a slot is allocated or retired: a
    /// worker compares marks to prove its read view stayed read-only.
    pub fn slot_mark(&self) -> (usize, usize) {
        (self.nodes.len(), self.free.len())
    }

    /// How many node pages this store still shares with `other`
    /// (snapshot-COW observability; see [`Store::snapshot`]).
    pub fn shared_pages_with(&self, other: &Store) -> usize {
        self.nodes.shared_pages_with(&other.nodes)
    }

    /// Total node pages backing this store.
    pub fn page_count(&self) -> usize {
        self.nodes.page_count()
    }

    // ------------------------------------------------------------------
    // Undo journal (failure atomicity)
    //
    // Every mutating primitive records its inverse into `undo` while at
    // least one frame is open. `apply_delta` (crate `xqcore`) opens a frame
    // around each snap application so a failed update leaves the store
    // exactly as it was; the engine opens an outer frame around each run so
    // a panic can be unwound to the pre-call store.
    // ------------------------------------------------------------------

    /// Open an undo frame: every subsequent mutation records its inverse
    /// until the frame is closed by [`Store::commit_frame`] or
    /// [`Store::rollback_frame`]. Frames nest; an inner frame's entries are
    /// retained for the enclosing frame when the inner one commits, so an
    /// outer rollback still undoes inner-committed work.
    pub fn begin_frame(&mut self) {
        self.frames.push(self.undo.len());
        if let Some(w) = &mut self.wal {
            w.note_begin_frame();
        }
        if let Some(c) = &mut self.capture {
            c.note_begin_frame();
        }
    }

    /// Close the innermost frame, keeping its effects. O(1) when nested;
    /// the outermost commit frees the accumulated journal. Panics if no
    /// frame is open.
    pub fn commit_frame(&mut self) {
        self.frames
            .pop()
            .expect("commit_frame without an open frame");
        if self.frames.is_empty() {
            self.undo.clear();
            // Bound the journal's retained memory: clear() keeps the
            // backing allocation, so one huge frame would otherwise pin
            // its high-water capacity for the session's lifetime.
            if self.undo.capacity() > UNDO_RETAIN_CAP {
                self.undo.shrink_to(UNDO_RETAIN_CAP);
            }
        }
        if let Some(w) = &mut self.wal {
            w.note_commit_frame();
        }
        if let Some(c) = &mut self.capture {
            c.note_commit_frame();
        }
    }

    /// Close the innermost frame, undoing every mutation made since its
    /// [`Store::begin_frame`] — including mutations of inner frames that
    /// have already committed. The store is restored exactly: node slots,
    /// the free list, parent links, sibling positions and order keys all
    /// return to their pre-frame state. Panics if no frame is open.
    pub fn rollback_frame(&mut self) {
        let mark = self
            .frames
            .pop()
            .expect("rollback_frame without an open frame");
        while self.undo.len() > mark {
            let entry = self.undo.pop().expect("journal shorter than frame mark");
            self.undo_entry(entry);
        }
        // The frame's redo ops never become durable: they are dropped
        // from the in-memory buffer before any commit marker is written.
        if let Some(w) = &mut self.wal {
            w.note_rollback_frame();
        }
        if let Some(c) = &mut self.capture {
            c.note_rollback_frame();
        }
    }

    /// Current backing capacity of the undo journal, in entries (for the
    /// boundedness test pinning [`UNDO_RETAIN_CAP`]).
    pub fn journal_capacity(&self) -> usize {
        self.undo.capacity()
    }

    /// Pre-size the journal for roughly `additional` upcoming entries so a
    /// bulk application does not pay repeated reallocation copies. A no-op
    /// when no frame is open.
    pub fn journal_reserve(&mut self, additional: usize) {
        if self.journaling() {
            self.undo.reserve(additional);
        }
    }

    /// Number of currently open undo frames.
    pub fn frame_depth(&self) -> usize {
        self.frames.len()
    }

    /// Ids allocated since the innermost open frame began (empty when no
    /// frame is open). Used by the engine to sweep constructed-but-orphaned
    /// nodes after a failed run without touching pre-existing garbage.
    pub fn frame_allocations(&self) -> Vec<NodeId> {
        let mark = match self.frames.last() {
            Some(&m) => m,
            None => return Vec::new(),
        };
        self.undo[mark..]
            .iter()
            .filter_map(|e| match e {
                UndoEntry::Alloc { id, .. } => Some(*id),
                _ => None,
            })
            .collect()
    }

    /// Reclaim exactly the nodes of `candidates` that are alive and not
    /// reachable from `roots`. Unlike [`Store::collect_garbage`] this never
    /// touches other unreachable nodes, so pre-existing detached garbage
    /// (observable via [`Store::stats`]) is preserved. Returns the number
    /// of reclaimed slots.
    pub fn reclaim_unreachable(
        &mut self,
        candidates: &[NodeId],
        roots: &[NodeId],
    ) -> XdmResult<usize> {
        let reachable = self.reachable_set(roots)?;
        let journaling = !self.frames.is_empty();
        let logging = self.logging();
        let mut collected = Vec::new();
        let mut reclaimed = 0;
        for &id in candidates {
            let i = id.index();
            if self.nodes.get(i).map(|d| d.alive).unwrap_or(false) && !reachable.contains(&id) {
                let okey = self.nodes[i].okey;
                let dead = NodeData {
                    parent: None,
                    kind: NodeKind::Text {
                        content: String::new(),
                    },
                    alive: false,
                    okey,
                };
                let data = std::mem::replace(&mut self.nodes[i], dead);
                self.index.note_death(&data.kind, id);
                if journaling {
                    self.undo.push(UndoEntry::Collected {
                        id,
                        data: Box::new(data),
                    });
                }
                if logging {
                    collected.push(id);
                }
                self.free.push(id);
                reclaimed += 1;
            }
        }
        if !collected.is_empty() {
            if let Some(c) = &mut self.capture {
                // Reclaiming a base-snapshot node is a whole-store effect
                // for conflict purposes: its slot re-enters the free list
                // and may be re-allocated under a different identity.
                if collected.iter().any(|&id| !c.is_fresh(id)) {
                    c.set_global();
                }
            }
            // The recorded order fixes the replayed free list, hence
            // every future allocation's id.
            self.wal_record(RedoOp::Collect { ids: collected });
        }
        Ok(reclaimed)
    }

    fn journaling(&self) -> bool {
        !self.frames.is_empty()
    }

    /// Replay one journal entry (reverse order is the caller's job). All
    /// writes are direct so nothing is re-recorded.
    fn undo_entry(&mut self, entry: UndoEntry) {
        match entry {
            UndoEntry::Alloc { id, reused } => {
                // Mirror the index before the slot's payload is erased.
                self.index.note_death(&self.nodes[id.index()].kind, id);
                if !reused && id.index() + 1 == self.nodes.len() {
                    self.nodes.pop();
                } else {
                    let d = &mut self.nodes[id.index()];
                    d.alive = false;
                    d.kind = NodeKind::Text {
                        content: String::new(),
                    };
                    d.parent = None;
                    if reused {
                        self.free.push(id);
                    }
                }
            }
            UndoEntry::Name { id, name } => {
                // Mirror the index move (current name → restored name)
                // before the direct write.
                let moved = match &self.nodes[id.index()].kind {
                    NodeKind::Element { name: cur, .. } => Some((*cur, None)),
                    NodeKind::Attribute { name: cur, value } => {
                        Some((*cur, Some(value_hash(value))))
                    }
                    _ => None,
                };
                match moved {
                    Some((cur, None)) => self.index.move_element(cur, name, id),
                    Some((cur, Some(vh))) => {
                        self.index.move_attr((cur, vh), (name, vh), id);
                    }
                    None => {}
                }
                if let NodeKind::Element { name: n, .. } | NodeKind::Attribute { name: n, .. } =
                    &mut self.nodes[id.index()].kind
                {
                    *n = name;
                }
            }
            UndoEntry::Text { id, content } => {
                if let NodeKind::Text { content: c } = &mut self.nodes[id.index()].kind {
                    *c = content;
                }
            }
            UndoEntry::AttrValue { id, value } => {
                let moved = match &self.nodes[id.index()].kind {
                    NodeKind::Attribute { name, value: cur } => {
                        Some((*name, value_hash(cur), value_hash(&value)))
                    }
                    _ => None,
                };
                if let Some((name, from, to)) = moved {
                    self.index.move_attr((name, from), (name, to), id);
                }
                if let NodeKind::Attribute { value: v, .. } = &mut self.nodes[id.index()].kind {
                    *v = value;
                }
            }
            UndoEntry::Okey { id, okey } => {
                self.nodes[id.index()].okey = okey;
            }
            UndoEntry::Splice {
                parent,
                index,
                count,
            } => {
                let removed: Vec<NodeId> = match &mut self.nodes[parent.index()].kind {
                    NodeKind::Document { children } | NodeKind::Element { children, .. } => {
                        children.drain(index..index + count).collect()
                    }
                    _ => Vec::new(),
                };
                for n in removed {
                    self.nodes[n.index()].parent = None;
                }
            }
            UndoEntry::Detach {
                node,
                parent,
                index,
                in_attributes,
            } => {
                match &mut self.nodes[parent.index()].kind {
                    NodeKind::Document { children } if !in_attributes => {
                        children.insert(index, node)
                    }
                    NodeKind::Element { attributes, .. } if in_attributes => {
                        attributes.insert(index, node)
                    }
                    NodeKind::Element { children, .. } => children.insert(index, node),
                    _ => {}
                }
                self.nodes[node.index()].parent = Some(parent);
            }
            UndoEntry::Parent { id, parent } => {
                self.nodes[id.index()].parent = parent;
            }
            UndoEntry::AttrPush { element } => {
                let popped = match &mut self.nodes[element.index()].kind {
                    NodeKind::Element { attributes, .. } => attributes.pop(),
                    _ => None,
                };
                if let Some(a) = popped {
                    self.nodes[a.index()].parent = None;
                }
            }
            UndoEntry::Collected { id, data } => {
                // The slot comes back alive with its full payload:
                // reinstate its index entries.
                self.index.note_birth(&data.kind, id);
                self.nodes[id.index()] = *data;
                if self.free.last() == Some(&id) {
                    self.free.pop();
                } else {
                    self.free.retain(|&f| f != id);
                }
            }
        }
    }

    fn alloc(&mut self, kind: NodeKind) -> NodeId {
        let data = NodeData {
            parent: None,
            kind,
            alive: true,
            okey: 0,
        };
        let (id, reused) = match self.free.pop() {
            Some(id) => {
                self.nodes[id.index()] = data;
                (id, true)
            }
            None => {
                let id = NodeId(self.nodes.len() as u32);
                self.nodes.push(data);
                (id, false)
            }
        };
        self.index.note_birth(&self.nodes[id.index()].kind, id);
        if self.journaling() {
            self.undo.push(UndoEntry::Alloc { id, reused });
        }
        if self.logging() {
            // At birth every container is empty, so the at-alloc kind is
            // the complete forward image. Logged lexically: the on-disk
            // record format predates interning and must not change.
            let kind = self.birth_kind(id);
            self.wal_record(RedoOp::Alloc { id, kind });
        }
        if let Some(c) = &mut self.capture {
            c.note_fresh(id);
        }
        id
    }

    /// The lexical at-birth image of a just-allocated slot (for the redo
    /// log; see [`BirthKind`]).
    fn birth_kind(&self, id: NodeId) -> BirthKind {
        match &self.nodes[id.index()].kind {
            NodeKind::Document { .. } => BirthKind::Document,
            NodeKind::Element { name, .. } => BirthKind::Element {
                name: self.symbols.resolve_qname(*name),
            },
            NodeKind::Attribute { name, value } => BirthKind::Attribute {
                name: self.symbols.resolve_qname(*name),
                value: value.clone(),
            },
            NodeKind::Text { content } => BirthKind::Text {
                content: content.clone(),
            },
            NodeKind::Comment { content } => BirthKind::Comment {
                content: content.clone(),
            },
            NodeKind::Pi { target, content } => BirthKind::Pi {
                target: self.symbols.resolve(*target).to_string(),
                content: content.clone(),
            },
        }
    }

    /// Is any forward-op consumer attached (redo log or Δ capture)?
    fn logging(&self) -> bool {
        self.wal.is_some() || self.capture.is_some()
    }

    /// Append a redo op to the attached log's buffer and/or the Δ
    /// capture (no-op without either).
    fn wal_record(&mut self, op: RedoOp) {
        match (&mut self.capture, &mut self.wal) {
            (Some(c), Some(w)) => {
                c.ops.push(op.clone());
                w.record(op);
            }
            (Some(c), None) => c.ops.push(op),
            (None, Some(w)) => w.record(op),
            (None, None) => {}
        }
    }

    /// Record an evaluator-visible read of `aspects` of `id` (no-op
    /// unless a read-tracing capture is attached). `&self` like every
    /// accessor; the capture's read set sits behind a mutex because the
    /// read views of a parallel region share it ([`Store::read_view`]).
    #[inline]
    fn trace_read(&self, id: NodeId, aspects: u8) {
        if let Some(c) = &self.capture {
            c.trace_read(id, aspects);
        }
    }

    /// Record a write footprint mark for a mutation of `id` (no-op
    /// without a capture; writes to capture-fresh nodes are dropped).
    #[inline]
    fn cap_write(&mut self, id: NodeId, aspects: u8) {
        if let Some(c) = &mut self.capture {
            c.record_write(id, aspects);
        }
    }

    // ------------------------------------------------------------------
    // Δ capture (optimistic concurrency; DESIGN.md §16)
    // ------------------------------------------------------------------

    /// Attach a Δ capture: every subsequent mutation records its redo op
    /// and write footprint; with `trace_reads`, every evaluator-visible
    /// accessor records its read footprint too. Forked transaction
    /// stores capture with read tracing; the live store captures without
    /// it (only committed write footprints are needed there).
    pub fn begin_capture(&mut self, trace_reads: bool) {
        self.capture = Some(Box::new(Capture::new(trace_reads)));
    }

    /// Is a Δ capture attached?
    pub fn capturing(&self) -> bool {
        self.capture.is_some()
    }

    /// Detach the Δ capture, discarding anything recorded.
    pub fn end_capture(&mut self) {
        self.capture = None;
    }

    /// Drain everything recorded since the last take (or since
    /// [`Store::begin_capture`]) into a [`CapturedDelta`], leaving the
    /// capture attached and reset for the next transaction.
    pub fn take_capture(&mut self) -> Option<CapturedDelta> {
        self.capture.as_mut().map(|c| c.take())
    }

    /// Replay a captured Δ onto this store through the regular mutators,
    /// remapping the Δ's fork-local allocations onto fresh live
    /// allocations (classic OCC rebase). Ops referencing base-snapshot
    /// nodes keep their ids — base ids are stable across the fork. Every
    /// mutator precondition is re-validated against the live store; an
    /// error means the Δ does not apply here (the caller treats it as a
    /// conflict and rolls back its enclosing frame). Because the live
    /// free list and the mutator sequence fully determine allocation,
    /// the resulting state is bit-identical to running the transaction
    /// serially at this point in the commit order.
    pub fn apply_captured(&mut self, delta: &CapturedDelta) -> XdmResult<()> {
        let mut map: HashMap<NodeId, NodeId> = HashMap::new();
        fn m(map: &HashMap<NodeId, NodeId>, id: NodeId) -> NodeId {
            map.get(&id).copied().unwrap_or(id)
        }
        for op in &delta.ops {
            match op {
                RedoOp::Alloc { id, kind } => {
                    let got = self.alloc_birth(kind);
                    map.insert(*id, got);
                }
                RedoOp::Insert {
                    seq,
                    parent,
                    anchor,
                } => {
                    let seq: Vec<NodeId> = seq.iter().map(|&n| m(&map, n)).collect();
                    let anchor = match anchor {
                        InsertAnchor::After(p) => InsertAnchor::After(m(&map, *p)),
                        a => *a,
                    };
                    self.apply_insert(&seq, m(&map, *parent), anchor)?;
                }
                RedoOp::AttachAttr { element, attr } => {
                    self.attach_attribute(m(&map, *element), m(&map, *attr))?;
                }
                RedoOp::Detach { node } => self.detach(m(&map, *node))?,
                RedoOp::Rename { node, name } => {
                    self.apply_rename(m(&map, *node), name.clone())?;
                }
                RedoOp::SetText { node, content } => {
                    self.set_text(m(&map, *node), content.clone())?;
                }
                RedoOp::SetAttrValue { node, value } => {
                    self.set_attribute_value(m(&map, *node), value.clone())?;
                }
                RedoOp::Collect { ids } => {
                    let ids: Vec<NodeId> = ids.iter().map(|&n| m(&map, n)).collect();
                    self.kill_slots(&ids)?;
                }
            }
        }
        Ok(())
    }

    fn data(&self, id: NodeId) -> XdmResult<&NodeData> {
        match self.nodes.get(id.index()) {
            Some(d) if d.alive => Ok(d),
            _ => Err(XdmError::dangling(&id.to_string())),
        }
    }

    fn data_mut(&mut self, id: NodeId) -> XdmResult<&mut NodeData> {
        match self.nodes.get_mut(id.index()) {
            Some(d) if d.alive => Ok(d),
            _ => Err(XdmError::dangling(&id.to_string())),
        }
    }

    /// Is `id` an alive node in this store?
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).map(|d| d.alive).unwrap_or(false)
    }

    // ------------------------------------------------------------------
    // Constructors (XDM constructors, paper §3.2)
    // ------------------------------------------------------------------

    /// Create a new, empty document node.
    pub fn new_document(&mut self) -> NodeId {
        self.alloc(NodeKind::Document {
            children: Vec::new(),
        })
    }

    /// Create a new, parentless element node with no content.
    pub fn new_element(&mut self, name: QName) -> NodeId {
        let name = self.symbols.intern_qname(&name);
        self.alloc(NodeKind::Element {
            name,
            attributes: Vec::new(),
            children: Vec::new(),
        })
    }

    /// Create a new, parentless attribute node.
    pub fn new_attribute(&mut self, name: QName, value: impl Into<String>) -> NodeId {
        let name = self.symbols.intern_qname(&name);
        self.alloc(NodeKind::Attribute {
            name,
            value: value.into(),
        })
    }

    /// Create a new, parentless text node.
    pub fn new_text(&mut self, content: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Text {
            content: content.into(),
        })
    }

    /// Create a new, parentless comment node.
    pub fn new_comment(&mut self, content: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Comment {
            content: content.into(),
        })
    }

    /// Create a new, parentless processing-instruction node.
    pub fn new_pi(&mut self, target: impl Into<String>, content: impl Into<String>) -> NodeId {
        let target = self.symbols.intern(&target.into());
        self.alloc(NodeKind::Pi {
            target,
            content: content.into(),
        })
    }

    /// The store's symbol table (read access: name lookups, resolution).
    pub fn symbols(&self) -> &Symbols {
        &self.symbols
    }

    // ------------------------------------------------------------------
    // Secondary indexes (DESIGN.md §17; docs/INDEXES.md)
    // ------------------------------------------------------------------

    /// Is the index plane available to the planner? Maintenance is
    /// unconditional (O(1) per affected mutation); this flag only gates
    /// `,idx` plan selection.
    pub fn index_enabled(&self) -> bool {
        self.index.enabled()
    }

    /// Toggle planner availability of the index plane. A real change
    /// bumps [`Store::index_epoch`], which plan caches fold into their
    /// keys so a cached `,idx` plan never outlives its index.
    pub fn set_indexing(&mut self, on: bool) {
        self.index.set_enabled(on);
    }

    /// The index availability epoch (bumped per toggle).
    pub fn index_epoch(&self) -> u64 {
        self.index.epoch()
    }

    /// Alive element count — the cost gate's selectivity denominator.
    pub fn indexed_elements(&self) -> usize {
        self.index.elements()
    }

    /// Number of alive elements named `name` anywhere in the store
    /// (0 when none — bucket absence *is* an exact answer).
    pub fn index_name_len(&self, name: QNameId) -> usize {
        self.index.name_len(name)
    }

    /// [`Store::index_name_len`] from a lexical name (tests, REPL).
    pub fn index_name_len_lexical(&self, lexical: &str) -> usize {
        match self.symbols.lookup_lexical(lexical) {
            Some(q) => self.index.name_len(q),
            None => 0,
        }
    }

    /// Append every alive element named `name` to `out` — store-global
    /// and unordered; callers filter by containment against their scan
    /// origins and doc-order sort the result. Traces a NAME read per
    /// hit when a read-tracing capture is attached, but planners must
    /// not *select* index scans while tracing: the absence of a match
    /// is an existence read no per-node footprint can express.
    pub fn index_name_nodes(&self, name: QNameId, out: &mut Vec<NodeId>) {
        if let Some(bucket) = self.index.name_bucket(name) {
            for &id in bucket {
                self.trace_read(id, aspect::NAME);
                out.push(id);
            }
        }
    }

    /// Upper bound on the number of alive attributes named `name` with
    /// value `value` (hash-bucket size; collisions inflate it).
    pub fn index_attr_len(&self, name: QNameId, value: &str) -> usize {
        self.index.attr_len(name, value_hash(value))
    }

    /// Append every alive attribute node named `name` whose value
    /// equals `value` *exactly* to `out` (the hash bucket is re-checked
    /// here, so collisions cost a string compare, never a wrong
    /// answer). Same contract and tracing caveats as
    /// [`Store::index_name_nodes`].
    pub fn index_attr_nodes(&self, name: QNameId, value: &str, out: &mut Vec<NodeId>) {
        if let Some(bucket) = self.index.attr_bucket(name, value_hash(value)) {
            for &id in bucket {
                if let Some(NodeData {
                    kind: NodeKind::Attribute { value: v, .. },
                    alive: true,
                    ..
                }) = self.nodes.get(id.index())
                {
                    if v == value {
                        self.trace_read(id, aspect::NAME | aspect::VALUE);
                        out.push(id);
                    }
                }
            }
        }
    }

    /// Is a read-tracing Δ capture attached? The executor refuses
    /// index scans while tracing (see [`Store::index_name_nodes`]) and
    /// falls back to the batch kernels, whose footprints are exact.
    pub fn tracing_reads(&self) -> bool {
        self.capture.as_deref().is_some_and(Capture::is_tracing)
    }

    /// Does the plane hold exactly the entries a from-scratch rebuild
    /// would? The maintenance-equivalence oracle for the proptests.
    pub fn index_verify(&self) -> bool {
        self.index.matches_rebuild(&self.nodes)
    }

    /// The index plane itself (copy-on-write structure tests).
    #[cfg(test)]
    pub(crate) fn index_plane(&self) -> &IndexPlane {
        &self.index
    }

    // ------------------------------------------------------------------
    // Accessors
    //
    // The public accessors trace their reads into an attached Δ capture
    // (DESIGN.md §16): each records which *aspect* of the node shaped the
    // answer. Mutator internals use the `_raw` variants — replaying a Δ
    // re-validates preconditions and recomputes splice positions on the
    // live store, so those reads need no validation.
    // ------------------------------------------------------------------

    /// The node's kind and payload.
    pub fn kind(&self, id: NodeId) -> XdmResult<&NodeKind> {
        self.trace_read(
            id,
            aspect::NAME | aspect::VALUE | aspect::CHILDREN | aspect::ATTRS,
        );
        Ok(&self.data(id)?.kind)
    }

    /// The node's parent, if attached.
    pub fn parent(&self, id: NodeId) -> XdmResult<Option<NodeId>> {
        self.trace_read(id, aspect::PARENT);
        Ok(self.data(id)?.parent)
    }

    /// The node's children (empty for non-containers).
    pub fn children(&self, id: NodeId) -> XdmResult<&[NodeId]> {
        self.trace_read(id, aspect::CHILDREN);
        self.children_raw(id)
    }

    fn children_raw(&self, id: NodeId) -> XdmResult<&[NodeId]> {
        Ok(match &self.data(id)?.kind {
            NodeKind::Document { children } | NodeKind::Element { children, .. } => children,
            _ => &[],
        })
    }

    /// The node's attribute nodes (empty for non-elements).
    pub fn attributes(&self, id: NodeId) -> XdmResult<&[NodeId]> {
        self.trace_read(id, aspect::ATTRS);
        self.attributes_raw(id)
    }

    fn attributes_raw(&self, id: NodeId) -> XdmResult<&[NodeId]> {
        Ok(match &self.data(id)?.kind {
            NodeKind::Element { attributes, .. } => attributes,
            _ => &[],
        })
    }

    /// The node's name (elements and attributes; `None` otherwise),
    /// materialized lexically. Hot paths should prefer
    /// [`Store::name_id`], which is alloc-free.
    pub fn name(&self, id: NodeId) -> XdmResult<Option<QName>> {
        Ok(self.name_id(id)?.map(|q| self.symbols.resolve_qname(q)))
    }

    /// The node's interned name (elements and attributes; `None`
    /// otherwise). Within one store, equal ids ⇔ equal lexical names.
    pub fn name_id(&self, id: NodeId) -> XdmResult<Option<QNameId>> {
        self.trace_read(id, aspect::NAME);
        self.name_id_raw(id)
    }

    fn name_id_raw(&self, id: NodeId) -> XdmResult<Option<QNameId>> {
        Ok(match &self.data(id)?.kind {
            NodeKind::Element { name, .. } | NodeKind::Attribute { name, .. } => Some(*name),
            _ => None,
        })
    }

    /// Look up an attribute of `element` by (unprefixed) name; returns
    /// the attribute node. An interner miss means no node anywhere bears
    /// the name, so the attribute list is not even scanned.
    pub fn attribute_by_name(&self, element: NodeId, name: &str) -> XdmResult<Option<NodeId>> {
        let wanted = match self.symbols.lookup(name) {
            Some(s) => s,
            None => {
                // Even an interner miss is a read of the attribute list:
                // a committed Δ attaching this attribute would change the
                // answer, so the miss path must stay validated.
                self.trace_read(element, aspect::ATTRS);
                self.data(element)?; // preserve dangling-id errors
                return Ok(None);
            }
        };
        for &a in self.attributes(element)? {
            if let NodeKind::Attribute { name: n, .. } = self.kind(a)? {
                if n.prefix().is_none() && n.local() == wanted {
                    return Ok(Some(a));
                }
            }
        }
        Ok(None)
    }

    /// The XDM string value: concatenated descendant text for containers,
    /// content for the leaf kinds.
    pub fn string_value(&self, id: NodeId) -> XdmResult<String> {
        self.trace_read(id, aspect::VALUE);
        match &self.data(id)?.kind {
            NodeKind::Attribute { value, .. } => Ok(value.clone()),
            NodeKind::Text { content } | NodeKind::Comment { content } => Ok(content.clone()),
            NodeKind::Pi { content, .. } => Ok(content.clone()),
            NodeKind::Document { .. } | NodeKind::Element { .. } => {
                let mut out = String::new();
                self.collect_text(id, &mut out)?;
                Ok(out)
            }
        }
    }

    /// Concatenate descendant text into `out`. Iterative with an
    /// explicit stack: `string_value` on a pathologically deep document
    /// must error or succeed, never abort the process on stack overflow
    /// (same treatment the parsers and serializers got).
    fn collect_text(&self, id: NodeId, out: &mut String) -> XdmResult<()> {
        let mut stack: Vec<NodeId> = vec![id];
        while let Some(n) = stack.pop() {
            self.trace_read(n, aspect::VALUE | aspect::CHILDREN);
            match &self.data(n)?.kind {
                NodeKind::Text { content } => out.push_str(content),
                NodeKind::Document { children } | NodeKind::Element { children, .. } => {
                    stack.extend(children.iter().rev().copied());
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The root of the tree containing `id` (follows parent links; a
    /// detached node is its own root).
    pub fn root(&self, id: NodeId) -> XdmResult<NodeId> {
        let mut cur = id;
        while let Some(p) = self.parent(cur)? {
            cur = p;
        }
        Ok(cur)
    }

    /// All descendants of `id` in document (preorder) order, not including
    /// `id` itself. Attributes are *not* descendants (XDM).
    pub fn descendants(&self, id: NodeId) -> XdmResult<Vec<NodeId>> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = self.children(id)?.iter().rev().copied().collect();
        while let Some(n) = stack.pop() {
            out.push(n);
            for &c in self.children(n)?.iter().rev() {
                stack.push(c);
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Batch step kernels (DESIGN.md §14): one call per path step over a
    // whole batch of origin nodes, with the node test pre-resolved to
    // interned ids so the per-node check is a couple of integer compares.
    // ------------------------------------------------------------------

    /// Does `node` satisfy `test`? `principal_attr` selects the principal
    /// node kind (attribute on the attribute axis, element elsewhere).
    /// Alloc-free: name tests compare interned ids.
    #[inline]
    pub fn kernel_matches(
        &self,
        node: NodeId,
        principal_attr: bool,
        test: KernelTest,
    ) -> XdmResult<bool> {
        // A node's kind *category* is fixed at birth, so kind tests read
        // nothing mutable; only the name comparison does.
        self.trace_read(node, aspect::NAME);
        let kind = &self.data(node)?.kind;
        Ok(match test {
            KernelTest::AnyKind => true,
            KernelTest::Text => matches!(kind, NodeKind::Text { .. }),
            KernelTest::Comment => matches!(kind, NodeKind::Comment { .. }),
            KernelTest::Pi => matches!(kind, NodeKind::Pi { .. }),
            KernelTest::Element => matches!(kind, NodeKind::Element { .. }),
            KernelTest::AttributeTest => matches!(kind, NodeKind::Attribute { .. }),
            KernelTest::Document => matches!(kind, NodeKind::Document { .. }),
            KernelTest::Wildcard => {
                if principal_attr {
                    matches!(kind, NodeKind::Attribute { .. })
                } else {
                    matches!(kind, NodeKind::Element { .. })
                }
            }
            KernelTest::Name(wanted) => {
                let name = match kind {
                    NodeKind::Element { name, .. } if !principal_attr => Some(*name),
                    NodeKind::Attribute { name, .. } if principal_attr => Some(*name),
                    _ => None,
                };
                match (name, wanted) {
                    (Some(n), Some(w)) => n == w,
                    _ => false,
                }
            }
        })
    }

    /// Child-axis kernel: append to `out` every child of every node in
    /// `input` that satisfies `test`. `out` is *not* cleared — callers
    /// own the buffer lifecycle — and is *not* doc-order normalized
    /// (when an input node is an ancestor of another, child batches can
    /// interleave); the driver applies `sort_and_dedup_with` per step.
    pub fn batch_children_into(
        &self,
        input: &[NodeId],
        test: KernelTest,
        out: &mut Vec<NodeId>,
    ) -> XdmResult<()> {
        for &origin in input {
            for &c in self.children(origin)? {
                if self.kernel_matches(c, false, test)? {
                    out.push(c);
                }
            }
        }
        Ok(())
    }

    /// Descendant-axis kernel (`or_self` widens to descendant-or-self).
    /// Uses the scratch gather buffer as the DFS stack, so steady-state
    /// traversal allocates nothing. Same output contract as
    /// [`Store::batch_children_into`].
    pub fn batch_descendants_into(
        &self,
        input: &[NodeId],
        test: KernelTest,
        or_self: bool,
        scratch: &mut Scratch,
        out: &mut Vec<NodeId>,
    ) -> XdmResult<()> {
        let stack = &mut scratch.gather;
        for &origin in input {
            if or_self && self.kernel_matches(origin, false, test)? {
                out.push(origin);
            }
            stack.clear();
            stack.extend(self.children(origin)?.iter().rev());
            while let Some(n) = stack.pop() {
                if self.kernel_matches(n, false, test)? {
                    out.push(n);
                }
                for &c in self.children(n)?.iter().rev() {
                    stack.push(c);
                }
            }
        }
        Ok(())
    }

    /// Attribute-axis kernel: the principal node kind is attribute. Same
    /// output contract as [`Store::batch_children_into`].
    pub fn batch_attributes_into(
        &self,
        input: &[NodeId],
        test: KernelTest,
        out: &mut Vec<NodeId>,
    ) -> XdmResult<()> {
        for &origin in input {
            for &a in self.attributes(origin)? {
                if self.kernel_matches(a, true, test)? {
                    out.push(a);
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Tree building (used during construction/parsing, before any node id
    // escapes into query values; same preconditions as insertion)
    // ------------------------------------------------------------------

    /// Append `child` as the last child of `parent`.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> XdmResult<()> {
        self.apply_insert(&[child], parent, InsertAnchor::Last)
    }

    /// Attach `attr` (an attribute node) to `element`.
    ///
    /// Precondition: `attr` is a parentless attribute node, `element` is an
    /// element, and no attribute with the same name is present.
    pub fn attach_attribute(&mut self, element: NodeId, attr: NodeId) -> XdmResult<()> {
        if self.data(attr)?.parent.is_some() {
            return Err(XdmError::precondition("attribute already has a parent"));
        }
        let next_attr_okey = {
            let attrs = self.attributes_raw(element)?;
            match attrs.last() {
                Some(&last) => self.data(last)?.okey.saturating_add(Self::OKEY_STRIDE),
                None => Self::OKEY_STRIDE,
            }
        };
        let attr_name = match &self.data(attr)?.kind {
            NodeKind::Attribute { name, .. } => *name,
            k => {
                return Err(XdmError::precondition(format!(
                    "attach_attribute expects an attribute node, got {}",
                    k.kind_name()
                )))
            }
        };
        for &existing in self.attributes_raw(element)? {
            if self.name_id_raw(existing)? == Some(attr_name) {
                return Err(XdmError::precondition(format!(
                    "duplicate attribute \"{}\"",
                    self.symbols.qname_string(attr_name)
                )));
            }
        }
        match &mut self.data_mut(element)?.kind {
            NodeKind::Element { attributes, .. } => attributes.push(attr),
            k => {
                let k = k.kind_name();
                return Err(XdmError::precondition(format!(
                    "cannot attach attribute to {k} node"
                )));
            }
        }
        if self.journaling() {
            self.undo.push(UndoEntry::AttrPush { element });
        }
        let old_okey = {
            let a = self.data_mut(attr)?;
            a.parent = Some(element);
            std::mem::replace(&mut a.okey, next_attr_okey)
        };
        if self.journaling() {
            self.undo.push(UndoEntry::Okey {
                id: attr,
                okey: old_okey,
            });
        }
        if self.logging() {
            self.wal_record(RedoOp::AttachAttr { element, attr });
        }
        self.cap_write(element, aspect::ATTRS);
        self.cap_write(attr, aspect::PARENT);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Update-request applications (paper §3.2: partial functions on stores)
    // ------------------------------------------------------------------

    /// Apply `insert(nodeseq, nodepar, nodepos)`: splice the nodes of `seq`
    /// into `parent`'s children at `anchor`.
    ///
    /// Preconditions (the paper's, plus cycle safety):
    /// * every node of `seq` is alive, parentless, and not an attribute or
    ///   document node;
    /// * `parent` is a container (document or element);
    /// * an `After(pos)` anchor names a current child of `parent`;
    /// * no node of `seq` is `parent` itself or an ancestor of `parent`.
    pub fn apply_insert(
        &mut self,
        seq: &[NodeId],
        parent: NodeId,
        anchor: InsertAnchor,
    ) -> XdmResult<()> {
        if !self.data(parent)?.kind.is_container() {
            return Err(XdmError::precondition(format!(
                "insertion parent {parent} is a {} node",
                self.data(parent)?.kind.kind_name()
            )));
        }
        // Cycle detection without an eager ancestor walk: a strict
        // ancestor of `parent` necessarily has at least one child (the
        // one on the path down to `parent`), so a childless inserted
        // node can never close a cycle. Fresh nodes — the overwhelming
        // majority of inserts, and every append in a deep-tree build —
        // therefore skip the O(depth) walk entirely; we only collect
        // the ancestor set once some inserted node already has children.
        let mut ancestors: Option<HashSet<NodeId>> = None;
        for &n in seq {
            let d = self.data(n)?;
            if d.parent.is_some() {
                return Err(XdmError::precondition(format!(
                    "inserted node {n} has a parent"
                )));
            }
            let has_children = match &d.kind {
                NodeKind::Attribute { .. } => {
                    return Err(XdmError::precondition(
                        "cannot insert an attribute node as a child",
                    ))
                }
                NodeKind::Document { .. } => {
                    return Err(XdmError::precondition(
                        "cannot insert a document node as a child",
                    ))
                }
                NodeKind::Element { children, .. } => !children.is_empty(),
                _ => false,
            };
            if n == parent {
                return Err(XdmError::precondition(format!(
                    "inserting {n} under {parent} would create a cycle"
                )));
            }
            if has_children {
                if ancestors.is_none() {
                    let mut set = HashSet::new();
                    let mut cur = Some(parent);
                    while let Some(a) = cur {
                        set.insert(a);
                        cur = self.data(a)?.parent;
                    }
                    ancestors = Some(set);
                }
                if ancestors.as_ref().is_some_and(|set| set.contains(&n)) {
                    return Err(XdmError::precondition(format!(
                        "inserting {n} under {parent} would create a cycle"
                    )));
                }
            }
        }
        let index = {
            let children = self.children_raw(parent)?;
            match anchor {
                InsertAnchor::First => 0,
                InsertAnchor::Last => children.len(),
                InsertAnchor::After(pos) => match children.iter().position(|&c| c == pos) {
                    Some(i) => i + 1,
                    None => {
                        return Err(XdmError::precondition(format!(
                            "anchor {pos} is not a child of {parent}"
                        )))
                    }
                },
            }
        };
        match &mut self.data_mut(parent)?.kind {
            NodeKind::Document { children } | NodeKind::Element { children, .. } => {
                children.splice(index..index, seq.iter().copied());
            }
            _ => unreachable!("checked container above"),
        }
        if self.journaling() {
            self.undo.push(UndoEntry::Splice {
                parent,
                index,
                count: seq.len(),
            });
        }
        for &n in seq {
            self.data_mut(n)?.parent = Some(parent);
        }
        self.assign_order_keys(parent, index, seq.len())?;
        if self.logging() {
            // Order keys are not logged: replay re-runs this very method,
            // which recomputes them (and any renumbering) identically.
            self.wal_record(RedoOp::Insert {
                seq: seq.to_vec(),
                parent,
                anchor,
            });
        }
        self.cap_write(parent, aspect::CHILDREN);
        for &n in seq {
            self.cap_write(n, aspect::PARENT);
        }
        Ok(())
    }

    /// Gap spacing for freshly (re)numbered sibling order keys.
    const OKEY_STRIDE: u64 = 1 << 32;

    /// Assign sibling order keys to `count` children of `parent` starting
    /// at `index`, spacing them evenly inside the gap left by their
    /// neighbours; renumber the whole child list when the gap is too
    /// tight (amortized rare).
    fn assign_order_keys(&mut self, parent: NodeId, index: usize, count: usize) -> XdmResult<()> {
        if count == 0 {
            return Ok(());
        }
        let children: Vec<NodeId> = self.children_raw(parent)?.to_vec();
        let lo = if index == 0 {
            0
        } else {
            self.data(children[index - 1])?.okey
        };
        let hi = if index + count == children.len() {
            u64::MAX
        } else {
            self.data(children[index + count])?.okey
        };
        let span = hi - lo;
        let journaling = self.journaling();
        if span <= count as u64 {
            // Gap exhausted: renumber every child with fresh stride.
            for (i, &c) in children.iter().enumerate() {
                let old = std::mem::replace(
                    &mut self.data_mut(c)?.okey,
                    (i as u64 + 1) * Self::OKEY_STRIDE,
                );
                if journaling {
                    self.undo.push(UndoEntry::Okey { id: c, okey: old });
                }
            }
            return Ok(());
        }
        // Cap the step at one stride: bisecting the full remaining span
        // would halve the tail gap on every end-anchored insert and force a
        // full renumber every ~64 appends; with the cap, appends consume the
        // key space linearly and renumbering stays genuinely rare.
        let step = (span / (count as u64 + 1)).min(Self::OKEY_STRIDE);
        for (j, &c) in children[index..index + count].iter().enumerate() {
            let old = std::mem::replace(&mut self.data_mut(c)?.okey, lo + step * (j as u64 + 1));
            if journaling {
                self.undo.push(UndoEntry::Okey { id: c, okey: old });
            }
        }
        Ok(())
    }

    /// Apply `delete(node)` with the paper's **detach** semantics (§3.1):
    /// the node is removed from its parent's child/attribute list but stays
    /// alive and queryable; detaching an already-detached node is a no-op.
    pub fn detach(&mut self, node: NodeId) -> XdmResult<()> {
        let parent = match self.data(node)?.parent {
            Some(p) => p,
            None => return Ok(()),
        };
        // (index, was-in-attribute-list); found first so the undo journal
        // can reinsert the node at its exact position.
        let removed: Option<(usize, bool)> = match &mut self.data_mut(parent)?.kind {
            NodeKind::Document { children } => children.iter().position(|&c| c == node).map(|i| {
                children.remove(i);
                (i, false)
            }),
            NodeKind::Element {
                attributes,
                children,
                ..
            } => {
                if let Some(i) = children.iter().position(|&c| c == node) {
                    children.remove(i);
                    Some((i, false))
                } else {
                    attributes.iter().position(|&a| a == node).map(|i| {
                        attributes.remove(i);
                        (i, true)
                    })
                }
            }
            _ => None,
        };
        self.data_mut(node)?.parent = None;
        if self.journaling() {
            match removed {
                Some((index, in_attributes)) => self.undo.push(UndoEntry::Detach {
                    node,
                    parent,
                    index,
                    in_attributes,
                }),
                None => self.undo.push(UndoEntry::Parent {
                    id: node,
                    parent: Some(parent),
                }),
            }
        }
        if self.logging() {
            self.wal_record(RedoOp::Detach { node });
        }
        self.cap_write(node, aspect::PARENT);
        // Conservative: the entry may have been in either list.
        self.cap_write(parent, aspect::CHILDREN | aspect::ATTRS);
        Ok(())
    }

    /// Apply `rename(node, name)`. Precondition: the node is an element or
    /// attribute.
    pub fn apply_rename(&mut self, node: NodeId, name: QName) -> XdmResult<()> {
        let logged = self.logging().then(|| name.clone());
        let name = self.symbols.intern_qname(&name);
        let old = match &mut self.data_mut(node)?.kind {
            NodeKind::Element { name: n, .. } | NodeKind::Attribute { name: n, .. } => {
                std::mem::replace(n, name)
            }
            k => {
                let k = k.kind_name();
                return Err(XdmError::precondition(format!("cannot rename a {k} node")));
            }
        };
        let moved = match &self.nodes[node.index()].kind {
            NodeKind::Element { .. } => Some(None),
            NodeKind::Attribute { value, .. } => Some(Some(value_hash(value))),
            _ => None,
        };
        match moved {
            Some(None) => self.index.move_element(old, name, node),
            Some(Some(vh)) => self.index.move_attr((old, vh), (name, vh), node),
            None => {}
        }
        if self.journaling() {
            self.undo.push(UndoEntry::Name {
                id: node,
                name: old,
            });
        }
        if let Some(name) = logged {
            self.wal_record(RedoOp::Rename { node, name });
        }
        self.cap_write(node, aspect::NAME);
        Ok(())
    }

    /// Replace the textual content of a text node (used by `replace` on
    /// text, e.g. the paper's counter example `replace {$d/text()} with ...`
    /// goes through insert+delete; this direct setter is used by tests and
    /// the data generator).
    pub fn set_text(&mut self, node: NodeId, content: impl Into<String>) -> XdmResult<()> {
        let content = content.into();
        let logged = self.logging().then(|| content.clone());
        let old = match &mut self.data_mut(node)?.kind {
            NodeKind::Text { content: c } => std::mem::replace(c, content),
            k => {
                let k = k.kind_name();
                return Err(XdmError::precondition(format!("set_text on a {k} node")));
            }
        };
        if self.journaling() {
            self.undo.push(UndoEntry::Text {
                id: node,
                content: old,
            });
        }
        if let Some(content) = logged {
            self.wal_record(RedoOp::SetText { node, content });
        }
        self.cap_write(node, aspect::VALUE);
        Ok(())
    }

    /// Set an attribute node's value.
    pub fn set_attribute_value(&mut self, node: NodeId, value: impl Into<String>) -> XdmResult<()> {
        let value = value.into();
        let logged = self.logging().then(|| value.clone());
        let old = match &mut self.data_mut(node)?.kind {
            NodeKind::Attribute { value: v, .. } => std::mem::replace(v, value),
            k => {
                let k = k.kind_name();
                return Err(XdmError::precondition(format!(
                    "set_attribute_value on a {k} node"
                )));
            }
        };
        let moved = match &self.nodes[node.index()].kind {
            NodeKind::Attribute { name, value: new } => {
                Some((*name, value_hash(&old), value_hash(new)))
            }
            _ => None,
        };
        if let Some((name, from, to)) = moved {
            self.index.move_attr((name, from), (name, to), node);
        }
        if self.journaling() {
            self.undo.push(UndoEntry::AttrValue {
                id: node,
                value: old,
            });
        }
        if let Some(value) = logged {
            self.wal_record(RedoOp::SetAttrValue { node, value });
        }
        self.cap_write(node, aspect::VALUE);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Deep copy (the `copy {}` operator and normalization's implicit copy)
    // ------------------------------------------------------------------

    /// Deep-copy the subtree rooted at `node`, returning the parentless
    /// copy's id. Attributes are copied along with elements.
    pub fn deep_copy(&mut self, node: NodeId) -> XdmResult<NodeId> {
        // A copy observes everything about the source node, and it
        // bypasses the public accessors — trace the read here.
        self.trace_read(
            node,
            aspect::NAME | aspect::VALUE | aspect::CHILDREN | aspect::ATTRS,
        );
        // Names are already interned in this store, so copies alloc with
        // the source's ids directly — no resolve/re-intern round trip.
        let kind = self.data(node)?.kind.clone();
        match kind {
            NodeKind::Document { children } => {
                let copy = self.new_document();
                for c in children {
                    let cc = self.deep_copy(c)?;
                    self.append_child(copy, cc)?;
                }
                Ok(copy)
            }
            NodeKind::Element {
                name,
                attributes,
                children,
            } => {
                let copy = self.alloc(NodeKind::Element {
                    name,
                    attributes: Vec::new(),
                    children: Vec::new(),
                });
                for a in attributes {
                    let ac = self.deep_copy(a)?;
                    self.attach_attribute(copy, ac)?;
                }
                for c in children {
                    let cc = self.deep_copy(c)?;
                    self.append_child(copy, cc)?;
                }
                Ok(copy)
            }
            NodeKind::Attribute { name, value } => {
                Ok(self.alloc(NodeKind::Attribute { name, value }))
            }
            NodeKind::Text { content } => Ok(self.new_text(content)),
            NodeKind::Comment { content } => Ok(self.new_comment(content)),
            NodeKind::Pi { target, content } => Ok(self.alloc(NodeKind::Pi { target, content })),
        }
    }

    // ------------------------------------------------------------------
    // Document order (paper §4.1: "document order maintenance" is one of
    // the two significant data-model challenges)
    // ------------------------------------------------------------------

    /// Compare two nodes in document order. Nodes in different trees are
    /// ordered by their roots' ids (stable, implementation-defined, as the
    /// XDM allows). An attribute sorts after its owner element and before
    /// the element's children, mirroring the XDM rule.
    pub fn cmp_doc_order(&self, a: NodeId, b: NodeId) -> XdmResult<Ordering> {
        if a == b {
            return Ok(Ordering::Equal);
        }
        let ka = self.order_key(a)?;
        let kb = self.order_key(b)?;
        Ok(ka.cmp(&kb))
    }

    /// The document-order key of a node: root id, then for each ancestor
    /// step the pair `(kind-rank, sibling-order-key)`. Attributes rank 0 so
    /// they sort right after their owner element and before its children
    /// (the XDM rule); other nodes rank 1 with their gap-based order key.
    /// O(depth) — no sibling scanning (see [`NodeData::okey`]).
    fn order_key(&self, node: NodeId) -> XdmResult<Vec<(u64, u64)>> {
        let mut key = Vec::new();
        self.order_key_into(node, &mut key)?;
        Ok(key)
    }

    /// [`Store::order_key`] into a caller-owned buffer (cleared first),
    /// so keyed sorting can recycle its key allocations.
    fn order_key_into(&self, node: NodeId, key: &mut Vec<(u64, u64)>) -> XdmResult<()> {
        key.clear();
        let mut cur = node;
        while let Some(p) = self.parent(cur)? {
            let d = self.data(cur)?;
            let rank = if matches!(d.kind, NodeKind::Attribute { .. }) {
                0
            } else {
                1
            };
            key.push((rank, d.okey));
            cur = p;
        }
        key.push((u64::from(cur.0), 0));
        key.reverse();
        Ok(())
    }

    /// The pre-optimization document-order comparison: recomputes sibling
    /// positions by scanning each ancestor's child list — O(depth · fanout)
    /// per comparison. Kept as the baseline for the document-order
    /// maintenance ablation (experiment E9); semantics identical to
    /// [`Store::cmp_doc_order`].
    pub fn cmp_doc_order_scan(&self, a: NodeId, b: NodeId) -> XdmResult<Ordering> {
        if a == b {
            return Ok(Ordering::Equal);
        }
        Ok(self.order_key_scan(a)?.cmp(&self.order_key_scan(b)?))
    }

    fn order_key_scan(&self, node: NodeId) -> XdmResult<Vec<(u64, u64)>> {
        let mut rev: Vec<(u64, u64)> = Vec::new();
        let mut cur = node;
        while let Some(p) = self.parent(cur)? {
            if let Some(i) = self.attributes(p)?.iter().position(|&x| x == cur) {
                rev.push((0, i as u64));
            } else if let Some(i) = self.children(p)?.iter().position(|&x| x == cur) {
                rev.push((1, i as u64));
            } else {
                return Err(XdmError::precondition(format!(
                    "node {cur} has parent {p} but is not among its children/attributes"
                )));
            }
            cur = p;
        }
        let mut key = vec![(u64::from(cur.0), 0)];
        rev.reverse();
        key.extend(rev);
        Ok(key)
    }

    /// Sort a node sequence in document order and remove duplicates (the
    /// `ddo` applied to every path-expression step result). Allocates
    /// fresh scratch space; hot loops should hold a [`Scratch`] and call
    /// [`Store::sort_and_dedup_with`].
    pub fn sort_and_dedup(&self, nodes: &mut Vec<NodeId>) -> XdmResult<()> {
        self.sort_and_dedup_with(nodes, &mut Scratch::new())
    }

    /// [`Store::sort_and_dedup`] reusing the caller's scratch buffers:
    /// in steady state (sequence length not exceeding any prior call's)
    /// this performs no allocation at all.
    pub fn sort_and_dedup_with(
        &self,
        nodes: &mut Vec<NodeId>,
        scratch: &mut Scratch,
    ) -> XdmResult<()> {
        match nodes[..] {
            [] => return Ok(()),
            [n] => {
                // Keep the dangling-id error the keyed path would raise.
                self.data(n)?;
                return Ok(());
            }
            _ => {}
        }
        while scratch.keyed.len() < nodes.len() {
            scratch.keyed.push((Vec::new(), NodeId(0)));
        }
        let keyed = &mut scratch.keyed[..nodes.len()];
        for (slot, &n) in keyed.iter_mut().zip(nodes.iter()) {
            self.order_key_into(n, &mut slot.0)?;
            slot.1 = n;
        }
        // Unstable sort: a node's order key is unique, and duplicates of
        // the same node are bitwise-equal pairs, so instability is
        // unobservable — and unlike the stable sort it allocates no merge
        // buffer, which the steady-state allocation pin relies on.
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        nodes.clear();
        for (_, n) in keyed.iter() {
            // Duplicates are adjacent after the sort (a node's key is
            // unique), so dedup is a last-pushed check.
            if nodes.last() != Some(n) {
                nodes.push(*n);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reachability & garbage (paper §4.1: "garbage collection of persistent
    // but unreachable nodes, resulting from the detach semantics")
    // ------------------------------------------------------------------

    /// Statistics on reachable vs garbage nodes with respect to `roots`.
    pub fn stats(&self, roots: &[NodeId]) -> XdmResult<StoreStats> {
        let reachable = self.reachable_set(roots)?;
        let alive = self.len();
        Ok(StoreStats {
            alive,
            reachable: reachable.len(),
            garbage: alive - reachable.len(),
        })
    }

    fn reachable_set(&self, roots: &[NodeId]) -> XdmResult<HashSet<NodeId>> {
        let mut seen = HashSet::new();
        let mut stack: Vec<NodeId> = Vec::new();
        for &r in roots {
            // Reachability is from the root of each referenced tree: holding
            // any node keeps its whole tree alive (parent links are live).
            stack.push(self.root(r)?);
        }
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            for &c in self.children(n)? {
                stack.push(c);
            }
            for &a in self.attributes(n)? {
                stack.push(a);
            }
        }
        Ok(seen)
    }

    /// Reclaim every alive node not reachable from `roots`. Returns the
    /// number of reclaimed slots. After collection, dereferencing a
    /// reclaimed id yields a dangling-id error; callers must ensure no such
    /// ids are still held (this is the explicit-GC contract the paper's
    /// "beyond the scope" remark leaves open, which we make concrete).
    pub fn collect_garbage(&mut self, roots: &[NodeId]) -> XdmResult<usize> {
        let reachable = self.reachable_set(roots)?;
        let journaling = self.journaling();
        let logging = self.logging();
        let mut collected = Vec::new();
        let mut reclaimed = 0;
        for i in 0..self.nodes.len() {
            let id = NodeId(i as u32);
            if self.nodes[i].alive && !reachable.contains(&id) {
                let okey = self.nodes[i].okey;
                let dead = NodeData {
                    parent: None,
                    kind: NodeKind::Text {
                        content: String::new(),
                    },
                    alive: false,
                    okey,
                };
                let data = std::mem::replace(&mut self.nodes[i], dead);
                self.index.note_death(&data.kind, id);
                if journaling {
                    self.undo.push(UndoEntry::Collected {
                        id,
                        data: Box::new(data),
                    });
                }
                if logging {
                    collected.push(id);
                }
                self.free.push(id);
                reclaimed += 1;
            }
        }
        if !collected.is_empty() {
            if let Some(c) = &mut self.capture {
                // As in reclaim_unreachable: collecting base-snapshot
                // nodes is a whole-store effect for conflict purposes.
                if collected.iter().any(|&id| !c.is_fresh(id)) {
                    c.set_global();
                }
            }
            self.wal_record(RedoOp::Collect { ids: collected });
        }
        Ok(reclaimed)
    }

    // ------------------------------------------------------------------
    // Durability (ISSUE 6; docs/DURABILITY.md). The redo log records the
    // forward image of every committed mutation; replay reconstructs the
    // store — node ids, order keys and free list included — by re-running
    // the same mutators over the same history.
    // ------------------------------------------------------------------

    /// Open (or create) a durable store rooted at `dir`: load the
    /// checkpoint snapshot if one exists (CRC- and fingerprint-verified),
    /// replay the redo log's committed batches, drop any corrupt tail
    /// with a warning, and re-attach the log for appending. See
    /// docs/DURABILITY.md for the recovery algorithm.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        sync: SyncMode,
    ) -> XdmResult<(Store, RecoveryReport)> {
        wal::recover(dir.as_ref(), sync)
    }

    /// Attach a fresh durable log at `dir` to *this* store, persisting
    /// its current contents as the initial checkpoint (the REPL's
    /// `:save`). Any previous store files in `dir` are replaced.
    /// Precondition: no undo frame is open.
    pub fn save_durable(&mut self, dir: impl AsRef<Path>, sync: SyncMode) -> XdmResult<()> {
        if !self.frames.is_empty() {
            return Err(XdmError::precondition(
                "save_durable inside an open undo frame",
            ));
        }
        let w = Wal::open(dir.as_ref(), sync, 0, Some(0))?;
        self.wal = Some(Box::new(w));
        self.checkpoint()?;
        Ok(())
    }

    pub(crate) fn attach_wal(&mut self, wal: Box<Wal>) {
        self.wal = Some(wal);
    }

    /// Detach the durable log, if any: the store becomes purely
    /// in-memory again and the files in the store directory keep their
    /// last committed state.
    pub fn detach_wal(&mut self) {
        self.wal = None;
    }

    /// Is a durable log attached?
    pub fn has_wal(&self) -> bool {
        self.wal.is_some()
    }

    /// The attached store directory, if any.
    pub fn store_dir(&self) -> Option<&Path> {
        self.wal.as_deref().map(Wal::dir)
    }

    /// Set the fsync policy of the attached log (no-op without one).
    pub fn set_durability(&mut self, sync: SyncMode) {
        if let Some(w) = &mut self.wal {
            w.set_sync(sync);
        }
    }

    /// The attached log's fsync policy, if any.
    pub fn durability(&self) -> Option<SyncMode> {
        self.wal.as_deref().map(Wal::sync_mode)
    }

    /// Make every redo op recorded since the last commit durable: flush
    /// them with a commit marker and fsync per the sync policy. Returns
    /// `Ok(None)` when there is nothing to commit, no log is attached,
    /// or an undo frame is still open (an open frame means the ops are
    /// not yet commitment — the paper's §2.3 rule).
    /// Stamp the next WAL commit with an interleaved-committer info
    /// record `(session, base_epoch)` (no-op without a log).
    pub fn wal_note_committer(&mut self, session: u64, base_epoch: u64) {
        if let Some(w) = &mut self.wal {
            w.note_committer(session, base_epoch);
        }
    }

    pub fn wal_commit(&mut self) -> XdmResult<Option<CommitReceipt>> {
        if !self.frames.is_empty() {
            return Ok(None);
        }
        match &mut self.wal {
            Some(w) => w.commit_pending(),
            None => Ok(None),
        }
    }

    /// Is an automatic checkpoint due (commit count since the last one
    /// reached `XQB_CHECKPOINT_EVERY`)?
    pub fn checkpoint_due(&self) -> bool {
        self.wal.as_deref().is_some_and(Wal::checkpoint_due)
    }

    /// Write a compacted checkpoint: commit anything pending, snapshot
    /// the full store (with its fingerprint and the current LSN) to
    /// `checkpoint.tmp`, fsync, rename over `checkpoint.bin`, then
    /// truncate the log — recovery time becomes bounded by data size,
    /// not history length. Returns the snapshot size in bytes, or `None`
    /// when no log is attached or a frame is open.
    pub fn checkpoint(&mut self) -> XdmResult<Option<u64>> {
        if self.wal.is_none() || !self.frames.is_empty() {
            return Ok(None);
        }
        self.wal_commit()?;
        let fp = self.fingerprint();
        let lsn = self.wal.as_deref().map(Wal::lsn).unwrap_or(0);
        let snapshot = self.snapshot_bytes(lsn, fp);
        self.wal
            .as_mut()
            .expect("checked above")
            .install_checkpoint(&snapshot)?;
        Ok(Some(snapshot.len() as u64))
    }

    /// A deterministic 64-bit fingerprint of the observable store state:
    /// every alive slot's id, kind payload, parent link, child order and
    /// attribute order, plus the free list (which fixes future node-id
    /// allocation). Sibling order *keys* are excluded — they are an
    /// implementation detail whose renumbering is invisible; the child
    /// lists already carry the order. FNV-1a, stable across processes
    /// and toolchains — the canonical store hash shared by recovery
    /// verification, the `xqb:fingerprint()` builtin, and the crash
    /// harness.
    pub fn fingerprint(&self) -> u64 {
        // Names hash lexically (resolved through the interner): the
        // fingerprint predates interning and must stay byte-identical.
        fn qname(h: &mut Fnv64, syms: &Symbols, q: QNameId) {
            let (prefix, local) = syms.qname_parts(q);
            match prefix {
                Some(p) => {
                    h.u8(1);
                    h.str(p);
                }
                None => h.u8(0),
            }
            h.str(local);
        }
        fn ids(h: &mut Fnv64, list: &[NodeId]) {
            h.u32(list.len() as u32);
            for n in list {
                h.u32(n.index() as u32);
            }
        }
        let mut h = Fnv64::new();
        for (i, d) in self.nodes.iter().enumerate() {
            if !d.alive {
                continue;
            }
            h.u32(i as u32);
            match d.parent {
                Some(p) => {
                    h.u8(1);
                    h.u32(p.index() as u32);
                }
                None => h.u8(0),
            }
            match &d.kind {
                NodeKind::Document { children } => {
                    h.u8(0);
                    ids(&mut h, children);
                }
                NodeKind::Element {
                    name,
                    attributes,
                    children,
                } => {
                    h.u8(1);
                    qname(&mut h, &self.symbols, *name);
                    ids(&mut h, attributes);
                    ids(&mut h, children);
                }
                NodeKind::Attribute { name, value } => {
                    h.u8(2);
                    qname(&mut h, &self.symbols, *name);
                    h.str(value);
                }
                NodeKind::Text { content } => {
                    h.u8(3);
                    h.str(content);
                }
                NodeKind::Comment { content } => {
                    h.u8(4);
                    h.str(content);
                }
                NodeKind::Pi { target, content } => {
                    h.u8(5);
                    h.str(self.symbols.resolve(*target));
                    h.str(content);
                }
            }
        }
        h.u8(0xFF);
        for f in &self.free {
            h.u32(f.index() as u32);
        }
        h.finish()
    }

    /// Alive document nodes with no parent, in slot order — the roots a
    /// host rebinds after recovery (bindings are per-session state and
    /// do not survive a restart).
    pub fn document_roots(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| {
                let d = &self.nodes[i];
                d.alive && d.parent.is_none() && matches!(d.kind, NodeKind::Document { .. })
            })
            .map(|i| NodeId(i as u32))
            .collect()
    }

    /// Apply one replayed redo op through the regular mutators (the
    /// caller wraps each committed batch in an undo frame so a failing
    /// batch rolls back and is treated as a corrupt tail).
    pub(crate) fn apply_redo(&mut self, op: &RedoOp) -> XdmResult<()> {
        match op {
            RedoOp::Alloc { id, kind } => {
                // Same history ⇒ same free-list state ⇒ alloc reproduces
                // the logged id; a mismatch means the log is corrupt.
                let got = self.alloc_birth(kind);
                if got != *id {
                    return Err(XdmError::new(
                        "XQB0060",
                        format!("redo allocation mismatch: log says {id}, store allocated {got}"),
                    ));
                }
                Ok(())
            }
            RedoOp::Insert {
                seq,
                parent,
                anchor,
            } => self.apply_insert(seq, *parent, *anchor),
            RedoOp::AttachAttr { element, attr } => self.attach_attribute(*element, *attr),
            RedoOp::Detach { node } => self.detach(*node),
            RedoOp::Rename { node, name } => self.apply_rename(*node, name.clone()),
            RedoOp::SetText { node, content } => self.set_text(*node, content.clone()),
            RedoOp::SetAttrValue { node, value } => self.set_attribute_value(*node, value.clone()),
            RedoOp::Collect { ids } => self.kill_slots(ids),
        }
    }

    /// Allocate a slot from a logged at-birth image: the log records
    /// births lexically, so the names are interned back into *this*
    /// store's symbol table first. Shared by redo replay and Δ rebase.
    fn alloc_birth(&mut self, kind: &BirthKind) -> NodeId {
        let kind = match kind {
            BirthKind::Document => NodeKind::Document { children: vec![] },
            BirthKind::Element { name } => NodeKind::Element {
                name: self.symbols.intern_qname(name),
                attributes: vec![],
                children: vec![],
            },
            BirthKind::Attribute { name, value } => NodeKind::Attribute {
                name: self.symbols.intern_qname(name),
                value: value.clone(),
            },
            BirthKind::Text { content } => NodeKind::Text {
                content: content.clone(),
            },
            BirthKind::Comment { content } => NodeKind::Comment {
                content: content.clone(),
            },
            BirthKind::Pi { target, content } => NodeKind::Pi {
                target: self.symbols.intern(target),
                content: content.clone(),
            },
        };
        self.alloc(kind)
    }

    /// Replay of a [`RedoOp::Collect`]: retire exactly `ids`, in order,
    /// mirroring what the recording collection did (including the undo
    /// journal entries, so a failing batch still rolls back exactly).
    fn kill_slots(&mut self, ids: &[NodeId]) -> XdmResult<()> {
        let journaling = self.journaling();
        for &id in ids {
            let i = id.index();
            if !self.nodes.get(i).map(|d| d.alive).unwrap_or(false) {
                return Err(XdmError::new(
                    "XQB0060",
                    format!("redo collect of non-alive slot {id}"),
                ));
            }
            let okey = self.nodes[i].okey;
            let dead = NodeData {
                parent: None,
                kind: NodeKind::Text {
                    content: String::new(),
                },
                alive: false,
                okey,
            };
            let data = std::mem::replace(&mut self.nodes[i], dead);
            self.index.note_death(&data.kind, id);
            if journaling {
                self.undo.push(UndoEntry::Collected {
                    id,
                    data: Box::new(data),
                });
            }
            self.free.push(id);
        }
        Ok(())
    }

    // Checkpoint snapshot format: SNAP_MAGIC, CRC32 of the body, then the
    // body — last LSN, fingerprint, every slot (alive flag, parent, order
    // key, full kind payload including child/attribute lists), and the
    // free list. Unlike the redo log this is a *physical* image: order
    // keys are stored exactly.

    pub(crate) fn snapshot_bytes(&self, last_lsn: u64, fingerprint: u64) -> Vec<u8> {
        use wal::{put_qname, put_str, put_u32, put_u64};
        fn put_ids(out: &mut Vec<u8>, list: &[NodeId]) {
            put_u32(out, list.len() as u32);
            for n in list {
                put_u32(out, n.index() as u32);
            }
        }
        let mut body = Vec::new();
        put_u64(&mut body, last_lsn);
        put_u64(&mut body, fingerprint);
        put_u32(&mut body, self.nodes.len() as u32);
        for d in self.nodes.iter() {
            body.push(u8::from(d.alive));
            match d.parent {
                Some(p) => {
                    body.push(1);
                    put_u32(&mut body, p.index() as u32);
                }
                None => body.push(0),
            }
            put_u64(&mut body, d.okey);
            match &d.kind {
                NodeKind::Document { children } => {
                    body.push(0);
                    put_ids(&mut body, children);
                }
                NodeKind::Element {
                    name,
                    attributes,
                    children,
                } => {
                    body.push(1);
                    put_qname(&mut body, &self.symbols.resolve_qname(*name));
                    put_ids(&mut body, attributes);
                    put_ids(&mut body, children);
                }
                NodeKind::Attribute { name, value } => {
                    body.push(2);
                    put_qname(&mut body, &self.symbols.resolve_qname(*name));
                    put_str(&mut body, value);
                }
                NodeKind::Text { content } => {
                    body.push(3);
                    put_str(&mut body, content);
                }
                NodeKind::Comment { content } => {
                    body.push(4);
                    put_str(&mut body, content);
                }
                NodeKind::Pi { target, content } => {
                    body.push(5);
                    put_str(&mut body, self.symbols.resolve(*target));
                    put_str(&mut body, content);
                }
            }
        }
        put_u32(&mut body, self.free.len() as u32);
        for f in &self.free {
            put_u32(&mut body, f.index() as u32);
        }
        let mut out = Vec::with_capacity(body.len() + 12);
        out.extend_from_slice(wal::SNAP_MAGIC);
        put_u32(&mut out, wal::crc32(&body));
        out.extend_from_slice(&body);
        out
    }

    /// Rebuild a store from a checkpoint snapshot, verifying the CRC and
    /// the embedded fingerprint. Returns the store and the snapshot's
    /// last LSN (replay skips log commits at or below it).
    pub(crate) fn from_snapshot(bytes: &[u8]) -> XdmResult<(Store, u64)> {
        let corrupt = |what: &str| XdmError::new("XQB0060", format!("corrupt checkpoint: {what}"));
        let header = wal::SNAP_MAGIC.len() + 4;
        if bytes.len() < header || &bytes[..wal::SNAP_MAGIC.len()] != wal::SNAP_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let crc = u32::from_le_bytes(
            bytes[wal::SNAP_MAGIC.len()..header]
                .try_into()
                .expect("4 bytes"),
        );
        let body = &bytes[header..];
        if wal::crc32(body) != crc {
            return Err(corrupt("checksum mismatch"));
        }
        let mut c = Cursor::new(body);
        let last_lsn = c.u64()?;
        let fingerprint = c.u64()?;
        let n = c.u32()? as usize;
        if n > body.len() {
            return Err(corrupt("implausible slot count"));
        }
        fn read_ids(c: &mut Cursor<'_>) -> XdmResult<Vec<NodeId>> {
            c.nodes()
        }
        let mut symbols = Symbols::new();
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            let alive = c.u8()? != 0;
            let parent = if c.u8()? == 1 { Some(c.node()?) } else { None };
            let okey = c.u64()?;
            let kind = match c.u8()? {
                0 => NodeKind::Document {
                    children: read_ids(&mut c)?,
                },
                1 => NodeKind::Element {
                    name: symbols.intern_qname(&c.qname()?),
                    attributes: read_ids(&mut c)?,
                    children: read_ids(&mut c)?,
                },
                2 => NodeKind::Attribute {
                    name: symbols.intern_qname(&c.qname()?),
                    value: c.str()?,
                },
                3 => NodeKind::Text { content: c.str()? },
                4 => NodeKind::Comment { content: c.str()? },
                5 => NodeKind::Pi {
                    target: symbols.intern(&c.str()?),
                    content: c.str()?,
                },
                _ => return Err(corrupt("unknown node kind")),
            };
            nodes.push(NodeData {
                parent,
                kind,
                alive,
                okey,
            });
        }
        let free = read_ids(&mut c)?;
        if !c.done() {
            return Err(corrupt("trailing bytes"));
        }
        let nodes = Pages::from_vec(nodes);
        // The plane is derived state: a checkpoint never carries it, so
        // recovery rebuilds it from the slots (rebuild-on-replay).
        let index = IndexPlane::rebuild(&nodes, true, 0);
        let store = Store {
            nodes,
            free,
            undo: Vec::new(),
            frames: Vec::new(),
            symbols,
            wal: None,
            capture: None,
            index,
        };
        if store.fingerprint() != fingerprint {
            return Err(corrupt("fingerprint mismatch"));
        }
        Ok((store, last_lsn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(s: &str) -> QName {
        QName::local(s)
    }

    /// Build `<a><b>hi</b><c x="1"/></a>` and return (store, a, b, c, text).
    fn sample() -> (Store, NodeId, NodeId, NodeId, NodeId) {
        let mut s = Store::new();
        let a = s.new_element(q("a"));
        let b = s.new_element(q("b"));
        let t = s.new_text("hi");
        let c = s.new_element(q("c"));
        let x = s.new_attribute(q("x"), "1");
        s.append_child(b, t).unwrap();
        s.append_child(a, b).unwrap();
        s.append_child(a, c).unwrap();
        s.attach_attribute(c, x).unwrap();
        (s, a, b, c, t)
    }

    #[test]
    fn construction_and_accessors() {
        let (s, a, b, c, t) = sample();
        assert_eq!(s.children(a).unwrap(), &[b, c]);
        assert_eq!(s.parent(b).unwrap(), Some(a));
        assert_eq!(s.parent(a).unwrap(), None);
        assert_eq!(s.name(a).unwrap().unwrap().local, "a");
        assert_eq!(s.string_value(a).unwrap(), "hi");
        assert_eq!(s.string_value(t).unwrap(), "hi");
        let attr = s.attribute_by_name(c, "x").unwrap().unwrap();
        assert_eq!(s.string_value(attr).unwrap(), "1");
        assert_eq!(s.attribute_by_name(c, "nope").unwrap(), None);
    }

    #[test]
    fn read_view_sees_uncommitted_state_and_traces_into_the_parent() {
        let (mut s, a, b, _c, _t) = sample();
        s.begin_capture(true);
        s.begin_frame();
        let d = s.new_element(q("d"));
        s.append_child(a, d).unwrap();
        // Taken inside the open frame: the view sees the uncommitted
        // child and shares every page with the parent.
        let mut view = s.read_view();
        assert!(view.tracing_reads());
        assert_eq!(view.children(a).unwrap().len(), 3);
        assert_eq!(view.shared_pages_with(&s), s.page_count());
        view.children(b).unwrap();
        // An allocation in the view moves its mark and stays private.
        let mark = view.slot_mark();
        view.new_text("x");
        assert_ne!(view.slot_mark(), mark);
        assert_eq!(s.slot_mark(), mark);
        drop(view);
        s.commit_frame();
        let delta = s.take_capture().unwrap();
        assert_eq!(delta.reads().aspects(b), crate::footprint::aspect::CHILDREN);
        // A capture without read tracing gives views nothing to trace.
        s.begin_capture(false);
        assert!(!s.read_view().tracing_reads());
    }

    #[test]
    fn insert_anchors() {
        let mut s = Store::new();
        let p = s.new_element(q("p"));
        let c1 = s.new_element(q("c1"));
        let c2 = s.new_element(q("c2"));
        let c3 = s.new_element(q("c3"));
        s.apply_insert(&[c2], p, InsertAnchor::Last).unwrap();
        s.apply_insert(&[c1], p, InsertAnchor::First).unwrap();
        s.apply_insert(&[c3], p, InsertAnchor::After(c2)).unwrap();
        assert_eq!(s.children(p).unwrap(), &[c1, c2, c3]);
    }

    #[test]
    fn insert_sequence_preserves_order() {
        let mut s = Store::new();
        let p = s.new_element(q("p"));
        let xs: Vec<NodeId> = (0..5).map(|i| s.new_element(q(&format!("x{i}")))).collect();
        s.apply_insert(&xs, p, InsertAnchor::Last).unwrap();
        assert_eq!(s.children(p).unwrap(), &xs[..]);
    }

    #[test]
    fn insert_preconditions() {
        let (mut s, a, b, _c, _t) = sample();
        let d = s.new_element(q("d"));
        // b already has a parent.
        assert_eq!(
            s.apply_insert(&[b], d, InsertAnchor::Last)
                .unwrap_err()
                .code,
            "XQB0002"
        );
        // anchor not a child of parent
        assert!(s.apply_insert(&[d], a, InsertAnchor::After(d)).is_err());
        // inserting into a text node
        let t2 = s.new_text("t");
        assert!(s.apply_insert(&[d], t2, InsertAnchor::Last).is_err());
        // attribute as child
        let at = s.new_attribute(q("y"), "2");
        assert!(s.apply_insert(&[at], a, InsertAnchor::Last).is_err());
    }

    #[test]
    fn insert_rejects_cycles() {
        let (mut s, a, b, _c, _t) = sample();
        // detach a's subtree root "a" has no parent; inserting a into b (its
        // own descendant) must fail.
        assert!(s.apply_insert(&[a], b, InsertAnchor::Last).is_err());
        // And self-insertion.
        let e = s.new_element(q("e"));
        assert!(s.apply_insert(&[e], e, InsertAnchor::Last).is_err());
    }

    #[test]
    fn detach_semantics() {
        let (mut s, a, b, c, t) = sample();
        s.detach(b).unwrap();
        assert_eq!(s.children(a).unwrap(), &[c]);
        assert_eq!(s.parent(b).unwrap(), None);
        // Paper §3.1: a detached node can still be queried...
        assert_eq!(s.string_value(b).unwrap(), "hi");
        assert_eq!(s.parent(t).unwrap(), Some(b));
        // ...and inserted somewhere else.
        s.apply_insert(&[b], c, InsertAnchor::Last).unwrap();
        assert_eq!(s.parent(b).unwrap(), Some(c));
        // Detaching a detached node is a no-op.
        let d = s.new_element(q("d"));
        s.detach(d).unwrap();
    }

    #[test]
    fn detach_attribute() {
        let (mut s, _a, _b, c, _t) = sample();
        let x = s.attribute_by_name(c, "x").unwrap().unwrap();
        s.detach(x).unwrap();
        assert_eq!(s.attributes(c).unwrap(), &[]);
        assert_eq!(s.parent(x).unwrap(), None);
        assert_eq!(s.string_value(x).unwrap(), "1");
    }

    #[test]
    fn rename() {
        let (mut s, a, _b, c, t) = sample();
        s.apply_rename(a, q("z")).unwrap();
        assert_eq!(s.name(a).unwrap().unwrap().local, "z");
        let x = s.attribute_by_name(c, "x").unwrap().unwrap();
        s.apply_rename(x, q("y")).unwrap();
        assert_eq!(s.attribute_by_name(c, "y").unwrap(), Some(x));
        assert!(s.apply_rename(t, q("nope")).is_err());
    }

    #[test]
    fn deep_copy_is_detached_and_equal_shaped() {
        let (mut s, a, _b, _c, _t) = sample();
        let copy = s.deep_copy(a).unwrap();
        assert_ne!(copy, a);
        assert_eq!(s.parent(copy).unwrap(), None);
        assert_eq!(s.string_value(copy).unwrap(), "hi");
        assert_eq!(s.children(copy).unwrap().len(), 2);
        // Mutating the copy leaves the original alone.
        let nc = s.children(copy).unwrap()[0];
        s.detach(nc).unwrap();
        assert_eq!(s.children(a).unwrap().len(), 2);
    }

    #[test]
    fn document_order_within_tree() {
        let (s, a, b, c, t) = sample();
        assert_eq!(s.cmp_doc_order(a, b).unwrap(), Ordering::Less);
        assert_eq!(s.cmp_doc_order(b, t).unwrap(), Ordering::Less);
        assert_eq!(s.cmp_doc_order(t, c).unwrap(), Ordering::Less);
        assert_eq!(s.cmp_doc_order(c, c).unwrap(), Ordering::Equal);
        let x = s.attribute_by_name(c, "x").unwrap().unwrap();
        // Attribute after its element.
        assert_eq!(s.cmp_doc_order(c, x).unwrap(), Ordering::Less);
    }

    #[test]
    fn document_order_across_trees_is_stable() {
        let mut s = Store::new();
        let r1 = s.new_element(q("r1"));
        let r2 = s.new_element(q("r2"));
        let o = s.cmp_doc_order(r1, r2).unwrap();
        assert_eq!(o, s.cmp_doc_order(r1, r2).unwrap());
        assert_eq!(o.reverse(), s.cmp_doc_order(r2, r1).unwrap());
    }

    #[test]
    fn order_tracks_mutation() {
        let mut s = Store::new();
        let p = s.new_element(q("p"));
        let c1 = s.new_element(q("c1"));
        let c2 = s.new_element(q("c2"));
        s.append_child(p, c1).unwrap();
        s.append_child(p, c2).unwrap();
        assert_eq!(s.cmp_doc_order(c1, c2).unwrap(), Ordering::Less);
        // Move c1 after c2.
        s.detach(c1).unwrap();
        s.apply_insert(&[c1], p, InsertAnchor::After(c2)).unwrap();
        assert_eq!(s.cmp_doc_order(c1, c2).unwrap(), Ordering::Greater);
    }

    #[test]
    fn sort_and_dedup() {
        let (s, a, b, c, t) = sample();
        let mut v = vec![c, t, a, b, c, a];
        s.sort_and_dedup(&mut v).unwrap();
        assert_eq!(v, vec![a, b, t, c]);
    }

    #[test]
    fn descendants_preorder() {
        let (s, a, b, c, t) = sample();
        assert_eq!(s.descendants(a).unwrap(), vec![b, t, c]);
        assert_eq!(s.descendants(t).unwrap(), Vec::<NodeId>::new());
    }

    #[test]
    fn garbage_accounting_and_collection() {
        let (mut s, a, b, _c, _t) = sample();
        s.detach(b).unwrap();
        // Root set = {a}: b's subtree (b + text) is garbage.
        let st = s.stats(&[a]).unwrap();
        assert_eq!(st.alive, 5);
        assert_eq!(st.reachable, 3);
        assert_eq!(st.garbage, 2);
        // Holding b keeps its subtree alive.
        let st2 = s.stats(&[a, b]).unwrap();
        assert_eq!(st2.garbage, 0);
        let reclaimed = s.collect_garbage(&[a]).unwrap();
        assert_eq!(reclaimed, 2);
        assert!(!s.is_alive(b));
        assert!(s.kind(b).is_err());
        assert_eq!(s.len(), 3);
        // Reclaimed slots are reused rather than growing the arena.
        let n = s.new_element(q("reused"));
        assert!(n.index() < 5, "allocation should reuse a freed slot");
        assert!(s.is_alive(n));
    }

    #[test]
    fn reachability_follows_parents() {
        // Holding an inner node keeps the whole tree (via root()) alive.
        let (mut s, a, b, _c, _t) = sample();
        let st = s.stats(&[b]).unwrap();
        assert_eq!(st.reachable, 5);
        let reclaimed = s.collect_garbage(&[b]).unwrap();
        assert_eq!(reclaimed, 0);
        assert!(s.is_alive(a));
    }

    #[test]
    fn dangling_ids_error() {
        let mut s = Store::new();
        let a = s.new_element(q("a"));
        let b = s.new_element(q("b"));
        s.collect_garbage(&[a]).unwrap();
        assert_eq!(s.kind(b).unwrap_err().code, "XQB0001");
        assert!(s.parent(b).is_err());
        assert!(s.detach(b).is_err());
    }

    #[test]
    fn set_text_and_attribute_value() {
        let (mut s, _a, _b, c, t) = sample();
        s.set_text(t, "bye").unwrap();
        assert_eq!(s.string_value(t).unwrap(), "bye");
        let x = s.attribute_by_name(c, "x").unwrap().unwrap();
        s.set_attribute_value(x, "2").unwrap();
        assert_eq!(s.string_value(x).unwrap(), "2");
        assert!(s.set_text(c, "no").is_err());
        assert!(s.set_attribute_value(t, "no").is_err());
    }

    #[test]
    fn gap_keys_survive_pathological_insertion_order() {
        // Repeatedly insert at the front and in the middle: forces gap
        // splitting and eventually renumbering; order must stay correct.
        let mut s = Store::new();
        let p = s.new_element(q("p"));
        let mut expected: Vec<NodeId> = Vec::new();
        for i in 0..200 {
            let c = s.new_element(q(&format!("c{i}")));
            let at = i % (expected.len() + 1);
            let anchor = if at == 0 {
                InsertAnchor::First
            } else {
                InsertAnchor::After(expected[at - 1])
            };
            s.apply_insert(&[c], p, anchor).unwrap();
            expected.insert(at, c);
        }
        assert_eq!(s.children(p).unwrap(), &expected[..]);
        // Gap keys and the scan baseline must agree on every pair.
        for w in expected.windows(2) {
            assert_eq!(s.cmp_doc_order(w[0], w[1]).unwrap(), Ordering::Less);
            assert_eq!(s.cmp_doc_order_scan(w[0], w[1]).unwrap(), Ordering::Less);
        }
    }

    #[test]
    fn gap_keys_force_renumbering() {
        // Keep inserting right after the first child: halves the gap each
        // time, so ~60 insertions must trigger at least one renumber.
        let mut s = Store::new();
        let p = s.new_element(q("p"));
        let first = s.new_element(q("first"));
        s.append_child(p, first).unwrap();
        for i in 0..100 {
            let c = s.new_element(q(&format!("c{i}")));
            s.apply_insert(&[c], p, InsertAnchor::After(first)).unwrap();
        }
        let children = s.children(p).unwrap().to_vec();
        assert_eq!(children.len(), 101);
        assert_eq!(children[0], first);
        for w in children.windows(2) {
            assert_eq!(s.cmp_doc_order(w[0], w[1]).unwrap(), Ordering::Less);
        }
        // Most-recent insertion is closest to `first`.
        assert_eq!(s.name(children[1]).unwrap().unwrap().local, "c99");
    }

    #[test]
    fn scan_and_gap_order_agree_after_moves() {
        let (mut s, a, b, c, t) = sample();
        s.detach(b).unwrap();
        s.apply_insert(&[b], a, InsertAnchor::After(c)).unwrap();
        for &x in &[a, b, c, t] {
            for &y in &[a, b, c, t] {
                assert_eq!(
                    s.cmp_doc_order(x, y).unwrap(),
                    s.cmp_doc_order_scan(x, y).unwrap(),
                    "disagreement on ({x}, {y})"
                );
            }
        }
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut s = Store::new();
        let e = s.new_element(q("e"));
        let a1 = s.new_attribute(q("k"), "1");
        let a2 = s.new_attribute(q("k"), "2");
        s.attach_attribute(e, a1).unwrap();
        assert!(s.attach_attribute(e, a2).is_err());
    }

    /// Observable snapshot of a whole store: every alive node's identity,
    /// kind payload, parent, children, attributes, plus the relative
    /// document order of all alive pairs. Order keys are compared only
    /// relatively (renumbering is an invisible implementation detail).
    fn observable(s: &Store) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let alive: Vec<NodeId> = (0..s.nodes.len() as u32)
            .map(NodeId)
            .filter(|&n| s.is_alive(n))
            .collect();
        for &n in &alive {
            writeln!(
                out,
                "{n}: kind={:?} parent={:?} children={:?} attrs={:?}",
                s.kind(n).unwrap(),
                s.parent(n).unwrap(),
                s.children(n).unwrap(),
                s.attributes(n).unwrap()
            )
            .unwrap();
        }
        for &x in &alive {
            for &y in &alive {
                if s.root(x).unwrap() == s.root(y).unwrap() {
                    writeln!(out, "cmp({x},{y})={:?}", s.cmp_doc_order(x, y).unwrap()).unwrap();
                }
            }
        }
        writeln!(out, "free={:?}", s.free).unwrap();
        out
    }

    #[test]
    fn rollback_restores_every_mutation_kind() {
        let (mut s, a, b, c, t) = sample();
        let before = observable(&s);
        s.begin_frame();
        // One of everything: alloc, insert, detach, rename, text, attr
        // value, attach, deep copy, move.
        let fresh = s.new_element(q("fresh"));
        s.apply_insert(&[fresh], a, InsertAnchor::First).unwrap();
        s.detach(b).unwrap();
        s.apply_rename(c, q("renamed")).unwrap();
        s.set_text(t, "changed").unwrap();
        let x = s.attribute_by_name(c, "x").unwrap();
        // c was renamed but the attribute is found by its own name.
        let x = x.or(s.attribute_by_name(c, "x").unwrap()).unwrap();
        s.set_attribute_value(x, "99").unwrap();
        let extra = s.new_attribute(q("extra"), "v");
        s.attach_attribute(c, extra).unwrap();
        let copy = s.deep_copy(c).unwrap();
        s.append_child(a, copy).unwrap();
        s.rollback_frame();
        assert_eq!(observable(&s), before);
        assert_eq!(s.frame_depth(), 0);
    }

    #[test]
    fn rollback_restores_collected_nodes() {
        let (mut s, a, b, _c, _t) = sample();
        s.detach(b).unwrap();
        let before = observable(&s);
        s.begin_frame();
        assert_eq!(s.collect_garbage(&[a]).unwrap(), 2);
        assert!(!s.is_alive(b));
        s.rollback_frame();
        assert!(s.is_alive(b));
        assert_eq!(observable(&s), before);
        assert_eq!(s.string_value(b).unwrap(), "hi");
    }

    #[test]
    fn rollback_survives_renumbering() {
        // Force an okey renumber inside the frame: the rollback must
        // restore a consistent relative order for the survivors.
        let mut s = Store::new();
        let p = s.new_element(q("p"));
        let first = s.new_element(q("first"));
        let second = s.new_element(q("second"));
        s.append_child(p, first).unwrap();
        s.append_child(p, second).unwrap();
        let before = observable(&s);
        s.begin_frame();
        for i in 0..100 {
            let c = s.new_element(q(&format!("c{i}")));
            s.apply_insert(&[c], p, InsertAnchor::After(first)).unwrap();
        }
        s.rollback_frame();
        assert_eq!(observable(&s), before);
    }

    #[test]
    fn nested_frames_inner_commit_outer_rollback() {
        let (mut s, a, _b, _c, _t) = sample();
        let before = observable(&s);
        s.begin_frame();
        let n1 = s.new_element(q("n1"));
        s.append_child(a, n1).unwrap();
        s.begin_frame();
        let n2 = s.new_element(q("n2"));
        s.append_child(a, n2).unwrap();
        s.commit_frame(); // inner effects survive the inner frame...
        assert!(s.is_alive(n2));
        s.rollback_frame(); // ...but the outer rollback undoes everything.
        assert_eq!(observable(&s), before);
    }

    #[test]
    fn nested_frames_inner_rollback_outer_commit() {
        let (mut s, a, _b, _c, _t) = sample();
        s.begin_frame();
        let n1 = s.new_element(q("n1"));
        s.append_child(a, n1).unwrap();
        s.begin_frame();
        let n2 = s.new_element(q("n2"));
        s.append_child(a, n2).unwrap();
        s.rollback_frame();
        assert!(!s.is_alive(n2));
        s.commit_frame();
        assert!(s.is_alive(n1));
        assert_eq!(s.parent(n1).unwrap(), Some(a));
    }

    #[test]
    fn commit_clears_journal_and_keeps_state() {
        let (mut s, a, _b, _c, _t) = sample();
        s.begin_frame();
        let n = s.new_element(q("n"));
        s.append_child(a, n).unwrap();
        s.commit_frame();
        assert_eq!(s.frame_depth(), 0);
        assert!(
            s.undo.is_empty(),
            "outermost commit should free the journal"
        );
        assert_eq!(s.parent(n).unwrap(), Some(a));
    }

    #[test]
    fn frame_allocations_lists_fresh_nodes() {
        let mut s = Store::new();
        s.begin_frame();
        let a = s.new_element(q("a"));
        let b = s.new_text("t");
        let mut allocs = s.frame_allocations();
        allocs.sort();
        assert_eq!(allocs, vec![a, b]);
        s.commit_frame();
        assert!(s.frame_allocations().is_empty());
    }

    #[test]
    fn rollback_restores_free_list_for_reused_slots() {
        let (mut s, a, b, _c, _t) = sample();
        s.detach(b).unwrap();
        s.collect_garbage(&[a]).unwrap(); // frees b's subtree (2 slots)
        let free_before = s.free.clone();
        s.begin_frame();
        let n = s.new_element(q("reuses-slot"));
        assert!(n.index() < 5, "should reuse a freed slot");
        s.rollback_frame();
        assert_eq!(s.free, free_before);
        assert!(!s.is_alive(n));
    }

    #[test]
    fn string_value_survives_million_deep_chain() {
        // Hostile input: a 1M-element single chain. The old recursive
        // collect_text overflowed the thread stack (an abort, not an
        // error); the iterative rewrite must walk it and find the one
        // text leaf at the bottom.
        let mut s = Store::new();
        let root = s.new_element(q("d"));
        let mut cur = root;
        for _ in 0..1_000_000 {
            let next = s.new_element(q("d"));
            s.append_child(cur, next).unwrap();
            cur = next;
        }
        let leaf = s.new_text("bottom");
        s.append_child(cur, leaf).unwrap();
        assert_eq!(s.string_value(root).unwrap(), "bottom");
    }

    #[test]
    fn reclaim_unreachable_is_targeted() {
        let (mut s, a, b, _c, _t) = sample();
        s.detach(b).unwrap(); // pre-existing garbage: b + its text
        let orphan = s.new_element(q("orphan"));
        let kept = s.new_element(q("kept"));
        s.append_child(a, kept).unwrap();
        let n = s.reclaim_unreachable(&[orphan, kept], &[a]).unwrap();
        assert_eq!(n, 1);
        assert!(!s.is_alive(orphan));
        assert!(s.is_alive(kept));
        // Pre-existing garbage outside the candidate set is untouched.
        assert!(s.is_alive(b));
    }
}
