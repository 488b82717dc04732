//! Secondary indexes over the node store (DESIGN.md §17).
//!
//! The [`IndexPlane`] is derived state maintained *inside* the paper's
//! update semantics: every mutator that changes a node's name, value or
//! liveness updates it in the same call, and every undo-journal replay
//! mirrors the inverse, so the plane is exact across snap rollback, OCC
//! retry and crash recovery (replay re-runs the same mutators; checkpoint
//! load rebuilds from the slots).
//!
//! Three components:
//!
//! * **Element-name index** — `QNameId → {alive element ids}`. Backs the
//!   `//T` descendant scans the planner marks `,idx`.
//! * **Attribute-value hash index** — `(QNameId, fnv64(value)) →
//!   {alive attribute ids}`. Backs `T[@a = "v"]` point lookups; buckets
//!   are keyed by a *hash* of the value, so lookups re-check the exact
//!   value (collisions cost a string compare, never a wrong answer).
//! * **Structural parent index** — the store's parent links themselves,
//!   consumed through the memoized containment checker the executor runs
//!   per scan (an index bucket is store-global; containment filters it
//!   to the scan's origin subtrees).
//!
//! Sharing follows the store's COW discipline, at a granularity that
//! keeps the first write after a snapshot O(touched), not O(store):
//!
//! * The attribute-value map has one entry per distinct value, so it is
//!   split into [`ATTR_SHARDS`] shards, picked by the top bits of the
//!   value hash the key already carries. The shard table sits behind one
//!   [`Arc`] and every shard behind its own, so a fork is still a single
//!   reference-count bump; the first attribute write after a fork copies
//!   the table of shard pointers (`ATTR_SHARDS` bumps) and then only the
//!   shard and bucket it touches — 1/`ATTR_SHARDS` of the map.
//! * The element-name map stays whole: it has one entry per distinct
//!   element name (tens, not thousands), so copying it is cheap.
//! * Every bucket sits behind its own `Arc`; a writer unshares only the
//!   buckets it touches.
//!
//! The plane is *derived* — it never feeds the store fingerprint or any
//! on-disk format.

use crate::node::{NodeId, NodeKind};
use crate::pages::Pages;
use crate::symbols::QNameId;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// FNV-1a over an attribute value: the bucket key of the value index.
/// Stable across processes (same constants as the store fingerprint).
#[inline]
pub(crate) fn value_hash(value: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in value.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

type Bucket = Arc<HashSet<NodeId>>;

/// A map of buckets, shared copy-on-write.
type BucketMap<K> = Arc<HashMap<K, Bucket>>;

/// Shards of the attribute-value map (a power of two).
const ATTR_SHARDS: usize = 64;

/// The shard of a value hash: its top bits, so no second hash runs (the
/// shard's own map rehashes the full key as usual).
#[inline]
fn attr_shard(vh: u64) -> usize {
    (vh >> (64 - ATTR_SHARDS.trailing_zeros())) as usize
}

/// The store's secondary-index plane. Cheap to clone (Arc bumps); see
/// the module docs for the COW contract.
#[derive(Debug, Clone)]
pub(crate) struct IndexPlane {
    /// Alive elements by interned name.
    by_name: BucketMap<QNameId>,
    /// Alive attributes by (interned name, value hash), sharded by
    /// [`attr_shard`] of the value hash.
    by_attr: Arc<[BucketMap<(QNameId, u64)>; ATTR_SHARDS]>,
    /// Alive element count — the cost gate's selectivity denominator.
    elements: usize,
    /// Planner availability. Maintenance is unconditional (it is O(1)
    /// per affected mutation); this flag only gates plan selection.
    enabled: bool,
    /// Bumped on every enable/disable toggle; folded into plan-cache
    /// keys so a cached `,idx` plan can never outlive its index.
    epoch: u64,
}

impl Default for IndexPlane {
    fn default() -> Self {
        IndexPlane {
            by_name: Arc::new(HashMap::new()),
            by_attr: Arc::new(std::array::from_fn(|_| Arc::new(HashMap::new()))),
            elements: 0,
            enabled: true,
            epoch: 0,
        }
    }
}

fn bucket_insert<K: std::hash::Hash + Eq + Copy>(map: &mut BucketMap<K>, key: K, id: NodeId) {
    let map = Arc::make_mut(map);
    Arc::make_mut(map.entry(key).or_default()).insert(id);
}

fn bucket_remove<K: std::hash::Hash + Eq + Copy>(map: &mut BucketMap<K>, key: K, id: NodeId) {
    let map = Arc::make_mut(map);
    if let Some(b) = map.get_mut(&key) {
        let set = Arc::make_mut(b);
        set.remove(&id);
        // Empty buckets are dropped so a rebuilt plane compares equal.
        if set.is_empty() {
            map.remove(&key);
        }
    }
}

impl IndexPlane {
    /// The shard holding value hash `vh`, unshared for writing.
    fn attr_shard_mut(&mut self, vh: u64) -> &mut BucketMap<(QNameId, u64)> {
        &mut Arc::make_mut(&mut self.by_attr)[attr_shard(vh)]
    }

    /// Is the plane visible to the planner?
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Toggle planner availability; bumps the epoch on a real change.
    pub(crate) fn set_enabled(&mut self, on: bool) {
        if self.enabled != on {
            self.enabled = on;
            self.epoch += 1;
        }
    }

    /// The availability epoch (see field docs).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Alive element count.
    pub(crate) fn elements(&self) -> usize {
        self.elements
    }

    /// A node came alive (allocation, or an undone collection): insert
    /// its index entries.
    pub(crate) fn note_birth(&mut self, kind: &NodeKind, id: NodeId) {
        match kind {
            NodeKind::Element { name, .. } => {
                bucket_insert(&mut self.by_name, *name, id);
                self.elements += 1;
            }
            NodeKind::Attribute { name, value } => {
                let vh = value_hash(value);
                bucket_insert(self.attr_shard_mut(vh), (*name, vh), id);
            }
            _ => {}
        }
    }

    /// A node died (collection, or an undone allocation): remove its
    /// index entries.
    pub(crate) fn note_death(&mut self, kind: &NodeKind, id: NodeId) {
        match kind {
            NodeKind::Element { name, .. } => {
                bucket_remove(&mut self.by_name, *name, id);
                self.elements -= 1;
            }
            NodeKind::Attribute { name, value } => {
                let vh = value_hash(value);
                bucket_remove(self.attr_shard_mut(vh), (*name, vh), id);
            }
            _ => {}
        }
    }

    /// An element was renamed (`from` → `to`).
    pub(crate) fn move_element(&mut self, from: QNameId, to: QNameId, id: NodeId) {
        if from != to {
            bucket_remove(&mut self.by_name, from, id);
            bucket_insert(&mut self.by_name, to, id);
        }
    }

    /// An attribute's bucket key changed (rename or value write).
    pub(crate) fn move_attr(&mut self, from: (QNameId, u64), to: (QNameId, u64), id: NodeId) {
        if from != to {
            bucket_remove(self.attr_shard_mut(from.1), from, id);
            bucket_insert(self.attr_shard_mut(to.1), to, id);
        }
    }

    /// Size of a name bucket (0 when absent — which *is* an answer: no
    /// alive element bears the name).
    pub(crate) fn name_len(&self, name: QNameId) -> usize {
        self.by_name.get(&name).map_or(0, |b| b.len())
    }

    /// The name bucket, if any.
    pub(crate) fn name_bucket(&self, name: QNameId) -> Option<&HashSet<NodeId>> {
        self.by_name.get(&name).map(|b| b.as_ref())
    }

    /// Size of a value bucket (hash collisions inflate this by design;
    /// the gate only needs an upper bound).
    pub(crate) fn attr_len(&self, name: QNameId, vh: u64) -> usize {
        self.by_attr[attr_shard(vh)]
            .get(&(name, vh))
            .map_or(0, |b| b.len())
    }

    /// The value bucket, if any. Callers must re-check the exact value.
    pub(crate) fn attr_bucket(&self, name: QNameId, vh: u64) -> Option<&HashSet<NodeId>> {
        self.by_attr[attr_shard(vh)]
            .get(&(name, vh))
            .map(|b| b.as_ref())
    }

    /// Rebuild from scratch over the slot space, preserving the
    /// availability state (checkpoint recovery, and the proptest oracle).
    pub(crate) fn rebuild(nodes: &Pages, enabled: bool, epoch: u64) -> IndexPlane {
        let mut plane = IndexPlane {
            enabled,
            epoch,
            ..IndexPlane::default()
        };
        for (i, d) in nodes.iter().enumerate() {
            if d.alive {
                plane.note_birth(&d.kind, NodeId(i as u32));
            }
        }
        plane
    }

    /// Does this plane hold exactly the entries a from-scratch rebuild
    /// would? (Availability state is ignored — it is not derived.)
    pub(crate) fn matches_rebuild(&self, nodes: &Pages) -> bool {
        let fresh = IndexPlane::rebuild(nodes, self.enabled, self.epoch);
        self.elements == fresh.elements
            && *self.by_name == *fresh.by_name
            && self
                .by_attr
                .iter()
                .zip(fresh.by_attr.iter())
                .all(|(a, b)| a == b)
    }

    /// How many attribute shards `self` still shares (pointer-equal) with
    /// `other` — the copy-on-write granularity, observable for tests.
    #[cfg(test)]
    fn shared_attr_shards(&self, other: &IndexPlane) -> usize {
        self.by_attr
            .iter()
            .zip(other.by_attr.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qname::QName;
    use crate::store::Store;

    #[test]
    fn value_hash_is_fnv1a() {
        // Pinned: the empty-string FNV-1a offset basis.
        assert_eq!(value_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(value_hash("a"), value_hash("b"));
    }

    #[test]
    fn maintenance_tracks_births_renames_and_deaths() {
        let mut s = Store::new();
        let a = s.new_element(QName::local("a"));
        let b = s.new_element(QName::local("a"));
        let x = s.new_attribute(QName::local("x"), "1");
        s.append_child(a, b).unwrap();
        s.attach_attribute(b, x).unwrap();
        assert!(s.index_verify());

        s.apply_rename(b, QName::local("c")).unwrap();
        s.set_attribute_value(x, "2").unwrap();
        assert!(s.index_verify());

        // Collect the whole forest away.
        s.detach(b).unwrap();
        s.collect_garbage(&[a]).unwrap();
        assert!(s.index_verify());
    }

    #[test]
    fn rollback_restores_the_plane_exactly() {
        let mut s = Store::new();
        let a = s.new_element(QName::local("a"));
        let x = s.new_attribute(QName::local("x"), "1");
        s.attach_attribute(a, x).unwrap();
        let before = (s.index_name_len_lexical("a"), s.index_name_len_lexical("b"));
        s.begin_frame();
        let b = s.new_element(QName::local("b"));
        s.append_child(a, b).unwrap();
        s.apply_rename(a, QName::local("z")).unwrap();
        s.set_attribute_value(x, "9").unwrap();
        s.detach(b).unwrap();
        s.collect_garbage(&[a]).unwrap();
        s.rollback_frame();
        assert!(s.index_verify());
        let after = (s.index_name_len_lexical("a"), s.index_name_len_lexical("b"));
        assert_eq!(before, after);
    }

    #[test]
    fn first_write_after_snapshot_unshares_one_attr_shard() {
        // ~1.5k and ~148k nodes: one element plus two attributes (both
        // with distinct values) per row, so the value map grows with
        // the store while the copy on first write must not.
        for rows in [500, 49_000] {
            let mut xml = String::from("<rows>");
            for i in 0..rows {
                xml.push_str(&format!("<r id=\"r{i}\" v=\"{i}\"/>"));
            }
            xml.push_str("</rows>");
            let mut s = Store::new();
            let doc = crate::xml::parse_document(&mut s, &xml).unwrap();
            assert!(s.len() >= rows * 3);
            let root = s.children(doc).unwrap()[0];
            let snap = s.snapshot();
            let shared = |s: &Store| s.index_plane().shared_attr_shards(snap.index_plane());
            assert_eq!(shared(&s), ATTR_SHARDS, "a fork shares every shard");

            let a = s.new_attribute(QName::local("n"), "fresh");
            s.attach_attribute(root, a).unwrap();
            assert_eq!(
                shared(&s),
                ATTR_SHARDS - 1,
                "{rows} rows: one attribute write unshares exactly one shard"
            );
            // The snapshot's plane is untouched and still exact; the
            // writer's is exact too.
            assert!(snap.index_verify());
            assert_eq!(
                snap.index_attr_len(s.symbols().lookup_lexical("n").unwrap(), "fresh"),
                0
            );
            assert!(s.index_verify());
            assert_eq!(
                s.index_attr_len(s.symbols().lookup_lexical("n").unwrap(), "fresh"),
                1
            );
        }
    }

    #[test]
    fn toggling_availability_bumps_the_epoch_once_per_change() {
        let mut s = Store::new();
        assert!(s.index_enabled());
        let e0 = s.index_epoch();
        s.set_indexing(true); // no-op
        assert_eq!(s.index_epoch(), e0);
        s.set_indexing(false);
        assert!(!s.index_enabled());
        assert_eq!(s.index_epoch(), e0 + 1);
        s.set_indexing(true);
        assert_eq!(s.index_epoch(), e0 + 2);
    }
}
