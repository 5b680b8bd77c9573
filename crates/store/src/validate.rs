//! Phase 1 of a commit: incremental, sequential validation of a commit
//! group's members against the committed state (the published graph,
//! stable-key maps and table logs).  Pure — the store state is
//! never mutated; effects accumulate in a caller-owned [`Staging`].

use crate::{Delta, EdgeKey, EdgeRef, Mutation, NodeKey, NodeRef, StoreState};
use graphiti_common::{Error, Ident, Result, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;

/// An endpoint resolved during validation: an existing node or the `i`-th
/// node staged by the group (a group-wide index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Existing(NodeKey),
    New(usize),
}

/// An edge resolved during validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeSlot {
    Existing(EdgeKey),
    New(usize),
}

#[derive(Debug, Clone)]
struct StagedNode {
    label: Ident,
    props: BTreeMap<Ident, Value>,
    alive: bool,
}

#[derive(Debug, Clone)]
struct StagedEdge {
    label: Ident,
    src: Endpoint,
    tgt: Endpoint,
    props: BTreeMap<Ident, Value>,
    alive: bool,
}

/// The staged effects of a commit group on top of the committed state: every
/// accepted member so far, plus the current member's earlier operations.
/// It grows only with the group's own operations, so a caller snapshots
/// it (`clone`) before a member and restores the snapshot when that
/// member is rejected or its WAL append aborts.
#[derive(Debug, Clone, Default)]
pub(crate) struct Staging {
    /// The stable key the next staged addition receives: the key
    /// `apply_delta` assigns when the accepted members are applied in
    /// order.
    next_key: u64,
    new_nodes: Vec<StagedNode>,
    new_edges: Vec<StagedEdge>,
    removed_nodes: HashSet<NodeKey>,
    removed_edges: HashSet<EdgeKey>,
    node_overrides: HashMap<(NodeKey, Ident), Value>,
    edge_overrides: HashMap<(EdgeKey, Ident), Value>,
    /// Per-label default-key accounting: values freed (removals, re-keys)
    /// and claimed (additions, re-keys) by earlier operations.
    freed: HashSet<(Ident, Value)>,
    claimed: HashSet<(Ident, Value)>,
    /// Predicted keys of the nodes and edges earlier members staged, by
    /// staged index: a later member addresses them by key.
    node_keys: HashMap<NodeKey, usize>,
    edge_keys: HashMap<EdgeKey, usize>,
}

/// Validation of one member: the committed store, the group's staging, and
/// where this member's own additions start in it.
struct Check<'a> {
    st: &'a StoreState,
    s: &'a mut Staging,
    /// The member's `NodeRef::New(i)` is staged node `first_node + i`.
    first_node: usize,
    first_edge: usize,
}

impl Check<'_> {
    fn resolve_node(&self, r: &NodeRef) -> Result<Endpoint> {
        match r {
            NodeRef::Key(k) => match self.s.node_keys.get(k) {
                // Only earlier members' additions are addressable by key,
                // exactly as if they had been committed before this one.
                Some(&i) if i < self.first_node => self
                    .staged_node(i)
                    .ok_or_else(|| Error::instance(format!("unknown or removed node {k}"))),
                _ => {
                    if self.s.removed_nodes.contains(k) || !self.st.node_ids.contains_key(k) {
                        return Err(Error::instance(format!("unknown or removed node {k}")));
                    }
                    Ok(Endpoint::Existing(*k))
                }
            },
            NodeRef::New(i) => self
                .first_node
                .checked_add(*i)
                .and_then(|j| self.staged_node(j))
                .ok_or_else(|| Error::instance(format!("unknown or removed staged node #{i}"))),
        }
    }

    fn staged_node(&self, i: usize) -> Option<Endpoint> {
        self.s.new_nodes.get(i).filter(|n| n.alive).map(|_| Endpoint::New(i))
    }

    fn staged_edge(&self, i: usize) -> Option<EdgeSlot> {
        self.s.new_edges.get(i).filter(|e| e.alive).map(|_| EdgeSlot::New(i))
    }

    fn node_label(&self, ep: Endpoint) -> &Ident {
        match ep {
            Endpoint::Existing(k) => &self.st.graph().nodes()[self.st.node_ids[&k].0].label,
            Endpoint::New(i) => &self.s.new_nodes[i].label,
        }
    }

    fn node_prop(&self, ep: Endpoint, key: &Ident) -> Value {
        match ep {
            Endpoint::Existing(k) => {
                if let Some(v) = self.s.node_overrides.get(&(k, key.clone())) {
                    return v.clone();
                }
                self.st.graph().nodes()[self.st.node_ids[&k].0].prop(key.as_str())
            }
            Endpoint::New(i) => self.s.new_nodes[i].props.get(key).cloned().unwrap_or(Value::Null),
        }
    }

    /// Resolves an edge reference to its staged index or checks liveness of
    /// an existing edge.
    fn resolve_edge(&self, r: &EdgeRef) -> Result<EdgeSlot> {
        match r {
            EdgeRef::Key(k) => match self.s.edge_keys.get(k) {
                Some(&i) if i < self.first_edge => self
                    .staged_edge(i)
                    .ok_or_else(|| Error::instance(format!("unknown or removed edge {k}"))),
                _ => {
                    if self.s.removed_edges.contains(k) || !self.st.edge_ids.contains_key(k) {
                        return Err(Error::instance(format!("unknown or removed edge {k}")));
                    }
                    Ok(EdgeSlot::Existing(*k))
                }
            },
            EdgeRef::New(i) => self
                .first_edge
                .checked_add(*i)
                .and_then(|j| self.staged_edge(j))
                .ok_or_else(|| Error::instance(format!("unknown or removed staged edge #{i}"))),
        }
    }

    fn edge_label(&self, slot: EdgeSlot) -> &Ident {
        match slot {
            EdgeSlot::Existing(k) => &self.st.graph().edges()[self.st.edge_ids[&k].0].label,
            EdgeSlot::New(i) => &self.s.new_edges[i].label,
        }
    }

    fn edge_prop(&self, slot: EdgeSlot, key: &Ident) -> Value {
        match slot {
            EdgeSlot::Existing(k) => {
                if let Some(v) = self.s.edge_overrides.get(&(k, key.clone())) {
                    return v.clone();
                }
                self.st.graph().edges()[self.st.edge_ids[&k].0].prop(key.as_str())
            }
            EdgeSlot::New(i) => self.s.new_edges[i].props.get(key).cloned().unwrap_or(Value::Null),
        }
    }

    /// Claims a default-key value for a label, enforcing uniqueness
    /// against the committed index and everything staged before it.
    ///
    /// A value is held iff (the committed index holds it AND no earlier
    /// operation freed the committed copy) OR an earlier operation staged
    /// a claim on it.  `freed` deliberately keeps recording "the committed
    /// copy is gone" even while a staged claim cycles the value — a
    /// remove/add/remove/add chain on one key must stay valid.
    fn claim(&mut self, label: &Ident, value: &Value) -> Result<()> {
        let kv = (label.clone(), value.clone());
        let held_by_committed =
            self.st.tables.get(label.as_str()).is_some_and(|t| t.contains_pk(value))
                && !self.s.freed.contains(&kv);
        if held_by_committed || self.s.claimed.contains(&kv) {
            return Err(Error::instance(format!(
                "duplicate default-key value {value} for label `{label}`"
            )));
        }
        self.s.claimed.insert(kv);
        Ok(())
    }

    /// Releases a default-key value (element removed or re-keyed): a
    /// staged claim is cancelled, a committed value is marked freed.
    fn free(&mut self, label: &Ident, value: &Value) {
        let kv = (label.clone(), value.clone());
        if !self.s.claimed.remove(&kv) {
            self.s.freed.insert(kv);
        }
    }
}

/// Extracts and checks the default-key value from an addition's property
/// list: present, non-null, and every key declared.
fn check_props(
    kind: &str,
    label: &Ident,
    declared: &[Ident],
    props: &[(Ident, Value)],
) -> Result<Value> {
    for (k, _) in props {
        if !declared.contains(k) {
            return Err(Error::instance(format!("{kind} `{label}` has undeclared property `{k}`")));
        }
    }
    let dk = &declared[0];
    let pk =
        props.iter().rev().find(|(k, _)| k == dk).map(|(_, v)| v.clone()).unwrap_or(Value::Null);
    if pk.is_null() {
        return Err(Error::instance(format!("{kind} `{label}` is missing its default key `{dk}`")));
    }
    Ok(pk)
}

impl Staging {
    /// An empty staging over the committed state: nothing staged yet.
    pub(crate) fn new(st: &StoreState) -> Staging {
        Staging { next_key: st.next_key, ..Staging::default() }
    }

    /// Validates the next member of a group against the committed state plus
    /// everything staged so far, operation by operation, and stages its
    /// effects.  Returns the stable keys `apply_delta` will assign to the
    /// member's additions.  On error the staging is left part-updated:
    /// the caller restores its snapshot.
    pub(crate) fn stage(&mut self, st: &StoreState, delta: &Delta) -> Result<Range<u64>> {
        let first_key = self.next_key;
        let (first_node, first_edge) = (self.new_nodes.len(), self.new_edges.len());
        validate_member(&mut Check { st, s: self, first_node, first_edge }, delta)?;
        Ok(first_key..self.next_key)
    }
}

fn validate_member(c: &mut Check<'_>, delta: &Delta) -> Result<()> {
    let st = c.st;
    for op in delta.ops() {
        match op {
            Mutation::AddNode { label, props } => {
                let ty = st
                    .schema
                    .node_type(label.as_str())
                    .ok_or_else(|| Error::instance(format!("unknown node label `{label}`")))?;
                let pk = check_props("node", label, &ty.keys, props)?;
                c.claim(label, &pk)?;
                c.s.node_keys.insert(NodeKey(c.s.next_key), c.s.new_nodes.len());
                c.s.next_key += 1;
                c.s.new_nodes.push(StagedNode {
                    label: label.clone(),
                    props: props.iter().cloned().collect(),
                    alive: true,
                });
            }
            Mutation::AddEdge { label, src, tgt, props } => {
                let ty = st
                    .schema
                    .edge_type(label.as_str())
                    .ok_or_else(|| Error::instance(format!("unknown edge label `{label}`")))?;
                let src = c.resolve_node(src)?;
                let tgt = c.resolve_node(tgt)?;
                if *c.node_label(src) != ty.src || *c.node_label(tgt) != ty.tgt {
                    return Err(Error::instance(format!(
                        "edge `{label}` connects `{}`->`{}` but schema declares `{}`->`{}`",
                        c.node_label(src),
                        c.node_label(tgt),
                        ty.src,
                        ty.tgt
                    )));
                }
                let pk = check_props("edge", label, &ty.keys, props)?;
                c.claim(label, &pk)?;
                c.s.edge_keys.insert(EdgeKey(c.s.next_key), c.s.new_edges.len());
                c.s.next_key += 1;
                c.s.new_edges.push(StagedEdge {
                    label: label.clone(),
                    src,
                    tgt,
                    props: props.iter().cloned().collect(),
                    alive: true,
                });
            }
            Mutation::RemoveEdge { edge } => {
                let slot = c.resolve_edge(edge)?;
                let label = c.edge_label(slot).clone();
                // Every resolvable edge was validated at add time, which
                // requires a declared label — so this lookup can only
                // fail on a broken invariant, reported, not panicked.
                let dk = st
                    .schema
                    .default_key_of(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                let pk = c.edge_prop(slot, dk);
                c.free(&label, &pk);
                match slot {
                    EdgeSlot::Existing(k) => {
                        c.s.removed_edges.insert(k);
                    }
                    EdgeSlot::New(i) => c.s.new_edges[i].alive = false,
                }
            }
            Mutation::RemoveNode { node } => {
                let ep = c.resolve_node(node)?;
                // No incident edge may survive to this point of the group.
                match ep {
                    Endpoint::Existing(k) => {
                        let id = st.node_ids[&k];
                        let incident = st
                            .graph()
                            .out_edges(id)
                            .chain(st.graph().in_edges(id))
                            .any(|e| !c.s.removed_edges.contains(&st.edge_keys[e.id.0]));
                        if incident {
                            return Err(Error::instance(format!(
                                "node {k} still has incident edges"
                            )));
                        }
                    }
                    Endpoint::New(_) => {}
                }
                if c.s.new_edges.iter().any(|e| e.alive && (e.src == ep || e.tgt == ep)) {
                    return Err(Error::instance(
                        "node still has incident edges staged before its removal",
                    ));
                }
                let label = c.node_label(ep).clone();
                // Resolvable nodes were validated at add time, so the label
                // is declared — reported as a rejection if that ever breaks.
                let dk = st
                    .schema
                    .default_key_of(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                let pk = c.node_prop(ep, dk);
                c.free(&label, &pk);
                match ep {
                    Endpoint::Existing(k) => {
                        c.s.removed_nodes.insert(k);
                    }
                    Endpoint::New(i) => c.s.new_nodes[i].alive = false,
                }
            }
            Mutation::SetNodeProp { node, key, value } => {
                let ep = c.resolve_node(node)?;
                let label = c.node_label(ep).clone();
                let ty = st
                    .schema
                    .node_type(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                if !ty.keys.contains(key) {
                    return Err(Error::instance(format!(
                        "node `{label}` has no declared property `{key}`"
                    )));
                }
                if *key == *ty.default_key() {
                    if value.is_null() {
                        return Err(Error::instance(format!(
                            "default key `{key}` of `{label}` cannot be NULL"
                        )));
                    }
                    let old = c.node_prop(ep, key);
                    if old != *value {
                        c.free(&label, &old);
                        c.claim(&label, value)?;
                    }
                }
                match ep {
                    Endpoint::Existing(k) => {
                        c.s.node_overrides.insert((k, key.clone()), value.clone());
                    }
                    Endpoint::New(i) => {
                        c.s.new_nodes[i].props.insert(key.clone(), value.clone());
                    }
                }
            }
            Mutation::SetEdgeProp { edge, key, value } => {
                let slot = c.resolve_edge(edge)?;
                let label = c.edge_label(slot).clone();
                let ty = st
                    .schema
                    .edge_type(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                if !ty.keys.contains(key) {
                    return Err(Error::instance(format!(
                        "edge `{label}` has no declared property `{key}`"
                    )));
                }
                if *key == *ty.default_key() {
                    if value.is_null() {
                        return Err(Error::instance(format!(
                            "default key `{key}` of `{label}` cannot be NULL"
                        )));
                    }
                    let old = c.edge_prop(slot, key);
                    if old != *value {
                        c.free(&label, &old);
                        c.claim(&label, value)?;
                    }
                }
                match slot {
                    EdgeSlot::Existing(k) => {
                        c.s.edge_overrides.insert((k, key.clone()), value.clone());
                    }
                    EdgeSlot::New(i) => {
                        c.s.new_edges[i].props.insert(key.clone(), value.clone());
                    }
                }
            }
        }
    }
    Ok(())
}
