//! Phase 2 of a commit: applying a validated delta to the checked-out
//! graph buffer, the stable-key maps and the per-label table logs,
//! extracting per-table change sets.

use crate::publish::ResolvedOp;
use crate::table::StoreTable;
use crate::{Delta, EdgeKey, EdgeRef, Mutation, NodeKey, NodeRef, StoreState};
use graphiti_common::{Error, Ident, Result, Value};
use graphiti_graph::{EdgeId, GraphInstance, NodeId};
use graphiti_relational::TableDelta;
use std::collections::{BTreeMap, HashSet};

/// Everything phase 2 hands to the publication phase.
pub(crate) struct Applied {
    pub(crate) deltas: BTreeMap<String, TableDelta>,
    pub(crate) node_keys: Vec<NodeKey>,
    pub(crate) edge_keys: Vec<EdgeKey>,
    /// The id-level operation log, for replay-based graph publication.
    pub(crate) replay: Vec<ResolvedOp>,
}

/// Commit-local change set of one table log.
struct Pending {
    len_before: usize,
    removed_slots: Vec<usize>,
    patches: Vec<(usize, usize, Value)>,
    appended_slots: Vec<usize>,
}

fn touch<'p>(
    pending: &'p mut BTreeMap<String, Pending>,
    tables: &BTreeMap<String, StoreTable>,
    name: &str,
) -> &'p mut Pending {
    if !pending.contains_key(name) {
        let len_before = tables.get(name).map(StoreTable::log_len).unwrap_or(0);
        pending.insert(
            name.to_string(),
            Pending {
                len_before,
                removed_slots: Vec::new(),
                patches: Vec::new(),
                appended_slots: Vec::new(),
            },
        );
    }
    // Infallible: the entry was inserted two lines above under this borrow.
    pending.get_mut(name).expect("just inserted")
}

/// Phase 2: applies a validated delta to `graph` (the buffer checked out
/// for the next generation) and the table logs, recording per-table
/// change sets in pre-commit published coordinates.
pub(crate) fn apply_delta(
    st: &mut StoreState,
    graph: &mut GraphInstance,
    delta: &Delta,
) -> Result<Applied> {
    let mut pending: BTreeMap<String, Pending> = BTreeMap::new();
    let mut new_node_keys: Vec<NodeKey> = Vec::with_capacity(delta.nodes_added);
    let mut new_edge_keys: Vec<EdgeKey> = Vec::with_capacity(delta.edges_added);
    let mut replay: Vec<ResolvedOp> = Vec::with_capacity(delta.len());
    for op in delta.ops() {
        match op {
            Mutation::AddNode { label, props } => {
                let key = NodeKey(st.next_key);
                st.next_key += 1;
                let id = graph
                    .add_node(label.clone(), props.iter().map(|(k, v)| (k.clone(), v.clone())));
                st.node_keys.push(key);
                st.node_ids.insert(key, id);
                new_node_keys.push(key);
                let ty = st
                    .schema
                    .node_type(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                let row: Vec<Value> =
                    ty.keys.iter().map(|k| graph.node(id).prop(k.as_str())).collect();
                append_row(st, &mut pending, label.as_str(), row)?;
                replay.push(ResolvedOp::AddNode { label: label.clone(), props: props.clone() });
            }
            Mutation::AddEdge { label, src, tgt, props } => {
                let key = EdgeKey(st.next_key);
                st.next_key += 1;
                let src_id = resolve_applied_node(st, &new_node_keys, src)?;
                let tgt_id = resolve_applied_node(st, &new_node_keys, tgt)?;
                let id = graph.add_edge(
                    label.clone(),
                    src_id,
                    tgt_id,
                    props.iter().map(|(k, v)| (k.clone(), v.clone())),
                );
                st.edge_keys.push(key);
                st.edge_ids.insert(key, id);
                new_edge_keys.push(key);
                let ty = st
                    .schema
                    .edge_type(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                // A declared edge type names declared endpoint labels, so
                // both lookups are reported, not panicked, if that breaks.
                let src_dk = st
                    .schema
                    .default_key_of(ty.src.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{}` is undeclared", ty.src)))?;
                let tgt_dk = st
                    .schema
                    .default_key_of(ty.tgt.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{}` is undeclared", ty.tgt)))?;
                let mut row: Vec<Value> =
                    ty.keys.iter().map(|k| graph.edge(id).prop(k.as_str())).collect();
                row.push(graph.node(src_id).prop(src_dk.as_str()));
                row.push(graph.node(tgt_id).prop(tgt_dk.as_str()));
                append_row(st, &mut pending, label.as_str(), row)?;
                replay.push(ResolvedOp::AddEdge {
                    label: label.clone(),
                    src: src_id,
                    tgt: tgt_id,
                    props: props.clone(),
                });
            }
            Mutation::RemoveEdge { edge } => {
                let key = match edge {
                    EdgeRef::Key(k) => *k,
                    EdgeRef::New(i) => new_edge_keys[*i],
                };
                let id = *st
                    .edge_ids
                    .get(&key)
                    .ok_or_else(|| Error::instance(format!("lost edge {key}")))?;
                let label = graph.try_edge(id)?.label.clone();
                let dk = st
                    .schema
                    .default_key_of(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                let pk = graph.try_edge(id)?.prop(dk.as_str());
                graph.remove_edge(id)?;
                // Mirror the arena's swap-remove in the key maps.
                let removed_key = st.edge_keys.swap_remove(id.0);
                debug_assert_eq!(removed_key, key);
                st.edge_ids.remove(&key);
                if id.0 < st.edge_keys.len() {
                    st.edge_ids.insert(st.edge_keys[id.0], id);
                }
                tombstone_row(st, &mut pending, label.as_str(), &pk)?;
                replay.push(ResolvedOp::RemoveEdge(id));
            }
            Mutation::RemoveNode { node } => {
                let key = match node {
                    NodeRef::Key(k) => *k,
                    NodeRef::New(i) => new_node_keys[*i],
                };
                let id = *st
                    .node_ids
                    .get(&key)
                    .ok_or_else(|| Error::instance(format!("lost node {key}")))?;
                let label = graph.try_node(id)?.label.clone();
                let dk = st
                    .schema
                    .default_key_of(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                let pk = graph.try_node(id)?.prop(dk.as_str());
                graph.remove_node(id)?;
                let removed_key = st.node_keys.swap_remove(id.0);
                debug_assert_eq!(removed_key, key);
                st.node_ids.remove(&key);
                if id.0 < st.node_keys.len() {
                    st.node_ids.insert(st.node_keys[id.0], id);
                }
                tombstone_row(st, &mut pending, label.as_str(), &pk)?;
                replay.push(ResolvedOp::RemoveNode(id));
            }
            Mutation::SetNodeProp { node, key, value } => {
                let nkey = match node {
                    NodeRef::Key(k) => *k,
                    NodeRef::New(i) => new_node_keys[*i],
                };
                let id = *st
                    .node_ids
                    .get(&nkey)
                    .ok_or_else(|| Error::instance(format!("lost node {nkey}")))?;
                let label = graph.try_node(id)?.label.clone();
                let ty = st
                    .schema
                    .node_type(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                let col = ty
                    .keys
                    .iter()
                    .position(|k| k == key)
                    .ok_or_else(|| Error::instance(format!("undeclared key `{key}`")))?;
                let pk_before = graph.try_node(id)?.prop(ty.default_key().as_str());
                graph.set_node_prop(id, key.clone(), value.clone())?;
                replay.push(ResolvedOp::SetNodeProp(id, key.clone(), value.clone()));
                patch_row(st, &mut pending, label.as_str(), &pk_before, col, value.clone())?;
                if col == 0 && pk_before != *value {
                    // The node's default key is the join value every
                    // incident edge row carries in SRC/TGT: patch them too.
                    let touched: Vec<(Ident, EdgeId, bool)> = graph
                        .out_edges(id)
                        .map(|e| (e.label.clone(), e.id, true))
                        .chain(graph.in_edges(id).map(|e| (e.label.clone(), e.id, false)))
                        .collect();
                    let mut incident: Vec<(Ident, Value, bool)> = Vec::with_capacity(touched.len());
                    for (elabel, eid, is_src) in touched {
                        let edk = st.schema.default_key_of(elabel.as_str()).ok_or_else(|| {
                            Error::instance(format!("label `{elabel}` is undeclared"))
                        })?;
                        incident.push((
                            elabel.clone(),
                            graph.try_edge(eid)?.prop(edk.as_str()),
                            is_src,
                        ));
                    }
                    for (elabel, epk, is_src) in incident {
                        let ety = st.schema.edge_type(elabel.as_str()).ok_or_else(|| {
                            Error::instance(format!("label `{elabel}` is undeclared"))
                        })?;
                        let ecol = if is_src { ety.keys.len() } else { ety.keys.len() + 1 };
                        patch_row(st, &mut pending, elabel.as_str(), &epk, ecol, value.clone())?;
                    }
                }
            }
            Mutation::SetEdgeProp { edge, key, value } => {
                let ekey = match edge {
                    EdgeRef::Key(k) => *k,
                    EdgeRef::New(i) => new_edge_keys[*i],
                };
                let id = *st
                    .edge_ids
                    .get(&ekey)
                    .ok_or_else(|| Error::instance(format!("lost edge {ekey}")))?;
                let label = graph.try_edge(id)?.label.clone();
                let ty = st
                    .schema
                    .edge_type(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                let col = ty
                    .keys
                    .iter()
                    .position(|k| k == key)
                    .ok_or_else(|| Error::instance(format!("undeclared key `{key}`")))?;
                let pk_before = graph.try_edge(id)?.prop(ty.default_key().as_str());
                graph.set_edge_prop(id, key.clone(), value.clone())?;
                replay.push(ResolvedOp::SetEdgeProp(id, key.clone(), value.clone()));
                patch_row(st, &mut pending, label.as_str(), &pk_before, col, value.clone())?;
            }
        }
    }
    // Translate commit-local slot coordinates into pre-commit published
    // positions and extract one TableDelta per touched table.
    let mut deltas: BTreeMap<String, TableDelta> = BTreeMap::new();
    for (name, p) in pending {
        let Some(table) = st.tables.get(&name) else {
            return Err(Error::instance(format!("no induced table `{name}`")));
        };
        let mut out = TableDelta::new();
        if !(p.removed_slots.is_empty() && p.patches.is_empty()) {
            let removed_set: HashSet<usize> = p.removed_slots.iter().copied().collect();
            let mut pos = vec![u32::MAX; p.len_before];
            let mut next = 0u32;
            for (slot, entry) in pos.iter_mut().enumerate() {
                if !table.is_dead(slot) || removed_set.contains(&slot) {
                    *entry = next;
                    next += 1;
                }
            }
            out.removed = p.removed_slots.iter().map(|s| pos[*s]).collect();
            out.removed.sort_unstable();
            out.removed.dedup();
            out.patches =
                p.patches.iter().map(|(s, c, v)| (pos[*s] as usize, *c, v.clone())).collect();
        }
        out.appended = p
            .appended_slots
            .iter()
            .filter(|s| !table.is_dead(**s))
            .map(|s| table.row(*s).clone())
            .collect();
        if !out.is_empty() {
            deltas.insert(name, out);
        }
    }
    Ok(Applied { deltas, node_keys: new_node_keys, edge_keys: new_edge_keys, replay })
}

fn resolve_applied_node(st: &StoreState, new_node_keys: &[NodeKey], r: &NodeRef) -> Result<NodeId> {
    let key = match r {
        NodeRef::Key(k) => *k,
        NodeRef::New(i) => *new_node_keys
            .get(*i)
            .ok_or_else(|| Error::instance(format!("unknown staged node #{i}")))?,
    };
    st.node_ids
        .get(&key)
        .copied()
        .ok_or_else(|| Error::instance(format!("unknown or removed node {key}")))
}

/// Appends a row to a table log and records the append.  The pending
/// entry is created (capturing `len_before`) **before** the log grows, so
/// pre-commit coordinates stay correct.
fn append_row(
    st: &mut StoreState,
    pending: &mut BTreeMap<String, Pending>,
    name: &str,
    row: Vec<Value>,
) -> Result<()> {
    touch(pending, &st.tables, name);
    let slot = st
        .tables
        .get_mut(name)
        .ok_or_else(|| Error::instance(format!("no induced table `{name}`")))?
        .append(row);
    // Infallible: `touch` above inserted the entry under this same borrow.
    pending.get_mut(name).expect("touched above").appended_slots.push(slot);
    Ok(())
}

/// Tombstones the row carrying `pk` and records the removal (or cancels
/// the append when the row was added by this very commit).
fn tombstone_row(
    st: &mut StoreState,
    pending: &mut BTreeMap<String, Pending>,
    name: &str,
    pk: &Value,
) -> Result<()> {
    let slot = st
        .tables
        .get_mut(name)
        .and_then(|t| t.tombstone(pk))
        .ok_or_else(|| Error::instance(format!("no row with key {pk} in `{name}`")))?;
    let p = touch(pending, &st.tables, name);
    if slot >= p.len_before {
        p.appended_slots.retain(|s| *s != slot);
    } else {
        p.removed_slots.push(slot);
    }
    Ok(())
}

/// Patches one cell of the row carrying `pk_before` and records the patch
/// when the row predates this commit (appended rows are read back from
/// the log at extraction time, so their patches need no record).
fn patch_row(
    st: &mut StoreState,
    pending: &mut BTreeMap<String, Pending>,
    name: &str,
    pk_before: &Value,
    col: usize,
    value: Value,
) -> Result<()> {
    let table = st
        .tables
        .get_mut(name)
        .ok_or_else(|| Error::instance(format!("no induced table `{name}`")))?;
    let slot = table
        .slot_of(pk_before)
        .ok_or_else(|| Error::instance(format!("no row with key {pk_before} in `{name}`")))?;
    table.patch(slot, col, value.clone());
    let p = touch(pending, &st.tables, name);
    if slot < p.len_before {
        p.patches.push((slot, col, value));
    }
    Ok(())
}
