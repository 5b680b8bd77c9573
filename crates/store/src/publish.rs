//! Graph publication: producing the immutable graph buffer of each new
//! generation by replaying resolved operations onto a reclaimed buffer,
//! or by cloning the master graph.

use crate::StoreState;
use graphiti_common::{Ident, Result, Value};
use graphiti_graph::{EdgeId, GraphInstance, NodeId};
use std::sync::Arc;

/// One mutation resolved to concrete arena ids, exactly as phase 2
/// executed it against the master graph.  Replaying a generation's log on
/// a buffer that holds the previous generation reproduces the master
/// graph bit-for-bit, because every [`GraphInstance`] mutation (including
/// swap-remove renumbering) is deterministic.
#[derive(Debug, Clone)]
pub(crate) enum ResolvedOp {
    AddNode { label: Ident, props: Vec<(Ident, Value)> },
    AddEdge { label: Ident, src: NodeId, tgt: NodeId, props: Vec<(Ident, Value)> },
    RemoveNode(NodeId),
    RemoveEdge(EdgeId),
    SetNodeProp(NodeId, Ident, Value),
    SetEdgeProp(EdgeId, Ident, Value),
}

fn replay(g: &mut GraphInstance, ops: &[ResolvedOp]) -> Result<()> {
    for op in ops {
        match op {
            ResolvedOp::AddNode { label, props } => {
                g.add_node(label.clone(), props.iter().map(|(k, v)| (k.clone(), v.clone())));
            }
            ResolvedOp::AddEdge { label, src, tgt, props } => {
                g.add_edge(
                    label.clone(),
                    *src,
                    *tgt,
                    props.iter().map(|(k, v)| (k.clone(), v.clone())),
                );
            }
            ResolvedOp::RemoveNode(id) => {
                g.remove_node(*id)?;
            }
            ResolvedOp::RemoveEdge(id) => {
                g.remove_edge(*id)?;
            }
            ResolvedOp::SetNodeProp(id, key, value) => {
                g.set_node_prop(*id, key.clone(), value.clone())?;
            }
            ResolvedOp::SetEdgeProp(id, key, value) => {
                g.set_edge_prop(*id, key.clone(), value.clone())?;
            }
        }
    }
    Ok(())
}

/// Produces the graph handle for the generation being published.
///
/// Fast path: the generation-before-last's buffer has been released by
/// every reader (`Arc::try_unwrap` succeeds), so the commit **replays**
/// the backlog of resolved operations onto it — O(delta), no full copy.
/// Slow path (a reader still pins that generation, or the store just
/// opened): clone the master graph.  Readers are unaffected either way;
/// this only decides how the new immutable buffer is produced.
pub(crate) fn publish_graph(st: &mut StoreState, ops: Vec<ResolvedOp>) -> Arc<GraphInstance> {
    st.backlog.push_back(ops);
    while st.backlog.len() > 2 {
        st.backlog.pop_front();
    }
    let reclaimed = st.retiring_graph.take().and_then(|arc| Arc::try_unwrap(arc).ok());
    let new_graph = match reclaimed {
        Some(mut g) => {
            // The buffer holds the state `backlog.len()` publications
            // back; replay every backlog entry to reach the master state.
            let ok = st.backlog.iter().all(|ops| replay(&mut g, ops).is_ok());
            if ok && g.node_count() == st.graph.node_count() {
                debug_assert!(g == st.graph, "replayed buffer must equal the master graph");
                st.graph_reclaims.inc();
                g
            } else {
                // An impossible replay failure: fall back to a clone.
                st.graph_clones.inc();
                st.graph.clone()
            }
        }
        None => {
            st.graph_clones.inc();
            st.graph.clone()
        }
    };
    let arc = Arc::new(new_graph);
    st.retiring_graph = Some(std::mem::replace(&mut st.published_graph, Arc::clone(&arc)));
    arc
}
