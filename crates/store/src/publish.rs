//! Graph buffers: checking out the mutable graph a commit group applies
//! to, and publishing it as the next generation's immutable graph.

use crate::StoreState;
use graphiti_common::{Ident, Result, Value};
use graphiti_graph::{EdgeId, GraphInstance, NodeId};
use std::sync::Arc;

/// One mutation resolved to concrete arena ids, exactly as phase 2
/// executed it against the checked-out graph.  Replaying a generation's
/// log on a buffer that holds the previous generation reproduces that
/// generation's graph bit-for-bit, because every [`GraphInstance`]
/// mutation (including swap-remove renumbering) is deterministic.
#[derive(Debug, Clone)]
pub(crate) enum ResolvedOp {
    AddNode { label: Ident, props: Vec<(Ident, Value)> },
    AddEdge { label: Ident, src: NodeId, tgt: NodeId, props: Vec<(Ident, Value)> },
    RemoveNode(NodeId),
    RemoveEdge(EdgeId),
    SetNodeProp(NodeId, Ident, Value),
    SetEdgeProp(EdgeId, Ident, Value),
}

fn replay(g: &mut GraphInstance, ops: Vec<ResolvedOp>) -> Result<()> {
    for op in ops {
        match op {
            ResolvedOp::AddNode { label, props } => {
                g.add_node(label, props);
            }
            ResolvedOp::AddEdge { label, src, tgt, props } => {
                g.add_edge(label, src, tgt, props);
            }
            ResolvedOp::RemoveNode(id) => {
                g.remove_node(id)?;
            }
            ResolvedOp::RemoveEdge(id) => {
                g.remove_edge(id)?;
            }
            ResolvedOp::SetNodeProp(id, key, value) => {
                g.set_node_prop(id, key, value)?;
            }
            ResolvedOp::SetEdgeProp(id, key, value) => {
                g.set_edge_prop(id, key, value)?;
            }
        }
    }
    Ok(())
}

/// Checks out the mutable graph the next generation is built in, holding
/// the published graph's state.
///
/// Fast path: every reader has released the retiring buffer (the
/// generation before the published one), so `Arc::try_unwrap` succeeds
/// and the one op list it lags by is **replayed** onto it — O(delta), no
/// full copy.  Slow path (a reader still pins that generation, or the
/// store just opened): clone the published graph.
pub(crate) fn checkout_graph(st: &mut StoreState) -> GraphInstance {
    let published = st.published_snapshot.graph();
    let lag = std::mem::take(&mut st.lag);
    if let Some(mut g) = st.retiring_graph.take().and_then(|arc| Arc::try_unwrap(arc).ok()) {
        // A replay failure is impossible; should one happen, clone.
        if replay(&mut g, lag).is_ok() && g.node_count() == published.node_count() {
            debug_assert!(g == *published, "replayed buffer must equal the published graph");
            st.graph_reclaims.inc();
            return g;
        }
    }
    st.graph_clones.inc();
    published.clone()
}

/// Publishes a checked-out graph built by applying `ops`.  The graph it
/// replaces becomes the retiring buffer, lagging by `ops`.
pub(crate) fn publish_graph(
    st: &mut StoreState,
    graph: GraphInstance,
    ops: Vec<ResolvedOp>,
) -> Arc<GraphInstance> {
    st.retiring_graph = Some(st.published_snapshot.graph_arc());
    st.lag = ops;
    Arc::new(graph)
}
