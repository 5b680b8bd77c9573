//! Durable open and recovery: bootstrap of a fresh directory, checkpoint
//! loading with fallback, WAL-suffix replay, and checkpoint writing.

use crate::table::StoreTable;
use crate::{
    checkpoint, make_engine, vfs, wal, DurabilityOptions, DurableState, EdgeKey, GraphStore,
    IdempotencyTable, NodeKey, StoreCounters, StoreError, StoreResult, StoreState,
};
use graphiti_common::{Error, Ident, Result};
use graphiti_engine::Snapshot;
use graphiti_graph::{EdgeId, GraphInstance, GraphSchema, NodeId};
use graphiti_obs::Obs;
use graphiti_relational::{ColumnInstance, RelInstance};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

impl GraphStore {
    /// The durable open/recover path behind [`StoreBuilder::durable`](crate::StoreBuilder::durable).
    pub(crate) fn durable_open_impl(
        dir: PathBuf,
        schema: GraphSchema,
        bootstrap: GraphInstance,
        extra: impl IntoIterator<Item = (String, RelInstance)>,
        options: DurabilityOptions,
        fs: Arc<dyn vfs::Vfs>,
        cache_capacity: Option<usize>,
    ) -> StoreResult<GraphStore> {
        fs.create_dir_all(&dir).map_err(|e| StoreError::io("store: creating", &dir, e))?;
        let checkpoints = checkpoint::list_checkpoints(&*fs, &dir)?;
        let segments = wal::list_segments(&*fs, &dir)?;
        if checkpoints.is_empty() && segments.is_empty() {
            let store = GraphStore::open_with_capacity(schema, bootstrap, extra, cache_capacity)
                .map_err(StoreError::Rejected)?;
            store.attach_durability(fs, dir, options)?;
            return Ok(store);
        }
        // ---- recovery: newest valid checkpoint, oldest-first fallback.
        let mut image = None;
        for (_, p) in checkpoints.iter().rev() {
            if let Ok(i) = checkpoint::load(&*fs, p) {
                image = Some(i);
                break;
            }
        }
        let recovered_from_checkpoint = image.is_some();
        let store = match image {
            Some(image) => GraphStore::from_checkpoint(schema, image, extra, cache_capacity)
                .map_err(|e| StoreError::Internal(e.to_string()))?,
            None => {
                // Checkpoint files exist but none can be loaded: WAL
                // replay alone can never reconstruct the checkpointed
                // base state (generation 0 may hold a non-empty
                // bootstrap graph), so "replay onto empty" would reach
                // the right generation with the wrong contents.  Refuse
                // with a typed error naming the newest checkpoint.
                if let Some((_, newest)) = checkpoints.last() {
                    return Err(StoreError::corrupt(
                        newest,
                        "no checkpoint can be loaded; WAL replay alone cannot reconstruct the \
                         checkpointed base state",
                    ));
                }
                // No checkpoint file at all (a manually pruned
                // directory): replay the log onto an empty store.  Only
                // sound when the log reaches back to generation 1 — the
                // gap and corrupt-head checks below reject anything else
                // with a typed `Corrupt` instead of silently starting
                // empty.
                GraphStore::open_with_capacity(schema, GraphInstance::new(), extra, cache_capacity)
                    .map_err(StoreError::Rejected)?
            }
        };
        // ---- replay the WAL suffix, truncating any torn tail.
        let mut replayed = 0u64;
        let mut tail: Option<(PathBuf, u64)> = None;
        let mut torn_at: Option<usize> = None;
        for (i, (_, seg_path)) in segments.iter().enumerate() {
            let scan = wal::read_segment(&*fs, seg_path)?;
            if scan.torn && !recovered_from_checkpoint && scan.records.is_empty() && replayed == 0 {
                // The bootstrap edge case: nothing recovered the base
                // state and the very head of the log is unreadable —
                // starting empty here would silently drop data.
                return Err(StoreError::corrupt(
                    seg_path,
                    "WAL head is corrupt and no valid checkpoint exists",
                ));
            }
            if scan.torn {
                let mut f = fs
                    .open_rw(seg_path)
                    .map_err(|e| StoreError::io("wal: reopening torn segment", seg_path, e))?;
                f.set_len(scan.valid_len)
                    .map_err(|e| StoreError::io("wal: truncating torn tail", seg_path, e))?;
            }
            for rec in scan.records {
                let current = store.generation();
                if rec.generation <= current {
                    continue; // already covered by the checkpoint
                }
                if rec.generation != current + 1 {
                    return Err(StoreError::corrupt(
                        seg_path,
                        format!(
                            "wal gap: expected generation {}, found {}",
                            current + 1,
                            rec.generation
                        ),
                    ));
                }
                let generation = rec.generation;
                store.commit_tagged(rec.delta, rec.token).map_err(|e| {
                    StoreError::corrupt(
                        seg_path,
                        format!("wal replay of generation {generation} failed: {e}"),
                    )
                })?;
                replayed += 1;
            }
            tail = Some((seg_path.clone(), scan.valid_len));
            if scan.torn {
                torn_at = Some(i);
                break;
            }
        }
        // Anything after a tear is unreachable (its generations can
        // never be replayed past the gap): vacuum it.
        if let Some(i) = torn_at {
            for (_, stale) in &segments[i + 1..] {
                let _ = fs.remove_file(stale);
            }
        }
        // The newest checkpoint's filename generation is a durability
        // acknowledgment: recovery landing below it means an unloadable
        // checkpoint whose covered WAL segments were already vacuumed.
        // Silently serving the older state would lose acknowledged
        // commits — refuse with a typed error instead.  (Falling back to
        // an older checkpoint stays legal when surviving segments bridge
        // the gap, e.g. a crash between checkpoint write and vacuum.)
        if let Some((newest_gen, newest_path)) = checkpoints.last() {
            if store.generation() < *newest_gen {
                return Err(StoreError::corrupt(
                    newest_path,
                    format!(
                        "checkpoint generation {newest_gen} cannot be loaded and the WAL only \
                         reaches generation {} — refusing to silently lose acknowledged commits",
                        store.generation()
                    ),
                ));
            }
        }
        let writer = match tail {
            Some((seg_path, valid_len)) => wal::WalWriter::open_append(&*fs, seg_path, valid_len)?,
            None => wal::WalWriter::create(&*fs, wal::segment_path(&dir, store.generation()))?,
        };
        {
            let mut st = store.state.lock().unwrap_or_else(|p| p.into_inner());
            let last_checkpoint =
                checkpoint::list_checkpoints(&*fs, &dir)?.last().map(|(g, _)| *g).unwrap_or(0);
            let d =
                DurableState::new(dir, fs, options, writer, last_checkpoint, store.obs.registry());
            d.replayed.set(replayed);
            st.durable = Some(d);
        }
        Ok(store)
    }

    /// Rebuilds writer-side state from a checkpoint image: the master
    /// graph in arena order, stable keys, and the per-label row logs
    /// (slot-exact, tombstones included).  The recovered graph is
    /// re-validated by a cold freeze, and the checkpointed logs are
    /// cross-checked against the freeze-derived tables — recovery is
    /// *checkable*, not just plausible.
    fn from_checkpoint(
        schema: GraphSchema,
        image: checkpoint::CheckpointImage,
        extra: impl IntoIterator<Item = (String, RelInstance)>,
        cache_capacity: Option<usize>,
    ) -> Result<GraphStore> {
        let mut graph = GraphInstance::new();
        for n in &image.nodes {
            graph.add_node(
                Ident::new(&n.label),
                n.props.iter().map(|(k, v)| (Ident::new(k), v.clone())),
            );
        }
        for e in &image.edges {
            if e.src as usize >= image.nodes.len() || e.tgt as usize >= image.nodes.len() {
                return Err(Error::instance(format!(
                    "checkpoint edge `{}` references a missing node",
                    e.label
                )));
            }
            graph.add_edge(
                Ident::new(&e.label),
                NodeId(e.src as usize),
                NodeId(e.tgt as usize),
                e.props.iter().map(|(k, v)| (Ident::new(k), v.clone())),
            );
        }
        // Cold freeze: re-validates the whole recovered graph against the
        // schema and rebuilds the SDT context (the independent oracle the
        // checkpointed logs are checked against below).
        let cold = Snapshot::freeze_with(schema.clone(), graph, extra)?;
        let graph = cold.graph().clone();
        let node_keys: Vec<NodeKey> = image.nodes.iter().map(|n| NodeKey(n.key)).collect();
        let edge_keys: Vec<EdgeKey> = image.edges.iter().map(|e| EdgeKey(e.key)).collect();
        let max_key = node_keys
            .iter()
            .map(|k| k.0)
            .chain(edge_keys.iter().map(|k| k.0))
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        if image.next_key < max_key {
            return Err(Error::instance(format!(
                "checkpoint next_key {} is below an assigned key ({max_key})",
                image.next_key
            )));
        }
        let node_ids: HashMap<NodeKey, NodeId> =
            node_keys.iter().enumerate().map(|(i, k)| (*k, NodeId(i))).collect();
        let edge_ids: HashMap<EdgeKey, EdgeId> =
            edge_keys.iter().enumerate().map(|(i, k)| (*k, EdgeId(i))).collect();
        if node_ids.len() != node_keys.len() || edge_ids.len() != edge_keys.len() {
            return Err(Error::instance("checkpoint holds duplicate stable keys"));
        }
        let mut tables = BTreeMap::new();
        let mut induced = RelInstance::new();
        for t in image.tables {
            let table = StoreTable::from_log_parts(t.columns, t.slots)?;
            induced.insert_table(t.name.clone(), table.snapshot_table());
            tables.insert(t.name, table);
        }
        // Checkable recovery: every freeze-derived table must exist in
        // the checkpoint with the same columns and the same bag of rows.
        let mut cold_tables = 0usize;
        for (name, cold_table) in cold.induced().tables() {
            cold_tables += 1;
            let live = induced.table(name).ok_or_else(|| {
                Error::instance(format!("checkpoint is missing induced table `{name}`"))
            })?;
            if live.columns != cold_table.columns || !live.rows_bag_equal(cold_table) {
                return Err(Error::instance(format!(
                    "checkpoint table `{name}` diverges from the recovered graph"
                )));
            }
        }
        if tables.len() != cold_tables {
            return Err(Error::instance("checkpoint holds tables the schema does not induce"));
        }
        // Publish the checkpointed (log-ordered) images, not the cold
        // arena-ordered ones: published row order must survive recovery
        // so later incremental commits keep patching consistently.
        let columnar = ColumnInstance::from_rel(&induced);
        let (extra_maps, extra_columnar) = cold.extra_parts();
        let published = Snapshot::from_parts_with_columnar(
            cold.schema_arc(),
            cold.graph_arc(),
            cold.ctx_arc(),
            columnar,
            extra_maps,
            extra_columnar,
        );
        let published_graph = cold.graph_arc();
        let obs = Arc::new(Obs::new());
        let c = StoreCounters::register(obs.registry());
        // Restore the checkpointed lifetime counters into the registry
        // cells so recovery is stats-transparent.
        c.commits.set(image.commits);
        c.rejected.set(image.rejected);
        c.compactions.set(image.compactions);
        let commit_e2e_micros = obs.registry().histogram("graphiti_commit_e2e_micros");
        let group_commit_size = obs.registry().histogram("graphiti_group_commit_size");
        Ok(GraphStore {
            engine: make_engine(Arc::clone(&published), cache_capacity, Arc::clone(&obs)),
            state: Mutex::new(StoreState {
                schema,
                graph,
                node_keys,
                edge_keys,
                node_ids,
                edge_ids,
                next_key: image.next_key,
                tables,
                published_snapshot: published,
                published_graph,
                retiring_graph: None,
                backlog: VecDeque::new(),
                generation: image.generation,
                commits: c.commits,
                rejected: c.rejected,
                compactions: c.compactions,
                graph_clones: c.graph_clones,
                graph_reclaims: c.graph_reclaims,
                durable: None,
                fence: None,
                fence_events: c.fence_events,
                fenced_commits: c.fenced_commits,
                idempotency: IdempotencyTable::from_entries(image.tokens),
                idempotent_replays: c.idempotent_replays,
            }),
            obs,
            commit_e2e_micros,
            group_commit_size,
        })
    }

    /// Bootstraps durability on a fresh directory: checkpoint the
    /// current state, then open the first WAL segment.
    fn attach_durability(
        &self,
        fs: Arc<dyn vfs::Vfs>,
        dir: PathBuf,
        options: DurabilityOptions,
    ) -> StoreResult<()> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let image = build_checkpoint_image(&st);
        checkpoint::write(&*fs, &dir, &image)?;
        let wal = wal::WalWriter::create(&*fs, wal::segment_path(&dir, st.generation))?;
        let d = DurableState::new(dir, fs, options, wal, st.generation, self.obs.registry());
        d.checkpoints_written.inc();
        st.durable = Some(d);
        Ok(())
    }
}

/// Serializes the writer-side state into a checkpoint image: counters,
/// the master graph in arena order with its stable keys, and every row
/// log slot-exactly (tombstones included, so published log order
/// survives recovery).
fn build_checkpoint_image(st: &StoreState) -> checkpoint::CheckpointImage {
    let nodes = st
        .graph
        .nodes()
        .iter()
        .map(|n| checkpoint::CkptNode {
            key: st.node_keys[n.id.0].0,
            label: n.label.as_str().to_owned(),
            props: n.props.iter().map(|(k, v)| (k.as_str().to_owned(), v.clone())).collect(),
        })
        .collect();
    let edges = st
        .graph
        .edges()
        .iter()
        .map(|e| checkpoint::CkptEdge {
            key: st.edge_keys[e.id.0].0,
            label: e.label.as_str().to_owned(),
            src: e.src.0 as u64,
            tgt: e.tgt.0 as u64,
            props: e.props.iter().map(|(k, v)| (k.as_str().to_owned(), v.clone())).collect(),
        })
        .collect();
    let tables = st
        .tables
        .iter()
        .map(|(name, t)| checkpoint::CkptTable {
            name: name.clone(),
            columns: t.columns().to_vec(),
            slots: t.log_slots().map(|(dead, row)| (dead, row.clone())).collect(),
        })
        .collect();
    checkpoint::CheckpointImage {
        generation: st.generation,
        commits: st.commits.get(),
        rejected: st.rejected.get(),
        compactions: st.compactions.get(),
        next_key: st.next_key,
        nodes,
        edges,
        tables,
        tokens: st.idempotency.entries(),
    }
}

/// Checkpoints the current generation, rotates the WAL to a fresh
/// segment, and vacuums fully covered segments plus checkpoints beyond
/// the retention count.  Caller must hold the state lock and have
/// `st.durable` set.
pub(crate) fn write_checkpoint_locked(st: &mut StoreState) -> StoreResult<()> {
    let image = build_checkpoint_image(st);
    let generation = image.generation;
    let Some(d) = st.durable.as_mut() else {
        // Callers verify `st.durable` before calling; reaching here is a
        // logic bug, reported instead of panicking.
        debug_assert!(false, "write_checkpoint_locked needs a durable store");
        return Err(StoreError::Internal(
            "write_checkpoint_locked called without a durability layer".into(),
        ));
    };
    // The checkpoint file is a complete, fsynced image of everything it
    // covers, so it supersedes the log: no separate WAL sync is needed
    // before vacuuming covered segments.  (This also keeps the
    // unretriable-fsync problem out of the checkpoint path, which is
    // what lets `checkpoint_now` recover a fenced store.)
    checkpoint::write(&*d.vfs, &d.dir, &image)?;
    d.wal = wal::WalWriter::create(&*d.vfs, wal::segment_path(&d.dir, generation))?;
    d.last_checkpoint = generation;
    d.checkpoints_written.inc();
    for (base, path) in wal::list_segments(&*d.vfs, &d.dir)? {
        if base < generation && d.vfs.remove_file(&path).is_ok() {
            d.segments_removed.inc();
        }
    }
    let ckpts = checkpoint::list_checkpoints(&*d.vfs, &d.dir)?;
    let keep = d.options.keep_checkpoints.max(1);
    if ckpts.len() > keep {
        for (_, path) in &ckpts[..ckpts.len() - keep] {
            let _ = d.vfs.remove_file(path);
        }
    }
    Ok(())
}
