//! A writable, schema-validated property-graph store with MVCC snapshot
//! generations and **incremental re-freeze**.
//!
//! [`Snapshot::freeze`](graphiti_engine::Snapshot::freeze) is the cold
//! path: validate the whole graph, infer the SDT, run the standard
//! transformer over every fact, and convert every induced table to
//! columnar form.  That is the right oracle and the wrong write path — a
//! one-property update would pay for the entire graph.  [`GraphStore`]
//! keeps the induced-instance construction *compositional per label*
//! (exactly what makes the paper's `InferSDT` incrementalizable): a
//! [`Delta`] of graph mutations maps to per-label row deltas, so a commit
//!
//! 1. **validates incrementally** — only the touched nodes/edges and
//!    their schema obligations (declared labels and keys, default-key
//!    presence/uniqueness via a maintained primary-key index, endpoint
//!    types, no dangling edges), never the whole graph;
//! 2. **applies the delta** to the next generation's graph buffer (the
//!    retiring one replayed forward, else a clone of the published graph;
//!    stable [`NodeKey`]/[`EdgeKey`] handles survive the arena's
//!    swap-remove renumbering) and to the per-label
//!    [append + tombstone + compaction logs](`crate::table`);
//! 3. **publishes a new generation** by patching the *previous*
//!    generation's columnar image with
//!    [`TableDelta`](graphiti_relational::TableDelta)s — untouched tables
//!    are shared, touched columns are patched column-at-a-time — and
//!    swapping the result into the embedded [`Engine`].  No row image is
//!    derived: a generation builds its row view only if a query needs
//!    rows (see [`Snapshot::induced`]).
//!
//! Readers are never blocked: every query/batch pins the generation
//! current at its start (`Arc<Snapshot>`), writers serialize on the
//! store's internal lock, and the engine's plan cache survives commits
//! (plans are keyed by query text + target, not data).  A rejected delta
//! changes nothing — validation runs to completion before the first
//! mutation is applied.
//!
//! # Durability
//!
//! [`StoreBuilder::durable`] adds a crash-safe persistence layer:
//! every committed delta is appended to a checksummed write-ahead log and
//! flushed (optionally fsynced) **before** the generation is published;
//! periodic checkpoints snapshot the per-label row logs so replay cost
//! stays bounded; and recovery loads the newest valid checkpoint,
//! replays the WAL suffix through the ordinary commit path, and
//! truncates any torn tail record instead of failing.  A rejected delta
//! writes no WAL record, so rejection is provably side-effect-free on
//! disk too.  See [`DurabilityOptions`] for the fsync and checkpoint
//! knobs.
//!
//! # Failure model
//!
//! All store I/O flows through a pluggable [`vfs::Vfs`], and every
//! fallible operation returns a typed [`StoreError`].  Under live I/O
//! failure the commit path guarantees *atomicity or fencing*: a failed
//! WAL **write** is rolled back (bounded retries first, see
//! [`DurabilityOptions::wal_retry_attempts`]) and the commit returns
//! [`StoreError::Io`] with the store untouched and live; a failed WAL
//! **fsync** can never be trusted retroactively (the kernel may have
//! dropped the dirty pages — the fsyncgate lesson), so the store
//! *fences* itself read-only: reads keep serving the last published
//! generation, further commits return [`StoreError::Fenced`], and the
//! recovery paths are [`GraphStore::checkpoint_now`] (re-captures the
//! full in-memory state on fresh files) or a reopen.
//!
//! # Example
//!
//! ```
//! use graphiti_store::{Delta, GraphStore, QuerySurface};
//! use graphiti_engine::BatchQuery;
//! use graphiti_graph::{GraphSchema, GraphInstance, NodeType, EdgeType};
//! use graphiti_common::Value;
//!
//! let schema = GraphSchema::new()
//!     .with_node(NodeType::new("EMP", ["id", "name"]))
//!     .with_node(NodeType::new("DEPT", ["dnum", "dname"]))
//!     .with_edge(EdgeType::new("WORK_AT", "EMP", "DEPT", ["wid"]));
//! let store = GraphStore::open(schema, GraphInstance::new()).unwrap();
//!
//! let mut delta = Delta::new();
//! let ada = delta.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("Ada"))]);
//! let cs = delta.add_node("DEPT", [("dnum", Value::Int(1)), ("dname", Value::str("CS"))]);
//! delta.add_edge("WORK_AT", ada, cs, [("wid", Value::Int(10))]);
//! let info = store.commit(delta).unwrap();
//! assert_eq!(info.generation, 1);
//!
//! let report = store.run_batch(
//!     &[BatchQuery::cypher("MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname AS d")],
//!     1,
//! );
//! assert_eq!(report.ok_count(), 1);
//! ```

mod apply;
mod builder;
mod checkpoint;
pub mod codec;
pub mod delta;
mod error;
mod group;
mod publish;
mod recovery;
mod session;
mod table;
mod validate;
pub mod vfs;
mod wal;

pub use builder::StoreBuilder;
pub use delta::{Delta, EdgeKey, EdgeRef, Mutation, NodeKey, NodeRef};
pub use error::{StoreError, StoreResult};
pub use graphiti_engine::QuerySurface;
pub use group::{CommitTicket, GroupCommitter, GroupOptions, GroupStats};
pub use session::{CommitAck, EmbeddedSession, Graphiti, GraphitiBuilder, ServiceStats, Session};
pub use vfs::{std_vfs, FaultKind, FaultVfs, OpClass, StdVfs, Vfs, VfsFile};

use crate::apply::apply_delta;
use crate::publish::{checkout_graph, publish_graph, ResolvedOp};
use crate::recovery::write_checkpoint_locked;
use crate::table::StoreTable;
use crate::validate::Staging;
use graphiti_common::{Error, Ident, Result, Value};
use graphiti_engine::{Engine, Snapshot};
use graphiti_graph::{EdgeId, GraphInstance, GraphSchema, NodeId};
use graphiti_obs::metrics::{Counter, Histogram, Registry};
use graphiti_obs::Obs;
use graphiti_relational::{RelInstance, TableDelta};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The outcome of a successful [`GraphStore::commit`].
#[derive(Debug)]
pub struct CommitInfo {
    /// The generation the commit published (0 is the opening freeze).
    pub generation: u64,
    /// The generation of [`CommitInfo::snapshot`].  Equal to
    /// [`CommitInfo::generation`] for a solo [`GraphStore::commit`]; for
    /// a member of a [`GraphStore::commit_group`] it is the generation of
    /// the *group's* single publication, which already includes every
    /// later member of the same group.
    pub published_generation: u64,
    /// The published snapshot generation.
    pub snapshot: Arc<Snapshot>,
    /// Stable keys for the delta's added nodes, in [`Delta::add_node`]
    /// order (keys are assigned even to nodes the same delta removed).
    pub node_keys: Vec<NodeKey>,
    /// Stable keys for the delta's added edges, in [`Delta::add_edge`]
    /// order.
    pub edge_keys: Vec<EdgeKey>,
    /// Names of the induced tables the commit patched.
    pub touched_tables: Vec<String>,
}

/// Tuning knobs of a durable store (see [`StoreBuilder::durability`]).
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// Fsync the WAL on **every** commit (the strict redo rule: a
    /// published generation always survives power loss).  When `false`,
    /// records are still written and flushed to the OS per commit —
    /// surviving a process crash — but only forced to stable storage at
    /// checkpoints (amortized group durability).
    pub fsync_each_commit: bool,
    /// Write a checkpoint (and rotate + vacuum WAL segments) every this
    /// many commits.  `0` disables automatic checkpoints; use
    /// [`GraphStore::checkpoint_now`] instead.
    pub checkpoint_interval: u64,
    /// How many checkpoint files to retain (minimum 1; older ones are
    /// vacuumed together with the WAL segments they cover).
    pub keep_checkpoints: usize,
    /// How many times to retry a failed WAL **write** (with backoff)
    /// before giving up on the commit.  Retries never apply to fsync —
    /// a failed fsync fences the store immediately, because its success
    /// can never be assumed retroactively.
    pub wal_retry_attempts: u32,
    /// Base backoff between WAL write retries, in milliseconds (the
    /// n-th retry sleeps `n * wal_retry_backoff_ms`).
    pub wal_retry_backoff_ms: u64,
}

impl Default for DurabilityOptions {
    fn default() -> DurabilityOptions {
        DurabilityOptions {
            fsync_each_commit: true,
            checkpoint_interval: 64,
            keep_checkpoints: 2,
            wal_retry_attempts: 2,
            wal_retry_backoff_ms: 1,
        }
    }
}

/// The durability attachment of a store: the open WAL segment plus
/// checkpoint bookkeeping.  Present only for stores opened through
/// [`StoreBuilder::durable`].
#[derive(Debug)]
struct DurableState {
    dir: PathBuf,
    vfs: Arc<dyn vfs::Vfs>,
    options: DurabilityOptions,
    wal: wal::WalWriter,
    /// Generation covered by the newest checkpoint on disk.
    last_checkpoint: u64,
    /// Byte length of the last checkpoint this process wrote (0 before
    /// the first): the next one sizes its buffer from it.
    last_checkpoint_bytes: usize,
    /// Records appended by this process (registry-backed: the same
    /// handles render through the shared observability registry, so
    /// [`StoreStats`] is a *view*, not a second vocabulary).
    wal_records: Counter,
    /// Bytes appended by this process.
    wal_bytes: Counter,
    checkpoints_written: Counter,
    checkpoint_failures: Counter,
    segments_removed: Counter,
    /// Commits recovered by WAL replay when this store opened.
    replayed: Counter,
    /// WAL write retries that eventually succeeded or were exhausted.
    wal_retries: Counter,
    /// Commits aborted by a WAL write failure (rolled back, store live).
    wal_append_failures: Counter,
    /// Per-record WAL append latency (write + flush, excluding fsync).
    wal_append_micros: Arc<Histogram>,
    /// WAL fsync latency (one shared fsync per commit group).
    wal_fsync_micros: Arc<Histogram>,
    /// Whole-checkpoint latency: encode, write, fsync, rename, WAL
    /// rotation and vacuum.
    checkpoint_write_micros: Arc<Histogram>,
}

impl DurableState {
    /// Registers the durable layer's counters and latency histograms in
    /// `registry` under the shared `graphiti_wal_*` / `graphiti_checkpoint*`
    /// names.
    #[allow(clippy::too_many_arguments)]
    fn new(
        dir: PathBuf,
        fs: Arc<dyn vfs::Vfs>,
        options: DurabilityOptions,
        wal: wal::WalWriter,
        last_checkpoint: u64,
        registry: &Registry,
    ) -> DurableState {
        DurableState {
            dir,
            vfs: fs,
            options,
            wal,
            last_checkpoint,
            last_checkpoint_bytes: 0,
            wal_records: registry.counter("graphiti_wal_records_total"),
            wal_bytes: registry.counter("graphiti_wal_bytes_total"),
            checkpoints_written: registry.counter("graphiti_checkpoints_written_total"),
            checkpoint_failures: registry.counter("graphiti_checkpoint_failures_total"),
            segments_removed: registry.counter("graphiti_wal_segments_removed_total"),
            replayed: registry.counter("graphiti_wal_replayed_commits_total"),
            wal_retries: registry.counter("graphiti_wal_retries_total"),
            wal_append_failures: registry.counter("graphiti_wal_append_failures_total"),
            wal_append_micros: registry.histogram("graphiti_wal_append_micros"),
            wal_fsync_micros: registry.histogram("graphiti_wal_fsync_micros"),
            checkpoint_write_micros: registry.histogram("graphiti_checkpoint_write_micros"),
        }
    }
}

/// Why (and how badly) a store fenced itself read-only.
#[derive(Debug, Clone)]
struct Fence {
    reason: String,
    /// `true`: the in-memory state is intact and only on-disk state is
    /// untrustworthy — [`GraphStore::checkpoint_now`] can recover by
    /// re-capturing everything on fresh files.  `false`: an internal
    /// apply-phase error left the in-memory state suspect; only a
    /// reopen (which replays durable state from disk) recovers.
    memory_ok: bool,
}

/// Point-in-time counters of a [`GraphStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Latest published generation.
    pub generation: u64,
    /// Committed deltas (excluding rejected ones).
    pub commits: u64,
    /// Deltas rejected by incremental validation.
    pub rejected_commits: u64,
    /// Table-log compactions performed.
    pub compactions: u64,
    /// Live nodes in the published graph.
    pub live_nodes: usize,
    /// Live edges in the published graph.
    pub live_edges: usize,
    /// Total log slots across all induced tables (live + tombstoned).
    pub logged_rows: usize,
    /// Tombstoned log slots awaiting compaction.
    pub tombstoned_rows: usize,
    /// Publishing commits whose graph buffer was a clone of the
    /// published graph (a reader still pinned the retiring buffer, or
    /// the store had just opened).
    pub graph_clones: u64,
    /// Publishing commits whose graph buffer was the reclaimed retiring
    /// buffer, replayed forward by one op list (O(delta), no full copy).
    pub graph_reclaims: u64,
    /// WAL records appended by this process (always 0 for an in-memory
    /// store).
    pub wal_records: u64,
    /// WAL bytes appended by this process.
    pub wal_bytes: u64,
    /// Checkpoints written by this process.
    pub checkpoints: u64,
    /// Checkpoint writes that failed (the triggering commit still
    /// succeeded; durability falls back to a longer WAL replay).
    pub checkpoint_failures: u64,
    /// Generation covered by the newest checkpoint (0 when none).
    pub last_checkpoint_generation: u64,
    /// Commits recovered by WAL replay when this store opened.
    pub replayed_commits: u64,
    /// WAL segments vacuumed after being covered by a checkpoint.
    pub wal_segments_removed: u64,
    /// Whether the store is currently fenced (read-only degraded mode).
    pub fenced: bool,
    /// How many times this store has fenced itself.
    pub fence_events: u64,
    /// Commits refused because the store was fenced.
    pub fenced_commits: u64,
    /// WAL write retries performed (transient-failure absorption).
    pub wal_retries: u64,
    /// Commits aborted by an unrecoverable WAL write failure (rolled
    /// back cleanly; the store stayed live).
    pub wal_append_failures: u64,
    /// Commits answered from the idempotency dedup table: a retried
    /// token whose original commit already landed (the reply carries the
    /// original generation; nothing is re-applied).
    pub idempotent_replays: u64,
}

/// How many `(token, generation)` dedup entries the store retains.  A
/// retry arriving after its token was evicted re-applies the delta; the
/// bound is sized far past any sane retry window (retries happen within
/// seconds, eviction after thousands of later tokened commits).
const IDEMPOTENCY_RETENTION: usize = 4096;

/// The commit-idempotency dedup table: client token → the generation its
/// commit produced, bounded FIFO.  Only *successful* commits are
/// recorded — an aborted or rejected attempt leaves no entry, so its
/// retry runs the full commit path again.
#[derive(Debug, Default)]
struct IdempotencyTable {
    by_token: HashMap<u128, u64>,
    /// Insertion order, for FIFO eviction and checkpoint serialization.
    fifo: VecDeque<u128>,
}

impl IdempotencyTable {
    fn lookup(&self, token: u128) -> Option<u64> {
        self.by_token.get(&token).copied()
    }

    fn record(&mut self, token: u128, generation: u64) {
        if self.by_token.insert(token, generation).is_none() {
            self.fifo.push_back(token);
        }
        while self.fifo.len() > IDEMPOTENCY_RETENTION {
            if let Some(evicted) = self.fifo.pop_front() {
                self.by_token.remove(&evicted);
            }
        }
    }

    /// Entries in insertion order (the shape checkpoints persist).
    /// `record` keeps every queued token in `by_token`.
    fn entries(&self) -> impl ExactSizeIterator<Item = (u128, u64)> + '_ {
        self.fifo.iter().map(|t| (*t, self.by_token[t]))
    }

    fn from_entries(entries: Vec<(u128, u64)>) -> IdempotencyTable {
        let mut table = IdempotencyTable::default();
        for (token, generation) in entries {
            table.record(token, generation);
        }
        table
    }
}

/// The writer-side state: stable-key maps and per-table logs beside the
/// published generation, whose graph is the committed one.
#[derive(Debug)]
struct StoreState {
    schema: GraphSchema,
    /// Arena-parallel stable keys (`node_keys[i]` is the key of `NodeId(i)`
    /// in the published graph), maintained through swap-removes.
    node_keys: Vec<NodeKey>,
    edge_keys: Vec<EdgeKey>,
    node_ids: HashMap<NodeKey, NodeId>,
    edge_ids: HashMap<EdgeKey, EdgeId>,
    next_key: u64,
    tables: BTreeMap<String, StoreTable>,
    /// The snapshot the store last published.  Commits derive the next
    /// generation from **this** lineage, never from whatever the engine
    /// currently serves — `Engine::swap_snapshot` is public, so a caller
    /// could have swapped in a foreign snapshot, and patching that would
    /// silently desynchronize the published images from the key maps and
    /// table logs.
    published_snapshot: Arc<Snapshot>,
    /// The previous generation's graph handle, kept so the next commit
    /// can reclaim its buffer once every reader has released it.
    retiring_graph: Option<Arc<GraphInstance>>,
    /// The resolved (id-level) operations that take the retiring buffer
    /// to the published graph.
    lag: Vec<ResolvedOp>,
    generation: u64,
    /// Counters are registry-backed [`Counter`] handles: the store
    /// increments them exactly where the plain `u64`s used to live, and
    /// the shared observability registry renders the same cells —
    /// [`StoreStats`] stays a point-in-time *view* over them.
    commits: Counter,
    rejected: Counter,
    compactions: Counter,
    graph_clones: Counter,
    graph_reclaims: Counter,
    /// WAL + checkpoint attachment (durable stores only).
    durable: Option<DurableState>,
    /// Set when the store has fenced itself read-only.
    fence: Option<Fence>,
    fence_events: Counter,
    fenced_commits: Counter,
    /// Commit-idempotency dedup table (token → generation).
    idempotency: IdempotencyTable,
    idempotent_replays: Counter,
}

impl StoreState {
    /// The committed graph: the published generation's.
    fn graph(&self) -> &GraphInstance {
        self.published_snapshot.graph()
    }
}

/// Registers the writer-side counters in `registry` under the shared
/// `graphiti_store_*` names (one call per store; re-registration returns
/// the same cells).
struct StoreCounters {
    commits: Counter,
    rejected: Counter,
    compactions: Counter,
    graph_clones: Counter,
    graph_reclaims: Counter,
    fence_events: Counter,
    fenced_commits: Counter,
    idempotent_replays: Counter,
}

impl StoreCounters {
    fn register(registry: &Registry) -> StoreCounters {
        StoreCounters {
            commits: registry.counter("graphiti_store_commits_total"),
            rejected: registry.counter("graphiti_store_rejected_commits_total"),
            compactions: registry.counter("graphiti_store_compactions_total"),
            graph_clones: registry.counter("graphiti_store_graph_clones_total"),
            graph_reclaims: registry.counter("graphiti_store_graph_reclaims_total"),
            fence_events: registry.counter("graphiti_store_fence_events_total"),
            fenced_commits: registry.counter("graphiti_store_fenced_commits_total"),
            idempotent_replays: registry.counter("graphiti_store_idempotent_replays_total"),
        }
    }
}

/// A writable graph database: one embedded batch [`Engine`] and a
/// totally ordered sequence of published snapshot generations, each with
/// its own immutable graph.  See the crate docs for the commit pipeline.
#[derive(Debug)]
pub struct GraphStore {
    engine: Engine,
    state: Mutex<StoreState>,
    /// The shared observability surface: one registry + tracer + slow
    /// query log for the store, its embedded engine, and any serving
    /// layer stacked on top.
    obs: Arc<Obs>,
    /// Commit end-to-end latency (lock acquisition through publication),
    /// recorded once per applied group member.
    commit_e2e_micros: Arc<Histogram>,
    /// Applied members per publishing commit group (a solo commit is a
    /// group of one).
    group_commit_size: Arc<Histogram>,
}

// The store is shared across writer and reader threads as-is.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GraphStore>();
    assert_send_sync::<Delta>();
    assert_send_sync::<CommitInfo>();
};

impl GraphStore {
    /// Opens a store over a schema and an initial graph: one cold
    /// [`Snapshot::freeze`] validates everything and becomes generation 0;
    /// every subsequent [`GraphStore::commit`] is incremental.
    pub fn open(schema: GraphSchema, graph: GraphInstance) -> Result<GraphStore> {
        GraphStore::open_with(schema, graph, [])
    }

    /// [`GraphStore::open`] plus extra named relational instances
    /// (immutable side databases batch queries can target via
    /// [`SqlTarget::Named`](graphiti_engine::SqlTarget::Named)); they are
    /// shared by reference across all generations.
    pub fn open_with(
        schema: GraphSchema,
        graph: GraphInstance,
        extra: impl IntoIterator<Item = (String, RelInstance)>,
    ) -> Result<GraphStore> {
        GraphStore::open_with_capacity(schema, graph, extra, None)
    }

    /// [`GraphStore::open_with`] with an optional plan-cache capacity
    /// for the embedded engine (the [`StoreBuilder`] plumbing).
    fn open_with_capacity(
        schema: GraphSchema,
        graph: GraphInstance,
        extra: impl IntoIterator<Item = (String, RelInstance)>,
        cache_capacity: Option<usize>,
    ) -> Result<GraphStore> {
        let snapshot = Snapshot::freeze_with(schema.clone(), graph, extra)?;
        let ctx = snapshot.ctx().clone();
        let graph = snapshot.graph();
        let node_keys: Vec<NodeKey> = (0..graph.node_count()).map(|i| NodeKey(i as u64)).collect();
        let edge_keys: Vec<EdgeKey> =
            (0..graph.edge_count()).map(|i| EdgeKey((graph.node_count() + i) as u64)).collect();
        let node_ids = node_keys.iter().enumerate().map(|(i, k)| (*k, NodeId(i))).collect();
        let edge_ids = edge_keys.iter().enumerate().map(|(i, k)| (*k, EdgeId(i))).collect();
        let mut tables = BTreeMap::new();
        for rel in &ctx.induced_schema.relations {
            let name = rel.name.as_str();
            debug_assert_eq!(
                ctx.induced_schema.primary_key(name).map(Ident::as_str),
                Some(rel.attrs[0].as_str()),
                "InferSDT puts the default key first"
            );
            let image = snapshot
                .induced()
                .table(name)
                .ok_or_else(|| Error::instance(format!("freeze produced no table `{name}`")))?;
            tables.insert(name.to_string(), StoreTable::from_table(image));
        }
        let next_key = (graph.node_count() + graph.edge_count()) as u64;
        let published_snapshot = Arc::clone(&snapshot);
        let obs = Arc::new(Obs::new());
        let c = StoreCounters::register(obs.registry());
        let commit_e2e_micros = obs.registry().histogram("graphiti_commit_e2e_micros");
        let group_commit_size = obs.registry().histogram("graphiti_group_commit_size");
        Ok(GraphStore {
            engine: make_engine(snapshot, cache_capacity, Arc::clone(&obs)),
            state: Mutex::new(StoreState {
                schema,
                published_snapshot,
                node_keys,
                edge_keys,
                node_ids,
                edge_ids,
                next_key,
                tables,
                retiring_graph: None,
                lag: Vec::new(),
                generation: 0,
                commits: c.commits,
                rejected: c.rejected,
                compactions: c.compactions,
                graph_clones: c.graph_clones,
                graph_reclaims: c.graph_reclaims,
                durable: None,
                fence: None,
                fence_events: c.fence_events,
                fenced_commits: c.fenced_commits,
                idempotency: IdempotencyTable::default(),
                idempotent_replays: c.idempotent_replays,
            }),
            obs,
            commit_e2e_micros,
            group_commit_size,
        })
    }

    /// Writes a checkpoint of the current generation now, rotating the
    /// WAL and vacuuming segments (and checkpoints beyond the retention
    /// count) the new checkpoint covers.  Returns the checkpointed
    /// generation.  Errors if the store is not durable.
    ///
    /// This is also the **fence recovery path**: a store fenced by a
    /// durability failure (failed fsync, failed rollback) has intact
    /// in-memory state, so a successful checkpoint — the full state
    /// re-captured on fresh files, the WAL rotated, stale segments (and
    /// any record of uncertain durability in them) vacuumed — restores
    /// every durability invariant and lifts the fence.  A fence raised
    /// by an internal apply error is *not* recoverable this way (the
    /// in-memory state itself is suspect); reopen the store instead.
    pub fn checkpoint_now(&self) -> StoreResult<u64> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if st.durable.is_none() {
            return Err(StoreError::Unsupported(
                "checkpoint_now: the store has no durability layer".into(),
            ));
        }
        if let Some(f) = &st.fence {
            if !f.memory_ok {
                return Err(StoreError::Fenced {
                    reason: format!("{} (in-memory state is suspect; reopen to recover)", f.reason),
                });
            }
        }
        write_checkpoint_locked(&mut st)?;
        st.fence = None;
        Ok(st.generation)
    }

    /// Whether the store is fenced (read-only degraded mode).
    pub fn is_fenced(&self) -> bool {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).fence.is_some()
    }

    /// Why the store fenced, when it is fenced.
    pub fn fence_reason(&self) -> Option<String> {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.fence.as_ref().map(|f| f.reason.clone())
    }

    /// The embedded batch engine.  Its snapshot handle always points at
    /// the latest published generation; its plan cache and worker pool
    /// survive commits.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The latest published generation.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.engine.snapshot()
    }

    /// The latest generation number.
    pub fn generation(&self) -> u64 {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).generation
    }

    /// The latest published generation number and its snapshot, read
    /// atomically (one lock acquisition — `generation()` followed by
    /// `snapshot()` could straddle a concurrent publication).  This is
    /// what a session pins.
    pub fn published(&self) -> (u64, Arc<Snapshot>) {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        (st.generation, Arc::clone(&st.published_snapshot))
    }

    /// Point-in-time store counters.
    pub fn stats(&self) -> StoreStats {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        StoreStats {
            generation: st.generation,
            commits: st.commits.get(),
            rejected_commits: st.rejected.get(),
            compactions: st.compactions.get(),
            live_nodes: st.graph().node_count(),
            live_edges: st.graph().edge_count(),
            logged_rows: st.tables.values().map(StoreTable::log_len).sum(),
            tombstoned_rows: st.tables.values().map(StoreTable::dead_count).sum(),
            graph_clones: st.graph_clones.get(),
            graph_reclaims: st.graph_reclaims.get(),
            wal_records: st.durable.as_ref().map_or(0, |d| d.wal_records.get()),
            wal_bytes: st.durable.as_ref().map_or(0, |d| d.wal_bytes.get()),
            checkpoints: st.durable.as_ref().map_or(0, |d| d.checkpoints_written.get()),
            checkpoint_failures: st.durable.as_ref().map_or(0, |d| d.checkpoint_failures.get()),
            last_checkpoint_generation: st.durable.as_ref().map_or(0, |d| d.last_checkpoint),
            replayed_commits: st.durable.as_ref().map_or(0, |d| d.replayed.get()),
            wal_segments_removed: st.durable.as_ref().map_or(0, |d| d.segments_removed.get()),
            fenced: st.fence.is_some(),
            fence_events: st.fence_events.get(),
            fenced_commits: st.fenced_commits.get(),
            wal_retries: st.durable.as_ref().map_or(0, |d| d.wal_retries.get()),
            wal_append_failures: st.durable.as_ref().map_or(0, |d| d.wal_append_failures.get()),
            idempotent_replays: st.idempotent_replays.get(),
        }
    }

    /// The store's observability surface: the shared metrics registry,
    /// the span-ring tracer, and the slow-query log (shared with the
    /// embedded engine and any serving layer above).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Looks up the stable key of the node with the given label and
    /// default-key value (O(label population)).
    pub fn node_key(&self, label: &str, pk: &Value) -> Option<NodeKey> {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let dk = st.schema.default_key_of(label)?.clone();
        let key = st
            .graph()
            .nodes_with_label(label)
            .find(|n| n.prop(dk.as_str()) == *pk)
            .and_then(|n| st.node_keys.get(n.id.0).copied());
        key
    }

    /// Looks up the stable key of the edge with the given label and
    /// default-key value (O(label population)).
    pub fn edge_key(&self, label: &str, pk: &Value) -> Option<EdgeKey> {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let dk = st.schema.default_key_of(label)?.clone();
        let key = st
            .graph()
            .edges_with_label(label)
            .find(|e| e.prop(dk.as_str()) == *pk)
            .and_then(|e| st.edge_keys.get(e.id.0).copied());
        key
    }

    /// Every live node as `(key, label, default-key value)`.
    pub fn node_directory(&self) -> Vec<(NodeKey, Ident, Value)> {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.graph()
            .nodes()
            .iter()
            .filter_map(|n| {
                // Every published node passed schema validation (cold
                // freeze or commit), and both require a declared label.
                let dk = st.schema.default_key_of(n.label.as_str());
                debug_assert!(dk.is_some(), "undeclared label in published graph");
                Some((*st.node_keys.get(n.id.0)?, n.label.clone(), n.prop(dk?.as_str())))
            })
            .collect()
    }

    /// Every live edge as `(key, label, default-key value, src key, tgt key)`.
    pub fn edge_directory(&self) -> Vec<(EdgeKey, Ident, Value, NodeKey, NodeKey)> {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.graph()
            .edges()
            .iter()
            .filter_map(|e| {
                // Every published edge passed schema validation, which
                // requires a declared label.
                let dk = st.schema.default_key_of(e.label.as_str());
                debug_assert!(dk.is_some(), "undeclared label in published graph");
                Some((
                    *st.edge_keys.get(e.id.0)?,
                    e.label.clone(),
                    e.prop(dk?.as_str()),
                    *st.node_keys.get(e.src.0)?,
                    *st.node_keys.get(e.tgt.0)?,
                ))
            })
            .collect()
    }

    /// Materializes every per-label table log from scratch: live rows in
    /// log order, the order the published columnar image carries.  Taken
    /// under the commit lock, so it matches the latest published
    /// generation.  A consistency check; commits never call it.
    pub fn table_logs(&self) -> RelInstance {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = RelInstance::new();
        for (name, table) in &st.tables {
            out.insert_table(name.clone(), table.snapshot_table());
        }
        out
    }

    /// Force-compacts every table log with tombstones, returning how many
    /// were rewritten.  Published images are unaffected (compaction only
    /// renumbers internal log slots).
    pub fn compact_now(&self) -> usize {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let mut rewritten = 0;
        for t in st.tables.values_mut() {
            if t.compact(true) {
                rewritten += 1;
            }
        }
        st.compactions.add(rewritten as u64);
        rewritten
    }

    /// Validates and applies a delta atomically, publishing a new snapshot
    /// generation on success.
    ///
    /// Validation is **incremental and sequential**: each operation is
    /// checked against the committed state plus the effects of the
    /// delta's earlier operations — touched elements and their schema
    /// obligations only, never a whole-graph revalidation.  A delta that
    /// fails any check is rejected wholesale: the committed state, the
    /// published generation, and all reader snapshots are untouched.
    ///
    /// On success, the commit patches the previous generation's columnar
    /// induced image with per-label
    /// [`TableDelta`](graphiti_relational::TableDelta)s (cold
    /// re-materialization never runs), swaps the new generation into the
    /// engine, and returns the assigned stable keys.
    ///
    /// # Failure semantics
    ///
    /// - [`StoreError::Rejected`]: validation failed; nothing written,
    ///   nothing mutated.
    /// - [`StoreError::Io`]: the WAL write failed (after the configured
    ///   retries) and was rolled back; nothing mutated, store live.
    /// - [`StoreError::Fenced`]: the WAL fsync failed, or a write
    ///   failure could not be rolled back — on-disk state is uncertain,
    ///   so the store fenced itself read-only.  Readers still serve the
    ///   last published generation; recover via
    ///   [`GraphStore::checkpoint_now`] or reopen.
    /// - [`StoreError::Internal`]: the apply phase broke an invariant
    ///   mid-mutation; the store fences with suspect in-memory state and
    ///   only a reopen recovers.
    pub fn commit(&self, delta: Delta) -> StoreResult<CommitInfo> {
        self.commit_tagged(delta, None)
    }

    /// [`GraphStore::commit`] with an optional client-generated
    /// **idempotency token**.  The token is recorded in the commit's WAL
    /// record and in a bounded dedup table; a later commit carrying the
    /// same token is **not re-applied** — it returns a [`CommitInfo`]
    /// whose `generation` is the original commit's generation (and whose
    /// key lists are empty, since nothing new was assigned).  This is
    /// what makes a retried commit after an ambiguous disconnect or
    /// timeout exactly-once.  Only successful commits are recorded:
    /// rejected or aborted attempts leave no entry, so their retries run
    /// the full commit path.
    pub fn commit_tagged(&self, delta: Delta, token: Option<u128>) -> StoreResult<CommitInfo> {
        let mut results = self.commit_group_traced(vec![(delta, token, 0)]);
        results.pop().expect("one member yields one result")
    }

    /// Validates and applies a **group** of deltas under one lock
    /// acquisition, one WAL fsync, and one generation publication — the
    /// store's one commit path ([`GraphStore::commit`] is a group of
    /// one).  Returns one result per delta, in input order.
    ///
    /// Each member keeps its *individual* transactional identity:
    ///
    /// - members validate **in order**, each against the committed state
    ///   plus the staged effects of the accepted members before it (a
    ///   later member can address an earlier member's additions by the
    ///   keys they will receive), so a group is equivalent to committing
    ///   its accepted members serially in input order;
    /// - a member that fails validation gets [`StoreError::Rejected`]
    ///   and drops only its own staged effects — it never poisons the
    ///   rest of the group;
    /// - each accepted member gets its **own WAL record and generation
    ///   number** (replay stays strictly sequential), but records are
    ///   only flushed per member and fsynced **once** for the whole
    ///   group, and the engine sees **one** snapshot publication
    ///   covering all accepted members.
    ///
    /// The amortization is exactly that sharing: at 8 concurrent
    /// writers, 8 fsyncs, 8 per-table image derivations (each member's
    /// table deltas are folded with [`TableDelta::absorb`] and
    /// materialized once per group), and 8 snapshot publications
    /// collapse into 1.
    ///
    /// # Failure semantics
    ///
    /// Every member is validated and logged, and the shared fsync has
    /// succeeded, **before** any member is applied.  So:
    ///
    /// - a rejected member ([`StoreError::Rejected`]) or a rolled-back
    ///   WAL write ([`StoreError::Io`]) affects only that member;
    /// - a failed fsync or an un-rollbackable WAL write leaves the
    ///   group's records of uncertain durability: they are truncated
    ///   away on a best-effort basis, the store fences read-only, and
    ///   every accepted member gets [`StoreError::Fenced`].  Nothing was
    ///   applied, so the in-memory state is intact and
    ///   [`GraphStore::checkpoint_now`] lifts the fence in place;
    /// - an apply-phase error breaks an internal invariant mid-mutation:
    ///   the store fences with suspect in-memory state, every accepted
    ///   member gets [`StoreError::Internal`], and only a reopen
    ///   recovers.
    ///
    /// Readers keep the last published generation throughout.
    pub fn commit_group(&self, deltas: Vec<Delta>) -> Vec<StoreResult<CommitInfo>> {
        self.commit_group_tagged(deltas.into_iter().map(|d| (d, None)).collect())
    }

    /// [`GraphStore::commit_group`] with an optional idempotency token
    /// per member — the group-commit face of
    /// [`GraphStore::commit_tagged`].  A member whose token already
    /// committed, in the dedup table or as an earlier member of the same
    /// group, is answered with the original generation (nothing
    /// re-applied) and consumes no WAL record or generation; the rest of
    /// the group proceeds normally.
    pub fn commit_group_tagged(
        &self,
        deltas: Vec<(Delta, Option<u128>)>,
    ) -> Vec<StoreResult<CommitInfo>> {
        self.commit_group_traced(deltas.into_iter().map(|(d, t)| (d, t, 0)).collect())
    }

    /// [`GraphStore::commit_group_tagged`] with a per-member **trace
    /// id** (0 = untraced): traced members emit `store.wal_append`
    /// spans, and the group's shared fsync and publication emit
    /// `store.fsync` / `store.publish` spans under the first traced
    /// member, into the store's span ring.  Tracing never blocks and
    /// never changes commit semantics.
    pub fn commit_group_traced(
        &self,
        deltas: Vec<(Delta, Option<u128>, u64)>,
    ) -> Vec<StoreResult<CommitInfo>> {
        let commit_started = Instant::now();
        let tracer = self.obs.tracer();
        let group_trace = deltas.iter().map(|(_, _, t)| *t).find(|t| *t != 0).unwrap_or(0);
        let mut guard = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let st = &mut *guard;
        if let Some(reason) = st.fence.as_ref().map(|f| f.reason.clone()) {
            st.fenced_commits.add(deltas.len() as u64);
            return deltas
                .iter()
                .map(|_| Err(StoreError::Fenced { reason: reason.clone() }))
                .collect();
        }
        // Phase 1, member by member: the idempotency token, staged
        // validation, and the WAL append.  Validation runs to completion
        // before the member's record is written, so a rejected member is
        // side-effect-free on disk as well as in memory; and since nothing
        // is applied yet, a member that fails drops only its own staged
        // effects.  Generations are provisional until phase 3.
        let wal_start = st.durable.as_ref().map(|d| d.wal.len());
        let mut staging = Staging::new(st);
        let mut members: Vec<Member> = Vec::with_capacity(deltas.len());
        // Tokens of this group's successful members, in member order.
        let mut tokens: Vec<(u128, u64)> = Vec::new();
        let mut generation = st.generation;
        let (mut records, mut bytes, mut in_group_replays) = (0u64, 0u64, 0u64);
        let mut fence: Option<StoreError> = None;
        for (delta, token, trace) in &deltas {
            if let Some(t) = *token {
                if let Some(original) = st.idempotency.lookup(t) {
                    // The original commit is already durable and
                    // published: answer now, consuming nothing.
                    st.idempotent_replays.inc();
                    members.push(Member::Done(Ok(CommitInfo {
                        generation: original,
                        published_generation: st.generation,
                        snapshot: Arc::clone(&st.published_snapshot),
                        node_keys: Vec::new(),
                        edge_keys: Vec::new(),
                        touched_tables: Vec::new(),
                    })));
                    continue;
                }
                if let Some(&(_, original)) = tokens.iter().find(|(seen, _)| *seen == t) {
                    // A retry queued behind its own original: it shares
                    // the original's outcome.
                    in_group_replays += 1;
                    members.push(Member::Unchanged { generation: original });
                    continue;
                }
            }
            if delta.is_empty() {
                // Empty commits publish nothing, but a token still pins
                // the reply generation so a retry answers consistently.
                tokens.extend(token.map(|t| (t, generation)));
                members.push(Member::Unchanged { generation });
                continue;
            }
            let saved = staging.clone();
            let keys = match staging.stage(st, delta) {
                Ok(keys) => keys,
                Err(e) => {
                    staging = saved;
                    st.rejected.inc();
                    members.push(Member::Done(Err(StoreError::Rejected(e))));
                    continue;
                }
            };
            if let Some(d) = st.durable.as_mut() {
                let span = (*trace != 0).then(|| tracer.span(*trace, 0, "store.wal_append"));
                let outcome = wal_append_with_retry(d, generation + 1, *token, delta);
                drop(span);
                match outcome {
                    WalOutcome::Appended { bytes: b } => {
                        records += 1;
                        bytes += b;
                    }
                    WalOutcome::Aborted(e) => {
                        // Rolled back cleanly: this member aborts alone
                        // and consumes no generation.
                        staging = saved;
                        members.push(Member::Done(Err(e)));
                        continue;
                    }
                    WalOutcome::MustFence(e) => {
                        fence = Some(e);
                        break;
                    }
                }
            }
            generation += 1;
            tokens.extend(token.map(|t| (t, generation)));
            members.push(Member::Accepted { generation, keys });
        }
        // Phase 2: the group's one fsync, before anything is applied.  A
        // failed fsync can never be trusted retroactively (the kernel may
        // have dropped the dirty pages), so it fences — but with the
        // in-memory state intact.
        if fence.is_none() && records > 0 {
            if let Some(d) = st.durable.as_mut().filter(|d| d.options.fsync_each_commit) {
                let span = (group_trace != 0).then(|| tracer.span(group_trace, 0, "store.fsync"));
                let sync_started = Instant::now();
                let sync = d.wal.sync();
                d.wal_fsync_micros.record(sync_started.elapsed().as_micros() as u64);
                drop(span);
                fence = sync.err();
            }
        }
        if let Some(e) = fence {
            // Best-effort removal of the group's records of unknown
            // durability; the fence stands either way (even a successful
            // truncate only lives in the page cache until the next sync),
            // and `checkpoint_now` re-captures the intact memory state on
            // fresh files.
            if let (Some(d), Some(len)) = (st.durable.as_mut(), wal_start) {
                d.wal.truncate_to(len);
            }
            let reason = format!("wal failure with uncertain on-disk state: {e}");
            engage_fence(st, reason.clone(), true);
            return fail_pending(members, deltas.len(), StoreError::Fenced { reason });
        }
        if let Some(d) = st.durable.as_ref() {
            d.wal_records.add(records);
            d.wal_bytes.add(bytes);
        }
        // Phase 3: apply every accepted member in order, folding its
        // per-table deltas into the group's (pure index arithmetic — no
        // row is copied until the single image derivation below), then
        // derive the images and publish once.  Validation staged exactly
        // these effects, so an error here is an internal invariant
        // violation with the key maps and table logs part-mutated (the
        // checked-out graph is never published): reopen-only.
        let prev = Arc::clone(&st.published_snapshot);
        let mut applied_members = 0u64;
        let published: std::result::Result<Arc<Snapshot>, String> = 'publish: {
            if !members.iter().any(|m| matches!(m, Member::Accepted { .. })) {
                break 'publish Ok(prev);
            }
            let mut graph = checkout_graph(st);
            // Per touched table: the pre-group row count and the group's
            // folded delta.
            let mut folded: BTreeMap<String, (usize, TableDelta)> = BTreeMap::new();
            let mut group_replay: Vec<ResolvedOp> = Vec::new();
            for (member, (delta, ..)) in members.iter_mut().zip(&deltas) {
                let Member::Accepted { generation, keys } = member else { continue };
                let first_key = st.next_key;
                let applied = match apply_delta(st, &mut graph, delta) {
                    Ok(a) => a,
                    Err(e) => {
                        break 'publish Err(format!("commit apply phase failed mid-mutation: {e}"))
                    }
                };
                debug_assert_eq!(first_key..st.next_key, *keys, "apply assigns the staged keys");
                let mut touched: Vec<String> = Vec::with_capacity(applied.deltas.len());
                for (name, table_delta) in applied.deltas {
                    // Compaction renumbers log slots, not published rows,
                    // so it is safe once the change set is extracted.
                    if st.tables.get_mut(&name).is_some_and(|t| t.compact(false)) {
                        st.compactions.inc();
                    }
                    match folded.get_mut(&name) {
                        Some((base_rows, acc)) => acc.absorb(*base_rows, &table_delta),
                        None => {
                            let base_rows =
                                prev.induced_columnar().table(&name).map_or(0, |t| t.len());
                            folded.insert(name.clone(), (base_rows, table_delta));
                        }
                    }
                    touched.push(name);
                }
                st.generation = *generation;
                group_replay.extend(applied.replay);
                applied_members += 1;
                *member = Member::Applied {
                    generation: *generation,
                    node_keys: applied.node_keys,
                    edge_keys: applied.edge_keys,
                    touched,
                };
            }
            let publish_span =
                (group_trace != 0).then(|| tracer.span(group_trace, 0, "store.publish"));
            let mut columnar = prev.induced_columnar().clone();
            for (name, (_, delta)) in &folded {
                let Some(cols) = columnar.table(name) else {
                    break 'publish Err(format!("generation lost table `{name}` mid-publish"));
                };
                let image = cols.apply_delta(delta);
                // The patched image must equal what the table log would
                // materialize from scratch (debug builds only).
                // Invariant: `folded` keys come from `touch`, which only
                // records names present in `st.tables`.
                debug_assert_eq!(
                    image.to_table(),
                    st.tables.get(name).expect("touched table exists").snapshot_table(),
                    "patched image of `{name}` diverges from its log"
                );
                columnar.insert_table(name.clone(), image);
            }
            let (extra, extra_columnar) = prev.extra_parts();
            let graph = publish_graph(st, graph, group_replay);
            let snapshot = Snapshot::from_parts_with_columnar(
                prev.schema_arc(),
                graph,
                prev.ctx_arc(),
                columnar,
                extra,
                extra_columnar,
            );
            st.published_snapshot = Arc::clone(&snapshot);
            self.engine.swap_snapshot(Arc::clone(&snapshot));
            drop(publish_span);
            Ok(snapshot)
        };
        let snapshot = match published {
            Ok(snapshot) => snapshot,
            Err(msg) => {
                engage_fence(st, msg.clone(), false);
                return fail_pending(members, deltas.len(), StoreError::Internal(msg));
            }
        };
        // Record tokens only now that the group is published (a failed
        // attempt must leave no dedup entry), and before the periodic
        // checkpoint below so it carries them.
        for (t, g) in tokens {
            st.idempotency.record(t, g);
        }
        st.idempotent_replays.add(in_group_replays);
        if applied_members > 0 {
            st.commits.add(applied_members);
            self.group_commit_size.record(applied_members);
            let member_e2e = commit_started.elapsed().as_micros() as u64;
            for _ in 0..applied_members {
                self.commit_e2e_micros.record(member_e2e);
            }
            // Periodic checkpoint: bounds replay cost and lets old WAL
            // segments be vacuumed.  The group already published; a
            // checkpoint failure is recorded, not propagated —
            // durability falls back to a longer replay.
            let due = st.durable.as_ref().is_some_and(|d| {
                d.options.checkpoint_interval > 0
                    && st.generation - d.last_checkpoint >= d.options.checkpoint_interval
            });
            if due && write_checkpoint_locked(st).is_err() {
                if let Some(d) = st.durable.as_mut() {
                    d.checkpoint_failures.inc();
                }
            }
        }
        let published_generation = st.generation;
        let info = |generation, node_keys, edge_keys, touched_tables| CommitInfo {
            generation,
            published_generation,
            snapshot: Arc::clone(&snapshot),
            node_keys,
            edge_keys,
            touched_tables,
        };
        members
            .into_iter()
            .map(|member| match member {
                Member::Done(result) => result,
                Member::Applied { generation, node_keys, edge_keys, touched } => {
                    Ok(info(generation, node_keys, edge_keys, touched))
                }
                Member::Unchanged { generation } => {
                    Ok(info(generation, Vec::new(), Vec::new(), Vec::new()))
                }
                Member::Accepted { .. } => {
                    Err(StoreError::Internal("an accepted member was never applied".into()))
                }
            })
            .collect()
    }
}

/// The store answers queries exactly like its embedded engine: the whole
/// read API ([`run_batch`](QuerySurface::run_batch),
/// [`execute`](QuerySurface::execute), pinned variants, ...) comes from
/// the shared [`QuerySurface`] trait, so the testkit's differential
/// oracle checks a store and a bare engine through one code path.
impl QuerySurface for GraphStore {
    fn query_engine(&self) -> &Engine {
        &self.engine
    }
}

/// The WAL segment files under a durable store directory, ascending by
/// base generation (test and tooling support: crash simulation truncates
/// or copies these).
pub fn wal_segment_files(dir: impl AsRef<Path>) -> StoreResult<Vec<PathBuf>> {
    Ok(wal::list_segments(&vfs::StdVfs, dir.as_ref())?.into_iter().map(|(_, p)| p).collect())
}

/// The checkpoint files under a durable store directory, ascending by
/// generation.
pub fn checkpoint_files(dir: impl AsRef<Path>) -> StoreResult<Vec<PathBuf>> {
    Ok(checkpoint::list_checkpoints(&vfs::StdVfs, dir.as_ref())?
        .into_iter()
        .map(|(_, p)| p)
        .collect())
}

// ------------------------------------------------------------ durability

/// Builds the embedded engine over the store's shared observability
/// surface, honoring an optional plan-cache bound.
fn make_engine(snapshot: Arc<Snapshot>, cache_capacity: Option<usize>, obs: Arc<Obs>) -> Engine {
    Engine::with_observability(snapshot, cache_capacity, obs)
}

/// Flips the store into read-only degraded mode.  `memory_ok` records
/// whether the in-memory state is still trustworthy (it decides whether
/// [`GraphStore::checkpoint_now`] may lift the fence).
fn engage_fence(st: &mut StoreState, reason: String, memory_ok: bool) {
    st.fence = Some(Fence { reason, memory_ok });
    st.fence_events.inc();
}

/// Where one member of a commit group stands while the group commits.
enum Member {
    /// Settled before the group's fsync: rejected, aborted, or answered
    /// from the dedup table.
    Done(StoreResult<CommitInfo>),
    /// Validated and logged, awaiting the apply phase; `keys` are the
    /// stable keys validation predicted for its additions.
    Accepted { generation: u64, keys: Range<u64> },
    /// Applied, awaiting the group's publication.
    Applied {
        generation: u64,
        node_keys: Vec<NodeKey>,
        edge_keys: Vec<EdgeKey>,
        touched: Vec<String>,
    },
    /// Nothing to apply — an empty delta, or a token already carried by
    /// an earlier member of the group: succeeds at `generation` once the
    /// group publishes.
    Unchanged { generation: u64 },
}

/// The results of a group that could not publish: settled members keep
/// their own result, every other member (including any the group never
/// reached) gets `err`.
fn fail_pending(
    members: Vec<Member>,
    total: usize,
    err: StoreError,
) -> Vec<StoreResult<CommitInfo>> {
    let mut results: Vec<StoreResult<CommitInfo>> = members
        .into_iter()
        .map(|member| match member {
            Member::Done(result) => result,
            _ => Err(err.clone()),
        })
        .collect();
    results.resize_with(total, || Err(err.clone()));
    results
}

/// How one member's WAL append ended.
enum WalOutcome {
    /// Record written and flushed; the member proceeds to the group's
    /// shared fsync.
    Appended { bytes: u64 },
    /// Write failed after retries but rolled back cleanly: the member
    /// aborts side-effect-free and the store stays live.
    Aborted(StoreError),
    /// The rollback failed: bytes of unknown validity sit past the valid
    /// prefix, so the group fences.
    MustFence(StoreError),
}

/// Appends and flushes one commit record, retrying transient **write**
/// failures with linear backoff.  The fsync is the caller's separate,
/// unretriable step: the group issues one
/// [`WalWriter::sync`](wal::WalWriter::sync) for all its records.
fn wal_append_with_retry(
    d: &mut DurableState,
    generation: u64,
    token: Option<u128>,
    delta: &Delta,
) -> WalOutcome {
    let frame = match wal::record_frame(generation, token, delta) {
        Ok(frame) => frame,
        Err(e) => {
            // Nothing was written, and no retry can shrink the record:
            // the member aborts alone.  `Rejected`, not `Io`, so that
            // clients do not resend it.
            d.wal_append_failures.inc();
            return WalOutcome::Aborted(StoreError::Rejected(Error::instance(format!(
                "wal: commit record {e}"
            ))));
        }
    };
    let max_retries = d.options.wal_retry_attempts;
    let mut attempt = 0u32;
    loop {
        let append_started = Instant::now();
        match d.wal.append(&frame) {
            Ok(bytes) => {
                d.wal_append_micros.record(append_started.elapsed().as_micros() as u64);
                return WalOutcome::Appended { bytes };
            }
            Err(ae) => {
                if !ae.rolled_back {
                    return WalOutcome::MustFence(ae.error);
                }
                if attempt < max_retries {
                    attempt += 1;
                    d.wal_retries.inc();
                    let ms = d.options.wal_retry_backoff_ms.saturating_mul(attempt as u64);
                    if ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                    continue;
                }
                d.wal_append_failures.inc();
                return WalOutcome::Aborted(ae.error);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphiti_engine::BatchQuery;
    use graphiti_graph::{EdgeType, NodeType};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn emp_schema() -> GraphSchema {
        GraphSchema::new()
            .with_node(NodeType::new("EMP", ["id", "name"]))
            .with_node(NodeType::new("DEPT", ["dnum", "dname"]))
            .with_edge(EdgeType::new("WORK_AT", "EMP", "DEPT", ["wid"]))
    }

    fn emp_graph() -> GraphInstance {
        let mut g = GraphInstance::new();
        let a = g.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("A"))]);
        let b = g.add_node("EMP", [("id", Value::Int(2)), ("name", Value::str("B"))]);
        let cs = g.add_node("DEPT", [("dnum", Value::Int(1)), ("dname", Value::str("CS"))]);
        let _ee = g.add_node("DEPT", [("dnum", Value::Int(2)), ("dname", Value::str("EE"))]);
        g.add_edge("WORK_AT", a, cs, [("wid", Value::Int(10))]);
        g.add_edge("WORK_AT", b, cs, [("wid", Value::Int(11))]);
        g
    }

    /// The published columnar image must match a cold re-freeze of the
    /// published graph (equal columns, bag-equal rows) and the table logs
    /// (row for row, in log order).
    fn assert_matches_cold_freeze(store: &GraphStore) {
        let snap = store.snapshot();
        let cold = Snapshot::freeze(snap.schema().clone(), snap.graph().clone())
            .expect("published graph must stay schema-valid");
        let logs = store.table_logs();
        let columnar = snap.induced_columnar();
        assert_eq!(columnar.tables().count(), cold.induced().tables().count(), "table count");
        for (name, cold_table) in cold.induced().tables() {
            let live = columnar.table(name).expect("table present").to_table();
            assert_eq!(live.columns, cold_table.columns, "columns of `{name}`");
            assert!(
                live.rows_bag_equal(cold_table),
                "rows of `{name}` diverge from cold freeze:\nincremental:\n{live}\ncold:\n{cold_table}"
            );
            assert_eq!(Some(&live), logs.table(name), "columnar image of `{name}` vs its log");
        }
    }

    #[test]
    fn open_then_incremental_adds_are_visible_and_consistent() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        assert_eq!(store.generation(), 0);
        let mut d = Delta::new();
        let zed = d.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("Zed"))]);
        let ee = store.node_key("DEPT", &Value::Int(2)).unwrap();
        d.add_edge("WORK_AT", zed, ee, [("wid", Value::Int(12))]);
        let info = store.commit(d).unwrap();
        assert_eq!(info.generation, 1);
        assert_eq!(info.node_keys.len(), 1);
        assert_eq!(info.edge_keys.len(), 1);
        let mut touched = info.touched_tables.clone();
        touched.sort();
        assert_eq!(touched, vec!["EMP".to_string(), "WORK_AT".to_string()]);
        assert_matches_cold_freeze(&store);
        let report = store.run_batch(
            &[BatchQuery::cypher(
                "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname AS d, Count(n) AS c",
            )],
            1,
        );
        let table = report.outcomes[0].result.as_ref().unwrap();
        assert_eq!(table.len(), 2, "CS and EE both have workers now");
    }

    #[test]
    fn readers_keep_their_generation_while_writers_commit() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let gen0 = store.snapshot();
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
        store.commit(d).unwrap();
        assert_eq!(gen0.graph().node_count(), 4, "pinned generation is immutable");
        assert_eq!(store.snapshot().graph().node_count(), 5);
        // Plans survive the generation change.
        let q = BatchQuery::sql("SELECT Count(*) AS c FROM EMP AS e");
        let first = store.engine().execute(&q);
        assert_eq!(first.result.unwrap().rows[0][0], Value::Int(3));
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(4)), ("name", Value::str("D"))]);
        store.commit(d).unwrap();
        let warm = store.engine().execute(&q);
        assert!(warm.cache_hit);
        assert_eq!(warm.result.unwrap().rows[0][0], Value::Int(4));
    }

    #[test]
    fn rejected_deltas_change_nothing() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let gen_before = store.snapshot();
        let bad_deltas: Vec<Delta> = vec![
            // Duplicate default key.
            {
                let mut d = Delta::new();
                d.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("dup"))]);
                d
            },
            // Unknown label.
            {
                let mut d = Delta::new();
                d.add_node("GHOST", [("gid", Value::Int(1))]);
                d
            },
            // Undeclared property.
            {
                let mut d = Delta::new();
                d.add_node("EMP", [("id", Value::Int(9)), ("salary", Value::Int(5))]);
                d
            },
            // Missing default key.
            {
                let mut d = Delta::new();
                d.add_node("EMP", [("name", Value::str("NoId"))]);
                d
            },
            // Node removal while incident edges remain.
            {
                let mut d = Delta::new();
                let k = GraphStore::open(emp_schema(), emp_graph())
                    .unwrap()
                    .node_key("EMP", &Value::Int(1))
                    .unwrap();
                d.remove_node(k);
                d
            },
            // Default key set to NULL.
            {
                let mut d = Delta::new();
                let k = GraphStore::open(emp_schema(), emp_graph())
                    .unwrap()
                    .node_key("EMP", &Value::Int(1))
                    .unwrap();
                d.set_node_prop(k, "id", Value::Null);
                d
            },
            // Edge endpoints of the wrong type.
            {
                let mut d = Delta::new();
                let d1 = d.add_node("DEPT", [("dnum", Value::Int(7)), ("dname", Value::str("X"))]);
                let d2 = d.add_node("DEPT", [("dnum", Value::Int(8)), ("dname", Value::str("Y"))]);
                d.add_edge("WORK_AT", d1, d2, [("wid", Value::Int(99))]);
                d
            },
            // A valid prefix then one bad op: the whole delta must abort.
            {
                let mut d = Delta::new();
                d.add_node("EMP", [("id", Value::Int(50)), ("name", Value::str("ok"))]);
                d.add_node("EMP", [("id", Value::Int(50)), ("name", Value::str("dup"))]);
                d
            },
        ];
        for d in bad_deltas {
            assert!(store.commit(d).is_err());
        }
        assert_eq!(store.generation(), 0, "no rejected delta may publish");
        assert!(Arc::ptr_eq(&gen_before, &store.snapshot()));
        assert_eq!(store.stats().rejected_commits, 8);
        assert_matches_cold_freeze(&store);
        // The store still accepts valid work afterwards.
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(60)), ("name", Value::str("fine"))]);
        store.commit(d).unwrap();
        assert_matches_cold_freeze(&store);
    }

    #[test]
    fn default_key_change_rewrites_incident_edge_rows() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let ada = store.node_key("EMP", &Value::Int(1)).unwrap();
        let mut d = Delta::new();
        d.set_node_prop(ada, "id", Value::Int(100));
        store.commit(d).unwrap();
        assert_matches_cold_freeze(&store);
        // The transpiled join through SRC still finds the renamed node.
        let report = store.run_batch(
            &[BatchQuery::sql(
                "SELECT e.name FROM EMP AS e, WORK_AT AS w WHERE e.id = w.SRC AND e.id = 100",
            )],
            1,
        );
        let t = report.outcomes[0].result.as_ref().unwrap();
        assert_eq!(t.rows, vec![vec![Value::str("A")]]);
    }

    #[test]
    fn add_and_remove_in_one_delta_cancels_out() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let mut d = Delta::new();
        let n = d.add_node("EMP", [("id", Value::Int(77)), ("name", Value::str("tmp"))]);
        let dept = store.node_key("DEPT", &Value::Int(1)).unwrap();
        let e = d.add_edge("WORK_AT", n, dept, [("wid", Value::Int(77))]);
        d.remove_edge(e);
        d.remove_node(n);
        // The freed key is claimable again within the same delta.
        d.add_node("EMP", [("id", Value::Int(77)), ("name", Value::str("kept"))]);
        let info = store.commit(d).unwrap();
        assert_eq!(info.node_keys.len(), 2);
        assert_matches_cold_freeze(&store);
        let snap = store.snapshot();
        assert_eq!(snap.graph().node_count(), 5);
        assert_eq!(snap.graph().edge_count(), 2);
    }

    #[test]
    fn removals_tombstone_then_compact_without_changing_images() {
        let store = GraphStore::open(emp_schema(), GraphInstance::new()).unwrap();
        let mut d = Delta::new();
        for i in 0..100 {
            d.add_node("EMP", [("id", Value::Int(i)), ("name", Value::str("w"))]);
        }
        let info = store.commit(d).unwrap();
        let mut d = Delta::new();
        for key in info.node_keys.iter().take(80) {
            d.remove_node(*key);
        }
        store.commit(d).unwrap();
        let stats = store.stats();
        assert_eq!(stats.live_nodes, 20);
        assert!(stats.compactions >= 1, "80% tombstones must have compacted");
        assert_matches_cold_freeze(&store);
        // Force-compact whatever is left and re-verify.
        store.compact_now();
        assert_matches_cold_freeze(&store);
        let report = store.run_batch(&[BatchQuery::sql("SELECT Count(*) AS c FROM EMP AS e")], 1);
        assert_eq!(report.outcomes[0].result.as_ref().unwrap().rows[0][0], Value::Int(20));
    }

    #[test]
    fn concurrent_readers_see_consistent_generations() {
        let store = Arc::new(GraphStore::open(emp_schema(), emp_graph()).unwrap());
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..50 {
                    let mut d = Delta::new();
                    d.add_node("EMP", [("id", Value::Int(100 + i)), ("name", Value::str("w"))]);
                    store.commit(d).unwrap();
                }
            })
        };
        let batch = vec![
            BatchQuery::sql("SELECT Count(*) AS c FROM EMP AS e"),
            BatchQuery::cypher("MATCH (n:EMP) RETURN Count(*) AS c"),
        ];
        for _ in 0..100 {
            let report = store.run_batch(&batch, 2);
            assert_eq!(report.ok_count(), 2, "reads must never fail mid-write");
            // Both queries of a batch run on one pinned generation: they
            // must agree with each other exactly.
            let sql = &report.outcomes[0].result.as_ref().unwrap().rows[0][0];
            let cypher = &report.outcomes[1].result.as_ref().unwrap().rows[0][0];
            assert_eq!(sql, cypher, "batch saw a torn generation");
        }
        writer.join().unwrap();
        assert_eq!(store.generation(), 50);
        assert_matches_cold_freeze(&store);
    }

    #[test]
    fn a_default_key_can_cycle_through_several_elements_in_one_delta() {
        // remove/add/remove/add on one key: the "committed copy is freed"
        // fact must survive intermediate staged claims.
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let ada = store.node_key("EMP", &Value::Int(1)).unwrap();
        let mut d = Delta::new();
        let edges: Vec<EdgeKey> = store
            .edge_directory()
            .into_iter()
            .filter(|(_, _, _, src, _)| *src == ada)
            .map(|(k, ..)| k)
            .collect();
        for e in edges {
            d.remove_edge(e);
        }
        d.remove_node(ada);
        let a = d.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("first"))]);
        d.remove_node(a);
        d.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("second"))]);
        store.commit(d).expect("a net-valid key cycle must commit");
        assert_matches_cold_freeze(&store);
        let snap = store.snapshot();
        let emp = snap.induced().table("EMP").unwrap();
        assert!(emp.rows.contains(&vec![Value::Int(1), Value::str("second")]));
        // And the value is still guarded: claiming it again must fail.
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("dup"))]);
        assert!(store.commit(d).is_err());
    }

    #[test]
    fn commits_derive_from_the_store_lineage_not_the_engine_slot() {
        // A caller can reach the raw engine and swap in a foreign
        // snapshot; the store's next commit must still derive from its
        // own published lineage and stay consistent with the key maps.
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let foreign_schema = GraphSchema::new().with_node(NodeType::new("EMP", ["id", "name"]));
        let mut foreign_graph = GraphInstance::new();
        foreign_graph.add_node("EMP", [("id", Value::Int(77)), ("name", Value::str("alien"))]);
        let foreign = Snapshot::freeze(foreign_schema, foreign_graph).unwrap();
        store.engine().swap_snapshot(foreign);
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(5)), ("name", Value::str("E"))]);
        store.commit(d).expect("foreign engine state must not break commits");
        assert_matches_cold_freeze(&store);
        let snap = store.snapshot();
        assert_eq!(snap.graph().node_count(), 5, "the store's lineage won");
        assert!(snap
            .induced()
            .table("EMP")
            .unwrap()
            .rows
            .contains(&vec![Value::Int(5), Value::str("E")]));
    }

    #[test]
    fn empty_deltas_publish_nothing() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let before = store.snapshot();
        let info = store.commit(Delta::new()).unwrap();
        assert_eq!(info.generation, 0);
        assert!(Arc::ptr_eq(&before, &store.snapshot()));
    }

    #[test]
    fn extra_instances_are_shared_across_generations() {
        let mut extra = RelInstance::new();
        extra.insert_table(
            "side",
            graphiti_relational::Table::with_rows(["x"], vec![vec![Value::Int(7)]]),
        );
        let store =
            GraphStore::open_with(emp_schema(), emp_graph(), [("aux".to_string(), extra)]).unwrap();
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(9)), ("name", Value::str("N"))]);
        store.commit(d).unwrap();
        let q = BatchQuery::sql_on("aux", "SELECT side.x FROM side");
        let out = store.engine().execute(&q);
        assert_eq!(out.result.unwrap().rows, vec![vec![Value::Int(7)]]);
        // The maps really are shared, not copied, across generations.
        let (extra0, _) = store.snapshot().extra_parts();
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(10)), ("name", Value::str("M"))]);
        store.commit(d).unwrap();
        let (extra1, _) = store.snapshot().extra_parts();
        assert!(Arc::ptr_eq(&extra0, &extra1));
    }

    // ------------------------------------------------------- durability

    /// A unique scratch directory under the workspace `target/` dir
    /// (tests must not touch paths outside the repository).
    fn scratch(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/store-durability-tests")
            .join(format!("{tag}-{}-{}", std::process::id(), NEXT.fetch_add(1, Ordering::SeqCst)));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn copy_dir(src: &Path, dst: &Path) {
        std::fs::create_dir_all(dst).unwrap();
        for entry in std::fs::read_dir(src).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }

    /// A deterministic mutation script over `emp_graph()`.  Stable keys
    /// are assigned deterministically (emp_graph: nodes 0..=3, edges
    /// 4..=5, next_key 6), so the same deltas replay identically on any
    /// store opened over the same bootstrap graph.
    fn scripted_deltas() -> Vec<Delta> {
        let mut out = Vec::new();
        let mut d = Delta::new();
        let c = d.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
        d.add_edge("WORK_AT", c, NodeKey(3), [("wid", Value::Int(12))]);
        out.push(d); // new node key 6, new edge key 7
        let mut d = Delta::new();
        d.set_node_prop(NodeKey(0), "name", Value::str("A2"));
        d.add_node("EMP", [("id", Value::Int(4)), ("name", Value::str("D"))]);
        out.push(d); // new node key 8
        let mut d = Delta::new();
        d.remove_edge(EdgeKey(5));
        d.set_edge_prop(EdgeKey(4), "wid", Value::Int(100));
        out.push(d);
        let mut d = Delta::new();
        d.remove_edge(EdgeKey(7));
        d.remove_node(NodeKey(6));
        d.add_node("DEPT", [("dnum", Value::Int(3)), ("dname", Value::str("ME"))]);
        out.push(d); // new node key 9
        let mut d = Delta::new();
        d.set_node_prop(NodeKey(1), "id", Value::Int(20)); // pk change: edge rows rewrite
        out.push(d);
        out
    }

    /// An in-memory oracle: the same bootstrap graph with the first `n`
    /// scripted deltas committed.
    fn oracle_after(n: usize) -> GraphStore {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        for d in scripted_deltas().into_iter().take(n) {
            store.commit(d).unwrap();
        }
        store
    }

    /// Recovered state must be *exactly* the oracle's: same generation,
    /// identical published columnar images (row order included — log
    /// order survives recovery), which equal the recovered table logs
    /// and a cold freeze (bag-equal), and query-equivalent through the
    /// engine.
    fn assert_stores_equal(recovered: &GraphStore, oracle: &GraphStore) {
        assert_eq!(recovered.generation(), oracle.generation(), "generation");
        let (a, b) = (recovered.snapshot(), oracle.snapshot());
        let (ca, cb) = (a.induced_columnar(), b.induced_columnar());
        let names_a: Vec<&String> = ca.tables().map(|(n, _)| n).collect();
        let names_b: Vec<&String> = cb.tables().map(|(n, _)| n).collect();
        assert_eq!(names_a, names_b, "induced table sets");
        for (name, ta) in ca.tables() {
            let tb = cb.table(name).unwrap();
            assert_eq!(ta, tb, "columnar image of `{name}` (log order must survive recovery)");
        }
        assert_matches_cold_freeze(recovered);
        let queries = [
            BatchQuery::sql("SELECT e.id, e.name FROM EMP AS e"),
            BatchQuery::sql("SELECT Count(*) AS c FROM WORK_AT AS w"),
            BatchQuery::cypher(
                "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.id AS i, m.dname AS d",
            ),
            BatchQuery::cypher("MATCH (n:DEPT) RETURN Count(*) AS c"),
        ];
        let ra = recovered.run_batch(&queries, 2);
        let rb = oracle.run_batch(&queries, 2);
        for (qa, qb) in ra.outcomes.iter().zip(rb.outcomes.iter()) {
            let (ta, tb) = (qa.result.as_ref().unwrap(), qb.result.as_ref().unwrap());
            assert_eq!(ta.columns, tb.columns);
            assert!(
                ta.rows_bag_equal(tb),
                "query results diverge:\n{ta}
vs\n{tb}"
            );
        }
        assert_matches_cold_freeze(recovered);
    }

    fn durable_opts(fsync_each_commit: bool, checkpoint_interval: u64) -> DurabilityOptions {
        DurabilityOptions {
            fsync_each_commit,
            checkpoint_interval,
            keep_checkpoints: 2,
            // No retries: fault-injection tests want the first injected
            // failure to surface rather than be retried away.
            wal_retry_attempts: 0,
            wal_retry_backoff_ms: 0,
        }
    }

    /// A durable store at `dir` bootstrapped with `emp_graph()` (or
    /// recovered, when the directory already holds one).
    fn open_durable(dir: &Path, options: DurabilityOptions) -> StoreResult<GraphStore> {
        GraphStore::builder(emp_schema())
            .durable(dir)
            .bootstrap(emp_graph())
            .durability(options)
            .open()
    }

    /// Recovers the durable store at `dir` with default options.
    fn reopen(dir: &Path) -> StoreResult<GraphStore> {
        GraphStore::builder(emp_schema()).durable(dir).open()
    }

    #[test]
    fn durable_store_recovers_after_reopen() {
        let dir = scratch("reopen");
        {
            let store = open_durable(&dir, durable_opts(true, 0)).unwrap();
            for d in scripted_deltas() {
                store.commit(d).unwrap();
            }
            let stats = store.stats();
            assert_eq!(stats.wal_records, 5);
            assert!(stats.wal_bytes > 0);
        }
        let recovered = open_durable(&dir, durable_opts(true, 0)).unwrap();
        assert_eq!(recovered.stats().replayed_commits, 5);
        assert_stores_equal(&recovered, &oracle_after(5));
        // The recovered store keeps accepting (and logging) commits.
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(500)), ("name", Value::str("post"))]);
        recovered.commit(d).unwrap();
        assert_eq!(recovered.generation(), 6);
        assert_matches_cold_freeze(&recovered);
    }

    #[test]
    fn checkpoints_bound_replay_and_vacuum_segments() {
        let dir = scratch("ckpt");
        {
            let store = open_durable(&dir, durable_opts(false, 2)).unwrap();
            for d in scripted_deltas() {
                store.commit(d).unwrap();
            }
            let stats = store.stats();
            assert!(stats.checkpoints >= 2, "interval 2 over 5 commits checkpoints twice");
            assert_eq!(stats.checkpoint_failures, 0);
            assert_eq!(stats.last_checkpoint_generation, 4);
            assert!(stats.wal_segments_removed >= 1, "covered segments are vacuumed");
        }
        assert!(checkpoint_files(&dir).unwrap().len() <= 2, "retention keeps 2 checkpoints");
        let recovered = open_durable(&dir, durable_opts(false, 2)).unwrap();
        assert_eq!(recovered.stats().replayed_commits, 1, "replay only past generation 4");
        assert_stores_equal(&recovered, &oracle_after(5));
    }

    #[test]
    fn checkpoint_now_rotates_and_later_crash_recovers_without_replay() {
        let dir = scratch("manual-ckpt");
        {
            let store = open_durable(&dir, durable_opts(true, 0)).unwrap();
            for d in scripted_deltas() {
                store.commit(d).unwrap();
            }
            assert_eq!(store.checkpoint_now().unwrap(), 5);
        }
        let recovered = reopen(&dir).unwrap();
        assert_eq!(recovered.stats().replayed_commits, 0, "checkpoint covers everything");
        assert_stores_equal(&recovered, &oracle_after(5));
    }

    #[test]
    fn rejected_deltas_write_no_wal_record_and_recovery_is_pre_delta() {
        let dir = scratch("reject");
        let store = open_durable(&dir, durable_opts(true, 0)).unwrap();
        let mut good = Delta::new();
        good.add_node("EMP", [("id", Value::Int(10)), ("name", Value::str("ok"))]);
        store.commit(good).unwrap();
        let wal_file = wal_segment_files(&dir).unwrap().pop().unwrap();
        let bytes_before = std::fs::metadata(&wal_file).unwrap().len();
        // A duplicate default key: validated and rejected before the WAL
        // is touched.
        let mut bad = Delta::new();
        bad.add_node("EMP", [("id", Value::Int(10)), ("name", Value::str("dup"))]);
        assert!(store.commit(bad).is_err());
        assert_eq!(
            std::fs::metadata(&wal_file).unwrap().len(),
            bytes_before,
            "a rejected delta must write no WAL record"
        );
        assert_eq!(store.stats().wal_records, 1);
        // Crash (drop without checkpoint) and recover: the rejected
        // delta must have left no trace on disk either.
        drop(store);
        let recovered = reopen(&dir).unwrap();
        assert_eq!(recovered.generation(), 1);
        assert_eq!(recovered.stats().rejected_commits, 0, "rejection predates the checkpoint era");
        let emp = recovered.snapshot().induced().table("EMP").unwrap().clone();
        assert!(emp.rows.contains(&vec![Value::Int(10), Value::str("ok")]));
        assert_eq!(emp.rows.iter().filter(|r| r[0] == Value::Int(10)).count(), 1);
        assert_matches_cold_freeze(&recovered);
    }

    #[test]
    fn torn_tail_recovers_at_every_byte_offset_of_the_final_record() {
        let dir = scratch("torn");
        {
            let store = open_durable(&dir, durable_opts(true, 0)).unwrap();
            for d in scripted_deltas().into_iter().take(2) {
                store.commit(d).unwrap();
            }
        }
        let wal_file = wal_segment_files(&dir).unwrap().pop().unwrap();
        let full = std::fs::metadata(&wal_file).unwrap().len();
        let first_len = {
            let bytes = std::fs::read(&wal_file).unwrap();
            8 + u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as u64
        };
        let oracle1 = oracle_after(1);
        let oracle2 = oracle_after(2);
        for cut in first_len..=full {
            let cut_dir = scratch("torn-cut");
            copy_dir(&dir, &cut_dir);
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(wal_segment_files(&cut_dir).unwrap().pop().unwrap())
                .unwrap();
            f.set_len(cut).unwrap();
            drop(f);
            let recovered = reopen(&cut_dir).unwrap();
            if cut == full {
                assert_stores_equal(&recovered, &oracle2);
            } else {
                // Any byte missing from the final record rolls back to
                // the previous commit: no panic, no partial generation.
                assert_stores_equal(&recovered, &oracle1);
                // The tear was truncated away, so the next commit
                // appends cleanly and a further recovery still works.
                let mut d = Delta::new();
                d.add_node("EMP", [("id", Value::Int(900)), ("name", Value::str("again"))]);
                recovered.commit(d).unwrap();
                assert_eq!(recovered.generation(), 2);
            }
            std::fs::remove_dir_all(&cut_dir).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_corrupt_newest_checkpoint_with_vacuumed_wal_refuses_to_lose_commits() {
        let dir = scratch("fallback-refuse");
        {
            let store = open_durable(&dir, durable_opts(true, 0)).unwrap();
            store.commit(scripted_deltas().remove(0)).unwrap();
            store.checkpoint_now().unwrap();
        }
        // Corrupt the newest checkpoint (generation 1).  Generation 0's
        // bootstrap checkpoint remains, but the WAL segment holding
        // commit 1 was vacuumed: recovery from the older checkpoint can
        // never reach the acknowledged generation 1, so it must refuse
        // with a typed error rather than silently serve generation 0.
        let newest = checkpoint_files(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        let err = reopen(&dir).unwrap_err();
        match err {
            StoreError::Corrupt { file, detail } => {
                assert_eq!(file, newest, "the error names the unloadable checkpoint");
                assert!(detail.contains("refusing"), "unexpected detail: {detail}");
            }
            other => panic!("expected Corrupt, got: {other}"),
        }
    }

    #[test]
    fn a_corrupt_newest_checkpoint_falls_back_when_the_wal_bridges_the_gap() {
        let dir = scratch("fallback-bridge");
        let wal_before;
        {
            let store = open_durable(&dir, durable_opts(true, 0)).unwrap();
            store.commit(scripted_deltas().remove(0)).unwrap();
            // Keep a copy of the segment holding commit 1; checkpointing
            // vacuums it.
            let seg = wal_segment_files(&dir).unwrap().remove(0);
            wal_before = (seg.clone(), std::fs::read(&seg).unwrap());
            store.checkpoint_now().unwrap();
        }
        // Simulate a crash between checkpoint write and vacuum: restore
        // the covered segment, then corrupt the newest checkpoint.
        std::fs::write(&wal_before.0, &wal_before.1).unwrap();
        let newest = checkpoint_files(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        // Fallback to the bootstrap checkpoint is sound here: the
        // surviving segment replays commit 1, reaching the acknowledged
        // generation exactly.
        let recovered = reopen(&dir).unwrap();
        assert_eq!(recovered.generation(), 1);
        assert_eq!(recovered.stats().replayed_commits, 1);
        assert_stores_equal(&recovered, &oracle_after(1));
    }

    #[test]
    fn durable_bootstrap_checkpoints_generation_zero() {
        let dir = scratch("bootstrap");
        {
            let _store = open_durable(&dir, durable_opts(true, 0)).unwrap();
            // No commits at all: the opening state alone must be durable.
        }
        let recovered = reopen(&dir).unwrap();
        assert_eq!(recovered.generation(), 0);
        assert_stores_equal(&recovered, &oracle_after(0));
    }

    #[test]
    fn wal_record_is_on_disk_before_the_generation_publishes() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let dir = scratch("ordering");
        let store = open_durable(&dir, durable_opts(true, 0)).unwrap();
        let wal_file = wal_segment_files(&dir).unwrap().pop().unwrap();
        let observed = Arc::new(AtomicU64::new(u64::MAX));
        {
            let (observed, wal_file) = (Arc::clone(&observed), wal_file.clone());
            store.engine().set_publish_hook(move |_snap| {
                // Runs inside commit, between WAL flush and return: the
                // record for the generation being published must already
                // be durable.
                observed.store(std::fs::metadata(&wal_file).unwrap().len(), Ordering::SeqCst);
            });
        }
        let base = std::fs::metadata(&wal_file).unwrap().len();
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(50)), ("name", Value::str("hook"))]);
        store.commit(d).unwrap();
        let at_publish = observed.load(Ordering::SeqCst);
        assert_ne!(at_publish, u64::MAX, "publication must fire the hook");
        assert!(
            at_publish > base,
            "the WAL record must be appended before the generation publishes \
             (saw {at_publish} bytes at publish time, {base} before the commit)"
        );
        assert_eq!(
            at_publish,
            std::fs::metadata(&wal_file).unwrap().len(),
            "nothing is written after publication"
        );
    }

    // ------------------------------------------------ fault injection

    fn open_faulted(dir: &Path, vfs: &FaultVfs) -> GraphStore {
        GraphStore::builder(emp_schema())
            .durable(dir)
            .bootstrap(emp_graph())
            .durability(durable_opts(true, 0))
            .vfs(Arc::new(vfs.clone()))
            .open()
            .unwrap()
    }

    #[test]
    fn a_failed_wal_write_aborts_the_commit_side_effect_free() {
        let dir = scratch("write-fail");
        let vfs = FaultVfs::default();
        let store = open_faulted(&dir, &vfs);
        store.commit(scripted_deltas().remove(0)).unwrap();
        let gen_before = store.generation();
        let snap_before = store.snapshot();
        vfs.fail_nth(vfs.ops() + 1); // the WAL append's write_at
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(77)), ("name", Value::str("no"))]);
        let err = store.commit(d.clone()).unwrap_err();
        assert!(err.is_io(), "a rolled-back write failure is a live Io error: {err}");
        assert!(!store.is_fenced());
        assert_eq!(store.generation(), gen_before);
        assert!(Arc::ptr_eq(&snap_before, &store.snapshot()), "no generation published");
        assert_eq!(store.stats().wal_append_failures, 1);
        // The store stays live: the very same delta commits cleanly now.
        store.commit(d).unwrap();
        assert_eq!(store.generation(), gen_before + 1);
        drop(store);
        let recovered = reopen(&dir).unwrap();
        assert_eq!(recovered.generation(), gen_before + 1);
        assert_matches_cold_freeze(&recovered);
    }

    #[test]
    fn transient_write_failures_are_retried_away() {
        let dir = scratch("retry");
        let vfs = FaultVfs::default();
        let store = GraphStore::builder(emp_schema())
            .durable(&dir)
            .bootstrap(emp_graph())
            .durability(DurabilityOptions { wal_retry_attempts: 2, ..durable_opts(true, 0) })
            .vfs(Arc::new(vfs.clone()))
            .open()
            .unwrap();
        vfs.fail_nth(vfs.ops() + 1); // one transient write failure
        store.commit(scripted_deltas().remove(0)).unwrap();
        let stats = store.stats();
        assert_eq!(stats.wal_retries, 1, "the failed write was retried");
        assert_eq!(stats.wal_append_failures, 0);
        assert!(!store.is_fenced());
        assert_eq!(store.generation(), 1);
    }

    #[test]
    fn a_failed_fsync_fences_the_store_and_checkpoint_now_recovers_it() {
        let dir = scratch("fence");
        let vfs = FaultVfs::default();
        let store = open_faulted(&dir, &vfs);
        store.commit(scripted_deltas().remove(0)).unwrap();
        let snap = store.snapshot();
        // The disk "loses" fsync but writes, reads, and truncation still
        // work: exactly the fsyncgate shape.
        vfs.fail_from(vfs.ops() + 1);
        vfs.exempt(&[OpClass::Read, OpClass::Write, OpClass::SetLen, OpClass::Meta]);
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(88)), ("name", Value::str("doomed"))]);
        let err = store.commit(d).unwrap_err();
        assert!(err.is_fenced(), "an fsync failure must fence: {err}");
        assert!(store.is_fenced());
        assert!(store.fence_reason().unwrap().contains("injected fault"));
        // Readers keep serving the last published generation.
        assert!(Arc::ptr_eq(&snap, &store.snapshot()));
        assert_eq!(store.generation(), 1);
        // Further commits are refused (and counted), not attempted.
        let mut d2 = Delta::new();
        d2.add_node("EMP", [("id", Value::Int(89)), ("name", Value::str("later"))]);
        assert!(store.commit(d2.clone()).unwrap_err().is_fenced());
        let stats = store.stats();
        assert!(stats.fenced);
        assert_eq!(stats.fence_events, 1);
        assert_eq!(stats.fenced_commits, 1);
        // The disk heals: checkpoint_now re-captures the full state on
        // fresh files, vacuums the segment holding the record of unknown
        // durability, and lifts the fence.
        vfs.clear();
        assert_eq!(store.checkpoint_now().unwrap(), 1);
        assert!(!store.is_fenced());
        store.commit(d2).unwrap();
        assert_eq!(store.generation(), 2);
        drop(store);
        let recovered = reopen(&dir).unwrap();
        assert_eq!(recovered.generation(), 2);
        assert_matches_cold_freeze(&recovered);
    }

    #[test]
    fn a_failed_group_fsync_fences_with_memory_intact_and_checkpoint_now_recovers() {
        let dir = scratch("group-fence");
        let vfs = FaultVfs::default();
        let store = open_faulted(&dir, &vfs);
        store.commit(scripted_deltas().remove(0)).unwrap();
        let snap = store.snapshot();
        let directories = (store.node_directory(), store.edge_directory());
        let group: Vec<Delta> = scripted_deltas()[1..4].to_vec();
        vfs.fail_from(vfs.ops() + 1);
        vfs.exempt(&[OpClass::Read, OpClass::Write, OpClass::SetLen, OpClass::Meta]);
        for result in store.commit_group(group.clone()) {
            assert!(
                result.unwrap_err().is_fenced(),
                "the shared fsync failed: every member fences"
            );
        }
        assert!(store.is_fenced());
        // Nothing was applied: memory is exactly the pre-group state.
        assert!(Arc::ptr_eq(&snap, &store.snapshot()));
        assert_eq!(store.generation(), 1);
        assert_eq!((store.node_directory(), store.edge_directory()), directories);
        let stats = store.stats();
        assert_eq!((stats.commits, stats.wal_records, stats.fenced_commits), (1, 1, 0));
        // The group's records were truncated away: a reopen of the fenced
        // directory recovers the pre-group state.
        let copy = scratch("group-fence-copy");
        copy_dir(&dir, &copy);
        assert_stores_equal(&reopen(&copy).unwrap(), &oracle_after(1));
        // The disk heals: checkpoint_now lifts the fence in place and the
        // same group commits.
        vfs.clear();
        assert_eq!(store.checkpoint_now().unwrap(), 1);
        assert!(!store.is_fenced());
        let generations: Vec<u64> =
            store.commit_group(group).into_iter().map(|r| r.unwrap().generation).collect();
        assert_eq!(generations, vec![2, 3, 4]);
        assert_stores_equal(&store, &oracle_after(4));
        drop(store);
        assert_stores_equal(&reopen(&dir).unwrap(), &oracle_after(4));
    }

    #[test]
    fn the_publish_hook_does_not_fire_for_a_failed_commit() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let dir = scratch("hook-fail");
        let vfs = FaultVfs::default();
        let store = open_faulted(&dir, &vfs);
        let fired = Arc::new(AtomicU64::new(0));
        {
            let fired = Arc::clone(&fired);
            store.engine().set_publish_hook(move |_| {
                fired.fetch_add(1, Ordering::SeqCst);
            });
        }
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(66)), ("name", Value::str("h"))]);
        vfs.fail_nth(vfs.ops() + 1);
        assert!(store.commit(d.clone()).is_err());
        assert_eq!(fired.load(Ordering::SeqCst), 0, "no publication for a failed commit");
        store.commit(d).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn checkpoint_now_is_atomic_under_a_fault_at_every_step() {
        // Probe run: count the I/O operations one checkpoint_now performs.
        let probe = scratch("ckpt-fault-probe");
        let vfs = FaultVfs::default();
        let store = open_faulted(&probe, &vfs);
        for d in scripted_deltas().into_iter().take(2) {
            store.commit(d).unwrap();
        }
        let before = vfs.ops();
        store.checkpoint_now().unwrap();
        let span = vfs.ops() - before;
        drop(store);
        std::fs::remove_dir_all(&probe).ok();
        assert!(span >= 5, "tmp write, syncs, rename, listings: got {span}");
        // Sweep: fail each of those operations in turn on a fresh store.
        for k in 1..=span {
            let dir = scratch(&format!("ckpt-fault-{k}"));
            let vfs = FaultVfs::default();
            let store = open_faulted(&dir, &vfs);
            for d in scripted_deltas().into_iter().take(2) {
                store.commit(d).unwrap();
            }
            vfs.fail_nth(vfs.ops() + k);
            match store.checkpoint_now() {
                // The fault hit a best-effort tail step (vacuum, dir sync).
                Ok(g) => assert_eq!(g, 2),
                Err(e) => {
                    assert!(e.is_io(), "checkpoint faults surface as Io, got: {e}");
                    assert!(!store.is_fenced(), "a failed checkpoint must not fence");
                }
            }
            vfs.clear();
            // Retry succeeds and sweeps any stray tmp file.
            assert_eq!(store.checkpoint_now().unwrap(), 2);
            let tmps = std::fs::read_dir(&dir)
                .unwrap()
                .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".tmp"))
                .count();
            assert_eq!(tmps, 0, "tmp files are swept by the next checkpoint");
            drop(store);
            // Whatever step failed, recovery lands on the committed state.
            let recovered = reopen(&dir).unwrap();
            assert_eq!(recovered.generation(), 2);
            assert_stores_equal(&recovered, &oracle_after(2));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn corrupt_wal_head_without_a_checkpoint_is_a_typed_error() {
        let dir = scratch("corrupt-head");
        {
            let store = open_durable(&dir, durable_opts(true, 0)).unwrap();
            store.commit(scripted_deltas().remove(0)).unwrap();
        }
        for p in checkpoint_files(&dir).unwrap() {
            std::fs::remove_file(p).unwrap();
        }
        let wal_file = wal_segment_files(&dir).unwrap().remove(0);
        let mut bytes = std::fs::read(&wal_file).unwrap();
        bytes[4] ^= 0xFF; // break the head record's checksum
        std::fs::write(&wal_file, &bytes).unwrap();
        let err = reopen(&dir).unwrap_err();
        match err {
            StoreError::Corrupt { file, detail } => {
                assert_eq!(file, wal_file, "the error names the offending file");
                assert!(detail.contains("WAL head"), "unexpected detail: {detail}");
            }
            other => panic!("expected Corrupt, got: {other}"),
        }
    }

    #[test]
    fn no_valid_checkpoint_and_no_wal_records_is_a_typed_error() {
        let dir = scratch("all-corrupt");
        {
            let _store = open_durable(&dir, durable_opts(true, 0)).unwrap();
        }
        let ckpt = checkpoint_files(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&ckpt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&ckpt, &bytes).unwrap();
        // The WAL segment exists but is empty: nothing can rebuild the
        // bootstrap graph, and starting empty would silently drop it.
        let err = reopen(&dir).unwrap_err();
        match err {
            StoreError::Corrupt { file, .. } => assert_eq!(file, ckpt),
            other => panic!("expected Corrupt, got: {other}"),
        }
    }

    #[test]
    fn recovery_without_a_checkpoint_rejects_a_gapped_wal() {
        let dir = scratch("gap");
        {
            let store = open_durable(&dir, durable_opts(true, 0)).unwrap();
            for d in scripted_deltas().into_iter().take(2) {
                store.commit(d).unwrap();
            }
            store.checkpoint_now().unwrap(); // rotates: the log now starts at 3
            store.commit(scripted_deltas().remove(2)).unwrap();
        }
        for p in checkpoint_files(&dir).unwrap() {
            std::fs::remove_file(p).unwrap();
        }
        let err = reopen(&dir).unwrap_err();
        match err {
            StoreError::Corrupt { detail, .. } => {
                assert!(detail.contains("gap"), "unexpected detail: {detail}");
            }
            other => panic!("expected Corrupt, got: {other}"),
        }
    }

    // --------------------------------------- interned-Ident regression

    #[test]
    fn clone_fallback_publication_shares_interned_idents() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let mut pinned = vec![store.snapshot()];
        for i in 0..5 {
            let mut d = Delta::new();
            d.add_node("EMP", [("id", Value::Int(100 + i)), ("name", Value::str("w"))]);
            store.commit(d).unwrap();
            // Pin every generation: publication must clone every time.
            pinned.push(store.snapshot());
        }
        let stats = store.stats();
        assert_eq!(stats.graph_clones, 5, "pinned readers force the clone fallback");
        assert_eq!(stats.graph_reclaims, 0);
        // Regression (interned `Ident`): even deep graph clones share the
        // identifier allocations — labels across generations are
        // pointer-identical, not copied strings.
        let label_arc = |s: &Snapshot| {
            s.graph().nodes().iter().find(|n| n.label == "EMP").unwrap().label.as_arc().clone()
        };
        assert!(
            Arc::ptr_eq(&label_arc(&pinned[1]), &label_arc(&pinned[5])),
            "clone-fallback publication deep-copied an identifier string"
        );
        drop(pinned);
        // With no reader pinning the retiring buffer, publication goes
        // back to O(delta) reclaim-and-replay.
        for i in 0..2 {
            let mut d = Delta::new();
            d.add_node("EMP", [("id", Value::Int(200 + i)), ("name", Value::str("w"))]);
            store.commit(d).unwrap();
        }
        assert!(store.stats().graph_reclaims >= 1, "released buffers are reclaimed again");
    }

    #[test]
    fn directories_and_key_lookup_track_mutations() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        assert_eq!(store.node_directory().len(), 4);
        assert_eq!(store.edge_directory().len(), 2);
        let ada = store.node_key("EMP", &Value::Int(1)).unwrap();
        let mut d = Delta::new();
        let edges: Vec<EdgeKey> = store
            .edge_directory()
            .into_iter()
            .filter(|(_, _, _, src, _)| *src == ada)
            .map(|(k, ..)| k)
            .collect();
        for e in edges {
            d.remove_edge(e);
        }
        d.remove_node(ada);
        store.commit(d).unwrap();
        assert!(store.node_key("EMP", &Value::Int(1)).is_none());
        assert_eq!(store.node_directory().len(), 3);
        assert_matches_cold_freeze(&store);
    }

    #[test]
    fn read_apis_survive_part_applied_key_maps_after_an_apply_fence() {
        // An apply-phase error fences with the key maps part-mutated while
        // the published graph is untouched: simulate that state (stable
        // keys missing for published arena slots) under the lock.
        let dir = scratch("apply-fence-reads");
        let store = open_durable(&dir, durable_opts(true, 0)).unwrap();
        {
            let mut st = store.state.lock().unwrap();
            st.node_keys.truncate(1);
            st.edge_keys.clear();
            engage_fence(&mut st, "simulated apply failure".into(), false);
        }
        assert_eq!(store.node_key("EMP", &Value::Int(2)), None);
        assert_eq!(store.edge_key("WORK_AT", &Value::Int(10)), None);
        assert_eq!(store.node_directory().len(), 1);
        assert!(store.edge_directory().is_empty());
        assert_eq!(store.stats().live_nodes, 4, "the published graph is untouched");
        assert!(matches!(store.checkpoint_now(), Err(StoreError::Fenced { .. })));
        assert!(matches!(store.commit(Delta::new()), Err(StoreError::Fenced { .. })));
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    // ----------------------------------------------------- idempotency

    #[test]
    fn tagged_commit_replays_instead_of_reapplying() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let token = 0xABCD_u128;
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
        let first = store.commit_tagged(d.clone(), Some(token)).unwrap();
        assert_eq!(first.generation, 1);
        // The retry would be Rejected (duplicate id 3) if it re-applied;
        // the dedup table answers it with the original generation.
        let replay = store.commit_tagged(d.clone(), Some(token)).unwrap();
        assert_eq!(replay.generation, 1);
        assert!(replay.node_keys.is_empty(), "nothing new is assigned on replay");
        assert_eq!(store.stats().commits, 1, "exactly one commit happened");
        assert_eq!(store.stats().idempotent_replays, 1);
        // A different token is a different logical commit: it runs the
        // full path and (here) rejects on the duplicate key.
        assert!(matches!(store.commit_tagged(d, Some(token + 1)), Err(StoreError::Rejected(_))));
        assert_eq!(store.stats().rejected_commits, 1);
        assert_matches_cold_freeze(&store);
    }

    #[test]
    fn rejected_tagged_commits_leave_no_dedup_entry() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let token = 7_u128;
        let mut dup = Delta::new();
        dup.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("dup"))]);
        assert!(matches!(store.commit_tagged(dup, Some(token)), Err(StoreError::Rejected(_))));
        // The same token with a *valid* delta must commit for real — a
        // failed attempt records nothing.
        let mut ok = Delta::new();
        ok.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
        let info = store.commit_tagged(ok, Some(token)).unwrap();
        assert_eq!(info.generation, 1);
        assert_eq!(store.stats().idempotent_replays, 0);
    }

    #[test]
    fn group_commit_dedupes_tagged_members() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let mut a = Delta::new();
        a.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
        let mut b = Delta::new();
        b.add_node("EMP", [("id", Value::Int(4)), ("name", Value::str("D"))]);
        let r = store.commit_group_tagged(vec![(a.clone(), Some(1)), (b, Some(2))]);
        assert_eq!(r[0].as_ref().unwrap().generation, 1);
        assert_eq!(r[1].as_ref().unwrap().generation, 2);
        // Retry member 1 inside a later group alongside a fresh member.
        let mut c = Delta::new();
        c.add_node("EMP", [("id", Value::Int(5)), ("name", Value::str("E"))]);
        let r = store.commit_group_tagged(vec![(a, Some(1)), (c, Some(3))]);
        assert_eq!(r[0].as_ref().unwrap().generation, 1, "replayed, not re-applied");
        assert_eq!(r[1].as_ref().unwrap().generation, 3, "fresh member gets the next generation");
        assert_eq!(store.stats().commits, 3);
        assert_eq!(store.stats().idempotent_replays, 1);
        assert_matches_cold_freeze(&store);
    }

    #[test]
    fn a_token_repeated_inside_one_group_is_applied_once() {
        let dir = scratch("group-token");
        let store = open_durable(&dir, durable_opts(true, 0)).unwrap();
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
        // A retry queued behind its own original lands in the same group.
        let r = store.commit_group_tagged(vec![(d.clone(), Some(9)), (d.clone(), Some(9))]);
        let (original, retry) = (r[0].as_ref().unwrap(), r[1].as_ref().unwrap());
        assert_eq!((original.generation, retry.generation), (1, 1));
        assert_eq!(original.node_keys.len(), 1);
        assert!(retry.node_keys.is_empty() && retry.touched_tables.is_empty());
        let stats = store.stats();
        assert_eq!((stats.generation, stats.commits, stats.rejected_commits), (1, 1, 0));
        assert_eq!((stats.idempotent_replays, stats.wal_records), (1, 1));
        // The token is recorded once, for the original's generation.
        assert_eq!(store.commit_tagged(d, Some(9)).unwrap().generation, 1);
        assert_matches_cold_freeze(&store);
        drop(store);
        assert_eq!(reopen(&dir).unwrap().stats().replayed_commits, 1);
    }

    #[test]
    fn group_members_stage_effects_for_later_members_exactly_like_serial_commits() {
        // emp_graph() assigns keys 0..=5, so member 1's node receives 6.
        let predicted = NodeKey(6);
        let mut m1 = Delta::new();
        m1.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
        // Member 2 patches, then removes, the node member 1 adds.
        let mut m2 = Delta::new();
        m2.set_node_prop(predicted, "name", Value::str("C2"));
        m2.set_node_prop(predicted, "id", Value::Int(30));
        m2.remove_node(predicted);
        // Member 3 stages a node, then an edge to the removed node: it is
        // rejected, and its staged node and key go with it.
        let mut m3 = Delta::new();
        m3.add_node("EMP", [("id", Value::Int(40)), ("name", Value::str("x"))]);
        m3.add_edge("WORK_AT", predicted, NodeKey(2), [("wid", Value::Int(20))]);
        // Member 4 reuses the default key and the stable key member 3
        // dropped.
        let mut m4 = Delta::new();
        let n = m4.add_node("EMP", [("id", Value::Int(40)), ("name", Value::str("y"))]);
        m4.add_edge("WORK_AT", n, NodeKey(2), [("wid", Value::Int(20))]);
        let members = vec![m1, m2, m3, m4];
        let grouped = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let serial = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let group_results = grouped.commit_group(members.clone());
        assert!(matches!(group_results[2], Err(StoreError::Rejected(_))));
        assert_eq!(group_results[3].as_ref().unwrap().node_keys, vec![NodeKey(7)]);
        for (i, (g, d)) in group_results.iter().zip(members).enumerate() {
            assert_same_outcome(g, &serial.commit(d), &format!("member {i}"));
        }
        assert_stores_equal(&grouped, &serial);
        assert_eq!(grouped.node_directory(), serial.node_directory());
        assert_eq!(grouped.edge_directory(), serial.edge_directory());
        assert_matches_cold_freeze(&serial);
    }

    #[test]
    fn idempotency_survives_crash_recovery_via_wal_and_checkpoint() {
        let dir = scratch("idem");
        let token = 0x1234_5678_u128;
        {
            let store = GraphStore::builder(emp_schema())
                .bootstrap(emp_graph())
                .durable(&dir)
                .open()
                .unwrap();
            let mut d = Delta::new();
            d.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
            assert_eq!(store.commit_tagged(d, Some(token)).unwrap().generation, 1);
        }
        // Recovery replays the WAL record, token included: the dedup
        // table repopulates and the retry replays.
        {
            let store = GraphStore::builder(emp_schema())
                .bootstrap(emp_graph())
                .durable(&dir)
                .open()
                .unwrap();
            let mut d = Delta::new();
            d.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
            let replay = store.commit_tagged(d, Some(token)).unwrap();
            assert_eq!(replay.generation, 1);
            assert_eq!(store.stats().idempotent_replays, 1);
            // Checkpoint now: the token must survive via the checkpoint
            // image too (the WAL segment gets vacuumed).
            store.checkpoint_now().unwrap();
        }
        {
            let store = GraphStore::builder(emp_schema())
                .bootstrap(emp_graph())
                .durable(&dir)
                .open()
                .unwrap();
            let mut d = Delta::new();
            d.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
            let replay = store.commit_tagged(d, Some(token)).unwrap();
            assert_eq!(replay.generation, 1, "token restored from the checkpoint image");
            assert_eq!(store.stats().commits, 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn idempotency_table_evicts_fifo_at_retention() {
        let mut t = IdempotencyTable::default();
        for i in 0..(IDEMPOTENCY_RETENTION as u128 + 10) {
            t.record(i, i as u64 + 1);
        }
        assert_eq!(t.fifo.len(), IDEMPOTENCY_RETENTION);
        assert_eq!(t.lookup(0), None, "oldest entries evicted");
        assert_eq!(t.lookup(10), Some(11), "survivors intact");
        let entries: Vec<_> = t.entries().collect();
        assert_eq!(entries.len(), IDEMPOTENCY_RETENTION);
        let rebuilt = IdempotencyTable::from_entries(entries);
        assert_eq!(rebuilt.lookup(10), Some(11));
    }

    // ------------------------------------------ reference solo commit

    /// The store's former solo commit path, kept as a test-only
    /// reference for [`GraphStore::commit_tagged`], which is now a group
    /// of one: validate, append and fsync this one record, apply,
    /// derive the images from this commit's own table deltas, publish.
    /// It still derives the row image eagerly, with
    /// [`Table::apply_delta`](graphiti_relational::Table::apply_delta),
    /// into `rows` (the caller's copy of the published row image), beside
    /// the columnar image it publishes.
    fn reference_commit_tagged(
        store: &GraphStore,
        rows: &mut RelInstance,
        delta: Delta,
        token: Option<u128>,
    ) -> StoreResult<CommitInfo> {
        let commit_started = Instant::now();
        let mut st = store.state.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(reason) = st.fence.as_ref().map(|f| f.reason.clone()) {
            st.fenced_commits.inc();
            return Err(StoreError::Fenced { reason });
        }
        if let Some(t) = token {
            if let Some(generation) = st.idempotency.lookup(t) {
                st.idempotent_replays.inc();
                return Ok(CommitInfo {
                    generation,
                    published_generation: st.generation,
                    snapshot: Arc::clone(&st.published_snapshot),
                    node_keys: Vec::new(),
                    edge_keys: Vec::new(),
                    touched_tables: Vec::new(),
                });
            }
        }
        if delta.is_empty() {
            if let Some(t) = token {
                let generation = st.generation;
                st.idempotency.record(t, generation);
            }
            return Ok(CommitInfo {
                generation: st.generation,
                published_generation: st.generation,
                snapshot: Arc::clone(&st.published_snapshot),
                node_keys: Vec::new(),
                edge_keys: Vec::new(),
                touched_tables: Vec::new(),
            });
        }
        if let Err(e) = Staging::new(&st).stage(&st, &delta) {
            st.rejected.inc();
            return Err(StoreError::Rejected(e));
        }
        let next_generation = st.generation + 1;
        if st.durable.is_some() {
            let outcome = {
                let d = st.durable.as_mut().expect("durable checked above");
                match wal_append_with_retry(d, next_generation, token, &delta) {
                    WalOutcome::Appended { bytes } if d.options.fsync_each_commit => {
                        let sync_started = Instant::now();
                        let sync = d.wal.sync();
                        d.wal_fsync_micros.record(sync_started.elapsed().as_micros() as u64);
                        match sync {
                            Ok(()) => WalOutcome::Appended { bytes },
                            Err(e) => {
                                let target = d.wal.len().saturating_sub(bytes);
                                let _ = d.wal.truncate_to(target);
                                WalOutcome::MustFence(e)
                            }
                        }
                    }
                    outcome => outcome,
                }
            };
            match outcome {
                WalOutcome::Appended { bytes } => {
                    let d = st.durable.as_mut().expect("durable checked above");
                    d.wal_records.inc();
                    d.wal_bytes.add(bytes);
                }
                WalOutcome::Aborted(e) => return Err(e),
                WalOutcome::MustFence(e) => {
                    let reason = format!("wal failure with uncertain on-disk state: {e}");
                    engage_fence(&mut st, reason.clone(), true);
                    return Err(StoreError::Fenced { reason });
                }
            }
        }
        let mut graph = checkout_graph(&mut st);
        let applied = match apply_delta(&mut st, &mut graph, &delta) {
            Ok(a) => a,
            Err(e) => {
                let msg = format!("commit apply phase failed mid-mutation: {e}");
                engage_fence(&mut st, msg.clone(), false);
                return Err(StoreError::Internal(msg));
            }
        };
        let prev = Arc::clone(&st.published_snapshot);
        let mut induced = rows.clone();
        let mut columnar = prev.induced_columnar().clone();
        let mut touched: Vec<String> = Vec::with_capacity(applied.deltas.len());
        for (name, table_delta) in &applied.deltas {
            let (row_base, col_base) = match (induced.table(name), columnar.table(name)) {
                (Some(r), Some(c)) => (r, c),
                _ => {
                    let msg = format!("generation lost table `{name}` mid-publish");
                    engage_fence(&mut st, msg.clone(), false);
                    return Err(StoreError::Internal(msg));
                }
            };
            let row_image = row_base.apply_delta(table_delta);
            let col_image = col_base.apply_delta(table_delta);
            induced.insert_table(name.clone(), row_image);
            columnar.insert_table(name.clone(), col_image);
            touched.push(name.clone());
        }
        for name in applied.deltas.keys() {
            if let Some(t) = st.tables.get_mut(name) {
                if t.compact(false) {
                    st.compactions.inc();
                }
            }
        }
        let (extra, extra_columnar) = prev.extra_parts();
        let graph = publish_graph(&mut st, graph, applied.replay);
        let snapshot = Snapshot::from_parts_with_columnar(
            prev.schema_arc(),
            graph,
            prev.ctx_arc(),
            columnar,
            extra,
            extra_columnar,
        );
        *rows = induced;
        st.published_snapshot = Arc::clone(&snapshot);
        store.engine.swap_snapshot(Arc::clone(&snapshot));
        st.generation += 1;
        st.commits.inc();
        if let Some(t) = token {
            let generation = st.generation;
            st.idempotency.record(t, generation);
        }
        let due = st.durable.as_ref().is_some_and(|d| {
            d.options.checkpoint_interval > 0
                && st.generation - d.last_checkpoint >= d.options.checkpoint_interval
        });
        if due && write_checkpoint_locked(&mut st).is_err() {
            if let Some(d) = st.durable.as_mut() {
                d.checkpoint_failures.inc();
            }
        }
        store.commit_e2e_micros.record(commit_started.elapsed().as_micros() as u64);
        Ok(CommitInfo {
            generation: st.generation,
            published_generation: st.generation,
            snapshot,
            node_keys: applied.node_keys,
            edge_keys: applied.edge_keys,
            touched_tables: touched,
        })
    }

    /// One commit's outcome must match: generation, assigned keys,
    /// touched tables, or the exact error.
    fn assert_same_outcome(
        got: &StoreResult<CommitInfo>,
        want: &StoreResult<CommitInfo>,
        context: &str,
    ) {
        match (got, want) {
            (Ok(a), Ok(b)) => assert_eq!(
                (a.generation, &a.node_keys, &a.edge_keys, &a.touched_tables),
                (b.generation, &b.node_keys, &b.edge_keys, &b.touched_tables),
                "{context}"
            ),
            (Err(a), Err(b)) => assert_eq!(a, b, "{context}"),
            _ => panic!("{context}: {got:?} vs {want:?}"),
        }
    }

    /// Every file of a store directory, by name, with its bytes.
    fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// One random script step over `emp_schema()`: empty, valid and
    /// invalid deltas (small key spaces collide; removals may strand
    /// edges; references may be stale), a third of them tokened from a
    /// small token space so retries replay.
    fn random_commit(rng: &mut StdRng, store: &GraphStore) -> (Delta, Option<u128>) {
        let token = rng.gen_bool(0.3).then(|| rng.gen_range(0..6u64) as u128);
        let mut d = Delta::new();
        if rng.gen_bool(0.1) {
            return (d, token);
        }
        let nodes = store.node_directory();
        let edges = store.edge_directory();
        let mut emps: Vec<NodeRef> = Vec::new();
        let mut depts: Vec<NodeRef> = Vec::new();
        for (k, label, _) in &nodes {
            match label.as_str() {
                "EMP" => emps.push(NodeRef::Key(*k)),
                _ => depts.push(NodeRef::Key(*k)),
            }
        }
        let small = |rng: &mut StdRng| Value::Int(rng.gen_range(0..12i64));
        for _ in 0..rng.gen_range(1..=4usize) {
            match rng.gen_range(0..8u32) {
                0 => {
                    let id = small(rng);
                    emps.push(d.add_node("EMP", [("id", id), ("name", Value::str("e"))]));
                }
                1 => {
                    let dnum = small(rng);
                    depts.push(d.add_node("DEPT", [("dnum", dnum), ("dname", Value::str("d"))]));
                }
                2 if !emps.is_empty() && !depts.is_empty() => {
                    let src = emps[rng.gen_range(0..emps.len())];
                    let tgt = depts[rng.gen_range(0..depts.len())];
                    d.add_edge("WORK_AT", src, tgt, [("wid", small(rng))]);
                }
                3 if !edges.is_empty() => {
                    d.remove_edge(edges[rng.gen_range(0..edges.len())].0);
                }
                4 if !nodes.is_empty() => {
                    d.remove_node(nodes[rng.gen_range(0..nodes.len())].0);
                }
                5 if !nodes.is_empty() => {
                    let (k, label, _) = &nodes[rng.gen_range(0..nodes.len())];
                    let keys: [&str; 2] =
                        if label.as_str() == "EMP" { ["id", "name"] } else { ["dnum", "dname"] };
                    let value = if rng.gen_bool(0.1) { Value::Null } else { small(rng) };
                    d.set_node_prop(*k, keys[rng.gen_range(0..2usize)], value);
                }
                6 if !edges.is_empty() => {
                    d.set_edge_prop(edges[rng.gen_range(0..edges.len())].0, "wid", small(rng));
                }
                _ => {
                    d.remove_node(NodeKey(1_000_000));
                }
            }
        }
        (d, token)
    }

    /// `PROPTEST_CASES`-honoring case count.
    fn cases(default_cases: u32) -> u32 {
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_cases)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: cases(32) })]

        /// `commit_tagged` (a group of one) is identical to the retired
        /// solo path: every result, the published images, the key
        /// directories, the counters and every byte on disk.
        #[test]
        fn commit_tagged_matches_the_reference_solo_path(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let options = DurabilityOptions {
                fsync_each_commit: rng.gen_bool(0.5),
                checkpoint_interval: [0, 2, 3, 5][rng.gen_range(0..4usize)],
                ..durable_opts(true, 0)
            };
            let (new_dir, ref_dir) = (scratch("solo-new"), scratch("solo-ref"));
            let new = open_durable(&new_dir, options).unwrap();
            let reference = open_durable(&ref_dir, options).unwrap();
            let mut rows = reference.snapshot().induced().clone();
            for step in 0..rng.gen_range(12..=32usize) {
                let (delta, token) = random_commit(&mut rng, &reference);
                let want = reference_commit_tagged(&reference, &mut rows, delta.clone(), token);
                let got = new.commit_tagged(delta, token);
                assert_same_outcome(&got, &want, &format!("step {step}"));
                if let (Ok(a), Ok(b)) = (&got, &want) {
                    prop_assert_eq!(a.published_generation, b.published_generation);
                }
            }
            // Both columnar images, and the new store's lazily built row
            // view, equal the reference's eagerly patched row image
            // exactly, row order included.
            let (a, b) = (new.snapshot(), reference.snapshot());
            let (ca, cb) = (a.induced_columnar(), b.induced_columnar());
            prop_assert_eq!(ca.tables().count(), rows.tables().count());
            for (name, table) in rows.tables() {
                prop_assert_eq!(&ca.table(name).unwrap().to_table(), table);
                prop_assert_eq!(&cb.table(name).unwrap().to_table(), table);
            }
            prop_assert!(new.generation() == 0 || !a.row_view_built(), "a commit built rows");
            prop_assert_eq!(a.induced(), &rows);
            prop_assert_eq!(new.node_directory(), reference.node_directory());
            prop_assert_eq!(new.edge_directory(), reference.edge_directory());
            prop_assert_eq!(new.stats(), reference.stats());
            prop_assert!(dir_bytes(&new_dir) == dir_bytes(&ref_dir), "store directories differ");
            drop((new, reference));
            std::fs::remove_dir_all(&new_dir).ok();
            std::fs::remove_dir_all(&ref_dir).ok();
        }
    }

    // --------------------------------------- checkpoint byte identity

    /// One step of the byte-identity script: mostly valid deltas over
    /// fresh primary keys, so the logs grow, tombstone and compact, with
    /// property values of every tag.
    fn identity_delta(rng: &mut StdRng, store: &GraphStore, next_id: &mut i64) -> Delta {
        let nodes = store.node_directory();
        let edges = store.edge_directory();
        let pick = |rng: &mut StdRng, n: usize| rng.gen_range(0..n);
        let value = |rng: &mut StdRng| match rng.gen_range(0..5u32) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::Int(rng.gen_range(-5..5i64)),
            3 => Value::Float(rng.gen_range(0..8i64) as f64 / 4.0),
            _ => Value::str(format!("v{}", rng.gen_range(0..100u32))),
        };
        let mut d = Delta::new();
        match rng.gen_range(0..4u32) {
            0 => {
                let mut emps: Vec<NodeRef> = Vec::new();
                let mut depts: Vec<NodeRef> = Vec::new();
                for (k, label, _) in &nodes {
                    match label.as_str() {
                        "EMP" => emps.push(NodeRef::Key(*k)),
                        _ => depts.push(NodeRef::Key(*k)),
                    }
                }
                for _ in 0..rng.gen_range(1..=8usize) {
                    *next_id += 1;
                    let id = Value::Int(*next_id);
                    if rng.gen_bool(0.7) {
                        emps.push(d.add_node("EMP", [("id", id), ("name", value(rng))]));
                    } else {
                        depts.push(d.add_node("DEPT", [("dnum", id), ("dname", value(rng))]));
                    }
                }
                if !emps.is_empty() && !depts.is_empty() {
                    for _ in 0..rng.gen_range(0..4usize) {
                        *next_id += 1;
                        let (src, tgt) =
                            (emps[pick(rng, emps.len())], depts[pick(rng, depts.len())]);
                        d.add_edge("WORK_AT", src, tgt, [("wid", Value::Int(*next_id))]);
                    }
                }
            }
            1 if !nodes.is_empty() => {
                for _ in 0..rng.gen_range(1..=4usize) {
                    let (k, label, _) = &nodes[pick(rng, nodes.len())];
                    let key = if label.as_str() == "EMP" { "name" } else { "dname" };
                    d.set_node_prop(*k, key, value(rng));
                }
                if !edges.is_empty() {
                    *next_id += 1;
                    d.set_edge_prop(edges[pick(rng, edges.len())].0, "wid", Value::Int(*next_id));
                }
            }
            2 if !nodes.is_empty() => {
                // Remove a few nodes with their incident edges first.
                for _ in 0..rng.gen_range(1..=8usize) {
                    let (k, ..) = &nodes[pick(rng, nodes.len())];
                    for (e, .., src, tgt) in &edges {
                        if src == k || tgt == k {
                            d.remove_edge(*e);
                        }
                    }
                    d.remove_node(*k);
                }
            }
            _ if !edges.is_empty() => {
                for _ in 0..rng.gen_range(1..=4usize) {
                    d.remove_edge(edges[pick(rng, edges.len())].0);
                }
            }
            _ => {}
        }
        d
    }

    /// The newest checkpoint on disk was written at the current
    /// generation, and equals the retired clone-then-encode path's frame
    /// of the current state byte for byte (header checksum by the bitwise
    /// CRC).
    fn newest_checkpoint_matches_the_reference(store: &GraphStore, dir: &Path) -> bool {
        let newest = checkpoint_files(dir).unwrap().pop().unwrap();
        let bytes = std::fs::read(&newest).unwrap();
        let st = store.state.lock().unwrap();
        let payload = checkpoint::encode(&checkpoint::build_checkpoint_image(&st));
        newest == checkpoint::checkpoint_path(dir, st.generation)
            && bytes[..4] == (payload.len() as u32).to_le_bytes()
            && bytes[4..8] == wal::crc32_bitwise(&payload).to_le_bytes()
            && bytes[8..] == payload[..]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: cases(32) })]

        /// Every checkpoint the streaming encoder writes (bootstrap,
        /// periodic, and `checkpoint_now`) is byte-identical to the
        /// retired encoder's, across inserts, property updates,
        /// tombstoning removals, compaction, tokened commits and groups.
        #[test]
        fn streamed_checkpoints_match_the_reference_encoder(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dir = scratch("ckpt-identity");
            let options = DurabilityOptions {
                checkpoint_interval: rng.gen_range(1..=3u64),
                ..durable_opts(false, 0)
            };
            let store = open_durable(&dir, options).unwrap();
            prop_assert!(newest_checkpoint_matches_the_reference(&store, &dir), "bootstrap");
            // A bulk insert first, so the final sweep tombstones enough
            // rows to compact.
            let mut next_id = 100i64;
            let mut bulk = Delta::new();
            for _ in 0..40 {
                next_id += 1;
                bulk.add_node("EMP", [("id", Value::Int(next_id)), ("name", Value::str("b"))]);
            }
            store.commit(bulk).unwrap();
            for step in 0..rng.gen_range(16..=40usize) {
                let written = store.stats().checkpoints;
                // Members of one group share a small token space, so
                // retries replay, within a group and across groups.
                let mut member = |rng: &mut StdRng| {
                    let token = rng.gen_bool(0.3).then(|| rng.gen_range(0..8u64) as u128);
                    (identity_delta(rng, &store, &mut next_id), token)
                };
                let size = if rng.gen_bool(0.25) { rng.gen_range(2..=4usize) } else { 1 };
                let group: Vec<_> = (0..size).map(|_| member(&mut rng)).collect();
                store.commit_group_tagged(group);
                if rng.gen_bool(0.1) {
                    store.checkpoint_now().unwrap();
                }
                if store.stats().checkpoints > written {
                    prop_assert!(
                        newest_checkpoint_matches_the_reference(&store, &dir),
                        "step {}", step
                    );
                }
            }
            // Sweep every node away: the bulk rows alone tombstone past
            // the compaction threshold.
            let mut sweep = Delta::new();
            for (e, ..) in store.edge_directory() {
                sweep.remove_edge(e);
            }
            for (k, ..) in store.node_directory() {
                sweep.remove_node(k);
            }
            store.commit(sweep).unwrap();
            prop_assert!(store.stats().compactions > 0, "the sweep compacts");
            store.checkpoint_now().unwrap();
            prop_assert!(newest_checkpoint_matches_the_reference(&store, &dir), "after compaction");
            drop(store);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
