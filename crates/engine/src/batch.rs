//! The batch execution service.
//!
//! An [`Engine`] binds a [`Snapshot`] handle to one [`PlanCache`] and
//! evaluates batches of Cypher and SQL queries across a worker pool.  The
//! snapshot handle is **swappable** ([`Engine::swap_snapshot`]): a
//! writable graph store publishes successive MVCC generations through it,
//! while every query and batch pins the generation current at its start
//! and runs against that immutable state end to end — readers are never
//! blocked by writers, and the plan cache survives generation changes
//! (plans are keyed by query text + target, not data).  SQL
//! runs **vectorized**: cached compiled plans execute column-at-a-time over
//! the snapshot's columnar image
//! ([`eval_vectorized`](graphiti_sql::eval_vectorized)); the row-at-a-time
//! [`eval_compiled`](graphiti_sql::eval_compiled) path stays available (and
//! differentially tested) as the oracle.
//!
//! Parallel batches are served by a **persistent** [`WorkerPool`]: threads
//! spawn once per engine (lazily, on the first parallel batch) and are fed
//! jobs over a channel, so repeated small batches never pay thread-spawn
//! latency.  Within a batch, participating workers drain a shared atomic
//! work queue — cheap items don't stall behind expensive ones — and
//! results land in submission order.  The pre-pool per-batch scoped-thread
//! path is retained as [`Engine::run_batch_unpooled`] for ablation
//! benchmarks.

use crate::cache::{CacheStats, PlanCache, SqlPlan, DEFAULT_PLAN_CACHE_CAPACITY};
use crate::pool::WorkerPool;
use crate::snapshot::{Snapshot, SqlTarget};
use graphiti_common::{Error, Result};
use graphiti_obs::metrics::Histogram;
use graphiti_obs::profile::{QueryProfile, StageProfile};
use graphiti_obs::Obs;
use graphiti_relational::Table;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// One query of a batch.
#[derive(Debug, Clone)]
pub enum BatchQuery {
    /// A Cypher query over the snapshot's graph.
    Cypher {
        /// Query text.
        text: String,
    },
    /// A SQL query over one of the snapshot's relational instances.
    Sql {
        /// Query text.
        text: String,
        /// Which instance to evaluate against.
        target: SqlTarget,
    },
}

impl BatchQuery {
    /// A Cypher query over the graph.
    pub fn cypher(text: impl Into<String>) -> BatchQuery {
        BatchQuery::Cypher { text: text.into() }
    }

    /// A SQL query over the induced (SDT-image) instance.
    pub fn sql(text: impl Into<String>) -> BatchQuery {
        BatchQuery::Sql { text: text.into(), target: SqlTarget::Induced }
    }

    /// A SQL query over a named extra instance.
    pub fn sql_on(target: impl Into<String>, text: impl Into<String>) -> BatchQuery {
        BatchQuery::Sql { text: text.into(), target: SqlTarget::Named(target.into()) }
    }

    /// The query text.
    pub fn text(&self) -> &str {
        match self {
            BatchQuery::Cypher { text } | BatchQuery::Sql { text, .. } => text,
        }
    }
}

/// The result of one query of a batch.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The result table, or the pipeline error (parse, plan, or eval).
    pub result: Result<Table>,
    /// Wall-clock microseconds spent on this query (including cache
    /// lookup, parse/compile on a miss, and evaluation).
    pub micros: u64,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// The per-operator execution profile — populated only by the
    /// opt-in profiled entry points ([`Engine::execute_profiled`],
    /// [`Engine::execute_on_profiled`]); `None` on the plain path.
    pub profile: Option<QueryProfile>,
}

/// The result of a whole batch.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-query outcomes, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// Wall-clock microseconds for the whole batch.
    pub wall_micros: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Cache hits attributable to this batch.
    pub cache_hits: u64,
    /// Cache misses attributable to this batch.
    pub cache_misses: u64,
}

/// A point-in-time view of an engine's execution resources (see
/// [`Engine::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Threads in the persistent worker pool, or `None` while the pool has
    /// not been spawned yet (it spawns lazily on the first parallel batch).
    pub pool_threads: Option<usize>,
    /// The host parallelism the pool would size itself from.
    pub workers_available: usize,
    /// Plan-cache counters (hits, misses, residency, evictions, capacity).
    pub cache: CacheStats,
}

impl BatchReport {
    /// Number of successful queries.
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }

    /// Number of failed queries.
    pub fn err_count(&self) -> usize {
        self.outcomes.len() - self.ok_count()
    }

    /// Batch throughput in queries per second (`0` for an empty batch).
    pub fn queries_per_sec(&self) -> f64 {
        if self.wall_micros == 0 {
            return 0.0;
        }
        self.outcomes.len() as f64 / (self.wall_micros as f64 / 1e6)
    }
}

/// The shared, thread-safe core of an engine: everything workers touch.
///
/// The snapshot handle sits behind an `RwLock` so a writable store can
/// **publish a new MVCC generation** ([`Engine::swap_snapshot`]) without
/// blocking readers: every query (and every batch) pins one `Arc` up
/// front and runs against it end to end, so in-flight work keeps its
/// generation while new work sees the latest one.  The lock is held only
/// for the `Arc` clone/swap — never across parsing, compilation, or
/// evaluation.
#[derive(Debug)]
struct EngineInner {
    snapshot: RwLock<Arc<Snapshot>>,
    cache: PlanCache,
    /// Observer invoked (outside the snapshot lock) after each
    /// [`Engine::swap_snapshot`] publication.
    publish_hook: RwLock<Option<PublishHook>>,
    /// The shared observability context (registry + tracer + slow-query
    /// log).  Standalone engines own a private one; a store-embedded
    /// engine shares its service's.
    obs: Arc<Obs>,
    /// Per-query end-to-end service-time distribution.
    query_micros: Arc<Histogram>,
}

/// The shape of a publication observer callback.
type PublishFn = Arc<dyn Fn(&Arc<Snapshot>) + Send + Sync>;

/// A publication observer: called with each newly published generation.
/// Newtyped so `EngineInner` can keep deriving `Debug` over a `dyn Fn`.
struct PublishHook(PublishFn);

impl std::fmt::Debug for PublishHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PublishHook(..)")
    }
}

impl EngineInner {
    /// Pins the latest published generation.
    fn current(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read().unwrap_or_else(|p| p.into_inner()))
    }
}

/// A parallel batch query service over a (swappable) frozen snapshot
/// generation.
#[derive(Debug)]
pub struct Engine {
    inner: Arc<EngineInner>,
    /// Lazily-spawned persistent worker pool (first parallel batch).
    pool: OnceLock<WorkerPool>,
}

/// Builds the inner state: the plan cache counts into the observability
/// context's registry, so cache traffic, query latency, and the
/// slow-query log all live in one namespace.
fn build_inner(snapshot: Arc<Snapshot>, capacity: Option<usize>, obs: Arc<Obs>) -> EngineInner {
    let registry = obs.registry();
    let cache = PlanCache::with_capacity_and_counters(
        capacity.unwrap_or(DEFAULT_PLAN_CACHE_CAPACITY),
        registry.counter("graphiti_plan_cache_hits_total"),
        registry.counter("graphiti_plan_cache_misses_total"),
        registry.counter("graphiti_plan_cache_evictions_total"),
    );
    let query_micros = registry.histogram("graphiti_query_micros");
    EngineInner {
        snapshot: RwLock::new(snapshot),
        cache,
        publish_hook: RwLock::new(None),
        obs,
        query_micros,
    }
}

impl Engine {
    /// Creates an engine (with an empty plan cache) over a snapshot.
    pub fn new(snapshot: Arc<Snapshot>) -> Engine {
        Engine::with_observability(snapshot, None, Arc::new(Obs::new()))
    }

    /// [`Engine::new`] with an explicit plan-cache capacity (see
    /// [`PlanCache::with_capacity`]).
    pub fn with_cache_capacity(snapshot: Arc<Snapshot>, capacity: usize) -> Engine {
        Engine::with_observability(snapshot, Some(capacity), Arc::new(Obs::new()))
    }

    /// An engine wired into the caller's observability context: metric
    /// names (plan cache, query latency) register in the shared
    /// registry, and slow queries land in the shared log.  This is how
    /// a graph store threads one namespace through store + engine +
    /// server.
    pub fn with_observability(
        snapshot: Arc<Snapshot>,
        cache_capacity: Option<usize>,
        obs: Arc<Obs>,
    ) -> Engine {
        Engine {
            inner: Arc::new(build_inner(snapshot, cache_capacity, obs)),
            pool: OnceLock::new(),
        }
    }

    /// The engine's observability context.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.inner.obs
    }

    /// Convenience: freeze `schema`/`graph` and build an engine over it.
    pub fn for_graph(
        schema: graphiti_graph::GraphSchema,
        graph: graphiti_graph::GraphInstance,
    ) -> Result<Engine> {
        Ok(Engine::new(Snapshot::freeze(schema, graph)?))
    }

    /// The engine's latest published snapshot generation.  The returned
    /// handle stays valid (and immutable) for as long as the caller holds
    /// it, even across [`Engine::swap_snapshot`] calls.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.inner.current()
    }

    /// Publishes a new snapshot generation, returning the previous one.
    /// Readers are never blocked: queries and batches already in flight
    /// finish against the generation they pinned at start, and every
    /// subsequent query sees `next`.  Cached plans stay valid because they
    /// are keyed by query text + target and compiled against schema-derived
    /// layouts, which a data-only generation change cannot alter.
    pub fn swap_snapshot(&self, next: Arc<Snapshot>) -> Arc<Snapshot> {
        let prev = {
            let mut slot = self.inner.snapshot.write().unwrap_or_else(|p| p.into_inner());
            std::mem::replace(&mut *slot, Arc::clone(&next))
        };
        // The hook runs with the snapshot lock released: it may query the
        // engine, but must not call back into the publishing store (the
        // store's state lock is typically held across publication).
        if let Some(hook) =
            self.inner.publish_hook.read().unwrap_or_else(|p| p.into_inner()).as_ref()
        {
            (hook.0)(&next);
        }
        prev
    }

    /// Installs a publication observer, invoked with each generation
    /// published through [`Engine::swap_snapshot`] (after the swap, with
    /// no engine lock held).  Replaces any previous hook.  The hook must
    /// not call back into the publishing store: the store holds its state
    /// lock across publication.
    ///
    /// Ordering under failure: a durable store publishes only *after*
    /// the commit's WAL record is on disk (and fsynced, when
    /// `fsync_each_commit` is set), so by the time the hook observes a
    /// generation its record is already durable.  A commit aborted by an
    /// I/O failure — or one that fences the store — never reaches
    /// `swap_snapshot`, so the hook never fires for it.
    pub fn set_publish_hook(&self, hook: impl Fn(&Arc<Snapshot>) + Send + Sync + 'static) {
        *self.inner.publish_hook.write().unwrap_or_else(|p| p.into_inner()) =
            Some(PublishHook(Arc::new(hook)));
    }

    /// Removes the publication observer, if any.
    pub fn clear_publish_hook(&self) {
        *self.inner.publish_hook.write().unwrap_or_else(|p| p.into_inner()) = None;
    }

    /// Current plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// A lightweight point-in-time view of the engine's moving parts —
    /// observable without running a batch: worker-pool state plus the full
    /// plan-cache counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            pool_threads: self.pool.get().map(WorkerPool::threads),
            workers_available: crate::available_workers(),
            cache: self.inner.cache.stats(),
        }
    }

    /// Executes one query, consulting (and populating) the plan cache.
    pub fn execute(&self, query: &BatchQuery) -> QueryOutcome {
        self.inner.execute(query)
    }

    /// [`Engine::execute`] with the per-operator profile collected and
    /// returned in the outcome (the opt-in profiling flag).  Results
    /// are identical to the plain path.
    pub fn execute_profiled(&self, query: &BatchQuery) -> QueryOutcome {
        let snapshot = self.inner.current();
        self.inner.execute_on_with(&snapshot, query, true)
    }

    /// [`Engine::execute_on`] with the per-operator profile collected
    /// and returned in the outcome.
    pub fn execute_on_profiled(&self, snapshot: &Snapshot, query: &BatchQuery) -> QueryOutcome {
        self.inner.execute_on_with(snapshot, query, true)
    }

    /// Executes an already-parsed SQL query through the snapshot and plan
    /// cache (keyed by the AST's rendered text), skipping the text parser.
    ///
    /// This is the entry point for callers that hold a transpiler's output:
    /// the differential oracle evaluates transpiled ASTs exactly, with no
    /// pretty-print/re-parse round-trip in the trusted path.
    pub fn execute_sql_ast(
        &self,
        ast: &graphiti_sql::SqlQuery,
        target: &SqlTarget,
    ) -> QueryOutcome {
        self.inner.execute_sql_ast(ast, target)
    }

    /// Evaluates a batch across up to `workers` pool threads, returning
    /// per-query outcomes in submission order plus aggregate timing and
    /// cache counters.
    ///
    /// `workers == 1` runs inline on the caller's thread (a true serial
    /// baseline with zero dispatch overhead); higher counts enqueue one
    /// drain job per participating worker on the engine's persistent pool
    /// (spawned once, on first use).  Results are deterministic: every
    /// query sees the same immutable snapshot, and the only shared mutable
    /// state is the plan cache, which never changes results (a cached plan
    /// is exactly what the miss path would have built).
    pub fn run_batch(&self, batch: &[BatchQuery], workers: usize) -> BatchReport {
        self.run_batch_with(batch, workers, true, None)
    }

    /// [`Engine::run_batch`] against an **explicitly pinned** snapshot
    /// generation instead of the latest published one.  This is the
    /// session primitive: a serving session holds one `Arc<Snapshot>`
    /// and keeps reading that generation — across any number of
    /// intervening publications — until it opts into a refresh.
    pub fn run_batch_on(
        &self,
        snapshot: &Arc<Snapshot>,
        batch: &[BatchQuery],
        workers: usize,
    ) -> BatchReport {
        self.run_batch_with(batch, workers, true, Some(Arc::clone(snapshot)))
    }

    /// Executes one query against an explicitly pinned snapshot
    /// generation (the single-query form of [`Engine::run_batch_on`]).
    pub fn execute_on(&self, snapshot: &Snapshot, query: &BatchQuery) -> QueryOutcome {
        self.inner.execute_on(snapshot, query)
    }

    /// The pre-pool execution model: `workers` *scoped threads spawned for
    /// this batch alone*, torn down at the end.  Retained as the ablation
    /// baseline the persistent pool is benchmarked against (`bench_pr4`'s
    /// small-batch comparison); results are identical to
    /// [`Engine::run_batch`].
    pub fn run_batch_unpooled(&self, batch: &[BatchQuery], workers: usize) -> BatchReport {
        self.run_batch_with(batch, workers, false, None)
    }

    fn run_batch_with(
        &self,
        batch: &[BatchQuery],
        workers: usize,
        pooled: bool,
        pin: Option<Arc<Snapshot>>,
    ) -> BatchReport {
        let before = self.inner.cache.stats();
        let start = Instant::now();
        let workers = workers.max(1).min(batch.len().max(1));
        // Pin one generation for the whole batch: every query of the batch
        // sees the same immutable snapshot even if a writer publishes new
        // generations mid-flight.  A session passes its own pin instead.
        let snapshot = pin.unwrap_or_else(|| self.inner.current());
        let outcomes = if workers <= 1 {
            batch.iter().map(|q| self.inner.execute_on(&snapshot, q)).collect()
        } else if pooled {
            self.dispatch_pooled(batch, workers, snapshot)
        } else {
            crate::run_parallel(batch.len(), workers, |i| {
                self.inner.execute_on(&snapshot, &batch[i])
            })
        };
        let wall_micros = start.elapsed().as_micros() as u64;
        let after = self.inner.cache.stats();
        BatchReport {
            outcomes,
            wall_micros,
            workers,
            cache_hits: after.hits - before.hits,
            cache_misses: after.misses - before.misses,
        }
    }

    /// Fans a batch across the persistent pool: one drain job per
    /// participating worker, all pulling indexes from a shared atomic
    /// counter, results merged and re-ordered at the end.
    fn dispatch_pooled(
        &self,
        batch: &[BatchQuery],
        workers: usize,
        snapshot: Arc<Snapshot>,
    ) -> Vec<QueryOutcome> {
        let pool = self.pool.get_or_init(|| WorkerPool::new(default_pool_threads()));
        let jobs = workers.min(pool.threads());
        let shared = Arc::new(BatchState {
            inner: Arc::clone(&self.inner),
            snapshot,
            queries: batch.to_vec(),
            next: AtomicUsize::new(0),
            merged: Mutex::new(Vec::with_capacity(batch.len())),
        });
        let (done_tx, done_rx) = channel::<()>();
        for _ in 0..jobs {
            let state = Arc::clone(&shared);
            let done = done_tx.clone();
            pool.submit(Box::new(move || {
                // Buffer locally, merge under one lock at exit: per-item
                // cost is a single relaxed fetch-add.
                let mut local: Vec<(usize, QueryOutcome)> = Vec::new();
                loop {
                    let i = state.next.fetch_add(1, Ordering::Relaxed);
                    if i >= state.queries.len() {
                        break;
                    }
                    local.push((i, state.inner.execute_on(&state.snapshot, &state.queries[i])));
                }
                state.merged.lock().unwrap_or_else(|p| p.into_inner()).extend(local);
                let _ = done.send(());
            }));
        }
        drop(done_tx);
        let mut finished = 0;
        while finished < jobs {
            match done_rx.recv() {
                Ok(()) => finished += 1,
                Err(_) => break, // a worker died; detected below
            }
        }
        let pairs = std::mem::take(&mut *shared.merged.lock().unwrap_or_else(|p| p.into_inner()));
        merge_pooled_outcomes(pairs, batch.len())
    }
}

/// Reassembles pooled results into submission order.  A pool worker that
/// panics mid-batch takes its claimed-but-unreported queries with it;
/// rather than panicking the *caller* (the pre-PR6 behavior was an
/// `assert_eq!` on the merged length), the lost slots surface as per-query
/// errors and every query another worker finished is still returned.
pub(crate) fn merge_pooled_outcomes(
    pairs: Vec<(usize, QueryOutcome)>,
    len: usize,
) -> Vec<QueryOutcome> {
    let mut slots: Vec<Option<QueryOutcome>> = (0..len).map(|_| None).collect();
    for (i, outcome) in pairs {
        if i < len {
            slots[i] = Some(outcome);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| QueryOutcome {
                result: Err(Error::eval(format!(
                    "batch query #{i} was lost to a panicked pool worker"
                ))),
                micros: 0,
                cache_hit: false,
                profile: None,
            })
        })
        .collect()
}

/// Pool size: every available core, but at least 8 so worker-ladder
/// benchmarks exercise real threads even on small hosts.
fn default_pool_threads() -> usize {
    crate::available_workers().max(8)
}

/// Everything one in-flight batch shares with its pool jobs, including the
/// generation the batch pinned at submission.
struct BatchState {
    inner: Arc<EngineInner>,
    snapshot: Arc<Snapshot>,
    queries: Vec<BatchQuery>,
    next: AtomicUsize,
    merged: Mutex<Vec<(usize, QueryOutcome)>>,
}

impl EngineInner {
    /// Executes one query against the latest generation (pinned for the
    /// duration of this query).
    fn execute(&self, query: &BatchQuery) -> QueryOutcome {
        let snapshot = self.current();
        self.execute_on(&snapshot, query)
    }

    /// Executes one query against an explicitly pinned generation.
    fn execute_on(&self, snapshot: &Snapshot, query: &BatchQuery) -> QueryOutcome {
        self.execute_on_with(snapshot, query, false)
    }

    /// The single execution funnel.  Every query — profiled or not —
    /// records its end-to-end service time into the engine's histogram
    /// and offers itself to the slow-query log (stage-less when
    /// unprofiled: one relaxed load on the fast path once the log is
    /// warm).
    fn execute_on_with(
        &self,
        snapshot: &Snapshot,
        query: &BatchQuery,
        profiled: bool,
    ) -> QueryOutcome {
        let start = Instant::now();
        let (result, cache_hit, stages) = match query {
            BatchQuery::Cypher { text } => self.execute_cypher(snapshot, text, profiled),
            BatchQuery::Sql { text, target } => self.execute_sql(
                snapshot,
                text,
                || graphiti_sql::parse_query(text),
                target,
                profiled,
            ),
        };
        let micros = start.elapsed().as_micros() as u64;
        self.query_micros.record(micros);
        let profile = QueryProfile {
            language: match query {
                BatchQuery::Cypher { .. } => "cypher".to_string(),
                BatchQuery::Sql { .. } => "sql".to_string(),
            },
            text: query.text().to_string(),
            micros,
            cache_hit,
            rows: result.as_ref().map(|t| t.rows.len() as u64).unwrap_or(0),
            stages,
        };
        let returned = profiled.then(|| profile.clone());
        self.obs.slow_queries().record(profile);
        QueryOutcome { result, micros, cache_hit, profile: returned }
    }

    fn execute_cypher(
        &self,
        snapshot: &Snapshot,
        text: &str,
        profiled: bool,
    ) -> (Result<Table>, bool, Vec<StageProfile>) {
        let (ast, hit) = match self.cache.cypher(text, || graphiti_cypher::parse_query(text)) {
            Ok(pair) => pair,
            Err(e) => return (Err(e), false, Vec::new()),
        };
        let (schema, graph) = (snapshot.schema(), snapshot.graph());
        if profiled {
            match graphiti_cypher::eval_query_profiled(schema, graph, &ast) {
                Ok((table, stages)) => (Ok(table), hit, stages),
                Err(e) => (Err(e), hit, Vec::new()),
            }
        } else {
            (graphiti_cypher::eval_query(schema, graph, &ast), hit, Vec::new())
        }
    }

    fn execute_sql_ast(&self, ast: &graphiti_sql::SqlQuery, target: &SqlTarget) -> QueryOutcome {
        let snapshot = self.current();
        let start = Instant::now();
        let text = graphiti_sql::query_to_string(ast);
        let (result, cache_hit, _) =
            self.execute_sql(&snapshot, &text, || Ok(ast.clone()), target, false);
        let micros = start.elapsed().as_micros() as u64;
        self.query_micros.record(micros);
        QueryOutcome { result, micros, cache_hit, profile: None }
    }

    /// The one SQL path: resolve the target → plan cache (a miss parses
    /// and compiles against the columnar image) → vectorized evaluation.
    /// The target's row form is only asked for if an operator falls back
    /// to the row engine.
    fn execute_sql(
        &self,
        snapshot: &Snapshot,
        text: &str,
        parse: impl FnOnce() -> Result<graphiti_sql::SqlQuery>,
        target: &SqlTarget,
        profiled: bool,
    ) -> (Result<Table>, bool, Vec<StageProfile>) {
        let (rows, columnar) = match snapshot.sql_image(target) {
            Ok(image) => image,
            Err(e) => return (Err(e), false, Vec::new()),
        };
        let (plan, hit) = match self.cache.sql(text, target, || {
            let ast = parse()?;
            let plan = graphiti_sql::compile_query(columnar, &ast)?;
            Ok(SqlPlan { ast, plan })
        }) {
            Ok(pair) => pair,
            Err(e) => return (Err(e), false, Vec::new()),
        };
        if profiled {
            match graphiti_sql::eval_vectorized_profiled(rows, columnar, &plan.plan) {
                Ok((table, stages)) => (Ok(table), hit, stages),
                Err(e) => (Err(e), hit, Vec::new()),
            }
        } else {
            (graphiti_sql::eval_vectorized(rows, columnar, &plan.plan), hit, Vec::new())
        }
    }
}
