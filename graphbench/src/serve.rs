//! The two serving workloads: `ingest_100k` and `serve_mix_10k`.
//!
//! Both run one durable store with the default flush policy and default
//! group commit behind a unix-socket `Server` in this process, and drive
//! it from tokened `WireSession`s (one at 100k rows, two at 10k), each
//! in a closed loop (it waits for a reply before it sends its next
//! request).  The window runs in slices of half a second; between
//! slices, with no request in flight, the benchmark samples the host's
//! speed (`reference`).

use crate::ops::{self, Mix, Op, OpStream, Shape};
use crate::reference::{Reference, SLICE_SECS};
use crate::stats::{mean, median, quantile, ratio, rss_peak_mb, RegistrySnapshot, Report, Window};
use crate::trace::{self, Span, Tracer};
use crate::Args;
use graphiti_benchmarks::{generate_graph, schemas};
use graphiti_common::Value;
use graphiti_core::SdtContext;
use graphiti_engine::{BatchQuery, DEFAULT_PLAN_CACHE_CAPACITY};
use graphiti_relational::Table;
use graphiti_server::protocol::{decode_response_versioned, encode_response_versioned, Response};
use graphiti_server::{Client, ClientOptions, RetryPolicy, Server, ServerHandle, WireSession};
use graphiti_store::{
    CommitAck, Delta, DurabilityOptions, EdgeKey, Graphiti, GroupOptions, NodeKey, Session,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One serving workload's shape.
pub struct Config {
    /// Nodes per label in the bootstrap graph (one FOLLOWS and one
    /// POSTED edge per user, so four tables of this many rows).
    pub users: usize,
    /// Reads per 10 ops.
    pub reads_per_10: usize,
    /// Setups per run (`setup_s` is their median): fewer where one
    /// setup takes seconds.
    pub setup_reps: usize,
    /// Client sessions, each a closed loop on its own connection.
    pub sessions: usize,
}

pub const INGEST: Config = Config { users: 100_000, reads_per_10: 0, setup_reps: 3, sessions: 1 };
pub const SERVE_MIX: Config = Config { users: 10_000, reads_per_10: 9, setup_reps: 7, sessions: 2 };
/// Users inserted by one commit before the window, for the window's
/// deletes to remove.
const POOL: usize = 2048;
/// Reads per shape, and commit replies, replayed layer by layer in a
/// traced run.
const REPLAYS: usize = 12;
/// Protocol version the replayed replies are encoded with.
const WIRE_VERSION: u32 = 3;

/// A running store + server + sessions, with the stable keys the ops
/// need.
struct Fixture {
    dir: PathBuf,
    service: Graphiti,
    handle: Option<ServerHandle>,
    sessions: Vec<WireSession>,
    ctx: SdtContext,
    users: Vec<NodeKey>,
    pool_nodes: Vec<NodeKey>,
    pool_edges: Vec<EdgeKey>,
    /// Live counts right after the pool commit.
    nodes0: u64,
    edges0: u64,
}

fn api<T>(r: graphiti_common::ApiResult<T>, what: &str) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

fn setup(cfg: &Config, seed: u64, root: &Path, rep: usize) -> Result<Fixture, String> {
    let social = schemas::social();
    let graph = generate_graph(&social.graph_schema, cfg.users, 1, seed);
    let dir = root.join(format!("store{rep}"));
    let sock = root.join(format!("s{rep}.sock"));
    let service = api(
        Graphiti::builder(social.graph_schema.clone())
            .bootstrap(graph)
            .durable(&dir)
            .group_commit_default()
            .open(),
        "open store",
    )?;
    let handle = api(Server::new(service.clone()).serve_unix(&sock), "start server")?;
    let options = ClientOptions { retry: RetryPolicy::none(), deadline: None, tokens: true };
    let sessions = (0..cfg.sessions)
        .map(|_| api(Client::connect_unix_with(&sock, options.clone()), "connect"))
        .collect::<Result<Vec<_>, _>>()?;
    let ctx = graphiti_core::infer_sdt(&social.graph_schema).map_err(|e| e.to_string())?;
    let mut fx = Fixture {
        dir,
        service,
        handle: Some(handle),
        sessions,
        ctx,
        users: Vec::new(),
        pool_nodes: Vec::new(),
        pool_edges: Vec::new(),
        nodes0: 0,
        edges0: 0,
    };

    // The pool: users inserted over the wire before the window, so the
    // window's deletes remove earlier inserts.
    let store = fx.service.store().clone();
    let followee = store
        .node_directory()
        .into_iter()
        .find(|(_, label, pk)| label.as_str() == "USR" && *pk == Value::Int(0))
        .map(|(k, _, _)| k)
        .ok_or("bootstrap user 0 missing")?;
    let mut pool = Delta::new();
    for i in 0..POOL {
        let key = Value::Int(ops::pool_key(i));
        let user = pool.add_node("USR", [("UsrId", key.clone()), ("UsrName", Value::str("pool"))]);
        pool.add_edge("FOLLOWS", user, followee, [("FId", key)]);
    }
    api(fx.sessions[0].commit(pool), "pool commit")?;

    let mut users = vec![None; cfg.users];
    let mut pool_nodes = vec![None; POOL];
    for (key, label, pk) in store.node_directory() {
        if let (true, Value::Int(k)) = (label.as_str() == "USR", pk) {
            if (0..cfg.users as i64).contains(&k) {
                users[k as usize] = Some(key);
            } else if (ops::POOL_BASE..ops::POOL_BASE + POOL as i64).contains(&k) {
                pool_nodes[(k - ops::POOL_BASE) as usize] = Some(key);
            }
        }
    }
    let mut pool_edges = vec![None; POOL];
    for (key, label, pk, _, _) in store.edge_directory() {
        if let (true, Value::Int(k)) = (label.as_str() == "FOLLOWS", pk) {
            if (ops::POOL_BASE..ops::POOL_BASE + POOL as i64).contains(&k) {
                pool_edges[(k - ops::POOL_BASE) as usize] = Some(key);
            }
        }
    }
    fx.users = users.into_iter().collect::<Option<_>>().ok_or("a bootstrap user has no key")?;
    fx.pool_nodes =
        pool_nodes.into_iter().collect::<Option<_>>().ok_or("a pool user has no key")?;
    fx.pool_edges =
        pool_edges.into_iter().collect::<Option<_>>().ok_or("a pool edge has no key")?;
    let stats = api(fx.sessions[0].stats(), "stats")?;
    fx.nodes0 = stats.live_nodes;
    fx.edges0 = stats.live_edges;
    Ok(fx)
}

impl Fixture {
    fn teardown(mut self) -> Result<(), String> {
        for s in &mut self.sessions {
            api(s.close(), "close session")?;
        }
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
        let dir = self.dir.clone();
        drop(self);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))
    }

    fn delta(&self, op: &Op) -> Delta {
        let mut d = Delta::new();
        match op {
            Op::Insert { key, followee } => {
                let name = Value::str(format!("new{key}"));
                let user = d.add_node("USR", [("UsrId", Value::Int(*key)), ("UsrName", name)]);
                d.add_edge(
                    "FOLLOWS",
                    user,
                    self.users[*followee as usize],
                    [("FId", Value::Int(*key))],
                );
            }
            Op::Update { uid, name } => {
                d.set_node_prop(self.users[*uid as usize], "UsrName", Value::str(name.clone()));
            }
            Op::Delete { pool } => {
                d.remove_edge(self.pool_edges[*pool]);
                d.remove_node(self.pool_nodes[*pool]);
            }
            Op::Read { .. } => unreachable!("reads are not commits"),
        }
        d
    }
}

/// What one session did in one window.
#[derive(Debug, Default)]
struct SessionOut {
    /// Client-observed µs of successful requests, per kind.
    commit_us: Vec<f64>,
    cypher_us: Vec<f64>,
    sql_us: Vec<f64>,
    /// Every successful request as (seconds on the run's timeline at
    /// which it completed, µs).
    done: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    commits_sent: u64,
    queries_sent: u64,
    inserted: Vec<i64>,
    deleted: Vec<usize>,
    /// Acked updates, in order.
    updated: Vec<(i64, String)>,
    /// Reads and commit acks kept for the traced replay.
    reads: Vec<(Shape, i64)>,
    acks: Vec<(CommitAck, u64)>,
    spans: Vec<Span>,
    errors: Vec<String>,
}

impl SessionOut {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// The SQL twin of a Cypher text.
fn twin_sql(ctx: &SdtContext, cypher: &str) -> Result<String, String> {
    let ast = graphiti_cypher::parse_query(cypher).map_err(|e| e.to_string())?;
    graphiti_core::transpile_to_sql_text(ctx, &ast).map_err(|e| e.to_string())
}

/// Def. 4.4 equivalence of a twin's two tables (list semantics when the
/// query orders its rows).
fn twins_agree(cypher: &str, a: &Table, b: &Table) -> bool {
    if cypher.contains("ORDER BY") {
        a.equivalent_ordered(b)
    } else {
        a.equivalent(b)
    }
}

/// One client session through a window: its connection, op stream,
/// results and spans.
struct Lane<'a> {
    index: usize,
    session: &'a mut WireSession,
    stream: &'a mut OpStream,
    out: SessionOut,
    tracer: Tracer,
    /// Requests sent so far; numbers the trace ids.
    seq: u64,
}

impl Lane<'_> {
    /// The session's closed loop until `slice_end` on the run's timeline.
    fn drive(&mut self, fx: &Fixture, reference: &Reference, slice_end: f64, traced: bool) {
        let Lane { index, session, stream, out, tracer, seq } = self;
        while reference.now() < slice_end {
            let op = stream.next().expect("op streams are endless");
            *seq += 1;
            let trace_id = ((*index as u64 + 1) << 48) | *seq;
            if traced {
                session.set_trace_id(trace_id);
            }
            match &op {
                Op::Read { shape, uid } => {
                    let cypher = shape.cypher(*uid);
                    let sql = match twin_sql(&fx.ctx, &cypher) {
                        Ok(sql) => sql,
                        Err(e) => {
                            out.attempted += 1;
                            out.fail(format!("transpile `{cypher}`: {e}"));
                            continue;
                        }
                    };
                    let twin = tracer.begin("op.twin", trace_id, 0);
                    let mut results = Vec::with_capacity(2);
                    for (name, query) in
                        [("cypher", BatchQuery::cypher(&cypher)), ("sql", BatchQuery::sql(&sql))]
                    {
                        let span = tracer.begin(format!("request.{name}"), trace_id, twin);
                        let sent = Instant::now();
                        let reply = session.query(&query);
                        let us = sent.elapsed().as_secs_f64() * 1e6;
                        tracer.end(span);
                        out.attempted += 1;
                        out.queries_sent += 1;
                        match reply {
                            Ok(table) => {
                                let lat = if name == "cypher" {
                                    &mut out.cypher_us
                                } else {
                                    &mut out.sql_us
                                };
                                lat.push(us);
                                out.done.push((reference.now(), us));
                                results.push(table);
                            }
                            Err(e) => out.fail(format!("query `{}`: {e}", query.text())),
                        }
                    }
                    tracer.end(twin);
                    if let [a, b] = &results[..] {
                        if !twins_agree(&cypher, a, b) {
                            out.fail(format!("twin results differ for `{cypher}`"));
                        } else if out.reads.iter().filter(|(s, _)| s == shape).count() < REPLAYS {
                            out.reads.push((*shape, *uid));
                        }
                    }
                }
                _ => {
                    let delta = fx.delta(&op);
                    let span = tracer.begin("request.commit", trace_id, 0);
                    let sent = Instant::now();
                    let reply = session.commit(delta);
                    let us = sent.elapsed().as_secs_f64() * 1e6;
                    tracer.end(span);
                    out.attempted += 1;
                    out.commits_sent += 1;
                    match reply {
                        Ok(ack) => {
                            out.commit_us.push(us);
                            out.done.push((reference.now(), us));
                            if out.acks.len() < REPLAYS {
                                out.acks.push((ack, session.generation()));
                            }
                            match op {
                                Op::Insert { key, .. } => out.inserted.push(key),
                                Op::Delete { pool } => out.deleted.push(pool),
                                Op::Update { uid, name } => out.updated.push((uid, name)),
                                Op::Read { .. } => {}
                            }
                        }
                        Err(e) => out.fail(format!("commit {op:?}: {e}")),
                    }
                }
            }
        }
        session.set_trace_id(0);
    }
}

/// The sessions' results over one window, with the registry deltas.
#[derive(Debug, Default)]
struct WindowOut {
    /// Seconds the sessions ran, and the same at reference speed.
    secs: f64,
    scaled_secs: f64,
    sessions: Vec<SessionOut>,
    registry: Window,
}

impl WindowOut {
    fn all(&self, f: impl Fn(&SessionOut) -> &Vec<f64>) -> Vec<f64> {
        self.sessions.iter().flat_map(|s| f(s).iter().copied()).collect()
    }

    fn total(&self, f: impl Fn(&SessionOut) -> u64) -> u64 {
        self.sessions.iter().map(f).sum()
    }

    fn latencies(&self) -> Vec<f64> {
        self.sessions.iter().flat_map(|s| s.done.iter().map(|&(_, us)| us)).collect()
    }

    /// Requests per second, and request latency p50 and p90 in µs, as
    /// the clocks read them.
    fn wall(&self) -> (f64, f64, f64) {
        let lat = self.latencies();
        (ratio(lat.len() as f64, self.secs), quantile(&lat, 0.5), quantile(&lat, 0.9))
    }

    /// The same at reference speed: each request's latency scaled by the
    /// host speed sampled around it, and the window slice by slice.
    fn scaled(&self, reference: &Reference) -> (f64, f64, f64) {
        let lat: Vec<f64> = self
            .sessions
            .iter()
            .flat_map(|s| s.done.iter().map(|&(at, us)| us * reference.scale(at)))
            .collect();
        (ratio(lat.len() as f64, self.scaled_secs), quantile(&lat, 0.5), quantile(&lat, 0.9))
    }
}

/// Runs the sessions for `secs`, in slices of `SLICE_SECS` with a
/// reference sample after each.
fn window(
    fx: &mut Fixture,
    streams: &mut [OpStream],
    reference: &mut Reference,
    secs: f64,
    traced: bool,
) -> Result<WindowOut, String> {
    let registry = fx.service.obs().registry().clone();
    let before = RegistrySnapshot::take(&registry);
    let mut sessions = std::mem::take(&mut fx.sessions);
    let mut lanes: Vec<Lane> = sessions
        .iter_mut()
        .zip(streams.iter_mut())
        .enumerate()
        .map(|(index, (session, stream))| Lane {
            index,
            session,
            stream,
            out: SessionOut::default(),
            tracer: Tracer::new(reference.origin(), (index as u64 + 1) << 40, traced),
            seq: 0,
        })
        .collect();
    let end = reference.now() + secs;
    let mut slices = Vec::new();
    let mut wall = 0.0;
    loop {
        let start = reference.now();
        if start >= end && wall > 0.0 {
            break;
        }
        let slice_end = (start + SLICE_SECS).min(end);
        let (fx_ref, clock): (&Fixture, &Reference) = (fx, reference);
        std::thread::scope(|scope| {
            for lane in lanes.iter_mut() {
                scope.spawn(move || lane.drive(fx_ref, clock, slice_end, traced));
            }
        });
        let slice = reference.now() - start;
        slices.push((start + slice / 2.0, slice));
        wall += slice;
        reference.sample();
    }
    let scaled = slices.iter().map(|&(mid, slice)| slice * reference.scale(mid)).sum();
    let outs: Vec<SessionOut> = lanes
        .into_iter()
        .map(|lane| SessionOut { spans: lane.tracer.into_spans(), ..lane.out })
        .collect();
    // One more round trip per session: the server has finished
    // recording every window request once this reply arrives.
    for s in &mut sessions {
        api(s.stats(), "stats")?;
    }
    fx.sessions = sessions;
    let after = RegistrySnapshot::take(&registry);
    Ok(WindowOut {
        secs: wall,
        scaled_secs: scaled,
        sessions: outs,
        registry: before.window(&after),
    })
}

/// Runs one serving workload: `cfg.setup_reps` timed setups (the last one is
/// kept), then the measured window — or, traced, an untraced half
/// window and a traced half window — then the correctness checks.
pub fn run(cfg: &Config, args: &Args, root: &Path) -> Result<Report, String> {
    let mut reference = Reference::start(cfg.sessions);
    let mut setups = Vec::with_capacity(cfg.setup_reps);
    let mut fixture: Option<Fixture> = None;
    for rep in 0..cfg.setup_reps {
        if let Some(old) = fixture.take() {
            old.teardown()?;
        }
        reference.sample();
        let start = reference.now();
        fixture = Some(setup(cfg, args.seed, root, rep)?);
        setups.push((start, reference.now() - start));
    }
    reference.sample();
    let mut fx = fixture.expect("at least one setup");
    let mix = Mix {
        reads_per_10: cfg.reads_per_10,
        users: cfg.users as i64,
        pool: POOL,
        sessions: cfg.sessions,
    };
    let mut streams: Vec<OpStream> =
        (0..cfg.sessions).map(|i| OpStream::new(args.seed, i, mix)).collect();

    let mut report = Report::default();
    let half = args.seconds / 2.0;
    let windows = if args.trace {
        let plain = window(&mut fx, &mut streams, &mut reference, half, false)?;
        let traced = window(&mut fx, &mut streams, &mut reference, half, true)?;
        vec![plain, traced]
    } else {
        vec![window(&mut fx, &mut streams, &mut reference, args.seconds, false)?]
    };
    for w in &windows {
        cross_check(w, &mut report);
    }
    final_check(&mut fx, &windows, &mut report)?;

    let last = windows.last().expect("one window at least");
    if args.trace {
        layer_metrics(&mut fx, &windows[0], last, &reference, args, root, &mut report)?;
    } else {
        let (ops_per_s, p50, p90) = last.scaled(&reference);
        let scaled: Vec<f64> = setups
            .iter()
            .map(|&(start, secs)| secs * reference.scale(start + secs / 2.0))
            .collect();
        report.set("setup_s", median(&scaled));
        report.set("ops_per_s", ops_per_s);
        report.set("latency_p50_us", p50);
        report.set("latency_p90_us", p90);
        report.set("rss_peak_mb", rss_peak_mb());
        let (ops_per_s, p50, p90) = last.wall();
        let wall: Vec<f64> = setups.iter().map(|&(_, secs)| secs).collect();
        report.env.extend([
            ("wall_setup_s", format!("{:.4}", median(&wall))),
            ("wall_ops_per_s", format!("{ops_per_s:.2}")),
            ("wall_latency_p50_us", format!("{p50:.1}")),
            ("wall_latency_p90_us", format!("{p90:.1}")),
        ]);
    }
    for (kind, lat) in [
        ("commit", last.all(|s| &s.commit_us)),
        ("cypher", last.all(|s| &s.cypher_us)),
        ("sql", last.all(|s| &s.sql_us)),
    ] {
        let q = |p| quantile(&lat, p) / 1000.0;
        eprintln!(
            "graphbench: {kind}: {} requests, p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms (wall clock)",
            lat.len(),
            q(0.5),
            q(0.9),
            q(0.99)
        );
    }
    for w in &windows {
        report.attempted += w.total(|s| s.attempted);
        report.failed += w.total(|s| s.failed);
        for e in w.sessions.iter().flat_map(|s| &s.errors) {
            eprintln!("graphbench: {e}");
        }
    }
    report.env.extend([
        ("rows_per_table", cfg.users.to_string()),
        ("tables", "4 (USR, PIC, POSTED, FOLLOWS)".into()),
        ("flush_policy", format!("{:?}", DurabilityOptions::default())),
        ("group_options", format!("{:?}", GroupOptions::default())),
        ("plan_cache_capacity", DEFAULT_PLAN_CACHE_CAPACITY.to_string()),
        ("sessions", format!("{} (closed loop, unix socket, tokens on, no retries)", cfg.sessions)),
        ("reads_per_10_ops", cfg.reads_per_10.to_string()),
        ("setup_reps", cfg.setup_reps.to_string()),
        ("requests", last.latencies().len().to_string()),
        ("reference_us_median", format!("{:.1}", reference.median_us())),
    ]);
    fx.teardown()?;
    Ok(report)
}

/// The registry's commit and query deltas must equal what the clients
/// sent and had acked, so the benchmark and the dashboard cannot drift.
fn cross_check(w: &WindowOut, report: &mut Report) {
    let acked = w.all(|s| &s.commit_us).len() as u64;
    let checks = [
        (
            "graphiti_store_commits_total",
            w.registry.counter("graphiti_store_commits_total") as u64,
            acked,
        ),
        (
            "graphiti_request_micros_commit",
            w.registry.count("graphiti_request_micros_commit"),
            w.total(|s| s.commits_sent),
        ),
        (
            "graphiti_request_micros_query",
            w.registry.count("graphiti_request_micros_query"),
            w.total(|s| s.queries_sent),
        ),
        (
            "graphiti_query_micros",
            w.registry.count("graphiti_query_micros"),
            w.total(|s| s.queries_sent),
        ),
    ];
    for (name, registry, client) in checks {
        if registry != client {
            eprintln!("graphbench: registry `{name}` moved {registry} in the window, clients counted {client}");
            report.failed += 1;
        }
    }
}

/// Every acked commit is visible, and nothing else changed: live counts
/// match pool + inserts − deletes, the inserted and pool users present
/// are exactly the expected set, and every updated user carries its
/// last acked name.
fn final_check(fx: &mut Fixture, windows: &[WindowOut], report: &mut Report) -> Result<(), String> {
    let sessions = || windows.iter().flat_map(|w| w.sessions.iter());
    let inserted: BTreeSet<i64> = sessions().flat_map(|s| s.inserted.iter().copied()).collect();
    let deleted: BTreeSet<usize> = sessions().flat_map(|s| s.deleted.iter().copied()).collect();
    let mut names: BTreeMap<i64, &str> = BTreeMap::new();
    for (uid, name) in sessions().flat_map(|s| s.updated.iter()) {
        names.insert(*uid, name);
    }
    let session = &mut fx.sessions[0];
    api(session.refresh(), "refresh")?;
    let stats = api(session.stats(), "stats")?;
    let (ins, del) = (inserted.len() as u64, deleted.len() as u64);
    if stats.live_nodes != fx.nodes0 + ins - del || stats.live_edges != fx.edges0 + ins - del {
        eprintln!(
            "graphbench: live nodes/edges {}/{} after {ins} inserts and {del} deletes from {}/{}",
            stats.live_nodes, stats.live_edges, fx.nodes0, fx.edges0
        );
        report.failed += 1;
    }
    let table = api(
        session.query(&BatchQuery::sql("SELECT n.UsrId AS id, n.UsrName AS name FROM USR AS n")),
        "final scan",
    )?;
    let mut extra = BTreeSet::new();
    let mut wrong_names = 0;
    for row in &table.rows {
        let (Value::Int(id), name) = (&row[0], &row[1]) else { continue };
        if *id >= ops::POOL_BASE {
            extra.insert(*id);
        } else if let Some(want) = names.get(id) {
            if *name != Value::str(*want) {
                wrong_names += 1;
            }
        }
    }
    let want: BTreeSet<i64> = (0..POOL)
        .filter(|p| !deleted.contains(p))
        .map(ops::pool_key)
        .chain(inserted.iter().copied())
        .collect();
    if extra != want || wrong_names > 0 {
        eprintln!(
            "graphbench: final users differ: {} present, {} expected, {wrong_names} stale names",
            extra.len(),
            want.len()
        );
        report.failed += 1;
    }
    Ok(())
}

/// Replays the traced window's reads and commit replies layer by layer
/// on the final published snapshot, times one checkpoint, and turns
/// spans and registry deltas into the per-layer metrics.
fn layer_metrics(
    fx: &mut Fixture,
    plain: &WindowOut,
    traced: &WindowOut,
    reference: &Reference,
    args: &Args,
    root: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let mut tracer = Tracer::new(reference.origin(), 1 << 56, true);
    let store = fx.service.store().clone();
    let snapshot = store.snapshot();
    let mut reply_bytes = Vec::new();
    let mut request_id = 0u64;
    let mut encode_decode =
        |tracer: &mut Tracer, parent: u64, resp: &Response| -> Result<(), String> {
            request_id += 1;
            let bytes = tracer.time("protocol.encode", 0, parent, || {
                encode_response_versioned(WIRE_VERSION, request_id, resp)
            });
            reply_bytes.push(bytes.len() as f64);
            let (_, decoded) = tracer.time("protocol.decode", 0, parent, || {
                decode_response_versioned(&bytes, WIRE_VERSION)
            });
            decoded.map(drop).map_err(|e| format!("decode replayed reply: {e}"))
        };
    for (shape, uid) in traced.sessions.iter().flat_map(|s| s.reads.iter()) {
        let name = shape.name();
        let cypher = shape.cypher(*uid);
        let parent = tracer.begin(format!("replay.{name}"), 0, 0);
        let err = |e: graphiti_common::Error| e.to_string();
        let ast = tracer
            .time(format!("cypher.parse.{name}"), 0, parent, || {
                graphiti_cypher::parse_query(&cypher)
            })
            .map_err(err)?;
        let graph_side = tracer
            .time(format!("cypher.match.{name}"), 0, parent, || {
                graphiti_cypher::eval_query(snapshot.schema(), snapshot.graph(), &ast)
            })
            .map_err(err)?;
        let sql = tracer
            .time(format!("transpile.{name}"), 0, parent, || {
                graphiti_core::transpile_to_sql_text(snapshot.ctx(), &ast)
            })
            .map_err(err)?;
        let sql_ast = tracer
            .time(format!("sql.parse.{name}"), 0, parent, || graphiti_sql::parse_query(&sql))
            .map_err(err)?;
        let plan = tracer
            .time(format!("sql.compile.{name}"), 0, parent, || {
                graphiti_sql::compile_query(snapshot.induced(), &sql_ast)
            })
            .map_err(err)?;
        let rel_side = tracer
            .time(format!("sql.vectorized.{name}"), 0, parent, || {
                graphiti_sql::eval_vectorized(
                    snapshot.induced(),
                    snapshot.induced_columnar(),
                    &plan,
                )
            })
            .map_err(err)?;
        if !twins_agree(&cypher, &graph_side, &rel_side) {
            eprintln!("graphbench: replayed twin results differ for `{cypher}`");
            report.failed += 1;
        }
        encode_decode(&mut tracer, parent, &Response::Rows(graph_side))?;
        encode_decode(&mut tracer, parent, &Response::Rows(rel_side))?;
        tracer.end(parent);
    }
    for (ack, session_generation) in traced.sessions.iter().flat_map(|s| s.acks.iter()) {
        let parent = tracer.begin("replay.commit_reply", 0, 0);
        encode_decode(
            &mut tracer,
            parent,
            &Response::CommitOk { ack: *ack, session_generation: *session_generation },
        )?;
        tracer.end(parent);
    }
    tracer
        .time("checkpoint.write", 0, 0, || store.checkpoint_now())
        .map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_bytes = graphiti_store::checkpoint_files(&fx.dir)
        .map_err(|e| format!("list checkpoints: {e}"))?
        .last()
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0.0, |m| m.len() as f64);

    let mut spans: Vec<Span> =
        traced.sessions.iter().flat_map(|s| s.spans.iter().cloned()).collect();
    spans.extend(tracer.into_spans());
    let times = trace::self_times(&spans);
    let t = |name: &str| trace::self_us(&times, name);
    let w = &traced.registry;
    let commit_lat = traced.all(|s| &s.commit_us);
    let query_lat: Vec<f64> =
        traced.all(|s| &s.cypher_us).into_iter().chain(traced.all(|s| &s.sql_us)).collect();
    let commits = w.counter("graphiti_store_commits_total");
    let groups = w.counter("graphiti_groups_formed_total");
    // A workload without commits (or queries) leaves every figure below
    // that derives from them at 0: means and ratios of nothing are 0.

    report.set("server.query_us", w.mean("graphiti_request_micros_query"));
    report.set("server.commit_us", w.mean("graphiti_request_micros_commit"));
    let wire_query = mean(&query_lat) - w.mean("graphiti_request_micros_query");
    let wire_commit = mean(&commit_lat) - w.mean("graphiti_request_micros_commit");
    report.set("server.wire_us.query", wire_query);
    report.set("server.wire_us.commit", wire_commit);
    report.set("protocol.encode_us", t("protocol.encode"));
    report.set("protocol.decode_us", t("protocol.decode"));
    report.set("protocol.reply_bytes", mean(&reply_bytes));
    report.set("group.queue_wait_us", w.mean("graphiti_group_queue_wait_micros"));
    report.set("group.size_mean", ratio(w.counter("graphiti_group_members_total"), groups));
    report.set("group.backpressured", w.counter("graphiti_backpressured_total"));
    report.set("wal.append_us", w.mean("graphiti_wal_append_micros"));
    report.set("wal.fsync_us", w.mean("graphiti_wal_fsync_micros"));
    report.set("wal.bytes_per_commit", ratio(w.counter("graphiti_wal_bytes_total"), commits));
    report
        .set("wal.fsyncs_per_commit", ratio(w.count("graphiti_wal_fsync_micros") as f64, commits));
    let e2e = w.mean("graphiti_commit_e2e_micros");
    report.set("store.commit_e2e_us", e2e);
    let wal_per_group =
        ratio(w.sum("graphiti_wal_append_micros") + w.sum("graphiti_wal_fsync_micros"), groups);
    report.set("store.commit_other_us", e2e - wal_per_group);
    report.set(
        "store.graph_clones_per_commit",
        ratio(w.counter("graphiti_store_graph_clones_total"), commits),
    );
    report.set(
        "store.graph_reclaims_per_commit",
        ratio(w.counter("graphiti_store_graph_reclaims_total"), commits),
    );
    report.set(
        "checkpoint.per_1k_commits",
        1000.0 * ratio(w.counter("graphiti_checkpoints_written_total"), commits),
    );
    report.set("checkpoint.write_us", t("checkpoint.write"));
    report.set("checkpoint.bytes", checkpoint_bytes);
    let (hits, misses) = (
        w.counter("graphiti_plan_cache_hits_total"),
        w.counter("graphiti_plan_cache_misses_total"),
    );
    report.set("plan_cache.hit_rate", ratio(hits, hits + misses));
    report.set("plan_cache.evictions", w.counter("graphiti_plan_cache_evictions_total"));
    report.set("engine.query_us", w.mean("graphiti_query_micros"));
    for shape in Shape::ALL {
        let n = shape.name();
        for layer in [
            "cypher.parse",
            "cypher.match",
            "transpile",
            "sql.parse",
            "sql.compile",
            "sql.vectorized",
        ] {
            report.set(format!("{layer}_us.{n}"), t(&format!("{layer}.{n}")));
        }
    }
    let queue = w.mean("graphiti_group_queue_wait_micros");
    // Server time outside the store commit (and its queue) or outside
    // the engine.
    report.set("other_us.commit", mean(&commit_lat) - wire_commit - e2e - queue);
    report.set("other_us.query", mean(&query_lat) - wire_query - w.mean("graphiti_query_micros"));
    op_splits(traced, report);
    let (p, q) = (plain.scaled(reference), traced.scaled(reference));
    report.set("trace.overhead_ops_pct", 100.0 * ratio(p.0 - q.0, p.0));
    report.set("trace.overhead_p50_us", q.1 - p.1);
    report.set("trace.spans", spans.len() as f64);
    let (ops, p50, p90) = traced.wall();
    report.set("wall.ops_per_s", ops);
    report.set("wall.latency_p50_us", p50);
    report.set("wall.latency_p90_us", p90);
    report.set("reference_us", reference.median_us());

    crate::write_spans(root, args, &spans)
}

/// The client-observed latency of each request kind, and the failure
/// ratio, over the traced window.
fn op_splits(w: &WindowOut, report: &mut Report) {
    for (name, lat) in [
        ("commit", w.all(|s| &s.commit_us)),
        ("cypher_read", w.all(|s| &s.cypher_us)),
        ("sql_read", w.all(|s| &s.sql_us)),
    ] {
        report.set(format!("{name}_p50_us"), quantile(&lat, 0.5));
        report.set(format!("{name}_p99_us"), quantile(&lat, 0.99));
    }
    let attempted = w.total(|s| s.attempted) as f64;
    report.set("failed_ratio", ratio(w.total(|s| s.failed) as f64, attempted));
}
