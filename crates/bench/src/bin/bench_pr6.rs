//! PR 6 durability harness: WAL commit overhead, recovery time vs WAL
//! length, and crash-recovery correctness under `check_bench`'s gate.
//!
//! Measurements:
//!
//! * **commit latency by durability mode** — the same single-node-plus-
//!   edge deltas committed to an in-memory store, a durable store
//!   fsyncing every commit (the strict redo rule), and a durable store
//!   with checkpoint-amortized fsyncs.  Absolute timings are reported,
//!   never gated (fsync cost is hardware-dependent by definition);
//! * **recovery time vs WAL length** — directories prepared with
//!   checkpointing disabled (the whole history replays) and with a
//!   checkpoint cadence (replay is bounded by the newest checkpoint),
//!   then timed through `open_durable`.  The gate asserts
//!   `checkpoint_bounds_replay`: the checkpointed directory replays at
//!   most one cadence interval while the unbounded one replays its whole
//!   WAL;
//! * **recovery ≡ memory differential** — every recovered store's induced
//!   tables must equal (row-for-row, and each store's own table logs) an
//!   in-memory store that committed the same deltas, and the recovered
//!   generation must match (`recovery_matches_memory`, gated);
//! * **torn-tail recovery** — the newest WAL record is cut mid-frame;
//!   recovery must land exactly one generation back and keep accepting
//!   commits (`torn_tail_recovered`, gated).
//!
//! Emits `BENCH_PR6.json` with a `"gate"` object (regression-checked by
//! `check_bench`; all tracked metrics are booleans, so the gate is
//! hardware-portable).
//!
//! Usage: `cargo run --release -p graphiti-bench --bin bench_pr6 --
//! [--quick] [--out PATH]`.

use graphiti_common::Value;
use graphiti_graph::{EdgeType, GraphInstance, GraphSchema, NodeType};
use graphiti_store::{wal_segment_files, Delta, DurabilityOptions, GraphStore, NodeKey};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Options {
    quick: bool,
    out: String,
}

impl Options {
    fn from_args() -> Options {
        let mut opts = Options { quick: false, out: "BENCH_PR6.json".to_string() };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => opts.quick = true,
                "--out" if i + 1 < args.len() => {
                    opts.out = args[i + 1].clone();
                    i += 1;
                }
                _ => {}
            }
            i += 1;
        }
        opts
    }
}

fn schema() -> GraphSchema {
    GraphSchema::new()
        .with_node(NodeType::new("DEPT", ["dnum", "dname"]))
        .with_node(NodeType::new("EMP", ["id", "name"]))
        .with_edge(EdgeType::new("WORK_AT", "EMP", "DEPT", ["wid"]))
}

/// Seed graph: 4 departments (stable keys 0..=3) plus `emps` employees
/// wired round-robin, so checkpoints carry a real image.
fn seed_graph(emps: i64) -> GraphInstance {
    let mut g = GraphInstance::new();
    let depts: Vec<_> = (0..4)
        .map(|i| {
            g.add_node("DEPT", [("dnum", Value::Int(i)), ("dname", Value::str(format!("D{i}")))])
        })
        .collect();
    for i in 0..emps {
        let e = g.add_node("EMP", [("id", Value::Int(i)), ("name", Value::str("seed"))]);
        g.add_edge("WORK_AT", e, depts[(i % 4) as usize], [("wid", Value::Int(i))]);
    }
    g
}

/// Commit `i` of the shared script: one new employee plus their edge.
fn delta_for(i: i64) -> Delta {
    let mut d = Delta::new();
    let n = d.add_node("EMP", [("id", Value::Int(1_000_000 + i)), ("name", Value::str("w"))]);
    d.add_edge("WORK_AT", n, NodeKey((i % 4) as u64), [("wid", Value::Int(2_000_000 + i))]);
    d
}

/// Builder-based stand-ins for the retired `open_durable*` ladder,
/// keeping the argument shape this harness has always used.
fn open_durable(
    dir: &std::path::Path,
    schema: GraphSchema,
) -> Result<GraphStore, graphiti_store::StoreError> {
    GraphStore::builder(schema).durable(dir).open()
}

fn open_durable_with(
    dir: &std::path::Path,
    schema: GraphSchema,
    bootstrap: GraphInstance,
    opts: DurabilityOptions,
) -> Result<GraphStore, graphiti_store::StoreError> {
    GraphStore::builder(schema).durable(dir).bootstrap(bootstrap).durability(opts).open()
}

/// A unique scratch directory under `target/` (the harness must not touch
/// paths outside the repository).
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from("target/bench-pr6").join(format!("{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Times `commits` scripted commits against a store, returning µs/commit.
fn time_commits(store: &GraphStore, commits: i64) -> f64 {
    let start = Instant::now();
    for i in 0..commits {
        store.commit(delta_for(i)).expect("scripted commits are valid");
    }
    start.elapsed().as_micros() as f64 / commits as f64
}

/// Row-for-row equality of two stores' published images, each also equal
/// to its own table logs.
fn stores_equal(a: &GraphStore, b: &GraphStore) -> bool {
    if a.generation() != b.generation() {
        return false;
    }
    let (sa, sb) = (a.snapshot(), b.snapshot());
    let (col_a, col_b) = (sa.induced_columnar(), sb.induced_columnar());
    let (logs_a, logs_b) = (a.table_logs(), b.table_logs());
    for (name, ta) in col_a.tables() {
        let Some(tb) = col_b.table(name) else { return false };
        let (ta, tb) = (ta.to_table(), tb.to_table());
        if ta != tb || logs_a.table(name) != Some(&ta) || logs_b.table(name) != Some(&tb) {
            return false;
        }
    }
    col_a.tables().count() == col_b.tables().count()
}

/// Prepares a durable directory with `commits` scripted commits, then
/// drops the store without a parting checkpoint (the "kill").
fn prepare_dir(tag: &str, seed_emps: i64, commits: i64, opts: DurabilityOptions) -> PathBuf {
    let dir = scratch(tag);
    let store = open_durable_with(&dir, schema(), seed_graph(seed_emps), opts).unwrap();
    for i in 0..commits {
        store.commit(delta_for(i)).expect("scripted commits are valid");
    }
    dir
}

struct RecoveryPoint {
    wal_commits: i64,
    checkpoint_interval: u64,
    replayed: u64,
    recovery_micros: f64,
    matches_memory: bool,
}

fn measure_recovery(seed_emps: i64, commits: i64, interval: u64) -> RecoveryPoint {
    let opts = DurabilityOptions {
        fsync_each_commit: false,
        checkpoint_interval: interval,
        keep_checkpoints: 2,
        ..DurabilityOptions::default()
    };
    let dir = prepare_dir("recovery", seed_emps, commits, opts);
    let start = Instant::now();
    let recovered = open_durable(&dir, schema()).expect("recovery");
    let recovery_micros = start.elapsed().as_micros() as f64;
    let oracle = GraphStore::open(schema(), seed_graph(seed_emps)).unwrap();
    for i in 0..commits {
        oracle.commit(delta_for(i)).unwrap();
    }
    let point = RecoveryPoint {
        wal_commits: commits,
        checkpoint_interval: interval,
        replayed: recovered.stats().replayed_commits,
        recovery_micros,
        matches_memory: stores_equal(&recovered, &oracle),
    };
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
    point
}

/// Cuts the newest WAL record mid-frame and recovers: must land exactly
/// one generation back and keep accepting commits.
fn torn_tail_case(seed_emps: i64) -> (bool, u64, u64) {
    let opts = DurabilityOptions {
        fsync_each_commit: false,
        checkpoint_interval: 0,
        keep_checkpoints: 2,
        ..DurabilityOptions::default()
    };
    let commits = 3i64;
    let dir = prepare_dir("torn", seed_emps, commits, opts);
    let seg = wal_segment_files(&dir).unwrap().pop().expect("a WAL segment");
    let bytes = std::fs::read(&seg).unwrap();
    // Walk the frames to find where the final record starts.
    let (mut off, mut last) = (0usize, 0usize);
    while off + 8 <= bytes.len() {
        let frame = 8 + u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        if off + frame > bytes.len() {
            break;
        }
        last = off;
        off += frame;
    }
    let cut = last + (off - last) / 2;
    let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(cut as u64).unwrap();
    drop(f);
    let Ok(recovered) = open_durable(&dir, schema()) else {
        return (false, 0, commits as u64 - 1);
    };
    let landed = recovered.generation();
    let resumed = recovered.commit(delta_for(commits - 1)).is_ok();
    let ok = landed == commits as u64 - 1 && resumed;
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
    (ok, landed, commits as u64 - 1)
}

fn main() {
    let opts = Options::from_args();
    let (seed_emps, commits) = if opts.quick { (200, 64) } else { (1000, 256) };
    let interval: u64 = 16;

    // --- commit latency by durability mode -----------------------------
    println!("== commit latency ({commits} commits, seed graph {seed_emps} EMPs) ==");
    let mem_store = GraphStore::open(schema(), seed_graph(seed_emps)).unwrap();
    let in_memory_micros = time_commits(&mem_store, commits);
    println!("  in-memory:            {in_memory_micros:9.1} us/commit");

    let dir = scratch("latency-fsync");
    let fsync_store = open_durable_with(
        &dir,
        schema(),
        seed_graph(seed_emps),
        DurabilityOptions {
            fsync_each_commit: true,
            checkpoint_interval: 0,
            keep_checkpoints: 2,
            ..DurabilityOptions::default()
        },
    )
    .unwrap();
    let fsync_micros = time_commits(&fsync_store, commits);
    let wal_bytes_per_commit =
        fsync_store.stats().wal_bytes as f64 / fsync_store.stats().wal_records as f64;
    println!("  fsync-per-commit:     {fsync_micros:9.1} us/commit");
    drop(fsync_store);
    std::fs::remove_dir_all(&dir).ok();

    let dir = scratch("latency-amortized");
    let amortized_store = open_durable_with(
        &dir,
        schema(),
        seed_graph(seed_emps),
        DurabilityOptions {
            fsync_each_commit: false,
            checkpoint_interval: interval,
            keep_checkpoints: 2,
            ..DurabilityOptions::default()
        },
    )
    .unwrap();
    let amortized_micros = time_commits(&amortized_store, commits);
    println!("  checkpoint-amortized: {amortized_micros:9.1} us/commit");
    drop(amortized_store);
    std::fs::remove_dir_all(&dir).ok();

    // --- recovery time vs WAL length -----------------------------------
    println!("== recovery ==");
    let mut recovery = Vec::new();
    for &n in &[commits / 4, commits] {
        recovery.push(measure_recovery(seed_emps, n, 0));
    }
    recovery.push(measure_recovery(seed_emps, commits, interval));
    for p in &recovery {
        println!(
            "  wal={:4} ckpt-interval={:2}: replayed {:3} commits in {:9.1} us (matches memory: {})",
            p.wal_commits, p.checkpoint_interval, p.replayed, p.recovery_micros, p.matches_memory
        );
    }
    let recovery_matches_memory = recovery.iter().all(|p| p.matches_memory);
    let unbounded = &recovery[1];
    let bounded = recovery.last().unwrap();
    let checkpoint_bounds_replay =
        unbounded.replayed == commits as u64 && bounded.replayed <= interval;
    let checkpoint_recovery_speedup = unbounded.recovery_micros / bounded.recovery_micros.max(1.0);
    println!(
        "  checkpoint recovery speedup: {checkpoint_recovery_speedup:.2}x (reported, not gated)"
    );

    // --- torn tail ------------------------------------------------------
    let (torn_tail_recovered, landed, expected) = torn_tail_case(seed_emps);
    println!("== torn tail: landed generation {landed} (expected {expected}) -> {torn_tail_recovered} ==");

    // --- JSON -----------------------------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"harness\": \"bench_pr6\",");
    let _ = writeln!(json, "  \"mode\": \"{}\",", if opts.quick { "quick" } else { "full" });
    let _ = writeln!(
        json,
        "  \"workload\": {{\"seed_emps\": {seed_emps}, \"commits\": {commits}, \"checkpoint_interval\": {interval}}},"
    );
    let _ = writeln!(
        json,
        "  \"commit_latency\": {{\"in_memory_micros\": {in_memory_micros:.1}, \"fsync_each_commit_micros\": {fsync_micros:.1}, \"checkpoint_amortized_micros\": {amortized_micros:.1}, \"wal_bytes_per_commit\": {wal_bytes_per_commit:.1}}},"
    );
    let _ = writeln!(json, "  \"recovery\": [");
    for (i, p) in recovery.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"wal_commits\": {}, \"checkpoint_interval\": {}, \"replayed\": {}, \"recovery_micros\": {:.1}, \"matches_memory\": {}}}{}",
            p.wal_commits,
            p.checkpoint_interval,
            p.replayed,
            p.recovery_micros,
            p.matches_memory,
            if i + 1 < recovery.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"checkpoint_recovery_speedup\": {checkpoint_recovery_speedup:.2},");
    let _ = writeln!(
        json,
        "  \"torn_tail\": {{\"landed_generation\": {landed}, \"expected_generation\": {expected}}},"
    );
    // All tracked metrics are booleans: correctness must hold on any
    // hardware, while the timing curve above stays informational.
    let _ = writeln!(json, "  \"gate\": {{");
    let _ = writeln!(json, "    \"recovery_matches_memory\": {recovery_matches_memory},");
    let _ = writeln!(json, "    \"torn_tail_recovered\": {torn_tail_recovered},");
    let _ = writeln!(json, "    \"checkpoint_bounds_replay\": {checkpoint_bounds_replay}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write(&opts.out, json).expect("write bench json");
    println!("wrote {}", opts.out);
    assert!(
        recovery_matches_memory && torn_tail_recovered && checkpoint_bounds_replay,
        "durability gate failed"
    );
}
