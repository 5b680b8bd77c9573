//! The repository's benchmark: one command runs a named workload, checks
//! its outputs, and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path graphbench/Cargo.toml -- \
//!     --workload <ingest_100k|serve_mix_10k|verify_corpus> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the environment.  `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer metrics.  The benchmark measures from the
//! outside: it calls the crates' public functions and reads before/after
//! deltas of the `graphiti-obs` registry, and changes no crate code.
//!
//! # Workloads
//!
//! The serving workloads use `schemas::social()` data, and the seed fixes
//! it (`generate_graph(.., seed)`) together with every op, key and
//! written value.  In `verify_corpus` the seed orders the pairs; the BMC
//! keeps its own fixed instance seed, so every run checks the same
//! instances.  Load comes from this one process: one or two client
//! sessions, each in a closed loop (it waits for its reply), since a
//! `WireSession` is a blocking caller.
//!
//! * `ingest_100k` — 100k nodes per label (four tables of 100k rows).
//!   One session sends only commits: inserts (a user plus a FOLLOWS
//!   edge), name updates of bootstrap users, and deletes of users a
//!   commit inserted before the window.  Commit cost grows with table
//!   size, so per-commit image derivation, graph publication, the WAL
//!   and checkpoints do most of the work and query execution none.  It
//!   is where ROADMAP items 2 (columnar-only generations) and 4 (one
//!   commit path) show.  One session, not two: with two, whether a
//!   commit clones the 200k-node master graph or replays onto a
//!   reclaimed buffer depends on how the sessions' re-pins interleave,
//!   so commit p50 jumped between 190 and 310 ms from seed to seed (one
//!   session: ~35 ms, ~22 commits/s, every buffer reclaimed).  The clone
//!   fallback stays measured on `serve_mix_10k`, which has two sessions
//!   (`store.graph_clones_per_commit`).
//! * `serve_mix_10k` — 10k nodes per label.  Two sessions send 9 reads
//!   per commit.  Each read is a twin: a Cypher query and its
//!   `transpile_to_sql_text` SQL on the same pinned generation, in three
//!   shapes — a point lookup on a uniform user key (10k distinct texts,
//!   more than the 4096-entry plan cache), a one-hop neighbourhood
//!   (distinct texts), and one fixed 2-hop grouped aggregate (always
//!   cached, ~1.8k-row reply).  Here the Cypher matcher, plan cache,
//!   vectorized SQL and wire encoding do the work and commits are cheap,
//!   so a change that moves cost from commits onto reads (lazy graph
//!   publication) shows here and not on `ingest_100k`.  It is where
//!   ROADMAP item 3 (Cypher served via the transpiler) shows.
//! * `verify_corpus` — Algorithm 1 over the 410-pair `full_corpus()`
//!   with no store or server: `reduce`, the BMC at a fixed 5 ms budget
//!   per equivalent pair, then the deductive checker on its fragment,
//!   and repeated refutation passes.  It is the paper's own use, the only
//!   workload for the checker, transformer, naive-SQL and relational
//!   layers, and the control that no store or server change may move.
//!
//! A 1k-row size is left out: every layer it would exercise runs at 10k,
//! and the BMC's tables hold at most 6 rows.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Every workload reports each of these, so each is defined on the
//! workload's own unit of work; the split by request kind is in the
//! traced run, since not every workload has every kind:
//!
//! | metric | `ingest_100k` | `serve_mix_10k` | `verify_corpus` |
//! |---|---|---|---|
//! | `setup_s` | data + durable open + server + pool commit | same | corpus load + parse, per round |
//! | `ops_per_s` | acked commits/s | completed requests/s | BMC instances/s on bounded-equivalent pairs |
//! | `latency_p50_us`, `latency_p90_us` | client-observed commit | client-observed request (Cypher, SQL or commit) | `reduce` → counterexample, per refutation |
//! | `rss_peak_mb` | VmHWM of the run's process | same | same |
//!
//! Every timed figure here is at reference speed (see `reference`): the
//! run samples the host's speed twice a second with a fixed piece
//! of work that uses no code of the program, and scales each wall-clock
//! time by the reference time sampled around it, so a shared host that
//! runs 1.5x slower for a few minutes moves neither the figures nor
//! their spread.  The environment line records the wall-clock figures
//! (`wall_*`) and the median reference time beside them.
//!
//! The tail is p90 so that one run holds ten samples or more beyond it
//! on every workload and the figure stays inside one request kind's
//! cluster: the serving mix (13 point : 6 one-hop : 1 grouped twins)
//! puts p50 among Cypher point lookups and SQL one-hop reads and p90
//! among Cypher one-hop reads and commits.  The traced run reports the
//! p99 of each request kind.
//!
//! `setup_s` is the median of several setups in the run: 3 at 100k
//! rows and 7 at 10k before the window, and one corpus load per
//! `verify_corpus` round.  Failures are
//! the result's `failed` out of `attempted`: an error reply, refusal,
//! backpressure, twin mismatch, wrong final state, registry/client
//! count mismatch, or a verdict against the corpus ground truth.
//!
//! # Per-layer metrics (`--trace 1`) and what they should move
//!
//! A traced run measures half its window untraced and half traced;
//! registry numbers are window means over the traced half, replayed
//! calls run on the run's own final snapshot and inputs, and span
//! figures are median self times.  A layer a workload does not cross
//! reports 0.
//!
//! | layer (module) | metrics | should move |
//! |---|---|---|
//! | `server` | `server.query_us`, `server.commit_us`, `server.wire_us.{query,commit}` (client latency − service time) | read latency on `serve_mix_10k`; flat on `verify_corpus` |
//! | `server::protocol` | `protocol.encode_us`, `protocol.decode_us`, `protocol.reply_bytes` | `sql_read_p99_us`, `cypher_read_p99_us` on `serve_mix_10k` (grouped replies); flat on `ingest_100k` |
//! | `store::group` | `group.queue_wait_us`, `group.size_mean`, `group.backpressured` | `latency_p50_us`, `ops_per_s` on `ingest_100k` |
//! | `store::wal` / `vfs` | `wal.append_us`, `wal.fsync_us`, `wal.bytes_per_commit`, `wal.fsyncs_per_commit` | `commit_p50_us` on `serve_mix_10k`, where fsync is a larger share |
//! | `store` commit path | `store.commit_e2e_us`, `store.commit_other_us` (group e2e − its WAL append and fsync), `store.graph_{clones,reclaims}_per_commit` | `latency_p50_us` on `ingest_100k` (ROADMAP items 2–4); flat on `verify_corpus` |
//! | `store::checkpoint` | `checkpoint.per_1k_commits`, `checkpoint.write_us`, `checkpoint.bytes` | `commit_p99_us` on `ingest_100k` |
//! | `engine::cache` / `engine` | `plan_cache.hit_rate`, `plan_cache.evictions`, `engine.query_us` | read latency on `serve_mix_10k` |
//! | `cypher` | `cypher.parse_us.<shape>`, `cypher.match_us.<shape>` | `cypher_read_*` on `serve_mix_10k` |
//! | `core::transpile` | `transpile_us.<shape>` | the cost ROADMAP item 3 adds to a Cypher plan-cache miss |
//! | `sql` | `sql.parse_us.<shape>`, `sql.compile_us.<shape>`, `sql.vectorized_us.<shape>` | `sql_read_*` on `serve_mix_10k`; `sql.vectorized_us` vs `cypher.match_us` is item 3's headroom |
//! | `core::check` | `reduce_us` | `latency_p50_us` on `verify_corpus` |
//! | `checkers::bmc`, `transformer`, `sql::eval`, `relational` | `bmc.generate_us`, `transformer.apply_us`, `sql.naive_eval_us`, `relational.equiv_us`, per instance | `ops_per_s` on `verify_corpus`; flat on both serving workloads |
//! | `checkers::deductive` | `deductive.check_us` | `prove_p50_us` on `verify_corpus` |
//! | (leftover) | `other_us.commit`, `other_us.query`, `other_us.bmc_instance`, `other_us.check` | reported, never hidden |
//!
//! The traced run also reports each request kind's latency
//! (`commit_p50_us` … `sql_read_p99_us`), the verifier's
//! `bmc_instances_per_s`, `refute_p50_us`, `refute_p90_us`,
//! `prove_p50_us`, the `failed_ratio`, and the tracing overhead
//! (`trace.overhead_*`: traced − untraced half window), and the traced
//! half's end-to-end figures as the clocks read them (`wall.*`) with the
//! median reference time (`reference_us`).  Per-layer figures are not
//! scaled.  Its spans are written to
//! `.bench_build/graphbench/trace-<workload>-seed<n>.json`.

mod ops;
mod reference;
mod serve;
mod stats;
mod trace;
mod verify;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where runs keep their stores, sockets and span files (inside the
/// checkout the benchmark runs from).
const WORK_DIR: &str = ".bench_build/graphbench";

/// `(name, unit)` of the end-to-end metrics, printed by `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("rss_peak_mb", "MB"),
];

/// `(name, unit)` of the per-layer metrics, printed by `--trace 1`.
const PER_LAYER: [(&str, &str); 71] = [
    ("server.query_us", "us"),
    ("server.commit_us", "us"),
    ("server.wire_us.query", "us"),
    ("server.wire_us.commit", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.reply_bytes", "bytes"),
    ("group.queue_wait_us", "us"),
    ("group.size_mean", "commits"),
    ("group.backpressured", "count"),
    ("wal.append_us", "us"),
    ("wal.fsync_us", "us"),
    ("wal.bytes_per_commit", "bytes"),
    ("wal.fsyncs_per_commit", "count"),
    ("store.commit_e2e_us", "us"),
    ("store.commit_other_us", "us"),
    ("store.graph_clones_per_commit", "count"),
    ("store.graph_reclaims_per_commit", "count"),
    ("checkpoint.per_1k_commits", "count"),
    ("checkpoint.write_us", "us"),
    ("checkpoint.bytes", "bytes"),
    ("plan_cache.hit_rate", "ratio"),
    ("plan_cache.evictions", "count"),
    ("engine.query_us", "us"),
    ("cypher.parse_us.point", "us"),
    ("cypher.parse_us.onehop", "us"),
    ("cypher.parse_us.grouped", "us"),
    ("cypher.match_us.point", "us"),
    ("cypher.match_us.onehop", "us"),
    ("cypher.match_us.grouped", "us"),
    ("transpile_us.point", "us"),
    ("transpile_us.onehop", "us"),
    ("transpile_us.grouped", "us"),
    ("sql.parse_us.point", "us"),
    ("sql.parse_us.onehop", "us"),
    ("sql.parse_us.grouped", "us"),
    ("sql.compile_us.point", "us"),
    ("sql.compile_us.onehop", "us"),
    ("sql.compile_us.grouped", "us"),
    ("sql.vectorized_us.point", "us"),
    ("sql.vectorized_us.onehop", "us"),
    ("sql.vectorized_us.grouped", "us"),
    ("reduce_us", "us"),
    ("bmc.generate_us", "us"),
    ("transformer.apply_us", "us"),
    ("sql.naive_eval_us", "us"),
    ("relational.equiv_us", "us"),
    ("deductive.check_us", "us"),
    ("other_us.commit", "us"),
    ("other_us.query", "us"),
    ("other_us.bmc_instance", "us"),
    ("other_us.check", "us"),
    ("commit_p50_us", "us"),
    ("commit_p99_us", "us"),
    ("cypher_read_p50_us", "us"),
    ("cypher_read_p99_us", "us"),
    ("sql_read_p50_us", "us"),
    ("sql_read_p99_us", "us"),
    ("bmc_instances_per_s", "1/s"),
    ("refute_p50_us", "us"),
    ("refute_p90_us", "us"),
    ("refute_instances_mean", "count"),
    ("prove_p50_us", "us"),
    ("failed_ratio", "ratio"),
    ("trace.overhead_ops_pct", "%"),
    ("trace.overhead_p50_us", "us"),
    ("trace.spans", "count"),
    ("wall.ops_per_s", "ops/s"),
    ("wall.latency_p50_us", "us"),
    ("wall.latency_p90_us", "us"),
    ("reference_us", "us"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).ok_or_else(|| format!("`{}` needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Writes a traced run's spans next to its run directory.
fn write_spans(root: &Path, args: &Args, spans: &[trace::Span]) -> Result<(), String> {
    let path = root
        .parent()
        .unwrap_or(root)
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, trace::to_json(spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("graphbench: {} spans written to {}", spans.len(), path.display());
    Ok(())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", graphiti_obs::json_escape(s))
}

fn run(args: &Args) -> Result<stats::Report, String> {
    let root = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let result = match args.workload.as_str() {
        "ingest_100k" => serve::run(&serve::INGEST, args, &root),
        "serve_mix_10k" => serve::run(&serve::SERVE_MIX, args, &root),
        "verify_corpus" => verify::run(args, &root),
        other => Err(format!("unknown workload `{other}`")),
    };
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("graphbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("graphbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.correct = report.failed == 0 && report.attempted > 0;

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut env = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
    ];
    env.extend(report.env.iter().cloned());
    let env: Vec<String> =
        env.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
    println!("{{\"environment\":{{{}}}}}", env.join(","));

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Some(stray) = report.metrics.keys().find(|k| names.iter().all(|(n, _)| n != k)) {
        eprintln!("graphbench: measured `{stray}`, which is not a metric of this mode");
        return ExitCode::FAILURE;
    }
    let mut metrics = Vec::with_capacity(names.len());
    for (name, unit) in names {
        // A per-layer metric a workload does not reach reads 0; every
        // end-to-end metric must be measured.
        let value = match report.metrics.get(*name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                eprintln!("graphbench: end-to-end metric `{name}` was not measured");
                return ExitCode::FAILURE;
            }
        };
        if !value.is_finite() {
            eprintln!("graphbench: metric `{name}` is not finite");
            return ExitCode::FAILURE;
        }
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
