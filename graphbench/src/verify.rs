//! `verify_corpus`: Algorithm 1 over the 410-pair `full_corpus()`, with
//! no store or server — `reduce`, then the bounded model checker at a
//! fixed per-pair budget, then the deductive checker on its fragment.

use crate::ops::Rng;
use crate::reference::Reference;
use crate::stats::{mean, median, quantile, ratio, rss_peak_mb, Report};
use crate::trace::{self, Span, Tracer};
use crate::Args;
use graphiti_benchmarks::{full_corpus, Benchmark};
use graphiti_checkers::{BoundedChecker, DeductiveChecker, ValueDomain};
use graphiti_core::{reduce, CheckOutcome, SqlEquivChecker};
use graphiti_cypher::Query as CypherQuery;
use graphiti_sql::SqlQuery;
use graphiti_transformer::Transformer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Wall-clock BMC budget per equivalent pair.  Fixed, so instances per
/// second on bounded-equivalent pairs is throughput at a constant amount
/// of work per pair.
const BMC_BUDGET: Duration = Duration::from_millis(5);
/// Budget of a refutation.  Every non-equivalent corpus pair is refuted
/// within ~25 ms, so running out of it is a wrong verdict.
const REFUTE_BUDGET: Duration = Duration::from_secs(1);
/// Extra refutation passes per round, for refutation-time samples.
const REFUTE_PASSES: usize = 30;
/// In a traced run, every this many bounded-equivalent pairs one has its
/// BMC search replayed step by step.
const REPLAY_STRIDE: usize = 8;

/// One parsed corpus pair.
struct Pair {
    bench: Benchmark,
    cypher: CypherQuery,
    sql: SqlQuery,
    transformer: Transformer,
}

fn load() -> Result<Vec<Pair>, String> {
    full_corpus()
        .into_iter()
        .map(|bench| {
            let parsed = (bench.cypher(), bench.sql(), bench.transformer());
            match parsed {
                (Ok(cypher), Ok(sql), Ok(transformer)) => {
                    Ok(Pair { bench, cypher, sql, transformer })
                }
                _ => Err(format!("corpus pair `{}` does not parse", bench.id)),
            }
        })
        .collect()
}

/// What one window of checks produced.  Timed samples carry the
/// instant, on the run's timeline, at which they ended.
#[derive(Debug, Default)]
struct WindowOut {
    /// `(at, instances, seconds)` of the BMC on each bounded-equivalent
    /// pair.
    bmc: Vec<(f64, usize, f64)>,
    /// Instances the BMC generated per bounded-equivalent pair index.
    pair_instances: BTreeMap<usize, usize>,
    /// `(at, µs)` from `reduce` to counterexample, per refutation.
    refute_us: Vec<(f64, f64)>,
    /// Instances the BMC generated before each refutation.
    refute_instances: Vec<f64>,
    /// `(at, µs)` per deductive check of a supported pair.
    prove_us: Vec<(f64, f64)>,
    /// `(at, seconds)` to load and parse the corpus, per round.
    setup_s: Vec<(f64, f64)>,
    rounds: usize,
    attempted: u64,
    failed: u64,
    /// Corpus pairs, and those the corpus marks equivalent.
    pairs: usize,
    equivalent_pairs: usize,
    spans: Vec<Span>,
}

/// A window's figures: BMC instances per second, refutation p50 and
/// p90 µs, deductive-check p50 µs.
#[derive(Debug, Clone, Copy)]
struct Figures {
    bmc_per_s: f64,
    refute_p50: f64,
    refute_p90: f64,
    prove_p50: f64,
}

impl WindowOut {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("graphbench: {what}");
    }

    /// The window's figures with each sample's time multiplied by
    /// `scale(at)`: `|_| 1.0` gives wall-clock figures, the reference's
    /// scale figures at reference speed.
    fn figures(&self, scale: impl Fn(f64) -> f64) -> Figures {
        let instances: usize = self.bmc.iter().map(|&(_, n, _)| n).sum();
        let secs: f64 = self.bmc.iter().map(|&(at, _, secs)| secs * scale(at)).sum();
        let refute: Vec<f64> = self.refute_us.iter().map(|&(at, us)| us * scale(at)).collect();
        let prove: Vec<f64> = self.prove_us.iter().map(|&(at, us)| us * scale(at)).collect();
        Figures {
            bmc_per_s: ratio(instances as f64, secs),
            refute_p50: quantile(&refute, 0.5),
            refute_p90: quantile(&refute, 0.9),
            prove_p50: quantile(&prove, 0.5),
        }
    }
}

/// The BMC keeps its default instance seed for every pair and run seed,
/// so every run checks the same instances: how long a refutation takes
/// depends strongly on that seed, and the run seed only orders the pairs.
fn checker(budget: Duration) -> BoundedChecker {
    BoundedChecker { time_budget: budget, ..BoundedChecker::default() }
}

/// One Algorithm-1 check of `pair`: `reduce`, then the BMC.  Refutations
/// and bounded verdicts are checked against the corpus ground truth.
fn bmc_check(
    pair: &Pair,
    index: usize,
    out: &mut WindowOut,
    tracer: &mut Tracer,
    clock: &Reference,
) -> Option<graphiti_core::Reduction> {
    let b = &pair.bench;
    out.attempted += 1;
    let parent = tracer.begin("check.bmc", 0, 0);
    let start = Instant::now();
    let reduced = tracer
        .time("reduce", 0, parent, || reduce(&b.graph_schema, &pair.cypher, &pair.transformer));
    let reduction = match reduced {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("reduce `{}`: {e}", b.id));
            return None;
        }
    };
    let budget = if b.expected_equivalent { BMC_BUDGET } else { REFUTE_BUDGET };
    let run = || {
        checker(budget).check_with_stats(
            &reduction.ctx.induced_schema,
            &reduction.transpiled,
            &b.target_schema,
            &pair.sql,
            &reduction.rdt,
        )
    };
    let result = tracer.time("bmc.check", 0, parent, run);
    let us = start.elapsed().as_secs_f64() * 1e6;
    tracer.end(parent);
    match result {
        Ok((CheckOutcome::Refuted(_), stats)) if !b.expected_equivalent => {
            out.refute_us.push((clock.now(), us));
            out.refute_instances.push(stats.instances as f64);
        }
        Ok((CheckOutcome::BoundedEquivalent { .. }, stats)) if b.expected_equivalent => {
            out.bmc.push((clock.now(), stats.instances, stats.elapsed.as_secs_f64()));
            out.pair_instances.insert(index, stats.instances);
        }
        Ok((outcome, _)) => out.fail(format!(
            "BMC verdict {} for `{}`, expected {}",
            verdict(&outcome),
            b.id,
            if b.expected_equivalent { "equivalent" } else { "refuted" }
        )),
        Err(e) => out.fail(format!("BMC on `{}`: {e}", b.id)),
    }
    Some(reduction)
}

fn verdict(outcome: &CheckOutcome) -> &'static str {
    match outcome {
        CheckOutcome::Verified => "verified",
        CheckOutcome::BoundedEquivalent { .. } => "bounded-equivalent",
        CheckOutcome::Refuted(_) => "refuted",
        CheckOutcome::Unknown(_) => "unknown",
    }
}

/// The deductive checker on a pair inside its fragment.  A proof of a
/// pair the corpus marks non-equivalent is a wrong verdict.
fn prove(
    pair: &Pair,
    reduction: &graphiti_core::Reduction,
    out: &mut WindowOut,
    tracer: &mut Tracer,
    clock: &Reference,
) {
    let deductive = DeductiveChecker::new();
    if !deductive.supports(&reduction.transpiled) || !deductive.supports(&pair.sql) {
        return;
    }
    out.attempted += 1;
    let run = || {
        deductive.check_sql(
            &reduction.ctx.induced_schema,
            &reduction.transpiled,
            &pair.bench.target_schema,
            &pair.sql,
            &reduction.rdt,
        )
    };
    let start = Instant::now();
    let result = tracer.time("deductive.check", 0, 0, run);
    out.prove_us.push((clock.now(), start.elapsed().as_secs_f64() * 1e6));
    match result {
        Ok(CheckOutcome::Verified) if !pair.bench.expected_equivalent => {
            out.fail(format!("deductive checker proved non-equivalent `{}`", pair.bench.id))
        }
        Ok(CheckOutcome::Refuted(_)) if pair.bench.expected_equivalent => {
            out.fail(format!("deductive checker refuted equivalent `{}`", pair.bench.id))
        }
        Ok(_) => {}
        Err(e) => out.fail(format!("deductive check on `{}`: {e}", pair.bench.id)),
    }
}

/// The BMC's search on `pair` replayed one instance at a time — the same
/// seed, bound schedule and instance count — with a span per layer:
/// instance generation, the residual transformer, naive SQL evaluation
/// of both sides, and Def. 4.4 table equivalence.
fn replay_instances(pair: &Pair, instances: usize, tracer: &mut Tracer) -> Result<(), String> {
    let b = &pair.bench;
    let reduction =
        reduce(&b.graph_schema, &pair.cypher, &pair.transformer).map_err(|e| e.to_string())?;
    let bmc = checker(BMC_BUDGET);
    let domain = ValueDomain::from_queries(&[&reduction.transpiled, &pair.sql]);
    let ordered =
        [&reduction.transpiled, &pair.sql].iter().all(|q| matches!(q, SqlQuery::OrderBy { .. }));
    let mut rng = StdRng::seed_from_u64(bmc.seed);
    for i in 0..instances {
        let bound = 1 + (i / bmc.instances_per_bound) % bmc.max_bound;
        let parent = tracer.begin("bmc.instance", 0, 0);
        let induced = tracer.time("bmc.generate", 0, parent, || {
            bmc.generate_instance(&reduction.ctx.induced_schema, bound, &domain, &mut rng)
        });
        let target = tracer.time("transformer.apply", 0, parent, || {
            graphiti_transformer::apply_to_relational(&reduction.rdt, &induced, &b.target_schema)
        });
        let sides = tracer.time("sql.naive_eval", 0, parent, || {
            let target = target.as_ref().ok()?;
            let left = graphiti_sql::eval_query(&induced, &reduction.transpiled).ok()?;
            let right = graphiti_sql::eval_query(target, &pair.sql).ok()?;
            Some((left, right))
        });
        if let Some((left, right)) = sides {
            let same = tracer.time("relational.equiv", 0, parent, || {
                if ordered {
                    left.equivalent_ordered(&right)
                } else {
                    left.equivalent(&right)
                }
            });
            if !same && b.expected_equivalent {
                return Err(format!("replayed instance refutes equivalent `{}`", b.id));
            }
        }
        tracer.end(parent);
    }
    Ok(())
}

/// Rounds until `secs` have passed (whole rounds, at least one).  A
/// round loads the corpus (the timed set-up), checks every pair in an
/// order the seed shuffles — the BMC on each, the deductive checker on
/// each pair in its fragment — then repeats the refutations
/// `REFUTE_PASSES` times.  Each refutation re-runs `reduce` and the BMC
/// from scratch, so every pass redoes the same work.  The host's speed
/// is sampled twice a second, between checks.
fn window(
    seed: u64,
    secs: f64,
    traced: bool,
    reference: &mut Reference,
) -> Result<WindowOut, String> {
    let mut out = WindowOut::default();
    let mut tracer = Tracer::new(reference.origin(), 1 << 40, traced);
    let end = reference.now() + secs;
    let mut pairs = Vec::new();
    while out.rounds == 0 || reference.now() < end {
        reference.tick();
        let start = reference.now();
        pairs = load()?;
        out.setup_s.push((start, reference.now() - start));
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        Rng::new(seed).shuffle(&mut order);
        for &i in &order {
            reference.tick();
            if let Some(r) = bmc_check(&pairs[i], i, &mut out, &mut tracer, reference) {
                prove(&pairs[i], &r, &mut out, &mut tracer, reference);
            }
        }
        for _ in 0..REFUTE_PASSES {
            for &i in order.iter().filter(|&&i| !pairs[i].bench.expected_equivalent) {
                reference.tick();
                bmc_check(&pairs[i], i, &mut out, &mut tracer, reference);
            }
        }
        out.rounds += 1;
    }
    reference.sample();
    if traced {
        let sampled: Vec<(usize, usize)> =
            out.pair_instances.iter().map(|(&i, &n)| (i, n)).step_by(REPLAY_STRIDE).collect();
        for (i, instances) in sampled {
            if let Err(e) = replay_instances(&pairs[i], instances, &mut tracer) {
                out.fail(e);
            }
        }
    }
    out.pairs = pairs.len();
    out.equivalent_pairs = pairs.iter().filter(|p| p.bench.expected_equivalent).count();
    out.spans = tracer.into_spans();
    Ok(out)
}

pub fn run(args: &Args, root: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut reference = Reference::start(1);
    let last = if args.trace {
        let plain = window(args.seed, args.seconds / 2.0, false, &mut reference)?;
        let traced = window(args.seed, args.seconds / 2.0, true, &mut reference)?;
        layer_metrics(&plain, &traced, &reference, args, root, &mut report)?;
        report.attempted += plain.attempted;
        report.failed += plain.failed;
        traced
    } else {
        let w = window(args.seed, args.seconds, false, &mut reference)?;
        let scaled = w.figures(|at| reference.scale(at));
        let setups: Vec<f64> =
            w.setup_s.iter().map(|&(at, secs)| secs * reference.scale(at + secs / 2.0)).collect();
        report.set("setup_s", median(&setups));
        report.set("ops_per_s", scaled.bmc_per_s);
        report.set("latency_p50_us", scaled.refute_p50);
        report.set("latency_p90_us", scaled.refute_p90);
        report.set("rss_peak_mb", rss_peak_mb());
        let wall = w.figures(|_| 1.0);
        let setups: Vec<f64> = w.setup_s.iter().map(|&(_, secs)| secs).collect();
        report.env.extend([
            ("wall_setup_s", format!("{:.4}", median(&setups))),
            ("wall_ops_per_s", format!("{:.2}", wall.bmc_per_s)),
            ("wall_latency_p50_us", format!("{:.1}", wall.refute_p50)),
            ("wall_latency_p90_us", format!("{:.1}", wall.refute_p90)),
        ]);
        w
    };
    report.attempted += last.attempted;
    report.failed += last.failed;
    report.env.extend([
        ("corpus_pairs", last.pairs.to_string()),
        ("expected_equivalent", last.equivalent_pairs.to_string()),
        ("bmc_budget_ms_per_equivalent_pair", BMC_BUDGET.as_millis().to_string()),
        ("refute_budget_ms", REFUTE_BUDGET.as_millis().to_string()),
        ("bmc_seed", BoundedChecker::default().seed.to_string()),
        ("bmc_max_bound", BoundedChecker::default().max_bound.to_string()),
        ("rounds", last.rounds.to_string()),
        ("refutations", last.refute_us.len().to_string()),
        ("proofs", last.prove_us.len().to_string()),
        ("reference_us_median", format!("{:.1}", reference.median_us())),
    ]);
    Ok(report)
}

fn layer_metrics(
    plain: &WindowOut,
    traced: &WindowOut,
    reference: &Reference,
    args: &Args,
    root: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let times = trace::self_times(&traced.spans);
    let t = |name: &str| trace::self_us(&times, name);
    report.set("reduce_us", t("reduce"));
    let layers = ["bmc.generate", "transformer.apply", "sql.naive_eval", "relational.equiv"];
    for layer in layers {
        report.set(format!("{layer}_us"), t(layer));
    }
    report.set("deductive.check_us", t("deductive.check"));
    // Leftovers: each span's own time outside its child layer calls — the
    // replayed instance loop's, and a check's outside `reduce` and the
    // BMC call.
    report.set("other_us.bmc_instance", t("bmc.instance"));
    report.set("other_us.check", t("check.bmc"));
    let wall = traced.figures(|_| 1.0);
    report.set("bmc_instances_per_s", wall.bmc_per_s);
    report.set("refute_p50_us", wall.refute_p50);
    report.set("refute_p90_us", wall.refute_p90);
    report.set("refute_instances_mean", mean(&traced.refute_instances));
    report.set("prove_p50_us", wall.prove_p50);
    report.set("failed_ratio", ratio(traced.failed as f64, traced.attempted as f64));
    let scale = |at| reference.scale(at);
    let (p, q) = (plain.figures(scale), traced.figures(scale));
    report.set("trace.overhead_ops_pct", 100.0 * ratio(p.bmc_per_s - q.bmc_per_s, p.bmc_per_s));
    report.set("trace.overhead_p50_us", q.refute_p50 - p.refute_p50);
    report.set("trace.spans", traced.spans.len() as f64);
    report.set("wall.ops_per_s", wall.bmc_per_s);
    report.set("wall.latency_p50_us", wall.refute_p50);
    report.set("wall.latency_p90_us", wall.refute_p90);
    report.set("reference_us", reference.median_us());
    crate::write_spans(root, args, &traced.spans)
}
