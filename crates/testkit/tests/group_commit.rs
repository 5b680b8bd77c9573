//! Group-commit equivalence: concurrency must buy throughput, never new
//! semantics.
//!
//! Each case script-generates self-contained deltas for N writer
//! threads, commits them **concurrently** through a [`GroupCommitter`]
//! (random group size, so singleton groups, full coalescing, and
//! everything between get drawn), and then checks that the result is
//! indistinguishable from *some serial interleaving* of the accepted
//! deltas:
//!
//! * every accepted member got its own distinct generation, and the
//!   accepted generations are exactly `1..=n` — the witness order;
//! * replaying the accepted deltas **serially** (no group committer;
//!   each solo `commit` is a group of one on the store's single commit
//!   path) in generation order accepts every one of them, at the same
//!   generation;
//! * the two stores publish bag-equal induced columnar images, and each
//!   store's image is bag-equal to a cold `Snapshot::freeze` of its own
//!   graph — an image reference independent of the commit path — and
//!   equal row for row to its own table logs;
//! * the transpilation soundness oracle holds on both stores' live
//!   query surfaces;
//! * every failed member failed `Rejected` — individually, without
//!   poisoning its group (nothing fences an in-memory store).
//!
//! Deltas deliberately draw default keys from a small space so
//! collisions land both inside one group and across groups, exercising
//! the per-member rejection path under coalescing.  The per-push CI
//! runs a modest case count; raise it via `PROPTEST_CASES`.

use graphiti_common::{Ident, Value};
use graphiti_engine::Snapshot;
use graphiti_graph::GraphSchema;
use graphiti_store::{Delta, GraphStore, GroupOptions, QuerySurface, StoreError};
use graphiti_testkit::{differential_oracle_on, fixtures};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// `PROPTEST_CASES`-honoring case count (`ProptestConfig::with_cases`
/// would pin it, so the nightly deep run could not raise it).
fn cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_cases)
}

fn props_for(keys: &[Ident], pk: i64, rng: &mut StdRng) -> Vec<(String, Value)> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| {
            let v = if i == 0 {
                Value::Int(pk)
            } else {
                match rng.gen_range(0..3usize) {
                    0 => Value::Int(rng.gen_range(0..4i64)),
                    1 => Value::str(["a", "b", "c"][rng.gen_range(0..3usize)]),
                    _ => Value::Null,
                }
            };
            (k.to_string(), v)
        })
        .collect()
}

/// One random **self-contained, non-empty** delta: node adds with
/// default keys drawn from a small shared space (collisions intended),
/// plus edges between nodes staged by this same delta — no dependence
/// on the store's current state, so any thread can submit it at any
/// time.  (Empty deltas are excluded: they ack at the *current*
/// generation without advancing it, which is covered by the store's
/// unit tests and would only blur the interleaving witness here.)
fn random_delta(rng: &mut StdRng, schema: &GraphSchema, pk_space: i64) -> Delta {
    let mut delta = Delta::new();
    let mut staged: Vec<(graphiti_store::NodeRef, Ident)> = Vec::new();
    for i in 0..rng.gen_range(1..=4usize) {
        if i == 0 || rng.gen_bool(0.7) || schema.edge_types.is_empty() {
            let ty = &schema.node_types[rng.gen_range(0..schema.node_types.len())];
            let pk = rng.gen_range(0..pk_space);
            let r = delta.add_node(ty.label.clone(), props_for(&ty.keys, pk, rng));
            staged.push((r, ty.label.clone()));
        } else {
            let ty = &schema.edge_types[rng.gen_range(0..schema.edge_types.len())];
            let src = staged.iter().filter(|(_, l)| l == &ty.src).map(|(r, _)| *r).next_back();
            let tgt = staged.iter().filter(|(_, l)| l == &ty.tgt).map(|(r, _)| *r).next_back();
            let (Some(src), Some(tgt)) = (src, tgt) else { continue };
            let pk = rng.gen_range(0..pk_space);
            delta.add_edge(ty.label.clone(), src, tgt, props_for(&ty.keys, pk, rng));
        }
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(48) })]

    #[test]
    fn concurrent_group_commit_equals_a_serial_interleaving(seed in any::<u64>()) {
        let schema = fixtures::emp::schema();
        let mut rng = StdRng::seed_from_u64(seed);
        let threads = rng.gen_range(2..=4usize);
        let per_thread = rng.gen_range(2..=6usize);
        let pk_space = rng.gen_range(3..=32i64);
        let scripts: Vec<Vec<Delta>> = (0..threads)
            .map(|_| {
                (0..per_thread).map(|_| random_delta(&mut rng, &schema, pk_space)).collect()
            })
            .collect();

        // Concurrent run, through the group committer.
        let store = Arc::new(GraphStore::builder(schema.clone()).open().unwrap());
        let committer = Arc::new(store.group_committer(GroupOptions {
            max_group: rng.gen_range(1..=8usize),
            queue_depth: rng.gen_range(1..=16usize),
        }));
        let mut handles = Vec::new();
        for script in scripts {
            let committer = Arc::clone(&committer);
            handles.push(std::thread::spawn(move || {
                let mut accepted = Vec::new();
                let mut rejected = 0usize;
                for delta in script {
                    match committer.submit(delta.clone()).wait() {
                        Ok(info) => accepted.push((info.generation, delta)),
                        Err(StoreError::Rejected(_)) => rejected += 1,
                        Err(other) => panic!("group member failed non-Rejected: {other}"),
                    }
                }
                (accepted, rejected)
            }));
        }
        let mut accepted: Vec<(u64, Delta)> = Vec::new();
        let mut rejected = 0usize;
        for h in handles {
            let (a, r) = h.join().expect("writer threads never panic");
            accepted.extend(a);
            rejected += r;
        }
        drop(committer);
        prop_assert_eq!(accepted.len() + rejected, threads * per_thread);

        // The accepted generations are exactly 1..=n: a total order with
        // no gaps is itself the witness serial interleaving.
        accepted.sort_by_key(|(g, _)| *g);
        let gens: Vec<u64> = accepted.iter().map(|(g, _)| *g).collect();
        prop_assert_eq!(&gens, &(1..=accepted.len() as u64).collect::<Vec<_>>());
        prop_assert_eq!(store.generation(), accepted.len() as u64);

        // Serial replay: the same deltas, groups of one, witness order.
        let serial = GraphStore::builder(schema.clone()).open().unwrap();
        for (gen, delta) in &accepted {
            let info = serial
                .commit(delta.clone())
                .expect("an accepted group member must replay serially");
            prop_assert_eq!(info.generation, *gen);
        }

        // Both stores publish the same induced image.
        let snap = store.snapshot();
        let serial_snap = serial.snapshot();
        let columnar_of = |s: &Snapshot, name: &str| {
            let table = s.induced_columnar().table(name);
            table.unwrap_or_else(|| panic!("missing columnar `{name}`")).to_table()
        };
        for (name, _) in serial_snap.induced_columnar().tables() {
            let (live, serial_table) = (columnar_of(&snap, name), columnar_of(&serial_snap, name));
            prop_assert_eq!(&live.columns, &serial_table.columns);
            prop_assert!(
                live.rows_bag_equal(&serial_table),
                "`{}` diverges:\ngroup-committed:\n{}\nserial:\n{}",
                name, live, serial_table
            );
        }
        // Each store's columnar image matches a cold freeze of its published
        // graph (bag-equal) and its own table logs (row for row).
        for (which, s, logs) in
            [("group", &snap, store.table_logs()), ("serial", &serial_snap, serial.table_logs())]
        {
            let cold = Snapshot::freeze(s.schema().clone(), s.graph().clone())
                .expect("the committed graph stays schema-valid");
            prop_assert_eq!(s.induced_columnar().tables().count(), cold.induced().tables().count());
            for (name, cold_table) in cold.induced().tables() {
                let live = columnar_of(s, name);
                prop_assert_eq!(&live.columns, &cold_table.columns);
                prop_assert!(
                    live.rows_bag_equal(cold_table),
                    "{} store: `{}` diverges from a cold freeze:\nincremental:\n{}\ncold:\n{}",
                    which, name, live, cold_table
                );
                prop_assert_eq!(
                    Some(&live), logs.table(name),
                    "{} store: columnar image of `{}` diverges from its log", which, name
                );
            }
        }

        // The soundness oracle holds on both live surfaces.
        for q in fixtures::emp::QUERIES {
            differential_oracle_on(&*store, q)
                .unwrap_or_else(|e| panic!("group store oracle failed on `{q}`: {e}"));
            differential_oracle_on(&serial, q)
                .unwrap_or_else(|e| panic!("serial store oracle failed on `{q}`: {e}"));
        }
    }
}
