//! Serving never builds a generation's row image.
//!
//! A commit publishes only the columnar image of Φ_sdt(G); the row view
//! ([`Snapshot::induced`]) is built on first use.  Cypher runs on the
//! graph and transpiled SQL vectorizes over the columns, so the serving
//! shapes — a point lookup, a one-hop neighbourhood and a two-hop grouped
//! aggregate, each as Cypher and as its transpiled SQL, profiled and not —
//! must leave the latest generation's row view unbuilt.  A subquery
//! predicate falls back to the row engine, which builds the view once;
//! its answer must match the naive evaluator on a cold freeze.

use graphiti_common::Value;
use graphiti_engine::{BatchQuery, Snapshot, SqlTarget};
use graphiti_graph::{EdgeType, GraphInstance, GraphSchema, NodeType};
use graphiti_store::{Delta, GraphStore, NodeRef};
use std::sync::Arc;

fn social_schema() -> GraphSchema {
    GraphSchema::new()
        .with_node(NodeType::new("USR", ["UsrId", "UsrName"]))
        .with_node(NodeType::new("PIC", ["PicId", "PicSize"]))
        .with_edge(EdgeType::new("POSTED", "USR", "PIC", ["PostId", "PostDate"]))
        .with_edge(EdgeType::new("FOLLOWS", "USR", "USR", ["FId"]))
}

/// Users 0..8, each following the next two and posting one picture.
fn social_graph() -> GraphInstance {
    let mut g = GraphInstance::new();
    let users: Vec<_> = (0..8i64)
        .map(|i| g.add_node("USR", [("UsrId", Value::Int(i)), ("UsrName", Value::str("u"))]))
        .collect();
    for (i, &u) in users.iter().enumerate() {
        let pic = g.add_node("PIC", [("PicId", Value::Int(i as i64)), ("PicSize", Value::Int(10))]);
        g.add_edge(
            "POSTED",
            u,
            pic,
            [("PostId", Value::Int(i as i64)), ("PostDate", Value::Int(1))],
        );
        for k in 1..=2 {
            let fid = Value::Int((i * 10 + k) as i64);
            g.add_edge("FOLLOWS", u, users[(i + k) % users.len()], [("FId", fid)]);
        }
    }
    g
}

/// The serving shapes the benchmark's read mix sends.
fn serving_queries() -> Vec<String> {
    vec![
        "MATCH (n:USR) WHERE n.UsrId = 3 RETURN n.UsrName AS name".to_string(),
        "MATCH (n:USR)-[f:FOLLOWS]->(m:USR) WHERE n.UsrId = 3 \
         RETURN m.UsrId AS id, m.UsrName AS name"
            .to_string(),
        "MATCH (u:USR)-[f:FOLLOWS]->(v:USR)-[p:POSTED]->(x:PIC) \
         RETURN v.UsrName AS name, Count(x) AS posts"
            .to_string(),
    ]
}

#[test]
fn serving_never_builds_the_row_view_and_a_subquery_builds_it_once() {
    let store = GraphStore::open(social_schema(), social_graph()).unwrap();
    // A few commits of every kind: insert, update, delete.
    for i in 100..104i64 {
        let mut d = Delta::new();
        let u = d.add_node("USR", [("UsrId", Value::Int(i)), ("UsrName", Value::str("new"))]);
        let first = store.node_key("USR", &Value::Int(0)).unwrap();
        d.add_edge("FOLLOWS", u, NodeRef::Key(first), [("FId", Value::Int(i * 10))]);
        store.commit(d).unwrap();
    }
    let mut d = Delta::new();
    d.set_node_prop(store.node_key("USR", &Value::Int(1)).unwrap(), "UsrName", Value::str("w"));
    store.commit(d).unwrap();
    let mut d = Delta::new();
    d.remove_edge(store.edge_key("FOLLOWS", &Value::Int(1000)).unwrap());
    d.remove_node(store.node_key("USR", &Value::Int(100)).unwrap());
    store.commit(d).unwrap();

    let snap = store.snapshot();
    assert!(!snap.row_view_built(), "a commit built the row view");
    let engine = store.engine();
    for cypher in serving_queries() {
        let ast = graphiti_cypher::parse_query(&cypher).unwrap();
        let sql_ast = graphiti_core::transpile_query(snap.ctx(), &ast).unwrap();
        let sql = graphiti_sql::query_to_string(&sql_ast);
        let graph_side = engine.execute(&BatchQuery::cypher(&cypher)).result.unwrap();
        for query in [BatchQuery::cypher(&cypher), BatchQuery::sql(&sql)] {
            for outcome in [engine.execute(&query), engine.execute_profiled(&query)] {
                let table = outcome.result.unwrap_or_else(|e| panic!("`{}`: {e}", query.text()));
                assert!(table.equivalent(&graph_side), "`{}` disagrees with Cypher", query.text());
            }
        }
        let via_ast = engine.execute_sql_ast(&sql_ast, &SqlTarget::Induced).result.unwrap();
        assert!(via_ast.equivalent(&graph_side), "transpiled AST of `{cypher}` disagrees");
        assert!(!snap.row_view_built(), "serving `{cypher}` built the row view");
    }
    assert!(Arc::ptr_eq(&snap, &store.snapshot()), "no commit ran meanwhile");

    // A subquery predicate re-enters the row engine: the view is built on
    // that first fallback, and a second run reuses the same instance.
    let subquery = "SELECT u.UsrId AS id FROM USR AS u \
                    WHERE u.UsrId IN (SELECT f.SRC FROM FOLLOWS AS f WHERE f.TGT = 2)";
    let first = engine.execute(&BatchQuery::sql(subquery)).result.unwrap();
    assert!(snap.row_view_built(), "the subquery fallback needs rows");
    let view: *const _ = snap.induced();
    let second = engine.execute_profiled(&BatchQuery::sql(subquery)).result.unwrap();
    assert!(std::ptr::eq(view, snap.induced()), "the row view was built twice");
    assert_eq!(first, second);
    let cold = Snapshot::freeze(snap.schema().clone(), snap.graph().clone()).unwrap();
    let want =
        graphiti_sql::eval_query(cold.induced(), &graphiti_sql::parse_query(subquery).unwrap())
            .unwrap();
    assert!(!want.rows.is_empty(), "the subquery selects someone");
    assert!(first.equivalent(&want), "subquery result:\n{first}\ncold:\n{want}");
}
