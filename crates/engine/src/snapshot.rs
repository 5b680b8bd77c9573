//! Immutable, cheaply-shareable database snapshots.
//!
//! A [`Snapshot`] freezes one property graph together with everything a
//! query service needs to answer both Cypher and SQL traffic against it:
//! the validated [`GraphInstance`] (adjacency indexes included), the
//! inferred [`SdtContext`], the columnar image of the SDT-image instance
//! the transpiler targets, and any number of additional named relational
//! instances (e.g. a benchmark's user-transformed target database).
//!
//! Snapshots are handed out as `Arc<Snapshot>`: cloning a handle is a
//! reference-count bump, and every contained type is plain owned data
//! (`String`s, `Vec`s, maps, interned `Arc<str>` values), so a snapshot is
//! `Send + Sync` and can back any number of worker threads without
//! locking.

use graphiti_common::Result;
use graphiti_core::{infer_sdt, SdtContext};
use graphiti_graph::{GraphInstance, GraphSchema};
use graphiti_relational::{ColumnInstance, RelInstance};
use graphiti_sql::RowSource;
use graphiti_transformer::apply_to_graph;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// The shared map of extra named row instances carried by a snapshot.
pub type SharedExtras = Arc<BTreeMap<String, RelInstance>>;
/// The shared map of the extra instances' columnar images.
pub type SharedColumnarExtras = Arc<BTreeMap<String, ColumnInstance>>;

/// The SQL-side evaluation target of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SqlTarget {
    /// The SDT-image of the frozen graph (what transpiled queries run on).
    Induced,
    /// One of the extra named instances registered at freeze time.
    Named(String),
}

impl std::fmt::Display for SqlTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlTarget::Induced => f.write_str("induced"),
            SqlTarget::Named(n) => write!(f, "named:{n}"),
        }
    }
}

/// The SDT image of one generation: the columnar tables every query
/// scans, plus a row view derived from them (losslessly, row order
/// included) the first time something needs rows — a SQL operator that
/// falls back to the row engine, or a caller of [`Snapshot::induced`].
#[derive(Debug)]
struct InducedImage {
    columnar: ColumnInstance,
    rows: OnceLock<RelInstance>,
}

impl RowSource for InducedImage {
    fn rows(&self) -> &RelInstance {
        self.rows.get_or_init(|| self.columnar.to_rel())
    }
}

/// A frozen, validated, query-ready database state.
///
/// The induced instance is held in columnar form ([`ColumnInstance`]),
/// which the vectorized executor scans, so every batch query starts from
/// cache-friendly typed columns without any per-query conversion.  Its
/// row-oriented [`RelInstance`] is a view built at most once per snapshot,
/// on first use; a cold [`Snapshot::freeze`] has the rows anyway and keeps
/// them.  The extra named instances are held in both layouts.
#[derive(Debug)]
pub struct Snapshot {
    // The schema, graph, and SDT context sit behind `Arc`s so successive
    // MVCC generations published by a writable store share them: a
    // data-only commit re-publishes these as reference-count bumps.  The
    // same goes for the extra named instances, which a store never
    // mutates; the induced image is a per-generation value whose tables
    // share untouched columns internally (see [`ColumnTable`]'s
    // `Arc`-shared columns).
    //
    // [`ColumnTable`]: graphiti_relational::ColumnTable
    schema: Arc<GraphSchema>,
    graph: Arc<GraphInstance>,
    ctx: Arc<SdtContext>,
    induced: InducedImage,
    extra: Arc<BTreeMap<String, RelInstance>>,
    extra_columnar: Arc<BTreeMap<String, ColumnInstance>>,
}

impl Snapshot {
    /// Validates `graph` against `schema`, infers the SDT, materializes the
    /// induced relational instance, and freezes everything into a shared
    /// snapshot.
    pub fn freeze(schema: GraphSchema, graph: GraphInstance) -> Result<Arc<Snapshot>> {
        Snapshot::freeze_with(schema, graph, [])
    }

    /// [`Snapshot::freeze`] plus additional named relational instances that
    /// SQL batch queries can target via [`SqlTarget::Named`].
    pub fn freeze_with(
        schema: GraphSchema,
        graph: GraphInstance,
        extra: impl IntoIterator<Item = (String, RelInstance)>,
    ) -> Result<Arc<Snapshot>> {
        graph.validate(&schema)?;
        let ctx = infer_sdt(&schema)?;
        let induced = apply_to_graph(&ctx.sdt, &schema, &graph, &ctx.induced_schema)?;
        Ok(Snapshot::from_parts(schema, graph, ctx, induced, extra))
    }

    /// Assembles a snapshot from already-computed parts (e.g. a benchmark
    /// harness that built the databases itself).  The caller vouches that
    /// `induced` really is the `ctx.sdt`-image of `graph`.
    pub fn from_parts(
        schema: GraphSchema,
        graph: GraphInstance,
        ctx: SdtContext,
        induced: RelInstance,
        extra: impl IntoIterator<Item = (String, RelInstance)>,
    ) -> Arc<Snapshot> {
        let extra: BTreeMap<String, RelInstance> = extra.into_iter().collect();
        let extra_columnar =
            extra.iter().map(|(k, v)| (k.clone(), ColumnInstance::from_rel(v))).collect();
        let induced =
            InducedImage { columnar: ColumnInstance::from_rel(&induced), rows: induced.into() };
        Arc::new(Snapshot {
            schema: Arc::new(schema),
            graph: Arc::new(graph),
            ctx: Arc::new(ctx),
            induced,
            extra: Arc::new(extra),
            extra_columnar: Arc::new(extra_columnar),
        })
    }

    /// Assembles a snapshot from fully-precomputed parts — nothing is
    /// validated, converted, or copied, and the row view of the induced
    /// instance is left unbuilt.  This is the incremental re-freeze
    /// publication point: a writable store's commit path patches the
    /// previous generation's columnar image with per-table row deltas and
    /// hands it here, while the schema, SDT context, and extra maps ride
    /// along as `Arc` bumps.  The caller vouches that `induced_columnar`
    /// is the columnar image of the `ctx.sdt`-image of `graph`.
    pub fn from_parts_with_columnar(
        schema: Arc<GraphSchema>,
        graph: Arc<GraphInstance>,
        ctx: Arc<SdtContext>,
        induced_columnar: ColumnInstance,
        extra: SharedExtras,
        extra_columnar: SharedColumnarExtras,
    ) -> Arc<Snapshot> {
        let induced = InducedImage { columnar: induced_columnar, rows: OnceLock::new() };
        Arc::new(Snapshot { schema, graph, ctx, induced, extra, extra_columnar })
    }

    /// The shared extra-instance maps (row and columnar), for publishing a
    /// derived generation via [`Snapshot::from_parts_with_columnar`].
    pub fn extra_parts(&self) -> (SharedExtras, SharedColumnarExtras) {
        (Arc::clone(&self.extra), Arc::clone(&self.extra_columnar))
    }

    /// The shared schema handle.
    pub fn schema_arc(&self) -> Arc<GraphSchema> {
        Arc::clone(&self.schema)
    }

    /// The shared graph handle (what a derived generation republishes when
    /// the graph itself is reused).
    pub fn graph_arc(&self) -> Arc<GraphInstance> {
        Arc::clone(&self.graph)
    }

    /// The shared SDT-context handle.
    pub fn ctx_arc(&self) -> Arc<SdtContext> {
        Arc::clone(&self.ctx)
    }

    /// The columnar image of the induced instance.
    pub fn induced_columnar(&self) -> &ColumnInstance {
        &self.induced.columnar
    }

    /// The graph schema.
    pub fn schema(&self) -> &GraphSchema {
        &self.schema
    }

    /// The frozen graph instance.
    pub fn graph(&self) -> &GraphInstance {
        &self.graph
    }

    /// The inferred SDT context (induced schema + standard transformer).
    pub fn ctx(&self) -> &SdtContext {
        &self.ctx
    }

    /// The SDT-image relational instance, as rows.  The first call on a
    /// snapshot builds this view from the columnar image; later calls
    /// return the same instance.
    pub fn induced(&self) -> &RelInstance {
        self.induced.rows()
    }

    /// Whether the row view of the induced instance exists yet (see
    /// [`Snapshot::induced`]).
    pub fn row_view_built(&self) -> bool {
        self.induced.rows.get().is_some()
    }

    /// Resolves a SQL target to its relational instance (for
    /// [`SqlTarget::Induced`], the row view of [`Snapshot::induced`]).
    pub fn sql_instance(&self, target: &SqlTarget) -> Result<&RelInstance> {
        Ok(self.sql_image(target)?.0.rows())
    }

    /// Resolves a SQL target to both layouts: the row source, which the
    /// induced target builds only if asked for rows, and the columnar
    /// image the vectorized executor scans.
    pub fn sql_image(&self, target: &SqlTarget) -> Result<(&dyn RowSource, &ColumnInstance)> {
        let unknown =
            |name: &str| graphiti_common::Error::eval(format!("unknown snapshot target `{name}`"));
        match target {
            SqlTarget::Induced => Ok((&self.induced, &self.induced.columnar)),
            SqlTarget::Named(name) => match (self.extra.get(name), self.extra_columnar.get(name)) {
                (Some(rows), Some(columnar)) => Ok((rows, columnar)),
                _ => Err(unknown(name)),
            },
        }
    }

    /// Names of the extra registered instances.
    pub fn extra_targets(&self) -> impl Iterator<Item = &str> {
        self.extra.keys().map(String::as_str)
    }
}
