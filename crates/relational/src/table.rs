//! Bag-semantics result tables and table equivalence (Definition 4.4).

use graphiti_common::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A single row: the values are positional, aligned with the owning
/// [`Table`]'s column list.
pub type Row = Vec<Value>;

/// A result table under bag semantics.
///
/// Columns are named strings (possibly qualified, e.g. `c2.CID`), rows are
/// positional value vectors.  The same table type is used for base relations
/// in instances and for query results.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Column names, in order.
    pub columns: Vec<String>,
    /// Rows (a bag: duplicates are significant).
    pub rows: Vec<Row>,
}

impl Table {
    /// Creates an empty table with the given column names.
    pub fn new(columns: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Table { columns: columns.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Creates a table with columns and rows.
    pub fn with_rows(
        columns: impl IntoIterator<Item = impl Into<String>>,
        rows: impl IntoIterator<Item = Row>,
    ) -> Self {
        Table {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: rows.into_iter().collect(),
        }
    }

    /// Appends a row. Panics in debug builds if the arity does not match.
    pub fn push_row(&mut self, row: Row) {
        debug_assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Returns the index of the column whose name matches `name`.
    ///
    /// Resolution is in three steps, mirroring SQL name resolution:
    /// 1. exact match on the full (possibly qualified) name;
    /// 2. match on the unqualified suffix (`CID` matches `c2.CID`) provided it
    ///    is unambiguous;
    /// 3. case-insensitive versions of the two rules above.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        column_index_in(&self.columns, name)
    }

    /// Returns a row's value in the named column, if the column exists.
    pub fn value(&self, row: usize, column: &str) -> Option<&Value> {
        let idx = self.column_index(column)?;
        self.rows.get(row).and_then(|r| r.get(idx))
    }

    /// Sorts rows into a canonical order (used to compare bags).  Returns
    /// borrowed rows — no value is cloned.
    pub fn canonical_rows(&self) -> Vec<&Row> {
        let mut rows: Vec<&Row> = self.rows.iter().collect();
        rows.sort_by(|a, b| cmp_rows(a, b));
        rows
    }

    /// Bag (multiset) equality of the rows of two tables assuming columns are
    /// already aligned positionally.  Counts are built over row *references*,
    /// so no value is cloned.
    pub fn rows_bag_equal(&self, other: &Table) -> bool {
        if self.len() != other.len() || self.arity() != other.arity() {
            return false;
        }
        let mut counts: HashMap<&Row, i64> = HashMap::with_capacity(self.len());
        for r in &self.rows {
            *counts.entry(r).or_insert(0) += 1;
        }
        for r in &other.rows {
            match counts.get_mut(r) {
                Some(c) => *c -= 1,
                None => return false,
            }
        }
        counts.values().all(|c| *c == 0)
    }

    /// Table equivalence per Definition 4.4: the tables are equivalent if
    /// there is a **bijective column mapping** under which they are equal as
    /// bags of rows.  Column names are ignored.
    pub fn equivalent(&self, other: &Table) -> bool {
        self.equivalence_mapping(other).is_some()
    }

    /// Ordered (list-semantics) equivalence used for `ORDER BY` results
    /// (footnote 4 in the paper): a column bijection must exist under which
    /// the row *sequences* are equal.
    pub fn equivalent_ordered(&self, other: &Table) -> bool {
        self.find_mapping(other, true).is_some()
    }

    /// Returns a witness column bijection `π` (as a vector mapping column `i`
    /// of `self` to column `π[i]` of `other`) under which the two tables are
    /// bag-equal, if one exists.
    pub fn equivalence_mapping(&self, other: &Table) -> Option<Vec<usize>> {
        self.find_mapping(other, false)
    }

    fn find_mapping(&self, other: &Table, ordered: bool) -> Option<Vec<usize>> {
        if self.arity() != other.arity() || self.len() != other.len() {
            return None;
        }
        let n = self.arity();
        if n == 0 {
            return Some(Vec::new());
        }
        // Candidate columns for each of our columns: those in `other` whose
        // multiset (or sequence) of values matches.  Columns are profiled as
        // vectors of value *references* — nothing is cloned.
        fn col_values(t: &Table, i: usize, ordered: bool) -> Vec<&Value> {
            let mut vs: Vec<&Value> = t.rows.iter().map(|r| &r[i]).collect();
            if !ordered {
                vs.sort_by(|a, b| a.total_cmp(b));
            }
            vs
        }
        let ours: Vec<Vec<&Value>> = (0..n).map(|i| col_values(self, i, ordered)).collect();
        let theirs: Vec<Vec<&Value>> = (0..n).map(|i| col_values(other, i, ordered)).collect();
        let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(n);
        for our in &ours {
            let c: Vec<usize> = theirs
                .iter()
                .enumerate()
                .filter(|(_, their)| *their == our)
                .map(|(j, _)| j)
                .collect();
            if c.is_empty() {
                return None;
            }
            candidates.push(c);
        }
        // Backtracking search for a bijection that also makes whole rows
        // match (column-wise multisets matching is necessary but not
        // sufficient).
        let mut assignment: Vec<usize> = vec![usize::MAX; n];
        let mut used = vec![false; n];
        // Order columns by fewest candidates first to prune early.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| candidates[i].len());
        if self.search_mapping(other, &candidates, &order, 0, &mut assignment, &mut used, ordered) {
            Some(assignment)
        } else {
            None
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn search_mapping(
        &self,
        other: &Table,
        candidates: &[Vec<usize>],
        order: &[usize],
        depth: usize,
        assignment: &mut Vec<usize>,
        used: &mut Vec<bool>,
        ordered: bool,
    ) -> bool {
        if depth == order.len() {
            return self.check_mapping(other, assignment, ordered);
        }
        let col = order[depth];
        for &cand in &candidates[col] {
            if used[cand] {
                continue;
            }
            assignment[col] = cand;
            used[cand] = true;
            if self.search_mapping(other, candidates, order, depth + 1, assignment, used, ordered) {
                return true;
            }
            used[cand] = false;
            assignment[col] = usize::MAX;
        }
        false
    }

    fn check_mapping(&self, other: &Table, mapping: &[usize], ordered: bool) -> bool {
        // Rows are compared through permuted *reference* vectors —
        // `mapping[i] = j` means our column i corresponds to their column j,
        // so their rows are viewed through the mapping to align with ours.
        // No value is cloned.
        fn project<'t>(t: &'t Table, perm: Option<&[usize]>) -> Vec<Vec<&'t Value>> {
            t.rows
                .iter()
                .map(|r| match perm {
                    Some(p) => (0..r.len()).map(|i| &r[p[i]]).collect(),
                    None => r.iter().collect(),
                })
                .collect()
        }
        let a = project(self, None);
        let b = project(other, Some(mapping));
        if ordered {
            a == b
        } else {
            let mut counts: HashMap<&Vec<&Value>, i64> = HashMap::with_capacity(a.len());
            for r in &a {
                *counts.entry(r).or_insert(0) += 1;
            }
            for r in &b {
                match counts.get_mut(r) {
                    Some(c) => *c -= 1,
                    None => return false,
                }
            }
            counts.values().all(|c| *c == 0)
        }
    }

    /// Applies a [`TableDelta`] — cell patches, row removals, then row
    /// appends — returning the patched table.  Surviving rows keep their
    /// relative order (value clones are refcount bumps), so this is the
    /// row-layout dual of
    /// [`ColumnTable::apply_delta`](crate::column::ColumnTable::apply_delta):
    /// applying one delta through both layouts yields identical tables.
    pub fn apply_delta(&self, delta: &TableDelta) -> Table {
        let mut rows: Vec<Row> = self.rows.clone();
        for (row, col, value) in &delta.patches {
            rows[*row][*col] = value.clone();
        }
        if !delta.removed.is_empty() {
            let mut dead = vec![false; rows.len()];
            for &r in &delta.removed {
                dead[r as usize] = true;
            }
            let mut i = 0;
            rows.retain(|_| {
                let keep = !dead[i];
                i += 1;
                keep
            });
        }
        rows.extend(delta.appended.iter().cloned());
        Table { columns: self.columns.clone(), rows }
    }

    /// Removes duplicate rows (set semantics), keeping the first occurrence.
    /// The seen-set holds row references; only the surviving rows are cloned
    /// into the output.
    pub fn dedup(&self) -> Table {
        let mut seen: std::collections::HashSet<&Row> = std::collections::HashSet::new();
        let mut out = Table::new(self.columns.clone());
        for r in &self.rows {
            if seen.insert(r) {
                out.rows.push(r.clone());
            }
        }
        out
    }
}

/// One base-table change set, expressed against the table's **pre-delta**
/// row numbering: first every cell patch is applied in place, then the
/// `removed` rows are dropped (survivors keep their relative order), then
/// the `appended` rows land at the end.
///
/// Produced by the writable graph store's commit path (one delta per
/// touched induced table per commit), which patches the columnar image
/// with [`ColumnTable::apply_delta`](crate::column::ColumnTable::apply_delta).
/// [`Table::apply_delta`] is its row-layout dual, kept as the reference the
/// columnar patch is tested against: the two agree row-for-row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableDelta {
    /// Cell patches `(row, column, new value)`, in pre-delta coordinates.
    /// Patching a row that is also in `removed` is allowed (the patch is
    /// simply dead work).
    pub patches: Vec<(usize, usize, Value)>,
    /// Pre-delta indices of the rows to drop — **sorted and deduplicated**.
    pub removed: Vec<u32>,
    /// Rows appended after removal, in order.
    pub appended: Vec<Row>,
}

impl TableDelta {
    /// A delta that changes nothing.
    pub fn new() -> TableDelta {
        TableDelta::default()
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.patches.is_empty() && self.removed.is_empty() && self.appended.is_empty()
    }

    /// Folds a follow-up delta into this one: `next` is expressed against
    /// the image `self` produces, and afterwards applying `self` alone
    /// equals applying the old `self` and then `next` sequentially.
    /// `base_rows` is the row count of the table **this** delta is
    /// expressed against (it never changes as more deltas are absorbed).
    ///
    /// This is what makes group commit's image derivation O(group): the
    /// store folds every member's per-table delta with this method (cheap
    /// index arithmetic, no row copies) and materializes each touched
    /// table image **once** per group instead of once per member.
    pub fn absorb(&mut self, base_rows: usize, next: &TableDelta) {
        // Post-image rows `0..survivors` are base survivors; rows past
        // that are `self.appended`.  A survivor maps back to its base
        // index by re-inserting the removed rows before it.
        let survivors = base_rows - self.removed.len();
        let orig = |j: usize| -> usize {
            let mut o = j;
            for &r in &self.removed {
                if (r as usize) <= o {
                    o += 1;
                } else {
                    break;
                }
            }
            o
        };
        // Patches first (they act on next's pre-image, like apply_delta):
        // survivor patches shift back to base coordinates and run after
        // the existing patches (later wins); appended-row patches edit
        // the pending rows directly.
        for (row, col, value) in &next.patches {
            if *row < survivors {
                self.patches.push((orig(*row), *col, value.clone()));
            } else {
                self.appended[*row - survivors][*col] = value.clone();
            }
        }
        // Removals: survivors join the (sorted, deduplicated) base
        // removal set; appended rows are dropped in place.
        let mut dead_appended = false;
        let mut dead = Vec::new();
        let mut removed_base = Vec::new();
        for &r in &next.removed {
            let r = r as usize;
            if r < survivors {
                removed_base.push(orig(r) as u32);
            } else {
                dead_appended = true;
                dead.push(r - survivors);
            }
        }
        self.removed.extend(removed_base);
        self.removed.sort_unstable();
        self.removed.dedup();
        if dead_appended {
            let mut is_dead = vec![false; self.appended.len()];
            for d in dead {
                is_dead[d] = true;
            }
            let mut i = 0;
            self.appended.retain(|_| {
                let keep = !is_dead[i];
                i += 1;
                keep
            });
        }
        self.appended.extend(next.appended.iter().cloned());
    }
}

/// Compares rows lexicographically using the total value order.
pub fn cmp_rows(a: &Row, b: &Row) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let o = x.total_cmp(y);
        if o != std::cmp::Ordering::Equal {
            return o;
        }
    }
    a.len().cmp(&b.len())
}

/// [`Table::column_index`] over a bare column list, so layout-only passes
/// (plan compilation) can replay result-column resolution without
/// materializing a table.
///
/// Resolution is in four steps, mirroring SQL name resolution: exact match
/// on the full (possibly qualified) name; unambiguous match on the
/// unqualified suffix (`CID` matches `c2.CID`); then case-insensitive
/// versions of both rules.
pub fn column_index_in(columns: &[String], name: &str) -> Option<usize> {
    if let Some(i) = columns.iter().position(|c| c == name) {
        return Some(i);
    }
    let suffix_matches: Vec<usize> = columns
        .iter()
        .enumerate()
        .filter(|(_, c)| unqualified(c) == name)
        .map(|(i, _)| i)
        .collect();
    if suffix_matches.len() == 1 {
        return Some(suffix_matches[0]);
    }
    if let Some(i) = columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
        return Some(i);
    }
    let ci_matches: Vec<usize> = columns
        .iter()
        .enumerate()
        .filter(|(_, c)| unqualified(c).eq_ignore_ascii_case(name))
        .map(|(i, _)| i)
        .collect();
    if ci_matches.len() == 1 {
        return Some(ci_matches[0]);
    }
    None
}

/// Strips a qualifier prefix: `c2.CID` → `CID`.
pub fn unqualified(name: &str) -> &str {
    match name.rsplit_once('.') {
        Some((_, suffix)) => suffix,
        None => name,
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "| {} |", self.columns.join(" | "))?;
        writeln!(f, "|{}|", self.columns.iter().map(|_| "---").collect::<Vec<_>>().join("|"))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "| {} |", cells.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn column_resolution() {
        let t = Table::new(["c2.CID", "cnt"]);
        assert_eq!(t.column_index("c2.CID"), Some(0));
        assert_eq!(t.column_index("CID"), Some(0));
        assert_eq!(t.column_index("cid"), Some(0));
        assert_eq!(t.column_index("cnt"), Some(1));
        assert_eq!(t.column_index("missing"), None);
    }

    #[test]
    fn ambiguous_suffix_is_rejected() {
        let t = Table::new(["a.id", "b.id"]);
        assert_eq!(t.column_index("id"), None);
        assert_eq!(t.column_index("a.id"), Some(0));
    }

    #[test]
    fn equivalence_modulo_column_permutation() {
        let t1 = Table::with_rows(["a", "b"], vec![vec![v(1), v(10)], vec![v(2), v(20)]]);
        let t2 = Table::with_rows(["y", "x"], vec![vec![v(20), v(2)], vec![v(10), v(1)]]);
        assert!(t1.equivalent(&t2));
        assert!(t2.equivalent(&t1));
    }

    #[test]
    fn equivalence_respects_multiplicity() {
        let t1 = Table::with_rows(["a"], vec![vec![v(1)], vec![v(1)], vec![v(2)]]);
        let t2 = Table::with_rows(["a"], vec![vec![v(1)], vec![v(2)], vec![v(2)]]);
        assert!(!t1.equivalent(&t2));
        let t3 = Table::with_rows(["a"], vec![vec![v(2)], vec![v(1)], vec![v(1)]]);
        assert!(t1.equivalent(&t3));
    }

    #[test]
    fn equivalence_motivating_example_tables_differ() {
        // Figure 4b vs Figure 4d: (1, 2) vs (1, 4).
        let sql = Table::with_rows(["c2.CID", "Count(*)"], vec![vec![v(1), v(2)]]);
        let cypher = Table::with_rows(["c2.CID", "Count(*)"], vec![vec![v(1), v(4)]]);
        assert!(!sql.equivalent(&cypher));
    }

    #[test]
    fn column_multiset_match_is_not_sufficient() {
        // Column-wise multisets agree but row combinations differ.
        let t1 = Table::with_rows(["a", "b"], vec![vec![v(1), v(2)], vec![v(2), v(1)]]);
        let t2 = Table::with_rows(["a", "b"], vec![vec![v(1), v(1)], vec![v(2), v(2)]]);
        assert!(!t1.equivalent(&t2));
    }

    #[test]
    fn ordered_equivalence() {
        let t1 = Table::with_rows(["a"], vec![vec![v(1)], vec![v(2)]]);
        let t2 = Table::with_rows(["b"], vec![vec![v(2)], vec![v(1)]]);
        assert!(t1.equivalent(&t2));
        assert!(!t1.equivalent_ordered(&t2));
        let t3 = Table::with_rows(["b"], vec![vec![v(1)], vec![v(2)]]);
        assert!(t1.equivalent_ordered(&t3));
    }

    #[test]
    fn dedup_keeps_first() {
        let t = Table::with_rows(["a"], vec![vec![v(1)], vec![v(1)], vec![v(2)]]);
        let d = t.dedup();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn different_arity_or_cardinality_not_equivalent() {
        let t1 = Table::with_rows(["a"], vec![vec![v(1)]]);
        let t2 = Table::with_rows(["a", "b"], vec![vec![v(1), v(2)]]);
        assert!(!t1.equivalent(&t2));
        let t3 = Table::with_rows(["a"], vec![vec![v(1)], vec![v(1)]]);
        assert!(!t1.equivalent(&t3));
    }

    #[test]
    fn nulls_compare_equal_in_table_equivalence() {
        let t1 = Table::with_rows(["a"], vec![vec![Value::Null]]);
        let t2 = Table::with_rows(["b"], vec![vec![Value::Null]]);
        assert!(t1.equivalent(&t2));
    }

    #[test]
    fn absorb_equals_sequential_application() {
        // Folding deltas with `absorb` must equal applying them one at a
        // time, in both storage layouts.  Exercised over an LCG-driven
        // mix of patches, removals (of base and freshly-appended rows),
        // and appends.
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        };
        for _ in 0..50 {
            let base_rows = next() % 8;
            let base = Table::with_rows(
                ["a", "b"],
                (0..base_rows).map(|i| vec![v(i as i64), v(100 + i as i64)]).collect::<Vec<_>>(),
            );
            let mut sequential = base.clone();
            let mut folded = TableDelta::new();
            for step in 0..(1 + next() % 4) {
                let rows = sequential.len();
                let mut d = TableDelta::new();
                if rows > 0 && next() % 2 == 0 {
                    d.patches.push((next() % rows, next() % 2, v(1000 + step as i64)));
                }
                if rows > 0 && next() % 3 == 0 {
                    d.removed.push((next() % rows) as u32);
                    if rows > 1 && next() % 2 == 0 {
                        d.removed.push((next() % rows) as u32);
                    }
                    d.removed.sort_unstable();
                    d.removed.dedup();
                }
                for _ in 0..next() % 3 {
                    d.appended.push(vec![v(2000 + step as i64), v(3000 + step as i64)]);
                }
                sequential = sequential.apply_delta(&d);
                folded.absorb(base_rows, &d);
            }
            assert_eq!(base.apply_delta(&folded), sequential, "row layouts diverge");
            let col = crate::column::ColumnTable::from_table(&base);
            assert_eq!(col.apply_delta(&folded).to_table(), sequential, "columnar layout diverges");
        }
    }
}
