//! The `‖·‖` counting primitives expressed as real SQL, and the
//! [`SqlBackend`] that serves them through the counting seam.
//!
//! §2 of the paper defines `‖r[X]‖` as
//! `SELECT COUNT (DISTINCT X) FROM R` — "this function can be computed
//! in any SQL-like language". The pipeline normally uses the columnar
//! backends of `dbre-relational` for speed; this module generates the
//! *actual SQL* and runs it through this crate's parser, so the
//! interchangeability claim is a tested property rather than a remark
//! (the four-way backend differential suite pins it).
//!
//! Every generated statement is parsed and its names resolved against
//! the schema. The two shapes generation produces — a `COUNT(DISTINCT
//! …)` over one table, and the same count over a two-table equi-join on
//! the counted columns — are recognised as the `‖·‖` primitives they
//! are and run on the dictionary-code kernels of an owned
//! [`EncodedBackend`]. Any other statement runs whole on the tuple
//! interpreter ([`execute_query`]). There is no third path.
//!
//! [`SqlBackend`] implements
//! [`CountBackend`] — it lives
//! here rather than in `dbre-relational` to respect the dependency
//! direction (the relational substrate knows nothing about SQL). The
//! cardinality probes (`count_distinct`, `join_stats`, and through
//! them `ind_holds`) run generated SQL; the probes the paper never
//! claims SQL for — row-index LHS groups, value projections, stripped
//! partitions — fall back to the `Value`-based reference semantics
//! client-side, exactly as a DBRE tool sitting next to a legacy DBMS
//! would post-process fetched rows.

use dbre_relational::attr::AttrId;
use dbre_relational::backend::{BackendExecStats, CountBackend, EncodedBackend, ReferenceBackend};
use dbre_relational::counting::{EquiJoin, JoinStats};
use dbre_relational::database::Database;
use dbre_relational::deps::IndSide;
use dbre_relational::encode::ColumnDict;
use dbre_relational::schema::RelId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::ast::{ColumnRef, Expr, Query, SelectItem};
use crate::executor::execute_query;
use crate::token::Keyword;
use crate::{run_sql, SqlResult};

/// Renders an identifier for the generated SQL. Hyphenated legacy
/// names (`project-name`) must be double-quoted: left bare in an
/// expression they read as subtraction (`project - name`), silently
/// changing the counted value wherever both operands happen to resolve.
/// Names that lex as keywords (`Order`, `count`, `date`) are quoted
/// too, or the statement would not parse. Anything not lexable as a
/// plain identifier is double-quoted, with embedded double quotes
/// escaped by doubling (SQL-92) so a name containing `"` round-trips
/// through the lexer instead of producing an unparseable statement.
pub fn ident(name: &str) -> String {
    let plain = name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && Keyword::from_word(name).is_none();
    if plain {
        name.to_string()
    } else {
        format!("\"{}\"", name.replace('"', "\"\""))
    }
}

fn side_cols(db: &Database, side: &IndSide, alias: &str) -> Vec<String> {
    let rel = db.schema.relation(side.rel);
    side.attrs
        .iter()
        .map(|a| format!("{alias}.{}", ident(rel.attr_name(*a))))
        .collect()
}

/// The SQL text for `‖r[X]‖` of one side.
pub fn count_side_sql(db: &Database, side: &IndSide) -> String {
    let rel = db.schema.relation(side.rel);
    format!(
        "SELECT COUNT(DISTINCT {}) FROM {} x",
        side_cols(db, side, "x").join(", "),
        ident(&rel.name)
    )
}

/// The SQL text for `‖r_k[A_k] ⋈ r_l[A_l]‖`.
pub fn count_join_sql(db: &Database, join: &EquiJoin) -> String {
    let lrel = db.schema.relation(join.left.rel);
    let rrel = db.schema.relation(join.right.rel);
    let lcols = side_cols(db, &join.left, "x");
    let rcols = side_cols(db, &join.right, "y");
    let conds: Vec<String> = lcols
        .iter()
        .zip(&rcols)
        .map(|(l, r)| format!("{l} = {r}"))
        .collect();
    format!(
        "SELECT COUNT(DISTINCT {}) FROM {} x, {} y WHERE {}",
        lcols.join(", "),
        ident(&lrel.name),
        ident(&rrel.name),
        conds.join(" AND ")
    )
}

/// Computes the three IND-Discovery cardinalities by *executing SQL*
/// against the database — the fidelity path, also available without
/// going through a [`SqlBackend`].
pub fn join_stats_via_sql(db: &Database, join: &EquiJoin) -> SqlResult<JoinStats> {
    let n_left = run_sql(db, &count_side_sql(db, &join.left))?.count()?;
    let n_right = run_sql(db, &count_side_sql(db, &join.right))?.count()?;
    let n_join = run_sql(db, &count_join_sql(db, join))?.count()?;
    Ok(JoinStats {
        n_left,
        n_right,
        n_join,
    })
}

/// A generated statement recognised as one of the paper's `‖·‖`
/// primitives.
#[derive(Debug, PartialEq)]
enum Probe {
    /// `SELECT COUNT(DISTINCT x.a…) FROM r x` — `‖r[A]‖`.
    Distinct(RelId, Vec<AttrId>),
    /// `SELECT COUNT(DISTINCT x.a…) FROM r x, s y WHERE x.a… = y.b…`,
    /// counting exactly one side's join columns in order —
    /// `‖r[A] ⋈ s[B]‖`, with the counted side on the left.
    Join(EquiJoin),
}

/// Resolves a column against the FROM bindings by the tuple
/// interpreter's rules: `(binding index, attribute)`, or `None` when
/// the name is unknown or ambiguous.
fn resolve(db: &Database, tables: &[(&str, RelId)], c: &ColumnRef) -> Option<(usize, AttrId)> {
    let mut found = None;
    for (i, &(name, rel)) in tables.iter().enumerate() {
        if c.qualifier.as_deref().is_some_and(|q| q != name) {
            continue;
        }
        match db.schema.relation(rel).attr_id(&c.name) {
            Some(_) if found.is_some() => return None,
            Some(attr) => found = Some((i, attr)),
            None if c.qualifier.is_some() => return None,
            None => {}
        }
    }
    found
}

/// Recognises the two statement shapes [`count_side_sql`] and
/// [`count_join_sql`] generate, with every name resolved against the
/// schema. Anything else — another shape, a filter, an unknown or
/// ambiguous name — is `None`, and the caller runs the whole statement
/// on the tuple interpreter, which also words any error.
fn recognize(db: &Database, query: &Query) -> Option<Probe> {
    let s = &query.body;
    if query.compound.is_some()
        || s.distinct
        || !s.group_by.is_empty()
        || s.having.is_some()
        || !s.order_by.is_empty()
    {
        return None;
    }
    let [SelectItem::Expr {
        expr: Expr::CountDistinct(counted),
        ..
    }] = s.items.as_slice()
    else {
        return None;
    };
    let mut tables: Vec<(&str, RelId)> = Vec::with_capacity(s.from.len());
    for t in &s.from {
        let name = t.binding();
        if tables.iter().any(|&(n, _)| n == name) {
            return None;
        }
        tables.push((name, db.rel(&t.table).ok()?));
    }
    let counted = counted
        .iter()
        .map(|c| resolve(db, &tables, c))
        .collect::<Option<Vec<_>>>()?;
    let side = counted.first()?.0;
    if counted.iter().any(|&(t, _)| t != side) {
        return None;
    }
    let attrs: Vec<AttrId> = counted.into_iter().map(|(_, a)| a).collect();
    let mut conds = s
        .join_conds
        .iter()
        .chain(&s.where_clause)
        .flat_map(Expr::conjuncts);
    match tables.as_slice() {
        [(_, rel)] => conds
            .next()
            .is_none()
            .then_some(Probe::Distinct(*rel, attrs)),
        [_, _] => {
            // Every conjunct pairs a column of one table with a column
            // of the other; `cols[t]` lists table `t`'s side in order.
            let mut cols: [Vec<AttrId>; 2] = Default::default();
            for c in conds {
                let (l, r) = c.as_column_equality()?;
                let (tl, al) = resolve(db, &tables, l)?;
                let (tr, ar) = resolve(db, &tables, r)?;
                if tl == tr {
                    return None;
                }
                cols[tl].push(al);
                cols[tr].push(ar);
            }
            if cols[side] != attrs {
                return None;
            }
            let other = std::mem::take(&mut cols[1 - side]);
            EquiJoin::try_new(
                IndSide::new(tables[side].1, attrs),
                IndSide::new(tables[1 - side].1, other),
            )
            .ok()
            .map(Probe::Join)
        }
        _ => None,
    }
}

/// The generated-SQL counting backend: every `‖·‖` probe is a real
/// `SELECT COUNT(DISTINCT …)` statement, the way a DBRE tool would
/// interrogate a live legacy DBMS.
///
/// Each statement is parsed and recognised: the two generated shapes
/// run on the dictionary-code kernels of an owned [`EncodedBackend`],
/// so the dictionaries built for one probe serve every later probe
/// touching the same columns; any other statement runs whole on the
/// tuple interpreter. [`SqlBackend::exec_stats`] reports how often
/// each path served.
///
/// The backend trait is infallible by design (counting cannot fail on
/// a well-formed schema); if a generated statement nevertheless fails
/// to execute, the probe falls back to the reference computation and
/// the failure is counted in [`SqlBackend::failures`] — the
/// differential tests assert that counter stays at zero, so a quoting
/// or generation bug cannot hide behind the fallback.
#[derive(Default)]
pub struct SqlBackend {
    reference: ReferenceBackend,
    /// Dictionary caches + counting kernels behind recognised probes.
    encoded: EncodedBackend,
    failures: AtomicU64,
    kernel_ops: AtomicU64,
    tuple_ops: AtomicU64,
}

// Compile-time proof the SQL backend can be shared by concurrent
// sessions like the in-crate backends (which `dbre-relational`
// asserts the same way): nothing but atomics and the already-`Sync`
// reference/encoded backends inside.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SqlBackend>();
};

impl std::fmt::Debug for SqlBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SqlBackend")
            .field("failures", &self.failures)
            .field("kernel_ops", &self.kernel_ops)
            .field("tuple_ops", &self.tuple_ops)
            .finish_non_exhaustive()
    }
}

impl SqlBackend {
    /// A fresh SQL backend.
    pub fn new() -> Self {
        SqlBackend::default()
    }

    /// How many generated statements failed to execute and were served
    /// by the reference fallback instead. Zero on a healthy backend.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Parses one generated count statement and runs it: on the
    /// kernels when [`recognize`] knows its shape, otherwise whole on
    /// the tuple interpreter. Each path's use is counted.
    fn run_probe(&self, db: &Database, sql: &str) -> SqlResult<usize> {
        let query = crate::parser::parse_query(sql)?;
        let Some(probe) = recognize(db, &query) else {
            self.tuple_ops.fetch_add(1, Ordering::Relaxed);
            return execute_query(db, &query)?.count();
        };
        self.kernel_ops.fetch_add(1, Ordering::Relaxed);
        Ok(match probe {
            Probe::Distinct(rel, attrs) => self.encoded.count_distinct(db, rel, &attrs),
            Probe::Join(join) => self.encoded.join_stats(db, &join).n_join,
        })
    }

    /// `‖rel[attrs]‖` via SQL, falling back to the reference scan (and
    /// counting the failure) if the statement does not execute.
    fn count_side(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
        let side = IndSide::new(rel, attrs.to_vec());
        match self.run_probe(db, &count_side_sql(db, &side)) {
            Ok(n) => n,
            Err(_) => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                self.reference.count_distinct(db, rel, attrs)
            }
        }
    }

    /// The three IND-Discovery cardinalities via generated SQL.
    fn join_stats_probe(&self, db: &Database, join: &EquiJoin) -> SqlResult<JoinStats> {
        Ok(JoinStats {
            n_left: self.run_probe(db, &count_side_sql(db, &join.left))?,
            n_right: self.run_probe(db, &count_side_sql(db, &join.right))?,
            n_join: self.run_probe(db, &count_join_sql(db, join))?,
        })
    }
}

impl CountBackend for SqlBackend {
    fn name(&self) -> &'static str {
        "sql"
    }

    fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
        if attrs.is_empty() {
            // `COUNT(DISTINCT)` needs at least one column; the empty
            // projection is a degenerate probe only the test harness
            // produces. Served by the reference semantics, not counted
            // as a failure.
            return self.reference.count_distinct(db, rel, attrs);
        }
        self.count_side(db, rel, attrs)
    }

    fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats {
        match self.join_stats_probe(db, join) {
            Ok(stats) => stats,
            Err(_) => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                self.reference.join_stats(db, join)
            }
        }
    }

    fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>> {
        // Row indices are not expressible in the legacy SQL subset
        // (and the paper only claims SQL for the `‖·‖` counts, §2);
        // group client-side with the reference semantics, like a tool
        // post-processing fetched rows.
        self.reference.lhs_groups(db, rel, attrs)
    }

    fn column_dict(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnDict>> {
        self.encoded.column_dict(db, rel, attr)
    }

    fn exec_stats(&self) -> BackendExecStats {
        BackendExecStats {
            fallback_failures: self.failures.load(Ordering::Relaxed),
            batch_ops: self.kernel_ops.load(Ordering::Relaxed),
            tuple_fallback_ops: self.tuple_ops.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn odd_names_get_quoted() {
        assert_eq!(ident("weird name"), "\"weird name\"");
        assert_eq!(ident("3col"), "\"3col\"");
        assert_eq!(ident("plain_name-2"), "\"plain_name-2\"");
        assert_eq!(ident("plain_name2"), "plain_name2");
        // Embedded quotes are escaped by doubling, not passed through.
        assert_eq!(ident("wei\"rd"), "\"wei\"\"rd\"");
        assert_eq!(ident("\""), "\"\"\"\"");
    }

    #[test]
    fn sql_backend_composite_join_round_trip() {
        use crate::Catalog;
        let mut cat = Catalog::new();
        cat.load_script(
            "CREATE TABLE A (x INT, y INT); CREATE TABLE B (u INT, v INT);
             INSERT INTO A VALUES (1,1), (1,2), (2,1), (1,1);
             INSERT INTO B VALUES (1,1), (2,1), (3,3);",
        )
        .unwrap();
        let db = cat.into_database();
        let (a, a_ids) = db.resolve("A", &["x", "y"]).unwrap();
        let (b, b_ids) = db.resolve("B", &["u", "v"]).unwrap();
        let join = EquiJoin::try_new(IndSide::new(a, a_ids), IndSide::new(b, b_ids)).unwrap();
        let backend = SqlBackend::new();
        let stats = backend.join_stats(&db, &join);
        assert_eq!(stats, ReferenceBackend.join_stats(&db, &join));
        assert_eq!(stats.n_join, 2); // pairs (1,1) and (2,1)
        assert_eq!(backend.failures(), 0, "no statement fell back");
    }

    #[test]
    fn sql_backend_quoted_identifiers_round_trip() {
        use crate::Catalog;
        let mut cat = Catalog::new();
        // Hyphenated legacy names: bare `x.zip-code` would lex as a
        // subtraction, so generation must quote.
        cat.load_script(
            "CREATE TABLE Addr (\"zip-code\" INT, \"street name\" CHAR(20));
             INSERT INTO Addr VALUES (10, 'a'), (10, 'b'), (20, 'c');",
        )
        .unwrap();
        let db = cat.into_database();
        let (rel, ids) = db.resolve("Addr", &["zip-code"]).unwrap();
        let side = IndSide::new(rel, ids.clone());
        assert_eq!(
            count_side_sql(&db, &side),
            "SELECT COUNT(DISTINCT x.\"zip-code\") FROM Addr x"
        );
        let backend = SqlBackend::new();
        assert_eq!(backend.count_distinct(&db, rel, &ids), 2);
        let (_, both) = db.resolve("Addr", &["zip-code", "street name"]).unwrap();
        assert_eq!(backend.count_distinct(&db, rel, &both), 3);
        assert_eq!(backend.failures(), 0, "quoted identifiers executed");

        // Names that lex as keywords: bare `FROM Order x` or
        // `x.count` would not parse at all.
        let mut cat = Catalog::new();
        cat.load_script(
            "CREATE TABLE \"Order\" (\"count\" INT, \"group\" INT, date INT);
             CREATE TABLE Item (\"order\" INT);
             INSERT INTO \"Order\" VALUES (1, 1, 7), (2, 1, 7), (2, NULL, 8);
             INSERT INTO Item VALUES (2), (2), (3), (NULL);",
        )
        .unwrap();
        let db = cat.into_database();
        let (order, order_ids) = db.resolve("Order", &["count", "group", "date"]).unwrap();
        let (item, item_ids) = db.resolve("Item", &["order"]).unwrap();
        assert_eq!(
            count_side_sql(&db, &IndSide::new(order, vec![order_ids[0]])),
            "SELECT COUNT(DISTINCT x.\"count\") FROM \"Order\" x"
        );
        let backend = SqlBackend::new();
        for (attr, n) in order_ids.iter().zip([2, 1, 2]) {
            assert_eq!(backend.count_distinct(&db, order, &[*attr]), n);
        }
        let join = EquiJoin::try_new(
            IndSide::new(item, item_ids),
            IndSide::new(order, vec![order_ids[0]]),
        )
        .unwrap();
        let stats = backend.join_stats(&db, &join);
        assert_eq!(stats, ReferenceBackend.join_stats(&db, &join));
        assert_eq!(stats.n_join, 1); // only 2 is both an order and an item
        assert_eq!(backend.failures(), 0, "keyword identifiers executed");
        assert_eq!(backend.exec_stats().tuple_fallback_ops, 0);
    }

    /// Fixture for the recognizer tests: NULLs on both sides of the
    /// joinable columns, duplicate rows, a text column.
    fn db() -> Database {
        let mut cat = crate::Catalog::new();
        cat.load_script(
            "CREATE TABLE A (x INT, y INT, s CHAR(8));
             CREATE TABLE B (u INT, v INT);
             INSERT INTO A VALUES (1, 1, 'a'), (1, 2, 'b'), (2, 1, 'a'),
                                  (1, 1, 'c'), (NULL, 3, 'a'), (4, NULL, NULL);
             INSERT INTO B VALUES (1, 1), (2, 1), (3, 3), (NULL, 1), (1, 9);",
        )
        .unwrap();
        cat.into_database()
    }

    #[test]
    fn tier_one_lowers_counts_without_enumeration() {
        let db = db();
        let a = db.rel("A").unwrap();
        let b = db.rel("B").unwrap();
        let (x, y, u, v) = (AttrId(0), AttrId(1), AttrId(0), AttrId(1));
        let join = |l: IndSide, r: IndSide| Probe::Join(EquiJoin::try_new(l, r).unwrap());
        for (sql, probe) in [
            // ‖A[x]‖ and ‖A[x,y]‖.
            (
                "SELECT COUNT(DISTINCT x.x) FROM A x",
                Probe::Distinct(a, vec![x]),
            ),
            (
                "SELECT COUNT(DISTINCT x.x, x.y) FROM A x",
                Probe::Distinct(a, vec![x, y]),
            ),
            // The join count, counted side first.
            (
                "SELECT COUNT(DISTINCT x.x) FROM A x, B y WHERE x.x = y.u",
                join(IndSide::new(a, vec![x]), IndSide::new(b, vec![u])),
            ),
            (
                "SELECT COUNT(DISTINCT y.u) FROM A x, B y WHERE x.x = y.u",
                join(IndSide::new(b, vec![u]), IndSide::new(a, vec![x])),
            ),
            // Composite join pair, counted columns = join columns.
            (
                "SELECT COUNT(DISTINCT x.x, x.y) FROM A x, B y WHERE x.x = y.u AND y.v = x.y",
                join(IndSide::new(a, vec![x, y]), IndSide::new(b, vec![u, v])),
            ),
            // Bare names resolve like qualified ones.
            (
                "SELECT COUNT(DISTINCT x) FROM A x, B y WHERE x = u",
                join(IndSide::new(a, vec![x]), IndSide::new(b, vec![u])),
            ),
        ] {
            let q = parse_query(sql).unwrap();
            assert_eq!(recognize(&db, &q), Some(probe), "{sql}");
            // Served by the kernels, with the tuple interpreter's answer.
            let backend = SqlBackend::new();
            let want = run_sql(&db, sql).unwrap().count().unwrap();
            assert_eq!(backend.run_probe(&db, sql).unwrap(), want, "{sql}");
            let stats = backend.exec_stats();
            assert_eq!((stats.batch_ops, stats.tuple_fallback_ops), (1, 0), "{sql}");
        }
    }

    #[test]
    fn out_of_model_shapes_are_rejected_not_wrong() {
        let db = db();
        for sql in [
            "SELECT * FROM A x",                                             // wildcard
            "SELECT MIN(x.x) FROM A x",                                      // non-count agg
            "SELECT x.x FROM A x ORDER BY x.x",                              // ordering
            "SELECT x.x, COUNT(*) FROM A x GROUP BY x.x",                    // grouping
            "SELECT COUNT(*) FROM A x",                                      // not generated
            "SELECT COUNT(DISTINCT x.x) FROM A x, B y",                      // cross product
            "SELECT COUNT(DISTINCT x.y) FROM A x, B y WHERE x.x = y.u",      // counted ≠ join
            "SELECT COUNT(DISTINCT x.x) FROM A x, B y WHERE x.x = x.y",      // same-table eq
            "SELECT COUNT(DISTINCT x.x) FROM A x WHERE x.y = 1",             // filter
            "SELECT COUNT(DISTINCT x.x) FROM A x UNION SELECT y.u FROM B y", // compound
            "SELECT COUNT(DISTINCT x.x) FROM A x, A x WHERE x.x = x.y",      // duplicate binding
            "SELECT COUNT(DISTINCT y) FROM A x, A z WHERE y = y",            // ambiguous
            "SELECT COUNT(DISTINCT ghost.z) FROM A x",                       // unresolvable
            "SELECT COUNT(DISTINCT x.x) FROM Nope x",                        // unknown table
        ] {
            let q = parse_query(sql).unwrap();
            assert_eq!(recognize(&db, &q), None, "{sql}");
            // The tuple interpreter answers, errors included.
            let backend = SqlBackend::new();
            let want = run_sql(&db, sql).and_then(|rs| rs.count());
            assert_eq!(backend.run_probe(&db, sql), want, "{sql}");
            let stats = backend.exec_stats();
            assert_eq!((stats.batch_ops, stats.tuple_fallback_ops), (0, 1), "{sql}");
        }
    }
}
