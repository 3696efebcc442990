//! Four-way backend differential suite: [`ReferenceBackend`],
//! [`EncodedBackend`], [`PagedBackend`], and [`SqlBackend`] must agree
//! *exactly* on every probe of the counting seam — `‖·‖` counts, join
//! stats, FD checks, LHS row groups — over generated tables biased
//! toward collisions, NULLs, and NaN.
//!
//! This is the paper's §2 interchangeability claim ("this function can
//! be computed in any SQL-like language") as a tested property: the
//! SQL path executes real generated `SELECT COUNT(DISTINCT …)`
//! statements, and [`SqlBackend::failures`] is asserted zero in every
//! property, so a quoting or generation bug cannot hide behind the
//! reference fallback. The same file gates the default and `parallel`
//! builds, and a CI leg re-runs the whole core pipeline suite with
//! `DBRE_BACKEND=sql` on top (the suite here always covers all four
//! backends regardless of that variable).

// Test-support helpers outside #[test] fns; panicking on fixture
// failure is test behaviour.
#![allow(clippy::expect_used)]

use std::sync::Arc;

use dbre_relational::attr::AttrId;
use dbre_relational::backend::{CountBackend, EncodedBackend, PagedBackend, ReferenceBackend};
use dbre_relational::bufpool::BufferPool;
use dbre_relational::counting::EquiJoin;
use dbre_relational::database::Database;
use dbre_relational::deps::{Fd, IndSide};
use dbre_relational::schema::{RelId, Relation};
use dbre_relational::table::Table;
use dbre_relational::value::{Domain, Value};
use dbre_sql::SqlBackend;
use proptest::prelude::*;

// ---- generators (collision/NULL/NaN-biased, like encode_differential)

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..4).prop_map(Value::Int),
        (0i64..4).prop_map(Value::Int),
        (0i64..4).prop_map(Value::Int),
        Just(Value::Null),
        Just(Value::Null),
        Just(Value::str("a")),
        Just(Value::str("b")),
        Just(Value::float(f64::NAN)),
        Just(Value::float(0.5)),
        Just(Value::float(-0.0)),
    ]
}

fn raw_rows(max_arity: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(prop::collection::vec(value(), max_arity), 0..30)
}

fn make_table(arity: usize, rows: Vec<Vec<Value>>) -> Table {
    let rows = rows.into_iter().map(|mut r| {
        r.truncate(arity);
        r
    });
    Table::from_rows(arity, rows).expect("rows match arity")
}

/// `(table, non-empty attrs)`: the SQL path needs at least one column
/// (`COUNT(DISTINCT)` of nothing is not a statement); the empty-attrs
/// degenerate probe is covered by `encode_differential`.
fn table_and_attrs() -> impl Strategy<Value = (Table, Vec<AttrId>)> {
    (1usize..5, raw_rows(4), prop::collection::vec(0u16..4, 1..4)).prop_map(
        |(arity, rows, attrs)| {
            let attrs = attrs
                .into_iter()
                .map(|i| AttrId(i % arity as u16))
                .collect();
            (make_table(arity, rows), attrs)
        },
    )
}

#[allow(clippy::type_complexity)]
fn join_case() -> impl Strategy<Value = (Table, Vec<AttrId>, Table, Vec<AttrId>)> {
    (
        1usize..4,
        1usize..4,
        raw_rows(3),
        raw_rows(3),
        prop::collection::vec((0u16..3, 0u16..3), 1..3),
    )
        .prop_map(|(la, ra, lrows, rrows, pairs)| {
            let lattrs = pairs.iter().map(|&(l, _)| AttrId(l % la as u16)).collect();
            let rattrs = pairs.iter().map(|&(_, r)| AttrId(r % ra as u16)).collect();
            (make_table(la, lrows), lattrs, make_table(ra, rrows), rattrs)
        })
}

/// Wraps tables into a database with plainly-named relations/columns
/// so generated SQL parses (`add_relation_with_table` skips domain
/// validation, so the mixed-type proptest columns are fine — the
/// executor compares `Value`s structurally, like the reference).
fn db_of(tables: &[&Table]) -> (Database, Vec<RelId>) {
    let mut db = Database::new();
    let mut rels = Vec::new();
    for (k, t) in tables.iter().enumerate() {
        let cols: Vec<(String, Domain)> = (0..t.arity())
            .map(|i| (format!("c{i}"), Domain::Int))
            .collect();
        let named: Vec<(&str, Domain)> = cols.iter().map(|(n, d)| (n.as_str(), *d)).collect();
        rels.push(
            db.add_relation_with_table(Relation::of(&format!("T{k}"), &named), (*t).clone())
                .expect("arity matches"),
        );
    }
    (db, rels)
}

/// The matrix under test. Boxed so the concrete types share one loop;
/// the SQL backend is returned separately for its failure probe. The
/// paged backend runs with a deliberately tiny pool (one page) so every
/// property also exercises eviction and re-fault paths; correctness
/// must not depend on residency.
fn backends() -> (Vec<Box<dyn CountBackend>>, SqlBackend) {
    (
        vec![
            Box::new(ReferenceBackend),
            Box::new(EncodedBackend::new()),
            Box::new(PagedBackend::with_pool(Arc::new(
                BufferPool::with_capacity_pages(1),
            ))),
        ],
        SqlBackend::new(),
    )
}

proptest! {
    /// `‖r[attrs]‖` agrees across all four backends.
    #[test]
    fn counts_agree(case in table_and_attrs()) {
        let (t, attrs) = case;
        let (db, rels) = db_of(&[&t]);
        let rel = rels[0];
        let (others, sql) = backends();
        let expected = ReferenceBackend.count_distinct(&db, rel, &attrs);
        for b in &others {
            prop_assert_eq!(b.count_distinct(&db, rel, &attrs), expected, "backend {}", b.name());
        }
        prop_assert_eq!(sql.count_distinct(&db, rel, &attrs), expected, "backend sql");
        prop_assert_eq!(sql.failures(), 0, "generated SQL must execute");
        prop_assert_eq!(
            sql.exec_stats().tuple_fallback_ops, 0,
            "generated SQL must lower onto the kernels"
        );
    }

    /// The three IND-Discovery cardinalities agree across backends,
    /// including composite joins.
    #[test]
    fn join_stats_agree(case in join_case()) {
        let (lt, lattrs, rt, rattrs) = case;
        let (db, rels) = db_of(&[&lt, &rt]);
        let join = EquiJoin::try_new(
            IndSide::new(rels[0], lattrs),
            IndSide::new(rels[1], rattrs),
        )
        .expect("equal arity by construction");
        let (others, sql) = backends();
        let expected = ReferenceBackend.join_stats(&db, &join);
        for b in &others {
            prop_assert_eq!(b.join_stats(&db, &join), expected, "backend {}", b.name());
        }
        prop_assert_eq!(sql.join_stats(&db, &join), expected, "backend sql");
        prop_assert_eq!(sql.failures(), 0, "generated SQL must execute");
        prop_assert_eq!(
            sql.exec_stats().tuple_fallback_ops, 0,
            "generated SQL must lower onto the kernels"
        );

        // ind_holds is derived from join_stats through the seam; pin
        // the derived answer too (left side included iff n_join = n_left).
        let ind = dbre_relational::deps::Ind {
            lhs: join.left.clone(),
            rhs: join.right.clone(),
        };
        let holds = db.ind_holds(&ind);
        for b in &others {
            prop_assert_eq!(b.ind_holds(&db, &ind), holds, "backend {}", b.name());
        }
        prop_assert_eq!(sql.ind_holds(&db, &ind), holds, "backend sql");
    }

    /// FD checks (SQL NULL convention) agree across backends.
    #[test]
    fn fd_checks_agree(
        case in table_and_attrs(),
        rhs_seed in prop::collection::vec(0u16..4, 1..3),
    ) {
        let (t, lhs) = case;
        let rhs: Vec<AttrId> = rhs_seed
            .into_iter()
            .map(|i| AttrId(i % t.arity() as u16))
            .collect();
        let (db, rels) = db_of(&[&t]);
        let fd = Fd::new(
            rels[0],
            lhs.iter().copied().collect(),
            rhs.iter().copied().collect(),
        );
        let (others, sql) = backends();
        let expected = db.fd_holds(&fd);
        for b in &others {
            prop_assert_eq!(b.fd_holds(&db, &fd), expected, "backend {}", b.name());
        }
        prop_assert_eq!(sql.fd_holds(&db, &fd), expected, "backend sql");
        prop_assert_eq!(sql.failures(), 0, "generated SQL must execute");
    }

    /// LHS row groups (row indices, SQL NULL convention) agree across
    /// backends — membership and ordering.
    #[test]
    fn lhs_groups_agree(case in table_and_attrs()) {
        let (t, attrs) = case;
        let (db, rels) = db_of(&[&t]);
        let rel = rels[0];
        let (others, sql) = backends();
        let expected = ReferenceBackend.lhs_groups(&db, rel, &attrs);
        for b in &others {
            prop_assert_eq!(&b.lhs_groups(&db, rel, &attrs), &expected, "backend {}", b.name());
        }
        prop_assert_eq!(&sql.lhs_groups(&db, rel, &attrs), &expected, "backend sql");
    }

    /// The paged backend agrees with the reference at *any* buffer-pool
    /// capacity, down to a single resident page: the streaming kernels
    /// hold page `Arc`s while they work, so eviction pressure can slow
    /// a probe but never change its answer, and no probe may silently
    /// degrade to the reference fallback.
    #[test]
    fn paged_backend_agrees_at_any_pool_capacity(
        case in table_and_attrs(),
        capacity_pages in 1usize..6,
    ) {
        let (t, attrs) = case;
        let (db, rels) = db_of(&[&t]);
        let rel = rels[0];
        let paged = PagedBackend::with_pool(Arc::new(
            BufferPool::with_capacity_pages(capacity_pages),
        ));
        paged.prewarm(&db, rel);
        prop_assert_eq!(
            paged.count_distinct(&db, rel, &attrs),
            ReferenceBackend.count_distinct(&db, rel, &attrs),
            "count_distinct at {} pages", capacity_pages
        );
        prop_assert_eq!(
            paged.lhs_groups(&db, rel, &attrs),
            ReferenceBackend.lhs_groups(&db, rel, &attrs),
            "lhs_groups at {} pages", capacity_pages
        );
        prop_assert_eq!(
            paged.exec_stats().fallback_failures, 0,
            "paged probes must stream, not fall back"
        );
    }
}
