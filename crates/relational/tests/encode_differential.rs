//! Differential proptests: the counting kernels of
//! [`dbre_relational::kernels`] must agree *exactly* with the
//! Value-based reference implementations in `table.rs` /
//! `partitions.rs` / `counting.rs` — on every generated table,
//! including NULL-heavy and NaN-bearing columns, under both NULL
//! conventions (SQL skip-NULL for counts / FD checks / LHS groups,
//! NULL = NULL for partitions), and over both code sources: the
//! in-RAM `ColumnDict`s and spilled copies of the same columns read
//! through a one-page buffer pool.
//!
//! The same file gates the default and `parallel` builds (CI runs both
//! feature sets), so the encoded path is pinned to the reference
//! byte-for-byte regardless of how the engine schedules work.

// Test-support helpers outside #[test] fns; panicking on fixture
// failure is test behaviour.
#![allow(clippy::expect_used)]

use std::collections::HashMap;
use std::sync::Arc;

use dbre_relational::attr::AttrId;
use dbre_relational::backend::{CountBackend, EncodedBackend, PagedBackend, ReferenceBackend};
use dbre_relational::bufpool::BufferPool;
use dbre_relational::counting::{join_stats, EquiJoin};
use dbre_relational::database::Database;
use dbre_relational::deps::IndSide;
use dbre_relational::encode::{decode_set_cols, ColumnDict};
use dbre_relational::kernels;
use dbre_relational::pages::{PageFile, PagedColumn, PagedSource, PAGE_CODES};
use dbre_relational::partitions::StrippedPartition;
use dbre_relational::schema::Relation;
use dbre_relational::stats::StatsEngine;
use dbre_relational::table::Table;
use dbre_relational::value::{Domain, Value};
use proptest::prelude::*;

// ---- generators -----------------------------------------------------

/// A small value pool engineered for collisions: repeated ints and
/// strings, NULLs, and a NaN (which must intern to a single code via
/// the total-order bit key, i.e. NaN = NaN for grouping). Entries are
/// repeated to bias the draw (the vendored `prop_oneof!` is uniform).
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

/// Raw rows at the maximum arity; callers truncate to the drawn arity.
fn raw_rows(max_arity: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(prop::collection::vec(value(), max_arity), 0..40)
}

fn make_table(arity: usize, rows: Vec<Vec<Value>>) -> Table {
    let rows = rows.into_iter().map(|mut r| {
        r.truncate(arity);
        r
    });
    Table::from_rows(arity, rows).expect("rows match arity")
}

/// `(table, attrs)` where `attrs` indexes the table's columns —
/// possibly empty, possibly with repeats (projection lists from query
/// text can repeat a column).
fn table_and_attrs() -> impl Strategy<Value = (Table, Vec<AttrId>)> {
    (1usize..5, raw_rows(4), prop::collection::vec(0u16..4, 0..4)).prop_map(
        |(arity, rows, attrs)| {
            let attrs = attrs
                .into_iter()
                .map(|i| AttrId(i % arity as u16))
                .collect();
            (make_table(arity, rows), attrs)
        },
    )
}

/// Two tables plus equal-arity attribute lists for a cross-table join.
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

/// Wraps a table in a single-relation database (`add_relation_with_table`
/// skips domain validation, so mixed-type proptest columns are fine).
fn db_of(t: &Table) -> (Database, dbre_relational::schema::RelId) {
    let mut db = Database::new();
    let cols: Vec<(String, Domain)> = (0..t.arity())
        .map(|i| (format!("c{i}"), Domain::Int))
        .collect();
    let named: Vec<(&str, Domain)> = cols.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    let rel = db
        .add_relation_with_table(Relation::of("T", &named), t.clone())
        .expect("arity matches");
    (db, rel)
}

// ---- Value-based naive references (independent of encode.rs) --------

/// SQL-convention FD check: rows with a NULL among the LHS are skipped;
/// surviving LHS groups must agree structurally on the RHS projection
/// (structural equality: Null = Null, NaN = NaN by bit key).
fn naive_fd_holds(t: &Table, lhs: &[AttrId], rhs: &[AttrId]) -> bool {
    let mut first: HashMap<Vec<Value>, Vec<Value>> = HashMap::new();
    for i in 0..t.len() {
        let key = t.project_row(i, lhs);
        if key.iter().any(Value::is_null) {
            continue;
        }
        let val = t.project_row(i, rhs);
        match first.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != val {
                    return false;
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(val);
            }
        }
    }
    true
}

/// SQL-convention LHS groups: row-index groups of size ≥ 2 agreeing on
/// `attrs`, NULL-bearing rows skipped, groups ascending and sorted.
fn naive_lhs_groups(t: &Table, attrs: &[AttrId]) -> Vec<Vec<usize>> {
    let mut map: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for i in 0..t.len() {
        let key = t.project_row(i, attrs);
        if !attrs.is_empty() && key.iter().any(Value::is_null) {
            continue;
        }
        map.entry(key).or_default().push(i);
    }
    let mut groups: Vec<Vec<usize>> = map.into_values().filter(|g| g.len() >= 2).collect();
    groups.sort();
    groups
}

// ---- the two code sources ------------------------------------------

/// One table's columns as in-RAM dictionaries and as spilled copies
/// (`PageFile::spill` + `PagedColumn::new`) read through a one-page
/// pool.
struct Sources {
    dicts: Vec<ColumnDict>,
    paged: Vec<PagedColumn>,
    pool: BufferPool,
}

impl Sources {
    fn new(t: &Table) -> Self {
        let dicts: Vec<ColumnDict> = (0..t.arity())
            .map(|i| ColumnDict::build(t.column(AttrId(i as u16))))
            .collect();
        let paged = dicts
            .iter()
            .map(|d| {
                let file = PageFile::spill(d.codes()).expect("spill file writes");
                PagedColumn::new(Arc::new(d.slim()), file)
            })
            .collect();
        Sources {
            dicts,
            paged,
            pool: BufferPool::with_capacity_pages(1),
        }
    }

    fn ram(&self, attrs: &[AttrId]) -> Vec<&ColumnDict> {
        attrs.iter().map(|a| &self.dicts[a.index()]).collect()
    }

    fn paged(&self, attrs: &[AttrId]) -> Vec<PagedSource<'_>> {
        attrs
            .iter()
            .map(|a| PagedSource::new(&self.paged[a.index()], &self.pool))
            .collect()
    }
}

// ---- properties -----------------------------------------------------

proptest! {
    /// `‖π_attrs‖`: the coded backends' count — the length of the
    /// cached distinct-code set, resident and pooled — = reference
    /// count (SQL skip-NULL).
    #[test]
    fn counts_agree(case in table_and_attrs()) {
        let (t, attrs) = case;
        let expected = t.count_distinct(&attrs);
        let (db, rel) = db_of(&t);
        let pooled = PagedBackend::with_pool(Arc::new(BufferPool::with_capacity_pages(1)));
        let backends: [&dyn CountBackend; 2] = [&EncodedBackend::new(), &pooled];
        for b in backends {
            prop_assert_eq!(b.count_distinct(&db, rel, &attrs), expected, "{}", b.name());
        }
    }

    /// Decoding the distinct code set recovers the reference
    /// projection exactly (same tuples, not just the same count).
    #[test]
    fn distinct_sets_agree(case in table_and_attrs()) {
        let (t, attrs) = case;
        let s = Sources::new(&t);
        let expected = t.distinct_projection(&attrs);
        let ram_cols = s.ram(&attrs);
        let Ok(ram) = kernels::distinct_codes(&ram_cols, t.len());
        prop_assert_eq!(decode_set_cols(&ram_cols, &ram), expected.clone());
        let paged_cols = s.paged(&attrs);
        let paged = kernels::distinct_codes(&paged_cols, t.len()).expect("pages read");
        // The spilled side decodes through its slim dictionaries.
        let slim: Vec<&ColumnDict> = attrs.iter().map(|a| s.paged[a.index()].dict().as_ref()).collect();
        prop_assert_eq!(decode_set_cols(&slim, &paged), expected);
    }

    /// The unary stripped partition (NULL = NULL convention) is
    /// byte-identical to the Value-based constructor.
    #[test]
    fn partitions_agree(case in table_and_attrs()) {
        let (t, attrs) = case;
        if let [a] = attrs.as_slice() {
            let s = Sources::new(&t);
            let expected = StrippedPartition::for_attribute(&t, *a);
            let Ok(ram) = kernels::partition1(s.ram(&attrs)[0], t.len());
            prop_assert_eq!(ram, expected.clone());
            let paged = kernels::partition1(s.paged(&attrs)[0], t.len()).expect("pages read");
            prop_assert_eq!(paged, expected);
        }
    }

    /// FD checks (SQL convention) match an independent naive oracle.
    #[test]
    fn fd_holds_agrees(
        case in table_and_attrs(),
        rhs_seed in prop::collection::vec(0u16..4, 1..3),
    ) {
        let (t, lhs) = case;
        let rhs: Vec<AttrId> = rhs_seed
            .into_iter()
            .map(|i| AttrId(i % t.arity() as u16))
            .collect();
        let s = Sources::new(&t);
        let expected = naive_fd_holds(&t, &lhs, &rhs);
        let Ok(ram) = kernels::fd_holds(&s.ram(&lhs), &s.ram(&rhs), t.len());
        prop_assert_eq!(ram, expected);
        let paged = kernels::fd_holds(&s.paged(&lhs), &s.paged(&rhs), t.len()).expect("pages read");
        prop_assert_eq!(paged, expected);
    }

    /// LHS groups (SQL convention) match the naive oracle exactly,
    /// including group membership and ordering.
    #[test]
    fn lhs_groups_agree(case in table_and_attrs()) {
        let (t, attrs) = case;
        let s = Sources::new(&t);
        let expected = naive_lhs_groups(&t, &attrs);
        let Ok(ram) = kernels::lhs_groups(&s.ram(&attrs), t.len());
        prop_assert_eq!(ram, expected.clone());
        let paged = kernels::lhs_groups(&s.paged(&attrs), t.len()).expect("pages read");
        prop_assert_eq!(paged, expected);
    }

    /// Cross-table join stats: the encoded backend's code translation
    /// gives the same three cardinalities as the Value-based set
    /// intersection.
    #[test]
    fn join_stats_agree(case in join_case()) {
        let (lt, lattrs, rt, rattrs) = case;
        let mut db = Database::new();
        let mk = |n: usize| -> Vec<(String, Domain)> {
            (0..n).map(|i| (format!("c{i}"), Domain::Int)).collect()
        };
        let lcols = mk(lt.arity());
        let rcols = mk(rt.arity());
        let l = db
            .add_relation_with_table(
                Relation::of("L", &lcols.iter().map(|(n, d)| (n.as_str(), *d)).collect::<Vec<_>>()),
                lt,
            )
            .expect("arity matches");
        let r = db
            .add_relation_with_table(
                Relation::of("R", &rcols.iter().map(|(n, d)| (n.as_str(), *d)).collect::<Vec<_>>()),
                rt,
            )
            .expect("arity matches");
        let join = EquiJoin::try_new(IndSide::new(l, lattrs), IndSide::new(r, rattrs))
            .expect("equal arity by construction");
        prop_assert_eq!(EncodedBackend::new().join_stats(&db, &join), join_stats(&db, &join));
    }

    /// The memoizing engine agrees with the references through its
    /// public API over *every in-crate backend* (reference scans and
    /// the dictionary-encoded kernels; the SQL backend joins the
    /// matrix in `dbre-sql`'s `backend_differential`) — covering the
    /// generation-tagged caches and, under `--features parallel`, the
    /// shared read-only dictionary access from worker threads.
    #[test]
    fn engine_agrees_with_references(
        case in table_and_attrs(),
        rhs_seed in prop::collection::vec(0u16..4, 1..3),
    ) {
        let (t, attrs) = case;
        let rhs: Vec<AttrId> = rhs_seed
            .into_iter()
            .map(|i| AttrId(i % t.arity() as u16))
            .collect();
        let (db, rel) = db_of(&t);
        let engines = [
            StatsEngine::with_backend(Box::new(ReferenceBackend)),
            StatsEngine::with_backend(Box::new(EncodedBackend::new())),
        ];
        for engine in engines {
            // Twice: miss path, then hit path, must both agree.
            for _ in 0..2 {
                prop_assert_eq!(
                    engine.count_distinct(&db, rel, &attrs),
                    t.count_distinct(&attrs),
                    "backend {}", engine.backend_name()
                );
                prop_assert_eq!(
                    (*engine.partition_for_attrs(&db, rel, &attrs)).clone(),
                    StrippedPartition::for_attrs(&t, &attrs),
                    "backend {}", engine.backend_name()
                );
                prop_assert_eq!(
                    (*engine.lhs_groups(&db, rel, &attrs)).clone(),
                    naive_lhs_groups(&t, &attrs),
                    "backend {}", engine.backend_name()
                );
                if !attrs.is_empty() {
                    let fd = dbre_relational::deps::Fd {
                        rel,
                        lhs: attrs.iter().copied().collect(),
                        rhs: rhs.iter().copied().collect(),
                    };
                    prop_assert_eq!(
                        engine.fd_holds(&db, &fd),
                        naive_fd_holds(&t, &attrs, &rhs),
                        "backend {}", engine.backend_name()
                    );
                }
            }
        }
    }
}

/// An in-RAM column of two full pages plus a tail now streams in three
/// page slices (and chunks under `parallel`): the encoded backend must
/// still match the reference at arities 1, 2 and 3, with NULLs on
/// both sides of the first page boundary.
#[test]
fn multi_page_in_ram_columns_match_reference() {
    let rows = 2 * PAGE_CODES + 777;
    let cell = |i: usize, modulus: usize| {
        if i == PAGE_CODES - 1 || i == PAGE_CODES || i % 97 == 5 {
            Value::Null
        } else {
            Value::Int((i % modulus) as i64)
        }
    };
    let t = Table::from_rows(
        3,
        (0..rows).map(|i| vec![cell(i, 1009), cell(i, 31), cell(i, 7)]),
    )
    .expect("rows match arity");
    let (db, rel) = db_of(&t);
    let (encoded, reference) = (EncodedBackend::new(), ReferenceBackend);
    for attrs in [
        vec![AttrId(0)],
        vec![AttrId(0), AttrId(1)],
        vec![AttrId(0), AttrId(1), AttrId(2)],
    ] {
        assert_eq!(
            encoded.count_distinct(&db, rel, &attrs),
            reference.count_distinct(&db, rel, &attrs),
            "{attrs:?}"
        );
        assert_eq!(
            encoded.projection(&db, rel, &attrs),
            reference.projection(&db, rel, &attrs),
            "{attrs:?}"
        );
        assert_eq!(
            encoded.lhs_groups(&db, rel, &attrs),
            reference.lhs_groups(&db, rel, &attrs),
            "{attrs:?}"
        );
        let fd = dbre_relational::deps::Fd {
            rel,
            lhs: attrs.iter().copied().collect(),
            rhs: [AttrId(2)].into_iter().collect(),
        };
        assert_eq!(
            encoded.fd_holds(&db, &fd),
            reference.fd_holds(&db, &fd),
            "{attrs:?}"
        );
    }
    for a in 0..3 {
        assert_eq!(
            encoded.partition1(&db, rel, AttrId(a)),
            reference.partition1(&db, rel, AttrId(a))
        );
    }
}
