//! Differential tests of the coded g3/plurality kernel and the
//! Restruct tables built on it, against `Value`-level oracles:
//! `dbre_mine::fd_error` for the g3 error the expert is shown, and the
//! reference split and hidden-object tables below (group by LHS,
//! plurality RHS, first occurrence wins ties, first-seen key order).
//!
//! Every check runs on the reference, encoded and SQL backends over a
//! materialized extension and on the paged backend over a streamed
//! one, whose rows exist only as spilled dictionary codes.

// Test-support helpers outside #[test] fns; panicking on fixture
// failure is test behaviour.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dbre_core::restruct::restruct;
use dbre_core::rhs_discovery::g3_error;
use dbre_core::{BackendChoice, DenyOracle};
use dbre_relational::pages::PageFile;
use dbre_relational::{
    AttrId, AttrSet, ColumnDict, Database, Domain, Fd, PagedBackend, PagedColumn, QualAttrs, RelId,
    Relation, SpilledTable, StatsEngine, Table, Value,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const ARITY: usize = 6;

/// LHS cells: NULL-heavy, with ±0.0 and NaN as distinct values.
fn lhs_cell(code: u8, width: u8) -> Value {
    match code % (2 + width) {
        0 | 1 => Value::Null,
        2 => Value::float(0.0),
        3 => Value::float(-0.0),
        4 => Value::float(f64::NAN),
        _ => Value::float(1.0),
    }
}

/// RHS cells: NULL (a value of its own when grouping the RHS), ±0.0,
/// two NaN payloads and two ordinary values. A narrow `width` makes
/// plurality ties common.
fn rhs_cell(code: u8, width: u8) -> Value {
    match code % (1 + width) {
        0 => Value::Null,
        1 => Value::float(0.0),
        2 => Value::float(-0.0),
        3 => Value::float(f64::NAN),
        4 => Value::float(f64::from_bits(0x7ff8_0000_0000_0001)),
        5 => Value::float(1.0),
        _ => Value::float(2.5),
    }
}

/// `R(a0 .. a5)`: `a0..a2` are LHS columns, `a3..a5` RHS columns.
fn relation_db(rows: &[Vec<Value>]) -> (Database, RelId) {
    let names: Vec<String> = (0..ARITY).map(|i| format!("a{i}")).collect();
    let spec: Vec<(&str, Domain)> = names.iter().map(|n| (n.as_str(), Domain::Float)).collect();
    let mut db = Database::new();
    let rel = db.add_relation(Relation::of("R", &spec)).unwrap();
    for row in rows {
        db.insert(rel, row.clone()).unwrap();
    }
    (db, rel)
}

fn rows_from(codes: &[u8], lhs_width: u8, rhs_width: u8) -> Vec<Vec<Value>> {
    codes
        .chunks_exact(ARITY)
        .map(|c| {
            (0..ARITY)
                .map(|i| {
                    if i < 3 {
                        lhs_cell(c[i], lhs_width)
                    } else {
                        rhs_cell(c[i], rhs_width)
                    }
                })
                .collect()
        })
        .collect()
}

/// The same extension streamed: every column spilled to pages as its
/// dictionary codes, the in-memory table left empty, the pages
/// adopted by a paged backend.
fn streamed(db: &Database, rel: RelId) -> (Database, StatsEngine) {
    let table = db.table(rel);
    let columns = (0..ARITY)
        .map(|i| {
            let dict = ColumnDict::build(table.column(AttrId(i as u16)));
            let file = PageFile::spill(dict.codes()).unwrap();
            Arc::new(PagedColumn::new(Arc::new(dict.slim()), file))
        })
        .collect();
    let spilled = SpilledTable::new(columns, table.len(), false);
    let mut sdb = Database::new();
    let srel = sdb.add_relation(db.schema.relation(rel).clone()).unwrap();
    assert_eq!(srel, rel);
    sdb.set_streamed_extension(srel, table.len());
    let backend = PagedBackend::new();
    backend.adopt_spilled(&sdb, srel, &spilled);
    (sdb, StatsEngine::with_backend(Box::new(backend)))
}

/// Every backend under test, each with the database it serves.
fn backends(db: &Database, rel: RelId) -> Vec<(&'static str, Database, StatsEngine)> {
    let mut out: Vec<(&'static str, Database, StatsEngine)> = [
        BackendChoice::Reference,
        BackendChoice::Encoded,
        BackendChoice::Sql,
    ]
    .into_iter()
    .map(|c| (c.name(), db.clone(), c.engine()))
    .collect();
    let (sdb, engine) = streamed(db, rel);
    out.push(("paged-streamed", sdb, engine));
    out
}

/// Reference FD-split table: per distinct non-NULL `a` key in
/// first-seen order, the key plus its plurality `b` tuple, ties to the
/// tuple seen first.
fn split_oracle(table: &Table, a: &[AttrId], b: &[AttrId]) -> Vec<Vec<Value>> {
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Vec<(Vec<Value>, usize)>> = HashMap::new();
    for i in 0..table.len() {
        if table.row_has_null(i, a) {
            continue;
        }
        let key = table.project_row(i, a);
        let val = table.project_row(i, b);
        let counts = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            Vec::new()
        });
        match counts.iter_mut().find(|(v, _)| *v == val) {
            Some((_, n)) => *n += 1,
            None => counts.push((val, 1)),
        }
    }
    order
        .into_iter()
        .map(|key| {
            let counts = &groups[&key];
            // `counts` is in first-occurrence order, so the first
            // maximum is the tie-break winner.
            let top = counts.iter().map(|(_, n)| *n).max().unwrap();
            let (val, _) = counts.iter().find(|(_, n)| *n == top).unwrap();
            key.iter().chain(val).cloned().collect()
        })
        .collect()
}

/// Reference hidden-object table: the distinct non-NULL `a`
/// projections in first-seen order.
fn hidden_oracle(table: &Table, a: &[AttrId]) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = Vec::new();
    for i in 0..table.len() {
        let key = table.project_row(i, a);
        if !table.row_has_null(i, a) && !out.contains(&key) {
            out.push(key);
        }
    }
    out
}

fn ids(attrs: &[u16]) -> Vec<AttrId> {
    attrs.iter().map(|&i| AttrId(i)).collect()
}

fn fd(rel: RelId, lhs: &[u16], rhs: &[u16]) -> Fd {
    Fd::new(
        rel,
        AttrSet::from_indices(lhs.iter().copied()),
        AttrSet::from_indices(rhs.iter().copied()),
    )
}

const LHS: [&[u16]; 3] = [&[0], &[0, 1], &[0, 1, 2]];
const RHS: [&[u16]; 4] = [&[], &[3], &[3, 4], &[3, 4, 5]];

/// Runs every check on one extension; returns the first mismatch.
fn check_all(rows: &[Vec<Value>]) -> Result<(), String> {
    let (db, rel) = relation_db(rows);
    let table = db.table(rel);
    let backends = backends(&db, rel);
    for lhs in LHS {
        let hidden_want = hidden_oracle(table, &ids(lhs));
        for (name, bdb, engine) in &backends {
            let mut out_db = bdb.clone();
            let q = QualAttrs::new(rel, AttrSet::from_indices(lhs.iter().copied()));
            let out = restruct(&mut out_db, &[], &[q], &[], &mut DenyOracle, engine)
                .map_err(|e| format!("{name}: hidden {lhs:?}: {e}"))?;
            let got: Vec<Vec<Value>> = out_db.table(out.hidden_relations[0]).rows().collect();
            if got != hidden_want {
                return Err(format!(
                    "{name}: hidden {lhs:?}: got {got:?}, want {hidden_want:?}"
                ));
            }
        }
        for rhs in RHS {
            let f = fd(rel, lhs, rhs);
            let g3_want = dbre_mine::fd_error(table, &ids(lhs), &ids(rhs));
            let split_want = split_oracle(table, &ids(lhs), &ids(rhs));
            for (name, bdb, engine) in &backends {
                let g3 = g3_error(bdb, &f, engine).map_err(|e| format!("{name}: {e}"))?;
                if g3.to_bits() != g3_want.to_bits() {
                    return Err(format!(
                        "{name}: g3 {lhs:?} -> {rhs:?}: got {g3}, want {g3_want}"
                    ));
                }
                let mut out_db = bdb.clone();
                let out = restruct(
                    &mut out_db,
                    std::slice::from_ref(&f),
                    &[],
                    &[],
                    &mut DenyOracle,
                    engine,
                )
                .map_err(|e| format!("{name}: split {lhs:?} -> {rhs:?}: {e}"))?;
                let got: Vec<Vec<Value>> = out_db.table(out.fd_relations[0]).rows().collect();
                if got != split_want {
                    return Err(format!(
                        "{name}: split {lhs:?} -> {rhs:?}: got {got:?}, want {split_want:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn coded_kernels_match_value_oracles(
        codes in prop::collection::vec(0u8..=255, 0..(40 * ARITY)),
        lhs_width in 1u8..=4,
        rhs_width in 1u8..=6,
    ) {
        let rows = rows_from(&codes, lhs_width, rhs_width);
        if let Err(msg) = check_all(&rows) {
            prop_assert!(false, "{}", msg);
        }
    }
}

#[test]
fn plurality_ties_go_to_the_first_occurrence() {
    let f = Value::float;
    // Key 1.0: RHS 2.5, 0.0, 0.0, 2.5 — a 2:2 tie the 2.5 seen first
    // wins. Key -0.0 (distinct from 0.0): NaN, NULL, NULL, NaN — the
    // NaN wins. Key 0.0: a three-way 1:1:1 tie. NULL keys are dropped.
    let rows: Vec<(Value, Value)> = vec![
        (f(1.0), f(2.5)),
        (f(-0.0), f(f64::NAN)),
        (f(1.0), f(0.0)),
        (Value::Null, f(7.0)),
        (f(0.0), f(-0.0)),
        (f(-0.0), Value::Null),
        (f(1.0), f(0.0)),
        (f(0.0), f(0.0)),
        (f(-0.0), Value::Null),
        (f(1.0), f(2.5)),
        (f(0.0), Value::Null),
        (f(-0.0), f(f64::NAN)),
    ];
    let rows: Vec<Vec<Value>> = rows
        .into_iter()
        .map(|(a, b)| {
            let mut row = vec![Value::Null; ARITY];
            row[0] = a;
            row[3] = b;
            row
        })
        .collect();
    check_all(&rows).unwrap();
    let (db, rel) = relation_db(&rows);
    let want = vec![
        vec![f(1.0), f(2.5)],
        vec![f(-0.0), f(f64::NAN)],
        vec![f(0.0), f(-0.0)],
    ];
    assert_eq!(split_oracle(db.table(rel), &ids(&[0]), &ids(&[3])), want);
    // 12 rows, 11 with a key; each key keeps 2, 2 and 1 of its rows.
    let g3 = g3_error(&db, &fd(rel, &[0], &[3]), &StatsEngine::new()).unwrap();
    assert_eq!(g3, 6.0 / 11.0);
}

#[test]
fn all_null_lhs_has_zero_error_and_empty_tables() {
    let rows: Vec<Vec<Value>> = (0..5)
        .map(|i| {
            let mut row = vec![Value::Null; ARITY];
            row[3] = Value::float(f64::from(i));
            row
        })
        .collect();
    check_all(&rows).unwrap();
    let (db, rel) = relation_db(&rows);
    let g3 = g3_error(&db, &fd(rel, &[0, 1], &[3]), &StatsEngine::new()).unwrap();
    assert_eq!(g3, 0.0);
}
