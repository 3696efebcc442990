//! Randomized differential test for incremental cache maintenance:
//! one engine carried across an arbitrary sequence of append/delete
//! deltas (the [`SharedDb::apply`] write path) must answer every
//! statistics query exactly like a cold engine recomputing from
//! scratch on the resulting database version — same counts, same
//! projections, same class and group orderings. It runs over the
//! default (resident) coded backend and the pooled one.

use dbre_relational::attr::AttrId;
use dbre_relational::schema::Relation;
use dbre_relational::value::{Domain, Value};
use dbre_relational::{Database, Delta, PagedBackend, SharedDb, StatsEngine};
use proptest::prelude::*;

const ARITY: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    Append(Vec<Vec<Value>>),
    /// Raw indices, reduced mod the live row count at apply time.
    Delete(Vec<usize>),
}

/// Small domain plus NULLs: duplicates (partition classes), NULL
/// groups (SQL-vs-mining divergence) and singleton promotions all
/// occur constantly.
fn cell() -> impl Strategy<Value = Value> {
    (0i64..4).prop_map(|v| if v == 3 { Value::Null } else { Value::Int(v) })
}

fn row() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(cell(), ARITY)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(row(), 1..4).prop_map(Op::Append),
        prop::collection::vec(any::<usize>(), 1..4).prop_map(Op::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn maintained_caches_equal_cold_recompute(
        init in prop::collection::vec(row(), 0..10),
        ops in prop::collection::vec(op(), 1..8),
    ) {
        let mut db = Database::new();
        let rel = db
            .add_relation(Relation::of(
                "T",
                &[("a", Domain::Int), ("b", Domain::Int), ("c", Domain::Int)],
            ))
            .unwrap();
        for r in init {
            db.insert(rel, r).unwrap();
        }
        let residencies: [fn() -> StatsEngine; 2] = [StatsEngine::new, || {
            StatsEngine::with_backend(Box::new(PagedBackend::new()))
        }];
        let queries: &[&[AttrId]] = &[
            &[AttrId(0)],
            &[AttrId(1)],
            &[AttrId(0), AttrId(2)],
            &[AttrId(0), AttrId(1), AttrId(2)],
        ];
        for make in residencies {
            let engine = make();
            let shared = SharedDb::new(db.clone());
            for op in ops.clone() {
                // Warm every cache family on the current version so
                // maintenance has entries to carry across the delta.
                let snap = shared.snapshot();
                for q in queries {
                    engine.count_distinct(&snap, rel, q);
                    engine.projection(&snap, rel, q);
                    engine.partition_for_attrs(&snap, rel, q);
                    engine.lhs_groups(&snap, rel, q);
                }
                let delta = match op {
                    Op::Append(rows) => Delta::Append { rel, rows },
                    Op::Delete(raw) => {
                        let len = snap.table(rel).len();
                        if len == 0 {
                            continue;
                        }
                        let mut rows: Vec<usize> = raw.iter().map(|i| i % len).collect();
                        rows.sort_unstable();
                        rows.dedup();
                        Delta::Delete { rel, rows }
                    }
                };
                let snap = shared.apply(&delta, &[&engine]).unwrap();
                // Every maintained answer must equal a cold recompute on
                // the new version, ordering included.
                let cold = StatsEngine::new();
                for q in queries {
                    prop_assert_eq!(
                        engine.count_distinct(&snap, rel, q),
                        cold.count_distinct(&snap, rel, q)
                    );
                    prop_assert_eq!(
                        &*engine.projection(&snap, rel, q),
                        &*cold.projection(&snap, rel, q)
                    );
                    prop_assert_eq!(
                        &*engine.partition_for_attrs(&snap, rel, q),
                        &*cold.partition_for_attrs(&snap, rel, q)
                    );
                    prop_assert_eq!(
                        &*engine.lhs_groups(&snap, rel, q),
                        &*cold.lhs_groups(&snap, rel, q)
                    );
                }
            }
        }
    }
}
