//! End-to-end pins of the restructured output at
//! `scenario(8, 2000, 42)`: the decision log (every g3 error included)
//! and every restructured extension, row by row, on all four backends,
//! with every generated SQL probe served by the counting kernels; and
//! at `scenario(8, 20_000, 42)`, where the paged backend spills its
//! columns, on the resident and the paged backend.
//! The digests were recorded from the `Value`-level Restruct and g3
//! implementations that the coded kernels replaced; any change to a
//! split table, a hidden-object table or a printed error moves them.

// Test-support helpers outside #[test] fns; panicking on fixture
// failure is test behaviour.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dbre_core::pipeline::PipelineOptions;
use dbre_core::render::render_log;
use dbre_core::{run_with_programs, stages, AutoOracle, BackendChoice, DbreSession};
use dbre_relational::counting::{EquiJoin, JoinStats};
use dbre_relational::{AttrId, CountBackend, Database, EncodedBackend, RelId, StatsEngine};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Every relation's header and rows, in schema and row order.
fn extensions_text(db: &Database) -> String {
    let mut out = String::new();
    for (rel, relation) in db.schema.iter() {
        let names: Vec<&str> = relation
            .attributes()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        out.push_str(&format!("{}({})\n", relation.name, names.join(", ")));
        for row in db.table(rel).rows() {
            out.push_str(&format!("{row:?}\n"));
        }
    }
    out
}

const EXTENSIONS_DIGEST: u64 = 0x8a8c_0235_990b_8089;
const LOG_DIGEST: u64 = 0x816e_7707_2f14_41d8;

#[test]
fn restructured_extensions_and_log_are_pinned_on_every_backend() {
    let s = dbre_bench::scenario(8, 2000, 42);
    for choice in [
        BackendChoice::Reference,
        BackendChoice::Encoded,
        BackendChoice::Sql,
        BackendChoice::Paged,
    ] {
        let opts = PipelineOptions {
            backend: choice,
            ..Default::default()
        };
        let r = run_with_programs(s.db.clone(), &s.programs, &mut AutoOracle::default(), &opts);
        assert!(r.stage_errors.is_empty(), "{:?}", r.stage_errors);
        assert_eq!(r.db.schema.len(), 30, "{}", choice.name());
        assert_eq!(
            fnv1a(extensions_text(&r.db).as_bytes()),
            EXTENSIONS_DIGEST,
            "restructured extensions moved on {}",
            choice.name()
        );
        assert_eq!(
            fnv1a(render_log(&r.log).as_bytes()),
            LOG_DIGEST,
            "decision log moved on {}",
            choice.name()
        );
        if choice == BackendChoice::Sql {
            // Every generated probe is recognised and runs on the
            // kernels: none fails, none needs the tuple interpreter.
            let x = r.stats.backend_exec;
            assert_eq!(x.fallback_failures, 0, "sql probes failed");
            assert_eq!(x.tuple_fallback_ops, 0, "sql probes ran on the interpreter");
            assert!(x.batch_ops > 0, "no sql probe ran");
        }
    }
}

const SPILLED_EXTENSIONS_DIGEST: u64 = 0xdf55_df3d_6ac1_c75d;
const SPILLED_LOG_DIGEST: u64 = 0xbe99_db2b_ab64_e0f5;

/// At 20k rows per entity the columns pass one page, so under a 1 MiB
/// pool the paged backend spills them and every probe streams its
/// codes through the pool; the restructured output must not move.
#[test]
fn spilled_restructure_is_pinned_on_resident_and_paged() {
    let s = dbre_bench::scenario(8, 20_000, 42);
    for (choice, page_cache) in [
        (BackendChoice::Encoded, None),
        (BackendChoice::Paged, Some(1 << 20)),
    ] {
        let opts = PipelineOptions {
            backend: choice,
            page_cache,
            ..Default::default()
        };
        let r = run_with_programs(s.db.clone(), &s.programs, &mut AutoOracle::default(), &opts);
        assert!(r.stage_errors.is_empty(), "{:?}", r.stage_errors);
        assert_eq!(
            fnv1a(extensions_text(&r.db).as_bytes()),
            SPILLED_EXTENSIONS_DIGEST,
            "restructured extensions moved on {}",
            choice.name()
        );
        assert_eq!(
            fnv1a(render_log(&r.log).as_bytes()),
            SPILLED_LOG_DIGEST,
            "decision log moved on {}",
            choice.name()
        );
        if choice == BackendChoice::Paged {
            assert!(
                r.stats.page_cache.misses > 0,
                "no page was read from a spill file"
            );
            assert_eq!(
                r.stats.backend_exec.fallback_failures, 0,
                "paged probes failed"
            );
        }
    }
}

/// The encoded backend, counting the `lhs_groups` calls the engine
/// delegates to it — one per new cache entry.
struct CountingGroups {
    inner: EncodedBackend,
    calls: Arc<AtomicU64>,
}

impl CountBackend for CountingGroups {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
        self.inner.count_distinct(db, rel, attrs)
    }

    fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats {
        self.inner.join_stats(db, join)
    }

    fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.lhs_groups(db, rel, attrs)
    }

    fn column_dict(
        &self,
        db: &Database,
        rel: RelId,
        attr: AttrId,
    ) -> Option<Arc<dbre_relational::ColumnDict>> {
        CountBackend::column_dict(&self.inner, db, rel, attr)
    }

    fn column_sketch(
        &self,
        db: &Database,
        rel: RelId,
        attr: AttrId,
    ) -> Option<Arc<dbre_relational::ColumnSketch>> {
        self.inner.column_sketch(db, rel, attr)
    }
}

/// Runs the pipeline over `db` and `q` on an engine that counts its
/// `lhs_groups` entries, asserts that the Restruct stage added none,
/// and returns the result.
fn run_counting_groups(db: Database, q: &[EquiJoin]) -> dbre_core::pipeline::PipelineResult {
    let calls = Arc::new(AtomicU64::new(0));
    let engine = Arc::new(StatsEngine::with_backend(Box::new(CountingGroups {
        inner: EncodedBackend::new(),
        calls: Arc::clone(&calls),
    })));
    let mut oracle = AutoOracle::default();
    let mut session = DbreSession::with_engine(db, &mut oracle, PipelineOptions::default(), engine);
    session.admit_q(q);
    let mut ran_restruct = false;
    for stage in stages(&session.options) {
        let before = calls.load(Ordering::Relaxed);
        session.run_stage(stage.as_ref());
        if stage.name() == "restruct" {
            ran_restruct = true;
            assert_eq!(
                calls.load(Ordering::Relaxed),
                before,
                "restruct built new lhs_groups entries"
            );
        }
    }
    assert!(ran_restruct);
    assert!(
        session.stage_errors.is_empty(),
        "{:?}",
        session.stage_errors
    );
    session.into_result()
}

/// Restruct must add no `lhs_groups` entries to the engine: FD splits
/// reuse the entries RHS-Discovery's probes built, and hidden-object
/// projections bypass the cache. An engine shared by the concurrent
/// service remaps every cached group entry on each committed write, so
/// entries added here would tax every later commit.
#[test]
fn restruct_adds_no_lhs_group_entries() {
    let s = dbre_bench::scenario(8, 2000, 42);
    let q = dbre_extract::extract_programs(
        &s.db.schema,
        &s.programs,
        &dbre_extract::ExtractConfig::default(),
    )
    .q();
    let r = run_counting_groups(s.db.clone(), &q);
    assert!(!r.restructured.hidden_relations.is_empty());
    assert!(!r.restructured.fd_relations.is_empty());
}

/// The same rule for an undeclared key-like LHS: `Orders.cust` holds a
/// different customer on every row, so its sketch proves it a key and
/// RHS-Discovery accepts `cust → cname` without an `fd_holds` probe.
/// No group entry exists for the split to reuse, and it needs none.
#[test]
fn restruct_adds_no_lhs_group_entries_for_a_key_like_lhs() {
    let mut cat = dbre_sql::Catalog::new();
    cat.load_script(
        "CREATE TABLE Customer (cid INT UNIQUE, cname VARCHAR(30));
         CREATE TABLE Orders (oid INT UNIQUE, cust INT, cname VARCHAR(30));
         INSERT INTO Customer VALUES (1, 'ann'), (2, 'bob'), (3, 'cy'), (4, 'di');
         INSERT INTO Orders VALUES (10, 1, 'ann'), (11, 2, 'bob'), (12, 3, 'cy');",
    )
    .unwrap();
    let db = cat.into_database();
    let programs = vec![dbre_extract::ProgramSource::sql(
        "report",
        "SELECT cname FROM Orders o, Customer c WHERE o.cust = c.cid;",
    )];
    let q = dbre_extract::extract_programs(
        &db.schema,
        &programs,
        &dbre_extract::ExtractConfig::default(),
    )
    .q();
    let r = run_counting_groups(db, &q);
    assert!(
        r.rhs.sketch.pruned > 0,
        "the key sketch must settle the probes"
    );
    assert!(
        !r.restructured.fd_relations.is_empty(),
        "cust -> cname must split"
    );
}
