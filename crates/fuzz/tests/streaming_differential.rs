//! Differential properties of the streaming CSV→spill encoder.
//!
//! The streamed ingest path (`import_csv_spilled`) must be
//! *indistinguishable* from materialize-then-spill:
//!
//! * on well-formed hostile input (NULL-heavy, BOM, quoting-hostile,
//!   mixed line endings) the slim dictionaries match and the spill
//!   files are byte-identical to `PageFile::spill` over the
//!   materialized encode;
//! * on corrupted input both paths agree on accept/reject, and a
//!   rejected streamed ingest leaves the target relation untouched;
//! * a second ingest through the same `--spill-dir` is served from
//!   the committed cache entry with identical bytes, and a content
//!   change invalidates it.

// Test-support helpers outside #[test] fns; panicking on fixture
// failure is test behaviour.
#![allow(clippy::expect_used)]

use dbre_fuzz::{corrupt_csv, streaming_csv};
use dbre_relational::attr::AttrId;
use dbre_relational::csv::{import_csv, import_csv_spilled};
use dbre_relational::database::Database;
use dbre_relational::encode::ColumnDict;
use dbre_relational::pages::PageFile;
use dbre_relational::schema::{RelId, Relation};
use dbre_relational::value::Domain;
use proptest::prelude::*;
use std::path::PathBuf;

fn scratch_db() -> (Database, RelId) {
    let mut db = Database::new();
    let rel = db
        .add_relation(Relation::of(
            "T",
            &[
                ("id", Domain::Int),
                ("name", Domain::Text),
                ("when", Domain::Date),
                ("score", Domain::Float),
            ],
        ))
        .expect("fresh schema");
    (db, rel)
}

fn tmp_file(tag: &str, seed: u64, text: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("dbre-fuzz-{tag}-{}-{seed}.csv", std::process::id()));
    std::fs::write(&p, text).expect("differential temp file writes");
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streaming ingest produces byte-identical spill files and equal
    /// slim dictionaries for every generated hostile-but-valid input.
    #[test]
    fn streaming_ingest_is_byte_identical(seed in any::<u64>()) {
        let text = streaming_csv(seed);
        let path = tmp_file("stream", seed, &text);

        let (mut mat, rel) = scratch_db();
        import_csv(&mut mat, rel, &text).unwrap();

        let (mut sdb, srel) = scratch_db();
        let table = import_csv_spilled(&mut sdb, srel, &path, None).unwrap();
        prop_assert_eq!(table.rows(), mat.table(rel).len());

        for i in 0..4u16 {
            let direct = ColumnDict::build(mat.table(rel).column(AttrId(i)));
            let col = &table.columns()[i as usize];
            prop_assert_eq!(col.dict().as_ref(), &direct.slim(), "column {} dict", i);
            let reference = PageFile::spill(direct.codes()).unwrap();
            let expect = std::fs::read(reference.path()).unwrap();
            let got = std::fs::read(col.file().path()).unwrap();
            prop_assert_eq!(got, expect, "column {} spill bytes", i);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Corrupted input: both ingest paths accept or both reject, and
    /// agreement on accept extends to the encoded dictionaries. A
    /// rejected streamed ingest must leave the relation empty and
    /// materialized (no half-adopted streamed extension).
    #[test]
    fn corrupt_inputs_agree(seed in any::<u64>()) {
        let text = corrupt_csv(seed);
        let path = tmp_file("corrupt", seed, &text);

        let (mut mat, rel) = scratch_db();
        let m = import_csv(&mut mat, rel, &text);
        let (mut sdb, srel) = scratch_db();
        let s = import_csv_spilled(&mut sdb, srel, &path, None);

        match (&m, &s) {
            (Ok(_), Ok(table)) => {
                prop_assert_eq!(table.rows(), mat.table(rel).len());
                for i in 0..4u16 {
                    let direct = ColumnDict::build(mat.table(rel).column(AttrId(i)));
                    let col = &table.columns()[i as usize];
                    prop_assert_eq!(col.dict().as_ref(), &direct.slim(), "column {} dict", i);
                }
            }
            (Err(_), Err(_)) => {
                prop_assert!(sdb.table(srel).is_materialized());
                prop_assert_eq!(sdb.table(srel).len(), 0);
            }
            _ => prop_assert!(
                false,
                "ingest paths disagree for seed {}: materialized ok={}, streamed ok={}",
                seed,
                m.is_ok(),
                s.is_ok()
            ),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Spill-cache round trip: cold ingest commits an entry, a rerun
    /// on unchanged input loads it (`from_cache`, identical bytes),
    /// and changing the source content invalidates it.
    #[test]
    fn warm_cache_round_trip(seed in any::<u64>()) {
        let text = streaming_csv(seed);
        let path = tmp_file("cache", seed, &text);
        let dir = std::env::temp_dir().join(format!(
            "dbre-fuzz-spilldir-{}-{seed}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();

        let (mut db1, r1) = scratch_db();
        let cold = import_csv_spilled(&mut db1, r1, &path, Some(&dir)).unwrap();
        prop_assert!(!cold.from_cache());

        let (mut db2, r2) = scratch_db();
        let warm = import_csv_spilled(&mut db2, r2, &path, Some(&dir)).unwrap();
        prop_assert!(warm.from_cache());
        prop_assert_eq!(warm.rows(), cold.rows());
        for (c, w) in cold.columns().iter().zip(warm.columns()) {
            prop_assert_eq!(c.dict(), w.dict());
            prop_assert_eq!(
                std::fs::read(c.file().path()).unwrap(),
                std::fs::read(w.file().path()).unwrap()
            );
        }

        // Content change → different key → a fresh encode.
        std::fs::write(&path, format!("{text}99,zz,,\n")).unwrap();
        let (mut db3, r3) = scratch_db();
        let third = import_csv_spilled(&mut db3, r3, &path, Some(&dir)).unwrap();
        prop_assert!(!third.from_cache());
        prop_assert_eq!(third.rows(), cold.rows() + 1);

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&path).ok();
    }
}
