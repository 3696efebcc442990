//! The paper's §2 claim that `‖r[X]‖` "can be computed in any
//! SQL-like language", checked on the §5 worked example: the generated
//! `SELECT COUNT(DISTINCT …)` statements read like the paper's
//! formulation, survive its hyphenated legacy names, and agree with the
//! direct counting primitives — executed as SQL and served through the
//! [`SqlBackend`].

use dbre_core::example::{paper_database, paper_q};
use dbre_relational::backend::CountBackend;
use dbre_relational::counting::join_stats;
use dbre_relational::deps::IndSide;
use dbre_sql::counts::{count_join_sql, count_side_sql, join_stats_via_sql, SqlBackend};
use dbre_sql::run_sql;

#[test]
fn sql_backend_agrees_with_direct_counting_on_the_paper_example() {
    let db = paper_database();
    let backend = SqlBackend::new();
    for join in paper_q(&db) {
        let direct = join_stats(&db, &join);
        let via_sql = join_stats_via_sql(&db, &join).expect("generated SQL runs");
        assert_eq!(direct, via_sql, "join {}", join.render(&db.schema));
        // The backend serves the same stats through the seam.
        assert_eq!(direct, backend.join_stats(&db, &join));
    }
    assert_eq!(backend.failures(), 0, "no statement fell back");
}

#[test]
fn generated_sql_matches_the_papers_formulation() {
    let db = paper_database();
    let q = paper_q(&db);
    // ‖HEmployee[no]‖ ≡ select count distinct no from HEmployee.
    assert_eq!(
        count_side_sql(&db, &q[0].left),
        "SELECT COUNT(DISTINCT x.no) FROM HEmployee x"
    );
    let join_sql = count_join_sql(&db, &q[0]);
    assert!(join_sql.contains("FROM HEmployee x, Person y"));
    assert!(join_sql.contains("WHERE x.no = y.id"));
}

#[test]
fn hyphenated_identifiers_survive_generation() {
    let db = paper_database();
    let (rel, ids) = db.resolve("Assignment", &["project-name"]).unwrap();
    let side = IndSide::new(rel, ids.clone());
    let sql = count_side_sql(&db, &side);
    // Quoted: bare `x.project-name` would lex as `x.project - name`.
    assert_eq!(
        sql,
        "SELECT COUNT(DISTINCT x.\"project-name\") FROM Assignment x"
    );
    // And it executes — directly and through the backend.
    let n = run_sql(&db, &sql).unwrap().count().unwrap();
    assert_eq!(n, 50); // one project name per project p01..p50
    let backend = SqlBackend::new();
    assert_eq!(backend.count_distinct(&db, rel, &ids), 50);
    assert_eq!(backend.failures(), 0);
}

#[test]
fn composite_join_counts_agree() {
    use dbre_sql::Catalog;
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
    let join = dbre_relational::counting::EquiJoin::try_new(
        IndSide::new(a, a_ids),
        IndSide::new(b, b_ids),
    )
    .unwrap();
    let direct = join_stats(&db, &join);
    let via_sql = join_stats_via_sql(&db, &join).unwrap();
    assert_eq!(direct, via_sql);
    assert_eq!(via_sql.n_join, 2); // pairs (1,1) and (2,1)
}
