//! Untraced measured processes: nothing here wraps the program, so the
//! end-to-end numbers carry no tracing cost.

use crate::util::{ms, peak_rss_mb, JsonLine};
use crate::workload::{self, Kind, Loaded, Workload};
use dbre_core::service::{run_service, shared_engine, TimingOracle};
use dbre_core::{run_with_programs, AutoOracle};
use dbre_extract::extract_programs;
use dbre_relational::SharedDb;
use std::path::Path;
use std::time::Instant;

/// Delete/append commit pairs timed after a single-analyst run.
const COMMIT_PAIRS: usize = 5;

/// One measured process: set-up, then the workload's loop.
pub fn run(w: &Workload, dir: &Path) -> Result<String, String> {
    let programs = workload::load_programs(dir)?;
    let mut loaded = workload::load(w, dir)?;
    let mut line = JsonLine::default();
    line.num("setup_s", loaded.setup_s)
        .num("csv_bytes", loaded.csv_bytes as f64)
        .num("store_bytes", loaded.store_bytes as f64);
    match w.kind {
        Kind::InMemory | Kind::FlatFile => {
            let mut options = w.options(w.backend());
            options.spilled = std::mem::take(&mut loaded.spilled);
            let db = std::mem::take(&mut loaded.db);
            let reference = workload::reference(dir, 0)?;
            let mut oracle = TimingOracle::new(AutoOracle::default());
            let t = Instant::now();
            let result = run_with_programs(db, &programs, &mut oracle, &options);
            let pipeline = t.elapsed();
            let peak = peak_rss_mb();
            let ok = workload::check(&result, &reference);
            if !ok {
                eprintln!("perfbench: session output differs from the reference run");
            }
            // The analyst's next step: edits committed to the
            // restructured database through the snapshot write path.
            let target = workload::largest_relation(&result.db);
            let (delete, append) = workload::delta_pair(&result.db, target);
            let shared = SharedDb::new(result.db);
            let mut commits = Vec::with_capacity(2 * COMMIT_PAIRS);
            for _ in 0..COMMIT_PAIRS {
                for delta in [&delete, &append] {
                    let t = Instant::now();
                    shared
                        .apply(delta, &[])
                        .map_err(|e| format!("commit: {e}"))?;
                    commits.push(ms(t.elapsed()));
                }
            }
            let latencies: Vec<f64> = oracle.latencies.iter().map(|d| ms(*d)).collect();
            line.num("sessions", 1.0)
                .num("failed", if ok { 0.0 } else { 1.0 })
                .num("wall_s", pipeline.as_secs_f64())
                .nums("session_s", &[pipeline.as_secs_f64()])
                .nums("latency_ms", &latencies)
                .nums("commit_ms", &commits)
                .num("peak_rss_mb", peak);
        }
        Kind::Service => service(w, dir, loaded, &programs, &mut line)?,
    }
    Ok(line.finish())
}

/// Closed loop of `SERVICE_ROUNDS` rounds: `w.sessions` concurrent
/// sessions over one snapshot and one shared engine, then one writer
/// commit.
fn service(
    w: &Workload,
    dir: &Path,
    mut loaded: Loaded,
    programs: &[dbre_extract::ProgramSource],
    line: &mut JsonLine,
) -> Result<(), String> {
    let options = w.options(w.backend());
    let references = [workload::reference(dir, 0)?, workload::reference(dir, 1)?];
    let db = std::mem::take(&mut loaded.db);
    let q = extract_programs(&db.schema, programs, &options.extract).q();
    let target = workload::largest_relation(&db);
    let (delete, append) = workload::delta_pair(&db, target);
    let shared = SharedDb::new(db);
    let engine = shared_engine(&options);

    let (mut sessions, mut failed) = (0usize, 0usize);
    let (mut wall, mut session_s, mut latencies, mut commits) =
        (0.0, Vec::new(), Vec::new(), Vec::new());
    for round in 0..workload::SERVICE_ROUNDS {
        let snapshot = shared.snapshot();
        let report = run_service(&snapshot, &engine, &q, &options, w.sessions, |_| {
            AutoOracle::default()
        });
        drop(snapshot);
        wall += report.wall.as_secs_f64();
        let agree = report.logs_identical();
        for outcome in &report.outcomes {
            sessions += 1;
            if !agree || !workload::check(&outcome.result, &references[round % 2]) {
                failed += 1;
            }
            session_s.push(outcome.wall.as_secs_f64());
            latencies.extend(outcome.latencies.iter().map(|d| ms(*d)));
        }
        let delta = if round % 2 == 0 { &delete } else { &append };
        let t = Instant::now();
        shared
            .apply(delta, &[&engine])
            .map_err(|e| format!("commit: {e}"))?;
        commits.push(ms(t.elapsed()));
    }
    if failed > 0 {
        eprintln!("perfbench: {failed} of {sessions} sessions differ from the reference runs");
    }
    line.num("sessions", sessions as f64)
        .num("failed", failed as f64)
        .num("wall_s", wall)
        .nums("session_s", &session_s)
        .nums("latency_ms", &latencies)
        .nums("commit_ms", &commits)
        .num("peak_rss_mb", peak_rss_mb());
    Ok(())
}
