//! The traced run: spans recorded around every call the benchmark makes
//! into a layer, kept in memory and written out at the end, then folded
//! into the per-layer metrics.
//!
//! Tracing lives entirely in this file: a [`TracedBackend`] decorator
//! times every `CountBackend` method below the memoizing engine, a
//! [`CountingOracle`] counts questions by kind, and the stages are
//! driven one by one through `DbreSession::run_stage`.

use crate::util::{median, ms, peak_rss_mb, ratio, reset_peak_rss, JsonLine};
use crate::workload::{self, Kind, Loaded, Workload, FLATFILE_PAGE_CACHE};
use dbre_core::oracle::{FdContext, HiddenContext, NamingContext, NeiContext, NeiDecision};
use dbre_core::pipeline::{PipelineOptions, PipelineResult};
use dbre_core::{stages, AutoOracle, DbreSession, Oracle, Stage};
use dbre_extract::extract_programs;
use dbre_relational::partitions::StrippedPartition;
use dbre_relational::spill::SpillCacheStats;
use dbre_relational::table::ProjKey;
use dbre_relational::{
    AttrId, BackendExecStats, ColumnDict, ColumnSketch, CountBackend, Database, Delta,
    EncodedBackend, EquiJoin, Fd, Ind, JoinStats, PageCacheStats, PagedBackend, RelId, SharedDb,
    SketchPruneStats, StatsEngine,
};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------- spans

/// One timed call: `parent` is the span open on the same thread when
/// it started (0 for none); `run` identifies the session it served.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    run: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static RUN: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Closes its span on drop, so a span is recorded even when the traced
/// call unwinds.
struct SpanGuard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id: self.id,
            parent: self.parent,
            run: RUN.with(Cell::get),
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        };
        // Recording must not panic inside a drop; a poisoned list is
        // still a list of complete spans.
        match SPANS.lock() {
            Ok(mut spans) => spans.push(span),
            Err(poisoned) => poisoned.into_inner().push(span),
        }
    }
}

/// Runs `f` inside a span named `name`.
fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    let _guard = SpanGuard {
        id,
        parent,
        name,
        start_ns: now_ns(),
    };
    f()
}

fn take_spans() -> Vec<Span> {
    match SPANS.lock() {
        Ok(mut spans) => std::mem::take(&mut *spans),
        Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
    }
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.run, s.name, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

// ------------------------------------------------------------ decorators

/// The backend operations timed by [`TracedBackend`], with their span
/// names.
const BACKEND_OPS: [&str; 11] = [
    "relational.backend.count_distinct",
    "relational.backend.join_stats",
    "relational.backend.lhs_groups",
    "relational.backend.projection",
    "relational.backend.fd_holds",
    "relational.backend.ind_holds",
    "relational.backend.partition1",
    "relational.backend.column_dict",
    "relational.backend.column_sketch",
    "relational.backend.prewarm",
    "relational.backend.apply_delta",
];

/// Times and counts every call into the wrapped backend. Every method
/// is forwarded, the defaulted ones too, so the inner backend's
/// overrides (the paged backend's streaming kernels, its page and
/// spill counters) stay in force.
struct TracedBackend {
    inner: Box<dyn CountBackend>,
}

impl CountBackend for TracedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
        span(BACKEND_OPS[0], || self.inner.count_distinct(db, rel, attrs))
    }

    fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats {
        span(BACKEND_OPS[1], || self.inner.join_stats(db, join))
    }

    fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>> {
        span(BACKEND_OPS[2], || self.inner.lhs_groups(db, rel, attrs))
    }

    fn projection(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<HashSet<ProjKey>> {
        span(BACKEND_OPS[3], || self.inner.projection(db, rel, attrs))
    }

    fn fd_holds(&self, db: &Database, fd: &Fd) -> bool {
        span(BACKEND_OPS[4], || self.inner.fd_holds(db, fd))
    }

    fn ind_holds(&self, db: &Database, ind: &Ind) -> bool {
        span(BACKEND_OPS[5], || self.inner.ind_holds(db, ind))
    }

    fn partition1(&self, db: &Database, rel: RelId, attr: AttrId) -> Arc<StrippedPartition> {
        span(BACKEND_OPS[6], || self.inner.partition1(db, rel, attr))
    }

    fn column_dict(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnDict>> {
        span(BACKEND_OPS[7], || self.inner.column_dict(db, rel, attr))
    }

    fn column_sketch(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnSketch>> {
        span(BACKEND_OPS[8], || self.inner.column_sketch(db, rel, attr))
    }

    fn prewarm(&self, db: &Database, rel: RelId) {
        span(BACKEND_OPS[9], || self.inner.prewarm(db, rel))
    }

    fn apply_delta(&self, before: &Database, after: &Database, delta: &Delta) {
        span(BACKEND_OPS[10], || {
            self.inner.apply_delta(before, after, delta)
        })
    }

    fn exec_stats(&self) -> BackendExecStats {
        self.inner.exec_stats()
    }

    fn page_stats(&self) -> PageCacheStats {
        self.inner.page_stats()
    }

    fn spill_stats(&self) -> SpillCacheStats {
        self.inner.spill_stats()
    }
}

/// Question kinds counted by [`CountingOracle`], as metric suffixes.
const QUESTION_KINDS: [&str; 5] = ["nei", "enforce_fd", "validate_fd", "hidden", "naming"];

/// Counts the expert's questions by kind; answers pass through.
struct CountingOracle {
    inner: AutoOracle,
    asked: [u64; 5],
}

impl Oracle for CountingOracle {
    fn resolve_nei(&mut self, ctx: &NeiContext<'_>) -> NeiDecision {
        self.asked[0] += 1;
        self.inner.resolve_nei(ctx)
    }

    fn enforce_fd(&mut self, ctx: &FdContext<'_>) -> bool {
        self.asked[1] += 1;
        self.inner.enforce_fd(ctx)
    }

    fn validate_fd(&mut self, ctx: &FdContext<'_>) -> bool {
        self.asked[2] += 1;
        self.inner.validate_fd(ctx)
    }

    fn conceptualize_hidden(&mut self, ctx: &HiddenContext<'_>) -> bool {
        self.asked[3] += 1;
        self.inner.conceptualize_hidden(ctx)
    }

    fn name_new_relation(&mut self, ctx: &NamingContext<'_>) -> String {
        self.asked[4] += 1;
        self.inner.name_new_relation(ctx)
    }
}

// ---------------------------------------------------------------- stages

/// Stage layers, in pipeline order.
const STAGE_LAYERS: [&str; 6] = [
    "core.key_inference",
    "core.ind_discovery",
    "core.lhs_discovery",
    "core.rhs_discovery",
    "core.restruct",
    "core.translate",
];

fn stage_layer(stage: &str) -> Option<&'static str> {
    let snake = stage.replace('-', "_");
    STAGE_LAYERS
        .iter()
        .copied()
        .find(|l| l.strip_prefix("core.") == Some(snake.as_str()))
}

/// Engine-counter deltas and the peak RSS of one stage.
struct StageSample {
    layer: &'static str,
    hits: u64,
    misses: u64,
    rows: u64,
    peak_mb: f64,
}

/// Runs one stage inside its span. With `solo`, the peak-RSS mark is
/// restarted first so the sample is this stage's own peak; concurrent
/// sessions share the mark, so theirs is the process peak so far.
fn traced_stage(
    session: &mut DbreSession<'_>,
    stage: &dyn Stage,
    engine: &StatsEngine,
    solo: bool,
) -> Result<StageSample, String> {
    let layer =
        stage_layer(stage.name()).ok_or_else(|| format!("unknown stage `{}`", stage.name()))?;
    let before = engine.counters();
    if solo {
        reset_peak_rss();
    }
    span(layer, || session.run_stage(stage));
    let after = engine.counters();
    Ok(StageSample {
        layer,
        hits: after.cache_hits.saturating_sub(before.cache_hits),
        misses: after.cache_misses.saturating_sub(before.cache_misses),
        rows: after.rows_scanned.saturating_sub(before.rows_scanned),
        peak_mb: peak_rss_mb(),
    })
}

/// What one traced session produced.
struct TracedSession {
    result: PipelineResult,
    stages: Vec<StageSample>,
    asked: [u64; 5],
}

fn traced_session(
    db: Database,
    engine: &Arc<StatsEngine>,
    q: &[EquiJoin],
    options: &PipelineOptions,
    solo: bool,
) -> Result<TracedSession, String> {
    let mut oracle = CountingOracle {
        inner: AutoOracle::default(),
        asked: [0; 5],
    };
    let mut session =
        DbreSession::with_engine(db, &mut oracle, options.clone(), Arc::clone(engine));
    session.admit_q(q);
    let mut samples = Vec::new();
    for stage in stages(&session.options) {
        samples.push(traced_stage(&mut session, stage.as_ref(), engine, solo)?);
    }
    let result = session.into_result();
    Ok(TracedSession {
        result,
        stages: samples,
        asked: oracle.asked,
    })
}

// ------------------------------------------------------------- the run

/// Service-run facts that only the service workload has.
#[derive(Default)]
struct ServiceFacts {
    round_hits: Vec<(u64, u64)>,
    warm_misses_per_session: f64,
}

/// One traced process: load, run the workload once under tracing,
/// check the answers, and print the per-layer metrics.
pub fn run(w: &Workload, dir: &Path, spans_out: Option<&Path>) -> Result<String, String> {
    let programs = workload::load_programs(dir)?;
    let mut loaded = workload::load(w, dir)?;
    let mut options = w.options(w.backend());
    let mut facts = ServiceFacts::default();
    let out = match w.kind {
        Kind::InMemory | Kind::FlatFile => solo(w, dir, &mut loaded, &programs, &mut options)?,
        Kind::Service => service(w, dir, &mut loaded, &programs, &options, &mut facts)?,
    };
    let spans = take_spans();
    if let Some(path) = spans_out {
        write_spans(path, &spans)?;
    }
    let session_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.service.session")
        .map(Span::ms)
        .collect();
    // A service session's wall time is its pipeline time (extraction
    // ran once, before the rounds).
    let pipeline_ms = out.pipeline_ms.unwrap_or_else(|| median(&session_ms));
    let (sessions, engine) = (out.sessions, out.engine);

    let mut line = JsonLine::default();
    line.num("sessions", sessions.len() as f64)
        .num("failed", out.failed as f64)
        .num("trace.pipeline_ms", pipeline_ms);
    loading_metrics(&mut line, w, &loaded, &spans, out.joins);
    stage_metrics(&mut line, &spans, &sessions);
    let mut asked = [0u64; 5];
    let mut sketch = SketchPruneStats::default();
    for s in &sessions {
        for (total, n) in asked.iter_mut().zip(s.asked) {
            *total += n;
        }
        sketch.merge(&s.result.stats.sketch);
    }
    line.num("core.oracle.questions", asked.iter().sum::<u64>() as f64);
    for (kind, n) in QUESTION_KINDS.iter().zip(asked) {
        line.num(&format!("core.oracle.{kind}"), n as f64);
    }
    for op in BACKEND_OPS {
        let of_op: Vec<&Span> = spans.iter().filter(|s| s.name == op).collect();
        line.num(&format!("{op}.calls"), of_op.len() as f64)
            .num(&format!("{op}.ms"), of_op.iter().map(|s| s.ms()).sum());
    }
    let c = engine.counters();
    line.num(
        "relational.stats.hit_ratio",
        ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
    )
    .num("relational.stats.rows_scanned", c.rows_scanned as f64);
    let p = engine.page_stats();
    line.num("relational.bufpool.page_hits", p.hits as f64)
        .num("relational.bufpool.page_misses", p.misses as f64)
        .num("relational.bufpool.page_evictions", p.evictions as f64)
        .num(
            "relational.bufpool.hit_ratio",
            ratio(p.hits as f64, (p.hits + p.misses) as f64),
        );
    line.num("relational.sketch.candidates", sketch.candidates as f64)
        .num("relational.sketch.pruned", sketch.pruned as f64)
        .num("relational.sketch.verified", sketch.verified as f64)
        .num(
            "relational.sketch.prune_ratio",
            ratio(sketch.pruned as f64, sketch.candidates as f64),
        );
    service_metrics(&mut line, &spans, &facts);
    let covered: f64 = spans
        .iter()
        .filter(|s| s.name == "extract" || STAGE_LAYERS.contains(&s.name))
        .map(Span::ms)
        .sum();
    let traced_total = match w.kind {
        Kind::Service => {
            session_ms.iter().sum::<f64>()
                + spans
                    .iter()
                    .filter(|s| s.name == "extract")
                    .map(Span::ms)
                    .sum::<f64>()
        }
        _ => pipeline_ms,
    };
    line.num("trace.span_coverage", ratio(covered, traced_total));
    Ok(line.finish())
}

/// What a traced loop hands to the folding step.
struct RunOutput {
    sessions: Vec<TracedSession>,
    engine: Arc<StatsEngine>,
    /// `|Q|`.
    joins: usize,
    /// Wall time of the solo pipeline (`None` for the service loop).
    pipeline_ms: Option<f64>,
    failed: usize,
}

fn traced_engine(inner: Box<dyn CountBackend>) -> Arc<StatsEngine> {
    Arc::new(StatsEngine::with_backend(Box::new(TracedBackend { inner })))
}

/// One analyst, one session: the `run_with_programs` sequence with a
/// span around extraction and each stage.
fn solo(
    w: &Workload,
    dir: &Path,
    loaded: &mut Loaded,
    programs: &[dbre_extract::ProgramSource],
    options: &mut PipelineOptions,
) -> Result<RunOutput, String> {
    let reference = workload::reference(dir, 0)?;
    options.spilled = std::mem::take(&mut loaded.spilled);
    let db = std::mem::take(&mut loaded.db);
    // Streamed extensions are adopted by the paged backend before it
    // is wrapped, as `DbreSession::new` does for an untraced run.
    let inner: Box<dyn CountBackend> = if w.kind == Kind::FlatFile {
        let paged = PagedBackend::with_capacity_bytes(FLATFILE_PAGE_CACHE);
        for (rel, table) in &options.spilled {
            paged.adopt_spilled(&db, *rel, table);
        }
        Box::new(paged)
    } else {
        Box::new(EncodedBackend::new())
    };
    let engine = traced_engine(inner);
    let t = Instant::now();
    let q = span("extract", || {
        extract_programs(&db.schema, programs, &options.extract)
    })
    .q();
    let session = traced_session(db, &engine, &q, options, true)?;
    let pipeline_ms = ms(t.elapsed());
    let failed = usize::from(!workload::check(&session.result, &reference));
    if failed > 0 {
        eprintln!("perfbench: traced session output differs from the reference run");
    }
    Ok(RunOutput {
        sessions: vec![session],
        engine,
        joins: q.len(),
        pipeline_ms: Some(pipeline_ms),
        failed,
    })
}

/// `SERVICE_ROUNDS` rounds of concurrent sessions, each followed by the
/// writer's delete or append, as in the measured service loop.
fn service(
    w: &Workload,
    dir: &Path,
    loaded: &mut Loaded,
    programs: &[dbre_extract::ProgramSource],
    options: &PipelineOptions,
    facts: &mut ServiceFacts,
) -> Result<RunOutput, String> {
    let mut sessions = Vec::new();
    let references = [workload::reference(dir, 0)?, workload::reference(dir, 1)?];
    let db = std::mem::take(&mut loaded.db);
    let q = span("extract", || {
        extract_programs(&db.schema, programs, &options.extract)
    })
    .q();
    let target = workload::largest_relation(&db);
    let (delete, append) = workload::delta_pair(&db, target);
    let shared = SharedDb::new(db);
    let engine = traced_engine(Box::new(EncodedBackend::new()));
    let mut failed = 0;
    let mut warm_misses = 0u64;
    for round in 0..workload::SERVICE_ROUNDS {
        let before = engine.counters();
        let snapshot = shared.snapshot();
        let outcomes: Vec<Result<TracedSession, String>> = span("core.service.round", || {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..w.sessions)
                    .map(|i| {
                        let (snapshot, engine, q) = (&snapshot, &engine, &q);
                        scope.spawn(move || {
                            RUN.with(|r| r.set(1 + (round * w.sessions + i) as u64));
                            span("core.service.session", || {
                                traced_session(snapshot.to_database(), engine, q, options, false)
                            })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err("session thread panicked".into()))
                    })
                    .collect()
            })
        });
        let after = engine.counters();
        let misses = after.cache_misses.saturating_sub(before.cache_misses);
        facts
            .round_hits
            .push((after.cache_hits.saturating_sub(before.cache_hits), misses));
        if round > 0 {
            warm_misses += misses;
        }
        let outcomes: Vec<TracedSession> = outcomes.into_iter().collect::<Result<_, _>>()?;
        let agree = outcomes
            .windows(2)
            .all(|p| p[0].result.log == p[1].result.log);
        for s in &outcomes {
            if !agree || !workload::check(&s.result, &references[round % 2]) {
                failed += 1;
            }
        }
        sessions.extend(outcomes);
        let delta = if round % 2 == 0 { &delete } else { &append };
        span("relational.snapshot.apply", || {
            shared.apply(delta, &[&engine])
        })
        .map_err(|e| format!("commit: {e}"))?;
    }
    if failed > 0 {
        eprintln!("perfbench: {failed} traced sessions differ from the reference runs");
    }
    facts.warm_misses_per_session =
        warm_misses as f64 / ((workload::SERVICE_ROUNDS - 1) * w.sessions) as f64;
    Ok(RunOutput {
        sessions,
        engine,
        joins: q.len(),
        pipeline_ms: None,
        failed,
    })
}

// ------------------------------------------------------------- folding

fn loading_metrics(
    line: &mut JsonLine,
    w: &Workload,
    loaded: &Loaded,
    spans: &[Span],
    joins: usize,
) {
    let spilled = w.kind == Kind::FlatFile;
    line.num("relational.csv.import_ms", loaded.import_ms)
        .num("relational.csv.rows", loaded.rows as f64)
        .num("relational.spill.ingest_ms", loaded.ingest_ms)
        .num("relational.spill.validate_ms", loaded.validate_ms)
        .num(
            "relational.spill.bytes",
            if spilled {
                loaded.store_bytes as f64
            } else {
                0.0
            },
        )
        .num(
            "extract.ms",
            spans
                .iter()
                .filter(|s| s.name == "extract")
                .map(Span::ms)
                .sum(),
        )
        .num("extract.joins", joins as f64);
}

/// Per stage: span time, self time (span minus the backend calls made
/// directly under it), counter deltas and peak RSS, summed over
/// sessions (peak: the largest).
fn stage_metrics(line: &mut JsonLine, spans: &[Span], sessions: &[TracedSession]) {
    let mut child_ms: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ms.entry(s.parent).or_default() += s.ms();
    }
    for layer in STAGE_LAYERS {
        let of_layer: Vec<&Span> = spans.iter().filter(|s| s.name == layer).collect();
        let total: f64 = of_layer.iter().map(|s| s.ms()).sum();
        let children: f64 = of_layer
            .iter()
            .map(|s| child_ms.get(&s.id).copied().unwrap_or(0.0))
            .sum();
        let samples = sessions
            .iter()
            .flat_map(|s| s.stages.iter())
            .filter(|s| s.layer == layer);
        let (mut hits, mut misses, mut rows, mut peak) = (0u64, 0u64, 0u64, 0.0f64);
        for s in samples {
            hits += s.hits;
            misses += s.misses;
            rows += s.rows;
            peak = peak.max(s.peak_mb);
        }
        line.num(&format!("{layer}.ms"), total)
            .num(&format!("{layer}.self_ms"), (total - children).max(0.0))
            .num(&format!("{layer}.cache_hits"), hits as f64)
            .num(&format!("{layer}.cache_misses"), misses as f64)
            .num(&format!("{layer}.rows_scanned"), rows as f64)
            .num(&format!("{layer}.peak_rss_mb"), peak);
    }
}

fn service_metrics(line: &mut JsonLine, spans: &[Span], facts: &ServiceFacts) {
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    };
    let hit_ratio = |rounds: &[(u64, u64)]| {
        let (h, m) = rounds
            .iter()
            .fold((0u64, 0u64), |(h, m), &(rh, rm)| (h + rh, m + rm));
        ratio(h as f64, (h + m) as f64)
    };
    let (first, warm) = facts.round_hits.split_at(facts.round_hits.len().min(1));
    line.num(
        "relational.snapshot.apply_ms",
        median(&durations("relational.snapshot.apply")),
    )
    .num(
        "core.service.session_ms",
        median(&durations("core.service.session")),
    )
    .num(
        "core.service.round_ms",
        median(&durations("core.service.round")),
    )
    .num(
        "core.service.warm_cache_misses",
        facts.warm_misses_per_session,
    )
    .num("core.service.first_round_hit_ratio", hit_ratio(first))
    .num("core.service.warm_hit_ratio", hit_ratio(warm));
}
