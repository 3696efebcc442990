//! The three workloads, their generated inputs, the loaders the
//! measured processes use, and the reference answers every session is
//! checked against.

use crate::util::{dir_bytes, rss_mb, JsonLine};
use dbre_core::pipeline::{PipelineOptions, PipelineResult};
use dbre_core::render::{render_inds, render_log, render_schema};
use dbre_core::{run_with_programs, AutoOracle, BackendChoice, SketchMode};
use dbre_extract::{extract_programs, ExtractConfig, ProgramSource, SourceKind};
use dbre_relational::csv::{export_csv, import_csv, import_csv_spilled};
use dbre_relational::spill::validate_spilled;
use dbre_relational::{
    AttrId, BufferPool, CountBackend, Database, Delta, PagedBackend, RelId, SpilledTable, Value,
};
use dbre_sql::counts::ident;
use dbre_sql::Catalog;
use dbre_synth::{
    build_workload, generate_programs, generate_spec, DenormConfig, GeneratedPrograms, GroundTruth,
    ProgramConfig, SynthConfig,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Buffer-pool capacity of the flat-file workload: far below its
/// working set, so the pool evicts.
pub const FLATFILE_PAGE_CACHE: usize = 1 << 20;

/// Rounds per service process, measured and traced alike. Each round is
/// followed by one writer commit, alternately the delete and the append,
/// so four rounds see both content versions twice and the process ends
/// on the original content.
pub const SERVICE_ROUNDS: usize = 4;

/// How a workload loads and serves its extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `import_csv`, encoded backend, declared keys, one analyst.
    InMemory,
    /// `import_csv_spilled`, paged backend with a small pool, no
    /// declared keys (key inference on), one analyst.
    FlatFile,
    /// `import_csv`, shared encoded engine, concurrent sessions plus a
    /// writer committing deltas between rounds.
    Service,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    /// Rows per entity (8 entities).
    pub rows: usize,
    /// Concurrent sessions per round (1 for the single-analyst loops).
    pub sessions: usize,
}

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        let (kind, rows, sessions) = match name {
            "inmem_e8_20k" => (Kind::InMemory, 20_000, 1),
            "flatfile_e8_20k" => (Kind::FlatFile, 20_000, 1),
            "service_e8_10k" => (Kind::Service, 10_000, 2),
            _ => return None,
        };
        Some(Workload {
            kind,
            rows,
            sessions,
        })
    }

    fn declares_keys(&self) -> bool {
        self.kind != Kind::FlatFile
    }

    /// Pipeline options, spelled out so no environment variable can
    /// change what is measured.
    pub fn options(&self, backend: BackendChoice) -> PipelineOptions {
        PipelineOptions {
            extract: ExtractConfig::default(),
            rhs: Default::default(),
            infer_missing_keys: self.kind == Kind::FlatFile,
            backend,
            page_cache: (self.kind == Kind::FlatFile).then_some(FLATFILE_PAGE_CACHE),
            spilled: Vec::new(),
            sketch: SketchMode::On,
        }
    }

    /// The backend the measured sessions use.
    pub fn backend(&self) -> BackendChoice {
        match self.kind {
            Kind::FlatFile => BackendChoice::Paged,
            Kind::InMemory | Kind::Service => BackendChoice::Encoded,
        }
    }
}

/// A database loaded from the generated inputs, plus how long it took.
pub struct Loaded {
    pub db: Database,
    pub spilled: Vec<(RelId, Arc<SpilledTable>)>,
    /// Schema parse through the last validation, in seconds.
    pub setup_s: f64,
    pub csv_bytes: u64,
    /// Spill-directory bytes (flat file), or resident growth of the
    /// materialized extensions (in-memory workloads).
    pub store_bytes: u64,
    pub rows: usize,
    pub import_ms: f64,
    pub ingest_ms: f64,
    pub validate_ms: f64,
    spill_dir: Option<PathBuf>,
}

impl Drop for Loaded {
    fn drop(&mut self) {
        if let Some(dir) = &self.spill_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn schema_path(dir: &Path) -> PathBuf {
    dir.join("schema.sql")
}

fn csv_path(dir: &Path, db: &Database, rel: RelId) -> PathBuf {
    dir.join(format!("{}.csv", db.schema.relation(rel).name))
}

fn reference_path(dir: &Path, content: usize) -> PathBuf {
    dir.join(format!("reference-{content}.txt"))
}

fn load_schema(dir: &Path) -> Result<Database, String> {
    let path = schema_path(dir);
    let ddl = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut catalog = Catalog::new();
    catalog
        .load_script(&ddl)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(catalog.into_database())
}

/// Loads the workload's inputs the way its measured sessions do.
pub fn load(w: &Workload, dir: &Path) -> Result<Loaded, String> {
    load_as(w.kind == Kind::FlatFile, dir)
}

fn load_as(streamed: bool, dir: &Path) -> Result<Loaded, String> {
    let rss_before = rss_mb();
    let t = Instant::now();
    let mut db = load_schema(dir)?;
    let rels: Vec<RelId> = db.schema.iter().map(|(rel, _)| rel).collect();
    let mut loaded = Loaded {
        db: Database::new(),
        spilled: Vec::new(),
        setup_s: 0.0,
        csv_bytes: 0,
        store_bytes: 0,
        rows: 0,
        import_ms: 0.0,
        ingest_ms: 0.0,
        validate_ms: 0.0,
        spill_dir: None,
    };
    let spill_dir = dir.join(format!("spill-{}", std::process::id()));
    if streamed {
        let _ = std::fs::remove_dir_all(&spill_dir);
        loaded.spill_dir = Some(spill_dir.clone());
    }
    for &rel in &rels {
        let path = csv_path(dir, &db, rel);
        loaded.csv_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        let step = Instant::now();
        if streamed {
            let table = import_csv_spilled(&mut db, rel, &path, Some(&spill_dir))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            loaded.rows += table.rows();
            loaded.spilled.push((rel, Arc::new(table)));
            loaded.ingest_ms += crate::util::ms(step.elapsed());
        } else {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            loaded.rows +=
                import_csv(&mut db, rel, &text).map_err(|e| format!("{}: {e}", path.display()))?;
            loaded.import_ms += crate::util::ms(step.elapsed());
        }
    }
    let step = Instant::now();
    db.validate_dictionary()
        .map_err(|e| format!("extension violates the dictionary: {e}"))?;
    if streamed {
        let pool = BufferPool::default();
        for (rel, table) in &loaded.spilled {
            validate_spilled(&db, *rel, table, &pool)
                .map_err(|e| format!("extension violates the dictionary: {e}"))?;
        }
        loaded.validate_ms = crate::util::ms(step.elapsed());
    }
    loaded.setup_s = t.elapsed().as_secs_f64();
    loaded.store_bytes = if streamed {
        dir_bytes(&spill_dir)
    } else {
        ((rss_mb() - rss_before).max(0.0) * 1024.0 * 1024.0) as u64
    };
    loaded.db = db;
    Ok(loaded)
}

/// The generated program sources, in their original order.
pub fn load_programs(dir: &Path) -> Result<Vec<ProgramSource>, String> {
    let pdir = dir.join("programs");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&pdir)
        .map_err(|e| format!("cannot read {}: {e}", pdir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let name = path
                .file_name()
                .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
            Ok(ProgramSource {
                name,
                text,
                kind: SourceKind::Auto,
            })
        })
        .collect()
}

/// The answers a session is checked on: decision log, restructured
/// schema, RIC set and EER schema.
pub fn canonical(result: &PipelineResult) -> String {
    format!(
        "# log\n{}\n# schema\n{}\n# ric\n{}\n# eer\n{:?}\n",
        render_log(&result.log),
        render_schema(&result.db),
        render_inds(&result.db, &result.restructured.ric),
        result.eer
    )
}

/// The reference answers for one content version (service content 1
/// is the version with the writer's delete applied).
pub fn reference(dir: &Path, content: usize) -> Result<String, String> {
    let path = reference_path(dir, content);
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Is `result` complete and equal to the reference answers?
pub fn check(result: &PipelineResult, reference: &str) -> bool {
    result.stage_errors.is_empty() && canonical(result) == reference
}

/// The relation with the most rows (the lowest id on a tie).
pub fn largest_relation(db: &Database) -> RelId {
    let mut best: Option<(usize, RelId)> = None;
    for (rel, _) in db.schema.iter() {
        let len = db.table(rel).len();
        if best.is_none_or(|(n, _)| len > n) {
            best = Some((len, rel));
        }
    }
    best.map_or(RelId(0), |(_, rel)| rel)
}

/// The writer's pair of deltas on `rel`: delete its last 1% of rows,
/// and the append that puts them back in the same order.
pub fn delta_pair(db: &Database, rel: RelId) -> (Delta, Delta) {
    let table = db.table(rel);
    let n = table.len();
    let first = n - (n / 100).max(1).min(n);
    let arity = db.schema.relation(rel).arity();
    let rows: Vec<Vec<Value>> = (first..n)
        .map(|i| {
            (0..arity)
                .map(|j| table.cell(i, AttrId(j as u16)).clone())
                .collect()
        })
        .collect();
    (
        Delta::Delete {
            rel,
            rows: (first..n).collect(),
        },
        Delta::Append { rel, rows },
    )
}

fn ddl(db: &Database, declare_keys: bool) -> String {
    let mut out = String::new();
    for (rel, relation) in db.schema.iter() {
        let mut items: Vec<String> = relation
            .attributes()
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let not_null = db.constraints.not_null.contains(&(rel, AttrId(i as u16)));
                format!(
                    "{} {}{}",
                    ident(&a.name),
                    a.domain.sql_name(),
                    if not_null { " NOT NULL" } else { "" }
                )
            })
            .collect();
        if declare_keys {
            for key in db.constraints.keys.iter().filter(|k| k.rel == rel) {
                let names: Vec<String> = key
                    .attrs
                    .iter()
                    .map(|a| ident(relation.attr_name(a)))
                    .collect();
                items.push(format!("UNIQUE ({})", names.join(", ")));
            }
        }
        out.push_str(&format!(
            "CREATE TABLE {} (\n  {}\n);\n",
            ident(&relation.name),
            items.join(",\n  ")
        ));
    }
    out
}

/// Checks that `loaded` equals `generated` relation by relation and
/// column by column (keys only where the workload declares them).
fn same_database(generated: &Database, loaded: &Database, keys: bool) -> Result<(), String> {
    let gen_rels: Vec<_> = generated.schema.iter().collect();
    let load_rels: Vec<_> = loaded.schema.iter().collect();
    if gen_rels.len() != load_rels.len() {
        return Err("relation count differs after reload".into());
    }
    for ((rel, g), (lrel, l)) in gen_rels.into_iter().zip(load_rels) {
        if g.name != l.name || g.attributes() != l.attributes() || rel != lrel {
            return Err(format!("relation `{}` differs after reload", g.name));
        }
        let (gt, lt) = (generated.table(rel), loaded.table(rel));
        if gt.len() != lt.len() {
            return Err(format!(
                "`{}` has {} rows after reload, not {}",
                g.name,
                lt.len(),
                gt.len()
            ));
        }
        for a in 0..g.arity() {
            let attr = AttrId(a as u16);
            if gt.column(attr) != lt.column(attr) {
                return Err(format!(
                    "column `{}.{}` differs after reload",
                    g.name,
                    g.attr_name(attr)
                ));
            }
        }
    }
    let key_list = |db: &Database| {
        let mut v: Vec<String> = db
            .constraints
            .keys
            .iter()
            .map(|k| format!("{k:?}"))
            .collect();
        v.sort();
        v
    };
    let want_keys = if keys {
        key_list(generated)
    } else {
        Vec::new()
    };
    if key_list(loaded) != want_keys {
        return Err("declared keys differ after reload".into());
    }
    let mut gn = generated.constraints.not_null.clone();
    let mut ln = loaded.constraints.not_null.clone();
    gn.sort();
    ln.sort();
    if gn != ln {
        return Err("not-null constraints differ after reload".into());
    }
    Ok(())
}

/// Checks that streamed ingest decodes to the generated columns.
fn same_streamed(generated: &Database, dir: &Path) -> Result<(), String> {
    let loaded = load_as(true, dir)?;
    let backend = PagedBackend::new();
    for (rel, table) in &loaded.spilled {
        backend.adopt_spilled(&loaded.db, *rel, table);
        let relation = generated.schema.relation(*rel);
        for a in 0..relation.arity() {
            let attr = AttrId(a as u16);
            let dict = backend
                .column_dict(&loaded.db, *rel, attr)
                .ok_or_else(|| format!("no dictionary for streamed `{}`", relation.name))?;
            let decoded: Vec<Value> = dict
                .codes()
                .iter()
                .map(|&c| dict.value_of(c).cloned().unwrap_or(Value::Null))
                .collect();
            if decoded.as_slice() != generated.table(*rel).column(attr) {
                return Err(format!(
                    "streamed column `{}.{}` differs from the generated one",
                    relation.name,
                    relation.attr_name(attr)
                ));
            }
        }
    }
    Ok(())
}

/// The workload shape: conceptual schema, denormalization plan and
/// programs are those of `dbre_bench::scenario(8, rows, 42)`, so every
/// seed measures the same schema and the same questions.
const SHAPE_SEED: u64 = 42;

/// `dbre_bench::scenario(8, rows, SHAPE_SEED)` with the extension's
/// values drawn from `data_seed` instead.
fn scenario(rows: usize, data_seed: u64) -> (Database, GroundTruth, GeneratedPrograms) {
    let spec = generate_spec(&SynthConfig {
        n_entities: 8,
        n_relationships: 4,
        n_entity_fks: 8,
        n_isa: 1,
        rows_per_entity: rows,
        rows_per_relationship: rows * 2,
        seed: SHAPE_SEED,
        ..Default::default()
    });
    let denorm = DenormConfig {
        p_embed: 0.7,
        p_drop: 0.4,
        seed: SHAPE_SEED,
    };
    let (db, truth) = build_workload(&spec, &denorm, data_seed);
    let programs = generate_programs(
        &truth,
        &ProgramConfig {
            coverage: 1.0,
            noise_programs: 2,
            seed: SHAPE_SEED,
        },
    );
    (db, truth, programs)
}

/// Generates the inputs for `seed`, checks their round trip, and
/// records the reference answers and the recovery quality.
pub fn prepare(w: &Workload, seed: u64, dir: &Path) -> Result<String, String> {
    let (generated, truth, programs) = scenario(w.rows, seed);
    let io = |e: std::io::Error| format!("cannot write inputs under {}: {e}", dir.display());
    std::fs::create_dir_all(dir.join("programs")).map_err(io)?;
    std::fs::write(schema_path(dir), ddl(&generated, w.declares_keys())).map_err(io)?;
    for (rel, _) in generated.schema.iter() {
        std::fs::write(csv_path(dir, &generated, rel), export_csv(&generated, rel)).map_err(io)?;
    }
    for (i, p) in programs.programs.iter().enumerate() {
        let name: String = p
            .name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        std::fs::write(dir.join("programs").join(format!("{i:03}-{name}")), &p.text).map_err(io)?;
    }

    // Round trip: the loaded inputs must equal what was generated.
    let loaded = load_as(false, dir)?;
    same_database(&generated, &loaded.db, w.declares_keys())?;
    if w.kind == Kind::FlatFile {
        same_streamed(&generated, dir)?;
    }
    let sources = load_programs(dir)?;
    let config = ExtractConfig::default();
    if extract_programs(&generated.schema, &programs.programs, &config).q()
        != extract_programs(&loaded.db.schema, &sources, &config).q()
    {
        return Err("program sources extract a different Q after reload".into());
    }
    drop(generated);

    // Reference answers: the value-level backend over materialized
    // extensions, one run per content version the sessions can see.
    let options = w.options(BackendChoice::Reference);
    let mut contents = vec![loaded.db.clone()];
    if w.kind == Kind::Service {
        let mut after = loaded.db.clone();
        let (delete, _) = delta_pair(&after, largest_relation(&after));
        after
            .apply_delta(&delete)
            .map_err(|e| format!("writer delta: {e}"))?;
        contents.push(after);
    }
    drop(loaded);
    let mut quality = None;
    for (content, db) in contents.into_iter().enumerate() {
        let result = run_with_programs(db, &sources, &mut AutoOracle::default(), &options);
        if !result.stage_errors.is_empty() {
            return Err(format!("reference run degraded: {:?}", result.stage_errors));
        }
        std::fs::write(reference_path(dir, content), canonical(&result)).map_err(io)?;
        if content == 0 {
            quality = Some(dbre_synth::evaluate(
                &result,
                &truth,
                Some(&programs.covered),
            ));
        }
    }
    let q = quality.ok_or("no reference run")?;
    Ok(JsonLine::default()
        .num("ind_f1", q.ind.f1)
        .num("fd_f1", q.fd.f1)
        .num("schema_f1", q.schema.f1)
        .finish())
}
