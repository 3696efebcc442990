//! The counting-backend seam: one trait for the `‖·‖` primitive, and
//! its in-crate implementations.
//!
//! Every algorithm of the paper is driven by a handful of extension
//! statistics — `‖r[A]‖` distinct projections, the three IND-Discovery
//! join cardinalities, FD extension tests, and LHS row groups (§6).
//! [`CountBackend`] is the seam they are asked through: the memoizing
//! [`crate::stats::StatsEngine`] decorates *any* `dyn CountBackend`
//! with generation-tagged result caches, the pipeline selects a backend
//! per run, and the differential test suite pins every implementation
//! to the same answers. A future backend (sharded, remote, sampled) is
//! a one-file addition that inherits the caching, the pipeline wiring,
//! and the test harness.
//!
//! Two implementations live here:
//!
//! * [`ReferenceBackend`] — the `Value`-based reference semantics of
//!   [`crate::counting`] / [`crate::table`]: the oracle every other
//!   backend is pinned against, and the fallback they degrade to;
//! * [`CodedBackend`] — the dictionary-code kernels of
//!   [`crate::kernels`] over per-column dictionaries cached per table
//!   generation. Where a column's per-row codes live is a storage
//!   decision, its [`Residency`]: [`EncodedBackend`] keeps every column
//!   in RAM, [`PagedBackend`] spills a column longer than one page to a
//!   [`PageFile`] read through a [`BufferPool`]. Both share one column
//!   cache, one distinct-set cache, one kernel source and one delta
//!   path, so a pool at least as large as the working set answers —
//!   and caches — exactly like the resident backend.
//!
//! The SQL backend lives in `dbre-sql` (`SqlBackend`), respecting the
//! dependency direction: this crate knows nothing about SQL.
//!
//! NULL conventions are part of the contract (see the trait docs):
//! projections and counts drop NULL-bearing tuples (SQL
//! `COUNT(DISTINCT …)`), [`CountBackend::fd_holds`] skips NULL-LHS rows
//! and compares RHS values structurally (`NULL = NULL`, `NaN = NaN` by
//! bit key), while [`CountBackend::partition1`] keeps the mining
//! convention (`NULL = NULL`). Every implementation must reproduce
//! these exactly — the differential proptests enforce it.

use crate::attr::AttrId;
use crate::bufpool::{BufferPool, PageCacheStats};
use crate::counting::{join_stats, EquiJoin, JoinStats};
use crate::database::Database;
use crate::delta::Delta;
use crate::deps::{Fd, Ind};
use crate::encode::{decode_set_cols, intersect_count, ColumnDict, EncodedSet};
use crate::error::DbreError;
use crate::kernels::{self, CodeSource};
use crate::pages::{PageError, PageFile, PagedColumn, PagedSource, PAGE_CODES};
use crate::partitions::StrippedPartition;
use crate::schema::RelId;
use crate::sketch::ColumnSketch;
use crate::spill::{SpillCacheStats, SpilledTable};
use crate::table::ProjKey;
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// What a cache shard does when its lock is recovered from poisoning:
/// discard everything it holds. Dropping a cache is always sound (the
/// next probe rebuilds from the extension) — serving it is not, see
/// [`read_recover`].
pub(crate) trait PoisonReset {
    /// Discards the shard's contents.
    fn reset(&mut self);
}

impl<K, V, S> PoisonReset for HashMap<K, V, S> {
    fn reset(&mut self) {
        self.clear();
    }
}

/// Acquires a read guard, recovering from poisoning by *clearing the
/// shard first*.
///
/// A poisoned lock means a writer panicked while holding the guard.
/// Individual inserts here are single `HashMap::insert` calls of
/// fully-formed values, so a torn *entry* is impossible — but the
/// panicking thread may still have inserted a value computed from a
/// state that itself panicked halfway (a probe that blew up after
/// caching an intermediate), and a recovered reader would then serve
/// that entry forever. Discarding the shard on recovery costs one
/// cache refill and removes the possibility; `clear_poison` is called
/// so later lookups don't re-purge a healthy cache.
pub(crate) fn read_recover<T: PoisonReset>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    if let Ok(guard) = lock.read() {
        return guard;
    }
    // Escalate to a write to purge, then retake the read lock.
    drop(write_recover(lock));
    lock.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Write twin of [`read_recover`]: same purge-on-poison contract,
/// applied directly to the write guard.
pub(crate) fn write_recover<T: PoisonReset>(
    lock: &RwLock<T>,
) -> std::sync::RwLockWriteGuard<'_, T> {
    match lock.write() {
        Ok(guard) => guard,
        Err(poison) => {
            let mut guard = poison.into_inner();
            guard.reset();
            lock.clear_poison();
            guard
        }
    }
}

/// A cache entry tagged with the table generation it was built from
/// (a pair of generations for an entry over two tables).
pub(crate) struct Tagged<T, G = u64> {
    pub(crate) gen: G,
    pub(crate) value: Arc<T>,
}

/// A cache of generation-tagged entries.
pub(crate) type TaggedCache<K, T, G = u64> = RwLock<HashMap<K, Tagged<T, G>>>;

/// Serves `cache[key]` when its tag is `gen`; otherwise runs `build`
/// and inserts its value under `gen`, replacing any stale entry. The
/// flag is `true` when this call's build is the value returned.
///
/// Keys can be shared across concurrent probes (two parallel join
/// probes touch the same column, parallel FD checks share an LHS), so
/// after building the entry is re-checked under the write lock: if a
/// concurrent prober beat us, its entry is adopted (flag `false`, as
/// for a plain hit) and ours dropped. Building before locking wastes
/// the loser's pass but never serializes distinct keys.
pub(crate) fn cached<K: Hash + Eq, T, G: Eq, E>(
    cache: &TaggedCache<K, T, G>,
    key: K,
    gen: G,
    build: impl FnOnce() -> Result<Arc<T>, E>,
) -> Result<(Arc<T>, bool), E> {
    if let Some(entry) = read_recover(cache).get(&key) {
        if entry.gen == gen {
            return Ok((Arc::clone(&entry.value), false));
        }
    }
    let value = build()?;
    let mut guard = write_recover(cache);
    if let Some(entry) = guard.get(&key) {
        if entry.gen == gen {
            return Ok((Arc::clone(&entry.value), false));
        }
    }
    guard.insert(
        key,
        Tagged {
            gen,
            value: Arc::clone(&value),
        },
    );
    Ok((value, true))
}

/// Carries the entries of relation `rel` across a committed delta:
/// each entry tagged `old_gen` is fed to `step` and re-inserted under
/// `new_gen` when it returns a maintained value; every other entry of
/// `rel` (stale tags, shapes `step` declines) is evicted. Entries of
/// other relations are untouched.
pub(crate) fn maintain<A: Clone + Eq + Hash, T>(
    cache: &TaggedCache<(RelId, A), T>,
    rel: RelId,
    old_gen: u64,
    new_gen: u64,
    mut step: impl FnMut(&A, &T) -> Option<T>,
) {
    let mut guard = write_recover(cache);
    let keys: Vec<(RelId, A)> = guard.keys().filter(|(r, _)| *r == rel).cloned().collect();
    for key in keys {
        let next = guard
            .get(&key)
            .filter(|entry| entry.gen == old_gen)
            .and_then(|entry| step(&key.1, &entry.value));
        match next {
            Some(value) => {
                guard.insert(
                    key,
                    Tagged {
                        gen: new_gen,
                        value: Arc::new(value),
                    },
                );
            }
            None => {
                guard.remove(&key);
            }
        }
    }
}

/// Execution counters a backend may expose about *how* it served its
/// probes — all zero for backends with a single execution strategy.
///
/// The SQL backend populates all three: `fallback_failures` counts
/// generated statements that failed to execute and were silently
/// served by the reference semantics (a healthy backend keeps this at
/// zero — the pipeline surfaces it as a warning), while `batch_ops` /
/// `tuple_fallback_ops` record how many statements were recognised as
/// `‖·‖` probes and run on the counting kernels versus run whole by
/// the tuple-at-a-time interpreter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendExecStats {
    /// Probes whose native execution failed and were served by a
    /// reference fallback instead. Zero on a healthy backend.
    pub fallback_failures: u64,
    /// Statements recognised as `‖·‖` probes and lowered onto the
    /// counting kernels.
    pub batch_ops: u64,
    /// Whole statements run by the tuple-at-a-time interpreter.
    pub tuple_fallback_ops: u64,
}

/// One implementation of the paper's `‖·‖` counting primitive and the
/// extension tests built on it.
///
/// All methods take the [`Database`] by parameter — backends are
/// (logically) stateless services over whatever extension they are
/// handed; any internal caching (see [`CodedBackend`]) must be
/// generation-aware and invisible in the results. `Send + Sync` is a
/// supertrait so one backend can serve the parallel workers of
/// [`crate::par::par_map`] through a shared reference.
///
/// Semantics contract (pinned by the differential proptest suites):
///
/// * [`count_distinct`](CountBackend::count_distinct) /
///   [`projection`](CountBackend::projection) — distinct projected
///   tuples with NULL-bearing rows dropped (SQL `COUNT(DISTINCT …)`);
/// * [`join_stats`](CountBackend::join_stats) — the three cardinalities
///   `N_k`, `N_l`, `N_kl` of §6.1, NULLs never join;
/// * [`lhs_groups`](CountBackend::lhs_groups) — row-index groups of
///   size ≥ 2 agreeing on the attributes, NULL-bearing rows skipped
///   (unless the attribute list is empty), groups ascending and sorted;
/// * [`fd_holds`](CountBackend::fd_holds) — SQL convention, same
///   answer as [`Database::fd_holds`];
/// * [`partition1`](CountBackend::partition1) — the mining convention
///   (`NULL = NULL`) of [`crate::partitions`].
pub trait CountBackend: Send + Sync {
    /// A short stable name for reports and the CLI (`"reference"`,
    /// `"encoded"`, `"sql"`, `"paged"`).
    fn name(&self) -> &'static str;

    /// `‖rel[attrs]‖` — the paper's cardinality query (SQL
    /// `COUNT(DISTINCT attrs)`: NULL-bearing tuples dropped).
    fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize;

    /// The three IND-Discovery cardinalities for `join` (§6.1).
    fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats;

    /// Row-index groups (size ≥ 2) agreeing on `attrs` under SQL
    /// semantics — rows with a NULL in `attrs` are skipped, exactly
    /// like [`Database::fd_holds`]. Deterministically ordered: indices
    /// ascending within a group, groups sorted.
    fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>>;

    /// The distinct projection `π_{attrs}(rel)` (NULL rows dropped) as
    /// `Value` tuples — for consumers that need the actual values,
    /// e.g. materializing a conceptualized intersection.
    fn projection(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<HashSet<ProjKey>> {
        Arc::new(db.table(rel).distinct_projection(attrs))
    }

    /// Does `fd` hold in the extension? SQL NULL semantics: NULL-LHS
    /// rows are skipped; the RHS comparison is structural equality on
    /// the raw values (`NULL = NULL`, `NaN = NaN` by bit key). The
    /// default builds on [`lhs_groups`](CountBackend::lhs_groups) and
    /// touches only the grouped rows.
    fn fd_holds(&self, db: &Database, fd: &Fd) -> bool {
        let lhs: Vec<AttrId> = fd.lhs.iter().collect();
        let rhs: Vec<AttrId> = fd.rhs.iter().collect();
        let groups = self.lhs_groups(db, fd.rel, &lhs);
        let table = db.table(fd.rel);
        let rcols: Vec<&[Value]> = rhs.iter().map(|a| table.column(*a)).collect();
        groups.iter().all(|group| {
            let first = group[0];
            group[1..]
                .iter()
                .all(|&i| rcols.iter().all(|c| c[i] == c[first]))
        })
    }

    /// Does `ind` hold in the extension? Same answer as
    /// [`Database::ind_holds`]. The default phrases inclusion through
    /// [`join_stats`](CountBackend::join_stats): `r[X] ⊆ s[Y]` iff the
    /// intersection has the full left cardinality.
    fn ind_holds(&self, db: &Database, ind: &Ind) -> bool {
        // An Ind guarantees equal side arity, so the struct literal
        // cannot violate the EquiJoin invariant.
        let join = EquiJoin {
            left: ind.lhs.clone(),
            right: ind.rhs.clone(),
        };
        let s = self.join_stats(db, &join);
        s.n_join == s.n_left
    }

    /// The stripped partition `π_{attr}` under the **mining
    /// convention** (`NULL = NULL`) — the substrate of the TANE/key
    /// baselines, not expressible as a plain SQL count.
    fn partition1(&self, db: &Database, rel: RelId, attr: AttrId) -> Arc<StrippedPartition> {
        Arc::new(StrippedPartition::for_attribute(db.table(rel), attr))
    }

    /// A hint that `rel` is about to be queried heavily (e.g. right
    /// after a CSV import, while the rows are hot): backends may build
    /// internal structures eagerly. Results must be unaffected.
    fn prewarm(&self, db: &Database, rel: RelId) {
        let _ = (db, rel);
    }

    /// The backend's dictionary encoding of one column, when it
    /// maintains one — the dict-access seam the coded g3 and Restruct
    /// kernels read through ([`column_dicts`]), so they pull codes from
    /// the same generation-tagged cache as every counting probe instead
    /// of re-interning columns. Backends without an encoding return
    /// `None` and consumers build their own dictionary.
    fn column_dict(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnDict>> {
        let _ = (db, rel, attr);
        None
    }

    /// The backend's sketch of one column
    /// ([`crate::sketch::ColumnSketch`]: exact distinct hashes, HLL,
    /// blocked Bloom), when it can produce one cheaply and *soundly* —
    /// the prefilter seam the discovery stages consult before paying
    /// for exact kernels. `None` (the default) disables pruning for
    /// the column, which is always correct: sketches only ever
    /// suppress work whose result they prove, so their absence merely
    /// costs speed. Implementations must derive the sketch from the
    /// same generation-consistent state that serves their counting
    /// probes.
    fn column_sketch(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnSketch>> {
        let _ = (db, rel, attr);
        None
    }

    /// A snapshot of the backend's [`BackendExecStats`]. Defaults to
    /// all-zero for backends with a single execution strategy.
    fn exec_stats(&self) -> BackendExecStats {
        BackendExecStats::default()
    }

    /// A snapshot of the backend's page-cache counters
    /// ([`crate::bufpool::PageCacheStats`]). All-zero for fully
    /// in-memory backends; the paged backend reports its buffer
    /// pool's hits, misses and evictions here, and the pipeline
    /// snapshots them into its run statistics.
    fn page_stats(&self) -> PageCacheStats {
        PageCacheStats::default()
    }

    /// A snapshot of the backend's spill-cache counters
    /// ([`crate::spill::SpillCacheStats`]). All-zero for backends
    /// without a persistent spill cache; the paged backend counts one
    /// hit per streamed-ingest table whose encode pass the cache
    /// skipped, one miss per table that had to encode.
    fn spill_stats(&self) -> SpillCacheStats {
        SpillCacheStats::default()
    }

    /// Carries the backend's internal caches across one committed
    /// [`Delta`] — `before`/`after` are the database versions on
    /// either side of the generation boundary, and the delta has
    /// already been applied to `after`. Implementations must leave
    /// every probe answer unchanged: anything they cannot maintain
    /// incrementally they simply evict (the generation tags make
    /// stale entries unreachable anyway; maintenance is a warm-cache
    /// optimization, never a correctness requirement). The default
    /// does nothing.
    fn apply_delta(&self, before: &Database, after: &Database, delta: &Delta) {
        let _ = (before, after, delta);
    }
}

/// The dictionary of each of `attrs`, for the coded kernels
/// ([`crate::encode`]): the backend's own, cached per table
/// generation, when it keeps one; otherwise one built here from the
/// materialized column. A streamed extension has no values outside the
/// backend, so a backend that serves no dictionary for it is a typed
/// error rather than an empty column.
pub fn column_dicts(
    backend: &dyn CountBackend,
    db: &Database,
    rel: RelId,
    attrs: &[AttrId],
) -> Result<Vec<Arc<ColumnDict>>, DbreError> {
    let table = db.table(rel);
    attrs
        .iter()
        .map(|&a| match backend.column_dict(db, rel, a) {
            Some(dict) => Ok(dict),
            None if table.is_materialized() => Ok(Arc::new(ColumnDict::build(table.column(a)))),
            None => {
                let relation = db.schema.relation(rel);
                Err(DbreError::Page(PageError::Io(format!(
                    "streamed column `{}` of `{}` has no backend-served dictionary",
                    relation.attr_name(a),
                    relation.name,
                ))))
            }
        })
        .collect()
}

/// Shared `Value`-level implementation of the LHS-group contract (see
/// [`CountBackend::lhs_groups`]); also the oracle the differential
/// tests compare against, and the fallback the coded backend degrades
/// to on a spill-file failure.
pub(crate) fn lhs_groups_reference(db: &Database, rel: RelId, attrs: &[AttrId]) -> Vec<Vec<usize>> {
    let table = db.table(rel);
    let mut map: HashMap<ProjKey, Vec<usize>> = HashMap::new();
    'rows: for i in 0..table.len() {
        let mut key = Vec::with_capacity(attrs.len());
        for a in attrs {
            let v = &table.column(*a)[i];
            if v.is_null() {
                continue 'rows;
            }
            key.push(v.clone());
        }
        map.entry(key).or_default().push(i);
    }
    let mut groups: Vec<Vec<usize>> = map.into_values().filter(|g| g.len() >= 2).collect();
    groups.sort();
    groups
}

/// The `Value`-based reference backend: every probe is a fresh scan
/// through the primitives of [`crate::counting`] / [`crate::table`] /
/// [`crate::partitions`]. Slowest and simplest — the semantics oracle
/// the other backends are differentially pinned against, and the
/// fallback when a specialized backend cannot express a probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceBackend;

impl CountBackend for ReferenceBackend {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
        db.table(rel).count_distinct(attrs)
    }

    fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats {
        join_stats(db, join)
    }

    fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>> {
        Arc::new(lhs_groups_reference(db, rel, attrs))
    }

    fn fd_holds(&self, db: &Database, fd: &Fd) -> bool {
        // The Database-level check is the original reference; keep the
        // backend answer literally that one.
        db.fd_holds(fd)
    }

    fn ind_holds(&self, db: &Database, ind: &Ind) -> bool {
        db.ind_holds(ind)
    }
}

/// Where a [`CodedBackend`] keeps the per-row codes of the columns it
/// encodes. The dictionary halves (decode table, encode index, NULL
/// count, per-code counts) always stay in RAM; only the codes move.
///
/// Two residencies exist, one per backend name:
///
/// * `()` — **resident** ([`EncodedBackend`]): every column keeps its
///   full [`ColumnDict`], codes and all;
/// * `Arc<BufferPool>` — **pooled** ([`PagedBackend`]): a column longer
///   than one page ([`PAGE_CODES`] rows) spills its codes to a
///   [`PageFile`] read through the pool and keeps only the slim
///   dictionary; a shorter column stays resident, since its own spill
///   file would cost more than every scan of it.
pub trait Residency: Send + Sync {
    /// The backend's [`CountBackend::name`].
    const NAME: &'static str;

    /// The pool spilled columns are read through; `None` keeps every
    /// column resident.
    fn pool(&self) -> Option<&Arc<BufferPool>>;
}

impl Residency for () {
    const NAME: &'static str = "encoded";

    fn pool(&self) -> Option<&Arc<BufferPool>> {
        None
    }
}

impl Residency for Arc<BufferPool> {
    const NAME: &'static str = "paged";

    fn pool(&self) -> Option<&Arc<BufferPool>> {
        Some(self)
    }
}

/// The in-memory coded backend: every column resident.
pub type EncodedBackend = CodedBackend<()>;

/// The out-of-core coded backend: columns longer than one page
/// streamed from spill files through a capacity-bounded buffer pool.
pub type PagedBackend = CodedBackend<Arc<BufferPool>>;

/// One cached column of a [`CodedBackend`], and the [`CodeSource`] the
/// kernels scan it through.
pub(crate) enum Column {
    /// The full dictionary, per-row codes included. Its pages are
    /// borrowed slices of those codes.
    Resident(Arc<ColumnDict>),
    /// The slim dictionary, with the codes in a spill file read through
    /// `pool`. The full dictionary is rehydrated (streaming every page)
    /// on the first [`CountBackend::column_dict`] request and kept with
    /// the column.
    Spilled {
        col: Arc<PagedColumn>,
        pool: Arc<BufferPool>,
        hydrated: OnceLock<Arc<ColumnDict>>,
    },
}

impl Column {
    fn spilled(col: Arc<PagedColumn>, pool: &Arc<BufferPool>) -> Column {
        Column::Spilled {
            col,
            pool: Arc::clone(pool),
            hydrated: OnceLock::new(),
        }
    }

    /// The resident dictionary (slim for a spilled column).
    fn dict(&self) -> &ColumnDict {
        match self {
            Column::Resident(dict) => dict,
            Column::Spilled { col, .. } => col.dict(),
        }
    }

    /// The full dictionary of a resident column; `None` when the codes
    /// are spilled.
    fn resident(&self) -> Option<&ColumnDict> {
        match self {
            Column::Resident(dict) => Some(dict),
            Column::Spilled { .. } => None,
        }
    }

    /// The full dictionary, rehydrating a spilled column once.
    fn full_dict(&self) -> Result<Arc<ColumnDict>, PageError> {
        match self {
            Column::Resident(dict) => Ok(Arc::clone(dict)),
            Column::Spilled {
                col,
                pool,
                hydrated,
            } => {
                if let Some(dict) = hydrated.get() {
                    return Ok(Arc::clone(dict));
                }
                let full = Arc::new(col.dict().rehydrate(col.read_all_codes(pool)?));
                Ok(Arc::clone(hydrated.get_or_init(|| full)))
            }
        }
    }
}

impl Drop for Column {
    /// A spilled column's pages die with it: once the cache has dropped
    /// the column (table mutated, delta applied, column replaced) and
    /// the last probe reading it is done, its pages leave the pool.
    fn drop(&mut self) {
        if let Column::Spilled { col, pool, .. } = self {
            pool.evict_file(col.file().id());
        }
    }
}

/// A page of a [`Column`]: borrowed from a resident dictionary, or
/// pinned in the buffer pool.
pub(crate) enum ColumnPage<'a> {
    Borrowed(&'a [u32]),
    Pinned(Arc<Vec<u32>>),
}

impl std::ops::Deref for ColumnPage<'_> {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        match self {
            ColumnPage::Borrowed(codes) => codes,
            ColumnPage::Pinned(page) => page,
        }
    }
}

impl<'a> CodeSource for &'a Column {
    type Page = ColumnPage<'a>;
    type Error = PageError;

    fn blocking(&self) -> bool {
        matches!(self, Column::Spilled { .. })
    }

    fn dict(&self) -> &ColumnDict {
        Column::dict(self)
    }

    fn page(&self, page: usize) -> Result<ColumnPage<'a>, PageError> {
        match *self {
            Column::Resident(dict) => {
                let Ok(codes) = dict.as_ref().page(page);
                Ok(ColumnPage::Borrowed(codes))
            }
            Column::Spilled { col, pool, .. } => PagedSource::new(col, pool)
                .page(page)
                .map(ColumnPage::Pinned),
        }
    }
}

/// The kernel sources of `cols`.
fn sources(cols: &[Arc<Column>]) -> Vec<&Column> {
    cols.iter().map(Arc::as_ref).collect()
}

/// The resident dictionaries of `cols` (slim for spilled columns): all
/// the cross-column kernels ([`intersect_count`], [`decode_set_cols`])
/// read.
fn dicts(cols: &[Arc<Column>]) -> Vec<&ColumnDict> {
    cols.iter().map(|c| c.dict()).collect()
}

/// The dictionary-code counting backend: each column a probe touches
/// is interned once per table generation into a [`ColumnDict`], and the
/// [`crate::kernels`] count, group and partition its dense `u32` codes
/// instead of cloning `Value` tuples per row. `R` is the [`Residency`]
/// deciding where those codes live; [`EncodedBackend`] and
/// [`PagedBackend`] are its two instances.
///
/// The column dictionaries and the per-projection distinct-code sets
/// are cached *inside* the backend, tagged with
/// [`Database::generation`] so a mutated table can never serve stale
/// codes. Encoding lazily per column matters on the paper's workloads:
/// a query set `Q` joins a handful of key columns of wide denormalized
/// relations, so encoding whole tables up front would dominate the cold
/// path the encoding is meant to speed up.
///
/// A probe that fails to read a spilled column degrades to the
/// `Value`-based reference semantics and counts the failure in
/// [`BackendExecStats::fallback_failures`] — an I/O error costs speed,
/// never a wrong answer or a panic — unless the table is a streamed
/// extension, which has no in-memory values to fall back to.
pub struct CodedBackend<R> {
    residency: R,
    /// Per-column encodings, keyed per `(relation, attribute)` so a
    /// probe touching two columns of a wide table pays for exactly
    /// those two builds.
    columns: TaggedCache<(RelId, AttrId), Column>,
    /// Distinct-code sets per `(rel, attrs)` — shared between counts,
    /// projections and every join side touching them.
    sets: TaggedCache<(RelId, Vec<AttrId>), EncodedSet>,
    fallbacks: AtomicU64,
    /// Streamed-ingest tables adopted from the persistent spill cache
    /// (encode skipped entirely).
    spill_hits: AtomicU64,
    /// Streamed-ingest tables that had to encode (cold cache, or no
    /// `--spill-dir` configured).
    spill_misses: AtomicU64,
}

impl<R: Residency + Default> Default for CodedBackend<R> {
    fn default() -> Self {
        CodedBackend::with_residency(R::default())
    }
}

impl EncodedBackend {
    /// A backend with empty dictionary caches.
    pub fn new() -> Self {
        EncodedBackend::default()
    }
}

impl PagedBackend {
    /// A paged backend with the default 64 MiB buffer pool.
    pub fn new() -> Self {
        PagedBackend::default()
    }

    /// A paged backend whose pool holds at most `bytes` of page data.
    pub fn with_capacity_bytes(bytes: usize) -> Self {
        PagedBackend::with_pool(Arc::new(BufferPool::with_capacity_bytes(bytes)))
    }

    /// A paged backend over an explicit (possibly shared) pool.
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        CodedBackend::with_residency(pool)
    }

    /// The backend's buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.residency
    }

    /// Adopts a streamed-ingest table's columns: the spill files were
    /// written (or loaded from the persistent cache) by
    /// `import_csv_spilled`, so no encode pass runs here. Columns are
    /// installed spilled, whatever their length, under the table's
    /// *current* generation; the spill hit/miss counters record whether
    /// the cache skipped encode.
    pub fn adopt_spilled(&self, db: &Database, rel: RelId, table: &SpilledTable) {
        let gen = db.generation(rel);
        let mut columns = write_recover(&self.columns);
        for (i, col) in table.columns().iter().enumerate() {
            let column = Column::spilled(Arc::clone(col), &self.residency);
            columns.insert(
                (rel, AttrId(i as u16)),
                Tagged {
                    gen,
                    value: Arc::new(column),
                },
            );
        }
        drop(columns);
        if table.from_cache() {
            self.spill_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.spill_misses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl<R: Residency> CodedBackend<R> {
    fn with_residency(residency: R) -> Self {
        CodedBackend {
            residency,
            columns: RwLock::default(),
            sets: RwLock::default(),
            fallbacks: AtomicU64::new(0),
            spill_hits: AtomicU64::new(0),
            spill_misses: AtomicU64::new(0),
        }
    }

    /// The residency rule: a pooled backend spills a column longer than
    /// one page and keeps its slim dictionary; every other column stays
    /// resident whole.
    fn place(&self, dict: ColumnDict) -> Result<Column, PageError> {
        match self.residency.pool() {
            Some(pool) if dict.rows() > PAGE_CODES => {
                let file = PageFile::spill(dict.codes())?;
                let col = PagedColumn::new(Arc::new(dict.slim()), file);
                Ok(Column::spilled(Arc::new(col), pool))
            }
            _ => Ok(Column::Resident(Arc::new(dict))),
        }
    }

    /// One column, encoded (and placed) once per table generation and
    /// shared out of the cache.
    pub(crate) fn column(
        &self,
        db: &Database,
        rel: RelId,
        attr: AttrId,
    ) -> Result<Arc<Column>, PageError> {
        let built = cached(&self.columns, (rel, attr), db.generation(rel), || {
            let table = db.table(rel);
            // A streamed extension's rows exist only in adopted spill
            // files — there is no in-memory column to (re-)encode
            // from. A miss here means the adopted columns were
            // invalidated (the table mutated); encoding the empty
            // in-memory column would silently count zero rows.
            if !table.is_materialized() {
                return Err(PageError::Io(format!(
                    "column {} of relation {} is a streamed extension with no spilled pages",
                    attr.0, rel.0
                )));
            }
            self.place(ColumnDict::build(table.column(attr)))
                .map(Arc::new)
        });
        built.map(|(col, _)| col)
    }

    /// The cached columns of `attrs`, in order (repeats allowed).
    fn columns(
        &self,
        db: &Database,
        rel: RelId,
        attrs: &[AttrId],
    ) -> Result<Vec<Arc<Column>>, PageError> {
        attrs.iter().map(|a| self.column(db, rel, *a)).collect()
    }

    /// The distinct non-NULL projected code tuples `π_{attrs}(rel)`,
    /// shared out of the cache. A unary set is just the cardinality;
    /// wider ones hold one entry per distinct tuple.
    fn encoded_set(
        &self,
        db: &Database,
        rel: RelId,
        attrs: &[AttrId],
    ) -> Result<Arc<EncodedSet>, PageError> {
        let key = (rel, attrs.to_vec());
        let built = cached(&self.sets, key, db.generation(rel), || {
            let cols = self.columns(db, rel, attrs)?;
            kernels::distinct_codes(&sources(&cols), db.table(rel).len()).map(Arc::new)
        });
        built.map(|(set, _)| set)
    }

    /// The probe's answer, or — when it failed — the reference answer,
    /// with the failure noted by [`Self::note_fallback_or_die`].
    fn or_reference<T>(
        &self,
        db: &Database,
        rels: &[RelId],
        probe: Result<T, PageError>,
        reference: impl FnOnce() -> T,
    ) -> T {
        probe.unwrap_or_else(|err| {
            self.note_fallback_or_die(db, rels, &err);
            reference()
        })
    }

    /// Counts a probe degraded to the reference path — unless one of
    /// the involved tables is a streamed extension, where the reference
    /// path would compute over *empty* in-memory columns. A loud panic
    /// (caught and surfaced by the session's per-stage isolation) beats
    /// a silently wrong answer.
    fn note_fallback_or_die(&self, db: &Database, rels: &[RelId], err: &PageError) {
        for &rel in rels {
            assert!(
                db.table(rel).is_materialized(),
                "coded backend failed on a streamed extension with no in-memory fallback: {err}"
            );
        }
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }
}

impl<R: Residency> CountBackend for CodedBackend<R> {
    fn name(&self) -> &'static str {
        R::NAME
    }

    fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
        let probe = self.encoded_set(db, rel, attrs).map(|set| set.len());
        self.or_reference(db, &[rel], probe, || db.table(rel).count_distinct(attrs))
    }

    fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats {
        let (l, r) = (&join.left, &join.right);
        let probe = (|| -> Result<JoinStats, PageError> {
            let (lcols, rcols) = (
                self.columns(db, l.rel, &l.attrs)?,
                self.columns(db, r.rel, &r.attrs)?,
            );
            let left = self.encoded_set(db, l.rel, &l.attrs)?;
            let right = self.encoded_set(db, r.rel, &r.attrs)?;
            Ok(JoinStats {
                n_left: left.len(),
                n_right: right.len(),
                n_join: intersect_count(&dicts(&lcols), &left, &dicts(&rcols), &right),
            })
        })();
        self.or_reference(db, &[l.rel, r.rel], probe, || join_stats(db, join))
    }

    fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>> {
        let probe = self
            .columns(db, rel, attrs)
            .and_then(|cols| kernels::lhs_groups(&sources(&cols), db.table(rel).len()));
        let groups = self.or_reference(db, &[rel], probe, || lhs_groups_reference(db, rel, attrs));
        Arc::new(groups)
    }

    fn projection(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<HashSet<ProjKey>> {
        let probe = self.columns(db, rel, attrs).and_then(|cols| {
            let set = self.encoded_set(db, rel, attrs)?;
            Ok(decode_set_cols(&dicts(&cols), &set))
        });
        let set = self.or_reference(db, &[rel], probe, || {
            db.table(rel).distinct_projection(attrs)
        });
        Arc::new(set)
    }

    /// One pass over LHS and RHS codes keeping a witness per LHS group
    /// ([`kernels::fd_holds`]), so a spilled probe runs in pool-sized
    /// memory.
    fn fd_holds(&self, db: &Database, fd: &Fd) -> bool {
        let lhs: Vec<AttrId> = fd.lhs.iter().collect();
        let rhs: Vec<AttrId> = fd.rhs.iter().collect();
        let probe = (|| -> Result<bool, PageError> {
            let (lcols, rcols) = (
                self.columns(db, fd.rel, &lhs)?,
                self.columns(db, fd.rel, &rhs)?,
            );
            kernels::fd_holds(&sources(&lcols), &sources(&rcols), db.table(fd.rel).len())
        })();
        self.or_reference(db, &[fd.rel], probe, || db.fd_holds(fd))
    }

    fn partition1(&self, db: &Database, rel: RelId, attr: AttrId) -> Arc<StrippedPartition> {
        // Array-bucket build over the code domain — no hashing.
        let probe = self
            .column(db, rel, attr)
            .and_then(|col| kernels::partition1(col.as_ref(), db.table(rel).len()));
        let p = self.or_reference(db, &[rel], probe, || {
            StrippedPartition::for_attribute(db.table(rel), attr)
        });
        Arc::new(p)
    }

    fn prewarm(&self, db: &Database, rel: RelId) {
        // Intern (and place) every column while the rows are hot; a
        // failed spill is retried, and fallback-counted, by whichever
        // probe needs the column.
        for i in 0..db.table(rel).arity() {
            let _ = self.column(db, rel, AttrId(i as u16));
        }
    }

    fn column_dict(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnDict>> {
        let probe = self.column(db, rel, attr).and_then(|col| col.full_dict());
        self.or_reference(db, &[rel], probe.map(Some), || None)
    }

    fn column_sketch(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnSketch>> {
        // Lazily attached to the generation-cached dictionary, so the
        // sketch always summarizes exactly the state the counting
        // kernels read. A spilled column's slim dictionary carries the
        // whole value set and the fused counts — everything a sketch
        // summarizes — so this never reads a code page; streamed-ingest
        // columns loaded from a warm spill entry arrive with the sketch
        // preseeded. A failed encode simply yields no sketch: pruning
        // is disabled, answers unchanged.
        self.column(db, rel, attr)
            .ok()
            .and_then(|col| col.dict().sketch())
    }

    fn exec_stats(&self) -> BackendExecStats {
        BackendExecStats {
            fallback_failures: self.fallbacks.load(Ordering::Relaxed),
            ..BackendExecStats::default()
        }
    }

    fn page_stats(&self) -> PageCacheStats {
        self.residency
            .pool()
            .map_or_else(PageCacheStats::default, |pool| pool.stats())
    }

    fn spill_stats(&self) -> SpillCacheStats {
        SpillCacheStats {
            hits: self.spill_hits.load(Ordering::Relaxed),
            misses: self.spill_misses.load(Ordering::Relaxed),
        }
    }

    /// Delta maintenance of the column and set caches. Appends extend a
    /// resident column's interning (codes stay first-occurrence
    /// canonical) and insert the appended code tuples into cached
    /// distinct sets; deletes decrement per-code counts, evicting a
    /// dictionary only when a value's last occurrence vanished (a
    /// rebuild would assign different codes). A maintained column is
    /// placed again, so one that grew past a page under the pooled
    /// residency spills. Spilled columns are evicted — their pages
    /// leave the pool with them — and so are sets over them. Distinct
    /// sets carry no multiplicities, so deletes evict them wholesale.
    fn apply_delta(&self, before: &Database, after: &Database, delta: &Delta) {
        let rel = delta.rel();
        let (old_gen, new_gen) = (before.generation(rel), after.generation(rel));
        maintain(&self.columns, rel, old_gen, new_gen, |attr, col| {
            let mut dict = col.resident()?.clone();
            match delta {
                Delta::Append { rows, .. } => {
                    let cells: Vec<Value> = rows.iter().map(|r| r[attr.index()].clone()).collect();
                    dict.append_values(&cells);
                }
                Delta::Delete { rows, .. } => {
                    if !dict.remove_rows(rows) {
                        return None;
                    }
                }
            }
            self.place(dict).ok()
        });
        let (old_rows, new_rows) = (before.table(rel).len(), after.table(rel).len());
        maintain(
            &self.sets,
            rel,
            old_gen,
            new_gen,
            |attrs, set| match delta {
                Delta::Delete { .. } => None,
                Delta::Append { .. } => {
                    // The columns were maintained just above (or are
                    // rebuilt here).
                    let cols = self.columns(after, rel, attrs).ok()?;
                    let dicts: Vec<&ColumnDict> =
                        cols.iter().map(|c| c.resident()).collect::<Option<_>>()?;
                    let mut set = set.clone();
                    set.append_rows(&dicts, old_rows, new_rows);
                    Some(set)
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrSet;
    use crate::deps::IndSide;
    use crate::pages::PAGE_BYTES;
    use crate::schema::Relation;
    use crate::value::Domain;

    fn sample_db() -> (Database, RelId, RelId) {
        let mut db = Database::new();
        let l = db
            .add_relation(Relation::of("L", &[("a", Domain::Int), ("b", Domain::Int)]))
            .unwrap();
        let r = db
            .add_relation(Relation::of("R", &[("c", Domain::Int)]))
            .unwrap();
        for (a, b) in [(1, 10), (1, 10), (2, 20), (3, 20), (4, 30)] {
            db.insert(l, vec![Value::Int(a), Value::Int(b)]).unwrap();
        }
        db.insert(l, vec![Value::Null, Value::Int(40)]).unwrap();
        for c in [1, 2, 3, 9] {
            db.insert(r, vec![Value::Int(c)]).unwrap();
        }
        (db, l, r)
    }

    /// Every probe of the two in-crate backends agrees on a NULL-bearing
    /// database (the exhaustive pinning lives in the differential
    /// proptest suites; this is the smoke test).
    #[test]
    fn reference_and_encoded_agree() {
        let (db, l, r) = sample_db();
        let reference = ReferenceBackend;
        let encoded = EncodedBackend::new();
        // One page worth of pool is enough for correctness.
        let paged = PagedBackend::with_capacity_bytes(PAGE_BYTES);
        let backends: [&dyn CountBackend; 3] = [&reference, &encoded, &paged];
        let join = EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0)))
            .unwrap();
        let fd = Fd::new(
            l,
            AttrSet::from_indices([0u16]),
            AttrSet::from_indices([1u16]),
        );
        let ind = Ind::unary(l, AttrId(0), r, AttrId(0));
        for b in backends {
            assert_eq!(b.count_distinct(&db, l, &[AttrId(0)]), 4, "{}", b.name());
            assert_eq!(b.join_stats(&db, &join), join_stats(&db, &join));
            assert_eq!(*b.lhs_groups(&db, l, &[AttrId(0)]), vec![vec![0, 1]]);
            assert_eq!(b.fd_holds(&db, &fd), db.fd_holds(&fd));
            assert_eq!(b.ind_holds(&db, &ind), db.ind_holds(&ind));
            for attrs in [vec![AttrId(0)], vec![AttrId(0), AttrId(1)]] {
                assert_eq!(
                    b.count_distinct(&db, l, &attrs),
                    db.table(l).count_distinct(&attrs)
                );
                assert_eq!(
                    *b.lhs_groups(&db, l, &attrs),
                    lhs_groups_reference(&db, l, &attrs)
                );
                assert_eq!(
                    *b.projection(&db, l, &attrs),
                    db.table(l).distinct_projection(&attrs)
                );
            }
            assert_eq!(
                *b.partition1(&db, l, AttrId(1)),
                StrippedPartition::for_attribute(db.table(l), AttrId(1))
            );
            assert_eq!(b.exec_stats().fallback_failures, 0);
        }
        // One-page columns stay resident: no spill file, no pool
        // traffic (multi_page_columns_stream_correctly covers both).
        let col = paged.column(&db, l, AttrId(0)).unwrap();
        assert!(
            matches!(*col, Column::Resident(_)),
            "a one-page column must stay resident"
        );
        let stats = paged.page_stats();
        assert_eq!(
            stats.hits + stats.misses,
            0,
            "resident pages bypass the pool"
        );
    }

    /// The coded backend's caches are generation-aware under both
    /// residencies: a mutation re-encodes the column and is visible on
    /// the very next probe.
    #[test]
    fn encoded_cache_invalidates_on_mutation() {
        fn check<R: Residency>(backend: CodedBackend<R>) {
            let (mut db, l, _) = sample_db();
            assert_eq!(backend.count_distinct(&db, l, &[AttrId(0)]), 4);
            let old = backend.column(&db, l, AttrId(0)).unwrap();
            db.insert(l, vec![Value::Int(99), Value::Int(1)]).unwrap();
            assert_eq!(
                backend.count_distinct(&db, l, &[AttrId(0)]),
                5,
                "{}",
                R::NAME
            );
            let new = backend.column(&db, l, AttrId(0)).unwrap();
            assert!(
                !Arc::ptr_eq(&old, &new),
                "mutation must re-encode the column"
            );
        }
        check(EncodedBackend::new());
        check(PagedBackend::new());
    }

    /// A thread that panics while holding a cache write guard poisons
    /// the lock — recovery must *discard* whatever the panicking
    /// thread wrote, never serve it. The thread here deliberately
    /// plants a bogus entry (an impossible cardinality) before
    /// panicking; if recovery merely took `into_inner`, the next probe
    /// would report 999.
    #[test]
    fn poisoned_cache_is_cleared_not_served() {
        let (db, l, _) = sample_db();
        let encoded = EncodedBackend::new();
        assert_eq!(encoded.count_distinct(&db, l, &[AttrId(0)]), 4);
        let gen = db.generation(l);
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let mut guard = encoded.sets.write().unwrap();
                guard.insert(
                    (l, vec![AttrId(0)]),
                    Tagged {
                        gen,
                        value: Arc::new(EncodedSet::Unary { card: 999 }),
                    },
                );
                panic!("poison the encoded-set cache");
            });
            assert!(handle.join().is_err(), "the planting thread must panic");
        });
        assert!(encoded.sets.is_poisoned(), "lock must be poisoned");
        // Recovery path: the shard is purged, the probe recomputes.
        assert_eq!(encoded.count_distinct(&db, l, &[AttrId(0)]), 4);
        assert!(
            !encoded.sets.is_poisoned(),
            "recovery must clear the poison flag so later probes see a healthy cache"
        );
    }

    /// Prewarming builds every column dictionary but changes no answer.
    #[test]
    fn prewarm_is_transparent() {
        let (db, l, _) = sample_db();
        let encoded = EncodedBackend::new();
        encoded.prewarm(&db, l);
        assert_eq!(
            encoded.count_distinct(&db, l, &[AttrId(0), AttrId(1)]),
            ReferenceBackend.count_distinct(&db, l, &[AttrId(0), AttrId(1)])
        );
    }

    /// Under the pooled residency a column longer than one page is
    /// spilled; carried across an append and a delete it answers
    /// exactly like a cold backend, and the pages of its stale spill
    /// file are gone from the pool. A resident column that grows past
    /// one page is spilled by the same rule.
    #[test]
    fn pooled_delta_matches_cold_and_purges_stale_pages() {
        let (x, y) = (AttrId(0), AttrId(1));
        let mut db = Database::new();
        let spec = [("x", Domain::Int), ("y", Domain::Int)];
        let big = db.add_relation(Relation::of("T", &spec)).unwrap();
        let small = db.add_relation(Relation::of("S", &spec)).unwrap();
        for i in 0..PAGE_CODES as i64 + 40 {
            let v = if i % 97 == 0 {
                Value::Null
            } else {
                Value::Int(i % 700)
            };
            db.insert(big, vec![v, Value::Int(i % 13)]).unwrap();
        }
        for i in 0..PAGE_CODES as i64 {
            db.insert(small, vec![Value::Int(i), Value::Int(i % 5)])
                .unwrap();
        }
        let answers = |b: &PagedBackend, db: &Database, rel: RelId| {
            (
                b.count_distinct(db, rel, &[x]),
                b.count_distinct(db, rel, &[x, y]),
                (*b.lhs_groups(db, rel, &[y])).clone(),
                (*b.partition1(db, rel, x)).clone(),
                b.column_dict(db, rel, x).map(|d| d.codes().to_vec()),
            )
        };
        let spilled = |b: &PagedBackend, db: &Database, rel: RelId| {
            matches!(*b.column(db, rel, x).unwrap(), Column::Spilled { .. })
        };
        let paged = PagedBackend::new();
        answers(&paged, &db, big);
        answers(&paged, &db, small);
        assert!(spilled(&paged, &db, big) && !spilled(&paged, &db, small));
        assert!(paged.pool().resident_pages() > 0);

        let deltas = [
            (
                big,
                Delta::Append {
                    rel: big,
                    rows: vec![
                        vec![Value::Int(9999), Value::Null],
                        vec![Value::Int(1), Value::Int(2)],
                    ],
                },
            ),
            (
                big,
                Delta::Delete {
                    rel: big,
                    rows: vec![0, 5, PAGE_CODES],
                },
            ),
            (
                small,
                Delta::Append {
                    rel: small,
                    rows: vec![vec![Value::Int(-1), Value::Int(0)]],
                },
            ),
        ];
        for (rel, delta) in deltas {
            // Only `big` has pages in the pool: they are stale after a
            // delta on `big`, and must survive one on `small`.
            let live = if rel == big {
                0
            } else {
                paged.pool().resident_pages()
            };
            let mut after = db.clone();
            after.apply_delta(&delta).unwrap();
            paged.apply_delta(&db, &after, &delta);
            db = after;
            assert_eq!(paged.pool().resident_pages(), live, "stale pages purged");
            assert_eq!(
                answers(&paged, &db, rel),
                answers(&PagedBackend::new(), &db, rel)
            );
            assert!(spilled(&paged, &db, rel), "past one page the column spills");
        }
        assert_eq!(paged.exec_stats().fallback_failures, 0);
    }

    #[test]
    fn column_dict_rehydrates_full_codes() {
        let (db, l, _) = sample_db();
        let paged = PagedBackend::new();
        let dict = CountBackend::column_dict(&paged, &db, l, AttrId(0)).unwrap();
        let direct = ColumnDict::build(db.table(l).column(AttrId(0)));
        assert_eq!(dict.codes(), direct.codes());
        assert_eq!(dict.cardinality(), direct.cardinality());
        assert_eq!(dict.null_count(), direct.null_count());
    }

    #[test]
    fn multi_page_columns_stream_correctly() {
        // Enough rows for several pages, with NULLs and duplicates.
        let mut db = Database::new();
        let rel = db
            .add_relation(Relation::of("T", &[("x", Domain::Int), ("y", Domain::Int)]))
            .unwrap();
        let rows = PAGE_CODES * 2 + 123;
        for i in 0..rows {
            let x = if i % 97 == 0 {
                Value::Null
            } else {
                Value::Int((i % 1009) as i64)
            };
            db.insert(rel, vec![x, Value::Int((i % 31) as i64)])
                .unwrap();
        }
        let reference = ReferenceBackend;
        let paged = PagedBackend::with_capacity_bytes(PAGE_BYTES); // 1-page pool: constant churn
        for attrs in [vec![AttrId(0)], vec![AttrId(1)], vec![AttrId(0), AttrId(1)]] {
            assert_eq!(
                paged.count_distinct(&db, rel, &attrs),
                reference.count_distinct(&db, rel, &attrs),
                "{attrs:?}"
            );
        }
        assert_eq!(
            *paged.lhs_groups(&db, rel, &[AttrId(1)]),
            *reference.lhs_groups(&db, rel, &[AttrId(1)])
        );
        assert_eq!(
            *paged.partition1(&db, rel, AttrId(0)),
            *reference.partition1(&db, rel, AttrId(0))
        );
        assert!(paged.page_stats().evictions > 0, "1-page pool must churn");
        let col = paged.column(&db, rel, AttrId(0)).unwrap();
        assert!(
            matches!(*col, Column::Spilled { .. }),
            "a multi-page column must be spilled"
        );
        assert_eq!(paged.exec_stats().fallback_failures, 0);
    }

    #[test]
    fn fd_holds_matches_reference() {
        // Multi-page table where some FDs hold and some fail, with
        // NULL-heavy LHS columns (NULL-LHS rows are exempt per the
        // paper's SQL probe semantics).
        let mut db = Database::new();
        let rel = db
            .add_relation(Relation::of(
                "T",
                &[
                    ("a", Domain::Int),
                    ("b", Domain::Int),
                    ("c", Domain::Int),
                    ("k", Domain::Int),
                ],
            ))
            .unwrap();
        let rows = PAGE_CODES + 517;
        for i in 0..rows as i64 {
            let a = if i % 13 == 0 {
                Value::Null
            } else {
                Value::Int(i % 200)
            };
            // b is a function of a's code (holds), c is noisy (fails).
            let b = Value::Int((i % 200) * 3);
            let c = Value::Int(i % 7);
            db.insert(rel, vec![a, b, c, Value::Int(i)]).unwrap();
        }
        let paged = PagedBackend::with_capacity_bytes(PAGE_BYTES);
        let fd = |lhs: &[u16], rhs: &[u16]| Fd {
            rel,
            lhs: crate::attr::AttrSet::from_indices(lhs.iter().copied()),
            rhs: crate::attr::AttrSet::from_indices(rhs.iter().copied()),
        };
        for (lhs, rhs) in [
            (&[0u16][..], &[1u16][..]), // a → b: holds (NULL-a rows exempt)
            (&[0], &[2]),               // a → c: fails
            (&[1], &[0]),               // b → a: fails (NULL vs non-NULL under same b)
            (&[0, 2], &[1]),            // ac → b: holds
            (&[0, 1], &[2]),            // ab → c: fails
            (&[3], &[0, 1, 2]),         // key → everything: holds
            (&[], &[1]),                // {} → b: fails (b not constant)
            (&[0], &[1, 2]),            // multi-RHS: fails because of c
        ] {
            let fd = fd(lhs, rhs);
            assert_eq!(
                CountBackend::fd_holds(&paged, &db, &fd),
                db.fd_holds(&fd),
                "lhs={lhs:?} rhs={rhs:?}"
            );
        }
        // Constant RHS: {} → const holds without a scan.
        let mut db2 = Database::new();
        let r2 = db2
            .add_relation(Relation::of("C", &[("u", Domain::Int), ("v", Domain::Int)]))
            .unwrap();
        for i in 0..10 {
            db2.insert(r2, vec![Value::Int(i), Value::Int(7)]).unwrap();
        }
        let fd2 = Fd {
            rel: r2,
            lhs: crate::attr::AttrSet::empty(),
            rhs: crate::attr::AttrSet::from_indices([1u16]),
        };
        assert!(CountBackend::fd_holds(&paged, &db2, &fd2));
        assert!(db2.fd_holds(&fd2));
        assert_eq!(paged.exec_stats().fallback_failures, 0);
    }

    #[test]
    fn adopt_spilled_serves_streamed_extension() {
        // A materialized twin provides the expected answers; the
        // streamed database never holds the values in memory.
        let mut twin = Database::new();
        let spec = [("x", Domain::Int), ("y", Domain::Text)];
        let trel = twin.add_relation(Relation::of("S", &spec)).unwrap();
        let rows = PAGE_CODES + 77;
        for i in 0..rows {
            let x = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int((i % 301) as i64)
            };
            twin.insert(trel, vec![x, Value::str(format!("s{}", i % 40))])
                .unwrap();
        }

        // Spill the twin's columns by hand, as streaming ingest would.
        let mut cols = Vec::new();
        for a in [AttrId(0), AttrId(1)] {
            let dict = ColumnDict::build(twin.table(trel).column(a));
            let file = PageFile::spill(dict.codes()).unwrap();
            cols.push(Arc::new(PagedColumn::new(Arc::new(dict.slim()), file)));
        }
        let spilled = crate::spill::SpilledTable::new(cols, rows, true);

        let mut db = Database::new();
        let rel = db.add_relation(Relation::of("S", &spec)).unwrap();
        db.set_streamed_extension(rel, rows);
        assert!(!db.table(rel).is_materialized());

        let paged = PagedBackend::new();
        paged.adopt_spilled(&db, rel, &spilled);
        assert_eq!(
            paged.spill_stats(),
            crate::spill::SpillCacheStats { hits: 1, misses: 0 }
        );

        let reference = ReferenceBackend;
        for attrs in [vec![AttrId(0)], vec![AttrId(1)], vec![AttrId(0), AttrId(1)]] {
            assert_eq!(
                paged.count_distinct(&db, rel, &attrs),
                reference.count_distinct(&twin, trel, &attrs),
                "{attrs:?}"
            );
        }
        assert_eq!(
            *paged.lhs_groups(&db, rel, &[AttrId(0)]),
            *reference.lhs_groups(&twin, trel, &[AttrId(0)])
        );
        let fd = Fd {
            rel,
            lhs: crate::attr::AttrSet::from_indices([0u16]),
            rhs: crate::attr::AttrSet::from_indices([1u16]),
        };
        let tfd = Fd {
            rel: trel,
            ..fd.clone()
        };
        assert_eq!(
            CountBackend::fd_holds(&paged, &db, &fd),
            twin.fd_holds(&tfd)
        );
        // The slim dictionaries still answer column_dict (rehydrated).
        let dict = CountBackend::column_dict(&paged, &db, rel, AttrId(0)).unwrap();
        let direct = ColumnDict::build(twin.table(trel).column(AttrId(0)));
        assert_eq!(dict.codes(), direct.codes());
        assert_eq!(paged.exec_stats().fallback_failures, 0);
    }

    #[test]
    #[should_panic(expected = "streamed extension")]
    fn streamed_extension_without_adoption_dies_instead_of_lying() {
        // Without adopt_spilled there are no pages AND no in-memory
        // values: the reference fallback would silently answer from an
        // empty column. The backend must refuse.
        let mut db = Database::new();
        let rel = db
            .add_relation(Relation::of("V", &[("x", Domain::Int)]))
            .unwrap();
        db.set_streamed_extension(rel, 5);
        let paged = PagedBackend::new();
        let _ = paged.count_distinct(&db, rel, &[AttrId(0)]);
    }
}
