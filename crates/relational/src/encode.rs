//! Dictionary-encoded columns: the code space every counting kernel
//! runs on, plus the cross-column kernels that need no per-row scan.
//!
//! Every statistic the paper's algorithms consume — distinct
//! projections for the three IND-Discovery cardinalities, LHS groups
//! for the `A → b` extension tests, stripped partitions for the mining
//! baselines — reduces to hashing and comparing projected tuples. The
//! `Value`-based primitives in [`crate::counting`] and
//! [`crate::partitions`] pay for that with a heap-allocated
//! `Vec<Value>` clone per row. This module removes that cost: each
//! column's values are interned once into dense `u32` codes
//! (first-occurrence order, with **code 0 reserved for `NULL`**), and
//! every kernel afterwards runs on plain integers hashed with the
//! cheap [`crate::fasthash`] scheme.
//!
//! The unit of encoding is the **column** ([`ColumnDict`]), not the
//! table: a probe that touches two attributes of a 13-column relation
//! pays for exactly two dictionary builds. The four row-scanning
//! counting kernels live in [`crate::kernels`], written once over a
//! code source that an in-RAM `ColumnDict` and a spilled
//! [`crate::pages::PagedSource`] both implement. What stays here reads
//! only the dictionaries or random rows: [`decode_set_cols`],
//! [`code_translation`] and [`intersect_count`] (join cardinalities),
//! and the g3/Restruct kernels ([`plurality_cols`],
//! [`first_rows_cols`], [`decode_rows_cols`], [`non_null_rows_cols`]).
//! [`DictTable`] bundles one `ColumnDict` per attribute for
//! whole-table consumers (TANE, SPIDER, key discovery).
//!
//! Consequences of the encoding:
//!
//! * a unary `COUNT(DISTINCT a)` is the dictionary cardinality — `O(1)`
//!   after the build;
//! * a unary stripped partition is an array-bucket pass over the code
//!   domain, no hashing at all;
//! * a two-attribute projection key packs into a single `u64`
//!   (`hi << 32 | lo`), wider ones into a `Box<[u32]>` — no `Value`
//!   clones on any hot path;
//! * join intersections translate left codes to right codes through a
//!   per-position lookup table (codes are column-local), then probe
//!   integer sets.
//!
//! `NaN` floats intern through [`crate::value::OrdF64`]'s total order,
//! so two NaNs with the same payload share a code exactly when the
//! `Value` kernels consider them equal.
//!
//! A `ColumnDict` is immutable after [`ColumnDict::build`]; sharing
//! one read-only across [`crate::par::par_map`] workers is safe
//! (`Sync` by construction, no interior mutability). Lifecycle
//! management — building once per table generation and invalidating on
//! mutation — lives in [`crate::stats::StatsEngine`].

use crate::attr::AttrId;
use crate::error::RelationalError;
use crate::fasthash::{FxHashMap, FxHashSet};
use crate::partitions::StrippedPartition;
use crate::sketch::ColumnSketch;
use crate::table::{ProjKey, Table};
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// The NULL sentinel code: row positions holding SQL `NULL` encode to
/// 0 in every [`ColumnDict`]; real values start at 1.
pub const NULL_CODE: u32 = 0;

/// One column's dictionary: per-row dense codes plus both decode
/// (code → value) and encode (value → code) directions.
///
/// Equality compares every *data* field — two dictionaries are equal
/// iff they were built from the same cell sequence (codes are assigned
/// in first-occurrence order, so the decode table is canonical), which
/// is what the streaming-vs-materialized differential tests pin. The
/// lazily attached sketch is a pure derivation of those fields and is
/// excluded from equality.
#[derive(Debug, Clone, Default)]
pub struct ColumnDict {
    /// Per-row codes; `codes[i] == NULL_CODE` iff row `i` is NULL.
    codes: Vec<u32>,
    /// Decode table: `values[(c - 1) as usize]` is the value of code
    /// `c ≥ 1`. Codes are assigned in first-occurrence order.
    values: Vec<Value>,
    /// Encode table (no entry for NULL).
    index: FxHashMap<Value, u32>,
    /// Number of NULL rows.
    nulls: usize,
    /// Per-code occurrence counts: `counts[c]` is how many rows carry
    /// code `c` (`counts[0]` = NULL rows). Maintained by the interning
    /// loop, so the counting-sort kernels skip their sizes pass.
    counts: Vec<u64>,
    /// Lazily built column sketch ([`ColumnDict::sketch`]); `None`
    /// once initialized means the dictionary is not sketchable (counts
    /// invariant broken or ghost codes present).
    sketch: OnceLock<Option<Arc<ColumnSketch>>>,
}

impl PartialEq for ColumnDict {
    fn eq(&self, other: &Self) -> bool {
        self.codes == other.codes
            && self.values == other.values
            && self.index == other.index
            && self.nulls == other.nulls
            && self.counts == other.counts
    }
}

/// Incremental column interner: the streaming half of
/// [`ColumnDict::build`].
///
/// Chunked ingest ([`crate::csv`] → [`crate::pages`]) cannot hand a
/// whole column slice to `build`; it interns one cell at a time as
/// records arrive and appends the resulting codes straight to a spill
/// file. The builder carries exactly the state `build`'s loop carries —
/// decode/encode tables, NULL and per-code counts — so
/// [`DictBuilder::finish_slim`] yields a dictionary byte-identical to
/// `build(column).slim()` for the same cell sequence.
#[derive(Debug, Default)]
pub struct DictBuilder {
    values: Vec<Value>,
    index: FxHashMap<Value, u32>,
    nulls: usize,
    counts: Vec<u64>,
    rows: usize,
}

impl DictBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        DictBuilder {
            counts: vec![0],
            ..DictBuilder::default()
        }
    }

    /// An empty builder presized for roughly `rows` incoming cells.
    pub fn with_row_capacity(rows: usize) -> Self {
        DictBuilder {
            // Worst case (all-distinct key columns) is common enough in
            // the paper's workloads to pre-size for; low-cardinality
            // columns briefly over-reserve and release on drop.
            index: FxHashMap::with_capacity_and_hasher(rows / 2, Default::default()),
            counts: vec![0],
            ..DictBuilder::default()
        }
    }

    /// Interns one cell, returning its code ([`NULL_CODE`] for NULL).
    /// Clones `v` only on first occurrence.
    #[inline]
    pub fn intern(&mut self, v: &Value) -> u32 {
        self.rows += 1;
        if v.is_null() {
            self.nulls += 1;
            self.counts[NULL_CODE as usize] += 1;
            return NULL_CODE;
        }
        let next = self.values.len() as u32 + 1;
        let code = match self.index.entry(v.clone()) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                self.values.push(v.clone());
                self.counts.push(0);
                *e.insert(next)
            }
        };
        self.counts[code as usize] += 1;
        code
    }

    /// Number of cells interned so far.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of distinct non-NULL values interned so far.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.values.len()
    }

    /// Finishes into a codes-free (slim) dictionary — the resident
    /// half of a spilled column (see [`ColumnDict::slim`]).
    pub fn finish_slim(self) -> ColumnDict {
        ColumnDict {
            codes: Vec::new(),
            values: self.values,
            index: self.index,
            nulls: self.nulls,
            counts: self.counts,
            sketch: OnceLock::new(),
        }
    }
}

impl ColumnDict {
    /// Interns one column. The only `Value` clones are one per
    /// *distinct* value (into the decode and encode tables), never per
    /// row.
    pub fn build(column: &[Value]) -> Self {
        let mut b = DictBuilder::with_row_capacity(column.len());
        let mut codes = Vec::with_capacity(column.len());
        for v in column {
            codes.push(b.intern(v));
        }
        let mut dict = b.finish_slim();
        dict.codes = codes;
        dict
    }

    /// Number of distinct non-NULL values — the unary
    /// `COUNT(DISTINCT ·)` in `O(1)`.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.values.len()
    }

    /// Does the column contain any NULL?
    #[inline]
    pub fn has_null(&self) -> bool {
        self.nulls > 0
    }

    /// Number of NULL rows.
    #[inline]
    pub fn null_count(&self) -> usize {
        self.nulls
    }

    /// The per-row code slice (0 = NULL).
    #[inline]
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Number of rows the column was built from.
    #[inline]
    pub fn rows(&self) -> usize {
        self.codes.len()
    }

    /// The code of `v` in this column, or [`NULL_CODE`] when `v` is
    /// NULL or absent from the column.
    #[inline]
    pub fn code_of(&self, v: &Value) -> u32 {
        self.index.get(v).copied().unwrap_or(NULL_CODE)
    }

    /// Decodes a non-NULL code back into its value.
    #[inline]
    pub fn value_of(&self, code: u32) -> Option<&Value> {
        if code == NULL_CODE {
            None
        } else {
            self.values.get(code as usize - 1)
        }
    }

    /// The distinct non-NULL values, in first-occurrence (code) order.
    #[inline]
    pub fn distinct_values(&self) -> &[Value] {
        &self.values
    }

    /// Per-code occurrence counts: `counts()[c]` is how many rows of
    /// the source column carry code `c`, with `counts()[0]` the NULL
    /// count. Length is `cardinality() + 1` for any dictionary built
    /// through [`ColumnDict::build`] / [`DictBuilder`]; kernels treat
    /// any other length as "counts unavailable" and fall back to a
    /// counting pass.
    #[inline]
    pub fn code_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Reassembles a slim dictionary from its serialized parts — the
    /// spill-cache load path ([`crate::pages`]). The encode index is
    /// rebuilt from the decode table; `counts` must follow the
    /// [`ColumnDict::code_counts`] convention.
    pub fn from_parts(values: Vec<Value>, nulls: usize, counts: Vec<u64>) -> ColumnDict {
        let mut index = FxHashMap::with_capacity_and_hasher(values.len(), Default::default());
        for (i, v) in values.iter().enumerate() {
            index.insert(v.clone(), i as u32 + 1);
        }
        ColumnDict {
            codes: Vec::new(),
            values,
            index,
            nulls,
            counts,
            sketch: OnceLock::new(),
        }
    }

    /// [`ColumnDict::from_parts`] with a sketch preseeded from
    /// persisted hashes — the spill-cache load path, which would
    /// otherwise rehash every distinct value to rebuild what the
    /// ingest pass already computed. The hashes must be the
    /// [`ColumnSketch::hashes`] of this exact value sequence; callers
    /// (the spill decoder) verify provenance via the entry checksum.
    pub fn from_parts_with_sketch(
        values: Vec<Value>,
        nulls: usize,
        counts: Vec<u64>,
        hashes: Vec<u64>,
    ) -> ColumnDict {
        let rows = counts.iter().sum::<u64>() as usize;
        let dict = ColumnDict::from_parts(values, nulls, counts);
        let _ = dict.sketch.set(Some(Arc::new(ColumnSketch::from_hashes(
            rows, nulls, hashes,
        ))));
        dict
    }

    /// The column's sketch, built on first request (O(cardinality))
    /// and cached. `None` when the dictionary cannot vouch for
    /// exactness: the fused-counts invariant is broken (hand-assembled
    /// dictionary) or a removal left ghost codes — in both cases
    /// `cardinality()` may over-count the live column and any pruning
    /// proof would be unsound, so no sketch is offered at all.
    pub fn sketch(&self) -> Option<Arc<ColumnSketch>> {
        self.sketch
            .get_or_init(|| {
                if self.counts.len() != self.values.len() + 1 {
                    return None;
                }
                if self.counts.iter().skip(1).any(|&c| c == 0) {
                    return None;
                }
                let rows = self.counts.iter().sum::<u64>() as usize;
                Some(Arc::new(ColumnSketch::build(
                    &self.values,
                    self.nulls,
                    rows,
                )))
            })
            .clone()
    }

    /// The sketch if one was already built or preseeded — never
    /// triggers a build (spill serialization uses this to persist
    /// exactly what ingest computed).
    pub fn sketch_if_built(&self) -> Option<Arc<ColumnSketch>> {
        self.sketch.get().cloned().flatten()
    }

    /// A codes-free copy: the decode/encode tables and the NULL count
    /// survive, the per-row code vector is dropped. This is the
    /// resident half of the paged store ([`crate::pages`]) — every
    /// kernel that reads only `cardinality` / `code_of` /
    /// `distinct_values` / `value_of` (notably [`code_translation`],
    /// [`intersect_count`] and [`decode_set_cols`]) works on a slim
    /// dictionary unchanged, while per-row codes stream from disk.
    /// `rows()` reports 0 on the copy; the paged column tracks the
    /// true row count itself.
    pub fn slim(&self) -> ColumnDict {
        ColumnDict {
            codes: Vec::new(),
            values: self.values.clone(),
            index: self.index.clone(),
            nulls: self.nulls,
            counts: self.counts.clone(),
            // A sketch summarizes the value set, which slimming keeps.
            sketch: self.sketch.clone(),
        }
    }

    /// Rebuilds a full dictionary from this (slim) one plus a per-row
    /// code vector — the paged store's rehydration path for consumers
    /// that need random access to codes (the coded g3 and Restruct
    /// kernels, through the `column_dict()` seam).
    pub fn rehydrate(&self, codes: Vec<u32>) -> ColumnDict {
        ColumnDict {
            codes,
            values: self.values.clone(),
            index: self.index.clone(),
            nulls: self.nulls,
            counts: self.counts.clone(),
            sketch: self.sketch.clone(),
        }
    }

    /// Extends the dictionary with appended cells, interning exactly
    /// as [`ColumnDict::build`] would — codes stay first-occurrence
    /// canonical, so the result **equals** a rebuild over the
    /// concatenated column. This is the append half of delta
    /// maintenance ([`crate::delta`]); it requires a full (non-slim)
    /// dictionary and clones a value only on first occurrence.
    pub fn append_values(&mut self, appended: &[Value]) {
        debug_assert_eq!(
            self.codes.len() as u64,
            self.counts.iter().sum::<u64>(),
            "append_values needs a full (non-slim) dictionary"
        );
        // The value set is about to change: drop the derived sketch.
        self.sketch.take();
        self.codes.reserve(appended.len());
        for v in appended {
            if v.is_null() {
                self.nulls += 1;
                self.counts[NULL_CODE as usize] += 1;
                self.codes.push(NULL_CODE);
                continue;
            }
            let code = match self.index.get(v) {
                Some(&c) => c,
                None => {
                    let next = self.values.len() as u32 + 1;
                    self.values.push(v.clone());
                    self.index.insert(v.clone(), next);
                    self.counts.push(0);
                    next
                }
            };
            self.counts[code as usize] += 1;
            self.codes.push(code);
        }
    }

    /// Removes the rows at `sorted` (strictly ascending), decrementing
    /// per-code counts. Returns `true` when the result still equals a
    /// rebuild over the surviving column — `false` when some value's
    /// count reached zero, leaving a *ghost* code that a rebuild would
    /// never assign (first-occurrence order diverges and
    /// `cardinality()` over-counts); the caller must then evict and
    /// rebuild instead of keeping this dictionary.
    pub fn remove_rows(&mut self, sorted: &[usize]) -> bool {
        self.sketch.take();
        for &i in sorted {
            let code = self.codes[i] as usize;
            self.counts[code] -= 1;
            if code == NULL_CODE as usize {
                self.nulls -= 1;
            }
        }
        let mut next_del = 0usize;
        let mut write = 0usize;
        for read in 0..self.codes.len() {
            if next_del < sorted.len() && sorted[next_del] == read {
                next_del += 1;
                continue;
            }
            self.codes[write] = self.codes[read];
            write += 1;
        }
        self.codes.truncate(write);
        self.counts.iter().skip(1).all(|&c| c > 0)
    }
}

/// The set of distinct, fully non-NULL projected code tuples of one
/// side — the encoded counterpart of [`Table::distinct_projection`].
///
/// The representation is chosen by projection arity:
/// * 1 attribute: codes are assigned first-occurrence, so the distinct
///   code set is exactly `1..=cardinality` — nothing to materialize;
/// * 2 attributes: keys pack into a `u64` (`hi << 32 | lo`);
/// * otherwise: boxed `u32` slices (also covers the degenerate empty
///   projection, whose only possible tuple is `[]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodedSet {
    /// Unary projection: every code `1..=card` occurs.
    Unary {
        /// The column cardinality (= set size).
        card: u32,
    },
    /// Two-attribute projection with packed `u64` keys.
    Packed(FxHashSet<u64>),
    /// Any other arity, keyed by the full code tuple.
    Wide(FxHashSet<Box<[u32]>>),
}

impl EncodedSet {
    /// Number of distinct non-NULL projected tuples.
    pub fn len(&self) -> usize {
        match self {
            EncodedSet::Unary { card } => *card as usize,
            EncodedSet::Packed(s) => s.len(),
            EncodedSet::Wide(s) => s.len(),
        }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maintains this set across a row append: inserts the projected
    /// code tuples of rows `old_rows..new_rows` of `cols` (the
    /// **already-maintained** dictionaries covering the full
    /// post-append column). Equals [`crate::kernels::distinct_codes`]
    /// over the whole column — the delta layer's append path for cached
    /// distinct sets. Deletes are not maintainable here (no
    /// multiplicities); callers evict instead.
    pub fn append_rows(&mut self, cols: &[&ColumnDict], old_rows: usize, new_rows: usize) {
        match self {
            EncodedSet::Unary { card } => {
                // Canonical interning means codes 1..=cardinality all
                // occur; the maintained dictionary already knows the
                // new cardinality.
                *card = cols[0].cardinality() as u32;
            }
            EncodedSet::Packed(set) => {
                let (ca, cb) = (cols[0].codes(), cols[1].codes());
                for i in old_rows..new_rows {
                    let (x, y) = (ca[i], cb[i]);
                    if x != NULL_CODE && y != NULL_CODE {
                        set.insert(pack2(x, y));
                    }
                }
            }
            EncodedSet::Wide(set) => {
                'rows: for i in old_rows..new_rows {
                    let mut key = Vec::with_capacity(cols.len());
                    for c in cols {
                        let code = c.codes()[i];
                        if code == NULL_CODE {
                            continue 'rows;
                        }
                        key.push(code);
                    }
                    if !set.contains(key.as_slice()) {
                        set.insert(key.into_boxed_slice());
                    }
                }
            }
        }
    }
}

/// Packs a pair of codes into one lossless `u64` key (`hi << 32 | lo`).
#[inline]
pub(crate) fn pack2(hi: u32, lo: u32) -> u64 {
    (u64::from(hi) << 32) | u64::from(lo)
}

/// Decodes an [`EncodedSet`] produced from `cols` back into `Value`
/// tuples; equals [`Table::distinct_projection`].
pub fn decode_set_cols(cols: &[&ColumnDict], set: &EncodedSet) -> HashSet<ProjKey> {
    let decode_one = |col: &ColumnDict, code: u32| -> Value {
        col.value_of(code).cloned().unwrap_or(Value::Null)
    };
    match set {
        EncodedSet::Unary { card } => match cols {
            [c] => (1..=*card).map(|code| vec![decode_one(c, code)]).collect(),
            _ => HashSet::new(),
        },
        EncodedSet::Packed(s) => match cols {
            [ca, cb] => s
                .iter()
                .map(|&k| vec![decode_one(ca, (k >> 32) as u32), decode_one(cb, k as u32)])
                .collect(),
            _ => HashSet::new(),
        },
        EncodedSet::Wide(s) => s
            .iter()
            .map(|key| {
                cols.iter()
                    .zip(key.iter())
                    .map(|(c, &code)| decode_one(c, code))
                    .collect()
            })
            .collect(),
    }
}

/// The plurality right-hand side of one LHS group: how many of the
/// group's rows carry its most frequent RHS tuple, and the first row
/// carrying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plurality {
    /// Rows of the group carrying the winning RHS tuple.
    pub count: usize,
    /// The lowest row index carrying the winning RHS tuple.
    pub row: usize,
}

/// Per-group plurality of the RHS tuple on `rhs`, for row groups as
/// [`crate::kernels::lhs_groups`] and `CountBackend::lhs_groups`
/// produce them.
/// NULL RHS codes group as ordinary values. A tie goes to the tuple
/// whose first row comes first.
///
/// One kernel serves both consumers of "group by LHS, keep the
/// plurality RHS": the `g3` error of a failing FD is
/// `Σ (|group| − count)` over the non-NULL-LHS rows, and Restruct's
/// repaired split table keeps `row` per group. Nothing is allocated
/// per row: each group's `(key, row)` pairs are sorted in one reused
/// scratch buffer and the plurality is the longest run. RHS tuples of
/// up to two codes pack losslessly into a `u64`; wider tuples compare
/// code by code.
pub fn plurality_cols(groups: &[Vec<usize>], rhs: &[&ColumnDict]) -> Vec<Plurality> {
    fn best(runs: impl Iterator<Item = Plurality>) -> Plurality {
        let none = Plurality {
            count: 0,
            row: usize::MAX,
        };
        runs.fold(none, |best, p| {
            if p.count > best.count || (p.count == best.count && p.row < best.row) {
                p
            } else {
                best
            }
        })
    }
    let codes: Vec<&[u32]> = rhs.iter().map(|c| c.codes()).collect();
    if codes.len() <= 2 {
        let key = |i: usize| codes.iter().fold(0u64, |k, c| (k << 32) | u64::from(c[i]));
        let mut scratch: Vec<(u64, usize)> = Vec::new();
        groups
            .iter()
            .map(|g| {
                scratch.clear();
                scratch.extend(g.iter().map(|&i| (key(i), i)));
                scratch.sort_unstable();
                best(scratch.chunk_by(|x, y| x.0 == y.0).map(|run| Plurality {
                    count: run.len(),
                    row: run[0].1,
                }))
            })
            .collect()
    } else {
        let cmp = |i: usize, j: usize| {
            codes
                .iter()
                .map(|c| c[i].cmp(&c[j]))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        };
        let mut scratch: Vec<usize> = Vec::new();
        groups
            .iter()
            .map(|g| {
                scratch.clear();
                scratch.extend_from_slice(g);
                scratch.sort_unstable_by(|&i, &j| cmp(i, j).then(i.cmp(&j)));
                best(
                    scratch
                        .chunk_by(|&i, &j| cmp(i, j).is_eq())
                        .map(|run| Plurality {
                            count: run.len(),
                            row: run[0],
                        }),
                )
            })
            .collect()
    }
}

/// Rows whose projection on `cols` has no NULL — the denominator of
/// the `g3` error. A unary projection reads the dictionary's NULL
/// count; wider ones take one pass over the codes.
pub fn non_null_rows_cols(cols: &[&ColumnDict], rows: usize) -> usize {
    match cols {
        [col] => rows - col.null_count(),
        _ => {
            let codes: Vec<&[u32]> = cols.iter().map(|c| c.codes()).collect();
            (0..rows)
                .filter(|&i| codes.iter().all(|c| c[i] != NULL_CODE))
                .count()
        }
    }
}

/// The first row of every distinct non-NULL projection on `cols`,
/// ascending — `SELECT DISTINCT` that keeps first-seen order, as row
/// indices for [`decode_rows_cols`].
pub fn first_rows_cols(cols: &[&ColumnDict], rows: usize) -> Vec<usize> {
    match cols {
        // π_∅ of a non-empty table is the single empty tuple.
        [] => (0..rows.min(1)).collect(),
        [col] => {
            let mut seen = vec![false; col.cardinality() + 1];
            seen[NULL_CODE as usize] = true;
            col.codes()
                .iter()
                .enumerate()
                .filter(|&(_, &c)| !std::mem::replace(&mut seen[c as usize], true))
                .map(|(i, _)| i)
                .collect()
        }
        [ca, cb] => {
            let (ca, cb) = (ca.codes(), cb.codes());
            let mut seen: FxHashSet<u64> = FxHashSet::default();
            (0..rows)
                .filter(|&i| {
                    ca[i] != NULL_CODE && cb[i] != NULL_CODE && seen.insert(pack2(ca[i], cb[i]))
                })
                .collect()
        }
        _ => {
            let codes: Vec<&[u32]> = cols.iter().map(|c| c.codes()).collect();
            let mut seen: FxHashSet<Box<[u32]>> = FxHashSet::default();
            let mut scratch: Vec<u32> = vec![0; cols.len()];
            let mut first = Vec::new();
            'rows: for i in 0..rows {
                for (s, c) in scratch.iter_mut().zip(&codes) {
                    if c[i] == NULL_CODE {
                        continue 'rows;
                    }
                    *s = c[i];
                }
                if !seen.contains(scratch.as_slice()) {
                    seen.insert(scratch.clone().into_boxed_slice());
                    first.push(i);
                }
            }
            first
        }
    }
}

/// Decodes `rows` of the projection on `cols` into a table, in the
/// given order — one `Value` clone per output cell, none for the rows
/// left out.
pub fn decode_rows_cols(cols: &[&ColumnDict], rows: &[usize]) -> Result<Table, RelationalError> {
    Table::from_rows(
        cols.len(),
        rows.iter().map(|&i| {
            cols.iter()
                .map(|c| c.value_of(c.codes()[i]).cloned().unwrap_or(Value::Null))
                .collect()
        }),
    )
}

/// A fully dictionary-encoded table: one [`ColumnDict`] per attribute.
///
/// Immutable and `Sync` after construction, so parallel workers share
/// the codes read-only. Whole-table consumers (TANE, SPIDER, key
/// discovery) use this; per-projection consumers run the
/// [`crate::kernels`] over the column dictionaries directly.
#[derive(Debug, Clone, Default)]
pub struct DictTable {
    columns: Vec<ColumnDict>,
    rows: usize,
}

impl DictTable {
    /// Encodes every column of `table`. One pass per column.
    pub fn build(table: &Table) -> Self {
        let columns = (0..table.arity())
            .map(|i| ColumnDict::build(table.column(AttrId(i as u16))))
            .collect();
        DictTable {
            columns,
            rows: table.len(),
        }
    }

    /// Number of rows of the encoded table.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// One column's dictionary.
    #[inline]
    pub fn column(&self, attr: AttrId) -> &ColumnDict {
        &self.columns[attr.index()]
    }

    /// Unary stripped partition (`NULL = NULL`); see
    /// [`crate::kernels::partition1`].
    pub fn partition1(&self, attr: AttrId) -> StrippedPartition {
        let Ok(p) = crate::kernels::partition1(self.column(attr), self.rows);
        p
    }
}

/// Per-position code translation `left code → right code`
/// ([`NULL_CODE`] when the left value does not occur on the right —
/// callers must treat a zero result as "no match", never as NULL
/// equality). Codes are column-local, so cross-table probes — the
/// intersection kernel here — go through this table instead of
/// re-hashing `Value`s per tuple.
pub fn code_translation(left: &ColumnDict, right: &ColumnDict) -> Vec<u32> {
    let mut t = vec![NULL_CODE; left.cardinality() + 1];
    for (i, v) in left.distinct_values().iter().enumerate() {
        t[i + 1] = right.code_of(v);
    }
    t
}

/// `|π_L(left) ∩ π_R(right)|` — the `N_kl` of the paper — from
/// prebuilt encoded sets over the two sides' projected columns. The
/// sides must have equal arity (guaranteed by
/// [`crate::counting::EquiJoin`]); on a malformed pair the count falls
/// back to the decoded reference intersection.
pub fn intersect_count(
    lcols: &[&ColumnDict],
    lset: &EncodedSet,
    rcols: &[&ColumnDict],
    rset: &EncodedSet,
) -> usize {
    match (lcols, rcols, lset, rset) {
        ([lc], [rc], EncodedSet::Unary { .. }, EncodedSet::Unary { .. }) => {
            // Iterate the smaller dictionary, probe the larger's index.
            let (small, large) = if lc.cardinality() <= rc.cardinality() {
                (lc, rc)
            } else {
                (rc, lc)
            };
            small
                .distinct_values()
                .iter()
                .filter(|v| large.code_of(v) != NULL_CODE)
                .count()
        }
        ([la, lb], [ra, rb], EncodedSet::Packed(ls), EncodedSet::Packed(rs)) => {
            // Iterate the smaller set; translate into the larger side's
            // code space per position, then probe.
            let translated_probe =
                |it: &FxHashSet<u64>, ta: Vec<u32>, tb: Vec<u32>, other: &FxHashSet<u64>| {
                    it.iter()
                        .filter(|&&k| {
                            let (x, y) = (ta[(k >> 32) as usize], tb[(k as u32) as usize]);
                            x != NULL_CODE && y != NULL_CODE && other.contains(&pack2(x, y))
                        })
                        .count()
                };
            if ls.len() <= rs.len() {
                translated_probe(ls, code_translation(la, ra), code_translation(lb, rb), rs)
            } else {
                translated_probe(rs, code_translation(ra, la), code_translation(rb, lb), ls)
            }
        }
        (_, _, EncodedSet::Wide(ls), EncodedSet::Wide(rs)) if lcols.len() == rcols.len() => {
            let probe_wide = |it: &FxHashSet<Box<[u32]>>,
                              xlats: Vec<Vec<u32>>,
                              other: &FxHashSet<Box<[u32]>>| {
                let mut scratch: Vec<u32> = vec![0; xlats.len()];
                it.iter()
                    .filter(|key| {
                        for ((s, &c), t) in scratch.iter_mut().zip(key.iter()).zip(&xlats) {
                            *s = t[c as usize];
                            if *s == NULL_CODE {
                                // The left value has no right-side code.
                                return false;
                            }
                        }
                        other.contains(scratch.as_slice())
                    })
                    .count()
            };
            if ls.len() <= rs.len() {
                let xlats = lcols
                    .iter()
                    .zip(rcols)
                    .map(|(l, r)| code_translation(l, r))
                    .collect();
                probe_wide(ls, xlats, rs)
            } else {
                let xlats = lcols
                    .iter()
                    .zip(rcols)
                    .map(|(l, r)| code_translation(r, l))
                    .collect();
                probe_wide(rs, xlats, ls)
            }
        }
        _ => {
            // Mismatched arity or representations: fall back to the
            // decoded reference intersection (always correct).
            let l = decode_set_cols(lcols, lset);
            let r = decode_set_cols(rcols, rset);
            let (small, large) = if l.len() <= r.len() {
                (&l, &r)
            } else {
                (&r, &l)
            };
            small.iter().filter(|k| large.contains(*k)).count()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u16) -> AttrId {
        AttrId(i)
    }

    fn sample() -> Table {
        // (x, y): (1,'a') (1,'a') (2,'b') (NULL,'c') (3,NULL)
        #[allow(clippy::unwrap_used)]
        Table::from_rows(
            2,
            vec![
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Int(2), Value::str("b")],
                vec![Value::Null, Value::str("c")],
                vec![Value::Int(3), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn null_encodes_to_sentinel_and_values_to_dense_codes() {
        let t = sample();
        let d = DictTable::build(&t);
        assert_eq!(d.rows(), 5);
        assert_eq!(d.column(a(0)).codes(), &[1, 1, 2, 0, 3]);
        assert_eq!(d.column(a(1)).codes(), &[1, 1, 2, 3, 0]);
        assert_eq!(d.column(a(0)).cardinality(), 3);
        assert!(d.column(a(0)).has_null());
        assert_eq!(d.column(a(0)).null_count(), 1);
        assert_eq!(d.column(a(0)).value_of(1), Some(&Value::Int(1)));
        assert_eq!(d.column(a(0)).value_of(0), None);
        assert_eq!(d.column(a(0)).code_of(&Value::Int(2)), 2);
        assert_eq!(d.column(a(0)).code_of(&Value::Int(99)), NULL_CODE);
        assert_eq!(d.column(a(0)).code_of(&Value::Null), NULL_CODE);
    }

    #[test]
    fn join_stats_translate_across_tables() {
        #[allow(clippy::unwrap_used)]
        let l = Table::from_rows(
            1,
            [1, 2, 2, 4, -7]
                .iter()
                .map(|&v| vec![Value::Int(v)])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        #[allow(clippy::unwrap_used)]
        let r = Table::from_rows(
            1,
            [4, 1, 9]
                .iter()
                .map(|&v| vec![Value::Int(v)])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let (dl, dr) = (
            ColumnDict::build(l.column(a(0))),
            ColumnDict::build(r.column(a(0))),
        );
        let Ok(lset) = crate::kernels::distinct_codes(&[&dl], l.len());
        let Ok(rset) = crate::kernels::distinct_codes(&[&dr], r.len());
        assert_eq!((lset.len(), rset.len()), (4, 3));
        assert_eq!(intersect_count(&[&dl], &lset, &[&dr], &rset), 2);
    }

    #[test]
    fn nan_interns_consistently() {
        use crate::value::OrdF64;
        #[allow(clippy::unwrap_used)]
        let t = Table::from_rows(
            1,
            vec![
                vec![Value::Float(OrdF64(f64::NAN))],
                vec![Value::Float(OrdF64(f64::NAN))],
                vec![Value::Float(OrdF64(1.5))],
            ],
        )
        .unwrap();
        let d = DictTable::build(&t);
        // Same-payload NaNs share a code (OrdF64 total order).
        assert_eq!(d.column(a(0)).cardinality(), 2);
        assert_eq!(
            d.partition1(a(0)),
            StrippedPartition::for_attribute(&t, a(0))
        );
    }

    #[test]
    fn builder_matches_batch_build_and_counts_are_fused() {
        let t = sample();
        for i in 0..t.arity() {
            let column = t.column(a(i as u16));
            let built = ColumnDict::build(column);
            // Fused counts: one slot per code, NULLs in slot 0.
            assert_eq!(built.code_counts().len(), built.cardinality() + 1);
            assert_eq!(built.code_counts()[0], built.null_count() as u64);
            let total: u64 = built.code_counts().iter().sum();
            assert_eq!(total, built.rows() as u64);
            // Streaming interner reproduces the batch dictionary.
            let mut b = DictBuilder::new();
            let codes: Vec<u32> = column.iter().map(|v| b.intern(v)).collect();
            assert_eq!(codes, built.codes());
            let slim = b.finish_slim();
            assert_eq!(slim.distinct_values(), built.distinct_values());
            assert_eq!(slim.null_count(), built.null_count());
            assert_eq!(slim.code_counts(), built.code_counts());
            // from_parts round-trips the serialized shape.
            let parts = ColumnDict::from_parts(
                slim.distinct_values().to_vec(),
                slim.null_count(),
                slim.code_counts().to_vec(),
            );
            assert_eq!(parts.code_of(&Value::Int(1)), built.code_of(&Value::Int(1)));
            assert_eq!(parts.cardinality(), built.cardinality());
        }
    }

    #[test]
    fn kernels_fall_back_when_counts_missing() {
        // A hand-assembled dictionary without the counts invariant
        // (e.g. Default + rehydrate) must still partition correctly.
        let t = sample();
        let built = ColumnDict::build(t.column(a(0)));
        let stripped = ColumnDict::default().rehydrate(built.codes().to_vec());
        // Cardinality is 0 on the stripped dict, so counts length
        // mismatches and the kernels recount; partition1 only depends
        // on codes, and all real codes are out of the (empty) domain —
        // exercise just the recount path on the true dict shape.
        assert_eq!(stripped.code_counts().len(), 0);
        let mut manual = built.clone();
        manual.counts = Vec::new();
        let rows = t.len();
        assert_eq!(
            crate::kernels::partition1(&manual, rows),
            crate::kernels::partition1(&built, rows)
        );
        assert_eq!(
            crate::kernels::lhs_groups(&[&manual], rows),
            crate::kernels::lhs_groups(&[&built], rows)
        );
    }

    #[test]
    fn dict_sketch_lazy_exact_and_invalidated() {
        let t = sample();
        let built = ColumnDict::build(t.column(a(0)));
        // Lazy: nothing built until asked.
        assert!(built.sketch_if_built().is_none());
        let sketch = built.sketch().expect("counts invariant holds");
        assert_eq!(sketch.distinct_exact(), built.cardinality());
        assert_eq!(sketch.null_count(), built.null_count());
        assert_eq!(sketch.rows(), built.rows());
        // Cached: second call returns the same Arc.
        assert!(Arc::ptr_eq(&sketch, &built.sketch().unwrap()));
        // Slim and rehydrated copies carry the sketch.
        assert!(built.slim().sketch_if_built().is_some());
        // Broken counts invariant → no sketch (pruning stays sound).
        // Start from a never-sketched dict: clones of a sketched one
        // deliberately carry the cached sketch (slim/rehydrate rely on
        // that), so the lazy path would never re-examine counts.
        let mut manual = ColumnDict::build(t.column(a(0)));
        manual.counts = Vec::new();
        assert!(manual.sketch().is_none());
        // Ghost codes (a removal that emptied a value) → no sketch.
        let mut ghosted = ColumnDict::build(&[Value::Int(1), Value::Int(2)]);
        assert!(!ghosted.remove_rows(&[1]), "removal leaves a ghost");
        assert!(ghosted.sketch().is_none());
        // Mutation invalidates a previously built sketch.
        let mut appended = ColumnDict::build(t.column(a(0)));
        appended.sketch();
        appended.append_values(&[Value::Int(99)]);
        assert!(appended.sketch_if_built().is_none());
        let resketch = appended.sketch().unwrap();
        assert_eq!(resketch.distinct_exact(), appended.cardinality());
        // from_parts_with_sketch preseeds a sketch equal to a rebuild.
        let slim = built.slim();
        let seeded = ColumnDict::from_parts_with_sketch(
            slim.distinct_values().to_vec(),
            slim.null_count(),
            slim.code_counts().to_vec(),
            sketch.hashes().to_vec(),
        );
        assert_eq!(
            seeded.sketch_if_built().as_deref(),
            Some(sketch.as_ref()),
            "preseeded sketch equals a fresh build"
        );
    }
}
