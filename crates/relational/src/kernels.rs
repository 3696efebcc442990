//! The five counting kernels behind the paper's `‖·‖` primitive,
//! written once over a [`CodeSource`].
//!
//! Every statistic the discovery stages consume reduces to one of
//! [`count_distinct`], [`distinct_codes`], [`lhs_groups`],
//! [`partition1`] and [`fd_holds`] over dictionary codes (NULL = 0, see
//! [`crate::encode`]). A code source exposes two things: the column's
//! dictionary metadata (cardinality, NULL count, fused per-code
//! counts) and its codes in [`PAGE_CODES`]-sized page slices. An
//! in-RAM [`ColumnDict`] hands out borrowed slices of its code vector
//! and cannot fail (its error type is [`Infallible`], so callers
//! destructure `let Ok(x) = …`); a spilled column
//! ([`crate::pages::PagedSource`]) pins pages through the buffer pool
//! and reports [`crate::pages::PageError`].
//!
//! Both kinds run through one page-slice scan: the pages are split
//! into contiguous chunks (`page_chunks`), each chunk streams its
//! pages in lockstep across the projected columns and builds a partial
//! result (`run_chunks`, one scoped thread per chunk under the
//! `parallel` feature), and the partials fold in chunk order into the
//! first (`merge_parts`). In-RAM columns chunk by `PAGE_CODES` too:
//! chunk boundaries then depend only on the row count, never on where
//! the codes live, so an in-RAM and a spilled copy of a column give
//! byte-identical answers for every thread count, and in-RAM scans get
//! the chunk-parallel merges for free. A lone chunk (every serial scan)
//! is its own result: it is pre-sized exactly and never copied.
//!
//! The algorithms are chosen by projection arity: counting-sort slots
//! sized from the dictionary's fused counts for a unary projection, a
//! packed `u64` key for a pair, and boxed code slices (probed by slice,
//! so duplicates allocate nothing) for wider tuples. The SQL kernels
//! skip rows whose projection touches NULL; [`partition1`] keeps the
//! mining convention (`NULL = NULL`).

use crate::encode::{pack2, ColumnDict, EncodedSet, NULL_CODE};
use crate::fasthash::{FxHashMap, FxHashSet};
use crate::pages::PAGE_CODES;
use crate::partitions::StrippedPartition;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::convert::Infallible;
use std::ops::{Deref, Range};

/// One column's dictionary codes, read page by page.
pub trait CodeSource: Copy + Sync {
    /// A pinned page of codes; it stays valid while held, even if a
    /// pool evicts its slot meanwhile.
    type Page: Deref<Target: AsRef<[u32]>> + Send;
    /// How reading a page can fail.
    type Error: Send;
    /// Whether fetching a page can block on I/O, so that a reader
    /// thread running ahead of the kernel pays off.
    const BLOCKING: bool;

    /// The column's dictionary: the kernels read its cardinality,
    /// NULL count and fused per-code counts, never its codes.
    fn dict(&self) -> &ColumnDict;

    /// Page `page` of the codes: rows `page * PAGE_CODES ..`, at most
    /// [`PAGE_CODES`] of them.
    fn page(&self, page: usize) -> Result<Self::Page, Self::Error>;
}

impl<'a> CodeSource for &'a ColumnDict {
    type Page = &'a [u32];
    type Error = Infallible;
    const BLOCKING: bool = false;

    fn dict(&self) -> &ColumnDict {
        self
    }

    fn page(&self, page: usize) -> Result<&'a [u32], Infallible> {
        let codes: &'a [u32] = self.codes();
        let start = page.saturating_mul(PAGE_CODES).min(codes.len());
        let end = start.saturating_add(PAGE_CODES).min(codes.len());
        Ok(&codes[start..end])
    }
}

/// Worker threads for chunked scans. Off-feature this is 1 (the
/// kernels collapse to their serial shape); with the `parallel`
/// feature it follows the machine, overridable through
/// `DBRE_PAGED_THREADS` (clamped to 1..=64) so scaling can be
/// measured — and the parallel code paths exercised — regardless of
/// the host's core count.
fn paged_threads() -> usize {
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
    #[cfg(feature = "parallel")]
    {
        if let Ok(v) = std::env::var("DBRE_PAGED_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.clamp(1, 64);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Splits the pages of a `rows`-row scan into at most `threads`
/// contiguous ranges. Chunk boundaries depend only on (rows, threads),
/// so a merge in chunk order is deterministic.
fn page_chunks(rows: usize, threads: usize) -> Vec<Range<usize>> {
    let pages = rows.div_ceil(PAGE_CODES);
    if pages == 0 {
        return Vec::new();
    }
    let n = threads.clamp(1, pages);
    let per = pages.div_ceil(n);
    (0..pages)
        .step_by(per)
        .map(|s| s..(s + per).min(pages))
        .collect()
}

/// Runs `f` over every chunk, one scoped thread per chunk when the
/// `parallel` feature is on and there is more than one chunk, inline
/// otherwise. Results come back **in chunk order** regardless of
/// completion order — the determinism the merges rely on.
fn run_chunks<R, E, F>(chunks: &[Range<usize>], f: F) -> Vec<Result<R, E>>
where
    R: Send,
    E: Send,
    F: Fn(Range<usize>) -> Result<R, E> + Sync,
{
    #[cfg(feature = "parallel")]
    if chunks.len() > 1 {
        let mut out: Vec<Option<Result<R, E>>> = Vec::new();
        out.resize_with(chunks.len(), || None);
        std::thread::scope(|scope| {
            for (slot, chunk) in out.iter_mut().zip(chunks) {
                let fr = &f;
                scope.spawn(move || {
                    *slot = Some(fr(chunk.clone()));
                });
            }
        });
        return out
            .into_iter()
            .map(|r| {
                // Invariant: the scope joins every worker, and each
                // worker's only job is to fill its slot.
                #[allow(clippy::expect_used)]
                r.expect("chunk worker filled its slot before scope exit")
            })
            .collect();
    }
    chunks.iter().map(|c| f(c.clone())).collect()
}

/// Folds chunk partials, in chunk order, into the first one — a lone
/// chunk (every serial scan) is the result as is, never copied into a
/// fresh accumulator. No chunks (an empty column) yield `R::default()`.
fn merge_parts<R: Default, E>(
    parts: Vec<Result<R, E>>,
    mut merge: impl FnMut(&mut R, R),
) -> Result<R, E> {
    let mut parts = parts.into_iter();
    let mut acc = match parts.next() {
        Some(first) => first?,
        None => R::default(),
    };
    for part in parts {
        merge(&mut acc, part?);
    }
    Ok(acc)
}

/// How many page groups the prefetching reader may run ahead of the
/// consumer.
#[cfg(feature = "parallel")]
const PREFETCH_DEPTH: usize = 2;

/// Streams `range`'s pages over `cols` in lockstep, calling
/// `f(base_row, slices)` once per page in order.
///
/// Under the `parallel` feature a reader thread fetches blocking pages
/// ahead of the consumer (bounded by [`PREFETCH_DEPTH`]), overlapping
/// page I/O with kernel compute. Pages are still requested and
/// delivered strictly in order, so results and pool counters are
/// identical to the plain loop.
fn stream_page_range<S, F>(cols: &[S], range: Range<usize>, mut f: F) -> Result<(), S::Error>
where
    S: CodeSource,
    F: FnMut(usize, &[&[u32]]),
{
    #[cfg(feature = "parallel")]
    if S::BLOCKING && range.len() > 1 {
        return std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::sync_channel(PREFETCH_DEPTH);
            let reader = range.clone();
            scope.spawn(move || {
                for p in reader {
                    let group: Result<Vec<S::Page>, S::Error> =
                        cols.iter().map(|c| c.page(p)).collect();
                    let stop = group.is_err();
                    if tx.send(group).is_err() || stop {
                        return;
                    }
                }
            });
            for (p, group) in range.clone().zip(rx.iter()) {
                deliver(p, &group?, &mut f);
            }
            Ok(())
        });
    }
    for p in range {
        let group: Vec<S::Page> = cols.iter().map(|c| c.page(p)).collect::<Result<_, _>>()?;
        deliver(p, &group, &mut f);
    }
    Ok(())
}

/// Hands one page group to `f` as plain slices.
fn deliver<P: Deref<Target: AsRef<[u32]>>>(
    page: usize,
    group: &[P],
    f: &mut impl FnMut(usize, &[&[u32]]),
) {
    let slices: Vec<&[u32]> = group.iter().map(|p| (**p).as_ref()).collect();
    f(page * PAGE_CODES, &slices);
}

/// Per-code occurrence counts of one column — borrowed from the
/// dictionary's fused counts when they cover its code domain, counted
/// in one chunked pass otherwise (a hand-assembled dictionary). Index
/// 0 is the NULL count.
fn code_counts<S: CodeSource>(
    col: &S,
    rows: usize,
    threads: usize,
) -> Result<Cow<'_, [u64]>, S::Error> {
    let domain = col.dict().cardinality() + 1;
    if col.dict().code_counts().len() == domain {
        return Ok(Cow::Borrowed(col.dict().code_counts()));
    }
    let parts = run_chunks(&page_chunks(rows, threads), |r| {
        let mut counts: Vec<u64> = vec![0; domain];
        stream_page_range(std::slice::from_ref(col), r, |_, slices| {
            for &c in slices[0] {
                counts[c as usize] += 1;
            }
        })?;
        Ok(counts)
    });
    let counts = merge_parts(parts, |acc: &mut Vec<u64>, part| {
        for (a, b) in acc.iter_mut().zip(part) {
            *a += b;
        }
    })?;
    Ok(Cow::Owned(counts))
}

/// Builds the counting-sort slot table from `col`'s code counts:
/// `slots[c]` is the dense group index of code `c`, `u32::MAX` for
/// codes that form no group (occurrence < 2, or NULL when
/// `skip_null`). Returns the slot table and each group's size.
fn group_slots<S: CodeSource>(
    col: &S,
    rows: usize,
    threads: usize,
    skip_null: bool,
) -> Result<(Vec<u32>, Vec<usize>), S::Error> {
    let counts = code_counts(col, rows, threads)?;
    let mut slots: Vec<u32> = vec![u32::MAX; counts.len()];
    let mut sizes: Vec<usize> = Vec::new();
    for (c, &n) in counts.iter().enumerate().skip(usize::from(skip_null)) {
        if n >= 2 {
            slots[c] = sizes.len() as u32;
            sizes.push(n as usize);
        }
    }
    Ok((slots, sizes))
}

/// The counting-sort fill pass shared by [`lhs_groups`] and
/// [`partition1`]: every row whose code has a slot lands in its group,
/// chunk partials concatenated in chunk order so row ids stay
/// ascending. Groups then come out sorted (ascending first rows).
fn fill_groups<S: CodeSource>(
    col: &S,
    rows: usize,
    threads: usize,
    slots: &[u32],
    sizes: &[usize],
) -> Result<Vec<Vec<usize>>, S::Error> {
    if sizes.is_empty() {
        // No code repeats (a key-like column): nothing to read.
        return Ok(Vec::new());
    }
    let chunks = page_chunks(rows, threads);
    let parts = run_chunks(&chunks, |r| {
        // A lone chunk fills the final groups: size them exactly.
        let mut part: Vec<Vec<usize>> = if chunks.len() == 1 {
            sizes.iter().map(|&n| Vec::with_capacity(n)).collect()
        } else {
            vec![Vec::new(); sizes.len()]
        };
        stream_page_range(std::slice::from_ref(col), r, |base, slices| {
            for (i, &c) in slices[0].iter().enumerate() {
                let s = slots[c as usize];
                if s != u32::MAX {
                    part[s as usize].push(base + i);
                }
            }
        })?;
        Ok(part)
    });
    let mut groups = merge_parts(parts, |groups: &mut Vec<Vec<usize>>, part| {
        for (g, p) in groups.iter_mut().zip(part) {
            g.extend(p);
        }
    })?;
    groups.sort();
    Ok(groups)
}

/// Merges chunk-partial hash groups in chunk order (row ids stay
/// ascending), keeps groups of size ≥ 2 and sorts them.
fn finish_hash_groups<K: std::hash::Hash + Eq, E>(
    parts: Vec<Result<FxHashMap<K, Vec<usize>>, E>>,
) -> Result<Vec<Vec<usize>>, E> {
    let map = merge_parts(parts, |map: &mut FxHashMap<K, Vec<usize>>, part| {
        for (k, v) in part {
            map.entry(k).or_default().extend(v);
        }
    })?;
    let mut groups: Vec<Vec<usize>> = map.into_values().filter(|g| g.len() >= 2).collect();
    groups.sort();
    Ok(groups)
}

/// Reads row `i`'s code tuple into `key`; `false` when one of its
/// codes is NULL (the SQL kernels skip such rows).
#[inline]
fn read_key(key: &mut [u32], slices: &[&[u32]], i: usize) -> bool {
    for (k, c) in key.iter_mut().zip(slices) {
        *k = c[i];
        if *k == NULL_CODE {
            return false;
        }
    }
    true
}

/// `‖r[cols]‖` under SQL semantics (rows with a NULL among the
/// projection dropped) — the paper's cardinality query, matching
/// [`crate::table::Table::count_distinct`]. Unary counts are the
/// dictionary cardinality; a pair whose code-domain product is small
/// counts in a dense bitset instead of a hash set.
pub fn count_distinct<S: CodeSource>(cols: &[S], rows: usize) -> Result<usize, S::Error> {
    count_distinct_in(paged_threads(), cols, rows)
}

fn count_distinct_in<S: CodeSource>(
    threads: usize,
    cols: &[S],
    rows: usize,
) -> Result<usize, S::Error> {
    /// 512 KiB of bits.
    const BITSET_MAX: u64 = 1 << 22;
    match cols {
        [c] => Ok(c.dict().cardinality()),
        [ca, cb] => {
            let width = cb.dict().cardinality() as u64;
            let domain = ca.dict().cardinality() as u64 * width;
            if domain == 0 || domain > BITSET_MAX {
                return Ok(distinct_codes_in(threads, cols, rows)?.len());
            }
            let words = (domain as usize).div_ceil(64);
            let parts = run_chunks(&page_chunks(rows, threads), |r| {
                let mut bits = vec![0u64; words];
                stream_page_range(cols, r, |_, slices| {
                    for (&x, &y) in slices[0].iter().zip(slices[1]) {
                        if x != NULL_CODE && y != NULL_CODE {
                            let idx = (u64::from(x) - 1) * width + (u64::from(y) - 1);
                            bits[(idx / 64) as usize] |= 1u64 << (idx % 64);
                        }
                    }
                })?;
                Ok(bits)
            });
            let bits = merge_parts(parts, |acc: &mut Vec<u64>, part| {
                for (a, b) in acc.iter_mut().zip(part) {
                    *a |= b;
                }
            })?;
            Ok(bits.iter().map(|w| w.count_ones() as usize).sum())
        }
        _ => Ok(distinct_codes_in(threads, cols, rows)?.len()),
    }
}

/// The distinct non-NULL projected code tuples (SQL semantics) —
/// decode with [`crate::encode::decode_set_cols`] to recover the exact
/// [`crate::table::Table::distinct_projection`]. Chunk partials are
/// unioned; only insertion order depends on the chunking, and no
/// consumer observes it.
pub fn distinct_codes<S: CodeSource>(cols: &[S], rows: usize) -> Result<EncodedSet, S::Error> {
    distinct_codes_in(paged_threads(), cols, rows)
}

fn distinct_codes_in<S: CodeSource>(
    threads: usize,
    cols: &[S],
    rows: usize,
) -> Result<EncodedSet, S::Error> {
    match cols {
        [] => {
            // π_∅ is {[]} on a non-empty table, {} on an empty one
            // (matching the Value-based reference).
            let mut s: FxHashSet<Box<[u32]>> = FxHashSet::default();
            if rows > 0 {
                s.insert(Box::from([]));
            }
            Ok(EncodedSet::Wide(s))
        }
        [c] => Ok(EncodedSet::Unary {
            card: c.dict().cardinality() as u32,
        }),
        [ca, cb] => {
            let chunks = page_chunks(rows, threads);
            // A lone chunk is the final set: size it like the serial
            // build.
            let cap = if chunks.len() == 1 {
                (ca.dict().cardinality() as u64 * cb.dict().cardinality() as u64).min(rows as u64)
                    as usize
            } else {
                0
            };
            let parts = run_chunks(&chunks, |r| {
                let mut set: FxHashSet<u64> =
                    FxHashSet::with_capacity_and_hasher(cap, Default::default());
                stream_page_range(cols, r, |_, slices| {
                    for (&x, &y) in slices[0].iter().zip(slices[1]) {
                        if x != NULL_CODE && y != NULL_CODE {
                            set.insert(pack2(x, y));
                        }
                    }
                })?;
                Ok(set)
            });
            Ok(EncodedSet::Packed(merge_parts(parts, |set, part| {
                set.extend(part)
            })?))
        }
        _ => {
            let parts = run_chunks(&page_chunks(rows, threads), |r| {
                let mut set: FxHashSet<Box<[u32]>> = FxHashSet::default();
                let mut key: Vec<u32> = vec![0; cols.len()];
                stream_page_range(cols, r, |_, slices| {
                    for i in 0..slices[0].len() {
                        if read_key(&mut key, slices, i) && !set.contains(key.as_slice()) {
                            set.insert(key.clone().into_boxed_slice());
                        }
                    }
                })?;
                Ok(set)
            });
            Ok(EncodedSet::Wide(merge_parts(parts, |set, part| {
                set.extend(part)
            })?))
        }
    }
}

/// Row-index groups (size ≥ 2) agreeing on `cols` under SQL semantics
/// — rows with a NULL among the projection are skipped (the empty
/// projection groups every row). Indices ascend within a group and
/// groups are sorted. Unary group sizes come straight from the
/// dictionary's fused counts, so singleton codes — the common case on
/// key-like columns — never allocate a group, and a column without a
/// repeated value is answered without reading a page.
pub fn lhs_groups<S: CodeSource>(cols: &[S], rows: usize) -> Result<Vec<Vec<usize>>, S::Error> {
    lhs_groups_in(paged_threads(), cols, rows)
}

fn lhs_groups_in<S: CodeSource>(
    threads: usize,
    cols: &[S],
    rows: usize,
) -> Result<Vec<Vec<usize>>, S::Error> {
    match cols {
        [] => Ok(if rows >= 2 {
            vec![(0..rows).collect()]
        } else {
            Vec::new()
        }),
        [col] => {
            // slots[NULL_CODE] stays MAX (SQL semantics: NULL rows
            // never group), so the fill pass needs no NULL check.
            let (slots, sizes) = group_slots(col, rows, threads, true)?;
            fill_groups(col, rows, threads, &slots, &sizes)
        }
        [_, _] => finish_hash_groups(run_chunks(&page_chunks(rows, threads), |r| {
            let mut map: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
            stream_page_range(cols, r, |base, slices| {
                for (i, (&x, &y)) in slices[0].iter().zip(slices[1]).enumerate() {
                    if x != NULL_CODE && y != NULL_CODE {
                        map.entry(pack2(x, y)).or_default().push(base + i);
                    }
                }
            })?;
            Ok(map)
        })),
        _ => finish_hash_groups(run_chunks(&page_chunks(rows, threads), |r| {
            let mut map: FxHashMap<Box<[u32]>, Vec<usize>> = FxHashMap::default();
            let mut key: Vec<u32> = vec![0; cols.len()];
            stream_page_range(cols, r, |base, slices| {
                for i in 0..slices[0].len() {
                    if !read_key(&mut key, slices, i) {
                        continue;
                    }
                    if let Some(g) = map.get_mut(key.as_slice()) {
                        g.push(base + i);
                    } else {
                        map.insert(key.clone().into_boxed_slice(), vec![base + i]);
                    }
                }
            })?;
            Ok(map)
        })),
    }
}

/// The unary stripped partition `π_col` under the mining convention
/// (`NULL = NULL`: code 0 is a class like any other), equal to
/// [`StrippedPartition::for_attribute`]. Class sizes come from the
/// dictionary's fused counts, so only the fill pass reads codes and no
/// row is hashed.
pub fn partition1<S: CodeSource>(col: S, rows: usize) -> Result<StrippedPartition, S::Error> {
    partition1_in(paged_threads(), col, rows)
}

fn partition1_in<S: CodeSource>(
    threads: usize,
    col: S,
    rows: usize,
) -> Result<StrippedPartition, S::Error> {
    let (slots, sizes) = group_slots(&col, rows, threads, false)?;
    let classes = fill_groups(&col, rows, threads, &slots, &sizes)?;
    Ok(StrippedPartition { classes, rows })
}

/// Does `lhs → rhs` hold under SQL semantics? NULL-LHS rows are
/// skipped and the RHS is compared structurally — code equality within
/// one dictionary *is* structural `Value` equality, `NULL = NULL` and
/// `NaN = NaN` included. Same answer as
/// [`crate::database::Database::fd_holds`].
///
/// One pass over LHS and RHS pages together keeps a single RHS
/// **witness tuple** per LHS group instead of materializing row
/// groups, so memory is bounded by the number of duplicated LHS
/// values, never the extension; a spilled FD probe runs in pool-sized
/// memory. Codes are dense `u32`s (a real code is never `u32::MAX`),
/// so `u32::MAX` marks "group not seen yet".
pub fn fd_holds<S: CodeSource>(lhs: &[S], rhs: &[S], rows: usize) -> Result<bool, S::Error> {
    fd_holds_in(paged_threads(), lhs, rhs, rows)
}

fn fd_holds_in<S: CodeSource>(
    threads: usize,
    lhs: &[S],
    rhs: &[S],
    rows: usize,
) -> Result<bool, S::Error> {
    if rhs.is_empty() || rows < 2 {
        return Ok(true);
    }
    let arity = rhs.len();
    match lhs {
        [] => {
            // One group of every row: holds iff each RHS column is
            // constant under structural equality — all NULL, or one
            // value and no NULLs. Pure dictionary metadata, no scan.
            Ok(rhs.iter().all(|c| {
                let nulls = c.dict().null_count();
                nulls == rows || (c.dict().cardinality() == 1 && nulls == 0)
            }))
        }
        [l] => {
            let (slots, sizes) = group_slots(l, rows, threads, true)?;
            if sizes.is_empty() {
                // Every non-NULL LHS value is unique: nothing to agree on.
                return Ok(true);
            }
            let scan: Vec<S> = lhs.iter().chain(rhs).copied().collect();
            let parts = run_chunks(&page_chunks(rows, threads), |r| {
                let mut witness: Vec<u32> = vec![u32::MAX; sizes.len() * arity];
                let mut ok = true;
                stream_page_range(&scan, r, |_, slices| {
                    if !ok {
                        return;
                    }
                    for (i, &c) in slices[0].iter().enumerate() {
                        let s = slots[c as usize];
                        if s == u32::MAX {
                            continue;
                        }
                        let w = &mut witness[s as usize * arity..][..arity];
                        if w[0] == u32::MAX {
                            for (wj, col) in w.iter_mut().zip(&slices[1..]) {
                                *wj = col[i];
                            }
                        } else if w.iter().zip(&slices[1..]).any(|(&wj, col)| wj != col[i]) {
                            ok = false;
                            return;
                        }
                    }
                })?;
                Ok(ok.then_some(witness))
            });
            witnesses_agree(parts, |acc, part| {
                let mut groups = acc.chunks_exact_mut(arity).zip(part.chunks_exact(arity));
                groups.all(|(a, w)| {
                    if a[0] == u32::MAX {
                        a.copy_from_slice(w);
                    }
                    w[0] == u32::MAX || a == w
                })
            })
        }
        _ => {
            /// LHS code tuple → the RHS witness tuple of its first row.
            type Witnesses = FxHashMap<Box<[u32]>, Box<[u32]>>;
            let k = lhs.len();
            let scan: Vec<S> = lhs.iter().chain(rhs).copied().collect();
            let parts = run_chunks(&page_chunks(rows, threads), |r| {
                let mut map = Witnesses::default();
                let mut key: Vec<u32> = vec![0; k];
                let mut ok = true;
                stream_page_range(&scan, r, |_, slices| {
                    if !ok {
                        return;
                    }
                    let (lcols, rcols) = slices.split_at(k);
                    for i in 0..lcols[0].len() {
                        if !read_key(&mut key, lcols, i) {
                            continue;
                        }
                        if let Some(w) = map.get(key.as_slice()) {
                            if w.iter().zip(rcols).any(|(&wj, col)| wj != col[i]) {
                                ok = false;
                                return;
                            }
                        } else {
                            let w: Box<[u32]> = rcols.iter().map(|col| col[i]).collect();
                            map.insert(key.clone().into_boxed_slice(), w);
                        }
                    }
                })?;
                Ok(ok.then_some(map))
            });
            witnesses_agree(parts, |acc, part| {
                part.into_iter().all(|(key, w)| match acc.entry(key) {
                    Entry::Occupied(e) => *e.get() == w,
                    Entry::Vacant(e) => {
                        e.insert(w);
                        true
                    }
                })
            })
        }
    }
}

/// Folds per-chunk witness partials in chunk order: a `None` partial
/// (a violation inside its chunk) or a `merge` that finds two chunks
/// disagreeing means the FD fails.
fn witnesses_agree<W, E>(
    parts: Vec<Result<Option<W>, E>>,
    mut merge: impl FnMut(&mut W, W) -> bool,
) -> Result<bool, E> {
    let mut acc: Option<W> = None;
    for part in parts {
        let Some(part) = part? else { return Ok(false) };
        match &mut acc {
            None => acc = Some(part),
            Some(acc) => {
                if !merge(acc, part) {
                    return Ok(false);
                }
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AttrId, AttrSet};
    use crate::backend::{CountBackend, ReferenceBackend};
    use crate::bufpool::BufferPool;
    use crate::database::Database;
    use crate::deps::Fd;
    use crate::encode::decode_set_cols;
    use crate::pages::{PageFile, PagedColumn, PagedSource};
    use crate::schema::Relation;
    use crate::table::{ProjKey, Table};
    use crate::value::{Domain, Value};
    use std::collections::HashSet;
    use std::sync::Arc;

    fn a(i: u16) -> AttrId {
        AttrId(i)
    }

    fn dicts(t: &Table) -> Vec<ColumnDict> {
        (0..t.arity())
            .map(|i| ColumnDict::build(t.column(a(i as u16))))
            .collect()
    }

    /// Every kernel answer the chunking could disturb.
    #[derive(Debug, PartialEq)]
    struct Answers {
        counts: Vec<usize>,
        sets: Vec<HashSet<ProjKey>>,
        groups: Vec<Vec<Vec<usize>>>,
        partition: StrippedPartition,
        fds: Vec<bool>,
    }

    /// Projections over the columns `[x, y]`: unary, pair and wide.
    const PROJECTIONS: [&[usize]; 3] = [&[0], &[0, 1], &[0, 1, 0]];
    /// FDs over `[x, y]`: a failing one, and holding unary and wide
    /// ones whose witnesses must merge across chunks.
    const FDS: [(&[usize], &[usize]); 3] = [(&[0], &[1]), (&[0], &[0]), (&[0, 1], &[0])];

    fn kernel_answers<S: CodeSource>(
        threads: usize,
        cols: [S; 2],
        rows: usize,
    ) -> Result<Answers, S::Error> {
        let proj = |ix: &[usize]| -> Vec<S> { ix.iter().map(|&i| cols[i]).collect() };
        let mut out = Answers {
            counts: Vec::new(),
            sets: Vec::new(),
            groups: Vec::new(),
            partition: partition1_in(threads, cols[0], rows)?,
            fds: Vec::new(),
        };
        for ix in PROJECTIONS {
            let p = proj(ix);
            out.counts.push(count_distinct_in(threads, &p, rows)?);
            let set = distinct_codes_in(threads, &p, rows)?;
            let dicts: Vec<&ColumnDict> = p.iter().map(|c| c.dict()).collect();
            out.sets.push(decode_set_cols(&dicts, &set));
            out.groups.push(lhs_groups_in(threads, &p, rows)?);
        }
        for (lhs, rhs) in FDS {
            out.fds
                .push(fd_holds_in(threads, &proj(lhs), &proj(rhs), rows)?);
        }
        Ok(out)
    }

    #[test]
    fn chunked_kernels_match_reference_across_chunk_counts() {
        // Five pages, so 1, 2 and 5 threads give 1, 2 and 5 chunks;
        // without the `parallel` feature the chunks run one after
        // another and their partials still merge.
        let rows = PAGE_CODES * 4 + 321;
        let cells = (0..rows).map(|i| {
            let x = if i % 53 == 0 {
                Value::Null
            } else {
                Value::Int((i % 211) as i64)
            };
            vec![x, Value::Int((i % 17) as i64)]
        });
        let mut db = Database::new();
        let rel = db
            .add_relation_with_table(
                Relation::of("P", &[("x", Domain::Int), ("y", Domain::Int)]),
                Table::from_rows(2, cells).unwrap(),
            )
            .unwrap();
        let table = db.table(rel);
        let attrs = |ix: &[usize]| -> Vec<AttrId> { ix.iter().map(|&i| a(i as u16)).collect() };
        let reference = ReferenceBackend;
        let mut expected = Answers {
            counts: Vec::new(),
            sets: Vec::new(),
            groups: Vec::new(),
            partition: StrippedPartition::for_attribute(table, a(0)),
            fds: Vec::new(),
        };
        for ix in PROJECTIONS {
            let at = attrs(ix);
            expected
                .counts
                .push(reference.count_distinct(&db, rel, &at));
            expected.sets.push(table.distinct_projection(&at));
            expected
                .groups
                .push((*reference.lhs_groups(&db, rel, &at)).clone());
        }
        for (lhs, rhs) in FDS {
            let fd = Fd {
                rel,
                lhs: AttrSet::from_indices(lhs.iter().map(|&i| i as u16)),
                rhs: AttrSet::from_indices(rhs.iter().map(|&i| i as u16)),
            };
            expected.fds.push(db.fd_holds(&fd));
        }
        assert_eq!(expected.fds, [false, true, true]);

        let d = dicts(table);
        let paged: Vec<PagedColumn> = d
            .iter()
            .map(|c| PagedColumn::new(Arc::new(c.slim()), PageFile::spill(c.codes()).unwrap()))
            .collect();
        let pool = BufferPool::with_capacity_pages(1);
        for threads in [1, 2, 5] {
            assert_eq!(page_chunks(rows, threads).len(), threads);
            let Ok(ram) = kernel_answers(threads, [&d[0], &d[1]], rows);
            assert_eq!(ram, expected, "in-RAM, threads={threads}");
            let spilled = kernel_answers(
                threads,
                [
                    PagedSource::new(&paged[0], &pool),
                    PagedSource::new(&paged[1], &pool),
                ],
                rows,
            )
            .unwrap();
            assert_eq!(spilled, expected, "spilled, threads={threads}");
        }
        assert!(pool.stats().evictions > 0, "a one-page pool must churn");
    }
}
