//! Word-parallel kernels for the probe and intersection hot loops, with
//! runtime-dispatched SIMD backends.
//!
//! RAMBO's query path (Algorithm 2) is dominated by row-AND passes over
//! `η·|terms|` Bloom rows per table, plus the `K`-bit bitmap intersection
//! across repetitions. The loops here are written in the shape LLVM's
//! auto-vectorizer reliably turns into SIMD: four `u64` lanes per iteration,
//! no early exits inside the unrolled body, all slices pre-trimmed to one
//! length so bounds checks hoist out. [`and_rows_into_any`] additionally
//! fuses up to `N` probed rows into a *single* pass over the destination
//! mask — `N + 2` streams instead of `3N` — which is where the measured win
//! over the row-at-a-time baseline comes from (`query_direct` and the
//! `bitvec.kernel.and_rows_ns_per_word` trace metric of the `benchmark/`
//! package measure it). The same trick is what makes the bit-sliced
//! COBS/Bloofi baselines fast; here it is applied across buckets instead of
//! documents.
//! [`and_gather_rows_into_any`] runs that fused body over a whole list of
//! rows named by their offsets in one row-major matrix — the entire probe of
//! one repetition in a single dispatched call.
//!
//! Liveness (`-> bool`: "does any bit survive?") is accumulated for free in
//! the unrolled body, so callers can stop probing the moment a running mask
//! goes all-zero without a separate scan.
//!
//! # Backend dispatch
//!
//! Each kernel exists in two compilations, named by [`Backend`]:
//!
//! * [`Backend::Scalar`] — the portable bodies, compiled at the crate's
//!   baseline target (SSE2 on x86-64, whatever the target spec grants
//!   elsewhere). LLVM auto-vectorizes them; this is the fallback that runs
//!   anywhere.
//! * [`Backend::Avx2`] — the same entry points compiled under
//!   `#[target_feature(enable = "avx2,popcnt")]`: the fused row-AND is
//!   written directly against the 256-bit intrinsics, the rest are the
//!   portable bodies recompiled so LLVM emits 256-bit ops and real
//!   `popcnt`. Only selectable after `is_x86_feature_detected!` confirms
//!   the CPU supports it.
//!
//! The free functions ([`and_rows_into_any`], [`and_gather_rows_into_any`],
//! [`or_into`], [`popcount`], [`any`]) and [`ColumnCounter::new`] dispatch
//! through the process-wide selection ([`Kernel::auto`]): detected once on
//! first use.
//! Every `BitVec` boolean op, every BFU-matrix probe and every column fill
//! therefore picks up the best available backend with no API change.
//! [`Kernel::forced`] pins a specific backend for the bit-identity property
//! tests (`tests/prop.rs` proves every backend equal to scalar on fuzzed
//! geometries).
//!
//! Unsafe policy: the AVX2 variants are the crate's only unsafe code besides
//! the zero-copy word cast (see `store::cast_words`); each `unsafe` block is
//! scoped to one pointer pass or one guarded `target_feature` call and
//! carries its safety argument inline (summarized in DESIGN.md).

use std::fmt;
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

/// One compiled implementation of the kernel entry points.
///
/// See the [module docs](self) for what each backend compiles to and how the
/// process-wide selection works.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable unrolled loops compiled at the crate's baseline target —
    /// auto-vectorized by LLVM, runs on every host. The reference
    /// implementation: every other backend is property-tested bit-identical
    /// to it.
    Scalar,
    /// 256-bit AVX2 compilations (`#[target_feature(enable = "avx2,popcnt")]`),
    /// selectable only where `is_x86_feature_detected!` confirms support.
    Avx2,
}

impl Backend {
    /// Every backend this build knows about, whether or not the current CPU
    /// supports it (filter with [`Backend::is_supported`]).
    pub const ALL: [Backend; 2] = [Backend::Scalar, Backend::Avx2];

    /// Can this backend run on the current CPU?
    ///
    /// [`Backend::Scalar`] is always supported; [`Backend::Avx2`] requires a
    /// runtime `is_x86_feature_detected!` check for AVX2 and POPCNT (the
    /// popcount kernel is compiled with both enabled).
    #[must_use]
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("popcnt")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 => false,
        }
    }

    /// The best supported backend on this host: AVX2 where the CPU has it,
    /// otherwise the portable scalar fallback (silently — a host without
    /// AVX2 runs the same API at baseline speed).
    #[must_use]
    pub fn detect() -> Self {
        if Backend::Avx2.is_supported() {
            Backend::Avx2
        } else {
            Backend::Scalar
        }
    }

    /// Stable lower-case name (`"scalar"`, `"avx2"`), as [`fmt::Display`]
    /// prints it.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from [`Kernel::forced`]: the requested backend cannot run on this
/// CPU (e.g. [`Backend::Avx2`] on a host without AVX2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedBackend {
    backend: Backend,
}

impl UnsupportedBackend {
    /// The backend that was requested but is unavailable here.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
    }
}

impl fmt::Display for UnsupportedBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel backend {} is not supported on this CPU",
            self.backend
        )
    }
}

impl std::error::Error for UnsupportedBackend {}

/// The process-wide backend behind the free-function kernels:
/// [`Backend::detect`], resolved once on first use.
fn global_backend() -> Backend {
    static GLOBAL: OnceLock<Backend> = OnceLock::new();
    *GLOBAL.get_or_init(Backend::detect)
}

/// A dispatch handle binding the kernel entry points to one [`Backend`].
///
/// The hot paths ([`BitVec`](crate::BitVec) boolean ops, the BFU-matrix
/// probe, [`ColumnCounter`]) go through [`Kernel::auto`] — the process-wide
/// selection, so they need no plumbing. [`Kernel::forced`] pins a specific
/// backend, which is how the property tests prove the backends bit-identical.
///
/// ```
/// use rambo_bitvec::kernel::{Backend, Kernel};
///
/// let auto = Kernel::auto();
/// assert!(auto.backend().is_supported());
///
/// // Pin the portable backend (always available) and use it explicitly.
/// let scalar = Kernel::forced(Backend::Scalar).unwrap();
/// let mut mask = vec![u64::MAX; 4];
/// let row = vec![0b1010u64; 4];
/// let live = scalar.and_rows_into_any(&mut mask, [&row[..]]);
/// assert!(live && mask == row);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernel {
    backend: Backend,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::auto()
    }
}

impl Kernel {
    /// The process-wide selection: the best backend [`Backend::detect`]
    /// finds. Resolved once per process; this call is a cached atomic load
    /// afterwards.
    #[inline]
    #[must_use]
    pub fn auto() -> Self {
        Self {
            backend: global_backend(),
        }
    }

    /// Pin a specific backend (for differential tests).
    ///
    /// # Errors
    /// [`UnsupportedBackend`] when the CPU cannot run `backend` — a forced
    /// kernel never needs a runtime feature re-check afterwards, so support
    /// is verified here, exactly once.
    pub fn forced(backend: Backend) -> Result<Self, UnsupportedBackend> {
        if backend.is_supported() {
            Ok(Self { backend })
        } else {
            Err(UnsupportedBackend { backend })
        }
    }

    /// The backend this handle dispatches to.
    #[inline]
    #[must_use]
    pub const fn backend(self) -> Backend {
        self.backend
    }

    /// `dst[i] &= rows[0][i] & … & rows[N-1][i]` fused into one pass;
    /// returns `true` if any bit of `dst` remains set. See the free
    /// function [`and_rows_into_any`] for the kernel's role in the probe.
    ///
    /// # Panics
    /// Panics if any row is shorter than `dst`.
    #[inline]
    #[allow(unsafe_code)] // guarded target_feature dispatch; see SAFETY below
    pub fn and_rows_into_any<const N: usize>(self, dst: &mut [u64], rows: [&[u64]; N]) -> bool {
        match self.backend {
            Backend::Scalar => and_rows_into_any_portable(dst, rows),
            Backend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    // SAFETY: a `Kernel` holding `Backend::Avx2` is only
                    // constructed after `Backend::is_supported` confirmed
                    // AVX2+POPCNT (`auto` → `detect`, `forced` validates),
                    // so the target-feature precondition holds.
                    unsafe { avx2::and_rows_into_any(dst, rows) }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    // Unreachable (Avx2 is never supported off x86-64, so no
                    // handle can hold it); portable keeps it panic-free.
                    and_rows_into_any_portable(dst, rows)
                }
            }
        }
    }

    /// AND every listed row of `words` into `dst` in one dispatched call;
    /// returns `true` if any bit of `dst` remains set. See the free function
    /// [`and_gather_rows_into_any`].
    ///
    /// # Panics
    /// Panics if a listed row does not lie inside `words`.
    #[inline]
    #[allow(unsafe_code)] // guarded target_feature dispatch; see SAFETY below
    pub fn and_gather_rows_into_any(
        self,
        dst: &mut [u64],
        words: &[u64],
        row_offsets: &[usize],
    ) -> bool {
        match self.backend {
            Backend::Scalar => and_gather_rows_into_any_portable(dst, words, row_offsets),
            Backend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    // SAFETY: Avx2 handles exist only on CPUs that passed the
                    // `Backend::is_supported` feature check.
                    unsafe { avx2::and_gather_rows_into_any(dst, words, row_offsets) }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    and_gather_rows_into_any_portable(dst, words, row_offsets)
                }
            }
        }
    }

    /// `dst[i] |= src[i]` for every word. See [`or_into`].
    ///
    /// # Panics
    /// Panics if `src` is shorter than `dst`.
    #[inline]
    #[allow(unsafe_code)] // guarded target_feature dispatch; see SAFETY below
    pub fn or_into(self, dst: &mut [u64], src: &[u64]) {
        match self.backend {
            Backend::Scalar => or_into_portable(dst, src),
            Backend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    // SAFETY: Avx2 handles exist only on CPUs that passed the
                    // `Backend::is_supported` feature check.
                    unsafe { avx2::or_into(dst, src) }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    or_into_portable(dst, src)
                }
            }
        }
    }

    /// Total set bits. See [`popcount`].
    #[inline]
    #[must_use]
    #[allow(unsafe_code)] // guarded target_feature dispatch; see SAFETY below
    pub fn popcount(self, words: &[u64]) -> usize {
        match self.backend {
            Backend::Scalar => popcount_portable(words),
            Backend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    // SAFETY: Avx2 handles exist only on CPUs that passed the
                    // `Backend::is_supported` feature check.
                    unsafe { avx2::popcount(words) }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    popcount_portable(words)
                }
            }
        }
    }

    /// True if any bit is set. See [`any`].
    #[inline]
    #[must_use]
    #[allow(unsafe_code)] // guarded target_feature dispatch; see SAFETY below
    pub fn any(self, words: &[u64]) -> bool {
        match self.backend {
            Backend::Scalar => any_portable(words),
            Backend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    // SAFETY: Avx2 handles exist only on CPUs that passed the
                    // `Backend::is_supported` feature check.
                    unsafe { avx2::any(words) }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    any_portable(words)
                }
            }
        }
    }

    /// Ripple-carry add of one row into a [`ColumnCounter`]'s bit planes
    /// (internal: `ColumnCounter::add_row` dispatches through this).
    #[inline]
    #[allow(unsafe_code)] // guarded target_feature dispatch; see SAFETY below
    fn counter_add_row(
        self,
        width: usize,
        planes: &mut Vec<Vec<u64>>,
        scratch: &mut [u64],
        row: &[u64],
    ) {
        match self.backend {
            Backend::Scalar => counter_add_row_portable(width, planes, scratch, row),
            Backend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    // SAFETY: Avx2 handles exist only on CPUs that passed the
                    // `Backend::is_supported` feature check.
                    unsafe { avx2::counter_add_row(width, planes, scratch, row) }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    counter_add_row_portable(width, planes, scratch, row)
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatched entry points (the API the rest of the workspace calls)
// ---------------------------------------------------------------------------

/// `dst[i] &= rows[0][i] & rows[1][i] & … & rows[N-1][i]` for every word,
/// fused into one pass; returns `true` if any bit of `dst` remains set.
///
/// `N` is a compile-time constant (the probe loop uses 1, 2, 3 and 4), so
/// the inner reduction unrolls completely and the whole body vectorizes.
/// Dispatches to the process-wide [`Backend`] (see the [module docs](self));
/// use [`Kernel::forced`] to pin one explicitly.
///
/// # Panics
/// Panics if any row is shorter than `dst`.
#[inline]
pub fn and_rows_into_any<const N: usize>(dst: &mut [u64], rows: [&[u64]; N]) -> bool {
    Kernel::auto().and_rows_into_any(dst, rows)
}

/// The whole per-table probe of Algorithm 2 in one dispatched call: `words` is
/// a row-major matrix of `dst.len()`-word rows, `row_offsets` the word offset
/// of each probed row, and every listed row is ANDed into `dst`. Returns
/// `true` if any bit of `dst` remains set.
///
/// The rows go through the fused body of [`and_rows_into_any`] four at a
/// time, inlined into one compilation per [`Backend`] — one dispatch per
/// repetition instead of one per four rows. Liveness is checked after every
/// group and the walk stops at the first dead one: AND can only clear bits,
/// so the rows left unread cannot change an all-zero `dst`. A repeated offset
/// is one more idempotent AND.
///
/// # Panics
/// Panics if a listed row does not lie inside `words`.
#[inline]
pub fn and_gather_rows_into_any(dst: &mut [u64], words: &[u64], row_offsets: &[usize]) -> bool {
    Kernel::auto().and_gather_rows_into_any(dst, words, row_offsets)
}

/// Reference row-at-a-time AND (`dst &= src`), one row per pass — the
/// pre-kernel scalar baseline, kept for the bit-identity property tests.
/// Never dispatched: this is the same portable loop on every host.
///
/// # Panics
/// Panics if `src` is shorter than `dst`.
#[inline]
pub fn and_into_scalar(dst: &mut [u64], src: &[u64]) {
    let src = &src[..dst.len()];
    for (a, b) in dst.iter_mut().zip(src) {
        *a &= b;
    }
}

/// `dst[i] |= src[i]`, 4 lanes per iteration, dispatched to the process-wide
/// [`Backend`].
///
/// # Panics
/// Panics if `src` is shorter than `dst`.
#[inline]
pub fn or_into(dst: &mut [u64], src: &[u64]) {
    Kernel::auto().or_into(dst, src);
}

/// Total set bits, 4 independent accumulators per iteration (breaks the
/// popcount dependency chain so the loop pipelines), dispatched to the
/// process-wide [`Backend`].
#[must_use]
pub fn popcount(words: &[u64]) -> usize {
    Kernel::auto().popcount(words)
}

/// True if any bit is set: OR-reduce 4 lanes per iteration, checking (and
/// early-exiting) once per chunk rather than once per word. Dispatched to
/// the process-wide [`Backend`].
#[must_use]
pub fn any(words: &[u64]) -> bool {
    Kernel::auto().any(words)
}

// ---------------------------------------------------------------------------
// Portable bodies — the scalar backend, and the source LLVM recompiles for
// the target_feature variants. `#[inline(always)]` so a target_feature
// wrapper inlines the body and vectorizes it under the wider feature set.
// ---------------------------------------------------------------------------

#[inline(always)]
fn and_rows_into_any_portable<const N: usize>(dst: &mut [u64], rows: [&[u64]; N]) -> bool {
    let n = dst.len();
    let rows: [&[u64]; N] = rows.map(|r| &r[..n]);
    let mut live = 0u64;
    let mut i = 0;
    // Main loop: 4 u64 lanes per iteration, N-row reduction unrolled by the
    // const generic — auto-vectorizable under whatever features the
    // enclosing compilation enables.
    while i + 4 <= n {
        let mut w0 = dst[i];
        let mut w1 = dst[i + 1];
        let mut w2 = dst[i + 2];
        let mut w3 = dst[i + 3];
        for r in &rows {
            w0 &= r[i];
            w1 &= r[i + 1];
            w2 &= r[i + 2];
            w3 &= r[i + 3];
        }
        dst[i] = w0;
        dst[i + 1] = w1;
        dst[i + 2] = w2;
        dst[i + 3] = w3;
        live |= w0 | w1 | w2 | w3;
        i += 4;
    }
    while i < n {
        let mut w = dst[i];
        for r in &rows {
            w &= r[i];
        }
        dst[i] = w;
        live |= w;
        i += 1;
    }
    live != 0
}

#[inline(always)]
fn and_gather_rows_into_any_portable(
    dst: &mut [u64],
    words: &[u64],
    row_offsets: &[usize],
) -> bool {
    let n = dst.len();
    // The live window: every word of `dst` outside `[lo, hi)` is zero, and
    // AND cannot set a bit, so later rows are only read inside it. A probe
    // of a few hundred rows is down to a word or two after the first group;
    // the rest of each 72-byte row is traffic for nothing.
    let (mut lo, mut hi) = (0, n);
    // Each row is sliced whole first, so an offset that does not lie inside
    // `words` panics however far the window has closed.
    let row = |offset: usize, lo: usize, hi: usize| &words[offset..offset + n][lo..hi];
    let mut groups = row_offsets.chunks_exact(4);
    for g in &mut groups {
        let rows = [
            row(g[0], lo, hi),
            row(g[1], lo, hi),
            row(g[2], lo, hi),
            row(g[3], lo, hi),
        ];
        if !and_rows_into_any_portable(&mut dst[lo..hi], rows) {
            return false;
        }
        // Live, so both scans stop at a set word inside the window.
        while dst[lo] == 0 {
            lo += 1;
        }
        while dst[hi - 1] == 0 {
            hi -= 1;
        }
    }
    let dst = &mut dst[lo..hi];
    let row = |offset: usize| row(offset, lo, hi);
    match *groups.remainder() {
        [a] => and_rows_into_any_portable(dst, [row(a)]),
        [a, b] => and_rows_into_any_portable(dst, [row(a), row(b)]),
        [a, b, c] => and_rows_into_any_portable(dst, [row(a), row(b), row(c)]),
        // Every group so far left `dst` live; with no group, ask `dst`.
        _ => !row_offsets.is_empty() || any_portable(dst),
    }
}

#[inline(always)]
fn or_into_portable(dst: &mut [u64], src: &[u64]) {
    let n = dst.len();
    let src = &src[..n];
    let mut i = 0;
    while i + 4 <= n {
        dst[i] |= src[i];
        dst[i + 1] |= src[i + 1];
        dst[i + 2] |= src[i + 2];
        dst[i + 3] |= src[i + 3];
        i += 4;
    }
    while i < n {
        dst[i] |= src[i];
        i += 1;
    }
}

#[inline(always)]
fn popcount_portable(words: &[u64]) -> usize {
    let mut c0 = 0usize;
    let mut c1 = 0usize;
    let mut c2 = 0usize;
    let mut c3 = 0usize;
    let mut chunks = words.chunks_exact(4);
    for c in &mut chunks {
        c0 += c[0].count_ones() as usize;
        c1 += c[1].count_ones() as usize;
        c2 += c[2].count_ones() as usize;
        c3 += c[3].count_ones() as usize;
    }
    for &w in chunks.remainder() {
        c0 += w.count_ones() as usize;
    }
    c0 + c1 + c2 + c3
}

#[inline(always)]
fn any_portable(words: &[u64]) -> bool {
    let mut chunks = words.chunks_exact(4);
    for c in &mut chunks {
        if c[0] | c[1] | c[2] | c[3] != 0 {
            return true;
        }
    }
    chunks.remainder().iter().any(|&w| w != 0)
}

/// The [`ColumnCounter`] ripple-carry add: plane `k` gets bit `k` of every
/// column's running count via word-parallel half-adders.
#[inline(always)]
fn counter_add_row_portable(
    width: usize,
    planes: &mut Vec<Vec<u64>>,
    scratch: &mut [u64],
    row: &[u64],
) {
    scratch.copy_from_slice(row);
    let mut carry_any = row.iter().fold(0u64, |a, &w| a | w);
    let mut k = 0;
    while carry_any != 0 {
        if k == planes.len() {
            planes.push(vec![0; width]);
        }
        let plane = &mut planes[k];
        carry_any = 0;
        // Half-adder per word: sum = plane ^ x, carry = plane & x.
        let n = width;
        let mut i = 0;
        while i + 4 <= n {
            let (x0, x1, x2, x3) = (scratch[i], scratch[i + 1], scratch[i + 2], scratch[i + 3]);
            let (c0, c1, c2, c3) = (
                plane[i] & x0,
                plane[i + 1] & x1,
                plane[i + 2] & x2,
                plane[i + 3] & x3,
            );
            plane[i] ^= x0;
            plane[i + 1] ^= x1;
            plane[i + 2] ^= x2;
            plane[i + 3] ^= x3;
            scratch[i] = c0;
            scratch[i + 1] = c1;
            scratch[i + 2] = c2;
            scratch[i + 3] = c3;
            carry_any |= c0 | c1 | c2 | c3;
            i += 4;
        }
        while i < n {
            let x = scratch[i];
            let c = plane[i] & x;
            plane[i] ^= x;
            scratch[i] = c;
            carry_any |= c;
            i += 1;
        }
        k += 1;
    }
}

// ---------------------------------------------------------------------------
// AVX2 backend — the `target_feature` compilations.
// ---------------------------------------------------------------------------

/// AVX2 variants of the kernel entry points, in two flavours:
///
/// * [`and_rows_into_any`](self::avx2::and_rows_into_any) is written
///   directly against the 256-bit intrinsics: the fused row-AND is the
///   measured hot loop, so it gets explicit two-register unrolling (8 words
///   per pass) and a register liveness accumulator tested once at the end
///   instead of per word.
/// * The rest are the portable bodies recompiled under
///   `#[target_feature(enable = "avx2,popcnt")]`: the loops are already
///   shaped for vectorization, so letting LLVM emit 256-bit ops (and a real
///   `popcnt` instruction) captures the win with zero new pointer code.
///
/// Every function here is compiled for AVX2, so *calling* one from code
/// compiled at the baseline target is unsafe: the caller must have verified
/// CPU support first. [`Kernel`] is the only caller, and it establishes that
/// invariant at construction ([`Kernel::forced`] validates, [`Kernel::auto`]
/// detects) — the safety arguments live on its dispatch sites.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        _mm256_and_si256, _mm256_loadu_si256, _mm256_or_si256, _mm256_setzero_si256,
        _mm256_storeu_si256, _mm256_testz_si256,
    };

    /// Fused N-row AND over 256-bit registers; bit-identical to
    /// [`super::and_rows_into_any_portable`] (property-tested).
    #[allow(unsafe_code)] // pointer loads/stores; see the SAFETY arguments inline
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn and_rows_into_any<const N: usize>(dst: &mut [u64], rows: [&[u64]; N]) -> bool {
        let n = dst.len();
        // Same panic contract as the portable body: slicing panics when a
        // row is shorter than `dst`.
        let rows: [&[u64]; N] = rows.map(|r| &r[..n]);
        let dp: *mut u64 = dst.as_mut_ptr();
        let mut live = _mm256_setzero_si256();
        let mut i = 0;
        // Two 256-bit registers (8 words) per pass; the N-row reduction is
        // unrolled by the const generic exactly like the portable loop.
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n = dst.len()` and every row was re-sliced
            // to exactly `n` words above, so all 4-word loads/stores at
            // `i` and `i + 4` are in bounds. `loadu`/`storeu` carry no
            // alignment requirement. `dst` is a unique `&mut`, so the row
            // loads cannot alias the stores.
            unsafe {
                let mut w0 = _mm256_loadu_si256(dp.add(i).cast());
                let mut w1 = _mm256_loadu_si256(dp.add(i + 4).cast());
                for r in &rows {
                    let rp = r.as_ptr();
                    w0 = _mm256_and_si256(w0, _mm256_loadu_si256(rp.add(i).cast()));
                    w1 = _mm256_and_si256(w1, _mm256_loadu_si256(rp.add(i + 4).cast()));
                }
                _mm256_storeu_si256(dp.add(i).cast(), w0);
                _mm256_storeu_si256(dp.add(i + 4).cast(), w1);
                live = _mm256_or_si256(live, _mm256_or_si256(w0, w1));
            }
            i += 8;
        }
        // Scalar tail (< 8 words): safe indexing, no pointers.
        let mut tail_live = 0u64;
        while i < n {
            let mut w = dst[i];
            for r in &rows {
                w &= r[i];
            }
            dst[i] = w;
            tail_live |= w;
            i += 1;
        }
        tail_live != 0 || _mm256_testz_si256(live, live) == 0
    }

    /// [`super::and_gather_rows_into_any_portable`] recompiled for AVX2: the
    /// fused four-row body inlines into the gather loop and LLVM emits it as
    /// 256-bit ops, so no new pointer code is needed.
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn and_gather_rows_into_any(
        dst: &mut [u64],
        words: &[u64],
        row_offsets: &[usize],
    ) -> bool {
        super::and_gather_rows_into_any_portable(dst, words, row_offsets)
    }

    /// [`super::or_into_portable`] recompiled for AVX2.
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn or_into(dst: &mut [u64], src: &[u64]) {
        super::or_into_portable(dst, src);
    }

    /// [`super::popcount_portable`] recompiled for AVX2+POPCNT (the
    /// `count_ones` calls become `popcnt` instructions).
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn popcount(words: &[u64]) -> usize {
        super::popcount_portable(words)
    }

    /// [`super::any_portable`] recompiled for AVX2.
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn any(words: &[u64]) -> bool {
        super::any_portable(words)
    }

    /// [`super::counter_add_row_portable`] recompiled for AVX2 (the
    /// half-adder loop vectorizes to 256-bit AND/XOR).
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn counter_add_row(
        width: usize,
        planes: &mut Vec<Vec<u64>>,
        scratch: &mut [u64],
        row: &[u64],
    ) {
        super::counter_add_row_portable(width, planes, scratch, row);
    }
}

// ---------------------------------------------------------------------------
// Bit-sliced vertical counters
// ---------------------------------------------------------------------------

/// Bit-sliced vertical counters: per-bit-position popcounts over a sequence
/// of equal-width word rows, updated 64 columns at a time.
///
/// Plane `k` holds bit `k` of every column's running count, so adding a row
/// is a word-parallel ripple-carry add — the same bit-sliced trick COBS uses
/// for its document rows, applied here to the `m × B` BFU matrix to compute
/// all `B` column fills in one sequential pass (no per-set-bit extraction).
/// Each add touches `O(carry depth)` planes, amortized ~2 passes per row.
///
/// The adds run through the counter's [`Kernel`] ([`ColumnCounter::new`]
/// uses the process-wide selection; [`ColumnCounter::with_kernel`] pins one).
#[derive(Debug)]
pub struct ColumnCounter {
    width: usize,
    /// `planes[k][w]`: bit `k` of the count of column `w·64 + b`, sliced
    /// across bit `b` of the word.
    planes: Vec<Vec<u64>>,
    /// Carries still propagating while adding one row.
    scratch: Vec<u64>,
    /// Backend the adds dispatch through.
    kernel: Kernel,
}

impl ColumnCounter {
    /// Counters for rows of `width` words (`width · 64` columns), using the
    /// process-wide kernel backend.
    #[must_use]
    pub fn new(width: usize) -> Self {
        Self::with_kernel(width, Kernel::auto())
    }

    /// [`ColumnCounter::new`] with an explicitly pinned [`Kernel`] (for
    /// benchmarking and differential tests).
    #[must_use]
    pub fn with_kernel(width: usize, kernel: Kernel) -> Self {
        Self {
            width,
            planes: Vec::new(),
            scratch: vec![0; width],
            kernel,
        }
    }

    /// Add one row: column `c`'s counter increments iff bit `c` of the row
    /// is set.
    ///
    /// # Panics
    /// Panics if `row.len() != width`.
    pub fn add_row(&mut self, row: &[u64]) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        self.kernel
            .counter_add_row(self.width, &mut self.planes, &mut self.scratch, row);
    }

    /// Add every `width`-word row of the row-major slice `rows`.
    ///
    /// Eight rows at a time go through a carry-save adder tree first: per
    /// word, seven word-wide adders compress the eight input bits of each
    /// column into one 4-bit number, and only that number ripples into the
    /// planes — about a quarter of the word operations of eight
    /// [`ColumnCounter::add_row`] calls, whatever the rows' density. Rows
    /// left over after the last full block are added one by one.
    ///
    /// # Panics
    /// Panics if `rows.len()` is not a multiple of `width`.
    pub fn add_rows(&mut self, rows: &[u64]) {
        let width = self.width;
        if width == 0 {
            return;
        }
        assert_eq!(rows.len() % width, 0, "row width mismatch");
        // (carry, sum) of three one-bit-per-column inputs.
        let csa = |a: u64, b: u64, c: u64| ((a & b) | ((a ^ b) & c), a ^ b ^ c);
        let mut blocks = rows.chunks_exact(8 * width);
        for block in &mut blocks {
            while self.planes.len() < 4 {
                self.planes.push(vec![0; width]);
            }
            for w in 0..width {
                let r = |i: usize| block[i * width + w];
                let (twos_a, ones_a) = csa(r(0), r(1), r(2));
                let (twos_b, ones_b) = csa(r(3), r(4), r(5));
                let (twos_c, ones_c) = csa(ones_a, ones_b, r(6));
                let (twos_d, ones) = (ones_c & r(7), ones_c ^ r(7));
                let (fours_a, twos_e) = csa(twos_a, twos_b, twos_c);
                let (fours_b, twos) = (twos_e & twos_d, twos_e ^ twos_d);
                let (eights, fours) = (fours_a & fours_b, fours_a ^ fours_b);
                // Full-adder ripple of the 4-bit column sums into the low
                // planes, then the usual half-adder ripple of what is left.
                let mut carry = 0u64;
                for (plane, x) in self.planes.iter_mut().zip([ones, twos, fours, eights]) {
                    let p = plane[w];
                    plane[w] = p ^ x ^ carry;
                    carry = (p & x) | (carry & (p ^ x));
                }
                let mut k = 4;
                while carry != 0 {
                    if k == self.planes.len() {
                        self.planes.push(vec![0; width]);
                    }
                    let p = self.planes[k][w];
                    self.planes[k][w] = p ^ carry;
                    carry &= p;
                    k += 1;
                }
            }
        }
        for row in blocks.remainder().chunks_exact(width) {
            self.add_row(row);
        }
    }

    /// Zero every counter and resize for rows of `width` words, keeping the
    /// plane allocations — a counter reused across queries stops allocating
    /// once it has seen its deepest carry.
    pub fn reset(&mut self, width: usize) {
        self.width = width;
        self.scratch.clear();
        self.scratch.resize(width, 0);
        for plane in &mut self.planes {
            plane.clear();
            plane.resize(width, 0);
        }
    }

    /// Write into `out` the bitmap of columns whose count is at least
    /// `threshold`: a bit-sliced magnitude comparison walking the planes from
    /// the most significant down, 64 columns per word operation, with no
    /// per-column count materialized.
    ///
    /// # Panics
    /// Panics if `out.len() != width`.
    pub fn at_least(&self, threshold: usize, out: &mut [u64]) {
        assert_eq!(out.len(), self.width, "bitmap width mismatch");
        let depth = self.planes.len();
        // A threshold with a bit above every plane exceeds any count held.
        if depth < usize::BITS as usize && threshold >> depth != 0 {
            out.fill(0);
            return;
        }
        for (w, out_word) in out.iter_mut().enumerate() {
            // `eq`: columns equal to the threshold on the planes seen so
            // far; `gt`: columns already decided greater.
            let (mut gt, mut eq) = (0u64, u64::MAX);
            for (k, plane) in self.planes.iter().enumerate().rev() {
                if (threshold >> k) & 1 == 1 {
                    eq &= plane[w];
                } else {
                    gt |= eq & plane[w];
                }
            }
            *out_word = gt | eq;
        }
    }

    /// Materialize the per-column counts (`width · 64` entries, column
    /// order).
    #[must_use]
    pub fn counts(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.width * 64];
        for (k, plane) in self.planes.iter().enumerate() {
            for (w, &word) in plane.iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    let bit = rest.trailing_zeros() as usize;
                    out[w * 64 + bit] += 1 << k;
                    rest &= rest - 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    }

    /// Every backend the host supports (scalar always; avx2 where detected).
    fn supported() -> Vec<Kernel> {
        Backend::ALL
            .into_iter()
            .filter(|b| b.is_supported())
            .map(|b| Kernel::forced(b).unwrap())
            .collect()
    }

    #[test]
    fn fused_and_matches_sequential_scalar() {
        for kernel in supported() {
            for len in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 33, 257] {
                let r0 = pseudo(1, len);
                let r1 = pseudo(2, len);
                let r2 = pseudo(3, len);
                let r3 = pseudo(4, len);
                let base = pseudo(5, len);

                let mut expect = base.clone();
                for r in [&r0, &r1, &r2, &r3] {
                    and_into_scalar(&mut expect, r);
                }

                let mut got = base.clone();
                let live = kernel.and_rows_into_any(&mut got, [&r0[..], &r1, &r2, &r3]);
                assert_eq!(got, expect, "{} len {len}", kernel.backend());
                assert_eq!(
                    live,
                    expect.iter().any(|&w| w != 0),
                    "{} len {len}",
                    kernel.backend()
                );
            }
        }
    }

    #[test]
    fn fused_and_all_arities() {
        let len = 67;
        let rows: Vec<Vec<u64>> = (0..4).map(|s| pseudo(s + 10, len)).collect();
        let base = pseudo(99, len);
        for kernel in supported() {
            // N = 1, 2, 3 against the scalar reference.
            for n in 1..=3usize {
                let mut expect = base.clone();
                for r in rows.iter().take(n) {
                    and_into_scalar(&mut expect, r);
                }
                let mut got = base.clone();
                let live = match n {
                    1 => kernel.and_rows_into_any(&mut got, [&rows[0][..]]),
                    2 => kernel.and_rows_into_any(&mut got, [&rows[0][..], &rows[1]]),
                    _ => kernel.and_rows_into_any(&mut got, [&rows[0][..], &rows[1], &rows[2]]),
                };
                assert_eq!(got, expect, "{} N = {n}", kernel.backend());
                assert!(live);
            }
        }
    }

    #[test]
    fn fused_and_reports_death() {
        for kernel in supported() {
            let mut dst = vec![u64::MAX; 9];
            let zero = [0u64; 9];
            assert!(!kernel.and_rows_into_any(&mut dst, [&zero[..]]));
            assert!(dst.iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn popcount_and_any_match_naive() {
        for kernel in supported() {
            for len in [0usize, 1, 4, 5, 7, 8, 63, 64, 130] {
                let words = pseudo(7, len);
                let naive: usize = words.iter().map(|w| w.count_ones() as usize).sum();
                assert_eq!(
                    kernel.popcount(&words),
                    naive,
                    "{} len {len}",
                    kernel.backend()
                );
                assert_eq!(
                    kernel.any(&words),
                    naive > 0,
                    "{} len {len}",
                    kernel.backend()
                );
            }
            assert!(!kernel.any(&[0, 0, 0, 0, 0]));
            assert!(kernel.any(&[0, 0, 0, 0, 1]));
        }
    }

    #[test]
    fn or_into_matches_naive() {
        for kernel in supported() {
            let a0 = pseudo(11, 37);
            let b = pseudo(12, 37);
            let mut got = a0.clone();
            kernel.or_into(&mut got, &b);
            let expect: Vec<u64> = a0.iter().zip(&b).map(|(x, y)| x | y).collect();
            assert_eq!(got, expect, "{}", kernel.backend());
        }
    }

    #[test]
    fn column_counter_matches_naive() {
        for kernel in supported() {
            let width = 3;
            let rows: Vec<Vec<u64>> = (0..300).map(|s| pseudo(s * 7 + 1, width)).collect();
            let mut cc = ColumnCounter::with_kernel(width, kernel);
            let mut naive = vec![0usize; width * 64];
            for row in &rows {
                cc.add_row(row);
                for (w, &word) in row.iter().enumerate() {
                    for b in 0..64 {
                        naive[w * 64 + b] += ((word >> b) & 1) as usize;
                    }
                }
            }
            assert_eq!(cc.counts(), naive, "{}", kernel.backend());
        }
    }

    #[test]
    fn column_counter_empty_and_sparse() {
        let mut cc = ColumnCounter::new(2);
        assert_eq!(cc.counts(), vec![0; 128]);
        cc.add_row(&[0, 0]);
        cc.add_row(&[1, 1 << 63]);
        let counts = cc.counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[127], 1);
        assert_eq!(counts.iter().sum::<usize>(), 2);
    }

    #[test]
    fn backend_names_roundtrip() {
        for b in Backend::ALL {
            assert_eq!(format!("{b}"), b.name());
        }
    }

    #[test]
    fn scalar_backend_always_available() {
        assert!(Backend::Scalar.is_supported());
        assert_eq!(
            Kernel::forced(Backend::Scalar).unwrap().backend(),
            Backend::Scalar
        );
    }

    #[test]
    fn detection_returns_a_supported_backend() {
        assert!(Backend::detect().is_supported());
        assert!(Kernel::auto().backend().is_supported());
        assert_eq!(Kernel::default(), Kernel::auto());
    }

    #[test]
    fn forced_unsupported_backend_errors() {
        for b in Backend::ALL {
            match Kernel::forced(b) {
                Ok(k) => assert!(k.backend().is_supported()),
                Err(e) => {
                    assert!(!b.is_supported());
                    assert_eq!(e.backend(), b);
                    assert!(e.to_string().contains(b.name()));
                }
            }
        }
    }

    /// The free functions dispatch to the process-wide backend and must
    /// agree with the pinned scalar kernel on the same inputs.
    #[test]
    fn free_functions_match_forced_scalar() {
        let scalar = Kernel::forced(Backend::Scalar).unwrap();
        for len in [0usize, 5, 8, 64, 100] {
            let a = pseudo(21, len);
            let b = pseudo(22, len);

            let mut d1 = a.clone();
            let mut d2 = a.clone();
            let l1 = and_rows_into_any(&mut d1, [&b[..]]);
            let l2 = scalar.and_rows_into_any(&mut d2, [&b[..]]);
            assert_eq!((d1, l1), (d2, l2), "len {len}");

            let mut o1 = a.clone();
            let mut o2 = a.clone();
            or_into(&mut o1, &b);
            scalar.or_into(&mut o2, &b);
            assert_eq!(o1, o2, "len {len}");

            assert_eq!(popcount(&a), scalar.popcount(&a), "len {len}");
            assert_eq!(any(&a), scalar.any(&a), "len {len}");
        }
    }
}
