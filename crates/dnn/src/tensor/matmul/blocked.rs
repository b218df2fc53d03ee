//! Cache-blocked, packed, multithreaded GEMM core.
//!
//! One strided kernel serves all three public matmul variants: the
//! transposed forms differ only in the row/column strides used when
//! *packing*, never in the compute loops. The structure is the classic
//! three-level tiling (BLIS-style, scaled down for `f32` on commodity
//! CPUs):
//!
//! - The output is computed in `MC × NC` blocks over `KC`-deep slices of
//!   the inner dimension, sized so one packed A block (`MC·KC` floats) and
//!   one packed B block (`KC·NC` floats) stay cache-resident.
//! - Within a block, panels of `MR` A-rows and `NR` B-columns are packed
//!   contiguously and zero-padded to full panel width, so the microkernel
//!   is branch-free and every load is unit-stride.
//! - The microkernel keeps an `MR × NR` accumulator in registers and walks
//!   the panels with a fully unrolled multiply-add body.
//!
//! There is one loop nest (`gemm_serial`) and one pair of packers, generic
//! over `(MR, NR, MC, NC)` and the [`MicroKernel`] they call; `tiled` plugs
//! in the tile of the resolved [`Kernel`]:
//!
//! | kernel | tile | `MC × NC` | microkernel |
//! |---|---|---|---|
//! | `Scalar` | 2×16 | 64 × 256 | `micro_2x16`, autovectorized (NR = 16 is four SSE lanes — the best-measured shape on the baseline `x86-64` target, where wider rows beat taller tiles) |
//! | `Avx2` | 6×16 | 72 × 256 | [`simd::micro_6x16`], `ymm` FMAs |
//! | `Avx512` | 12×32 | 120 × 512 | [`simd::micro_12x32`], `zmm` FMAs |
//!
//! `KC` is one constant for all of them. A C element is the sum, slice by
//! slice, of one in-order multiply-add chain per `KC`-deep slice, so tiles
//! that cut `k` at the same places and fuse their multiply-adds round the
//! same way: the two SIMD tiles agree to the bit ([`simd`] has the
//! argument), and `MR`, `NR`, `MC` and `NC` are free to differ.
//!
//! With `acc = false` the first slice is *stored* where later ones add, as
//! `0 + sum`: the bits clearing C and then adding would give, a −0 sum
//! landing as +0 included, without the clearing pass. The unpacked nests
//! store their first term the same way, so on every path `acc = false` is
//! `acc = true` onto a zeroed C.
//!
//! Packing buffers come from the thread-local [`scratch`] arena, so a
//! steady-state training loop performs no kernel allocations at all.
//!
//! Threading partitions output *rows* into `MR`-aligned chunks, one per
//! thread from the current budget (see [`threads`]): row partitions touch
//! disjoint C regions and disjoint A rows, and only share read-only B. Each
//! worker packs its own panels from its own arena, so no synchronization
//! beyond the final join is needed.
//!
//! The kernel is resolved **once** per [`gemm_strided`] call on the calling
//! thread (widest tile the CPU has, unless `CANNIKIN_SIMD` or a
//! [`KernelGuard`](super::simd::KernelGuard) says otherwise) and passed
//! into the row workers by value, so an override governs the whole
//! operation.
//!
//! Packing pays only when the packed operand is reused. Two kinds of
//! product cannot amortise it and take [`unpacked`] instead, two loop nests
//! that read each operand in place and the big one exactly once: anything
//! of at most `SMALL_WORK` multiply-adds, and any *skinny* product — C of
//! at most `SKINNY_ROWS` rows (`A·B`, `A·Bᵀ`) or a sum of at most
//! `SKINNY_DEPTH` terms (`Aᵀ·B`) over runs of at least `MIN_RUN` floats —
//! which is what a slow rank's one- or two-sample batch makes of every
//! layer. The choice reads `(m, n, k)` and the strides, nothing else, and
//! the nests are compiled twice, for the baseline target and for AVX2+FMA,
//! so a kernel override governs them too (`Avx512` runs the AVX2 build:
//! skinny products keep one set of SIMD bits); they run on the calling
//! thread and take nothing from [`scratch`].
//!
//! Above those rows, up to `IN_PLACE_ROWS` — the fast rank's share of a
//! small batch — the tiles win but packing the big operand does not pay:
//! the tiles read it where it lies and only the small one is packed
//! ([`Layout`]). Where B's rows are contiguous (`A·B`, `Aᵀ·B`), the
//! tile's vector side walks them at B's row stride. Where B's columns are
//! (`A·Bᵀ`, a layer's `g·Wᵀ`), the product is computed as its transpose
//! `Cᵀ = B·Aᵀ`: W's contiguous rows feed the broadcast side and C is
//! written down its columns. A tile's sum does not depend on where its
//! operands lie — each C element is still one in-order multiply-add chain
//! per `KC` slice, added to C slice by slice, and a product of two floats
//! is the same whichever is broadcast — so each tile family gives the bits
//! of its own packed path. Only whole panels are read in place; the
//! partial edge panel is packed and zero-padded as before.
//!
//! A wide tile pays for width it does not use: at a vector side of
//! `≤ 16` columns — C's columns, or its rows when transposed; a classifier
//! head — the 32-wide tile would pad every panel to twice the live
//! columns, so under `Avx512` the blocked core runs the 16-wide AVX2 tile
//! there instead (measured at m = 346, this rule on → off: 512→10 `A·B`
//! 166 → 193 µs and `Aᵀ·B` 174 → 193 µs, 1024→10 330 → 403 µs and
//! 377 → 435 µs). The choice reads the shape alone, and the bits are the
//! same either way.

use super::simd::{self, Kernel};
#[cfg(target_arch = "x86_64")]
use super::simd::{micro_12x32, micro_6x16};
use crate::tensor::{scratch, threads};

/// Scalar microkernel rows (panel height of packed A).
pub(super) const MR: usize = 2;
/// Scalar microkernel columns (panel width of packed B).
const NR: usize = 16;
/// Rows of A the scalar tile packs per cache block (multiple of `MR`).
const MC: usize = 64;
/// Columns of B the scalar tile packs per cache block (multiple of `NR`).
const NC: usize = 256;
/// Depth of the packed inner-dimension slice, shared by every tile: the
/// slices are where a C element's sum is cut into separately rounded
/// pieces, so one `KC` is what makes the two SIMD tiles bit-identical.
const KC: usize = 256;
/// Widest vector side the AVX-512 kernel hands to the 16-wide tile instead
/// (see the module note).
const NARROW: usize = simd::AVX2_NR;

/// Below this `m·n·k`, skip blocking/packing entirely.
const SMALL_WORK: usize = 16 * 1024;
/// Most rows of C (`A·B`, `A·Bᵀ`) the unpacked path takes whatever the
/// total work. Measured (CHANGES.md, PR 20): at 8 rows it is 1.1–2.7× the
/// packed path at every width from 128 to 4096; at 12 `A·B` ties on a
/// 1024×1024 operand and `A·Bᵀ` loses on a 128-long one; at 16 `A·B`
/// loses there and by 24 both lose everywhere.
const SKINNY_ROWS: usize = 8;
/// The same for the summed dimension of `Aᵀ·B`, a rank-`k` update. It
/// gives way sooner because the packed path streams C once too and only
/// pays for its `kc = k` tile: at 4 ahead on operands of 512×512 and
/// larger and level on 128×512; behind from 6 on 128×512 and 512×512,
/// from 12 on 1024×1024.
const SKINNY_DEPTH: usize = 4;
/// Shortest contiguous run (`n`, or `k` for `A·Bᵀ`) the skinny rule
/// applies to. The nests vectorise along it; under ~128 floats the per-row
/// loop overhead and the dot's lane fold cost more than packing a B that
/// small, and the packed path is up to 3× ahead (a 1024→10 head, say).
const MIN_RUN: usize = 128;
/// Most rows of C the tiles take with the big operand read in place, from
/// `SKINNY_ROWS + 1` on (see [`Layout`]). Measured (CHANGES.md) on
/// 1024×1024, 256×1024 and 512×512 operands, one thread: in place, the
/// SIMD tiles are 1.2–6× their packed path at every row count up to 64 and
/// every product; at 96 the 12×32 tile's transposed `A·Bᵀ` falls behind
/// (0.93–0.96). The scalar tile, whose packed path costs the least to
/// skip, is level at 64 (0.81–1.15) and 1.2–1.8× ahead up to 16.
const IN_PLACE_ROWS: usize = 64;
/// Minimum `m·n·k` assigned to each additional thread.
const WORK_PER_THREAD: usize = 128 * 1024;

/// `C += A · B` where `A` is a logical `[m, k]` matrix with element
/// `(i, p)` at `a[i·a_rs + p·a_cs]`, `B` a logical `[k, n]` matrix with
/// element `(p, j)` at `b[p·b_rs + j·b_cs]`, and `C` row-major `[m, n]`.
///
/// Callers zero `C` first for a plain product. Dispatches between the
/// unpacked path, the serial blocked path, and row-partitioned
/// threading based on problem shape and the current thread budget.
#[allow(clippy::too_many_arguments)]
pub(super) fn gemm_strided(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
    c: &mut [f32],
) {
    gemm_strided_acc(m, n, k, a, a_rs, a_cs, b, b_rs, b_cs, c, true);
}

/// [`gemm_strided`] with the choice its callers' `acc` flag makes:
/// `C = A · B` when `acc` is false, whatever `C` held — bit for bit what
/// zeroing `C` and accumulating gives (see the module note).
#[allow(clippy::too_many_arguments)]
pub(super) fn gemm_strided_acc(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
    c: &mut [f32],
    acc: bool,
) {
    debug_assert_eq!(c.len(), m * n, "gemm output length");
    let work = m * n * k;
    if work == 0 {
        if !acc {
            c.fill(0.0); // an empty sum
        }
        return;
    }
    // Resolve the kernel once, here, so the calling thread's override (if
    // any) also governs the spawned row workers below.
    let kernel = simd::active_kernel();
    // The unpacked nests walk B by contiguous rows, or for `A·Bᵀ` walk A's
    // rows against B's contiguous columns. What the layers keep small is
    // the batch: C's rows, or for `Aᵀ·B` (A walked down its columns) the
    // summed dimension. `run` is the length the nest vectorises along.
    let dots = b_cs != 1;
    let walkable = !dots || (a_cs == 1 && b_rs == 1);
    let (batch, limit, run) = match (dots, a_rs == 1) {
        (true, _) => (m, SKINNY_ROWS, k),
        (false, true) => (k, SKINNY_DEPTH, n),
        (false, false) => (m, SKINNY_ROWS, n),
    };
    if walkable && (work <= SMALL_WORK || (batch <= limit && run >= MIN_RUN)) {
        match kernel {
            Kernel::Scalar => unpacked::<false>(m, n, k, a, a_rs, a_cs, b, b_rs, b_cs, c, acc),
            // SAFETY: both SIMD kernels are only resolved when
            // `avx2_available()` reported `avx2` and `fma`.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 | Kernel::Avx512 => unsafe {
                simd::unpacked_avx2(m, n, k, a, a_rs, a_cs, b, b_rs, b_cs, c, acc)
            },
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 | Kernel::Avx512 => unreachable!("SIMD kernel resolved on a non-x86_64 target"),
        }
        return;
    }
    let layout = Layout::of(m, b_rs, b_cs);
    let width = if layout == Layout::Transposed { m } else { n };
    let kernel = if kernel == Kernel::Avx512 && width <= NARROW { Kernel::Avx2 } else { kernel };
    let mr = kernel.mr();
    let t = threads::effective_threads().min(m.div_ceil(mr)).min(1 + work / WORK_PER_THREAD);
    if t <= 1 {
        tiled(kernel, layout, m, n, k, a, a_rs, a_cs, b, b_rs, b_cs, c, acc);
        return;
    }
    // mr-aligned row chunks, one per thread; the spawning thread takes the
    // last chunk itself so it works instead of blocking on the join.
    let chunk_rows = m.div_ceil(t).next_multiple_of(mr);
    std::thread::scope(|s| {
        let mut rest = c;
        let mut i0 = 0;
        while i0 < m {
            let rows = chunk_rows.min(m - i0);
            let (chunk, tail) = rest.split_at_mut(rows * n);
            rest = tail;
            let a_chunk = &a[i0 * a_rs..];
            if i0 + rows >= m {
                tiled(kernel, layout, rows, n, k, a_chunk, a_rs, a_cs, b, b_rs, b_cs, chunk, acc);
            } else {
                s.spawn(move || tiled(kernel, layout, rows, n, k, a_chunk, a_rs, a_cs, b, b_rs, b_cs, chunk, acc));
            }
            i0 += rows;
        }
    });
}

/// Which operand the blocked core reads where it lies instead of
/// packing. The choice reads C's row count and B's strides, nothing else;
/// every layout gives the same bits per tile family (see the module note).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Both operands packed into panels.
    Packed,
    /// B's contiguous rows feed the vector side in place; A is packed.
    BRows,
    /// `Cᵀ = B·Aᵀ`: B's contiguous columns feed the broadcast side in
    /// place, Aᵀ is packed, and C is written down its columns.
    Transposed,
}

impl Layout {
    /// The layout of a product with `m` rows of C and B's element `(p, j)`
    /// at `p·b_rs + j·b_cs`: in place from `SKINNY_ROWS + 1` to
    /// `IN_PLACE_ROWS` rows when one of B's strides is 1, packed otherwise.
    fn of(m: usize, b_rs: usize, b_cs: usize) -> Layout {
        match (SKINNY_ROWS < m && m <= IN_PLACE_ROWS, b_cs == 1, b_rs == 1) {
            (true, true, _) => Layout::BRows,
            (true, false, true) => Layout::Transposed,
            _ => Layout::Packed,
        }
    }
}

/// Accumulators a dot product is split over: four `ymm` registers' worth,
/// enough independent chains to cover the multiply-add latency.
const DOT_LANES: usize = 32;

/// `a·b + c`, fused when the caller was compiled with FMA. The unfused
/// form is spelled out because `f32::mul_add` without the `fma` target
/// feature is a libm call.
#[inline(always)]
fn madd<const FMA: bool>(a: f32, b: f32, c: f32) -> f32 {
    if FMA {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// `crow (+)= av · brow`, storing `av · brow + 0` when `acc` is false.
#[inline(always)]
fn axpy<const FMA: bool>(crow: &mut [f32], av: f32, brow: &[f32], acc: bool) {
    if acc {
        for (cv, &bv) in crow.iter_mut().zip(brow) {
            *cv = madd::<FMA>(av, bv, *cv);
        }
    } else {
        for (cv, &bv) in crow.iter_mut().zip(brow) {
            *cv = madd::<FMA>(av, bv, 0.0);
        }
    }
}

/// Pairwise fold of the partial sums of [`dot`]. Deliberately out of line:
/// inlined, this tree is what LLVM's SLP vectoriser starts from, and it
/// narrows the accumulate loop in `dot` to two-float vectors to match
/// (measured: a 1024-long dot 3× slower). Being one function, it also folds
/// in the same order whichever kernel calls it.
#[inline(never)]
fn fold_lanes(mut lanes: [f32; DOT_LANES]) -> f32 {
    let mut width = DOT_LANES / 2;
    while width > 0 {
        let (lo, hi) = lanes.split_at_mut(width);
        for (l, &h) in lo.iter_mut().zip(&hi[..width]) {
            *l += h;
        }
        width /= 2;
    }
    lanes[0]
}

/// `Σ x[p]·y[p]` over [`DOT_LANES`] interleaved partial sums, folded
/// pairwise, then the sub-lane tail in order. The lane split is fixed
/// here, not by the vector width, so both kernels sum in the same order;
/// operands shorter than the lane count sum strictly in order.
#[inline(always)]
fn dot<const FMA: bool>(x: &[f32], y: &[f32]) -> f32 {
    let (xc, yc) = (x.chunks_exact(DOT_LANES), y.chunks_exact(DOT_LANES));
    let (xt, yt) = (xc.remainder(), yc.remainder());
    let mut sum = 0.0;
    if x.len() >= DOT_LANES {
        let mut lanes = [0.0f32; DOT_LANES];
        for (xs, ys) in xc.zip(yc) {
            for ((lane, &xv), &yv) in lanes.iter_mut().zip(xs).zip(ys) {
                *lane = madd::<FMA>(xv, yv, *lane);
            }
        }
        sum = fold_lanes(lanes);
    }
    for (&xv, &yv) in xt.iter().zip(yt) {
        sum = madd::<FMA>(xv, yv, sum);
    }
    sum
}

/// The product without packing, for operands that cannot amortise it:
/// everything under `SMALL_WORK` and every skinny shape (see the module
/// note). Each nest reads the big operand once, in memory order.
///
/// Written once and compiled twice: as is for [`Kernel::Scalar`], and
/// inlined into `simd::unpacked_avx2` where the same loops vectorise
/// to `ymm` width with fused multiply-adds — hence `inline(always)` here
/// and on everything it calls, and no closures, which would keep the
/// baseline target features.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(super) fn unpacked<const FMA: bool>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
    c: &mut [f32],
    acc: bool,
) {
    if b_cs == 1 {
        // B rows are contiguous: row axpys, the longer of the two outer
        // loops outermost. A skinny `A·B` walks `p → i → j` (C's few rows
        // stay in L1, B streams through once); a skinny `Aᵀ·B` walks
        // `i → p → j` (B's few rows stay, C streams through once). Either
        // way each C element sums its terms in `p` order.
        if m <= k {
            for p in 0..k {
                let brow = &b[p * b_rs..][..n];
                for i in 0..m {
                    axpy::<FMA>(&mut c[i * n..][..n], a[i * a_rs + p * a_cs], brow, acc || p > 0);
                }
            }
        } else {
            for i in 0..m {
                let crow = &mut c[i * n..][..n];
                for p in 0..k {
                    axpy::<FMA>(crow, a[i * a_rs + p * a_cs], &b[p * b_rs..][..n], acc || p > 0);
                }
            }
        }
    } else {
        // `A·Bᵀ`: rows of A against the contiguous columns of B, each
        // column read once for all of A's rows.
        for j in 0..n {
            let bcol = &b[j * b_cs..][..k];
            for i in 0..m {
                let sum = dot::<FMA>(&a[i * a_rs..][..k], bcol);
                let cv = &mut c[i * n + j];
                *cv = if acc { *cv } else { 0.0 } + sum;
            }
        }
    }
}

/// One register-tile call: `kc` steps of `C(r, j) += Σ A(r, kk)·B(kk, j)`
/// over the live `mr × nr` corner of an `MR × NR` tile. Read in place, A's
/// `(r, kk)` lies at `a[r·a_rs + kk]` and B's `(kk, j)` at `b[kk·ldb + j]`;
/// a packed panel is read at its own strides, `kk·MR + r` or `kk·NR + j`,
/// whatever these say. C's `(r, j)` lies at `c[r·c_rs + j·c_cs]`. With
/// `store` the sum is written as `0 + sum` instead of added: the first
/// slice of an `acc = false` product.
#[derive(Debug, Clone, Copy)]
pub(super) struct Tile {
    pub(super) kc: usize,
    pub(super) mr: usize,
    pub(super) nr: usize,
    pub(super) a_rs: usize,
    pub(super) ldb: usize,
    pub(super) c_rs: usize,
    pub(super) c_cs: usize,
    pub(super) store: bool,
}

impl Tile {
    /// A's `(row, column)` strides: along its rows when read in place,
    /// else the packed panel's.
    #[inline(always)]
    pub(super) fn a_strides<const IN_PLACE: bool, const MR: usize>(&self) -> (usize, usize) {
        if IN_PLACE {
            (self.a_rs, 1)
        } else {
            (1, MR)
        }
    }

    /// B's row stride: its own when read in place, else the packed panel's.
    #[inline(always)]
    pub(super) fn b_stride<const IN_PLACE: bool, const NR: usize>(&self) -> usize {
        if IN_PLACE {
            self.ldb
        } else {
            NR
        }
    }

    /// `*c = c + sum`, or `0 + sum` under `store` — clearing, then adding.
    #[inline(always)]
    pub(super) fn put(&self, c: &mut f32, sum: f32) {
        *c = if self.store { 0.0 } else { *c } + sum;
    }
}

/// A register tile over the operands one [`Tile`] describes, the first
/// element of each at the start of its slice. `unsafe` only for the
/// target features the SIMD tiles are compiled with: a tile is called only
/// under the [`Kernel`] that names it, which is only resolved where the
/// CPU has them. Each tile is instantiated as `<A_IN_PLACE, B_IN_PLACE>`:
/// `<false, false>` for two packed panels, and one more per in-place
/// [`Layout`], so a stride only the in-place reads need is a constant in
/// the packed loop.
pub(super) type MicroKernel = unsafe fn(t: &Tile, a: &[f32], b: &[f32], c: &mut [f32]);

/// One operand of the blocked core: element `(i, j)` at
/// `data[i·rs + j·cs]`, and whether its whole panels are read where they
/// lie — along rows, so `cs == 1` — instead of packed.
#[derive(Debug, Clone, Copy)]
struct Operand<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
    in_place: bool,
}

impl<'a> Operand<'a> {
    fn new(data: &'a [f32], rs: usize, cs: usize, in_place: bool) -> Self {
        assert!(!in_place || cs == 1, "an operand read in place is walked along its rows");
        Operand { data, rs, cs, in_place }
    }
}

/// Single-threaded blocked GEMM over the full `[m, n]` output: the one
/// loop nest, instantiated with the register tile and block sizes of the
/// resolved [`Kernel`] and what `layout` reads in place.
#[allow(clippy::too_many_arguments)]
fn tiled(
    kernel: Kernel,
    layout: Layout,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
    c: &mut [f32],
    acc: bool,
) {
    // The problem the loop nest solves: `Cᵀ = B·Aᵀ` when transposed, B's
    // columns then being the broadcast side's rows and C written down its
    // columns.
    let (m, n, a, b, c_strides) = match layout {
        Layout::Packed => (m, n, Operand::new(a, a_rs, a_cs, false), Operand::new(b, b_rs, b_cs, false), (n, 1)),
        Layout::BRows => (m, n, Operand::new(a, a_rs, a_cs, false), Operand::new(b, b_rs, b_cs, true), (n, 1)),
        Layout::Transposed => (n, m, Operand::new(b, b_cs, b_rs, true), Operand::new(a, a_cs, a_rs, false), (1, n)),
    };
    // One instantiation of the driver per tile: its microkernel, then
    // `MR, NR, MC, NC`.
    macro_rules! tile {
        ($micro:ident, $mr:expr, $nr:expr, $mc:expr, $nc:expr) => {{
            let in_place: MicroKernel = match layout {
                Layout::Packed => $micro::<false, false>,
                Layout::BRows => $micro::<false, true>,
                Layout::Transposed => $micro::<true, false>,
            };
            let micros = ($micro::<false, false> as MicroKernel, in_place);
            gemm_serial::<{ $mr }, { $nr }, { $mc }, { $nc }>(micros, m, n, k, a, b, c, c_strides, acc)
        }};
    }
    match kernel {
        Kernel::Scalar => tile!(micro_2x16, MR, NR, MC, NC),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => tile!(micro_6x16, simd::AVX2_MR, simd::AVX2_NR, simd::AVX2_MC, simd::AVX2_NC),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 => {
            tile!(micro_12x32, simd::AVX512_MR, simd::AVX512_NR, simd::AVX512_MC, simd::AVX512_NC)
        }
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 | Kernel::Avx512 => unreachable!("SIMD kernel resolved on a non-x86_64 target"),
    }
}

/// The `jc → pc → ic` loop nest over `MC × NC` blocks of C and `KC`-deep
/// slices, for any `MR × NR` register tile, with C's `(i, j)` at
/// `c[i·c_rs + j·c_cs]`. Within a block the tile walks B's panels, then
/// A's. A whole panel of an in-place operand is read where it lies, by the
/// `in_place` tile; the rest — all of a packed operand, the partial edge
/// of an in-place one — is packed and read by the `packed` tile.
///
/// Never inlined: each tile's nest (packers inlined into it) is then
/// optimised as a function of its own. Folded together into `tiled`, the
/// three nests shared one register allocation and the 6×16 one came out
/// 5 % slower than it was alone (`Aᵀ·B`, 1024→10, m = 346).
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn gemm_serial<const MR: usize, const NR: usize, const MC: usize, const NC: usize>(
    (packed, in_place): (MicroKernel, MicroKernel),
    m: usize,
    n: usize,
    k: usize,
    a: Operand<'_>,
    b: Operand<'_>,
    c: &mut [f32],
    (c_rs, c_cs): (usize, usize),
    acc: bool,
) {
    const { assert!(MC.is_multiple_of(MR) && NC.is_multiple_of(NR), "cache blocks hold whole panels") };
    let mut apack = scratch::take(MC * KC);
    let mut bpack = scratch::take(KC * NC);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let b_whole = if b.in_place { nc / NR } else { 0 };
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b_panels::<NR>(bpack.as_mut_slice(), b, pc, jc + b_whole * NR, kc, nc - b_whole * NR);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                let a_whole = if a.in_place { mc / MR } else { 0 };
                pack_a_panels::<MR>(apack.as_mut_slice(), a, ic + a_whole * MR, pc, kc, mc - a_whole * MR);
                for q in 0..nc.div_ceil(NR) {
                    let bp = match q.checked_sub(b_whole) {
                        None => &b.data[pc * b.rs + jc + q * NR..],
                        Some(q) => &bpack[q * kc * NR..][..kc * NR],
                    };
                    for p in 0..mc.div_ceil(MR) {
                        let ap = match p.checked_sub(a_whole) {
                            None => &a.data[(ic + p * MR) * a.rs + pc..],
                            Some(p) => &apack[p * kc * MR..][..kc * MR],
                        };
                        let micro = if p < a_whole || q < b_whole { in_place } else { packed };
                        let tile = Tile {
                            kc,
                            mr: MR.min(mc - p * MR),
                            nr: NR.min(nc - q * NR),
                            a_rs: a.rs,
                            ldb: b.rs,
                            c_rs,
                            c_cs,
                            store: !acc && pc == 0,
                        };
                        let c0 = (ic + p * MR) * c_rs + (jc + q * NR) * c_cs;
                        // SAFETY: `micro` is a tile of the kernel `tiled`
                        // matched on, whose target features the CPU was
                        // detected to have.
                        unsafe { micro(&tile, ap, bp, &mut c[c0..]) };
                    }
                }
            }
        }
    }
}

/// Pack an `mc × kc` block of A into `P`-row panels, k-major within each
/// panel (`dst[panel][kk·P + r]`), zero-padding the final partial panel.
/// Const-generic over the panel height, so each tile gets its own
/// monomorphized packer with the inner loop unrolled.
fn pack_a_panels<const P: usize>(dst: &mut [f32], a: Operand<'_>, ic: usize, pc: usize, kc: usize, mc: usize) {
    let mut d = 0;
    for p in 0..mc.div_ceil(P) {
        let rbase = ic + p * P;
        let rmax = P.min(mc - p * P);
        for kk in 0..kc {
            let col = (pc + kk) * a.cs;
            for r in 0..P {
                dst[d] = if r < rmax { a.data[(rbase + r) * a.rs + col] } else { 0.0 };
                d += 1;
            }
        }
    }
}

/// Pack a `kc × nc` block of B into `P`-column panels, k-major within each
/// panel (`dst[panel][kk·P + j]`), zero-padding the final partial panel.
fn pack_b_panels<const P: usize>(dst: &mut [f32], b: Operand<'_>, pc: usize, jc: usize, kc: usize, nc: usize) {
    let mut d = 0;
    for q in 0..nc.div_ceil(P) {
        let cbase = jc + q * P;
        let cmax = P.min(nc - q * P);
        for kk in 0..kc {
            let row = (pc + kk) * b.rs;
            for j in 0..P {
                dst[d] = if j < cmax { b.data[row + (cbase + j) * b.cs] } else { 0.0 };
                d += 1;
            }
        }
    }
}

/// What every tile checks before it reads without bounds checks: read at
/// the strides the tile uses, A and B cover `kc` steps of the whole
/// `MR × NR` tile, and the live `mr × nr` corner of C lies inside `c`.
#[inline(always)]
pub(super) fn assert_tile_in_bounds<const MR: usize, const NR: usize>(
    t: &Tile,
    (a_rs, a_cs): (usize, usize),
    ldb: usize,
    a: &[f32],
    b: &[f32],
    c: &[f32],
) {
    let (kc, mr, nr) = (t.kc, t.mr, t.nr);
    assert!(kc > 0, "a tile sums at least one step");
    assert!(a.len() > (MR - 1) * a_rs + (kc - 1) * a_cs && b.len() >= (kc - 1) * ldb + NR, "operands shorter than kc steps");
    assert!((1..=MR).contains(&mr) && (1..=NR).contains(&nr), "live corner {mr}x{nr} outside the {MR}x{NR} tile");
    assert!(c.len() > (mr - 1) * t.c_rs + (nr - 1) * t.c_cs, "tile runs past the end of C");
}

/// The scalar register tile, a [`MicroKernel`]. Panels are zero-padded, so
/// the accumulate loop has no edge branches; its fixed-size body unrolls
/// and autovectorizes. Every multiply is rounded before its add.
///
/// Loads go unchecked behind one bounds assert, as in the SIMD tiles:
/// indexed with checks, the loop ran 1.45× slower. Where C's rows are
/// contiguous it is updated by zipping each accumulator row with its C
/// row: with the strided form alone, LLVM split the accumulators into
/// scalars and the loop came out shuffling lanes, 1.4× slower again.
fn micro_2x16<const A_IN_PLACE: bool, const B_IN_PLACE: bool>(t: &Tile, a: &[f32], b: &[f32], c: &mut [f32]) {
    let (a_rs, a_cs) = t.a_strides::<A_IN_PLACE, MR>();
    let ldb = t.b_stride::<B_IN_PLACE, NR>();
    assert_tile_in_bounds::<MR, NR>(t, (a_rs, a_cs), ldb, a, b, c);
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..t.kc {
        // SAFETY: `kk < kc`, `r < MR` and `j < NR` stay inside `a` and `b`
        // at these strides, by the assert above.
        let bv: [f32; NR] = std::array::from_fn(|j| unsafe { *b.get_unchecked(kk * ldb + j) });
        for (r, acc_row) in acc.iter_mut().enumerate() {
            // SAFETY: as for `bv`, by the same assert.
            let ar = unsafe { *a.get_unchecked(r * a_rs + kk * a_cs) };
            for (av, &b) in acc_row.iter_mut().zip(&bv) {
                *av += ar * b;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate().take(t.mr) {
        if t.c_cs == 1 {
            for (cv, &sum) in c[r * t.c_rs..][..t.nr].iter_mut().zip(acc_row) {
                t.put(cv, sum);
            }
        } else {
            for (j, &sum) in acc_row.iter().enumerate().take(t.nr) {
                t.put(&mut c[r * t.c_rs + j * t.c_cs], sum);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill (no dependency on `rand` here).
    fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            })
            .collect()
    }

    fn naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn assert_close(got: &[f32], want: &[f32]) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() <= 1e-4 * (1.0 + w.abs()), "[{i}]: {g} vs {w}");
        }
    }

    #[test]
    fn blocked_matches_naive_across_shapes() {
        for &(m, n, k) in
            &[(1, 1, 1), (1, 5, 3), (7, 1, 9), (4, 8, 256), (33, 17, 5), (65, 66, 129), (3, 300, 2), (130, 70, 70)]
        {
            let a = fill(m as u64 * 31 + n as u64, m * k);
            let b = fill(k as u64 * 17 + 1, k * n);
            let mut c = vec![0.0f32; m * n];
            gemm_strided(m, n, k, &a, k, 1, &b, n, 1, &mut c);
            assert_close(&c, &naive(m, n, k, &a, &b));
        }
    }

    #[test]
    fn strided_transpose_views_match() {
        let (m, n, k) = (37, 29, 41);
        let a = fill(3, m * k);
        let b = fill(4, k * n);
        let want = naive(m, n, k, &a, &b);
        // Aᵀ stored as [k, m]: element (i, p) at at[p*m + i].
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut c = vec![0.0f32; m * n];
        gemm_strided(m, n, k, &at, 1, m, &b, n, 1, &mut c);
        assert_close(&c, &want);
        // Bᵀ stored as [n, k]: element (p, j) at bt[j*k + p].
        let mut bt = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        c.fill(0.0);
        gemm_strided(m, n, k, &a, k, 1, &bt, 1, k, &mut c);
        assert_close(&c, &want);
    }

    #[test]
    fn threaded_path_matches_serial() {
        let (m, n, k) = (150, 60, 80);
        let a = fill(7, m * k);
        let b = fill(8, k * n);
        let mut serial = vec![0.0f32; m * n];
        threads::with_threads(1, || gemm_strided(m, n, k, &a, k, 1, &b, n, 1, &mut serial));
        let mut par = vec![0.0f32; m * n];
        threads::with_threads(4, || gemm_strided(m, n, k, &a, k, 1, &b, n, 1, &mut par));
        assert_close(&par, &serial);
    }

    #[test]
    fn accumulates_into_existing_c() {
        let (m, n, k) = (5, 6, 7);
        let a = fill(9, m * k);
        let b = fill(10, k * n);
        let mut c = vec![2.0f32; m * n];
        gemm_strided(m, n, k, &a, k, 1, &b, n, 1, &mut c);
        let want: Vec<f32> = naive(m, n, k, &a, &b).iter().map(|v| v + 2.0).collect();
        assert_close(&c, &want);
    }

    #[test]
    fn avx2_kernel_matches_scalar_within_rounding() {
        use super::simd::{avx2_available, with_kernel, Kernel};
        if !avx2_available() {
            return; // nothing to compare on this host
        }
        // Shapes straddling the 6-row panel, the 72-row cache block, and
        // the partial-tile edges in both dimensions.
        for &(m, n, k) in &[(64, 64, 64), (37, 53, 129), (130, 70, 70), (6, 16, 300), (7, 17, 301), (73, 257, 31)]
        {
            let a = fill(m as u64 + 1, m * k);
            let b = fill(n as u64 + 2, k * n);
            let want = naive(m, n, k, &a, &b);
            let mut scalar = vec![0.0f32; m * n];
            with_kernel(Kernel::Scalar, || gemm_strided(m, n, k, &a, k, 1, &b, n, 1, &mut scalar));
            let mut simd_out = vec![0.0f32; m * n];
            with_kernel(Kernel::Avx2, || gemm_strided(m, n, k, &a, k, 1, &b, n, 1, &mut simd_out));
            assert_close(&scalar, &want);
            assert_close(&simd_out, &want);
        }
    }

    #[test]
    fn kernel_override_propagates_to_row_workers() {
        use super::simd::{with_kernel, Kernel};
        let (m, n, k) = (150, 60, 80);
        let a = fill(7, m * k);
        let b = fill(8, k * n);
        let mut serial = vec![0.0f32; m * n];
        with_kernel(Kernel::Scalar, || {
            threads::with_threads(1, || gemm_strided(m, n, k, &a, k, 1, &b, n, 1, &mut serial))
        });
        // Same pinned kernel, threaded: workers must inherit the override,
        // so the result is bitwise identical chunk by chunk.
        let mut par = vec![0.0f32; m * n];
        with_kernel(Kernel::Scalar, || {
            threads::with_threads(4, || gemm_strided(m, n, k, &a, k, 1, &b, n, 1, &mut par))
        });
        assert_eq!(serial, par, "scalar kernel must be deterministic across thread counts");
    }

    #[test]
    fn steady_state_runs_without_new_allocations() {
        let (m, n, k) = (64, 64, 64);
        let a = fill(11, m * k);
        let b = fill(12, k * n);
        let mut c = vec![0.0f32; m * n];
        gemm_strided(m, n, k, &a, k, 1, &b, n, 1, &mut c);
        let before = scratch::stats();
        for _ in 0..3 {
            c.fill(0.0);
            gemm_strided(m, n, k, &a, k, 1, &b, n, 1, &mut c);
        }
        let after = scratch::stats();
        assert_eq!(after.allocations, before.allocations, "warm gemm must reuse its packing buffers");
        assert!(after.reuses > before.reuses);
    }

    /// The tile families this CPU has: the scalar tile, then the AVX2 and
    /// AVX-512 tiles where detected.
    fn families() -> Vec<(Kernel, usize)> {
        let mut out = vec![(Kernel::Scalar, NR)];
        if simd::avx2_available() {
            out.push((Kernel::Avx2, simd::AVX2_NR));
        }
        if simd::avx512_available() {
            out.push((Kernel::Avx512, simd::AVX512_NR));
        }
        out
    }

    /// The three products over an `m·k` and a `k·n` buffer, as
    /// `(name, a_rs, a_cs, b_rs, b_cs)` and the layout each takes in place.
    fn products(m: usize, n: usize, k: usize) -> [(&'static str, [usize; 4], Layout); 3] {
        [("A·B", [k, 1, n, 1], Layout::BRows), ("Aᵀ·B", [1, m, n, 1], Layout::BRows), ("A·Bᵀ", [k, 1, 1, k], Layout::Transposed)]
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Each tile family reads the big operand in place and gives the bits
    /// of its own packed path, for all three products, accumulating or not,
    /// from the first row count the in-place layouts take to the first they
    /// do not, across the panel edges (`NR ± 1`, and W's `MR` edges when
    /// transposed), the `KC` cuts and the narrow rule — and what
    /// `gemm_strided_acc` does at each shape gives them too. An unoptimised
    /// build (the `test` stage; `kernels` runs it all, optimised) checks the
    /// three boundary row counts at three of the shapes.
    #[test]
    fn in_place_is_bitwise_the_packed_path() {
        let quick = cfg!(debug_assertions);
        for (kernel, nr) in families() {
            for m in SKINNY_ROWS + 1..=IN_PLACE_ROWS + 1 {
                let edge = m == SKINNY_ROWS + 1 || m >= IN_PLACE_ROWS;
                let shapes: Vec<(usize, usize)> = if quick {
                    if !edge {
                        continue;
                    }
                    vec![(nr - 1, KC + 1), (nr + 1, KC - 1), (NARROW, KC)]
                } else {
                    let mut shapes = Vec::new();
                    for n in [nr - 1, nr, nr + 1, NARROW] {
                        shapes.extend([KC - 1, KC, KC + 1].map(|k| (n, k)));
                    }
                    if edge || m % 8 == 0 {
                        shapes.extend([(1024, KC + 1), (nr + 1, 1024), (1024, 1024)]);
                    }
                    shapes
                };
                for (n, k) in shapes {
                    let (a, b) = (fill((m * 31 + n) as u64, m * k), fill((k * 17 + n) as u64, k * n));
                    for (name, [a_rs, a_cs, b_rs, b_cs], in_place) in products(m, n, k) {
                        let expected = if m <= IN_PLACE_ROWS { in_place } else { Layout::Packed };
                        assert_eq!(Layout::of(m, b_rs, b_cs), expected, "{name} at {m} rows");
                        for acc in [false, true] {
                            // What C held before: stale under a store, summed onto otherwise.
                            let before = if acc { fill((m + n + k) as u64, m * n) } else { vec![f32::NAN; m * n] };
                            let run = |layout: Option<Layout>| {
                                let mut c = before.clone();
                                match layout {
                                    Some(layout) => tiled(kernel, layout, m, n, k, &a, a_rs, a_cs, &b, b_rs, b_cs, &mut c, acc),
                                    None => simd::with_kernel(kernel, || {
                                        gemm_strided_acc(m, n, k, &a, a_rs, a_cs, &b, b_rs, b_cs, &mut c, acc)
                                    }),
                                }
                                bits(&c)
                            };
                            let packed = run(Some(Layout::Packed));
                            let label = format!("{kernel} {name} {m}x{n}x{k} acc={acc}");
                            assert!(packed.iter().all(|&v| !f32::from_bits(v).is_nan()), "{label}: C leaked through");
                            assert!(run(Some(in_place)) == packed, "{label}: in place departs from packed");
                            assert!(run(None) == packed, "{label}: the dispatch departs from packed");
                        }
                    }
                }
            }
        }
    }

    /// `acc = false` writes `0 + sum` on every path — the unpacked nests, a
    /// layout in place and the packed one — so products that are all −0
    /// come out +0, the bits clearing C and then adding give, whatever C
    /// held before.
    #[test]
    fn store_first_turns_negative_zero_products_into_positive_zero() {
        // Skinny and small (unpacked), in place, packed.
        for (kernel, _) in families() {
            for (m, n, k) in [(2, 200, 300), (4, 4, 4), (16, 64, 300), (80, 40, 300)] {
                let (a, b) = (vec![0.0f32; m * k], vec![-1.0f32; k * n]);
                for (name, [a_rs, a_cs, b_rs, b_cs], _) in products(m, n, k) {
                    let mut c = vec![-0.0f32; m * n];
                    c[0] = f32::NAN;
                    simd::with_kernel(kernel, || gemm_strided_acc(m, n, k, &a, a_rs, a_cs, &b, b_rs, b_cs, &mut c, false));
                    assert!(bits(&c).iter().all(|&v| v == 0), "{kernel} {name} {m}x{n}x{k}: {:?}", &c[..4]);
                }
            }
        }
    }
}
