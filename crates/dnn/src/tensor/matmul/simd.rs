//! Runtime-dispatched SIMD register tiles for the blocked GEMM core.
//!
//! The scalar tile in `super::blocked` relies on LLVM autovectorizing a
//! 2×16 register tile against the baseline `x86-64` target, which caps it
//! at SSE width without fused multiply-adds. This module adds two
//! hand-written FMA tiles that plug into the same blocked driver, and the
//! machinery to pick between the three at run time:
//!
//! - **6×16 AVX2** ([`Kernel::Avx2`]): 12 accumulator `ymm` registers, two
//!   B loads and one A broadcast live per `k` step — 15 of the 16
//!   architectural registers, the classic BLIS-style shape.
//! - **12×32 AVX-512** ([`Kernel::Avx512`]): the same shape at `zmm` width
//!   — 24 accumulators + 2 B lanes + 1 broadcast = 27 of 32 registers. One
//!   core of the development host sustains 91 GFLOP/s in `ymm` FMAs and
//!   170 in `zmm` FMAs (×1.86); 14×32 (28 + 2 + 1 = 31) measured level
//!   with 12×32 and 8×48 (24 + 3 + 1 = 28) behind it (CHANGES.md PR 22).
//!
//! Both cut the inner dimension into the same `KC`-deep slices, and within
//! a slice each C element is one accumulator lane fed its products by fused
//! multiply-adds in `k` order, then added to C once. Tile shape and cache
//! block sizes decide only *which* lane holds an element, so the two SIMD
//! kernels are **bit-identical** at every shape and thread count; the
//! `kernel_equivalence` property `avx512_tile_is_bitwise_the_avx2_tile`
//! holds them to that by `to_bits`.
//!
//! 1. **Detection.** [`avx2_available`] checks `avx2` *and* `fma` once via
//!    `is_x86_feature_detected!`, [`avx512_available`] adds `avx512f`; on
//!    non-`x86_64` targets both are `false` and the scalar tile is the only
//!    kernel.
//! 2. **Policy.** `CANNIKIN_SIMD` (read once per process, see
//!    [`configured_kernel`]) selects `auto` (default: the widest tile
//!    detected), `off`/`scalar` (force the scalar kernel: baseline-target
//!    code, every multiply rounded before its add, the same bits on every
//!    run and at every thread count), `avx2` (pin the 6×16 tile even where
//!    AVX-512 exists) or `avx512`. A request the CPU cannot serve falls
//!    down the ladder `avx512 → avx2 → scalar`.
//! 3. **Override.** A thread-local [`KernelGuard`] (or the [`with_kernel`]
//!    closure form) pins the kernel for tests and benches regardless of
//!    environment, mirroring [`ThreadBudgetGuard`](crate::tensor::threads::ThreadBudgetGuard).
//!
//! Dispatch happens once per `super::blocked::gemm_strided`
//! call: the resolved [`Kernel`] is passed down into the row-partitioned
//! worker threads as a value, so an override installed on the calling
//! thread governs the whole operation, spawned workers included.
//!
//! The packers, the loop nest and the macro-kernel are the scalar core's,
//! instantiated per tile; only the register tile and the block sizes
//! differ. The unpacked path (`blocked::unpacked`, for small and skinny
//! products) is one body for all kernels: here it is inlined into
//! `unpacked_avx2`, whose target features widen its loops to `ymm` and
//! fuse its multiply-adds, and [`Kernel::Avx512`] runs that same build, so
//! skinny products have one set of SIMD bits too. FMA contracts the
//! multiply-add, so on either path results differ from the scalar kernel by
//! rounding only — the `kernel_equivalence` proptests bound all three
//! against the naive reference.

use std::cell::Cell;
use std::sync::OnceLock;

/// Environment variable selecting the GEMM kernel policy.
pub const SIMD_ENV: &str = "CANNIKIN_SIMD";

/// Rows of the AVX2 register tile (panel height of packed A).
pub(super) const AVX2_MR: usize = 6;
/// Columns of the AVX2 register tile: two `ymm` lanes.
pub(super) const AVX2_NR: usize = 16;
/// Rows of A the AVX2 tile packs per cache block (multiple of [`AVX2_MR`]).
pub(super) const AVX2_MC: usize = 72;
/// Columns of B the AVX2 tile packs per cache block (multiple of [`AVX2_NR`]).
pub(super) const AVX2_NC: usize = 256;

/// Rows of the AVX-512 register tile.
pub(super) const AVX512_MR: usize = 12;
/// Columns of the AVX-512 register tile: two `zmm` lanes.
pub(super) const AVX512_NR: usize = 32;
/// Rows of A the AVX-512 tile packs per cache block (multiple of [`AVX512_MR`]).
pub(super) const AVX512_MC: usize = 120;
/// Columns of B the AVX-512 tile packs per cache block (multiple of [`AVX512_NR`]).
pub(super) const AVX512_NC: usize = 512;

/// A concrete GEMM kernel implementation, resolved from policy + CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Portable autovectorized scalar core (2×16 register tile).
    Scalar,
    /// Hand-written AVX2+FMA core (6×16 register tile). Only ever resolved
    /// on `x86_64` hosts where both `avx2` and `fma` are detected.
    Avx2,
    /// Hand-written AVX-512 core (12×32 register tile), bit-identical to
    /// [`Kernel::Avx2`]. Only ever resolved on `x86_64` hosts where
    /// `avx512f`, `avx2` and `fma` are all detected.
    Avx512,
}

impl Kernel {
    /// Panel height the kernel packs A into — the row-chunk alignment unit.
    pub(super) fn mr(self) -> usize {
        match self {
            Kernel::Scalar => super::blocked::MR,
            Kernel::Avx2 => AVX2_MR,
            Kernel::Avx512 => AVX512_MR,
        }
    }

    /// This kernel if the CPU can run it, else the next one down the
    /// ladder `Avx512 → Avx2 → Scalar`: neither a policy nor an override
    /// may ever select an illegal instruction.
    fn supported(self) -> Kernel {
        match self {
            Kernel::Avx512 if avx512_available() => Kernel::Avx512,
            Kernel::Avx512 | Kernel::Avx2 if avx2_available() => Kernel::Avx2,
            _ => Kernel::Scalar,
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
            Kernel::Avx512 => "avx512",
        })
    }
}

/// The user-facing kernel *request*, before CPU detection is applied.
///
/// Parsed from `CANNIKIN_SIMD`; see [`resolve`] for how each policy maps
/// to a [`Kernel`] on the current machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdPolicy {
    /// The widest tile the CPU supports: AVX-512, else AVX2, else scalar.
    #[default]
    Auto,
    /// Force the scalar kernel: no FMA, the same bits on every run.
    Scalar,
    /// Pin the 6×16 AVX2 core even where AVX-512 exists; falls back to
    /// scalar when unsupported (a hard crash on older hardware helps nobody).
    Avx2,
    /// Request the 12×32 AVX-512 core; falls back to AVX2, then scalar.
    Avx512,
}

/// Error from parsing a [`SimdPolicy`]; lists the accepted values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSimdPolicyError {
    value: String,
}

impl std::fmt::Display for ParseSimdPolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown SIMD policy `{}` (expected `auto`, `off`, `scalar`, `avx2` or `avx512`)", self.value)
    }
}

impl std::error::Error for ParseSimdPolicyError {}

impl std::str::FromStr for SimdPolicy {
    type Err = ParseSimdPolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(SimdPolicy::Auto),
            "off" | "scalar" => Ok(SimdPolicy::Scalar),
            "avx2" => Ok(SimdPolicy::Avx2),
            "avx512" => Ok(SimdPolicy::Avx512),
            _ => Err(ParseSimdPolicyError { value: s.to_string() }),
        }
    }
}

impl std::fmt::Display for SimdPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimdPolicy::Auto => "auto",
            SimdPolicy::Scalar => "off",
            SimdPolicy::Avx2 => "avx2",
            SimdPolicy::Avx512 => "avx512",
        })
    }
}

/// Whether this CPU supports the AVX2 kernel (`avx2` *and* `fma`).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this CPU supports the AVX-512 kernel: `avx512f` on top of what
/// [`avx2_available`] asks for, because small and skinny products under
/// [`Kernel::Avx512`] run the AVX2 build of the unpacked path.
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f") && avx2_available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Map a policy to the kernel that will actually run on this machine.
pub fn resolve(policy: SimdPolicy) -> Kernel {
    match policy {
        SimdPolicy::Scalar => Kernel::Scalar,
        SimdPolicy::Avx2 => Kernel::Avx2.supported(),
        SimdPolicy::Auto | SimdPolicy::Avx512 => Kernel::Avx512.supported(),
    }
}

static CONFIGURED: OnceLock<Kernel> = OnceLock::new();

thread_local! {
    static KERNEL_OVERRIDE: Cell<Option<Kernel>> = const { Cell::new(None) };
}

/// Process-wide kernel: `CANNIKIN_SIMD` resolved against the CPU, read
/// once; later changes to the variable have no effect. Unset or malformed
/// values fall back to [`SimdPolicy::Auto`]: dispatch happens on hot paths
/// with no error channel, and this is the only place the knob is parsed.
pub fn configured_kernel() -> Kernel {
    *CONFIGURED.get_or_init(|| {
        let policy = std::env::var(SIMD_ENV)
            .ok()
            .and_then(|v| v.parse::<SimdPolicy>().ok())
            .unwrap_or_default();
        resolve(policy)
    })
}

/// The kernel GEMMs launched from the *current* thread will use: the
/// innermost [`KernelGuard`] override, or [`configured_kernel`] when none
/// is installed.
pub fn active_kernel() -> Kernel {
    KERNEL_OVERRIDE.with(|c| c.get()).unwrap_or_else(configured_kernel)
}

/// RAII override of the current thread's GEMM kernel.
///
/// Used by the equivalence proptests to pin the kernels against each other
/// regardless of `CANNIKIN_SIMD`. Guards nest; dropping one restores the
/// previous kernel. Requesting a kernel the CPU lacks installs the next one
/// down the ladder `Avx512 → Avx2 → Scalar` instead — an override must
/// never select an illegal instruction.
///
/// # Examples
///
/// ```
/// use minidnn::tensor::simd::{active_kernel, Kernel, KernelGuard};
///
/// let outer = active_kernel();
/// {
///     let _guard = KernelGuard::new(Kernel::Scalar);
///     assert_eq!(active_kernel(), Kernel::Scalar);
/// }
/// assert_eq!(active_kernel(), outer);
/// ```
#[derive(Debug)]
pub struct KernelGuard {
    previous: Option<Kernel>,
}

impl KernelGuard {
    /// Pin GEMMs launched from this thread to `kernel` until the guard
    /// drops (downgraded `Avx512 → Avx2 → Scalar` to what the CPU has).
    pub fn new(kernel: Kernel) -> Self {
        let previous = KERNEL_OVERRIDE.with(|c| c.replace(Some(kernel.supported())));
        KernelGuard { previous }
    }
}

impl Drop for KernelGuard {
    fn drop(&mut self) {
        KERNEL_OVERRIDE.with(|c| c.set(self.previous));
    }
}

/// Run `f` with the GEMM kernel pinned — the closure form of
/// [`KernelGuard`].
pub fn with_kernel<R>(kernel: Kernel, f: impl FnOnce() -> R) -> R {
    let _guard = KernelGuard::new(kernel);
    f()
}

/// `blocked::unpacked` compiled for AVX2+FMA: the body is inlined here, so
/// its loops vectorise to `ymm` width and its multiply-adds fuse.
///
/// # Safety
///
/// Caller must ensure AVX2 and FMA are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn unpacked_avx2(
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
    super::blocked::unpacked::<true>(m, n, k, a, a_rs, a_cs, b, b_rs, b_cs, c, acc);
}

/// What every SIMD tile checks before it drops to raw pointers: the packed
/// panels cover `kc` steps and the live `mr × nr` corner lies inside `c`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn assert_tile_in_bounds<const MR: usize, const NR: usize>(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &[f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    assert!(ap.len() >= kc * MR && bp.len() >= kc * NR, "packed panels shorter than kc steps");
    assert!((1..=MR).contains(&mr) && (1..=NR).contains(&nr), "live corner {mr}x{nr} outside the {MR}x{NR} tile");
    assert!(c.len() >= (mr - 1) * ldc + nr, "tile runs past the end of C");
}

/// 6×16 AVX2+FMA register tile, a [`MicroKernel`](super::blocked::MicroKernel):
/// `acc[r][j] += ap[kk·6 + r] · bp[kk·16 + j]` over `kk < kc`, then
/// `C[r][j] += acc[r][j]` for the live `mr × nr` corner.
///
/// Register budget per `k` step: 12 accumulators + 2 B lanes + 1 broadcast
/// A value = 15 of the 16 `ymm` registers, so nothing spills.
///
/// # Safety
///
/// Caller must ensure AVX2 and FMA are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn micro_6x16(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, mr: usize, nr: usize) {
    use std::arch::x86_64::*;
    assert_tile_in_bounds::<AVX2_MR, AVX2_NR>(kc, ap, bp, c, ldc, mr, nr);
    let (ap, bp, c) = (ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr());
    // SAFETY (the pointer arithmetic below): reads stay under `kc·6` /
    // `kc·16` floats of the panels and writes land at `r·ldc + j` with
    // `r < mr`, `j < nr`, all inside the slices by the asserts above.
    let mut acc = [[_mm256_setzero_ps(); 2]; AVX2_MR];
    for kk in 0..kc {
        let b0 = _mm256_loadu_ps(bp.add(kk * AVX2_NR));
        let b1 = _mm256_loadu_ps(bp.add(kk * AVX2_NR + 8));
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*ap.add(kk * AVX2_MR + r));
            acc_row[0] = _mm256_fmadd_ps(av, b0, acc_row[0]);
            acc_row[1] = _mm256_fmadd_ps(av, b1, acc_row[1]);
        }
    }
    if mr == AVX2_MR && nr == AVX2_NR {
        // Full tile: straight vector read-modify-write of the C rows.
        for (r, acc_row) in acc.iter().enumerate() {
            let crow = c.add(r * ldc);
            _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc_row[0]));
            _mm256_storeu_ps(crow.add(8), _mm256_add_ps(_mm256_loadu_ps(crow.add(8)), acc_row[1]));
        }
    } else {
        // Edge tile: spill the accumulators and add only the live lanes.
        let mut tmp = [0.0f32; AVX2_NR];
        for (r, acc_row) in acc.iter().enumerate().take(mr) {
            _mm256_storeu_ps(tmp.as_mut_ptr(), acc_row[0]);
            _mm256_storeu_ps(tmp.as_mut_ptr().add(8), acc_row[1]);
            let crow = c.add(r * ldc);
            for (j, &v) in tmp.iter().enumerate().take(nr) {
                *crow.add(j) += v;
            }
        }
    }
}

/// 12×32 AVX-512 register tile, a [`MicroKernel`](super::blocked::MicroKernel):
/// the same sum as [`micro_6x16`] over `zmm` lanes — each C element is one
/// accumulator lane fed `kc` fused multiply-adds in `kk` order and added to
/// C once, exactly the chain the 6×16 tile runs, which is why the two agree
/// to the bit.
///
/// Register budget per `k` step: 24 accumulators + 2 B lanes + 1 broadcast
/// A value = 27 of the 32 `zmm` registers. Write masks cover the column
/// edge, so there is no spill path.
///
/// # Safety
///
/// Caller must ensure AVX-512F, AVX2 and FMA are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
pub(super) unsafe fn micro_12x32(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, mr: usize, nr: usize) {
    use std::arch::x86_64::*;
    assert_tile_in_bounds::<AVX512_MR, AVX512_NR>(kc, ap, bp, c, ldc, mr, nr);
    let (ap, bp, c) = (ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr());
    // SAFETY (the pointer arithmetic below): as in `micro_6x16`; a masked
    // load or store touches only the lanes its mask names, `j < nr`.
    let mut acc = [[_mm512_setzero_ps(); 2]; AVX512_MR];
    for kk in 0..kc {
        let b0 = _mm512_loadu_ps(bp.add(kk * AVX512_NR));
        let b1 = _mm512_loadu_ps(bp.add(kk * AVX512_NR + 16));
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*ap.add(kk * AVX512_MR + r));
            acc_row[0] = _mm512_fmadd_ps(av, b0, acc_row[0]);
            acc_row[1] = _mm512_fmadd_ps(av, b1, acc_row[1]);
        }
    }
    // `break`s, not `take`: with constant trip counts the loops unroll and
    // the accumulators are stored from their registers, not via the stack.
    for (r, acc_row) in acc.iter().enumerate() {
        if r >= mr {
            break;
        }
        for (lane, &sum) in acc_row.iter().enumerate() {
            if 16 * lane >= nr {
                break;
            }
            let live: __mmask16 = 0xFFFF >> (16 - (nr - 16 * lane).min(16));
            let cv = c.add(r * ldc + 16 * lane);
            _mm512_mask_storeu_ps(cv, live, _mm512_add_ps(_mm512_maskz_loadu_ps(live, cv), sum));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The widest tile this CPU has: what `auto` must mean.
    fn widest() -> Kernel {
        match (avx512_available(), avx2_available()) {
            (true, _) => Kernel::Avx512,
            (false, true) => Kernel::Avx2,
            (false, false) => Kernel::Scalar,
        }
    }

    #[test]
    fn policy_parses_all_accepted_spellings() {
        assert_eq!("auto".parse::<SimdPolicy>().unwrap(), SimdPolicy::Auto);
        assert_eq!("off".parse::<SimdPolicy>().unwrap(), SimdPolicy::Scalar);
        assert_eq!("scalar".parse::<SimdPolicy>().unwrap(), SimdPolicy::Scalar);
        assert_eq!("avx2".parse::<SimdPolicy>().unwrap(), SimdPolicy::Avx2);
        assert_eq!(" AVX2 ".parse::<SimdPolicy>().unwrap(), SimdPolicy::Avx2);
        assert_eq!("avx512".parse::<SimdPolicy>().unwrap(), SimdPolicy::Avx512);
    }

    #[test]
    fn policy_parse_error_lists_valid_values() {
        let err = "sse9".parse::<SimdPolicy>().unwrap_err();
        let msg = err.to_string();
        for expected in ["`auto`", "`off`", "`scalar`", "`avx2`", "`avx512`", "sse9"] {
            assert!(msg.contains(expected), "{msg:?} should mention {expected}");
        }
    }

    #[test]
    fn scalar_policy_always_resolves_scalar() {
        assert_eq!(resolve(SimdPolicy::Scalar), Kernel::Scalar);
    }

    /// Printed so a CI log says which tile the unpinned tests ran on
    /// (`scripts/tier1.sh kernels` runs this one with `--nocapture`).
    #[test]
    fn auto_is_the_widest_tile_detected() {
        println!(
            "CANNIKIN_SIMD=auto resolves to `{}` here (avx2+fma {}, avx512f {})",
            resolve(SimdPolicy::Auto),
            avx2_available(),
            avx512_available()
        );
        assert_eq!(resolve(SimdPolicy::Auto), widest());
    }

    #[test]
    fn avx2_policy_pins_the_narrow_tile() {
        let expected = if avx2_available() { Kernel::Avx2 } else { Kernel::Scalar };
        assert_eq!(resolve(SimdPolicy::Avx2), expected);
    }

    #[test]
    fn avx512_policy_falls_back_down_the_ladder() {
        assert_eq!(resolve(SimdPolicy::Avx512), widest());
        assert!(!avx512_available() || avx2_available(), "the wide tile implies the narrow one");
    }

    #[test]
    fn guard_overrides_and_restores() {
        let base = active_kernel();
        with_kernel(Kernel::Scalar, || {
            assert_eq!(active_kernel(), Kernel::Scalar);
            with_kernel(Kernel::Avx2, || {
                assert_eq!(active_kernel(), resolve(SimdPolicy::Avx2));
                with_kernel(Kernel::Avx512, || assert_eq!(active_kernel(), widest()));
                assert_eq!(active_kernel(), resolve(SimdPolicy::Avx2));
            });
            assert_eq!(active_kernel(), Kernel::Scalar);
        });
        assert_eq!(active_kernel(), base);
    }

    #[test]
    fn override_is_thread_local() {
        with_kernel(Kernel::Scalar, || {
            let inner = std::thread::spawn(active_kernel).join().unwrap();
            assert_eq!(inner, configured_kernel());
        });
    }

    #[test]
    fn kernel_and_policy_display_roundtrip() {
        assert_eq!(Kernel::Scalar.to_string(), "scalar");
        assert_eq!(Kernel::Avx2.to_string(), "avx2");
        assert_eq!(Kernel::Avx512.to_string(), "avx512");
        for p in [SimdPolicy::Auto, SimdPolicy::Scalar, SimdPolicy::Avx2, SimdPolicy::Avx512] {
            assert_eq!(p.to_string().parse::<SimdPolicy>().unwrap(), p);
        }
    }
}
