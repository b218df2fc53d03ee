//! Runtime-dispatched AVX2/FMA microkernel for the blocked GEMM core.
//!
//! The scalar core in `super::blocked` relies on LLVM
//! autovectorizing a 2×16 register tile against the baseline `x86-64`
//! target, which caps it at SSE width without fused multiply-adds. This
//! module adds a hand-written 6×16 AVX2+FMA microkernel (12 accumulator
//! `ymm` registers, two B loads and one A broadcast live per `k` step —
//! 15 of the 16 architectural registers, the classic BLIS-style shape)
//! and the machinery to pick between the two at run time:
//!
//! 1. **Detection.** [`avx2_available`] checks `avx2` *and* `fma` once via
//!    `is_x86_feature_detected!`; on non-`x86_64` targets it is `false` and
//!    the scalar core is the only kernel.
//! 2. **Policy.** `CANNIKIN_SIMD` (read once per process, see
//!    [`configured_kernel`]) selects `auto` (default: use AVX2 when
//!    detected), `off`/`scalar` (force the scalar kernel: baseline-target
//!    code, every multiply rounded before its add, the same bits on every
//!    run and at every thread count), or `avx2` (request the SIMD kernel,
//!    still falling back to scalar where unsupported).
//! 3. **Override.** A thread-local [`KernelGuard`] (or the [`with_kernel`]
//!    closure form) pins the kernel for tests and benches regardless of
//!    environment, mirroring [`ThreadBudgetGuard`](crate::tensor::threads::ThreadBudgetGuard).
//!
//! Dispatch happens once per `super::blocked::gemm_strided`
//! call: the resolved [`Kernel`] is passed down into the row-partitioned
//! worker threads as a value, so an override installed on the calling
//! thread governs the whole operation, spawned workers included.
//!
//! The AVX2 path reuses the scalar core's packing (panels are packed
//! 6-row/16-column instead of 2-row/16-column via the const-generic
//! packers) and its cache-blocking structure; only the register tile and
//! the block heights differ. The unpacked path (`blocked::unpacked`, for
//! small and skinny products) is one body for both kernels: here it is
//! inlined into `unpacked_avx2`, whose target features widen its loops
//! to `ymm` and fuse its multiply-adds. FMA contracts the multiply-add, so
//! on either path results differ from the scalar kernel by rounding only —
//! the `kernel_equivalence` proptests bound both against the naive
//! reference.

use crate::tensor::scratch;
use std::cell::Cell;
use std::sync::OnceLock;

/// Environment variable selecting the GEMM kernel policy.
pub const SIMD_ENV: &str = "CANNIKIN_SIMD";

/// Microkernel rows of the AVX2 register tile (panel height of packed A).
pub(super) const AVX2_MR: usize = 6;
/// Microkernel columns, shared with the scalar core (two `ymm` lanes).
const NR: usize = super::blocked::NR;
/// Rows of A packed per cache block (multiple of [`AVX2_MR`]).
const MC: usize = 72;
/// Depth of the packed inner-dimension slice.
const KC: usize = 256;
/// Columns of B packed per cache block (multiple of [`NR`]).
const NC: usize = 256;

/// A concrete GEMM kernel implementation, resolved from policy + CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Portable autovectorized scalar core (2×16 register tile).
    Scalar,
    /// Hand-written AVX2+FMA core (6×16 register tile). Only ever resolved
    /// on `x86_64` hosts where both `avx2` and `fma` are detected.
    Avx2,
}

impl Kernel {
    /// Panel height the kernel packs A into — the row-chunk alignment unit.
    pub(super) fn mr(self) -> usize {
        match self {
            Kernel::Scalar => super::blocked::MR,
            Kernel::Avx2 => AVX2_MR,
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
        })
    }
}

/// The user-facing kernel *request*, before CPU detection is applied.
///
/// Parsed from `CANNIKIN_SIMD`; see [`resolve`] for how each policy maps
/// to a [`Kernel`] on the current machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdPolicy {
    /// Use the AVX2 core when the CPU supports it, scalar otherwise.
    #[default]
    Auto,
    /// Force the scalar kernel: no FMA, the same bits on every run.
    Scalar,
    /// Request the AVX2 core; still falls back to scalar when unsupported
    /// (a hard crash on older hardware helps nobody).
    Avx2,
}

/// Error from parsing a [`SimdPolicy`]; lists the accepted values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSimdPolicyError {
    value: String,
}

impl std::fmt::Display for ParseSimdPolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown SIMD policy `{}` (expected `auto`, `off`, `scalar` or `avx2`)", self.value)
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

/// Map a policy to the kernel that will actually run on this machine.
pub fn resolve(policy: SimdPolicy) -> Kernel {
    match policy {
        SimdPolicy::Scalar => Kernel::Scalar,
        SimdPolicy::Auto | SimdPolicy::Avx2 => {
            if avx2_available() {
                Kernel::Avx2
            } else {
                Kernel::Scalar
            }
        }
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
/// Used by the equivalence proptests and the perf bench to pin the scalar
/// and AVX2 paths against each other regardless of `CANNIKIN_SIMD`. Guards
/// nest; dropping one restores the previous kernel. Requesting
/// [`Kernel::Avx2`] on a host without AVX2+FMA installs [`Kernel::Scalar`]
/// instead — an override must never select an illegal instruction.
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
    /// drops (downgraded to [`Kernel::Scalar`] if the CPU lacks AVX2).
    pub fn new(kernel: Kernel) -> Self {
        let kernel = if kernel == Kernel::Avx2 && !avx2_available() { Kernel::Scalar } else { kernel };
        let previous = KERNEL_OVERRIDE.with(|c| c.replace(Some(kernel)));
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

/// Single-threaded AVX2 blocked GEMM over the full `[m, n]` output —
/// the SIMD twin of `blocked::gemm_serial_scalar`, sharing its packing
/// and loop structure with a 6-row A panel and taller cache block.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub(super) fn gemm_serial_avx2(
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
    let mut apack = scratch::take(MC * KC);
    let mut bpack = scratch::take(KC * NC);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            super::blocked::pack_b_panels::<NR>(bpack.as_mut_slice(), b, b_rs, b_cs, pc, jc, kc, nc);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                super::blocked::pack_a_panels::<AVX2_MR>(apack.as_mut_slice(), a, a_rs, a_cs, ic, pc, kc, mc);
                macro_kernel_avx2(apack.as_slice(), bpack.as_slice(), c, ic, jc, mc, nc, kc, n);
            }
        }
    }
}

/// Unreachable stub: [`Kernel::Avx2`] is never resolved off `x86_64`.
#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
pub(super) fn gemm_serial_avx2(
    _m: usize,
    _n: usize,
    _k: usize,
    _a: &[f32],
    _a_rs: usize,
    _a_cs: usize,
    _b: &[f32],
    _b_rs: usize,
    _b_cs: usize,
    _c: &mut [f32],
) {
    unreachable!("AVX2 kernel resolved on a non-x86_64 target");
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

/// Multiply one packed A block against one packed B block, accumulating
/// into the `mc × nc` region of C at `(ic, jc)` via the 6×16 microkernel.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn macro_kernel_avx2(
    apack: &[f32],
    bpack: &[f32],
    c: &mut [f32],
    ic: usize,
    jc: usize,
    mc: usize,
    nc: usize,
    kc: usize,
    ldc: usize,
) {
    for q in 0..nc.div_ceil(NR) {
        let bp = &bpack[q * kc * NR..][..kc * NR];
        let nr = NR.min(nc - q * NR);
        for p in 0..mc.div_ceil(AVX2_MR) {
            let ap = &apack[p * kc * AVX2_MR..][..kc * AVX2_MR];
            let mr = AVX2_MR.min(mc - p * AVX2_MR);
            let c0 = (ic + p * AVX2_MR) * ldc + jc + q * NR;
            debug_assert!(c0 + (mr - 1) * ldc + nr <= c.len(), "microkernel tile in bounds");
            // SAFETY: `Kernel::Avx2` is only resolved when `avx2_available()`
            // reported both `avx2` and `fma`, so the target features are
            // present; every write lands at `c0 + r·ldc + j` with `r < mr`,
            // `j < nr`, which the caller's tiling keeps inside `c`; the
            // packed panels are at least `kc·MR`/`kc·NR` long by the slice
            // bounds taken above.
            unsafe { micro_6x16(kc, ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr().add(c0), ldc, mr, nr) };
        }
    }
}

/// 6×16 AVX2+FMA register tile: `acc[r][j] += ap[kk·6 + r] · bp[kk·16 + j]`
/// over `kk < kc`, then `C[r][j] += acc[r][j]` for the live `mr × nr` edge.
///
/// Register budget per `k` step: 12 accumulators + 2 B lanes + 1 broadcast
/// A value = 15 of the 16 `ymm` registers, so nothing spills.
///
/// # Safety
///
/// Caller must ensure AVX2 and FMA are available, `ap`/`bp` point at
/// panels of at least `kc·6` / `kc·16` floats, and `c + r·ldc + j` is
/// valid for all `r < mr`, `j < nr`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_6x16(kc: usize, ap: *const f32, bp: *const f32, c: *mut f32, ldc: usize, mr: usize, nr: usize) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); 2]; AVX2_MR];
    for kk in 0..kc {
        let b0 = _mm256_loadu_ps(bp.add(kk * NR));
        let b1 = _mm256_loadu_ps(bp.add(kk * NR + 8));
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*ap.add(kk * AVX2_MR + r));
            acc_row[0] = _mm256_fmadd_ps(av, b0, acc_row[0]);
            acc_row[1] = _mm256_fmadd_ps(av, b1, acc_row[1]);
        }
    }
    if mr == AVX2_MR && nr == NR {
        // Full tile: straight vector read-modify-write of the C rows.
        for (r, acc_row) in acc.iter().enumerate() {
            let crow = c.add(r * ldc);
            _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc_row[0]));
            _mm256_storeu_ps(crow.add(8), _mm256_add_ps(_mm256_loadu_ps(crow.add(8)), acc_row[1]));
        }
    } else {
        // Edge tile: spill the accumulators and add only the live lanes.
        let mut tmp = [0.0f32; NR];
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parses_all_accepted_spellings() {
        assert_eq!("auto".parse::<SimdPolicy>().unwrap(), SimdPolicy::Auto);
        assert_eq!("off".parse::<SimdPolicy>().unwrap(), SimdPolicy::Scalar);
        assert_eq!("scalar".parse::<SimdPolicy>().unwrap(), SimdPolicy::Scalar);
        assert_eq!("avx2".parse::<SimdPolicy>().unwrap(), SimdPolicy::Avx2);
        assert_eq!(" AVX2 ".parse::<SimdPolicy>().unwrap(), SimdPolicy::Avx2);
    }

    #[test]
    fn policy_parse_error_lists_valid_values() {
        let err = "sse9".parse::<SimdPolicy>().unwrap_err();
        let msg = err.to_string();
        for expected in ["`auto`", "`off`", "`scalar`", "`avx2`", "sse9"] {
            assert!(msg.contains(expected), "{msg:?} should mention {expected}");
        }
    }

    #[test]
    fn scalar_policy_always_resolves_scalar() {
        assert_eq!(resolve(SimdPolicy::Scalar), Kernel::Scalar);
    }

    #[test]
    fn auto_and_avx2_policies_follow_detection() {
        let expected = if avx2_available() { Kernel::Avx2 } else { Kernel::Scalar };
        assert_eq!(resolve(SimdPolicy::Auto), expected);
        assert_eq!(resolve(SimdPolicy::Avx2), expected);
    }

    #[test]
    fn guard_overrides_and_restores() {
        let base = active_kernel();
        with_kernel(Kernel::Scalar, || {
            assert_eq!(active_kernel(), Kernel::Scalar);
            with_kernel(Kernel::Avx2, || {
                let want = if avx2_available() { Kernel::Avx2 } else { Kernel::Scalar };
                assert_eq!(active_kernel(), want);
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
        for p in [SimdPolicy::Auto, SimdPolicy::Scalar, SimdPolicy::Avx2] {
            assert_eq!(p.to_string().parse::<SimdPolicy>().unwrap(), p);
        }
    }
}
