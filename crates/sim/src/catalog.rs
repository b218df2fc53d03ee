//! GPU catalog.
//!
//! Relative compute capability is taken from published FP16 throughput
//! (Table 1 of the paper for the data-center parts; vendor datasheets for
//! the workstation parts used in clusters A and B). Absolute numbers do
//! not matter for the reproduction — only ratios between GPUs do, since
//! every result in the paper is either normalized or a relative speedup.

/// A GPU model from the paper's evaluation clusters (plus the Table 1
/// evolution parts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Gpu {
    /// NVIDIA Tesla P100 (Pascal, 2016) — Table 1.
    P100,
    /// NVIDIA Tesla V100 (Volta, 2017) — Table 1 and cluster B.
    V100,
    /// NVIDIA A100 (Ampere, 2020) — Table 1 and cluster B.
    A100,
    /// NVIDIA H100 (Hopper, 2022) — Table 1.
    H100,
    /// NVIDIA Quadro RTX 6000 — cluster B (8 single-GPU nodes).
    Rtx6000,
    /// NVIDIA RTX A5000 — cluster A.
    RtxA5000,
    /// NVIDIA RTX A4000 — cluster A.
    RtxA4000,
    /// NVIDIA Quadro P4000 — cluster A.
    QuadroP4000,
}

/// Static description of a GPU model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Release year.
    pub year: u16,
    /// Architecture family.
    pub architecture: &'static str,
    /// CUDA core count.
    pub cuda_cores: u32,
    /// On-board memory in GiB.
    pub memory_gb: u32,
    /// Half-precision throughput in TFLOPS — the capability number the
    /// timing model scales by.
    pub fp16_tflops: f64,
}

impl Gpu {
    /// The static spec for this model.
    pub fn spec(self) -> GpuSpec {
        match self {
            Gpu::P100 => GpuSpec { name: "Tesla P100", year: 2016, architecture: "Pascal", cuda_cores: 3584, memory_gb: 16, fp16_tflops: 21.2 },
            Gpu::V100 => GpuSpec { name: "Tesla V100", year: 2017, architecture: "Volta", cuda_cores: 5120, memory_gb: 32, fp16_tflops: 31.4 },
            Gpu::A100 => GpuSpec { name: "A100", year: 2020, architecture: "Ampere", cuda_cores: 6912, memory_gb: 80, fp16_tflops: 77.97 },
            Gpu::H100 => GpuSpec { name: "H100", year: 2022, architecture: "Hopper", cuda_cores: 16896, memory_gb: 80, fp16_tflops: 204.9 },
            // §6: "the fastest GPU, A100, is about 3.42 times faster
            // compared with RTX6000" → 77.97 / 3.42 ≈ 22.8.
            Gpu::Rtx6000 => GpuSpec { name: "Quadro RTX 6000", year: 2018, architecture: "Turing", cuda_cores: 4608, memory_gb: 24, fp16_tflops: 22.8 },
            Gpu::RtxA5000 => GpuSpec { name: "RTX A5000", year: 2021, architecture: "Ampere", cuda_cores: 8192, memory_gb: 24, fp16_tflops: 27.8 },
            Gpu::RtxA4000 => GpuSpec { name: "RTX A4000", year: 2021, architecture: "Ampere", cuda_cores: 6144, memory_gb: 16, fp16_tflops: 19.2 },
            Gpu::QuadroP4000 => GpuSpec { name: "Quadro P4000", year: 2017, architecture: "Pascal", cuda_cores: 1792, memory_gb: 8, fp16_tflops: 5.3 },
        }
    }

    /// FP16 throughput in FLOPS (not TFLOPS).
    pub fn flops(self) -> f64 {
        self.spec().fp16_tflops * 1e12
    }

    /// All catalog entries, in Table 1 order followed by the workstation
    /// parts.
    pub fn all() -> &'static [Gpu] {
        &[
            Gpu::P100,
            Gpu::V100,
            Gpu::A100,
            Gpu::H100,
            Gpu::Rtx6000,
            Gpu::RtxA5000,
            Gpu::RtxA4000,
            Gpu::QuadroP4000,
        ]
    }

    /// The Table 1 "evolution of NVIDIA data center GPUs" rows.
    pub fn table1() -> &'static [Gpu] {
        &[Gpu::P100, Gpu::V100, Gpu::A100, Gpu::H100]
    }
}

impl std::fmt::Display for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spec().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flagship_generations_double() {
        // Table 1's headline: each flagship is >2x its predecessor.
        let t1 = Gpu::table1();
        for pair in t1.windows(2) {
            let ratio = pair[1].spec().fp16_tflops / pair[0].spec().fp16_tflops;
            assert!(ratio > 1.4, "{} -> {} ratio {ratio}", pair[0], pair[1]);
        }
        assert!(Gpu::A100.spec().fp16_tflops / Gpu::V100.spec().fp16_tflops > 2.0);
        assert!(Gpu::H100.spec().fp16_tflops / Gpu::A100.spec().fp16_tflops > 2.0);
    }

    #[test]
    fn a100_to_rtx6000_matches_paper_heterogeneity() {
        let ratio = Gpu::A100.spec().fp16_tflops / Gpu::Rtx6000.spec().fp16_tflops;
        assert!((ratio - 3.42).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn display_uses_marketing_name() {
        assert_eq!(Gpu::A100.to_string(), "A100");
        assert_eq!(Gpu::QuadroP4000.to_string(), "Quadro P4000");
    }

    #[test]
    fn all_contains_every_cluster_part() {
        for g in [Gpu::A100, Gpu::V100, Gpu::Rtx6000, Gpu::RtxA5000, Gpu::RtxA4000, Gpu::QuadroP4000] {
            assert!(Gpu::all().contains(&g));
        }
    }
}
