//! Typed runtime options consolidating the `CANNIKIN_*` environment knobs.
//!
//! Instead of each layer calling `std::env::var` ad hoc, [`RuntimeOptions::from_env`]
//! parses every knob once into a typed struct:
//!
//! | Variable             | Meaning                                             |
//! |----------------------|-----------------------------------------------------|
//! | `CANNIKIN_TELEMETRY` | export targets, `format:path[,format:path]`         |
//! | `CANNIKIN_THREADS`   | kernel thread budget for the minidnn matmul kernels |
//! | `CANNIKIN_TRANSPORT` | collective backend: `inprocess`, `tcp`, `tcp:ADDR`  |
//! | `CANNIKIN_CODEC`     | gradient codec: `none`, `bf16`, `f16`, `topk:N`     |
//! | `CANNIKIN_SIMD`      | GEMM kernel policy: `auto`, `scalar`, `avx2`, `off` |
//! | `CANNIKIN_POLICY`    | adaptation policy: `optperf`, `even`, `lbbsp`, `rl` |
//!
//! **Precedence is builder > env > default**: a value set explicitly on a
//! trainer builder always wins; an env variable fills in anything the
//! builder left unset; the compiled-in default (in-process transport, auto
//! thread budget, raw-f32 gradients, auto kernel dispatch, no telemetry
//! export) covers the rest. The engine builders
//! ([`crate::engine::CannikinTrainerBuilder`],
//! [`crate::engine::ParallelTrainerBuilder`]) apply exactly this rule for
//! the transport and codec knobs.
//!
//! `CANNIKIN_SIMD` is consumed directly by the minidnn kernels with a
//! lenient fallback (an unrecognized value means `auto`, because kernel
//! dispatch happens on hot paths with no error channel); parsing it here
//! gives front-ends a strict validation point so typos still surface.

use crate::error::CannikinError;
use crate::policy::PolicyKind;
use cannikin_collectives::{Codec, TransportKind};
use cannikin_telemetry::env::{parse_targets, ExportTarget};
use minidnn::tensor::simd::SimdPolicy;

/// Name of the transport-selection environment variable.
pub const TRANSPORT_ENV: &str = "CANNIKIN_TRANSPORT";

/// Name of the gradient-codec environment variable.
pub const CODEC_ENV: &str = "CANNIKIN_CODEC";

/// Name of the adaptation-policy environment variable.
pub const POLICY_ENV: &str = "CANNIKIN_POLICY";

/// Re-export of the GEMM kernel-policy variable name for one-stop lookup
/// (the kernels themselves read it leniently; see the module docs).
pub const SIMD_ENV: &str = minidnn::tensor::simd::SIMD_ENV;

/// Name of the kernel-thread-budget environment variable (the same one the
/// minidnn kernels honour directly as their default-of-last-resort).
pub const THREADS_ENV: &str = "CANNIKIN_THREADS";

/// Re-export of the telemetry spec variable name for one-stop lookup.
pub const TELEMETRY_ENV: &str = cannikin_telemetry::env::ENV_VAR;

/// Every `CANNIKIN_*` knob, parsed once.
#[derive(Debug, Clone, Default)]
pub struct RuntimeOptions {
    /// Telemetry export destinations from `CANNIKIN_TELEMETRY` (empty when
    /// unset).
    pub telemetry: Vec<ExportTarget>,
    /// Kernel thread budget from `CANNIKIN_THREADS` (`None` = auto).
    pub threads: Option<usize>,
    /// Collective transport from `CANNIKIN_TRANSPORT` (`None` = unset; the
    /// engines then default to [`TransportKind::InProcess`]).
    pub transport: Option<TransportKind>,
    /// Gradient codec from `CANNIKIN_CODEC` (`None` = unset; the engines
    /// then default to the lossless [`Codec::None`]).
    pub codec: Option<Codec>,
    /// GEMM kernel policy from `CANNIKIN_SIMD` (`None` = unset = runtime
    /// auto-detection).
    pub simd: Option<SimdPolicy>,
    /// Adaptation policy from `CANNIKIN_POLICY` (`None` = unset; the
    /// engines then default to [`PolicyKind::OptPerf`]).
    pub policy: Option<PolicyKind>,
}

impl RuntimeOptions {
    /// Parse every knob from the process environment. Unset variables are
    /// simply absent from the result; *set but malformed* values are hard
    /// errors — a typo'd knob silently falling back to a default is how
    /// benchmarks end up measuring the wrong backend.
    ///
    /// # Errors
    ///
    /// [`CannikinError::InvalidConfig`] naming the offending variable.
    pub fn from_env() -> Result<Self, CannikinError> {
        let mut options = RuntimeOptions::default();
        if let Ok(spec) = std::env::var(TELEMETRY_ENV) {
            options.telemetry = parse_targets(&spec)
                .map_err(|e| CannikinError::InvalidConfig(format!("{TELEMETRY_ENV}: {e}")))?;
        }
        options.threads = knob(THREADS_ENV)?;
        options.transport = Self::transport_from_env()?;
        options.codec = Self::codec_from_env()?;
        options.policy = Self::policy_from_env()?;
        options.simd = knob(SIMD_ENV)?;
        Ok(options)
    }

    /// Parse only the `CANNIKIN_TRANSPORT` knob (`None` when unset). The
    /// engine builders use this so that an unrelated malformed variable
    /// (say, a typo'd `CANNIKIN_THREADS`, which the kernels handle with
    /// their own fallback) cannot fail a trainer that never reads it.
    ///
    /// # Errors
    ///
    /// [`CannikinError::InvalidConfig`] when the variable is set but
    /// unparseable.
    pub fn transport_from_env() -> Result<Option<TransportKind>, CannikinError> {
        knob(TRANSPORT_ENV)
    }

    /// Parse only the `CANNIKIN_CODEC` knob (`None` when unset), isolated
    /// for the same reason as [`RuntimeOptions::transport_from_env`]: a
    /// malformed unrelated variable must not fail a build that never reads
    /// it.
    ///
    /// # Errors
    ///
    /// [`CannikinError::InvalidConfig`] when the variable is set but
    /// unparseable.
    pub fn codec_from_env() -> Result<Option<Codec>, CannikinError> {
        knob(CODEC_ENV)
    }

    /// Parse only the `CANNIKIN_POLICY` knob (`None` when unset), isolated
    /// for the same reason as [`RuntimeOptions::transport_from_env`]: a
    /// malformed unrelated variable must not fail a build that never reads
    /// it.
    ///
    /// # Errors
    ///
    /// [`CannikinError::InvalidConfig`] when the variable is set but
    /// unparseable.
    pub fn policy_from_env() -> Result<Option<PolicyKind>, CannikinError> {
        knob(POLICY_ENV)
    }

    /// The transport to use given an optional builder-level override:
    /// builder > env > [`TransportKind::InProcess`].
    pub fn resolve_transport(&self, builder: Option<TransportKind>) -> TransportKind {
        builder.or_else(|| self.transport.clone()).unwrap_or_default()
    }

    /// The gradient codec to use given an optional builder-level override:
    /// builder > env > [`Codec::None`].
    pub fn resolve_codec(&self, builder: Option<Codec>) -> Codec {
        builder.or(self.codec).unwrap_or_default()
    }

    /// The adaptation policy to use given an optional builder-level
    /// override: builder > env > [`PolicyKind::OptPerf`].
    pub fn resolve_policy(&self, builder: Option<PolicyKind>) -> PolicyKind {
        builder.or(self.policy).unwrap_or_default()
    }
}

/// Read one `CANNIKIN_*` variable: unset or blank is `None`, anything
/// else must parse, and a value that does not is an error naming the
/// variable.
fn knob<T>(var: &str) -> Result<Option<T>, CannikinError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match std::env::var(var) {
        Ok(raw) if !raw.trim().is_empty() => raw
            .trim()
            .parse()
            .map(Some)
            .map_err(|e| CannikinError::InvalidConfig(format!("{var}: {e}"))),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var tests mutate process-global state; they run under one lock so
    // parallel test threads never observe each other's variables.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_env<T>(vars: &[(&str, Option<&str>)], f: impl FnOnce() -> T) -> T {
        let _guard = ENV_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let saved: Vec<(String, Option<String>)> =
            vars.iter().map(|(k, _)| ((*k).to_string(), std::env::var(*k).ok())).collect();
        for (k, v) in vars {
            match v {
                Some(v) => std::env::set_var(k, v),
                None => std::env::remove_var(k),
            }
        }
        let out = f();
        for (k, v) in saved {
            match v {
                Some(v) => std::env::set_var(&k, v),
                None => std::env::remove_var(&k),
            }
        }
        out
    }

    #[test]
    fn unset_environment_yields_defaults() {
        let options = with_env(
            &[
                (TELEMETRY_ENV, None),
                (THREADS_ENV, None),
                (TRANSPORT_ENV, None),
                (CODEC_ENV, None),
                (SIMD_ENV, None),
                (POLICY_ENV, None),
            ],
            RuntimeOptions::from_env,
        )
        .expect("empty env parses");
        assert!(options.telemetry.is_empty());
        assert_eq!(options.threads, None);
        assert_eq!(options.transport, None);
        assert_eq!(options.codec, None);
        assert_eq!(options.simd, None);
        assert_eq!(options.policy, None);
        assert_eq!(options.resolve_transport(None), TransportKind::InProcess);
        assert_eq!(options.resolve_codec(None), Codec::None);
        assert_eq!(options.resolve_policy(None), PolicyKind::OptPerf);
    }

    #[test]
    fn set_knobs_parse_into_typed_values() {
        let options = with_env(
            &[
                (TELEMETRY_ENV, Some("jsonl:/tmp/run.jsonl")),
                (THREADS_ENV, Some("4")),
                (TRANSPORT_ENV, Some("tcp:127.0.0.1:5000")),
                (CODEC_ENV, Some("topk:125")),
                (SIMD_ENV, Some("scalar")),
                (POLICY_ENV, Some("rl")),
            ],
            RuntimeOptions::from_env,
        )
        .expect("valid env parses");
        assert_eq!(options.telemetry.len(), 1);
        assert_eq!(options.threads, Some(4));
        assert_eq!(
            options.transport,
            Some(TransportKind::Tcp { rendezvous: "127.0.0.1:5000".to_string() })
        );
        assert_eq!(options.codec, Some(Codec::TopK { permille: 125 }));
        assert_eq!(options.simd, Some(SimdPolicy::Scalar));
        assert_eq!(options.policy, Some(PolicyKind::Rl));
    }

    #[test]
    fn malformed_knobs_are_hard_errors() {
        for (var, value) in [
            (TRANSPORT_ENV, "carrier-pigeon"),
            (THREADS_ENV, "many"),
            (TELEMETRY_ENV, "csv:/tmp/x"),
            (CODEC_ENV, "int3"),
            (CODEC_ENV, "topk:0"),
            (SIMD_ENV, "avx1024"),
            (POLICY_ENV, "alphago"),
        ] {
            let err = with_env(
                &[
                    (TELEMETRY_ENV, (var == TELEMETRY_ENV).then_some(value)),
                    (THREADS_ENV, (var == THREADS_ENV).then_some(value)),
                    (TRANSPORT_ENV, (var == TRANSPORT_ENV).then_some(value)),
                    (CODEC_ENV, (var == CODEC_ENV).then_some(value)),
                    (SIMD_ENV, (var == SIMD_ENV).then_some(value)),
                    (POLICY_ENV, (var == POLICY_ENV).then_some(value)),
                ],
                RuntimeOptions::from_env,
            )
            .expect_err("malformed value must not be ignored");
            assert!(err.to_string().contains(var), "{err} should name {var}");
        }
    }

    #[test]
    fn codec_parse_ignores_unrelated_knobs() {
        let codec = with_env(
            &[(TRANSPORT_ENV, Some("carrier-pigeon")), (CODEC_ENV, Some("bf16"))],
            RuntimeOptions::codec_from_env,
        )
        .expect("unrelated knob must not fail the codec parse");
        assert_eq!(codec, Some(Codec::Bf16));
    }

    #[test]
    fn transport_parse_ignores_unrelated_knobs() {
        // A typo'd CANNIKIN_THREADS must not fail a trainer build that only
        // consults the transport variable (the kernels have their own
        // lenient fallback for the thread budget).
        let transport = with_env(
            &[(THREADS_ENV, Some("garbage")), (TRANSPORT_ENV, Some("tcp"))],
            RuntimeOptions::transport_from_env,
        )
        .expect("unrelated knob must not fail the transport parse");
        assert_eq!(transport, Some(TransportKind::tcp()));
    }

    #[test]
    fn policy_parse_ignores_unrelated_knobs_and_lists_alternatives() {
        let policy = with_env(
            &[(TRANSPORT_ENV, Some("carrier-pigeon")), (POLICY_ENV, Some("lbbsp"))],
            RuntimeOptions::policy_from_env,
        )
        .expect("unrelated knob must not fail the policy parse");
        assert_eq!(policy, Some(PolicyKind::LbBsp));

        // Mirror of the TransportKind contract: a bad value names the
        // variable and the error lists every valid alternative.
        let err = with_env(&[(POLICY_ENV, Some("alphago"))], RuntimeOptions::policy_from_env)
            .expect_err("malformed policy is a hard error");
        let msg = err.to_string();
        assert!(msg.contains(POLICY_ENV), "{msg} should name {POLICY_ENV}");
        for alt in ["optperf", "even", "lbbsp", "rl"] {
            assert!(msg.contains(alt), "{msg} should list `{alt}`");
        }
    }

    #[test]
    fn builder_overrides_env_overrides_default() {
        let from_env = RuntimeOptions {
            transport: Some(TransportKind::tcp()),
            ..RuntimeOptions::default()
        };
        // Builder wins.
        assert_eq!(from_env.resolve_transport(Some(TransportKind::InProcess)), TransportKind::InProcess);
        // Env fills in.
        assert_eq!(from_env.resolve_transport(None), TransportKind::tcp());
        // Default covers the rest.
        assert_eq!(RuntimeOptions::default().resolve_transport(None), TransportKind::InProcess);

        // The codec knob follows the same ladder.
        let from_env = RuntimeOptions { codec: Some(Codec::F16), ..RuntimeOptions::default() };
        assert_eq!(from_env.resolve_codec(Some(Codec::Bf16)), Codec::Bf16);
        assert_eq!(from_env.resolve_codec(None), Codec::F16);
        assert_eq!(RuntimeOptions::default().resolve_codec(None), Codec::None);

        // And so does the policy knob.
        let from_env = RuntimeOptions { policy: Some(PolicyKind::Even), ..RuntimeOptions::default() };
        assert_eq!(from_env.resolve_policy(Some(PolicyKind::Rl)), PolicyKind::Rl);
        assert_eq!(from_env.resolve_policy(None), PolicyKind::Even);
        assert_eq!(RuntimeOptions::default().resolve_policy(None), PolicyKind::OptPerf);
    }
}
