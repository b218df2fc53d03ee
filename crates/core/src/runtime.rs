//! The `CANNIKIN_*` environment knobs the engine builders read.
//!
//! Each variable is parsed in exactly one module — the one that consumes
//! it:
//!
//! | Variable             | Meaning                                             | Parsed by                                   | Blank / malformed                  |
//! |----------------------|-----------------------------------------------------|---------------------------------------------|------------------------------------|
//! | `CANNIKIN_TRANSPORT` | collective backend: `inprocess`, `tcp`, `tcp:ADDR`  | [`transport_from_env`] (here)               | absent / `InvalidConfig`           |
//! | `CANNIKIN_CODEC`     | gradient codec: `none`, `bf16`, `f16`, `topk:N`     | [`codec_from_env`] (here)                   | absent / `InvalidConfig`           |
//! | `CANNIKIN_POLICY`    | adaptation policy: `optperf`, `even`, `lbbsp`, `rl` | [`policy_from_env`] (here)                  | absent / `InvalidConfig`           |
//! | `CANNIKIN_THREADS`   | kernel thread budget for the minidnn matmul kernels | `minidnn::tensor::threads::configured_threads` | available parallelism (both)    |
//! | `CANNIKIN_SIMD`      | GEMM tile: `auto` (widest), `avx512`, `avx2`, `off` | `minidnn::tensor::simd::configured_kernel`  | `auto` (both)                      |
//! | `CANNIKIN_TELEMETRY` | export targets, `format:path[,format:path]`         | `cannikin_telemetry::env::export_from_env`  | no export / `Err` naming the entry |
//!
//! The kernel knobs fall back instead of failing because dispatch happens
//! on hot paths with no error channel, once per process.
//!
//! **Precedence is builder > env > default**: a value set explicitly on a
//! trainer builder always wins; an env variable fills in anything the
//! builder left unset; the compiled-in default (in-process transport,
//! raw-f32 gradients, the OptPerf policy) covers the rest. The engine
//! builders ([`crate::engine::CannikinTrainerBuilder`],
//! [`crate::engine::ParallelTrainerBuilder`]) apply exactly this rule, one
//! reader per knob, so a malformed variable fails only a build that reads
//! it.

use crate::error::CannikinError;
use crate::policy::PolicyKind;
use cannikin_collectives::{Codec, TransportKind};

/// Name of the transport-selection environment variable.
pub const TRANSPORT_ENV: &str = "CANNIKIN_TRANSPORT";

/// Name of the gradient-codec environment variable.
pub const CODEC_ENV: &str = "CANNIKIN_CODEC";

/// Name of the adaptation-policy environment variable.
pub const POLICY_ENV: &str = "CANNIKIN_POLICY";

/// The `CANNIKIN_TRANSPORT` knob (`None` when unset or blank).
///
/// # Errors
///
/// [`CannikinError::InvalidConfig`] naming the variable when it is set but
/// unparseable — a typo'd knob silently falling back to a default is how
/// benchmarks end up measuring the wrong backend.
pub fn transport_from_env() -> Result<Option<TransportKind>, CannikinError> {
    knob(TRANSPORT_ENV)
}

/// The `CANNIKIN_CODEC` knob (`None` when unset or blank).
///
/// # Errors
///
/// As [`transport_from_env`].
pub fn codec_from_env() -> Result<Option<Codec>, CannikinError> {
    knob(CODEC_ENV)
}

/// The `CANNIKIN_POLICY` knob (`None` when unset or blank).
///
/// # Errors
///
/// As [`transport_from_env`].
pub fn policy_from_env() -> Result<Option<PolicyKind>, CannikinError> {
    knob(POLICY_ENV)
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
    fn unset_and_blank_knobs_are_absent() {
        for value in [None, Some(""), Some("  ")] {
            let (transport, codec, policy) = with_env(
                &[(TRANSPORT_ENV, value), (CODEC_ENV, value), (POLICY_ENV, value)],
                || (transport_from_env(), codec_from_env(), policy_from_env()),
            );
            assert_eq!(transport.expect("absent, not malformed"), None, "{value:?}");
            assert_eq!(codec.expect("absent, not malformed"), None, "{value:?}");
            assert_eq!(policy.expect("absent, not malformed"), None, "{value:?}");
        }
    }

    #[test]
    fn set_knobs_parse_into_typed_values() {
        let (transport, codec, policy) = with_env(
            &[
                (TRANSPORT_ENV, Some("tcp:127.0.0.1:5000")),
                (CODEC_ENV, Some(" topk:125 ")),
                (POLICY_ENV, Some("rl")),
            ],
            || (transport_from_env(), codec_from_env(), policy_from_env()),
        );
        assert_eq!(
            transport.expect("valid"),
            Some(TransportKind::Tcp { rendezvous: "127.0.0.1:5000".to_string() })
        );
        assert_eq!(codec.expect("valid"), Some(Codec::TopK { permille: 125 }));
        assert_eq!(policy.expect("valid"), Some(PolicyKind::Rl));
    }

    #[test]
    fn malformed_knobs_are_hard_errors() {
        fn named<T: std::fmt::Debug>(var: &str, value: &str, read: fn() -> Result<Option<T>, CannikinError>) {
            let err = with_env(&[(var, Some(value))], read).expect_err("malformed value must not be ignored");
            assert!(err.to_string().contains(var), "{err} should name {var}");
        }
        named(TRANSPORT_ENV, "carrier-pigeon", transport_from_env);
        named(CODEC_ENV, "int3", codec_from_env);
        named(CODEC_ENV, "topk:0", codec_from_env);
        named(POLICY_ENV, "alphago", policy_from_env);
    }

    #[test]
    fn codec_parse_ignores_unrelated_knobs() {
        let codec = with_env(&[(TRANSPORT_ENV, Some("carrier-pigeon")), (CODEC_ENV, Some("bf16"))], codec_from_env)
            .expect("unrelated knob must not fail the codec parse");
        assert_eq!(codec, Some(Codec::Bf16));
    }

    #[test]
    fn transport_parse_ignores_unrelated_knobs() {
        // A typo'd CANNIKIN_THREADS must not fail a trainer build that only
        // consults the transport variable (the kernels have their own
        // lenient fallback for the thread budget).
        let transport =
            with_env(&[("CANNIKIN_THREADS", Some("garbage")), (TRANSPORT_ENV, Some("tcp"))], transport_from_env)
                .expect("unrelated knob must not fail the transport parse");
        assert_eq!(transport, Some(TransportKind::tcp()));
    }

    #[test]
    fn policy_parse_ignores_unrelated_knobs_and_lists_alternatives() {
        let policy =
            with_env(&[(TRANSPORT_ENV, Some("carrier-pigeon")), (POLICY_ENV, Some("lbbsp"))], policy_from_env)
                .expect("unrelated knob must not fail the policy parse");
        assert_eq!(policy, Some(PolicyKind::LbBsp));

        // Mirror of the TransportKind contract: a bad value names the
        // variable and the error lists every valid alternative.
        let err = with_env(&[(POLICY_ENV, Some("alphago"))], policy_from_env)
            .expect_err("malformed policy is a hard error");
        let msg = err.to_string();
        assert!(msg.contains(POLICY_ENV), "{msg} should name {POLICY_ENV}");
        for alt in ["optperf", "even", "lbbsp", "rl"] {
            assert!(msg.contains(alt), "{msg} should list `{alt}`");
        }
    }
}
