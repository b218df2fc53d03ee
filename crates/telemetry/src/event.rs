//! Typed structured events — the things the Cannikin paper reasons about.
//!
//! Every event, tag enum and wire key is declared exactly once, in the
//! `tag_enum!` and `events!` tables below; the structs, the [`Event`]
//! enum, the kind tags and the flat JSON mapping used by the exporters are
//! all generated from them on top of [`crate::json`]. [`Record`] wraps one
//! event with a session-relative timestamp and the `(node, rank)` identity
//! of the emitting thread (Chrome-trace `pid`/`tid`); [`Record::from_json`]
//! inverts [`Record::to_json`] for the round-trip tests and offline analysis.

use crate::json::Json;

/// How one field type maps to and from its JSON value — the per-type wire
/// rules, stated once for every event field.
pub(crate) trait Wire: Sized {
    /// The JSON form of the value.
    fn to_wire(&self) -> Json;

    /// Read the value stored under `key` (`None` when the key is absent).
    /// Errors name the key.
    fn from_wire(value: Option<&Json>, key: &str) -> Result<Self, String>;
}

fn present<'a>(value: Option<&'a Json>, key: &str) -> Result<&'a Json, String> {
    value.ok_or_else(|| format!("missing `{key}`"))
}

impl Wire for u64 {
    fn to_wire(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn from_wire(value: Option<&Json>, key: &str) -> Result<Self, String> {
        present(value, key)?.as_u64().ok_or_else(|| format!("mistyped `{key}`"))
    }
}

impl Wire for u32 {
    fn to_wire(&self) -> Json {
        Json::Num(f64::from(*self))
    }
    fn from_wire(value: Option<&Json>, key: &str) -> Result<Self, String> {
        u32::try_from(u64::from_wire(value, key)?).map_err(|_| format!("`{key}` out of range for u32"))
    }
}

impl Wire for f64 {
    /// Non-finite values export as `null` (JSON has no NaN/Infinity).
    fn to_wire(&self) -> Json {
        Json::num(*self)
    }
    /// `null` reads back as NaN.
    fn from_wire(value: Option<&Json>, key: &str) -> Result<Self, String> {
        match present(value, key)? {
            Json::Null => Ok(f64::NAN),
            other => other.as_f64().ok_or_else(|| format!("mistyped `{key}`")),
        }
    }
}

impl Wire for bool {
    fn to_wire(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_wire(value: Option<&Json>, key: &str) -> Result<Self, String> {
        present(value, key)?.as_bool().ok_or_else(|| format!("mistyped `{key}`"))
    }
}

impl Wire for String {
    fn to_wire(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_wire(value: Option<&Json>, key: &str) -> Result<Self, String> {
        present(value, key)?.as_str().map(str::to_string).ok_or_else(|| format!("mistyped `{key}`"))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn to_wire(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_wire)
    }
    /// Absent and `null` both read as `None`.
    fn from_wire(value: Option<&Json>, key: &str) -> Result<Self, String> {
        match value {
            None | Some(Json::Null) => Ok(None),
            some => T::from_wire(some, key).map(Some),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_wire(&self) -> Json {
        Json::Arr(self.iter().map(T::to_wire).collect())
    }
    fn from_wire(value: Option<&Json>, key: &str) -> Result<Self, String> {
        let items = present(value, key)?.as_array().ok_or_else(|| format!("mistyped `{key}`"))?;
        items.iter().map(|item| T::from_wire(Some(item), key)).collect()
    }
}

/// Declares a tag enum once, as `Variant = "tag"` rows: generates the enum,
/// its `as_str` and its [`Wire`] rule (a JSON string; unknown tags are errors).
macro_rules! tag_enum {
    ($(#[$meta:meta])* pub enum $name:ident { $($(#[$vmeta:meta])* $variant:ident = $tag:literal),+ $(,)? }) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Stable string tag (the value's JSONL form).
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $tag,)+
                }
            }
        }

        impl Wire for $name {
            fn to_wire(&self) -> Json {
                Json::Str(self.as_str().to_string())
            }
            fn from_wire(value: Option<&Json>, key: &str) -> Result<Self, String> {
                match present(value, key)?.as_str() {
                    $(Some($tag) => Ok($name::$variant),)+
                    _ => Err(format!("mistyped or unknown `{key}`")),
                }
            }
        }
    };
}

/// A field's wire key: its name, unless the schema gives one with `as`.
macro_rules! wire_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// Read one field: required, unless the schema gives the value an absent
/// key stands for.
macro_rules! read_field {
    ($v:ident, $key:expr) => {
        Wire::from_wire($v.get($key), $key)?
    };
    ($v:ident, $key:expr, $default:expr) => {
        match $v.get($key) {
            None => $default,
            value => Wire::from_wire(value, $key)?,
        }
    };
}

/// The event schema. Each entry declares one payload struct — fields in
/// wire order, `field as "key"` where the wire key differs from the field
/// name (payload keys share one flat object with the envelope's `node` /
/// `rank` / `type`), `= default` where an absent key has a meaning — then,
/// after `=>`, the [`Event`] variant(s) carrying it with their kind tags.
/// Generates the structs, [`Event`], [`Event::kind`], [`Event::KINDS`] and
/// the flat field writer and reader behind [`Record::to_json`] /
/// [`Record::from_json`] and the Chrome exporter.
macro_rules! events {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident $(as $key:literal)? : $ty:ty $(= $default:expr)?),* $(,)?
        }
        => { $($(#[$vmeta:meta])* $variant:ident = $kind:literal),+ $(,)? }
    )*) => {
        $(
            $(#[$meta])*
            pub struct $name {
                $($(#[$fmeta])* pub $field: $ty,)*
            }

            impl $name {
                fn write_fields(&self, out: &mut Vec<(String, Json)>) {
                    $(out.push((wire_key!($field $($key)?).to_string(), self.$field.to_wire()));)*
                }

                fn read_fields(v: &Json) -> Result<$name, String> {
                    Ok($name { $($field: read_field!(v, wire_key!($field $($key)?) $(, $default)?),)* })
                }
            }
        )*

        /// The closed set of telemetry events.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {
            $($($(#[$vmeta])* $variant($name),)+)*
        }

        impl Event {
            /// Every kind tag, in schema order.
            pub const KINDS: &'static [&'static str] = &[$($($kind,)+)*];

            /// The event's stable kind tag (the `type` field of the JSONL format).
            pub fn kind(&self) -> &'static str {
                match self {
                    $($(Event::$variant(_) => $kind,)+)*
                }
            }

            /// Append the flattened payload fields (everything but the
            /// envelope) in wire order.
            pub(crate) fn write_fields(&self, out: &mut Vec<(String, Json)>) {
                match self {
                    $($(Event::$variant(e))|+ => e.write_fields(out),)*
                }
            }

            fn read_fields(kind: &str, v: &Json) -> Result<Event, String> {
                match kind {
                    $($($kind => $name::read_fields(v).map(Event::$variant),)+)*
                    other => Err(format!("unknown event type `{other}`")),
                }
            }
        }
    };
}

tag_enum! {
    /// Which path produced a split decision (Fig. 4 control loop).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum SplitSource {
        /// Epoch-0 even split at B₀ (no information yet).
        EvenInit = "even_init",
        /// The Eq. (8) per-sample-time bootstrap.
        Bootstrap = "bootstrap",
        /// The OptPerf solver on learned models.
        Solver = "solver",
        /// The solver on a preloaded (checkpointed) model — bootstrap skipped.
        WarmStart = "warm_start",
    }
}

tag_enum! {
    /// The class of injected (or observed) fault a [`FaultInjected`] event
    /// reports.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultKind {
        /// A node died hard: its results for the step are lost and it will
        /// not come back under the same identity.
        NodeCrash = "node_crash",
        /// A node left gracefully (scheduled departure): the step completes,
        /// the group shrinks afterwards.
        NodeLeave = "node_leave",
        /// A node joined the cluster (scheduled arrival).
        NodeJoin = "node_join",
        /// A transient communication failure that was recovered by retrying.
        CommFailure = "comm_failure",
        /// A communication failure that exhausted its retry budget; the whole
        /// step must be retried.
        CommTimeout = "comm_timeout",
        /// A bounded-duration compute slowdown burst on one node.
        SlowdownBurst = "slowdown_burst",
        /// A flapping-contention toggle: the node's available compute fraction
        /// switched state.
        ContentionFlap = "contention_flap",
    }
}

tag_enum! {
    /// The recovery response a [`RecoveryAction`] event reports.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecoveryKind {
        /// One retry of a failed collective (per-attempt granularity).
        CommRetry = "comm_retry",
        /// The engine re-ran a whole training step after a comm timeout.
        StepRetry = "step_retry",
        /// The group shrank: a dead/leaving rank was evicted and its analyzer
        /// state dropped.
        GroupShrink = "group_shrink",
        /// The group grew: a joining node was admitted.
        GroupGrow = "group_grow",
        /// The split was re-solved under the new membership (Σ b_i = B).
        Replan = "replan",
    }
}

tag_enum! {
    /// Why a fleet job lost nodes (the `reason` of a [`JobPreempted`] event).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum PreemptKind {
        /// The weighted fair-share allocator rebalanced nodes toward jobs
        /// with more statistical headroom.
        FairShare = "fair_share",
        /// A higher-priority job evicted this one from (part of) its nodes.
        PriorityEviction = "priority_eviction",
        /// The nodes died (crash/leave surfaced by the job's fault plan);
        /// they return to the pool as dead, not as free capacity.
        NodeFailure = "node_failure",
    }
}

events! {
    /// One node's timing of one training step: the per-batch observable the
    /// OptPerf fits are built from.
    #[derive(Debug, Clone, PartialEq)]
    pub struct StepTiming {
        /// Step index within the epoch.
        pub step: u64,
        /// Emitting rank / node index.
        pub rank as "rank_field": u32,
        /// Local batch size `b_i`.
        pub b_i: u64,
        /// Total compute time (`a_i + P_i`), s.
        pub t_compute: f64,
        /// Observed gradient-synchronization time, s (0 for no-sync steps).
        pub t_comm: f64,
        /// Observed compute/communication overlap ratio γ (0 when unknown).
        pub overlap: f64,
    } => {
        /// Per-node, per-step timing.
        StepTiming = "step_timing",
    }

    /// The engine's per-epoch local-batch split decision.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SplitDecision {
        /// Total batch size B.
        pub total: u64,
        /// The per-node local batches `r` (summing to `total`).
        pub local: Vec<u64>,
        /// Predicted batch time of the split, s (`None` for model-free paths).
        pub predicted_t: Option<f64>,
        /// Which planning path produced the split.
        pub source: SplitSource,
    } => {
        /// A local-batch split decision.
        SplitDecision = "split_decision",
    }

    /// The adaptation policy that produced the epoch's plan — emitted next to
    /// the [`SplitDecision`] it annotates, so a trace names *who* decided
    /// alongside *what* was decided.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PolicyDecision {
        /// Stable policy name (e.g. `optperf`, `even`, `lbbsp`, `rl`).
        pub policy: String,
        /// Epoch the plan applies to.
        pub epoch: u64,
        /// Total batch size the policy proposed.
        pub total: u64,
    } => {
        /// The policy that authored the adjacent split decision.
        PolicyDecision = "policy_decision",
    }

    /// One gradient-noise-scale estimate (Eq. (10) + Theorem 4.1).
    #[derive(Debug, Clone, PartialEq)]
    pub struct GnsEstimated {
        /// The noise scale `B_noise = tr(Σ)/|G|²`.
        pub b_noise: f64,
        /// Estimated squared gradient norm `|G|²`.
        pub grad_sq: f64,
        /// Estimated total gradient variance `tr(Σ)`.
        pub variance: f64,
        /// The per-node minimum-variance weights applied to the variance
        /// estimators (uniform for the naive-mean ablation).
        pub weights: Vec<f64>,
    } => {
        /// A gradient-noise-scale estimate.
        GnsEstimated = "gns_estimate",
    }

    /// One goodput-driven total-batch-size selection.
    #[derive(Debug, Clone, PartialEq)]
    pub struct GoodputEval {
        /// Gradient noise scale φ the selection ran under.
        pub phi: f64,
        /// Chosen total batch size.
        pub total: u64,
        /// Predicted goodput at the chosen size (reference samples/s).
        pub goodput: f64,
        /// Candidate totals evaluated by the cached sweep.
        pub candidates: u32,
        /// Whether the `OptPerf_init` cache was (re)built this selection.
        pub cache_rebuilt: bool,
    } => {
        /// A goodput-driven batch-size selection.
        GoodputEval = "goodput_eval",
    }

    /// Timing of one gradient bucket's ring all-reduce.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct AllReduceBucket {
        /// Bucket index in reduction order (output layers first).
        pub bucket: u32,
        /// Elements reduced in this bucket.
        pub elems: u64,
        /// Wall time of the bucket's all-reduce, ns.
        pub wall_ns: u64,
        /// Bytes this rank put on the wire for the bucket (frames sent by the
        /// underlying transport; 0 in traces recorded before the field existed).
        pub bytes: u64 = 0,
    } => {
        /// One all-reduce bucket timing.
        AllReduceBucket = "all_reduce_bucket",
    }

    /// One OptPerf solver invocation (the Table 6 overhead unit).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SolverInvocation {
        /// Wall time of the invocation, ns.
        pub wall_ns: u64,
        /// Total batch size solved for.
        pub total: u64,
        /// Candidate totals this invocation served (1 for a single solve).
        pub candidates: u32,
        /// Linear-system solves performed.
        pub solves: u32,
        /// Realized compute-bottleneck boundary C.
        pub boundary: u32,
    } => {
        /// One solver invocation.
        SolverInvocation = "solver_invocation",
    }

    /// The analyzer stopped trusting a node's learned `t = c·b + d`: its
    /// step time at an already-warm local batch size stayed far from that
    /// size's running mean for several batches in a row, so the node's
    /// history was cleared and will be relearned.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct RegimeChange {
        /// The node whose law changed.
        pub node as "regime_node": u32,
        /// The warm local batch size the change was seen at.
        pub b_i: u64,
        /// That size's running mean compute time (`a + P`), s.
        pub expected: f64,
        /// The compute time of the batch that confirmed the change, s.
        pub observed: f64,
    } => {
        /// The analyzer detected a regime change on one node.
        RegimeChange = "regime_change",
    }

    /// A fault fired by the chaos layer (or detected by a resilient
    /// collective) during one training step.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct FaultInjected {
        /// What kind of fault fired.
        pub kind: FaultKind,
        /// Affected node, when the fault is node-scoped (`None` for
        /// group-wide faults such as a communication timeout).
        pub node as "fault_node": Option<u32>,
        /// Step index (within the epoch) the fault fired on.
        pub step: u64,
        /// Communication attempts consumed (1 for non-comm faults).
        pub attempts: u32,
        /// Fault magnitude — slowdown factor for bursts, contended compute
        /// fraction for flaps, seconds of stretched batch time for comm
        /// faults, 0 where not meaningful.
        pub magnitude: f64,
    } => {
        /// The chaos layer (or a resilient collective) reported a fault.
        FaultInjected = "fault_injected",
    }

    /// One recovery step taken in response to a fault.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct RecoveryAction {
        /// What the recovering component did.
        pub kind: RecoveryKind,
        /// Node the action targets, when node-scoped.
        pub node as "recovery_node": Option<u32>,
        /// Step index (within the epoch) the action happened on.
        pub step: u64,
        /// Retry attempt number (0 for non-retry actions).
        pub attempt: u32,
        /// Backoff slept before this attempt, ns (0 for non-retry actions).
        pub backoff_ns: u64,
    } => {
        /// A component recovered from a fault (retry, group change, replan).
        RecoveryAction = "recovery_action",
    }

    /// A queued fleet job was admitted onto its first (or a fresh) node set.
    #[derive(Debug, Clone, PartialEq)]
    pub struct JobAdmitted {
        /// Job name.
        pub job: String,
        /// Nodes granted at admission.
        pub nodes: u32,
        /// Seconds the job spent queued before this admission.
        pub queued_s: f64,
    } => {
        /// The fleet control plane admitted a queued job.
        JobAdmitted = "job_admitted",
    }

    /// A fleet job lost nodes at an epoch boundary (shrink or full eviction).
    #[derive(Debug, Clone, PartialEq)]
    pub struct JobPreempted {
        /// Job name.
        pub job: String,
        /// Nodes taken away by this decision.
        pub nodes_lost: u32,
        /// Why the job was preempted.
        pub reason: PreemptKind,
    } => {
        /// The fleet control plane preempted (part of) a job's nodes.
        JobPreempted = "job_preempted",
    }

    /// One pool node was granted to a fleet job.
    #[derive(Debug, Clone, PartialEq)]
    pub struct NodeGranted {
        /// Pool node name.
        pub node as "node_name": String,
        /// Receiving job name.
        pub job: String,
    } => {
        /// The fleet control plane granted one node to a job.
        NodeGranted = "node_granted",
    }

    /// One fleet-allocator decision round (taken at an epoch boundary).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FleetDecision {
        /// Monotone decision counter within the controller's lifetime.
        pub decision: u64,
        /// Jobs running after the decision.
        pub running: u32,
        /// Jobs still queued after the decision.
        pub queued: u32,
        /// Nodes that changed owner (granted, revoked, or both) this round.
        pub reassigned: u32,
        /// Live (non-dead) pool size the allocator distributed.
        pub pool: u32,
    } => {
        /// One fleet-allocator decision round.
        FleetDecision = "fleet_decision",
    }

    /// One fleet job's allocation sample, emitted once per controller
    /// decision round for every admitted-or-queued job. The `decision`
    /// counter (not wall time) is the x-axis of allocation timelines, so
    /// same-seed runs produce byte-identical series.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FleetJobSample {
        /// Decision round the sample belongs to ([`FleetDecision::decision`]).
        pub decision: u64,
        /// Job name.
        pub job: String,
        /// Nodes held by the job after the round.
        pub granted: u32,
        /// Nodes the job wanted this round (fair-share demand).
        pub demanded: u32,
        /// Cumulative node-seconds of service divided by the job's
        /// fair-share weight — equal values mean a Jain-fair schedule.
        pub weighted_service: f64,
    } => {
        /// One job's per-decision allocation sample.
        FleetJobSample = "fleet_job_sample",
    }

    /// A generic named counter sample.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Counter {
        /// Counter name (e.g. `epoch_time_s`).
        pub name: String,
        /// Sample value.
        pub value: f64,
    } => {
        /// A named counter sample.
        Counter = "counter",
    }

    /// A span boundary (Chrome-trace `B`/`E` phases). Spans nest per thread.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Span {
        /// Span name (e.g. `epoch`, `plan`, `simulate`).
        pub name: String,
    } => {
        /// A span opening.
        SpanBegin = "span_begin",
        /// A span closing (matches the most recent unclosed begin on the same
        /// thread).
        SpanEnd = "span_end",
    }
}

/// One recorded event: what happened, when, and on which `(node, rank)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Nanoseconds since the recorder's epoch (session-relative ordering,
    /// not wall-clock time).
    pub ts_ns: u64,
    /// Logical node id (Chrome-trace `pid`).
    pub node: u32,
    /// Logical rank / thread id (Chrome-trace `tid`).
    pub rank: u32,
    /// The event payload.
    pub event: Event,
}

impl Record {
    /// The JSONL object form: flat, with a `type` discriminator.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("ts_ns".to_string(), self.ts_ns.to_wire()),
            ("node".to_string(), self.node.to_wire()),
            ("rank".to_string(), self.rank.to_wire()),
            ("type".to_string(), Json::Str(self.event.kind().to_string())),
        ];
        self.event.write_fields(&mut members);
        Json::Obj(members)
    }

    /// One line of the JSONL export.
    pub fn to_jsonl_line(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Invert [`Record::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing, mistyped or out-of-range
    /// field, naming its key.
    pub fn from_json(value: &Json) -> Result<Record, String> {
        let kind = value.get("type").and_then(Json::as_str).ok_or("missing `type`")?;
        Ok(Record {
            ts_ns: read_field!(value, "ts_ns"),
            node: read_field!(value, "node"),
            rank: read_field!(value, "rank"),
            event: Event::read_fields(kind, value)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{chrome_trace_string, jsonl_string, parse_jsonl};
    use std::collections::HashSet;

    /// One instance of every event type, with awkward values included.
    fn one_of_each() -> Vec<Event> {
        vec![
            Event::StepTiming(StepTiming { step: 7, rank: 2, b_i: 96, t_compute: 0.125, t_comm: 0.03125, overlap: 0.5 }),
            Event::SplitDecision(SplitDecision {
                total: 128,
                local: vec![64, 40, 24],
                predicted_t: Some(0.75),
                source: SplitSource::Solver,
            }),
            Event::SplitDecision(SplitDecision { total: 3, local: vec![1, 1, 1], predicted_t: None, source: SplitSource::EvenInit }),
            Event::PolicyDecision(PolicyDecision { policy: "optperf".into(), epoch: 4, total: 128 }),
            Event::GnsEstimated(GnsEstimated { b_noise: 310.5, grad_sq: 2.0, variance: 621.0, weights: vec![0.5, 0.25, 0.25] }),
            Event::GoodputEval(GoodputEval { phi: 300.0, total: 512, goodput: 123.5, candidates: 13, cache_rebuilt: true }),
            Event::AllReduceBucket(AllReduceBucket { bucket: 3, elems: 4096, wall_ns: 1_250_000, bytes: 16_384 }),
            Event::SolverInvocation(SolverInvocation { wall_ns: 42_000, total: 256, candidates: 1, solves: 5, boundary: 2 }),
            Event::FaultInjected(FaultInjected {
                kind: FaultKind::NodeCrash,
                node: Some(1),
                step: 12,
                attempts: 1,
                magnitude: 0.0,
            }),
            Event::FaultInjected(FaultInjected {
                kind: FaultKind::CommTimeout,
                node: None,
                step: 3,
                attempts: 4,
                magnitude: 2.5,
            }),
            Event::RecoveryAction(RecoveryAction {
                kind: RecoveryKind::CommRetry,
                node: None,
                step: 3,
                attempt: 2,
                backoff_ns: 4_000_000,
            }),
            Event::RecoveryAction(RecoveryAction {
                kind: RecoveryKind::GroupShrink,
                node: Some(1),
                step: 12,
                attempt: 0,
                backoff_ns: 0,
            }),
            Event::JobAdmitted(JobAdmitted { job: "cifar-short".into(), nodes: 4, queued_s: 37.5 }),
            Event::JobPreempted(JobPreempted {
                job: "imagenet-long".into(),
                nodes_lost: 2,
                reason: PreemptKind::FairShare,
            }),
            Event::JobPreempted(JobPreempted {
                job: "bert-squad".into(),
                nodes_lost: 1,
                reason: PreemptKind::NodeFailure,
            }),
            Event::NodeGranted(NodeGranted { node: "a100-0".into(), job: "cifar-short".into() }),
            Event::FleetDecision(FleetDecision { decision: 9, running: 3, queued: 1, reassigned: 2, pool: 8 }),
            Event::FleetJobSample(FleetJobSample {
                decision: 9,
                job: "cifar-short".into(),
                granted: 3,
                demanded: 5,
                weighted_service: 87.5,
            }),
            Event::Counter(Counter { name: "epoch_time_s".into(), value: 12.5 }),
            Event::SpanBegin(Span { name: "epoch".into() }),
            Event::SpanEnd(Span { name: "epoch".into() }),
            Event::RegimeChange(RegimeChange { node: 2, b_i: 48, expected: 0.1875, observed: 0.375 }),
        ]
    }

    /// Events of the corpus that precede its non-finite record. Kinds added
    /// later follow that record, so the committed fixture lines never move.
    const BEFORE_NON_FINITE: usize = 21;

    /// The corpus as records under distinct envelopes, plus a non-finite
    /// measurement.
    fn corpus() -> Vec<Record> {
        let mut records: Vec<Record> = one_of_each()
            .into_iter()
            .enumerate()
            .map(|(i, event)| Record { ts_ns: 1_000 + i as u64, node: 1, rank: i as u32, event })
            .collect();
        records.insert(BEFORE_NON_FINITE, Record {
            ts_ns: 5,
            node: 0,
            rank: 0,
            event: Event::StepTiming(StepTiming { step: 0, rank: 0, b_i: 8, t_compute: 0.1, t_comm: f64::NAN, overlap: 0.0 }),
        });
        records
    }

    /// Round-tripping alone does not pin key order or number formatting;
    /// the committed bytes do. Fresh output must equal them, and they must
    /// parse back to the corpus. After a schema change, rewrite them with
    /// `CANNIKIN_BLESS=1 cargo test -p cannikin-telemetry golden`.
    #[test]
    fn wire_bytes_match_the_golden_fixtures() {
        let records = corpus();
        let (jsonl, chrome) = (jsonl_string(&records), chrome_trace_string(&records));
        if std::env::var_os("CANNIKIN_BLESS").is_some() {
            let dir = std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo test");
            let dir = std::path::Path::new(&dir).join("tests/golden");
            std::fs::write(dir.join("events.jsonl"), jsonl).expect("write golden JSONL");
            std::fs::write(dir.join("events.chrome.json"), chrome).expect("write golden Chrome trace");
            return;
        }
        assert_eq!(jsonl, include_str!("../tests/golden/events.jsonl"));
        assert_eq!(chrome, include_str!("../tests/golden/events.chrome.json"));
        let back = parse_jsonl(include_str!("../tests/golden/events.jsonl")).expect("golden JSONL parses");
        // Compared in Debug form so the NaN that `null` reads back as equals itself.
        assert_eq!(format!("{back:?}"), format!("{records:?}"));
    }

    #[test]
    fn kinds_are_distinct_and_all_in_the_corpus() {
        let corpus: HashSet<&str> = one_of_each().iter().map(Event::kind).collect();
        let schema: HashSet<&str> = Event::KINDS.iter().copied().collect();
        assert_eq!(schema.len(), Event::KINDS.len(), "duplicate kind tag");
        assert_eq!(corpus, schema, "every event needs a corpus entry");
    }

    #[test]
    fn hostile_lines_are_rejected_naming_the_key() {
        let envelope = r#""ts_ns":1,"node":0,"rank":0"#;
        for (line, culprit) in [
            (format!(r#"{{{envelope},"type":"mystery"}}"#), "mystery"),
            // Used to wrap silently to node 1.
            (r#"{"ts_ns":1,"node":4294967297,"rank":0,"type":"span_begin","name":"x"}"#.to_string(), "`node`"),
            (format!(r#"{{{envelope},"type":"job_admitted","job":"j","nodes":4294967296,"queued_s":0}}"#), "`nodes`"),
            (format!(r#"{{{envelope},"type":"fault_injected","kind":"node_crash","fault_node":-1,"step":0,"attempts":1,"magnitude":0}}"#), "`fault_node`"),
            (format!(r#"{{{envelope},"type":"job_preempted","job":"j","nodes_lost":1,"reason":7}}"#), "`reason`"),
            (format!(r#"{{{envelope},"type":"job_preempted","job":"j","nodes_lost":1,"reason":"whim"}}"#), "`reason`"),
            (format!(r#"{{{envelope},"type":"counter","name":"c"}}"#), "`value`"),
        ] {
            let err = Record::from_json(&Json::parse(&line).unwrap()).expect_err(&line);
            assert!(err.contains(culprit), "{line}: {err}");
        }
        // The one key with a default: traces recorded before byte accounting.
        let old = format!(r#"{{{envelope},"type":"all_reduce_bucket","bucket":1,"elems":2,"wall_ns":3}}"#);
        match Record::from_json(&Json::parse(&old).unwrap()).unwrap().event {
            Event::AllReduceBucket(b) => assert_eq!(b.bytes, 0),
            other => panic!("wrong variant {other:?}"),
        }
    }
}
