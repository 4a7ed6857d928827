//! # int-dataplane
//!
//! A software model of a P4-programmable data plane, equivalent in role to
//! the BMv2 behavioural-model switch the paper runs its experiments on.
//!
//! A [`DataPlaneProgram`] is the P4 program: it is invoked by the switch at
//! the same three points BMv2 exposes —
//!
//! 1. **ingress** ([`DataPlaneProgram::ingress`]): after parsing, before
//!    enqueueing. Forwarding decisions are made here via the LPM
//!    forwarding table; the INT program also extracts the upstream egress timestamp
//!    from probe packets here, *before* queuing, so measured link latency
//!    excludes queuing delay (paper §III-A).
//! 2. **enqueue observation** ([`DataPlaneProgram::on_enqueue`]): BMv2's
//!    `enq_qdepth` intrinsic metadata. The INT program folds the observed
//!    egress-queue depth into its max-queue-length register on *every*
//!    packet.
//! 3. **egress** ([`DataPlaneProgram::egress`]): when the packet reaches the
//!    head of the egress queue and is about to be serialized. The INT
//!    program appends its telemetry record to probe packets and stamps the
//!    egress timestamp here, then resets the harvested register.
//!
//! Every switch runs one program, [`IntTelemetryProgram`]; the engine
//! holds it by value. Supporting infrastructure mirrors P4 constructs:
//! * [`table`] — the IPv4 longest-prefix-match forwarding table,
//! * [`registers`] — stateful register arrays,
//! * [`frame`] — the packet buffer plus per-packet (user) metadata,
//! * [`programs`] — the INT telemetry program and its L3 forwarding stage.

pub mod frame;
pub mod pipeline;
pub mod programs;
pub mod registers;
pub mod table;

pub use frame::{Frame, FrameMeta};
pub use pipeline::{DataPlaneProgram, EgressCtx, EnqueueCtx, IngressCtx, IngressVerdict, PortId};
pub use programs::int_telemetry::{IntProgramConfig, IntTelemetryProgram};
pub use programs::l3fwd::{flow_hash_tuple, EcmpSelect};
pub use registers::RegisterArray;
pub use table::{Key, MatchActionTable, MatchKind};
