//! # int-obs — deterministic observability
//!
//! Zero-dependency observability layer for the INT scheduling stack:
//!
//! * [`MetricsRegistry`] — counters / gauges / histograms keyed by a
//!   `'static` name plus a small label set, sim-time-stamped, owned per
//!   component (no global state), with a deterministic JSON snapshot.
//! * [`TraceRing`] — a bounded ring of typed
//!   [`TraceEvent`]s (enqueue / dequeue / drop / fault / probe-harvest /
//!   register-reset), the replacement for ad-hoc debug prints in the
//!   simulator and data plane.
//! * [`DecisionAudit`] — the scheduler decision audit trail: per query,
//!   the candidate set with per-host estimates, exclusions with their
//!   reason, and the chosen host.
//! * [`EpochWriter`] — bounded-memory artifact streaming: epoch lines
//!   go to disk as each epoch closes (instead of accumulating in RAM
//!   for the whole run), with an in-core mode that produces a
//!   byte-identical file.
//! * [`SlabIndex`] — the open-addressed hash index from a caller's hash
//!   to a dense slab id that the metrics registry, the learned map's
//!   edges, the collector's route memo, the data plane's LPM
//!   forwarding table and ECMP groups, and the topology's node names
//!   all look up through ([`fnv1a`] hashes the byte-keyed ones).
//!
//! Everything is **deterministic** (sim time only, integer values,
//! fixed-order exports, counter-based sampling) so exports are
//! byte-identical across worker counts and same-seed reruns,
//! and **cheap when off** — every record call on a disabled sink returns
//! after a single branch.
//!
//! The crate deliberately has no dependencies (not even the vendored
//! serde): it sits below every other crate in the workspace, and its
//! exports are rendered by the in-crate [`json::JsonBuf`] writer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod index;
pub mod json;
pub mod metrics;
pub mod stream;
pub mod trace;

pub use audit::{CandidateEstimate, DecisionAudit, DecisionRecord};
pub use index::{fnv1a, SlabIndex};
pub use metrics::{CounterId, Histogram, HistogramId, Labels, MetricsRegistry};
pub use stream::{EpochWriter, EpochWriterStats};
pub use trace::{DropReason, TraceEvent, TraceKind, TraceRing};
