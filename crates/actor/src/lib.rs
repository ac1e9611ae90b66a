//! # udc-actor — the actor runtime for UDC modules (§3.1)
//!
//! The paper proposes the Actor framework as the natural programming
//! model for fine-grained modules: "Each actor represents a module that
//! could run on a hardware resource unit. These (distributed) actors
//! communicate via input and output messages and there is no shared
//! state between actors. Evidence shows that explicit messages are more
//! efficient for a disaggregated setting than shared-memory
//! implementations. Furthermore, messages could be reliably recorded for
//! faster recovery."
//!
//! This crate provides:
//!
//! - [`actor::Actor`] — the module-behaviour trait (message in,
//!   messages out, no shared state);
//! - [`system::System`] — the optimized deterministic single-threaded
//!   executor: interned actor slots, an O(active) ready bitmap, and
//!   lock-free telemetry handles on the per-message path;
//! - [`naive::NaiveSystem`] — the seed executor, kept verbatim as the
//!   observable-equivalence oracle (see `tests/prop_equiv.rs`);
//! - [`log::MessageLog`] — reliable message recording enabling
//!   replay-based recovery (consumed by `udc-dist`), with an indexed
//!   replay suffix and checkpoint-driven truncation;
//! - [`par::ParSystem`] — the work-stealing parallel executor: the same
//!   slot/rank layout partitioned into worker shards, barrier-
//!   synchronized rounds, per-shard telemetry hubs merged at barriers,
//!   and a merged [`log::MessageLog`] with the same per-actor replay
//!   guarantees;
//! - [`runtime::ActorRuntime`] — the object-safe executor trait all
//!   three systems implement, so replay/recovery consumers are
//!   executor-agnostic;
//! - [`supervise::SupervisionPolicy`] — restart/drop/escalate handling
//!   of actor failures.

pub mod actor;
pub mod log;
pub mod naive;
pub mod par;
mod readiness;
pub mod runtime;
mod slab;
pub mod supervise;
pub mod system;

pub use actor::{Actor, ActorError, ActorId, Ctx, Message};
pub use log::MessageLog;
pub use naive::NaiveSystem;
pub use par::ParSystem;
pub use runtime::ActorRuntime;
pub use supervise::SupervisionPolicy;
pub use system::{ActorRef, System, SystemStats};
