//! Discrete-event simulation substrate for the EMERALDS reproduction.
//!
//! The original EMERALDS kernel ran on 15–25 MHz Motorola 68k-class
//! microcontrollers and its evaluation measured kernel-path overheads in
//! microseconds with a 5 MHz on-chip timer. This crate provides the
//! virtual-time machinery that stands in for that hardware:
//!
//! - [`Time`] and [`Duration`]: nanosecond-resolution virtual time.
//! - [`EventQueue`]: a deterministic, stable (FIFO within an instant)
//!   pending-event set.
//! - [`Trace`]: an execution trace recorder capturing context switches,
//!   job releases/completions, deadline misses, semaphore traffic, and
//!   the other events the paper's figures draw.
//! - [`Accounting`]: per-category overhead attribution, used to report
//!   the run-time-overhead numbers of Tables 1 and 3 and Figures 3–5
//!   and 11.
//! - Shared id vocabulary ([`ThreadId`], [`SemId`], …) used by the rest
//!   of the workspace.
//! - [`run_epochs`]: a deterministic conservative-lookahead engine that
//!   advances many independent nodes in parallel across host threads,
//!   exchanging state only at epoch barriers (the cluster executive's
//!   generic half).
//!
//! Everything here is deterministic: no wall-clock reads, no global
//! state, and the RNG helpers require explicit seeds. The one
//! deliberate exception is the feature-gated [`profile`] module: a
//! wall-clock self-profiler that attributes *host* nanoseconds to
//! kernel subsystems. It can observe but never influence the
//! simulation — virtual time has no path to it.

pub mod account;
pub mod cluster;
#[cfg(feature = "alloc-count")]
pub mod count_alloc;
pub mod event;
pub mod hierarchy;
pub mod histogram;
pub mod ids;
pub mod profile;
pub mod rng;
pub mod time;
pub mod trace;

pub use account::{Accounting, OverheadKind};
pub use cluster::{
    run_epochs, run_epochs_reusing, EpochConfig, EpochExchange, EpochNode, EpochScratch, EpochStats,
};
#[cfg(feature = "alloc-count")]
pub use count_alloc::CountingAlloc;
pub use event::EventQueue;
pub use hierarchy::{run_two_level, EpochGroup, TwoLevelScratch, TwoLevelStats};
pub use histogram::DurationHistogram;
pub use ids::{
    CvId, DevId, EventId, IrqLine, MboxId, NodeId, ProcId, RegionId, SemId, StateId, ThreadId,
};
pub use profile::{HotSpot, Subsystem, WallProfile, WallRow};
pub use rng::SimRng;
pub use time::{Duration, Time};
pub use trace::{Trace, TraceEvent};
