//! Offline real-time scheduling analysis for the EMERALDS reproduction.
//!
//! The paper's scheduler contribution (§5) is the CSD — combined
//! static/dynamic — framework, evaluated by *breakdown utilization*:
//! random workloads are scaled up until they stop being schedulable,
//! with both run-time overhead (Table 1 costs) and schedulability
//! overhead (policy-theoretic limits) accounted. This crate contains
//! everything offline:
//!
//! - [`task`]: periodic task model and task sets.
//! - [`overhead`]: per-task, per-period scheduler overhead models
//!   derived from the Table 1 cost formulas, including the CSD band
//!   accounting of Table 3.
//! - [`analysis`]: schedulability tests — exact EDF utilization bound,
//!   exact RM response-time analysis, and the hierarchical band test
//!   for CSD (EDF inside bands, bands fixed-priority).
//! - [`partition`]: allocation of tasks to CSD queues, including the
//!   paper's "troublesome task" rule for CSD-2 and the exhaustive
//!   O(n²) search for CSD-3 (§5.5.3).
//! - [`workload`]: the §5.7 random workload generator (task periods
//!   equiprobably single/double/triple-digit milliseconds).
//! - [`breakdown`]: the breakdown-utilization experiment driver used by
//!   Figures 3–5.
//! - [`cyclic`]: the frame-based cyclic executive the paper's §5 uses
//!   as its motivating baseline (off-line tables, memory blow-up on
//!   relatively prime periods, poor aperiodic response).

pub mod analysis;
pub mod breakdown;
pub mod cyclic;
#[cfg(test)]
mod oracle;
pub mod overhead;
pub mod partition;
pub mod task;
pub mod workload;

pub use analysis::{
    csd_test, edf_test, rm_test, srp_ceilings, InflatedTask, SrpEvent, SrpGraphError,
    SrpTaskProfile, TestOutcome,
};
pub use breakdown::{breakdown_utilization, BreakdownOptions, SchedulerConfig};
pub use overhead::{CsdShape, OverheadModel};
pub use partition::{Partition, SearchStrategy};
pub use task::{Task, TaskSet};
pub use workload::WorkloadParams;
