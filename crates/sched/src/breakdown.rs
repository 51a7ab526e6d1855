//! Breakdown-utilization experiments (§5.7, Figures 3–5).
//!
//! "Our test procedure involves generating random task workloads, then
//! for each workload, scaling the execution times of tasks until the
//! workload is no longer feasible for a given scheduler. The
//! utilization at which the workload becomes infeasible is called the
//! breakdown utilization." Feasibility accounts for run-time overheads
//! through the inflated-WCET tests; for CSD schedulers a partition
//! search runs at every probed scale (seeded from the previous best so
//! repeated probes stay cheap, with the troublesome rule as the first
//! seed — pass [`BreakdownOptions::exhaustive_partition`] to use the
//! paper's full off-line search instead).

use emeralds_sim::Duration;

use crate::analysis::{edf_test_with, rm_test_with, AnalysisLimits, InflatedTask, TestOutcome};
use crate::overhead::OverheadModel;
use crate::partition::{overhead_utilization, search, Partition, SearchStrategy, Verdicts};
use crate::task::TaskSet;

/// Which scheduler a breakdown run evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedulerConfig {
    /// Pure EDF over one unsorted queue.
    Edf,
    /// Pure RM over the sorted queue with `highestp`.
    Rm,
    /// Pure RM over a sorted heap (Table 1's third column).
    RmHeap,
    /// CSD with `x` queues (x − 1 DP queues + FP); `Csd(2)` is the
    /// paper's CSD-2.
    Csd(usize),
}

impl SchedulerConfig {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            SchedulerConfig::Edf => "EDF".to_string(),
            SchedulerConfig::Rm => "RM".to_string(),
            SchedulerConfig::RmHeap => "RM-heap".to_string(),
            SchedulerConfig::Csd(x) => format!("CSD-{x}"),
        }
    }
}

/// Options for the breakdown search.
#[derive(Clone, Debug)]
pub struct BreakdownOptions {
    /// Bisection iterations (each halves the scale interval).
    pub iterations: u32,
    /// Analysis caps.
    pub limits: AnalysisLimits,
    /// Use the paper's exhaustive partition search at every probe
    /// instead of the seeded local search. Much slower; same shapes.
    pub exhaustive_partition: bool,
    /// Ignore run-time overheads (pure schedulability overhead, for
    /// ablations).
    pub zero_overhead: bool,
}

impl Default for BreakdownOptions {
    fn default() -> Self {
        BreakdownOptions {
            iterations: 20,
            limits: AnalysisLimits::default(),
            exhaustive_partition: false,
            zero_overhead: false,
        }
    }
}

/// Result of one breakdown run.
#[derive(Clone, Debug)]
pub struct BreakdownResult {
    /// Task utilization `Σ c_i/P_i` at the last feasible scale.
    pub utilization: f64,
    /// The feasible CSD partition at that scale (CSD schedulers only).
    pub partition: Option<Partition>,
}

/// Finds the breakdown utilization of `ts` under `sched`.
///
/// Returns utilization 0.0 if even an infinitesimal scale is
/// infeasible (pathological overhead-dominated cases).
pub fn breakdown_utilization(
    ts: &TaskSet,
    sched: SchedulerConfig,
    ovh: &OverheadModel,
    opts: &BreakdownOptions,
) -> BreakdownResult {
    bisect(ts, opts.iterations, |scale, seed| {
        probe(ts, scale, sched, ovh, opts, seed)
    })
}

/// What a probe reports: `None` if infeasible at that scale, otherwise
/// the feasible CSD partition (`None` for the flat schedulers).
pub(crate) type ProbeResult = Option<Option<Partition>>;

/// The §5.7 search: bisects the WCET scale for `iterations` rounds,
/// asking `probe` whether each scale is feasible. `probe` may keep a
/// partition in the seed slot for the next probe to start from.
pub(crate) fn bisect(
    ts: &TaskSet,
    iterations: u32,
    mut probe: impl FnMut(f64, &mut Option<Partition>) -> ProbeResult,
) -> BreakdownResult {
    let base_u = ts.utilization();
    assert!(base_u > 0.0, "zero-utilization workload");
    // Upper bracket: scale at which task utilization alone reaches
    // 1.05 (no scheduler can do better than U = 1).
    let hi = 1.05 / base_u;
    let mut hi_s = hi;
    let mut seed: Option<Partition> = None;

    // Establish that the lower bracket is feasible at a tiny scale;
    // if not, report zero.
    let tiny = hi * 1e-6;
    let (mut lo_s, mut best_partition) = match probe(tiny, &mut seed) {
        Some(p) => (tiny, p),
        None => {
            return BreakdownResult {
                utilization: 0.0,
                partition: None,
            }
        }
    };

    for _ in 0..iterations {
        let mid = (lo_s + hi_s) / 2.0;
        match probe(mid, &mut seed) {
            Some(p) => {
                lo_s = mid;
                best_partition = p;
            }
            None => hi_s = mid,
        }
    }
    BreakdownResult {
        utilization: base_u * lo_s,
        partition: best_partition,
    }
}

/// Tests feasibility at `scale`; for CSD returns the found partition.
fn probe(
    ts: &TaskSet,
    scale: f64,
    sched: SchedulerConfig,
    ovh: &OverheadModel,
    opts: &BreakdownOptions,
    seed: &mut Option<Partition>,
) -> ProbeResult {
    let scaled = ts.scale_wcets(scale);
    let n = scaled.len();
    let zero = Duration::ZERO;
    match sched {
        SchedulerConfig::Edf => {
            let o = if opts.zero_overhead {
                zero
            } else {
                ovh.edf_per_period(n)
            };
            feasible_flat(&scaled, o, true, opts).then_some(None)
        }
        SchedulerConfig::Rm => {
            let o = if opts.zero_overhead {
                zero
            } else {
                ovh.rmq_per_period(n)
            };
            feasible_flat(&scaled, o, false, opts).then_some(None)
        }
        SchedulerConfig::RmHeap => {
            let o = if opts.zero_overhead {
                zero
            } else {
                ovh.rmh_per_period(n)
            };
            feasible_flat(&scaled, o, false, opts).then_some(None)
        }
        SchedulerConfig::Csd(x) => {
            // One verdict map per probe: the rule candidates and the
            // climb test many of the same layouts at this scale.
            let mut verdicts = Verdicts::new(&scaled, ovh, opts.limits);
            let found = if opts.exhaustive_partition {
                search(x, &SearchStrategy::Exhaustive, &mut verdicts)
            } else {
                // Union of the troublesome-rule candidates and a local
                // climb from the previous probe's best partition; keep
                // whichever feasible layout has less overhead.
                let rule = search(x, &SearchStrategy::TroublesomeRule, &mut verdicts);
                let climbed = seed
                    .clone()
                    .and_then(|s| search(x, &SearchStrategy::Seeded(s), &mut verdicts));
                pick_rule_or_climbed(&scaled, ovh, rule, climbed)
            };
            if let Some(p) = &found {
                *seed = Some(p.clone());
            }
            found.map(Some)
        }
    }
}

/// The lower-overhead of the rule's and the climb's partitions,
/// preferring the rule's on ties.
pub(crate) fn pick_rule_or_climbed(
    ts: &TaskSet,
    ovh: &OverheadModel,
    rule: Option<Partition>,
    climbed: Option<Partition>,
) -> Option<Partition> {
    let score = |p: &Partition| overhead_utilization(ts, p, ovh);
    match (rule, climbed) {
        (Some(a), Some(b)) => Some(if score(&a) <= score(&b) { a } else { b }),
        (a, b) => a.or(b),
    }
}

fn feasible_flat(ts: &TaskSet, overhead: Duration, edf: bool, opts: &BreakdownOptions) -> bool {
    let inflated: Vec<InflatedTask> = ts
        .tasks()
        .iter()
        .map(|t| InflatedTask::new(t.period, t.deadline, t.wcet + overhead))
        .collect();
    let outcome = if edf {
        edf_test_with(&inflated, opts.limits)
    } else {
        rm_test_with(&inflated, opts.limits)
    };
    outcome == TestOutcome::Schedulable
}

/// Convenience: average breakdown utilization over `workloads`.
pub fn average_breakdown(
    workloads: &[TaskSet],
    sched: SchedulerConfig,
    ovh: &OverheadModel,
    opts: &BreakdownOptions,
) -> f64 {
    assert!(!workloads.is_empty(), "no workloads");
    let total: f64 = workloads
        .iter()
        .map(|w| breakdown_utilization(w, sched, ovh, opts).utilization)
        .sum();
    total / workloads.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;
    use crate::workload::WorkloadParams;
    use emeralds_hal::CostModel;
    use emeralds_sim::SimRng;

    fn zero_ovh() -> OverheadModel {
        OverheadModel::new(CostModel::zero())
    }

    fn real_ovh() -> OverheadModel {
        OverheadModel::new(CostModel::mc68040_25mhz())
    }

    fn gen_workloads(n: usize, count: usize, divisor: u64) -> Vec<TaskSet> {
        let mut rng = SimRng::seeded(1000 + n as u64 * 7 + divisor);
        (0..count)
            .map(|_| {
                WorkloadParams {
                    n,
                    period_divisor: divisor,
                    base_utilization: 0.4,
                }
                .generate(&mut rng)
            })
            .collect()
    }

    /// With zero overhead, EDF's breakdown utilization is exactly 1.
    #[test]
    fn edf_breakdown_is_one_without_overhead() {
        for w in gen_workloads(8, 5, 1) {
            let r =
                breakdown_utilization(&w, SchedulerConfig::Edf, &zero_ovh(), &Default::default());
            assert!((r.utilization - 1.0).abs() < 0.01, "got {}", r.utilization);
        }
    }

    /// §5.2: "for RM, U = 0.88 on average" (zero overhead, random
    /// workloads).
    #[test]
    fn rm_breakdown_averages_near_088_without_overhead() {
        let ws = gen_workloads(10, 30, 1);
        let avg = average_breakdown(&ws, SchedulerConfig::Rm, &zero_ovh(), &Default::default());
        assert!((0.82..0.95).contains(&avg), "avg = {avg}");
    }

    /// CSD with zero run-time overhead reduces to EDF's U = 1 bound
    /// (the DP queue can absorb every task).
    #[test]
    fn csd_breakdown_is_one_without_overhead() {
        for w in gen_workloads(8, 3, 1) {
            let r = breakdown_utilization(
                &w,
                SchedulerConfig::Csd(2),
                &zero_ovh(),
                &Default::default(),
            );
            assert!((r.utilization - 1.0).abs() < 0.02, "got {}", r.utilization);
        }
    }

    /// Figure 5's regime (many tasks, short periods): run-time overhead
    /// limits EDF, schedulability overhead limits RM, and CSD beats
    /// both, with CSD-3 at or above CSD-2 (§5.7).
    #[test]
    fn csd_beats_edf_and_rm_with_overheads_short_periods() {
        let ws = gen_workloads(40, 6, 3);
        let opts = BreakdownOptions::default();
        let ovh = real_ovh();
        let edf = average_breakdown(&ws, SchedulerConfig::Edf, &ovh, &opts);
        let rm = average_breakdown(&ws, SchedulerConfig::Rm, &ovh, &opts);
        let csd2 = average_breakdown(&ws, SchedulerConfig::Csd(2), &ovh, &opts);
        let csd3 = average_breakdown(&ws, SchedulerConfig::Csd(3), &ovh, &opts);
        assert!(edf < 1.0 && rm < 1.0);
        assert!(
            csd2 > edf && csd2 > rm,
            "csd2={csd2:.3} edf={edf:.3} rm={rm:.3}"
        );
        assert!(
            csd3 >= csd2 - 0.01,
            "csd3={csd3:.3} should not trail csd2={csd2:.3}"
        );
    }

    /// Monotonicity sanity: heavier per-op costs cannot raise the
    /// breakdown utilization.
    #[test]
    fn overheads_only_lower_breakdown() {
        let w = &gen_workloads(15, 1, 2)[0];
        let with = breakdown_utilization(w, SchedulerConfig::Edf, &real_ovh(), &Default::default());
        let without =
            breakdown_utilization(w, SchedulerConfig::Edf, &zero_ovh(), &Default::default());
        assert!(with.utilization <= without.utilization + 1e-9);
    }

    #[test]
    fn pathological_workload_reports_zero() {
        // One task whose period is smaller than the per-period
        // overhead: infeasible at any scale.
        let ts = TaskSet::new(vec![Task::new(
            0,
            Duration::from_us(7),
            Duration::from_us(1),
        )]);
        let r = breakdown_utilization(&ts, SchedulerConfig::Edf, &real_ovh(), &Default::default());
        assert_eq!(r.utilization, 0.0);
    }

    #[test]
    fn csd_result_carries_partition() {
        let w = &gen_workloads(12, 1, 1)[0];
        let r = breakdown_utilization(w, SchedulerConfig::Csd(2), &real_ovh(), &Default::default());
        assert!(r.utilization > 0.5);
        assert!(r.partition.is_some());
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(SchedulerConfig::Edf.label(), "EDF");
        assert_eq!(SchedulerConfig::Csd(3).label(), "CSD-3");
        assert_eq!(SchedulerConfig::RmHeap.label(), "RM-heap");
    }
}
