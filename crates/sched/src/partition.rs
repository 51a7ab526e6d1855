//! Allocation of tasks to CSD queues (§5.3, §5.5.3).
//!
//! A CSD-x configuration splits the RM-ordered task list into `x − 1`
//! DP (EDF) queues followed by the FP (RM) queue, so a partition is a
//! non-decreasing list of boundary indices. The paper sets the CSD-2
//! boundary at the "troublesome task" — the longest-period task that
//! cannot be scheduled by RM — and finds CSD-3 splits with an off-line
//! exhaustive search "in O(n²) time for three queues" that minimizes
//! the sum of run-time and schedulability overheads. Both are
//! implemented here, plus a seeded local search that the
//! breakdown-utilization driver uses to keep repeated probes cheap.

use std::collections::HashMap;

use crate::analysis::{
    csd_test_with, rm_first_failure, AnalysisLimits, Band, InflatedTask, TestOutcome,
};
use crate::overhead::{CsdShape, OverheadModel};
use crate::task::TaskSet;

/// A CSD partition: `boundaries[k]` is the first task index *not* in
/// DP queue `k+1`; tasks from the last boundary onward are FP.
///
/// For CSD-2 over 10 tasks with `boundaries = [5]`, tasks 0–4 are DP
/// and tasks 5–9 are FP. `boundaries = [0]` degenerates to pure RM
/// (plus queue-parse overhead); `boundaries = [n]` degenerates to pure
/// EDF.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    boundaries: Vec<usize>,
    n: usize,
}

impl Partition {
    /// Builds a partition of `n` tasks.
    ///
    /// # Panics
    ///
    /// Panics if boundaries are empty, decreasing, or exceed `n`.
    pub fn new(boundaries: Vec<usize>, n: usize) -> Partition {
        assert!(!boundaries.is_empty(), "need at least one DP queue");
        assert!(
            boundaries.windows(2).all(|w| w[0] <= w[1]),
            "boundaries must be non-decreasing"
        );
        assert!(*boundaries.last().unwrap() <= n, "boundary exceeds n");
        Partition { boundaries, n }
    }

    /// Number of queues including FP (the `x` of CSD-x).
    pub fn num_queues(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// The DP queue index ranges, DP1 first.
    pub fn dp_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let mut out = Vec::with_capacity(self.boundaries.len());
        let mut start = 0;
        for &b in &self.boundaries {
            out.push(start..b);
            start = b;
        }
        out
    }

    /// The FP range.
    pub fn fp_range(&self) -> std::ops::Range<usize> {
        *self.boundaries.last().unwrap()..self.n
    }

    /// The queue shape (lengths) of this partition.
    pub fn shape(&self) -> CsdShape {
        CsdShape {
            dp_lens: self.dp_ranges().iter().map(|r| r.len()).collect(),
            fp_len: self.fp_range().len(),
        }
    }

    /// True if task index `i` is in some DP queue.
    pub fn is_dp(&self, i: usize) -> bool {
        i < *self.boundaries.last().unwrap()
    }

    /// The DP queue index holding task `i`, or `None` if FP.
    pub fn dp_queue_of(&self, i: usize) -> Option<usize> {
        self.boundaries.iter().position(|&b| i < b)
    }

    /// Raw boundaries.
    pub fn boundaries(&self) -> &[usize] {
        &self.boundaries
    }
}

/// How to search for a feasible partition.
#[derive(Clone, Debug)]
pub enum SearchStrategy {
    /// Try every boundary combination (the paper's O(n^{x−1}) off-line
    /// search).
    Exhaustive,
    /// The §5.3 rule for CSD-2 (DP holds tasks up to the troublesome
    /// one), extended to more queues by even DP splitting, then checked
    /// only at that single candidate plus pure-EDF/pure-RM fallbacks.
    TroublesomeRule,
    /// Hill-climb boundaries starting from a seed (used by the
    /// breakdown driver, which probes many nearby scales).
    Seeded(Partition),
}

/// Builds the inflated task list for `ts` under partition `p`.
pub fn inflate(ts: &TaskSet, p: &Partition, ovh: &OverheadModel) -> Vec<InflatedTask> {
    let shape = p.shape();
    let overheads = ovh.csd_overheads(&shape);
    debug_assert_eq!(overheads.len(), ts.len());
    ts.tasks()
        .iter()
        .zip(overheads)
        .map(|(t, o)| InflatedTask::new(t.period, t.deadline, t.wcet + o))
        .collect()
}

/// Tests a specific partition of `ts` (with per-queue overheads).
pub fn test_partition(
    ts: &TaskSet,
    p: &Partition,
    ovh: &OverheadModel,
    limits: AnalysisLimits,
) -> TestOutcome {
    let inflated = inflate(ts, p, ovh);
    let mut bands: Vec<Band<'_>> = Vec::with_capacity(p.num_queues());
    for r in p.dp_ranges() {
        bands.push(Band {
            edf: true,
            tasks: &inflated[r],
        });
    }
    bands.push(Band {
        edf: false,
        tasks: &inflated[p.fp_range()],
    });
    csd_test_with(&bands, limits)
}

/// Total overhead utilization `Σ o_i / P_i` of a partition — the
/// secondary objective of the paper's search ("task allocation should
/// minimize the sum of the run-time and schedulability overheads").
pub fn overhead_utilization(ts: &TaskSet, p: &Partition, ovh: &OverheadModel) -> f64 {
    let overheads = ovh.csd_overheads(&p.shape());
    ts.tasks()
        .iter()
        .zip(overheads)
        .map(|(t, o)| o.ratio(t.period))
        .sum()
}

/// The §5.3 troublesome-task boundary: one past the first task, in RM
/// order, whose response time RM (with RM run-time overheads) cannot
/// bound, or 0 if RM schedules everything. Every longer prefix of the
/// set fails RM too; every shorter one passes.
pub fn troublesome_boundary(ts: &TaskSet, ovh: &OverheadModel, limits: AnalysisLimits) -> usize {
    let o = ovh.rmq_per_period(ts.len());
    let inflated: Vec<InflatedTask> = ts
        .tasks()
        .iter()
        .map(|t| InflatedTask::new(t.period, t.deadline, t.wcet + o))
        .collect();
    rm_first_failure(&inflated, limits).map_or(0, |i| i + 1)
}

/// Searches for a feasible partition of `ts` into `x` queues
/// (`x ≥ 2`), returning the feasible partition with the smallest
/// overhead utilization found, or `None`.
pub fn find_partition(
    ts: &TaskSet,
    x: usize,
    ovh: &OverheadModel,
    strategy: &SearchStrategy,
    limits: AnalysisLimits,
) -> Option<Partition> {
    search(x, strategy, &mut Verdicts::new(ts, ovh, limits))
}

/// The verdicts of every partition tested so far on one task set at
/// one scale, keyed by boundaries. One breakdown probe runs both the
/// troublesome-rule candidates and a seeded climb, and they revisit
/// many of the same layouts.
pub(crate) struct Verdicts<'a> {
    ts: &'a TaskSet,
    ovh: &'a OverheadModel,
    limits: AnalysisLimits,
    seen: HashMap<Vec<usize>, bool>,
}

impl<'a> Verdicts<'a> {
    pub(crate) fn new(ts: &'a TaskSet, ovh: &'a OverheadModel, limits: AnalysisLimits) -> Self {
        Verdicts {
            ts,
            ovh,
            limits,
            seen: HashMap::new(),
        }
    }

    /// True if `p` passes [`test_partition`].
    fn feasible(&mut self, p: &Partition) -> bool {
        if let Some(&v) = self.seen.get(p.boundaries()) {
            return v;
        }
        let v = test_partition(self.ts, p, self.ovh, self.limits).is_schedulable();
        self.seen.insert(p.boundaries.clone(), v);
        v
    }
}

/// [`find_partition`] over a caller-held verdict map.
pub(crate) fn search(
    x: usize,
    strategy: &SearchStrategy,
    v: &mut Verdicts<'_>,
) -> Option<Partition> {
    assert!(x >= 2, "CSD needs at least one DP queue plus FP");
    let (ts, ovh, limits) = (v.ts, v.ovh, v.limits);
    let n = ts.len();
    let m = x - 1; // number of DP queues
    match strategy {
        SearchStrategy::Exhaustive => {
            let mut best: Option<(f64, Partition)> = None;
            let mut bounds = vec![0usize; m];
            exhaustive_rec(v, &mut bounds, 0, 0, &mut best);
            best.map(|(_, p)| p)
        }
        SearchStrategy::TroublesomeRule => {
            let candidates = rule_candidates(n, m, || troublesome_boundary(ts, ovh, limits));
            pick_best(ts, ovh, candidates, |p| v.feasible(p))
        }
        SearchStrategy::Seeded(seed) => {
            assert_eq!(seed.num_queues(), x, "seed has wrong queue count");
            assert_eq!(seed.n, n, "seed has wrong task count");
            hill_climb(ts, ovh, seed.clone(), |p| v.feasible(p))
        }
    }
}

/// Visits every layout once, so it tests directly rather than through
/// the verdict map.
fn exhaustive_rec(
    v: &Verdicts<'_>,
    bounds: &mut Vec<usize>,
    level: usize,
    min: usize,
    best: &mut Option<(f64, Partition)>,
) {
    let n = v.ts.len();
    if level == bounds.len() {
        let p = Partition::new(bounds.clone(), n);
        if test_partition(v.ts, &p, v.ovh, v.limits).is_schedulable() {
            let u = overhead_utilization(v.ts, &p, v.ovh);
            if best.as_ref().is_none_or(|(bu, _)| u < *bu) {
                *best = Some((u, p));
            }
        }
        return;
    }
    for b in min..=n {
        bounds[level] = b;
        exhaustive_rec(v, bounds, level + 1, b, best);
    }
}

/// Candidate partitions from the troublesome rule: DP prefix of length
/// `r` (the troublesome boundary, computed only when needed), split
/// evenly across the `m` DP queues, plus the degenerate pure-EDF /
/// pure-RM layouts and quartile splits as fallbacks. The quartiles
/// matter when run-time overhead (not the troublesome task) is what
/// limits the workload: a mid-size DP prefix keeps the EDF walk short
/// while leaving most tasks on the cheap FP path.
pub(crate) fn rule_candidates(n: usize, m: usize, r: impl FnOnce() -> usize) -> Vec<Partition> {
    let mut prefixes = if m == 1 {
        // CSD-2: a full boundary scan is only n + 1 cheap tests.
        (0..=n).collect::<Vec<_>>()
    } else {
        vec![r(), 0, n, n / 4, n / 2, 3 * n / 4]
    };
    prefixes.sort_unstable();
    prefixes.dedup();
    prefixes.into_iter().map(|p| even_split(n, m, p)).collect()
}

/// A partition whose DP prefix of length `r` is split evenly across
/// `m` queues.
pub fn even_split(n: usize, m: usize, r: usize) -> Partition {
    let mut bounds = Vec::with_capacity(m);
    for k in 1..=m {
        bounds.push(r * k / m);
    }
    Partition::new(bounds, n)
}

/// The feasible candidate with the least overhead utilization, the
/// earliest one on ties. Candidates are tested cheapest first, so the
/// search stops at the first feasible one.
fn pick_best(
    ts: &TaskSet,
    ovh: &OverheadModel,
    candidates: Vec<Partition>,
    mut feasible: impl FnMut(&Partition) -> bool,
) -> Option<Partition> {
    let mut scored: Vec<(f64, Partition)> = candidates
        .into_iter()
        .map(|p| (overhead_utilization(ts, &p, ovh), p))
        .collect();
    // Stable, so equal scores keep their candidate order.
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    scored.into_iter().map(|(_, p)| p).find(|p| feasible(p))
}

/// Local search: repeatedly move one boundary by ±1/±2 while it
/// improves (feasibility first, then overhead utilization). Bounded by
/// a step budget so breakdown probes stay cheap.
pub(crate) fn hill_climb(
    ts: &TaskSet,
    ovh: &OverheadModel,
    seed: Partition,
    mut feasible: impl FnMut(&Partition) -> bool,
) -> Option<Partition> {
    let n = seed.n;
    let mut score =
        |p: &Partition| -> Option<f64> { feasible(p).then(|| overhead_utilization(ts, p, ovh)) };
    let mut current = seed;
    let mut current_score = score(&current);
    let mut budget = 64usize;
    loop {
        let mut improved = false;
        'outer: for i in 0..current.boundaries.len() {
            for delta in [-2isize, -1, 1, 2] {
                if budget == 0 {
                    break 'outer;
                }
                budget -= 1;
                let b = current.boundaries[i] as isize + delta;
                if b < 0 || b as usize > n {
                    continue;
                }
                let mut bs = current.boundaries.clone();
                bs[i] = b as usize;
                if !bs.windows(2).all(|w| w[0] <= w[1]) {
                    continue;
                }
                let cand = Partition::new(bs, n);
                let s = score(&cand);
                let better = match (&current_score, &s) {
                    (None, Some(_)) => true,
                    (Some(cu), Some(su)) => su < cu,
                    _ => false,
                };
                if better {
                    current = cand;
                    current_score = s;
                    improved = true;
                    break;
                }
            }
        }
        if !improved || budget == 0 {
            break;
        }
    }
    current_score.map(|_| current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Task, TaskSet};
    use emeralds_hal::CostModel;
    use emeralds_sim::Duration;

    fn ms(v: u64) -> Duration {
        Duration::from_ms(v)
    }

    fn us(v: u64) -> Duration {
        Duration::from_us(v)
    }

    /// The reconstructed Table 2 workload: U ≈ 0.88, EDF-feasible,
    /// RM-infeasible because of τ5 (the 9 ms task).
    pub fn table2_workload() -> TaskSet {
        TaskSet::new(vec![
            Task::new(0, ms(4), us(1_000)),
            Task::new(1, ms(5), us(1_000)),
            Task::new(2, ms(6), us(1_000)),
            Task::new(3, ms(7), us(900)),
            Task::new(4, ms(9), us(300)),
            Task::new(5, ms(50), us(2_200)),
            Task::new(6, ms(60), us(1_600)),
            Task::new(7, ms(100), us(1_500)),
            Task::new(8, ms(200), us(2_000)),
            Task::new(9, ms(400), us(2_200)),
        ])
    }

    fn zero_ovh() -> OverheadModel {
        OverheadModel::new(CostModel::zero())
    }

    #[test]
    fn partition_geometry() {
        let p = Partition::new(vec![2, 5], 9);
        assert_eq!(p.num_queues(), 3);
        assert_eq!(p.dp_ranges(), vec![0..2, 2..5]);
        assert_eq!(p.fp_range(), 5..9);
        assert_eq!(p.shape().dp_lens, vec![2, 3]);
        assert_eq!(p.shape().fp_len, 4);
        assert!(p.is_dp(4));
        assert!(!p.is_dp(5));
        assert_eq!(p.dp_queue_of(1), Some(0));
        assert_eq!(p.dp_queue_of(3), Some(1));
        assert_eq!(p.dp_queue_of(7), None);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_boundaries_rejected() {
        let _ = Partition::new(vec![5, 2], 9);
    }

    /// §5.3: the troublesome task in the Table 2 workload is τ5, so
    /// the CSD-2 boundary lands right after it (index 5, 0-based).
    #[test]
    fn troublesome_boundary_on_table2() {
        let ts = table2_workload();
        let r = troublesome_boundary(&ts, &zero_ovh(), AnalysisLimits::default());
        assert_eq!(r, 5);
    }

    #[test]
    fn troublesome_boundary_zero_when_rm_feasible() {
        let ts = TaskSet::new(vec![
            Task::new(0, ms(10), us(1_000)),
            Task::new(1, ms(20), us(2_000)),
        ]);
        assert_eq!(
            troublesome_boundary(&ts, &zero_ovh(), AnalysisLimits::default()),
            0
        );
    }

    #[test]
    fn rule_finds_feasible_csd2_on_table2() {
        let ts = table2_workload();
        let p = find_partition(
            &ts,
            2,
            &zero_ovh(),
            &SearchStrategy::TroublesomeRule,
            AnalysisLimits::default(),
        )
        .expect("feasible CSD-2 partition");
        assert_eq!(p.boundaries(), &[5]);
    }

    #[test]
    fn exhaustive_finds_partition_when_rule_seed_works() {
        let ts = table2_workload();
        let ovh = OverheadModel::new(CostModel::mc68040_25mhz());
        let p = find_partition(
            &ts,
            2,
            &ovh,
            &SearchStrategy::Exhaustive,
            AnalysisLimits::default(),
        )
        .expect("feasible partition exists");
        // Any feasible partition must put τ5 (index 4) in a DP queue.
        assert!(p.is_dp(4), "boundaries {:?}", p.boundaries());
        assert_eq!(
            test_partition(&ts, &p, &ovh, AnalysisLimits::default()),
            TestOutcome::Schedulable
        );
    }

    #[test]
    fn exhaustive_csd3_no_worse_than_csd2() {
        let ts = table2_workload();
        let ovh = OverheadModel::new(CostModel::mc68040_25mhz());
        let limits = AnalysisLimits::default();
        let p2 = find_partition(&ts, 2, &ovh, &SearchStrategy::Exhaustive, limits).unwrap();
        let p3 = find_partition(&ts, 3, &ovh, &SearchStrategy::Exhaustive, limits).unwrap();
        let u2 = overhead_utilization(&ts, &p2, &ovh);
        let u3 = overhead_utilization(&ts, &p3, &ovh);
        assert!(u3 <= u2 + 1e-12, "CSD-3 search found u3={u3} > u2={u2}");
    }

    #[test]
    fn seeded_search_recovers_from_infeasible_seed() {
        let ts = table2_workload();
        let ovh = zero_ovh();
        let limits = AnalysisLimits::default();
        // Pure-RM seed is infeasible; the climb must move the boundary
        // past τ5.
        let seed = Partition::new(vec![3], ts.len());
        let p = find_partition(&ts, 2, &ovh, &SearchStrategy::Seeded(seed), limits)
            .expect("climb reaches feasibility");
        assert!(p.is_dp(4));
    }

    #[test]
    fn infeasible_workload_has_no_partition() {
        // U > 1: nothing helps.
        let ts = TaskSet::new(vec![
            Task::new(0, ms(2), us(1_500)),
            Task::new(1, ms(4), us(1_500)),
        ]);
        assert!(find_partition(
            &ts,
            2,
            &zero_ovh(),
            &SearchStrategy::Exhaustive,
            AnalysisLimits::default()
        )
        .is_none());
    }

    #[test]
    fn even_split_shapes() {
        let p = even_split(10, 2, 6);
        assert_eq!(p.boundaries(), &[3, 6]);
        let p = even_split(10, 3, 7);
        assert_eq!(p.boundaries(), &[2, 4, 7]);
        let p = even_split(10, 1, 4);
        assert_eq!(p.boundaries(), &[4]);
    }

    #[test]
    fn verdict_map_returns_each_partitions_own_verdict() {
        let ts = table2_workload().scale_wcets(1.1);
        let ovh = OverheadModel::new(CostModel::mc68040_25mhz());
        let limits = AnalysisLimits::default();
        let mut v = Verdicts::new(&ts, &ovh, limits);
        let n = ts.len();
        let (mut yes, mut no) = (0, 0);
        // Twice over every CSD-3 layout: first fills the map, then
        // reads it back.
        for _ in 0..2 {
            for a in 0..=n {
                for b in a..=n {
                    let p = Partition::new(vec![a, b], n);
                    let direct = test_partition(&ts, &p, &ovh, limits).is_schedulable();
                    assert_eq!(v.feasible(&p), direct, "{:?}", p.boundaries());
                    if direct {
                        yes += 1;
                    } else {
                        no += 1;
                    }
                }
            }
        }
        assert!(yes > 0 && no > 0, "{yes} feasible, {no} infeasible");
    }

    #[test]
    fn inflate_adds_per_queue_overheads() {
        let ts = table2_workload();
        let ovh = OverheadModel::new(CostModel::mc68040_25mhz());
        let p = Partition::new(vec![5], ts.len());
        let inf = inflate(&ts, &p, &ovh);
        assert_eq!(inf.len(), 10);
        for (i, (t, x)) in ts.tasks().iter().zip(&inf).enumerate() {
            assert!(x.cost > t.wcet, "task {i} got no overhead");
        }
        // All DP tasks share one overhead, all FP tasks another.
        let dp_o = inf[0].cost - ts.task(0).wcet;
        assert_eq!(inf[4].cost - ts.task(4).wcet, dp_o);
        let fp_o = inf[5].cost - ts.task(5).wcet;
        assert_eq!(inf[9].cost - ts.task(9).wcet, fp_o);
        assert_ne!(dp_o, fp_o);
    }
}
