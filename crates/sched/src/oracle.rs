//! Reference implementations the incremental analyses are checked
//! against (DESIGN.md §18): the demand test that enumerates every own
//! deadline up to the busy period, response-time analysis started cold
//! at `C_i`, the troublesome boundary found by scanning prefixes, and a
//! rule search that tests every candidate before picking the cheapest.
//! A reference breakdown driver runs the whole §5.7 search on them.
//! The differential tests below require the production code to give
//! the same verdicts and bit-identical breakdown utilizations.

use emeralds_sim::Duration;

use crate::analysis::{
    dbf, own_deadlines_up_to, rbf, AnalysisLimits, Band, InflatedTask, ResponseTime, TestOutcome,
};
use crate::breakdown::{bisect, pick_rule_or_climbed, BreakdownResult, ProbeResult};
use crate::overhead::OverheadModel;
use crate::partition::{hill_climb, inflate, overhead_utilization, rule_candidates, Partition};
use crate::task::TaskSet;
use crate::{BreakdownOptions, SchedulerConfig};

/// Reference EDF test.
pub fn edf_test_with(tasks: &[InflatedTask], limits: AnalysisLimits) -> TestOutcome {
    if tasks.is_empty() {
        return TestOutcome::Schedulable;
    }
    if tasks.iter().any(|t| t.cost > t.deadline) {
        return TestOutcome::Unschedulable;
    }
    let u: f64 = tasks.iter().map(|t| t.cost.ratio(t.period)).sum();
    if u > 1.0 {
        return TestOutcome::Unschedulable;
    }
    if tasks.iter().all(|t| t.deadline == t.period) {
        return TestOutcome::Schedulable;
    }
    edf_band_test(tasks, &[], limits)
}

/// Reference RM test: cold-start RTA, task by task.
pub fn rm_test_with(tasks: &[InflatedTask], limits: AnalysisLimits) -> TestOutcome {
    rm_band_test(tasks, &[], limits)
}

/// Reference CSD band test.
pub fn csd_test_with(bands: &[Band<'_>], limits: AnalysisLimits) -> TestOutcome {
    let mut higher: Vec<InflatedTask> = Vec::new();
    for band in bands {
        let outcome = if band.edf {
            if higher.is_empty() && band.tasks.iter().all(|t| t.deadline == t.period) {
                edf_test_with(band.tasks, limits)
            } else {
                edf_band_test(band.tasks, &higher, limits)
            }
        } else {
            rm_band_test(band.tasks, &higher, limits)
        };
        if outcome != TestOutcome::Schedulable {
            return outcome;
        }
        higher.extend_from_slice(band.tasks);
    }
    TestOutcome::Schedulable
}

/// The synchronous busy period of `own` + `higher`, or the outcome the
/// band test reports when it does not converge.
fn busy_period(
    own: &[InflatedTask],
    higher: &[InflatedTask],
    limits: AnalysisLimits,
) -> Result<Duration, TestOutcome> {
    let mut w: Duration = own.iter().chain(higher.iter()).map(|t| t.cost).sum();
    let mut iters = 0u32;
    loop {
        iters += 1;
        if iters > 10_000 || w > limits.horizon {
            return Err(TestOutcome::Undecided);
        }
        let next: Duration = own.iter().chain(higher.iter()).map(|t| rbf(t, w)).sum();
        if next == w {
            return Ok(w);
        }
        w = next;
    }
}

/// Demand test at every own absolute deadline in (0, busy], task by
/// task, giving up once more than `max_points` have been visited.
fn edf_band_test(
    own: &[InflatedTask],
    higher: &[InflatedTask],
    limits: AnalysisLimits,
) -> TestOutcome {
    if own.is_empty() {
        return TestOutcome::Schedulable;
    }
    if own.iter().any(|t| t.cost > t.deadline) {
        return TestOutcome::Unschedulable;
    }
    let u: f64 = own
        .iter()
        .chain(higher.iter())
        .map(|t| t.cost.ratio(t.period))
        .sum();
    if u > 1.0 {
        return TestOutcome::Unschedulable;
    }
    let busy = match busy_period(own, higher, limits) {
        Ok(busy) => busy,
        Err(outcome) => return outcome,
    };
    let mut points = 0usize;
    for t in own {
        let mut d = t.deadline;
        while d <= busy {
            points += 1;
            if points > limits.max_points {
                return TestOutcome::Undecided;
            }
            let demand: Duration = own.iter().map(|x| dbf(x, d)).sum::<Duration>()
                + higher.iter().map(|x| rbf(x, d)).sum::<Duration>();
            if demand > d {
                return TestOutcome::Unschedulable;
            }
            d += t.period;
        }
    }
    TestOutcome::Schedulable
}

fn rm_band_test(
    own: &[InflatedTask],
    higher: &[InflatedTask],
    limits: AnalysisLimits,
) -> TestOutcome {
    for (i, t) in own.iter().enumerate() {
        match response_time(t, &own[..i], higher, limits) {
            ResponseTime::Within(_) => {}
            ResponseTime::Misses => return TestOutcome::Unschedulable,
            ResponseTime::Overflow => return TestOutcome::Undecided,
        }
    }
    TestOutcome::Schedulable
}

/// Response-time iteration started at `C`.
fn response_time(
    t: &InflatedTask,
    hp_a: &[InflatedTask],
    hp_b: &[InflatedTask],
    limits: AnalysisLimits,
) -> ResponseTime {
    let mut r = t.cost;
    let mut iters = 0u32;
    loop {
        iters += 1;
        if iters > 10_000 {
            return ResponseTime::Overflow;
        }
        if r > t.deadline {
            return ResponseTime::Misses;
        }
        if r > limits.horizon {
            return ResponseTime::Overflow;
        }
        let next = t.cost
            + hp_a.iter().map(|x| rbf(x, r)).sum::<Duration>()
            + hp_b.iter().map(|x| rbf(x, r)).sum::<Duration>();
        if next == r {
            return ResponseTime::Within(r);
        }
        r = next;
    }
}

/// The largest number of own deadlines any demand-tested EDF band of
/// `bands` checks (0 where the busy period does not converge). When it
/// is at most `max_points`, the walk and the enumeration must agree on
/// the exact outcome.
fn max_band_points(bands: &[Band<'_>], limits: AnalysisLimits) -> u64 {
    let mut higher: Vec<InflatedTask> = Vec::new();
    let mut most = 0;
    for band in bands {
        let implicit = higher.is_empty() && band.tasks.iter().all(|t| t.deadline == t.period);
        if band.edf && !implicit {
            if let Ok(busy) = busy_period(band.tasks, &higher, limits) {
                most = most.max(own_deadlines_up_to(band.tasks, busy));
            }
        }
        higher.extend_from_slice(band.tasks);
    }
    most
}

fn test_partition(
    ts: &TaskSet,
    p: &Partition,
    ovh: &OverheadModel,
    limits: AnalysisLimits,
) -> TestOutcome {
    let inflated = inflate(ts, p, ovh);
    let mut bands: Vec<Band<'_>> = p
        .dp_ranges()
        .into_iter()
        .map(|r| Band {
            edf: true,
            tasks: &inflated[r],
        })
        .collect();
    bands.push(Band {
        edf: false,
        tasks: &inflated[p.fp_range()],
    });
    csd_test_with(&bands, limits)
}

/// Reference troublesome boundary: the prefix scan from the longest
/// prefix down.
pub fn troublesome_boundary(ts: &TaskSet, ovh: &OverheadModel, limits: AnalysisLimits) -> usize {
    let n = ts.len();
    let o = ovh.rmq_per_period(n);
    let inflated: Vec<InflatedTask> = ts
        .tasks()
        .iter()
        .map(|t| InflatedTask::new(t.period, t.deadline, t.wcet + o))
        .collect();
    for i in (0..n).rev() {
        if rm_test_with(&inflated[..=i], limits) != TestOutcome::Schedulable
            && rm_test_with(&inflated[..i], limits) == TestOutcome::Schedulable
        {
            return i + 1;
        }
    }
    if n > 0 && rm_test_with(&inflated, limits) != TestOutcome::Schedulable {
        n
    } else {
        0
    }
}

/// Reference troublesome-rule search: test every candidate, keep the
/// first of the cheapest feasible ones.
pub fn rule_search(
    ts: &TaskSet,
    x: usize,
    ovh: &OverheadModel,
    limits: AnalysisLimits,
) -> Option<Partition> {
    rule_candidates(ts.len(), x - 1, || troublesome_boundary(ts, ovh, limits))
        .into_iter()
        .filter(|p| test_partition(ts, p, ovh, limits) == TestOutcome::Schedulable)
        .map(|p| (overhead_utilization(ts, &p, ovh), p))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, p)| p)
}

/// Reference breakdown driver for EDF, RM and CSD-x with the default
/// (seeded, with overheads) search.
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
    let limits = opts.limits;
    let flat = |o: Duration| -> Vec<InflatedTask> {
        scaled
            .tasks()
            .iter()
            .map(|t| InflatedTask::new(t.period, t.deadline, t.wcet + o))
            .collect()
    };
    match sched {
        SchedulerConfig::Edf => edf_test_with(&flat(ovh.edf_per_period(n)), limits)
            .is_schedulable()
            .then_some(None),
        SchedulerConfig::Rm => rm_test_with(&flat(ovh.rmq_per_period(n)), limits)
            .is_schedulable()
            .then_some(None),
        SchedulerConfig::Csd(x) => {
            let rule = rule_search(&scaled, x, ovh, limits);
            let climbed = seed.clone().and_then(|s| {
                hill_climb(&scaled, ovh, s, |p| {
                    test_partition(&scaled, p, ovh, limits).is_schedulable()
                })
            });
            let found = pick_rule_or_climbed(&scaled, ovh, rule, climbed);
            if let Some(p) = &found {
                *seed = Some(p.clone());
            }
            found.map(Some)
        }
        SchedulerConfig::RmHeap => unimplemented!("no reference for RM-heap"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::partition::{find_partition, SearchStrategy};
    use crate::workload::WorkloadParams;
    use emeralds_hal::CostModel;
    use emeralds_sim::SimRng;

    /// One random band set: 1–4 bands (RM bands in priority order),
    /// implicit or constrained deadlines, total utilization anywhere
    /// from light to within 1e-3 of 1, and limits that are either the
    /// defaults or tiny.
    fn random_bands(rng: &mut SimRng) -> (Vec<(bool, Vec<InflatedTask>)>, AnalysisLimits) {
        let nbands = rng.int_in(1, 4) as usize;
        let n = rng.int_in(nbands as u64, 12) as usize;
        let u_total = if rng.chance(0.35) {
            1.0 + rng.float_in(-1e-3, 1e-3)
        } else {
            rng.float_in(0.2, 1.0)
        };
        let implicit = rng.chance(0.4);
        let shares: Vec<f64> = (0..n).map(|_| rng.float_in(0.1, 1.0)).collect();
        let total: f64 = shares.iter().sum();
        let tasks: Vec<InflatedTask> = shares
            .iter()
            .map(|s| {
                let p = Duration::from_us(rng.int_in(1_000, 100_000));
                let c = p.scale_f64(u_total * s / total).max(Duration::from_ns(1));
                let d = if implicit || rng.chance(0.3) {
                    p
                } else {
                    c + p.saturating_sub(c).scale_f64(rng.float_in(0.0, 1.0))
                };
                InflatedTask::new(p, d, c)
            })
            .collect();
        // Split into bands at random cut points. The last band is RM
        // half the time and any band is RM one time in ten; the rest
        // are EDF.
        let mut cuts: Vec<usize> = (1..nbands)
            .map(|_| rng.int_in(0, n as u64) as usize)
            .collect();
        cuts.sort_unstable();
        let rm_last = rng.chance(0.5);
        let mut bands = Vec::with_capacity(nbands);
        let mut start = 0;
        for (k, end) in cuts.into_iter().chain([n]).enumerate() {
            let mut band = tasks[start..end].to_vec();
            let edf = !(rng.chance(0.1) || (rm_last && k == nbands - 1));
            if !edf {
                band.sort_by_key(|t| t.period);
            }
            bands.push((edf, band));
            start = end;
        }
        let limits = match rng.index(4) {
            0 => AnalysisLimits {
                horizon: Duration::from_us(rng.int_in(100, 200_000)),
                ..AnalysisLimits::default()
            },
            1 => AnalysisLimits {
                max_points: rng.int_in(1, 64) as usize,
                ..AnalysisLimits::default()
            },
            _ => AnalysisLimits::default(),
        };
        (bands, limits)
    }

    #[test]
    fn band_tests_match_the_reference() {
        let mut rng = SimRng::seeded(18);
        let mut outcomes = [0usize; 3];
        let mut over_points = 0;
        for case in 0..2_500 {
            let (owned, limits) = random_bands(&mut rng);
            let bands: Vec<Band<'_>> = owned
                .iter()
                .map(|(edf, tasks)| Band { edf: *edf, tasks })
                .collect();
            let new = analysis::csd_test_with(&bands, limits);
            let old = csd_test_with(&bands, limits);
            assert_eq!(
                new.is_schedulable(),
                old.is_schedulable(),
                "case {case}: {owned:?} {limits:?}"
            );
            if max_band_points(&bands, limits) <= limits.max_points as u64 {
                assert_eq!(new, old, "case {case}: {owned:?} {limits:?}");
            } else {
                over_points += 1;
            }
            outcomes[old as usize] += 1;

            let flat: Vec<InflatedTask> = owned.iter().flat_map(|(_, t)| t.clone()).collect();
            assert_eq!(
                analysis::edf_test_with(&flat, limits).is_schedulable(),
                edf_test_with(&flat, limits).is_schedulable(),
                "case {case}: EDF on {flat:?}"
            );
            let mut by_period = flat;
            by_period.sort_by_key(|t| t.period);
            assert_eq!(
                analysis::rm_test_with(&by_period, limits),
                rm_test_with(&by_period, limits),
                "case {case}: RM on {by_period:?}"
            );
        }
        // Every verdict kind occurs, and so does the point cap.
        assert!(outcomes.iter().all(|&k| k > 50), "outcomes {outcomes:?}");
        assert!(over_points > 10, "only {over_points} capped cases");
    }

    fn workloads() -> Vec<(u64, TaskSet)> {
        let mut rng = SimRng::seeded(1318);
        let mut out = Vec::new();
        for divisor in [1, 2, 3] {
            for _ in 0..10 {
                let n = rng.int_in(5, 24) as usize;
                let ts = WorkloadParams {
                    n,
                    period_divisor: divisor,
                    base_utilization: 0.5,
                }
                .generate(&mut rng);
                out.push((divisor, ts));
            }
        }
        out
    }

    #[test]
    fn partition_searches_match_the_reference() {
        let ovh = OverheadModel::new(CostModel::mc68040_25mhz());
        let limits = AnalysisLimits::default();
        for (divisor, ts) in workloads() {
            for scale in [0.8, 1.4, 1.8, 2.0] {
                let ts = ts.scale_wcets(scale);
                assert_eq!(
                    crate::partition::troublesome_boundary(&ts, &ovh, limits),
                    troublesome_boundary(&ts, &ovh, limits),
                    "÷{divisor} ×{scale}: {ts:?}"
                );
                for x in [2, 3, 4] {
                    assert_eq!(
                        find_partition(&ts, x, &ovh, &SearchStrategy::TroublesomeRule, limits),
                        rule_search(&ts, x, &ovh, limits),
                        "CSD-{x} ÷{divisor} ×{scale}: {ts:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn breakdown_utilizations_are_bit_identical_to_the_reference() {
        let ovh = OverheadModel::new(CostModel::mc68040_25mhz());
        let opts = BreakdownOptions::default();
        for (divisor, ts) in workloads() {
            for sched in [
                SchedulerConfig::Csd(4),
                SchedulerConfig::Csd(3),
                SchedulerConfig::Csd(2),
                SchedulerConfig::Edf,
                SchedulerConfig::Rm,
            ] {
                let new = crate::breakdown_utilization(&ts, sched, &ovh, &opts);
                let old = breakdown_utilization(&ts, sched, &ovh, &opts);
                assert_eq!(
                    new.utilization.to_bits(),
                    old.utilization.to_bits(),
                    "{} ÷{divisor} n={}",
                    sched.label(),
                    ts.len()
                );
                assert_eq!(new.partition, old.partition);
            }
        }
    }
}
