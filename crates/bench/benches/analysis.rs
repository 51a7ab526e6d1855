//! Micro-bench: the offline analyses — schedulability tests,
//! partition search, and a full breakdown-utilization run.

use emeralds_bench::microbench::BenchGroup;
use emeralds_hal::CostModel;
use emeralds_sched::analysis::{csd_test, AnalysisLimits, Band};
use emeralds_sched::partition::find_partition;
use emeralds_sched::{
    breakdown_utilization, edf_test, rm_test, BreakdownOptions, InflatedTask, OverheadModel,
    SchedulerConfig, SearchStrategy, TaskSet, WorkloadParams,
};
use emeralds_sim::SimRng;
use std::hint::black_box;

fn workload(n: usize, seed: u64) -> TaskSet {
    WorkloadParams {
        n,
        period_divisor: 1,
        base_utilization: 0.7,
    }
    .generate(&mut SimRng::seeded(seed))
}

fn inflated(ts: &TaskSet) -> Vec<InflatedTask> {
    ts.tasks()
        .iter()
        .map(|t| InflatedTask::new(t.period, t.deadline, t.wcet))
        .collect()
}

fn bench_tests() {
    let mut g = BenchGroup::new("schedulability_tests");
    for n in [10usize, 50] {
        let ts = workload(n, 1);
        let inf = inflated(&ts);
        g.bench(format!("edf/{n}"), || black_box(edf_test(&inf)));
        g.bench(format!("rm_rta/{n}"), || black_box(rm_test(&inf)));
    }
    // CSD-3 over 30 tasks: two EDF bands and the FP band, so the
    // second DP band and the FP band carry higher-band interference.
    let ts = workload(30, 4);
    let inf = inflated(&ts);
    let bands = [
        Band {
            edf: true,
            tasks: &inf[..8],
        },
        Band {
            edf: true,
            tasks: &inf[8..18],
        },
        Band {
            edf: false,
            tasks: &inf[18..],
        },
    ];
    assert!(csd_test(&bands).is_schedulable(), "bench set must pass");
    g.bench("csd3_bands/30", || black_box(csd_test(&bands)));
}

fn bench_partition_search() {
    let ovh = OverheadModel::new(CostModel::mc68040_25mhz());
    let mut g = BenchGroup::new("csd3_partition_search");
    for n in [20usize, 40] {
        let ts = workload(n, 2);
        g.bench(format!("exhaustive/{n}"), || {
            black_box(find_partition(
                &ts,
                3,
                &ovh,
                &SearchStrategy::Exhaustive,
                AnalysisLimits::default(),
            ))
        });
        g.bench(format!("rule/{n}"), || {
            black_box(find_partition(
                &ts,
                3,
                &ovh,
                &SearchStrategy::TroublesomeRule,
                AnalysisLimits::default(),
            ))
        });
    }
}

fn bench_breakdown() {
    let ovh = OverheadModel::new(CostModel::mc68040_25mhz());
    let opts = BreakdownOptions::default();
    let ts = workload(20, 3);
    let mut g = BenchGroup::new("breakdown_search");
    for sched in [
        SchedulerConfig::Edf,
        SchedulerConfig::Rm,
        SchedulerConfig::Csd(2),
        SchedulerConfig::Csd(3),
        SchedulerConfig::Csd(4),
    ] {
        g.bench(sched.label(), || {
            black_box(breakdown_utilization(&ts, sched, &ovh, &opts))
        });
    }
}

fn main() {
    bench_tests();
    bench_partition_search();
    bench_breakdown();
}
