//! Determinism pins for the parallel cluster executive.
//!
//! The conservative-lookahead engine promises that host threading is
//! *invisible*: the same cluster advanced with 1, 4, or
//! `available_parallelism` workers produces bit-for-bit identical
//! per-node event traces and identical rolled-up metrics. These tests
//! pin that promise, plus the degenerate end of it: a single-node
//! cluster (epoch-split execution) must match a plain
//! `Kernel::run_until` over the same horizon.
//!
//! The last group pins the edges of the activity-driven barrier: a
//! node that provably cannot act before an epoch ends defers its
//! (idle) advance, and each test below breaks if the inertness proof
//! or a catch-up site ignores one of its edges.
//!
//! The comparison set defaults to 4 and `available_parallelism`
//! workers (against a 1-worker base) and can be extended through the
//! `EMERALDS_WORKERS` environment variable — a comma-separated list of
//! extra counts — which CI's determinism matrix uses to pin parity at
//! the counts its runners actually have.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use emeralds::core::kernel::{Kernel, KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Operand, Script};
use emeralds::core::SchedPolicy;
use emeralds::faults::FaultPlan;
use emeralds::fieldbus::{addressed_tag, Cluster};
use emeralds::sim::{Duration, IrqLine, MboxId, NodeId, SimRng, StateId, Time, TraceEvent};

const NIC_IRQ: IrqLine = IrqLine(2);

fn hash_of(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Worker counts to compare against the 1-worker base: 4 and the
/// host's parallelism, plus anything listed in `EMERALDS_WORKERS`
/// (comma-separated).
fn worker_counts() -> Vec<usize> {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![4, host];
    if let Ok(extra) = std::env::var("EMERALDS_WORKERS") {
        counts.extend(
            extra
                .split(',')
                .filter_map(|s| s.trim().parse::<usize>().ok()),
        );
    }
    counts.retain(|&w| w >= 1);
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// A traced node that sends an addressed frame on a jittered period,
/// drains its RX mailbox, and runs filler compute.
fn traced_node(i: usize, dst: NodeId, rng: &mut SimRng) -> (Kernel, MboxId, MboxId) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![1],
        },
        record_trace: true,
        ..KernelConfig::default()
    });
    let p = b.add_process(format!("node{i}"));
    let tx = b.add_mailbox(8);
    let rx = b.add_mailbox(16);
    b.board_mut().add_nic("can", NIC_IRQ);
    b.add_periodic_task(
        p,
        "tx",
        Duration::from_us(rng.int_in(4_000, 7_000)),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(rng.int_in(100, 300))),
            Action::SendMbox {
                mbox: tx,
                bytes: 8,
                tag: addressed_tag(Some(dst), i as u32),
            },
        ]),
    );
    b.add_periodic_task(
        p,
        "filler",
        Duration::from_us(rng.int_in(900, 1_500)),
        Script::compute_only(Duration::from_us(rng.int_in(30, 80))),
    );
    b.add_driver_task(
        p,
        "nicdrv",
        Duration::from_ms(2),
        Script::looping(vec![
            Action::RecvMbox(rx),
            Action::Compute(Duration::from_us(40)),
        ]),
    );
    (b.build(), tx, rx)
}

/// A 6-node ring cluster with tracing on.
fn ring_cluster(workers: usize) -> Cluster {
    const N: usize = 6;
    let mut rng = SimRng::seeded(0xD37);
    let mut c = Cluster::new(1_000_000).with_workers(workers);
    for i in 0..N {
        let mut nrng = rng.derive(i as u64);
        let dst = NodeId(((i + 1) % N) as u32);
        let (k, tx, rx) = traced_node(i, dst, &mut nrng);
        c.add_node(format!("node{i}"), k, tx, rx, NIC_IRQ, (i + 1) as u32);
    }
    c
}

#[test]
fn traces_and_metrics_identical_across_worker_counts() {
    let horizon = Time::from_ms(80);
    let mut base = ring_cluster(1);
    base.run_until(horizon);
    let base_hashes: Vec<u64> = base
        .nodes()
        .iter()
        .map(|n| hash_of(&n.kernel.trace().to_jsonl()))
        .collect();
    // Real traffic flowed, so the hashes pin something nontrivial.
    assert!(base.stats().frames_delivered > 20, "{:?}", base.stats());
    assert!(base.metrics().jobs_completed > 100);

    for workers in worker_counts() {
        let mut c = ring_cluster(workers);
        c.run_until(horizon);
        let hashes: Vec<u64> = c
            .nodes()
            .iter()
            .map(|n| hash_of(&n.kernel.trace().to_jsonl()))
            .collect();
        assert_eq!(
            hashes, base_hashes,
            "trace hashes diverged at workers={workers}"
        );
        assert_eq!(
            c.metrics(),
            base.metrics(),
            "metrics diverged at workers={workers}"
        );
        assert_eq!(
            c.stats(),
            base.stats(),
            "bus stats diverged at workers={workers}"
        );
    }
}

/// Fault injection must not weaken the invisibility promise: the same
/// fault seed drives the same corrupted grants, outages, and babble
/// bursts at every worker count, so traces, metrics, bus stats, and
/// per-node NIC stats stay bit-for-bit identical.
#[test]
fn faulted_runs_identical_across_worker_counts() {
    let horizon = Time::from_ms(80);
    for fault_seed in [0xFA11u64, 0x0DDB] {
        let plan = FaultPlan::random(fault_seed, 6, horizon, 0.05, 0.5, 0.5);
        assert!(!plan.is_empty(), "seed {fault_seed:#x} injected nothing");

        let run = |workers: usize| {
            let mut c = ring_cluster(workers);
            c.set_fault_plan(&plan);
            c.run_until(horizon);
            let hashes: Vec<u64> = c
                .nodes()
                .iter()
                .map(|n| hash_of(&n.kernel.trace().to_jsonl()))
                .collect();
            let node_stats: Vec<_> = c.nodes().iter().map(|n| n.stats.clone()).collect();
            (hashes, c.metrics(), *c.stats(), node_stats)
        };

        let base = run(1);
        // The plan actually bit: the error machinery left evidence.
        assert!(
            base.2.error_frames > 0 || base.2.frames_lost_offline > 0,
            "seed {fault_seed:#x} left no fault signal: {:?}",
            base.2
        );
        for workers in worker_counts() {
            let other = run(workers);
            assert_eq!(
                other.0, base.0,
                "trace hashes diverged at workers={workers}, seed {fault_seed:#x}"
            );
            assert_eq!(
                other.1, base.1,
                "metrics diverged at workers={workers}, seed {fault_seed:#x}"
            );
            assert_eq!(
                other.2, base.2,
                "bus stats diverged at workers={workers}, seed {fault_seed:#x}"
            );
            assert_eq!(
                other.3, base.3,
                "node stats diverged at workers={workers}, seed {fault_seed:#x}"
            );
        }
    }
}

/// A traced node that both publishes a state-message variable (shipped
/// to its ring successor over a `link_state` channel) and polls the
/// replica its predecessor feeds, recording data age on every read.
fn state_traced_node(i: usize, rng: &mut SimRng) -> (Kernel, MboxId, MboxId, StateId, StateId) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![1],
        },
        record_trace: true,
        ..KernelConfig::default()
    });
    let p = b.add_process(format!("node{i}"));
    let tx = b.add_mailbox(8);
    let rx = b.add_mailbox(16);
    b.board_mut().add_nic("can", NIC_IRQ);
    let tid = b.add_periodic_task(
        p,
        "pub",
        Duration::from_us(rng.int_in(4_000, 7_000)),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(rng.int_in(100, 300))),
            Action::StateWrite {
                var: StateId(0),
                value: Operand::Const(i as u32),
            },
        ]),
    );
    let wvar = b.add_state_msg(tid, 8, 3, &[]);
    assert_eq!(wvar, StateId(0));
    let rvar = b.add_state_replica(p, 8, 3, &[]);
    b.add_periodic_task(
        p,
        "law",
        Duration::from_us(rng.int_in(8_000, 12_000)),
        Script::periodic(vec![
            Action::StateRead(rvar),
            Action::Compute(Duration::from_us(rng.int_in(200, 500))),
        ]),
    );
    b.add_periodic_task(
        p,
        "filler",
        Duration::from_us(rng.int_in(900, 1_500)),
        Script::compute_only(Duration::from_us(rng.int_in(30, 80))),
    );
    (b.build(), tx, rx, wvar, rvar)
}

/// A 6-node state-linked ring with tracing on.
fn state_ring_cluster(workers: usize) -> Cluster {
    const N: usize = 6;
    let mut rng = SimRng::seeded(0x57A13);
    let mut c = Cluster::new(1_000_000).with_workers(workers);
    let mut vars = Vec::new();
    for i in 0..N {
        let mut nrng = rng.derive(i as u64);
        let (k, tx, rx, wvar, rvar) = state_traced_node(i, &mut nrng);
        c.add_node(format!("node{i}"), k, tx, rx, NIC_IRQ, (i + 1) as u32);
        vars.push((wvar, rvar));
    }
    for i in 0..N {
        let dst = (i + 1) % N;
        c.link_state(
            NodeId(i as u32),
            vars[i].0,
            NodeId(dst as u32),
            vars[dst].1,
            (10 + i) as u32,
            8,
        );
    }
    c
}

/// The staleness instrumentation must be worker-invisible too: the
/// same faulted, state-linked ring produces bit-for-bit identical data
/// age histograms, state-frame stats (overwrites, in-flight), and
/// traces at 1, 4, and `available_parallelism` workers.
#[test]
fn staleness_metrics_identical_across_worker_counts() {
    let horizon = Time::from_ms(80);
    let plan = FaultPlan::random(0xA6E, 6, horizon, 0.04, 0.3, 0.3);
    assert!(!plan.is_empty());

    let run = |workers: usize| {
        let mut c = state_ring_cluster(workers);
        c.set_fault_plan(&plan);
        c.run_until(horizon);
        let hashes: Vec<u64> = c
            .nodes()
            .iter()
            .map(|n| hash_of(&n.kernel.trace().to_jsonl()))
            .collect();
        (hashes, c.metrics(), *c.stats())
    };

    let base = run(1);
    // The pin is nontrivial: ages were recorded and state frames flowed.
    assert!(base.1.state_age.count() > 0, "no data age recorded");
    assert!(base.2.frames_delivered > 0, "no state frames delivered");
    assert_eq!(
        base.2.frames_sent,
        base.2.frames_delivered + base.2.frames_dropped + base.2.frames_in_flight,
        "frame accounting leak: {:?}",
        base.2
    );

    for workers in worker_counts() {
        let other = run(workers);
        assert_eq!(
            other.0, base.0,
            "trace hashes diverged at workers={workers}"
        );
        assert_eq!(
            other.1, base.1,
            "metrics (incl. staleness) diverged at workers={workers}"
        );
        assert_eq!(other.2, base.2, "bus stats diverged at workers={workers}");
    }
}

/// A kernel with no bus traffic, traced, for the N=1 parity check. Bus
/// traffic is excluded on purpose: the cluster's NIC harvest drains
/// the TX mailbox, which a plain kernel run has no analogue for. The
/// mailboxes and NIC exist (the cluster wiring needs them) but no task
/// touches them.
fn local_only_kernel() -> (Kernel, MboxId, MboxId) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![1],
        },
        record_trace: true,
        ..KernelConfig::default()
    });
    let p = b.add_process("solo");
    let tx = b.add_mailbox(4);
    let rx = b.add_mailbox(4);
    b.board_mut().add_nic("can", NIC_IRQ);
    b.add_periodic_task(
        p,
        "fast",
        Duration::from_us(1_100),
        Script::compute_only(Duration::from_us(90)),
    );
    b.add_periodic_task(
        p,
        "law",
        Duration::from_ms(5),
        Script::compute_only(Duration::from_us(700)),
    );
    b.add_periodic_task(
        p,
        "slow",
        Duration::from_ms(20),
        Script::compute_only(Duration::from_ms(2)),
    );
    (b.build(), tx, rx)
}

#[test]
fn single_node_cluster_matches_plain_kernel() {
    let horizon = Time::from_ms(60);
    let (mut plain, _, _) = local_only_kernel();
    plain.run_until(horizon);

    let mut c = Cluster::new(1_000_000);
    let (k, tx, rx) = local_only_kernel();
    c.add_node("solo", k, tx, rx, NIC_IRQ, 1);
    c.run_until(horizon);

    // Epoch-split execution of the same kernel: schedule, metrics, and
    // trace must agree exactly with the single uninterrupted run.
    let node = c.node(NodeId(0));
    assert_eq!(node.kernel.metrics(), plain.metrics());
    assert_eq!(
        hash_of(&node.kernel.trace().to_jsonl()),
        hash_of(&plain.trace().to_jsonl())
    );
    assert_eq!(c.metrics().deadline_misses, plain.metrics().deadline_misses);
    assert_eq!(c.stats().frames_sent, 0);
}

/// Adaptive lookahead (the default) must be simulation-invisible:
/// disabling it may only change barrier counts, never traces, metrics,
/// or bus statistics.
#[test]
fn adaptive_and_fixed_cadence_runs_bit_identical() {
    let horizon = Time::from_ms(80);
    let run = |adaptive: bool| {
        let mut c = ring_cluster(2);
        c.set_adaptive(adaptive);
        c.run_until(horizon);
        let hashes: Vec<u64> = c
            .nodes()
            .iter()
            .map(|n| hash_of(&n.kernel.trace().to_jsonl()))
            .collect();
        (hashes, c.metrics(), *c.stats(), c.exec_stats().barriers)
    };
    let fixed = run(false);
    let adaptive = run(true);
    assert!(fixed.2.frames_delivered > 20, "ring carried no traffic");
    assert_eq!(adaptive.0, fixed.0, "trace hashes diverged");
    assert_eq!(adaptive.1, fixed.1, "metrics diverged");
    assert_eq!(adaptive.2, fixed.2, "bus stats diverged");
    assert!(
        adaptive.3 <= fixed.3,
        "adaptive mode added barriers: {} > {}",
        adaptive.3,
        fixed.3
    );
}

/// Adaptive lookahead must stay simulation-invisible **under an
/// active fault plan**: a quiet-bus stretch may never leap past a
/// scheduled fault instant — a babble onset, a fail-stop window
/// boundary, or a bus-off recovery — or the fault lands on a different
/// barrier and the error machinery diverges. This pins bit-parity of
/// adaptive vs fixed cadence (traces, metrics, bus stats, per-node NIC
/// stats) across fault seeds, while still requiring the stretch to
/// collapse at least some barriers.
#[test]
fn adaptive_and_fixed_cadence_agree_under_faults() {
    let horizon = Time::from_ms(80);
    for fault_seed in [0xFA11u64, 0x0DDB, 0xBEEF] {
        let plan = FaultPlan::random(fault_seed, 6, horizon, 0.05, 0.5, 0.5);
        assert!(!plan.is_empty(), "seed {fault_seed:#x} injected nothing");
        let run = |adaptive: bool| {
            let mut c = ring_cluster(2);
            c.set_fault_plan(&plan);
            c.set_adaptive(adaptive);
            c.run_until(horizon);
            let hashes: Vec<u64> = c
                .nodes()
                .iter()
                .map(|n| hash_of(&n.kernel.trace().to_jsonl()))
                .collect();
            let node_stats: Vec<_> = c.nodes().iter().map(|n| n.stats.clone()).collect();
            (
                hashes,
                c.metrics(),
                *c.stats(),
                node_stats,
                c.exec_stats().barriers,
            )
        };
        let fixed = run(false);
        let adaptive = run(true);
        assert!(
            fixed.2.error_frames > 0 || fixed.2.frames_lost_offline > 0,
            "seed {fault_seed:#x} left no fault signal: {:?}",
            fixed.2
        );
        assert_eq!(
            adaptive.0, fixed.0,
            "trace hashes diverged under seed {fault_seed:#x}"
        );
        assert_eq!(
            adaptive.1, fixed.1,
            "metrics diverged under seed {fault_seed:#x}"
        );
        assert_eq!(
            adaptive.2, fixed.2,
            "bus stats diverged under seed {fault_seed:#x}"
        );
        assert_eq!(
            adaptive.3, fixed.3,
            "node stats diverged under seed {fault_seed:#x}"
        );
        assert!(
            adaptive.4 <= fixed.4,
            "adaptive mode added barriers under faults: {} > {}",
            adaptive.4,
            fixed.4
        );
    }
}

/// A stretched epoch is truncated at the horizon: driving a quiet
/// cluster to a horizon on neither the lookahead grid nor any timer
/// expiry lands the cursor exactly there, and resuming to a further
/// horizon matches a single uninterrupted run. On this quiet bus the
/// stretch must also collapse barriers heavily vs fixed cadence.
#[test]
fn adaptive_stretch_truncates_at_horizon() {
    let mid = Time::from_us(13_317); // off-grid, off every period used
    let end = Time::from_ms(60);
    let build = || {
        let mut c = Cluster::new(1_000_000);
        let (k, tx, rx) = local_only_kernel();
        c.add_node("solo", k, tx, rx, NIC_IRQ, 1);
        c
    };
    let mut whole = build();
    whole.run_until(end);

    let mut split = build();
    split.run_until(mid);
    assert_eq!(split.now(), mid, "cursor overshot the truncated horizon");
    assert!(split.exec_stats().barriers >= 1);
    split.run_until(end);
    assert_eq!(split.now(), end);
    let (a, b) = (&split.node(NodeId(0)).kernel, &whole.node(NodeId(0)).kernel);
    assert_eq!(a.metrics(), b.metrics(), "metrics diverged across split");
    assert_eq!(
        hash_of(&a.trace().to_jsonl()),
        hash_of(&b.trace().to_jsonl()),
        "trace diverged across split"
    );

    let mut fixed = build();
    fixed.set_adaptive(false);
    fixed.run_until(end);
    assert!(
        whole.exec_stats().barriers * 2 <= fixed.exec_stats().barriers,
        "quiet-bus stretch collapsed too few barriers: {} vs {}",
        whole.exec_stats().barriers,
        fixed.exec_stats().barriers
    );
}

/// A node that posts one frame right at each job release (the timer
/// expiry adaptive stretches target), then idles most of its period.
fn sparse_tx_node(i: usize, dst: NodeId) -> (Kernel, MboxId, MboxId) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![1],
        },
        record_trace: true,
        ..KernelConfig::default()
    });
    let p = b.add_process(format!("sparse{i}"));
    let tx = b.add_mailbox(8);
    let rx = b.add_mailbox(16);
    b.board_mut().add_nic("can", NIC_IRQ);
    b.add_periodic_task(
        p,
        "tx",
        Duration::from_us(9_700 + 900 * i as u64),
        Script::periodic(vec![
            Action::SendMbox {
                mbox: tx,
                bytes: 8,
                tag: addressed_tag(Some(dst), i as u32),
            },
            Action::Compute(Duration::from_us(120)),
        ]),
    );
    b.add_driver_task(
        p,
        "nicdrv",
        Duration::from_ms(2),
        Script::looping(vec![
            Action::RecvMbox(rx),
            Action::Compute(Duration::from_us(40)),
        ]),
    );
    (b.build(), tx, rx)
}

/// Frames enqueued at the very instant a stretched epoch lands on (the
/// job-release expiry the stretch targeted) are harvested and
/// delivered bit-identically to a fixed-cadence run — and the long
/// idle gaps between sends must actually have been stretched across.
#[test]
fn tx_at_stretched_boundary_is_delivered_identically() {
    let horizon = Time::from_ms(60);
    let run = |adaptive: bool| {
        let mut c = Cluster::new(1_000_000).with_workers(2);
        c.set_adaptive(adaptive);
        for i in 0..2usize {
            let dst = NodeId(((i + 1) % 2) as u32);
            let (k, tx, rx) = sparse_tx_node(i, dst);
            c.add_node(format!("n{i}"), k, tx, rx, NIC_IRQ, (i + 1) as u32);
        }
        c.run_until(horizon);
        let hashes: Vec<u64> = c
            .nodes()
            .iter()
            .map(|n| hash_of(&n.kernel.trace().to_jsonl()))
            .collect();
        (hashes, c.metrics(), *c.stats(), c.exec_stats().barriers)
    };
    let fixed = run(false);
    let adaptive = run(true);
    // Every periodic send made it across in both modes.
    assert!(fixed.2.frames_delivered >= 10, "{:?}", fixed.2);
    assert_eq!(adaptive.0, fixed.0, "trace hashes diverged");
    assert_eq!(adaptive.1, fixed.1, "metrics diverged");
    assert_eq!(adaptive.2, fixed.2, "bus stats diverged");
    assert!(
        adaptive.3 * 2 <= fixed.3,
        "sparse traffic should stretch epochs: {} vs {} barriers",
        adaptive.3,
        fixed.3
    );
}

#[test]
fn epoch_split_run_matches_single_call() {
    // Same cluster, horizon reached in one call vs many small calls
    // whose boundaries land on the (1 ms) lookahead grid.
    let mut whole = ring_cluster(2);
    whole.set_lookahead(Duration::from_ms(1));
    whole.run_until(Time::from_ms(48));

    let mut split = ring_cluster(2);
    split.set_lookahead(Duration::from_ms(1));
    for step in 1..=4 {
        split.run_until(Time::from_ms(step * 12));
    }
    assert_eq!(whole.metrics(), split.metrics());
    assert_eq!(whole.stats(), split.stats());
    for (a, b) in whole.nodes().iter().zip(split.nodes()) {
        assert_eq!(
            hash_of(&a.kernel.trace().to_jsonl()),
            hash_of(&b.kernel.trace().to_jsonl()),
            "node {}",
            a.name
        );
    }
}

/// A kernel that is idle almost all the time: one periodic task with a
/// `period`-long gap after its 10 µs job at time 0, plus a NIC driver
/// parked on the RX mailbox. `traced` turns the event trace on.
fn idle_node(period: Duration, traced: bool) -> (Kernel, MboxId, MboxId) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        record_trace: traced,
        ..KernelConfig::default()
    });
    let p = b.add_process("idle");
    let tx = b.add_mailbox(8);
    let rx = b.add_mailbox(16);
    b.board_mut().add_nic("can", NIC_IRQ);
    b.add_periodic_task(
        p,
        "rare",
        period,
        Script::compute_only(Duration::from_us(10)),
    );
    b.add_driver_task(
        p,
        "nicdrv",
        Duration::from_ms(2),
        Script::looping(vec![
            Action::RecvMbox(rx),
            Action::Compute(Duration::from_us(40)),
        ]),
    );
    (b.build(), tx, rx)
}

/// A node that sends one 8-byte frame to `dst` every `period`.
fn make_sender(period: Duration, dst: NodeId) -> (Kernel, MboxId, MboxId) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        record_trace: true,
        ..KernelConfig::default()
    });
    let p = b.add_process("sender");
    let tx = b.add_mailbox(8);
    let rx = b.add_mailbox(8);
    b.board_mut().add_nic("can", NIC_IRQ);
    b.add_periodic_task(
        p,
        "tx",
        period,
        Script::periodic(vec![
            Action::Compute(Duration::from_us(50)),
            Action::SendMbox {
                mbox: tx,
                bytes: 8,
                tag: addressed_tag(Some(dst), 1),
            },
        ]),
    );
    (b.build(), tx, rx)
}

/// Edge (a): babble is a fault-schedule instant, not a kernel event. A
/// babbler whose kernel has nothing to do until long after the window
/// never advances, yet every barrier must still judge its schedule:
/// it injects exactly the window's ticks that precede the horizon.
#[test]
fn idle_babbler_injects_its_analytic_garbage_count() {
    let (from, len, period) = (
        Time::from_ms(10),
        Duration::from_ms(10),
        Duration::from_ms(1),
    );
    for horizon_us in [5_000u64, 12_345, 15_500, 25_000] {
        let horizon = Time::from_us(horizon_us);
        let mut c = Cluster::new(1_000_000);
        for i in 0..2u32 {
            let (k, tx, rx) = idle_node(Duration::from_ms(500), false);
            c.add_node(format!("n{i}"), k, tx, rx, NIC_IRQ, i + 1);
        }
        c.set_fault_plan(&FaultPlan::new(7).babble(NodeId(0), from, len, period));
        c.run_until(horizon);
        // Ticks at from + k·period inside the window land at the first
        // barrier strictly after them; the horizon is the last barrier.
        let expected = (0..)
            .map(|k| from + period * k)
            .take_while(|&t| t < from + len && t < horizon)
            .count() as u64;
        let babbler = c.node_stats(NodeId(0));
        assert_eq!(babbler.babble_frames, expected, "horizon {horizon_us} µs");
        assert_eq!(c.stats().babble_frames, expected, "horizon {horizon_us} µs");
        // At most ten flagged frames leave the babbler error-active
        // (TEC ≤ 80), so none of the ticks fell silent in bus-off.
        assert_eq!(babbler.bus_off_events, 0);
    }
}

/// Edge (b): a fail-stop window opening inside an epoch makes a node
/// non-inert even when none of its tasks is due: the gate must stall
/// it at the window start. The reference run is split at every
/// barrier, and every `run_until` starts with all nodes due, so it
/// defers nothing; single runs to each of its barriers must match it
/// in the frames lost to the dead receiver and in the receiver's
/// clock and idle time.
#[test]
fn fail_stopped_idle_receiver_loses_frames_at_the_same_barriers() {
    let victim = NodeId(1);
    let plan = FaultPlan::new(3).fail_stop(victim, Time::from_ms(10), Duration::from_ms(10));
    let build = || {
        let mut c = Cluster::new(1_000_000);
        let (k0, tx0, rx0) = make_sender(Duration::from_ms(2), victim);
        c.add_node("sender", k0, tx0, rx0, NIC_IRQ, 1);
        let (k1, tx1, rx1) = idle_node(Duration::from_ms(40), false);
        c.add_node("victim", k1, tx1, rx1, NIC_IRQ, 2);
        c.set_fault_plan(&plan);
        c
    };
    let observe = |c: &Cluster| {
        let m = c.node(victim).kernel.metrics();
        (c.stats().frames_lost_offline, m.now, m.idle_time)
    };
    let mut reference = build();
    let l = reference.lookahead();
    let barriers = 30_000 / l.as_us();
    let mut series = Vec::new();
    for k in 1..=barriers {
        reference.run_until(Time::ZERO + l * k);
        series.push(observe(&reference));
    }
    let lost = series.last().expect("barriers").0;
    assert!(lost >= 4, "the outage swallowed too few frames: {lost}");
    for (k, want) in (1..=barriers).zip(&series) {
        let mut c = build();
        c.run_until(Time::ZERO + l * k);
        assert_eq!(&observe(&c), want, "barrier {k}");
    }
}

/// Edge (c): a receiver idle for many epochs has deferred its clock.
/// Its first delivery after the gap must still start at the staging
/// barrier (the catch-up in staging), and at the horizon its clock and
/// idle time must be whole (the catch-up in the end-of-run flush).
#[test]
fn long_idle_receiver_sees_its_first_delivery_at_the_staging_barrier() {
    let horizon = Time::from_ms(40);
    let (sender, receiver) = (NodeId(0), NodeId(1));
    let build = || {
        let mut c = Cluster::new(1_000_000);
        let (k0, tx0, rx0) = make_sender(Duration::from_ms(25), receiver);
        c.add_node("sender", k0, tx0, rx0, NIC_IRQ, 1);
        let (k1, tx1, rx1) = idle_node(Duration::from_ms(100), true);
        c.add_node("receiver", k1, tx1, rx1, NIC_IRQ, 2);
        c
    };
    let mut c = build();
    c.run_until(horizon);

    // Each post lands mid-epoch, so it is harvested and granted at the
    // next grid point and completes one frame time later, on the grid
    // again: that barrier stages it.
    let l = c.lookahead();
    assert_eq!(c.frame_time(8), l);
    let times = |id: NodeId, kind: fn(&TraceEvent) -> bool| -> Vec<Time> {
        c.node(id)
            .kernel
            .trace()
            .iter()
            .filter(|(_, e)| kind(e))
            .map(|&(t, _)| t)
            .collect()
    };
    let staged: Vec<Time> = times(sender, |e| matches!(e, TraceEvent::MboxSend { .. }))
        .iter()
        .map(|p| Time::ZERO + l * (p.since(Time::ZERO).as_ns() / l.as_ns() + 2))
        .collect();
    assert_eq!(staged.len(), 2, "one post per job: {staged:?}");
    // The second delivery follows ~25 ms of receiver idleness. Both
    // take the same kernel path (push to the parked driver, then the
    // NIC interrupt), so both must sit at the same offset past their
    // staging barrier.
    for kind in [
        (|e: &TraceEvent| matches!(e, TraceEvent::MboxRecv { .. })) as fn(&TraceEvent) -> bool,
        |e| matches!(e, TraceEvent::IrqRaised { .. }),
    ] {
        let at = times(receiver, kind);
        assert_eq!(at.len(), 2, "{at:?}");
        assert!(
            at.iter().zip(&staged).all(|(t, s)| t >= s),
            "{at:?} before {staged:?}"
        );
        let offsets: Vec<Duration> = at.iter().zip(&staged).map(|(t, s)| t.since(*s)).collect();
        assert!(offsets[0] < l, "{at:?} vs {staged:?}");
        assert_eq!(offsets[0], offsets[1], "{at:?} vs {staged:?}");
    }
    let m = c.node(receiver).kernel.metrics();
    assert_eq!(m.now, horizon, "receiver clock left behind");
    assert_eq!(
        m.idle_time,
        horizon.since(Time::ZERO) - m.app_time - m.total_overhead,
        "idle time not whole"
    );

    // A run split at every barrier defers nothing (each `run_until`
    // starts with every node due): the receiver's trace must match.
    let mut reference = build();
    for k in 1..=horizon.since(Time::ZERO).as_ns() / l.as_ns() {
        reference.run_until(Time::ZERO + l * k);
    }
    reference.run_until(horizon);
    assert_eq!(
        c.node(receiver).kernel.trace().to_jsonl(),
        reference.node(receiver).kernel.trace().to_jsonl()
    );
    assert_eq!(m, reference.node(receiver).kernel.metrics());
}
