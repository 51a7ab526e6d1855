//! Zero-allocation gate for the interpreter hot loop.
//!
//! EMERALDS' own hot paths are constant-time and allocation-free; the
//! host interpreter replaying them should be too once warmed up. This
//! binary installs the counting global allocator (`--features
//! alloc-count`) and asserts that after a warm-up run — which grows
//! every pool, queue, and scratch buffer to its high-water mark — a
//! steady-state window performs **zero** heap allocations:
//!
//! - a single-kernel `Kernel::advance_to` window mixing timer
//!   releases, dispatches, and uncontended semaphore traffic;
//! - a quiet-bus cluster stretch, where the epoch executive proves
//!   idleness and crosses barriers without staging a frame;
//! - a busy cluster window, where every barrier harvests, arbitrates
//!   and stages frames while idle nodes stay off the agenda (the keys,
//!   the due list and the per-barrier visit list);
//! - a busy two-segment topology window, where each segment runs that
//!   agenda inside every outer epoch and the gateway captures and
//!   forwards cross-segment frames at the outer barriers (the
//!   two-level engine's buffers and `remote_out` are reused).
//!
//! Any new allocation on these paths (a `clone` in the dispatch loop,
//! a fresh `Vec` per epoch, a far-bucket promotion that outgrows the
//! timer queue's spare pool) fails the gate with an exact count.

#![cfg(feature = "alloc-count")]

use emeralds::core::kernel::{KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Script};
use emeralds::core::{Kernel, SchedPolicy};
use emeralds::fieldbus::{addressed_tag, wide_tag, Cluster, GatewayConfig, GatewayId, Topology};
use emeralds::sim::count_alloc;
use emeralds::sim::{Duration, IrqLine, NodeId, Time};

#[global_allocator]
static ALLOC: emeralds::sim::CountingAlloc = emeralds::sim::CountingAlloc;

const NIC_IRQ: IrqLine = IrqLine(2);

/// A busy single-node workload: dense periodic releases (timer and
/// scheduler pressure) plus a lone-holder mutex, so the measured
/// window crosses every kernel hot path the profiler instruments.
fn busy_kernel() -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![2],
        },
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process("gate");
    let m = b.add_mutex();
    b.add_periodic_task(
        p,
        "locker",
        Duration::from_ms(2),
        Script::periodic(vec![
            Action::AcquireSem(m),
            Action::Compute(Duration::from_us(50)),
            Action::ReleaseSem(m),
        ]),
    );
    for f in 0..6u64 {
        b.add_periodic_task(
            p,
            format!("ctl{f}"),
            Duration::from_us(700 + 150 * f),
            Script::compute_only(Duration::from_us(25)),
        );
    }
    b.build()
}

#[test]
fn steady_state_kernel_window_allocates_nothing() {
    let mut k = busy_kernel();
    // Warm-up: first jobs grow the ready queues, timer buckets, and
    // IRQ scratch to their high-water marks.
    k.run_until(Time::from_ms(50));
    let before = count_alloc::thread_alloc_count();
    k.advance_to(Time::from_ms(100));
    let delta = count_alloc::thread_alloc_count() - before;
    assert_eq!(
        delta, 0,
        "steady-state Kernel::advance_to made {delta} heap allocations"
    );
    // The window did real work, not nothing.
    assert!(k.metrics().context_switches > 0);
}

/// Four quiet nodes: one sparse control task and an event-driven NIC
/// driver each, no frames ever sent — the epoch executive's pure
/// barrier/lookahead path.
fn quiet_cluster() -> Cluster {
    let mut c = Cluster::new(1_000_000).with_workers(1);
    for i in 0..4usize {
        let mut b = KernelBuilder::new(KernelConfig {
            policy: SchedPolicy::Csd {
                boundaries: vec![1],
            },
            record_trace: false,
            ..KernelConfig::default()
        });
        let p = b.add_process(format!("n{i}"));
        let tx = b.add_mailbox(4);
        let rx = b.add_mailbox(4);
        b.board_mut().add_nic("can", NIC_IRQ);
        b.add_periodic_task(
            p,
            "law",
            Duration::from_ms(20),
            Script::compute_only(Duration::from_us(100)),
        );
        b.add_driver_task(
            p,
            "nicdrv",
            Duration::from_ms(5),
            Script::looping(vec![
                Action::RecvMbox(rx),
                Action::Compute(Duration::from_us(10)),
            ]),
        );
        c.add_node(format!("n{i}"), b.build(), tx, rx, NIC_IRQ, (i + 1) as u32);
    }
    c
}

#[test]
fn quiet_cluster_stretch_allocates_nothing() {
    let mut c = quiet_cluster();
    // Warm-up pass: epoch scratch, per-node buffers, and the bus
    // bookkeeping all reach steady capacity.
    c.run_until(Time::from_ms(60));
    let before = count_alloc::thread_alloc_count();
    c.run_until(Time::from_ms(120));
    let delta = count_alloc::thread_alloc_count() - before;
    assert_eq!(
        delta, 0,
        "quiet-bus cluster stretch made {delta} heap allocations"
    );
    assert!(c.metrics().jobs_completed > 0);
}

/// Six nodes on a ~50%-loaded bus: each sends an addressed frame to
/// its ring successor every 1.2–1.7 ms and a broadcast every 5 ms, and
/// drains its RX mailbox from an interrupt-driven driver. Between
/// sends a node sits idle, so barriers mix real and deferred advances.
fn busy_cluster() -> Cluster {
    const N: usize = 6;
    let mut c = Cluster::new(1_000_000).with_workers(1);
    for i in 0..N {
        let mut b = KernelBuilder::new(KernelConfig {
            policy: SchedPolicy::RmQueue,
            record_trace: false,
            ..KernelConfig::default()
        });
        let p = b.add_process(format!("n{i}"));
        let tx = b.add_mailbox(8);
        let rx = b.add_mailbox(16);
        b.board_mut().add_nic("can", NIC_IRQ);
        let dst = NodeId(((i + 1) % N) as u32);
        b.add_periodic_task(
            p,
            "unicast",
            Duration::from_us(1_200 + 100 * i as u64),
            Script::periodic(vec![
                Action::Compute(Duration::from_us(30)),
                Action::SendMbox {
                    mbox: tx,
                    bytes: 8,
                    tag: addressed_tag(Some(dst), i as u32),
                },
            ]),
        );
        b.add_periodic_task(
            p,
            "broadcast",
            Duration::from_ms(5),
            Script::periodic(vec![Action::SendMbox {
                mbox: tx,
                bytes: 4,
                tag: addressed_tag(None, i as u32),
            }]),
        );
        b.add_driver_task(
            p,
            "nicdrv",
            Duration::from_ms(1),
            Script::looping(vec![
                Action::RecvMbox(rx),
                Action::Compute(Duration::from_us(15)),
            ]),
        );
        c.add_node(format!("n{i}"), b.build(), tx, rx, NIC_IRQ, (i + 1) as u32);
    }
    c
}

#[test]
fn busy_cluster_window_allocates_nothing() {
    let mut c = busy_cluster();
    c.run_until(Time::from_ms(60));
    let sent = c.stats().frames_sent;
    let before = count_alloc::thread_alloc_count();
    c.run_until(Time::from_ms(120));
    let delta = count_alloc::thread_alloc_count() - before;
    assert_eq!(
        delta, 0,
        "busy cluster window made {delta} heap allocations"
    );
    // The window carried real traffic, not a quiet stretch.
    let s = c.stats();
    assert!(s.frames_sent - sent > 200, "{s:?}");
    assert!(
        s.frames_delivered > s.frames_sent,
        "no broadcast fan-out: {s:?}"
    );
    assert_eq!(s.frames_dropped, 0, "{s:?}");
}

/// Two 1 Mbit/s segments of six nodes joined by one gateway. Each node
/// sends to its segment successor every 1.2–1.7 ms and to its twin on
/// the other segment every 2–2.5 ms, and drains its RX mailbox from an
/// interrupt-driven driver. There are no broadcasts: the bridge NICs
/// the topology builds record a full trace, whose storage grows with
/// every frame they hear (the other windows build their kernels
/// non-recording for the same reason). `busy_cluster` covers the
/// broadcast staging path.
fn busy_topology() -> Topology {
    const PER: usize = 6;
    let mut t = Topology::new().with_workers(1);
    let segs = [t.add_segment(1_000_000), t.add_segment(1_000_000)];
    for (s, &seg) in segs.iter().enumerate() {
        for j in 0..PER {
            let i = s * PER + j;
            let mut b = KernelBuilder::new(KernelConfig {
                policy: SchedPolicy::RmQueue,
                record_trace: false,
                ..KernelConfig::default()
            });
            let p = b.add_process(format!("n{i}"));
            let tx = b.add_mailbox(8);
            let rx = b.add_mailbox(16);
            b.board_mut().add_nic("can", NIC_IRQ);
            let local = NodeId((s * PER + (j + 1) % PER) as u32);
            let twin = NodeId(((1 - s) * PER + j) as u32);
            for (name, period_us, dst) in [
                ("local", 1_200 + 100 * j as u64, local),
                ("cross", 2_000 + 100 * j as u64, twin),
            ] {
                b.add_periodic_task(
                    p,
                    name,
                    Duration::from_us(period_us),
                    Script::periodic(vec![
                        Action::Compute(Duration::from_us(20)),
                        Action::SendMbox {
                            mbox: tx,
                            bytes: 8,
                            tag: wide_tag(Some(dst), i as u32),
                        },
                    ]),
                );
            }
            b.add_driver_task(
                p,
                "nicdrv",
                Duration::from_ms(1),
                Script::looping(vec![
                    Action::RecvMbox(rx),
                    Action::Compute(Duration::from_us(15)),
                ]),
            );
            t.add_node(
                seg,
                format!("n{i}"),
                b.build(),
                tx,
                rx,
                NIC_IRQ,
                (j + 2) as u32,
            );
        }
    }
    t.add_gateway(segs[0], segs[1], GatewayConfig::default());
    t
}

#[test]
fn busy_topology_window_allocates_nothing() {
    let mut t = busy_topology();
    t.run_until(Time::from_ms(60));
    let sent = t.total_stats().frames_sent;
    let forwarded = t.gateway_stats(GatewayId(0)).forwarded;
    let before = count_alloc::thread_alloc_count();
    t.run_until(Time::from_ms(120));
    let delta = count_alloc::thread_alloc_count() - before;
    assert_eq!(
        delta, 0,
        "busy topology window made {delta} heap allocations"
    );
    // The window carried local and cross-segment traffic.
    let s = t.total_stats();
    assert!(s.frames_sent - sent > 400, "{s:?}");
    assert_eq!(s.frames_dropped, 0, "{s:?}");
    assert!(
        t.gateway_stats(GatewayId(0)).forwarded - forwarded > 100,
        "{:?}",
        t.gateway_stats(GatewayId(0))
    );
    assert!(t.conservation().holds(), "{:?}", t.conservation());
}
