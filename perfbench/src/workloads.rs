//! The four workloads: item generators, the timed build and run of one
//! item, and the item's correctness checks.
//!
//! Every item is a pure function of `(workload, seed, pool index)`.
//! A workload draws a pool of items from the seed and cycles through
//! it, so every run sees the same mix; pool slots walk a fixed
//! per-workload mix of shapes (policy, fault level, topology shape,
//! task count). Items run one at a time on the calling thread, and
//! every executive is built with one worker.

use emeralds_core::kernel::{Kernel, KernelBuilder, KernelConfig};
use emeralds_core::script::{Action, Operand, Script};
use emeralds_core::{LockChoice, SchedPolicy};
use emeralds_faults::FaultPlan;
use emeralds_fieldbus::{
    addressed_tag, wide_tag, Cluster, GatewayConfig, GatewayId, GatewayPolicy, Topology,
};
use emeralds_hal::CostModel;
use emeralds_sched::{
    breakdown_utilization, BreakdownOptions, OverheadModel, SchedulerConfig, TaskSet,
    WorkloadParams,
};
use emeralds_sim::{Duration, IrqLine, MboxId, NodeId, SimRng, StateId, Time};

use crate::spans::{Recorder, SpanId};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    KernelBoards,
    BusTraffic,
    TopologyReroute,
    AnalysisSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::KernelBoards,
        Workload::BusTraffic,
        Workload::TopologyReroute,
        Workload::AnalysisSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KernelBoards => "kernel_boards",
            Workload::BusTraffic => "bus_traffic",
            Workload::TopologyReroute => "topology_reroute",
            Workload::AnalysisSweep => "analysis_sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Length of the fixed mix pool slots cycle through.
    pub fn mix_len(self) -> usize {
        match self {
            Workload::KernelBoards => 8,
            Workload::BusTraffic => 6,
            Workload::TopologyReroute => 4,
            Workload::AnalysisSweep => 10,
        }
    }

    /// Distinct items per seed: a whole number of mixes, at least 100.
    pub fn pool_len(self) -> usize {
        100_usize.div_ceil(self.mix_len()) * self.mix_len()
    }

    /// Simulated horizon of one item (`None` for the offline analysis).
    pub fn horizon(self) -> Option<Time> {
        match self {
            Workload::KernelBoards => Some(Time::from_ms(BOARD_HORIZON_MS)),
            Workload::BusTraffic => Some(Time::from_ms(BUS_HORIZON_MS)),
            Workload::TopologyReroute => Some(Time::from_ms(TOPO_HORIZON_MS)),
            Workload::AnalysisSweep => None,
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::KernelBoards => 0xB0A2D,
            Workload::BusTraffic => 0xB05,
            Workload::TopologyReroute => 0x7070,
            Workload::AnalysisSweep => 0xA7A1,
        }
    }
}

const BOARD_HORIZON_MS: u64 = 500;
const BUS_HORIZON_MS: u64 = 500;
const TOPO_HORIZON_MS: u64 = 120;

/// Exact virtual counters of one item. Every field is a pure function
/// of the item's inputs; host time never enters.
pub mod c {
    pub const CTX_SWITCHES: usize = 0;
    pub const JOBS: usize = 1;
    pub const SELECT_CALLS: usize = 2;
    pub const SELECT_EVALS: usize = 3;
    pub const TIMER_ARMS: usize = 4;
    pub const SEM_ACQUIRED: usize = 5;
    pub const SEM_FAST_ACQUIRES: usize = 6;
    pub const TRACE_EVENTS: usize = 7;
    pub const DEADLINE_MISSES: usize = 8;
    pub const BARRIERS: usize = 9;
    pub const FRAMES_SENT: usize = 10;
    pub const FRAMES_DELIVERED: usize = 11;
    pub const FRAMES_DROPPED: usize = 12;
    pub const FRAMES_IN_FLIGHT: usize = 13;
    pub const RETRANSMISSIONS: usize = 14;
    pub const ERROR_FRAMES: usize = 15;
    pub const BUS_OFF_EVENTS: usize = 16;
    pub const STATE_OVERWRITES: usize = 17;
    pub const UNRECOVERED_BUS_OFF: usize = 18;
    pub const OUTER_BARRIERS: usize = 19;
    pub const INNER_BARRIERS: usize = 20;
    pub const GATEWAY_FORWARDED: usize = 21;
    pub const REROUTES: usize = 22;
    pub const NO_ROUTE_DROPS: usize = 23;
    pub const BCAST_FANOUT: usize = 24;
    pub const GATEWAY_FAULT_DROPS: usize = 25;
    pub const TASKS_ANALYSED: usize = 26;
    /// Bit patterns of the five breakdown utilizations, in
    /// [`super::SCHEDULERS`] order.
    pub const BREAKDOWN_BITS: usize = 27;
    pub const SIM_NS: usize = 32;
    /// Flat cluster: nanoseconds the bus carried bits.
    pub const BUS_BUSY_NS: usize = 33;
    pub const LEN: usize = 34;
}

/// An item's exact counters, indexed by the constants in [`c`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts(pub [u64; c::LEN]);

impl Default for Counts {
    fn default() -> Counts {
        Counts([0; c::LEN])
    }
}

impl Counts {
    /// FNV-1a over every counter: the item's fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in self.0 {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    pub fn add(&mut self, other: &Counts) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    fn add_kernel(&mut self, k: &Kernel) {
        let (calls, evals) = k.dispatch_cache_stats();
        let m = k.metrics();
        self.0[c::CTX_SWITCHES] += m.context_switches;
        self.0[c::JOBS] += m.tasks.iter().map(|t| t.jobs_completed).sum::<u64>();
        self.0[c::SELECT_CALLS] += calls;
        self.0[c::SELECT_EVALS] += evals;
        self.0[c::TIMER_ARMS] += k.timer_stats().0;
        self.0[c::SEM_ACQUIRED] += m.counters.sem_acquired;
        self.0[c::SEM_FAST_ACQUIRES] += k.sem_fast_acquires();
        self.0[c::TRACE_EVENTS] += k.trace().len() as u64 + k.trace().dropped();
        self.0[c::DEADLINE_MISSES] += m.deadline_misses;
    }
}

/// The schedulers `analysis_sweep` analyses each task set for, with
/// the metric suffix each one reports under.
pub const SCHEDULERS: [(SchedulerConfig, &str); 5] = [
    (SchedulerConfig::Csd(4), "csd4"),
    (SchedulerConfig::Csd(3), "csd3"),
    (SchedulerConfig::Csd(2), "csd2"),
    (SchedulerConfig::Edf, "edf"),
    (SchedulerConfig::Rm, "rm"),
];

/// One item's constructed input, ready to run.
pub enum Built {
    Board(Box<Kernel>),
    Bus(Box<Cluster>),
    Topo(Box<Topology>),
    Analysis(TaskSet, Box<OverheadModel>),
}

/// Host nanoseconds the executives report about their own run
/// (`EpochStats`/`TwoLevelStats`); zero where no executive ran.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecSplit {
    /// Flat cluster: the whole engine call, and its serial exchange.
    pub bus_wall_ns: u64,
    pub bus_exchange_ns: u64,
    /// Topology: the outer engine call, the summed inner (segment)
    /// loops and their serial exchanges, and the serial outer exchange
    /// (gateway transfer and routing).
    pub topo_wall_ns: u64,
    pub inner_wall_ns: u64,
    pub inner_exchange_ns: u64,
    pub gateway_ns: u64,
}

impl ExecSplit {
    pub fn add(&mut self, o: &ExecSplit) {
        self.bus_wall_ns += o.bus_wall_ns;
        self.bus_exchange_ns += o.bus_exchange_ns;
        self.topo_wall_ns += o.topo_wall_ns;
        self.inner_wall_ns += o.inner_wall_ns;
        self.inner_exchange_ns += o.inner_exchange_ns;
        self.gateway_ns += o.gateway_ns;
    }
}

/// What one item produced.
pub struct Outcome {
    pub counts: Counts,
    pub exec: ExecSplit,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
}

// ---------------------------------------------------------------------
// Item construction
// ---------------------------------------------------------------------

/// Builds the item at `pool_idx`: every builder, fault plan and
/// forced route table. Spans go under `parent` when `rec` records.
pub fn build(
    w: Workload,
    seed: u64,
    pool_idx: usize,
    rec: &mut Recorder,
    parent: Option<SpanId>,
) -> Built {
    let mut rng = SimRng::stream(seed ^ w.salt(), pool_idx as u64);
    match w {
        Workload::KernelBoards => Built::Board(Box::new(board(pool_idx, &mut rng, rec, parent))),
        Workload::BusTraffic => Built::Bus(Box::new(bus_cluster(
            pool_idx % 6,
            seed ^ pool_idx as u64,
            &mut rng,
            rec,
            parent,
        ))),
        Workload::TopologyReroute => Built::Topo(Box::new(topology(
            pool_idx % 4,
            seed ^ pool_idx as u64,
            &mut rng,
            rec,
            parent,
        ))),
        Workload::AnalysisSweep => {
            let n = 5 + 5 * (pool_idx % 10);
            let ts = WorkloadParams {
                n,
                period_divisor: 1 + (pool_idx / 10) as u64 % 3,
                base_utilization: 0.4,
            }
            .generate(&mut rng);
            Built::Analysis(ts, Box::new(OverheadModel::new(CostModel::mc68040_25mhz())))
        }
    }
}

/// `KernelBuilder::try_build` under a `try_build` span. Every
/// generated configuration is valid by construction.
fn finish(b: KernelBuilder, rec: &mut Recorder, parent: Option<SpanId>) -> Kernel {
    let s = rec.open("try_build", parent);
    let k = b.try_build();
    rec.close(s);
    k.expect("generated kernel configurations are valid")
}

const SENSOR_IRQ: IrqLine = IrqLine(4);
const NIC_IRQ: IrqLine = IrqLine(2);

/// A single board: a sensor-IRQ driver publishing a state message, a
/// mailbox producer/consumer pair, and periodic workers sharing two
/// mutexes, 10–30 tasks in all. The pool index fixes the shape: the
/// scheduler (RM queue, EDF, CSD-2, CSD-3), the locking policy (PI,
/// SRP), then the task count; the seed draws periods and costs.
fn board(pool_idx: usize, rng: &mut SimRng, rec: &mut Recorder, parent: Option<SpanId>) -> Kernel {
    let slot = pool_idx % 8;
    let n = 10 + 5 * ((pool_idx / 8) % 5);
    let policy = match slot / 2 {
        0 => SchedPolicy::RmQueue,
        1 => SchedPolicy::Edf,
        2 => SchedPolicy::Csd {
            boundaries: vec![n / 3],
        },
        _ => SchedPolicy::Csd {
            boundaries: vec![n / 4, n / 2],
        },
    };
    let mut b = KernelBuilder::new(KernelConfig {
        policy,
        lock: if slot.is_multiple_of(2) {
            LockChoice::Pi
        } else {
            LockChoice::Srp
        },
        record_trace: true,
        trace_ring: Some(4096),
        ..KernelConfig::default()
    });
    let p = b.add_process("board");
    let locks = [b.add_mutex(), b.add_mutex()];
    let mbox = b.add_mailbox(8);

    let sample_ms = rng.int_in(2, 5);
    let sample_period = Duration::from_ms(sample_ms);
    let dev = {
        let board = b.board_mut();
        let dev = board.add_sensor("sensor", Some(SENSOR_IRQ));
        let count = BOARD_HORIZON_MS / sample_ms;
        board.schedule_periodic_samples(dev, Time::from_us(500), sample_period, count, |k| {
            100 + (k * 7 % 300) as u32
        });
        dev
    };
    let driver = b.add_driver_task(
        p,
        "sensor-drv",
        sample_period,
        Script::looping(vec![
            Action::WaitIrq(SENSOR_IRQ),
            Action::DevRead(dev),
            Action::Compute(Duration::from_us(rng.int_in(40, 120))),
            Action::StateWrite {
                var: StateId(0),
                value: Operand::FromLastRead,
            },
        ]),
    );
    let var = b.add_state_msg(driver, 8, 3, &[p]);

    let producer_period = Duration::from_ms(rng.int_in(5, 20));
    b.add_periodic_task(
        p,
        "producer",
        producer_period,
        Script::periodic(vec![
            Action::Compute(Duration::from_us(rng.int_in(30, 90))),
            Action::SendMbox {
                mbox,
                bytes: 16,
                tag: 7,
            },
        ]),
    );
    b.add_driver_task(
        p,
        "consumer",
        producer_period,
        Script::looping(vec![
            Action::RecvMbox(mbox),
            Action::Compute(Duration::from_us(rng.int_in(20, 60))),
        ]),
    );

    const PERIODS_MS: [u64; 10] = [2, 4, 5, 8, 10, 16, 20, 25, 40, 50];
    let workers = n - 3;
    for k in 0..workers {
        let period = Duration::from_ms(PERIODS_MS[rng.index(PERIODS_MS.len())]);
        let share = 0.40 / workers as f64 * rng.float_in(0.5, 1.5);
        let wcet_us = ((period.as_us_f64() * share) as u64).max(10);
        let script = match k % 3 {
            2 => Script::compute_only(Duration::from_us(wcet_us)),
            lock => {
                let cs = rng.int_in(5, 40).min(wcet_us / 2).max(1);
                let lead = (wcet_us - cs) / 2;
                Script::periodic(vec![
                    Action::StateRead(var),
                    Action::Compute(Duration::from_us(lead.max(1))),
                    Action::AcquireSem(locks[lock]),
                    Action::Compute(Duration::from_us(cs)),
                    Action::ReleaseSem(locks[lock]),
                    Action::Compute(Duration::from_us((wcet_us - cs - lead).max(1))),
                ])
            }
        };
        b.add_periodic_task(p, format!("w{k}"), period, script);
    }
    finish(b, rec, parent)
}

/// FT fault intensities: (corruption, fail-stop, babble) probabilities.
const FAULT_LEVELS: [(f64, f64, f64); 3] = [(0.0, 0.0, 0.0), (0.02, 0.0, 0.0), (0.05, 0.25, 0.2)];

const BUS_NODES: usize = 32;

/// A light cluster node: one periodic sender addressing its pair on
/// the other half of the bus, and the NIC driver. With `link`, the
/// first half also publishes a state message replicated to its pair,
/// whose NIC driver reads the replica.
fn bus_node(
    i: usize,
    link: bool,
    rng: &mut SimRng,
    rec: &mut Recorder,
    parent: Option<SpanId>,
) -> (Kernel, MboxId, MboxId, Option<StateId>) {
    let half = BUS_NODES / 2;
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process(format!("n{i}"));
    let tx = b.add_mailbox(8);
    let rx = b.add_mailbox(16);
    b.board_mut().add_nic("can", NIC_IRQ);
    let dst = NodeId(((i + half) % BUS_NODES) as u32);
    // State frames share the bus, so linked items send mailbox frames
    // less often and the load stays near the unlinked items'.
    let period_us = if link {
        rng.int_in(6_000, 9_400)
    } else {
        rng.int_in(4_000, 6_200)
    };
    let mut body = vec![Action::Compute(Duration::from_us(rng.int_in(40, 120)))];
    let publishes = link && i < half;
    if publishes {
        body.push(Action::StateWrite {
            var: StateId(0),
            value: Operand::Const(i as u32),
        });
    }
    body.push(Action::SendMbox {
        mbox: tx,
        bytes: 8,
        tag: addressed_tag(Some(dst), i as u32),
    });
    let sender = b.add_periodic_task(
        p,
        "tx",
        Duration::from_us(period_us),
        Script::periodic(body),
    );
    let mut drv = vec![Action::RecvMbox(rx)];
    let var = if publishes {
        Some(b.add_state_msg(sender, 8, 3, &[]))
    } else if link {
        let var = b.add_state_replica(p, 8, 3, &[]);
        drv.push(Action::StateRead(var));
        Some(var)
    } else {
        None
    };
    drv.push(Action::Compute(Duration::from_us(20)));
    b.add_driver_task(p, "nicdrv", Duration::from_ms(2), Script::looping(drv));
    (finish(b, rec, parent), tx, rx, var)
}

/// A flat 32-node cluster near 75% bus utilization. `slot` picks the
/// fault level (none, noise, storm) and whether state links ride along.
fn bus_cluster(
    slot: usize,
    plan_seed: u64,
    rng: &mut SimRng,
    rec: &mut Recorder,
    parent: Option<SpanId>,
) -> Cluster {
    let link = slot >= 3;
    let mut c = Cluster::new(1_000_000).with_workers(1);
    let mut vars = Vec::with_capacity(BUS_NODES);
    for i in 0..BUS_NODES {
        let mut nrng = rng.derive(i as u64);
        let (k, tx, rx, var) = bus_node(i, link, &mut nrng, rec, parent);
        c.add_node(format!("n{i}"), k, tx, rx, NIC_IRQ, (i + 1) as u32);
        vars.push(var);
    }
    if link {
        let half = BUS_NODES / 2;
        for i in 0..half {
            let (Some(src), Some(dst)) = (vars[i], vars[i + half]) else {
                unreachable!("linked nodes carry state variables")
            };
            c.link_state(
                NodeId(i as u32),
                src,
                NodeId((i + half) as u32),
                dst,
                (BUS_NODES + i + 1) as u32,
                8,
            );
        }
    }
    let (corruption, fail_stop, babble) = FAULT_LEVELS[slot % 3];
    if corruption > 0.0 {
        let s = rec.open("fault_plan", parent);
        c.set_fault_plan(&FaultPlan::random(
            plan_seed,
            BUS_NODES,
            Time::from_ms(BUS_HORIZON_MS),
            corruption,
            fail_stop,
            babble,
        ));
        rec.close(s);
    }
    c
}

/// A TOPO-style application node: a periodic wide-addressed (or
/// broadcast) sender and the NIC drain driver.
fn topo_node(
    i: usize,
    dst: Option<NodeId>,
    period_us: u64,
    rng: &mut SimRng,
    rec: &mut Recorder,
    parent: Option<SpanId>,
) -> (Kernel, MboxId, MboxId) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process(format!("app{i}"));
    let tx = b.add_mailbox(8);
    let rx = b.add_mailbox(16);
    b.board_mut().add_nic("can", NIC_IRQ);
    b.add_periodic_task(
        p,
        "tx",
        Duration::from_us(period_us),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(rng.int_in(80, 200))),
            Action::SendMbox {
                mbox: tx,
                bytes: 8,
                tag: wide_tag(dst, (i as u32) & 0xFFFF),
            },
        ]),
    );
    b.add_driver_task(
        p,
        "nicdrv",
        Duration::from_ms(2),
        Script::looping(vec![
            Action::RecvMbox(rx),
            Action::Compute(Duration::from_us(30)),
        ]),
    );
    (finish(b, rec, parent), tx, rx)
}

/// Forwarding-buffer slots per gateway direction. The default 16
/// overflows on the plant cells once three nodes in eight send across.
const GATEWAY_SLOTS: usize = 64;

/// A redundant bridged topology with gateway 0 fail-stopped for the
/// middle third of the horizon. `slot` picks the shape: rings with
/// priority forwarding (8×48, 8×64 nodes) or plants whose cells hang
/// off a fast backbone by a primary and a standby gateway (6×50,
/// 8×56 nodes). Three nodes in eight send across segments (TOPO: one
/// in four), one in eight broadcasts locally, the rest stay local.
fn topology(
    slot: usize,
    plan_seed: u64,
    rng: &mut SimRng,
    rec: &mut Recorder,
    parent: Option<SpanId>,
) -> Topology {
    let (ring, segments, per) =
        [(true, 8, 48), (true, 8, 64), (false, 6, 50), (false, 8, 56)][slot];
    let period_scale = (1 + per as u64 / 16).min(8);
    let mut t = Topology::new().with_workers(1);
    let segs: Vec<_> = (0..segments)
        .map(|s| {
            t.add_segment(match (ring, s) {
                (true, _) => 1_000_000,
                (false, 0) => 8_000_000,
                (false, _) => 2_000_000,
            })
        })
        .collect();
    for (s, &seg) in segs.iter().enumerate() {
        for j in 0..per {
            let i = s * per + j;
            let mut nrng = rng.derive(i as u64);
            let dst = if j % 8 == 5 {
                None
            } else if j % 2 == 1 {
                Some(NodeId((((s + 1) % segments) * per + j) as u32))
            } else {
                Some(NodeId((s * per + (j + 2) % per) as u32))
            };
            let period_us = nrng.int_in(6_000, 12_000) * period_scale;
            let (k, tx, rx) = topo_node(i, dst, period_us, &mut nrng, rec, parent);
            t.add_node(seg, format!("app{i}"), k, tx, rx, NIC_IRQ, (j + 1) as u32);
        }
    }
    if ring {
        let cfg = GatewayConfig {
            policy: GatewayPolicy::Priority,
            capacity: GATEWAY_SLOTS,
            ..GatewayConfig::default()
        };
        for s in 0..segments {
            t.add_gateway(segs[s], segs[(s + 1) % segments], cfg);
        }
    } else {
        for &cell in &segs[1..] {
            for cost in [1, 2] {
                t.add_gateway(
                    cell,
                    segs[0],
                    GatewayConfig {
                        cost,
                        capacity: GATEWAY_SLOTS,
                        ..GatewayConfig::default()
                    },
                );
            }
        }
    }
    let third = Duration::from_ms(TOPO_HORIZON_MS / 3);
    t.set_fault_plan(&FaultPlan::new(plan_seed).gateway_fail_stop(0, Time::ZERO + third, third));
    // Force the first route-table build here, so set-up pays for it
    // and the timed run starts from ready routes.
    let s = rec.open("route_build", parent);
    let partitioned = t.partitioned_pairs();
    rec.close(s);
    assert_eq!(partitioned, 0, "generated topologies are connected");
    t
}

// ---------------------------------------------------------------------
// Run and check
// ---------------------------------------------------------------------

/// Runs a built item to its horizon (or through every breakdown
/// search), under a `run` span with the executives' own split as
/// children. Returns the breakdown utilizations for analysis items.
pub fn run(b: &mut Built, w: Workload, rec: &mut Recorder, parent: Option<SpanId>) -> Vec<f64> {
    let horizon = w.horizon();
    let s = rec.open("run", parent);
    let mut util = Vec::new();
    match b {
        Built::Board(k) => k.run_until(horizon.expect("simulation workload")),
        Built::Bus(c) => c.run_until(horizon.expect("simulation workload")),
        Built::Topo(t) => t.run_until(horizon.expect("simulation workload")),
        Built::Analysis(ts, ovh) => {
            let opts = BreakdownOptions::default();
            for (sched, name) in SCHEDULERS {
                let bs = rec.open(name, s);
                util.push(breakdown_utilization(ts, sched, ovh, &opts).utilization);
                rec.close(bs);
            }
        }
    }
    rec.close(s);
    let e = exec_split(b);
    match b {
        Built::Bus(_) => rec.add_totals(
            s,
            &[
                ("advance", e.bus_wall_ns - e.bus_exchange_ns),
                ("exchange", e.bus_exchange_ns),
            ],
        ),
        Built::Topo(_) => rec.add_totals(
            s,
            &[
                ("advance", e.inner_wall_ns - e.inner_exchange_ns),
                ("segment_exchange", e.inner_exchange_ns),
                ("gateway", e.gateway_ns),
            ],
        ),
        _ => {}
    }
    util
}

fn exec_split(b: &Built) -> ExecSplit {
    match b {
        Built::Bus(c) => {
            let e = c.exec_stats();
            ExecSplit {
                bus_wall_ns: e.wall_ns,
                bus_exchange_ns: e.serial_ns,
                ..ExecSplit::default()
            }
        }
        Built::Topo(t) => {
            let e = t.exec_stats();
            ExecSplit {
                topo_wall_ns: e.outer.wall_ns,
                inner_wall_ns: e.inner.wall_ns,
                inner_exchange_ns: e.inner.serial_ns,
                gateway_ns: e.outer.serial_ns,
                ..ExecSplit::default()
            }
        }
        _ => ExecSplit::default(),
    }
}

/// Reads an item's exact counters and checks its invariants:
///
/// - every fault-free item: zero deadline misses;
/// - bus: `sent == delivered + dropped + in_flight`, no node left
///   bus-off at the horizon;
/// - topology: exact cross-segment conservation, at least two
///   reroutes (failure and recovery), no frame lost to the gateway
///   fault or to a missing route, zero misses;
/// - analysis: every breakdown utilization in `(0, 1.05]`.
pub fn check(b: &Built, w: Workload, pool_idx: usize, util: &[f64]) -> Outcome {
    let mut n = Counts::default();
    let mut failures = Vec::new();
    let mut fault_free = true;
    match b {
        Built::Board(k) => n.add_kernel(k),
        Built::Bus(cl) => {
            for node in cl.nodes() {
                n.add_kernel(&node.kernel);
            }
            let s = cl.stats();
            let m = cl.metrics();
            n.0[c::BARRIERS] = cl.exec_stats().barriers;
            n.0[c::FRAMES_SENT] = s.frames_sent;
            n.0[c::FRAMES_DELIVERED] = s.frames_delivered;
            n.0[c::FRAMES_DROPPED] = s.frames_dropped;
            n.0[c::FRAMES_IN_FLIGHT] = s.frames_in_flight;
            n.0[c::RETRANSMISSIONS] = s.retransmissions;
            n.0[c::ERROR_FRAMES] = s.error_frames;
            n.0[c::BUS_OFF_EVENTS] = s.bus_off_events;
            n.0[c::STATE_OVERWRITES] = s.state_overwrites;
            n.0[c::UNRECOVERED_BUS_OFF] = m.unrecovered_bus_off;
            n.0[c::BUS_BUSY_NS] = s.busy.as_ns();
            if s.frames_sent != s.frames_delivered + s.frames_dropped + s.frames_in_flight {
                failures.push(format!(
                    "frame accounting: sent {} != delivered {} + dropped {} + in flight {}",
                    s.frames_sent, s.frames_delivered, s.frames_dropped, s.frames_in_flight
                ));
            }
            if m.unrecovered_bus_off > 0 {
                failures.push(format!("{} nodes still bus-off", m.unrecovered_bus_off));
            }
            fault_free = FAULT_LEVELS[pool_idx % 3].0 == 0.0;
        }
        Built::Topo(t) => {
            for id in 0..t.node_count() {
                n.add_kernel(&t.node(NodeId(id as u32)).kernel);
            }
            let e = t.exec_stats();
            let report = t.conservation();
            let total = t.total_stats();
            n.0[c::OUTER_BARRIERS] = e.outer.barriers;
            n.0[c::INNER_BARRIERS] = e.inner.barriers;
            n.0[c::FRAMES_SENT] = total.frames_sent;
            n.0[c::FRAMES_DELIVERED] = total.frames_delivered;
            n.0[c::FRAMES_DROPPED] = total.frames_dropped;
            n.0[c::FRAMES_IN_FLIGHT] = total.frames_in_flight;
            n.0[c::REROUTES] = t.reroutes();
            n.0[c::NO_ROUTE_DROPS] = t.no_route_drops();
            n.0[c::BCAST_FANOUT] = report.bcast_fanout;
            for g in 0..t.gateway_count() {
                let gs = t.gateway_stats(GatewayId(g as u32));
                n.0[c::GATEWAY_FORWARDED] += gs.forwarded;
                n.0[c::GATEWAY_FAULT_DROPS] += gs.dropped_fault;
            }
            if !report.holds() {
                failures.push(format!("conservation does not hold: {report:?}"));
            }
            if t.reroutes() < 2 {
                failures.push(format!("{} reroutes, expected >= 2", t.reroutes()));
            }
            // Frames a gateway holds at the instant it fail-stops are
            // lost by definition (and charged exactly, as
            // `dropped_fault`); every other loss means the reroute did
            // not carry the traffic.
            if total.frames_dropped > n.0[c::GATEWAY_FAULT_DROPS] {
                let overflow: u64 = (0..t.gateway_count())
                    .map(|g| t.gateway_stats(GatewayId(g as u32)).dropped_overflow)
                    .sum();
                failures.push(format!(
                    "{} frames lost on a redundant graph: {} at a gateway ({} held at its fail-stop, {} to overflow, {} without a route), {} at an offline node",
                    total.frames_dropped,
                    total.frames_lost_gateway,
                    n.0[c::GATEWAY_FAULT_DROPS],
                    overflow,
                    t.no_route_drops(),
                    total.frames_lost_offline
                ));
            }
            if n.0[c::DEADLINE_MISSES] > 0 {
                failures.push(format!("{} deadline misses", n.0[c::DEADLINE_MISSES]));
            }
            fault_free = false;
        }
        Built::Analysis(ts, _) => {
            n.0[c::TASKS_ANALYSED] = (ts.len() * util.len()) as u64;
            for (i, u) in util.iter().enumerate() {
                n.0[c::BREAKDOWN_BITS + i] = u.to_bits();
                if !(*u > 0.0 && *u <= 1.05) {
                    failures.push(format!("{} breakdown utilization {u}", SCHEDULERS[i].1));
                }
            }
        }
    }
    n.0[c::SIM_NS] = w.horizon().map_or(0, |h| h.as_ns());
    if fault_free && n.0[c::DEADLINE_MISSES] > 0 {
        failures.push(format!(
            "{} deadline misses on a fault-free item",
            n.0[c::DEADLINE_MISSES]
        ));
    }
    Outcome {
        counts: n,
        exec: exec_split(b),
        failures,
    }
}
