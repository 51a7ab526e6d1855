//! Conservative-lookahead parallel cluster execution.
//!
//! EMERALDS targets 5–10 node distributed systems over a 1–2 Mbit/s
//! fieldbus (§2); growing the reproduction past one board means
//! advancing many independent kernel instances at once. This module is
//! the *generic* half of that executive: a deterministic epoch engine
//! that advances a set of [`EpochNode`]s in parallel across host
//! threads under **conservative lookahead** synchronization.
//!
//! The model is the classic conservative PDES argument specialized to
//! a shared bus: nodes interact *only* through frames exchanged at
//! epoch barriers, and no frame can traverse the bus in less than one
//! frame time. Therefore every node may safely run ahead by one
//! bus-frame latency (the *lookahead window*) without observing any
//! input it has not yet been handed. The engine repeats:
//!
//! 1. **advance** — every node on the epoch's *due list* independently
//!    steps its local virtual clock to the epoch boundary (parallel,
//!    no shared state); a node left off the list is provably idle
//!    until the boundary and is not touched at all (see
//!    [`EpochExchange::due`]);
//! 2. **barrier** — all nodes have reached the boundary;
//! 3. **exchange** — a caller-supplied exchange runs *serially* with
//!    exclusive access to all nodes (harvest TX queues, arbitrate the
//!    bus, deliver due frames) and names the nodes the next epoch must
//!    advance.
//!
//! Determinism: a node's advance depends only on its own pre-epoch
//! state (nodes share nothing until the barrier), and the exchange is
//! serial in node order. Hence the result is **bit-for-bit identical
//! for any worker count** — the thread pool only decides which host
//! core runs which node, never the order of observable effects.
//!
//! The bus-aware half (kernels, frames, arbitration) lives in
//! `emeralds-fieldbus`, which implements [`EpochNode`] for its cluster
//! node type; this crate stays free of kernel types.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, RwLock};
use std::time::Instant;

use crate::profile::{HotSpot, Subsystem};
use crate::time::{Duration, Time};

/// Reusable scratch for [`run_epochs_reusing`], held by callers that
/// split a run into many `run_until` calls (a cluster advanced to
/// successive horizons): with the buffer persisted, a warmed
/// steady-state serial call performs **zero** heap allocations — the
/// claim the `alloc_gate` tests pin. Stores pointer-sized words, not
/// pointers, so a held buffer never carries a live address between
/// calls.
#[derive(Debug, Default)]
pub struct EpochScratch(Vec<usize>);

/// Reinterprets a word buffer freshly filled with `*mut N` addresses
/// as the `&mut [&mut N]` slice the exchange expects, without
/// allocating a fresh `Vec<&mut N>`.
///
/// # Safety
///
/// Caller must guarantee every word was written from a `*mut N` to a
/// *distinct* element of an exclusively borrowed collection, that the
/// exclusive borrow is still in force, and that the returned slice is
/// dropped before that collection is touched again.
pub(crate) unsafe fn words_as_refs<N>(words: &mut Vec<usize>) -> &mut [&mut N] {
    // `usize`, `*mut N`, and `&mut N` have identical layout for
    // sized `N`.
    std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<&mut N>(), words.len())
}

/// A hybrid sense-reversing barrier: spin briefly, then park.
///
/// Epochs are short (one bus-frame time of virtual work, typically a
/// few microseconds of host work per node), so the engine crosses a
/// barrier every few microseconds of host time. `std::sync::Barrier`
/// parks threads through a futex unconditionally — wakeup latency
/// alone can exceed an entire epoch's work — while a pure spin
/// barrier burns whole scheduler quanta when workers outnumber cores
/// (every multi-worker row of the pre-hybrid `BENCH_scale.json`
/// baseline lost to serial for exactly that reason). This barrier
/// spins for a budget sized to the worker/core ratio and then parks
/// on a condvar: hot workers stay hot, oversubscribed ones hand their
/// core over after a few microseconds instead of a scheduler quantum.
///
/// The protocol is a *fused* leader/follower crossing rather than a
/// symmetric `wait()`: the leader (the calling thread, worker 0)
/// collects follower arrivals, runs the serial exchange while the
/// followers sit at the barrier, publishes the next epoch, and
/// releases them — one generation flip per epoch, half the crossings
/// of the classic publish→[A]→advance→[B] scheme.
///
/// Lost-wakeup freedom: both park sites publish their intent
/// (`sleepers` / `leader_parked`) *before* re-checking the wake
/// condition under the mutex, and both wake sites update the
/// condition *before* reading the intent flag — the classic Dekker
/// store/load pattern, `SeqCst` on those four accesses, so at least
/// one side always observes the other; notification happens under the
/// same mutex the sleeper re-checks under.
struct HybridBarrier {
    parties: usize,
    /// Spin iterations before parking.
    spin: u32,
    arrived: AtomicUsize,
    generation: AtomicU64,
    /// Followers parked (or about to park) on `follower_cv`; lets the
    /// leader skip the mutex+notify syscall when everyone is spinning.
    sleepers: AtomicUsize,
    /// The leader is parked (or about to park) on `leader_cv`.
    leader_parked: AtomicBool,
    mutex: Mutex<()>,
    follower_cv: Condvar,
    leader_cv: Condvar,
}

impl HybridBarrier {
    fn new(parties: usize, spin: u32) -> HybridBarrier {
        HybridBarrier {
            parties,
            spin,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            leader_parked: AtomicBool::new(false),
            mutex: Mutex::new(()),
            follower_cv: Condvar::new(),
            leader_cv: Condvar::new(),
        }
    }

    /// Follower: record arrival at the current barrier and wake the
    /// leader if it already parked waiting for the stragglers.
    fn follower_arrive(&self) {
        let n = self.arrived.fetch_add(1, Ordering::SeqCst) + 1;
        if n == self.parties - 1 && self.leader_parked.load(Ordering::SeqCst) {
            // The leader re-checks `arrived` under this mutex before
            // waiting, so notifying under it cannot slip between its
            // re-check and its park.
            drop(self.mutex.lock().expect("barrier poisoned"));
            self.leader_cv.notify_one();
        }
    }

    /// Follower: wait until the leader opens the generation after
    /// `gen`.
    fn follower_wait(&self, gen: u64) {
        let mut spins = 0u32;
        while self.generation.load(Ordering::SeqCst) == gen {
            spins += 1;
            if spins <= self.spin {
                std::hint::spin_loop();
                continue;
            }
            let mut guard = self.mutex.lock().expect("barrier poisoned");
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            while self.generation.load(Ordering::SeqCst) == gen {
                guard = self.follower_cv.wait(guard).expect("barrier poisoned");
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
    }

    /// Leader: wait until every follower has arrived at this barrier.
    fn leader_collect(&self) {
        let waiting_for = self.parties - 1;
        let mut spins = 0u32;
        while self.arrived.load(Ordering::SeqCst) != waiting_for {
            spins += 1;
            if spins <= self.spin {
                std::hint::spin_loop();
                continue;
            }
            let mut guard = self.mutex.lock().expect("barrier poisoned");
            self.leader_parked.store(true, Ordering::SeqCst);
            while self.arrived.load(Ordering::SeqCst) != waiting_for {
                guard = self.leader_cv.wait(guard).expect("barrier poisoned");
            }
            self.leader_parked.store(false, Ordering::SeqCst);
            return;
        }
    }

    /// Leader: reset the arrival count and open the next generation,
    /// waking any parked followers.
    fn leader_release(&self) {
        self.arrived.store(0, Ordering::SeqCst);
        self.generation.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Serialize with a follower between its generation
            // re-check and its park, so the notification cannot be
            // missed.
            drop(self.mutex.lock().expect("barrier poisoned"));
            self.follower_cv.notify_all();
        }
    }
}

/// Releases the followers into shutdown when the leader leaves the
/// epoch loop, by return or by panic: a panicking exchange (a failed
/// debug check, say) must fail the run, not leave the followers
/// waiting at the barrier forever.
struct Shutdown<'a> {
    barrier: &'a HybridBarrier,
    done: &'a AtomicBool,
}

impl Drop for Shutdown<'_> {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Release);
        self.barrier.leader_release();
    }
}

/// Spin budget before a barrier waiter parks. With enough cores for
/// every worker, generous spinning wins (parking costs a futex round
/// trip per epoch); oversubscribed, spinning only delays the thread
/// that owns the core, so park almost immediately.
fn spin_budget(workers: usize) -> u32 {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if workers > cores {
        64
    } else {
        4096
    }
}

/// A simulated board that can advance its own virtual clock to a
/// horizon without external input. Implementations must be
/// deterministic: the post-state may depend only on the pre-state and
/// the horizon.
pub trait EpochNode: Send {
    /// Advances the node through the epoch ending at `horizon`:
    /// afterwards it must behave as if its local virtual time had
    /// reached (at least) `horizon`. The engine calls it only for the
    /// nodes on the epoch's due list ([`EpochExchange::due`]); a node
    /// left off is not called, and its clock stays behind until its
    /// owner catches it up (the fieldbus executive does so when a frame
    /// is staged for the node and at the end of a run).
    fn advance_to(&mut self, horizon: Time);
}

/// The serial side of the epoch engine: the barrier exchange, plus the
/// agenda of which nodes each epoch must advance.
pub trait EpochExchange<N> {
    /// Runs at every barrier `at` with exclusive, in-order access to
    /// all nodes, and returns a next-barrier proposal (see
    /// [`run_epochs`]).
    fn exchange(&mut self, nodes: &mut [&mut N], at: Time) -> Option<Time>;

    /// The due list of the epoch ending at `end`: the indices, in
    /// ascending order, of the nodes it must advance. Called once
    /// before every epoch, the first included, with the same access as
    /// the exchange. A node left off must be provably idle until `end`
    /// (its advance would only move its clock), because the engine
    /// does not touch it. `None`, the default, advances every node.
    fn due(&mut self, nodes: &[&mut N], end: Time) -> Option<&[usize]> {
        let _ = (nodes, end);
        None
    }
}

/// A bare exchange closure, with every node due in every epoch.
pub(crate) struct EveryNode<'a, X>(pub(crate) &'a mut X);

impl<N, X> EpochExchange<N> for EveryNode<'_, X>
where
    X: FnMut(&mut [&mut N], Time) -> Option<Time>,
{
    fn exchange(&mut self, nodes: &mut [&mut N], at: Time) -> Option<Time> {
        (self.0)(nodes, at)
    }
}

/// Epoch-engine tuning.
#[derive(Clone, Copy, Debug)]
pub struct EpochConfig {
    /// Length of one epoch — the conservative lookahead window. For a
    /// fieldbus cluster this is one bus-frame latency.
    pub lookahead: Duration,
    /// Host worker threads (clamped to `1..=nodes`). `1` runs fully
    /// serial on the calling thread.
    pub workers: usize,
}

/// Host-side cost accounting for one `run_epochs` call.
///
/// Every field is *measurement*, not simulation state: barrier counts
/// are deterministic for a given lookahead policy, while the
/// nanosecond fields are wall-clock and vary run to run. None of them
/// feed back into virtual time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Barrier crossings (== epochs executed == exchange invocations).
    pub barriers: u64,
    /// Wall nanoseconds spent inside the serial exchange closure.
    pub serial_ns: u64,
    /// Wall nanoseconds for the whole `run_epochs` call.
    pub wall_ns: u64,
}

impl EpochStats {
    /// Fraction of total wall time spent in the serial exchange —
    /// the Amdahl limiter for the parallel executive.
    pub fn serial_frac(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.serial_ns as f64 / self.wall_ns as f64
        }
    }

    /// Accumulates another call's stats (for split `run_until`s).
    pub fn merge(&mut self, other: &EpochStats) {
        self.barriers += other.barriers;
        self.serial_ns += other.serial_ns;
        self.wall_ns += other.wall_ns;
    }
}

/// Advances `nodes` from `from` to `horizon` in lookahead-sized
/// epochs, invoking `exchange` at every barrier with exclusive,
/// in-order access to all nodes and the barrier instant. Every node is
/// advanced in every epoch; [`run_epochs_reusing`] takes an
/// [`EpochExchange`] that can name a due list instead.
///
/// The exchange may return a **next-barrier proposal**: `Some(t)`
/// schedules the next barrier at `t` (clamped to `horizon`) instead of
/// the default `cur + lookahead`. This is how a bus model with nothing
/// in flight stretches the epoch across provably-quiet virtual time
/// and collapses barrier crossings. Proposals must advance strictly
/// past the current barrier; `None` keeps the fixed cadence for the
/// next epoch.
///
/// The final epoch is truncated at `horizon`, and `exchange` runs one
/// last time at the horizon itself, so callers can flush in-flight
/// state.
///
/// Returns per-call [`EpochStats`] (barrier count and serial/total
/// wall nanoseconds).
///
/// # Panics
///
/// Panics on a zero lookahead (the engine would not make progress) or
/// on a non-advancing exchange proposal.
pub fn run_epochs<N, X>(
    nodes: &mut Vec<N>,
    from: Time,
    horizon: Time,
    cfg: &EpochConfig,
    exchange: &mut X,
) -> EpochStats
where
    N: EpochNode,
    X: FnMut(&mut [&mut N], Time) -> Option<Time>,
{
    run_epochs_reusing(
        nodes,
        from,
        horizon,
        cfg,
        &mut EveryNode(exchange),
        &mut EpochScratch::default(),
    )
}

/// Runs the exchange at the barrier `at`, counting the barrier and
/// the exchange's wall time into `stats`, and returns the next
/// barrier: the exchange's proposal, or one lookahead out, clamped to
/// `horizon`; `None` once `at` is the horizon.
fn cross_barrier<N, X: EpochExchange<N>>(
    exchange: &mut X,
    nodes: &mut [&mut N],
    at: Time,
    cfg: &EpochConfig,
    horizon: Time,
    stats: &mut EpochStats,
) -> Option<Time> {
    let hint = {
        let _span = HotSpot::enter(Subsystem::Exchange);
        let t_ex = Instant::now();
        let hint = exchange.exchange(nodes, at);
        stats.serial_ns += t_ex.elapsed().as_nanos() as u64;
        hint
    };
    stats.barriers += 1;
    if let Some(h) = hint {
        assert!(h > at, "exchange proposed a non-advancing barrier");
    }
    (at < horizon).then(|| horizon.min(hint.unwrap_or(at + cfg.lookahead)))
}

/// [`run_epochs`] driven by an [`EpochExchange`], which names each
/// epoch's due list, with a caller-held [`EpochScratch`] for callers
/// that run many horizons and must not allocate per call once warm.
/// Each epoch advances only the nodes on its due list; on the parallel
/// path the workers stride over that list.
pub fn run_epochs_reusing<N, X>(
    nodes: &mut Vec<N>,
    from: Time,
    horizon: Time,
    cfg: &EpochConfig,
    exchange: &mut X,
    scratch: &mut EpochScratch,
) -> EpochStats
where
    N: EpochNode,
    X: EpochExchange<N>,
{
    assert!(!cfg.lookahead.is_zero(), "zero lookahead");
    let mut stats = EpochStats::default();
    if nodes.is_empty() || from >= horizon {
        return stats;
    }
    let t_run = Instant::now();
    let workers = cfg.workers.clamp(1, nodes.len());
    let mut end = horizon.min(from + cfg.lookahead);
    if workers == 1 {
        // One node slice for the whole call, reused from the caller's
        // scratch, so the steady-state loop performs no heap
        // allocation and builds nothing per barrier.
        let buf = &mut scratch.0;
        buf.clear();
        buf.extend(nodes.iter_mut().map(|n| n as *mut N as usize));
        // SAFETY: the words were just written from pointers to
        // distinct elements of `nodes`, which this function borrows
        // exclusively and does not touch again while `refs` lives.
        let refs = unsafe { words_as_refs::<N>(buf) };
        loop {
            match exchange.due(refs, end) {
                None => refs.iter_mut().for_each(|n| n.advance_to(end)),
                Some(due) => due.iter().for_each(|&i| refs[i].advance_to(end)),
            }
            match cross_barrier(exchange, refs, end, cfg, horizon, &mut stats) {
                Some(next) => end = next,
                None => break,
            }
        }
        stats.wall_ns = t_run.elapsed().as_nanos() as u64;
        return stats;
    }

    // Parallel path: nodes live in per-node mutexes for the duration.
    // Workers own disjoint strided slices of the due list during an
    // epoch, and the exchange takes every lock between barriers, so
    // locks are never contended — they only launder the aliasing for
    // the borrow checker. The calling thread doubles as worker 0, acts
    // as the barrier *leader*, and runs the serial exchange (and the
    // next epoch's due list) inside the crossing itself, so each epoch
    // costs exactly one generation flip:
    //
    //   leader: due list → release (publish end) → advance stride 0 →
    //           collect → exchange → due list → release the next epoch …
    //   follower: wait → advance stride → arrive → wait …
    //
    // Combined with the adaptive grid rule (the exchange's
    // next-barrier proposal), one flip can carry the whole fleet
    // across many provably-quiet grid points at once — epoch batching.
    let cells: Vec<Mutex<N>> = nodes.drain(..).map(Mutex::new).collect();
    // Written by the leader only while every follower waits at the
    // barrier; read by all workers during the epoch.
    let due_list: RwLock<Vec<usize>> = RwLock::new(Vec::with_capacity(cells.len()));
    let epoch_end_ns = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let barrier = HybridBarrier::new(workers, spin_budget(workers));
    let advance_stride = |w: usize, end: Time| {
        let due = due_list.read().expect("due list poisoned");
        for &i in due.iter().skip(w).step_by(workers) {
            cells[i].lock().expect("node poisoned").advance_to(end);
        }
    };
    std::thread::scope(|s| {
        for w in 1..workers {
            let barrier = &barrier;
            let epoch_end_ns = &epoch_end_ns;
            let done = &done;
            let advance_stride = &advance_stride;
            s.spawn(move || {
                let mut gen = 0u64;
                loop {
                    barrier.follower_wait(gen); // epoch published
                    gen += 1;
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let end = Time::from_ns(epoch_end_ns.load(Ordering::Acquire));
                    advance_stride(w, end);
                    barrier.follower_arrive();
                }
            });
        }
        // Declared before the guards, so on the way out they unlock
        // first.
        let _shutdown = Shutdown {
            barrier: &barrier,
            done: &done,
        };
        // Persistent per-epoch buffers: `Mutex::lock` takes `&self`,
        // so the guard vector borrows `cells` immutably and can be
        // cleared and refilled every epoch without reallocating.
        // Guards MUST be cleared (unlocked) before the next
        // `leader_release` or the workers would deadlock on their
        // strides.
        let mut guards: Vec<MutexGuard<'_, N>> = Vec::with_capacity(cells.len());
        let mut words: Vec<usize> = Vec::with_capacity(cells.len());
        // The barrier the last epoch ended at: none before the first.
        let mut last: Option<Time> = None;
        loop {
            guards.extend(cells.iter().map(|c| c.lock().expect("node poisoned")));
            words.clear();
            words.extend(guards.iter_mut().map(|g| &mut **g as *mut N as usize));
            {
                // SAFETY: the words address distinct nodes behind the
                // guards held in `guards`; the slice dies at the end of
                // this block, before the guards are released.
                let refs = unsafe { words_as_refs::<N>(&mut words) };
                if let Some(at) = last {
                    match cross_barrier(exchange, refs, at, cfg, horizon, &mut stats) {
                        Some(next) => end = next,
                        None => break,
                    }
                }
                let mut due = due_list.write().expect("due list poisoned");
                due.clear();
                match exchange.due(refs, end) {
                    None => due.extend(0..cells.len()),
                    Some(list) => due.extend_from_slice(list),
                }
            }
            guards.clear(); // unlock before the epoch opens
            epoch_end_ns.store(end.as_ns(), Ordering::Release);
            barrier.leader_release(); // open the epoch
            advance_stride(0, end);
            {
                let _span = HotSpot::enter(Subsystem::Barrier);
                barrier.leader_collect(); // every follower advanced
            }
            last = Some(end);
        }
    });
    nodes.extend(
        cells
            .into_iter()
            .map(|c| c.into_inner().expect("node poisoned")),
    );
    stats.wall_ns = t_run.elapsed().as_nanos() as u64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy node: logs every horizon it is advanced to and sums
    /// values it is handed at exchanges.
    struct Probe {
        horizons: Vec<Time>,
        inbox: u64,
    }

    impl EpochNode for Probe {
        fn advance_to(&mut self, horizon: Time) {
            self.horizons.push(horizon);
        }
    }

    fn run(workers: usize, n: usize) -> Vec<(Vec<Time>, u64)> {
        run_with_hint(workers, n, |_| None)
    }

    fn run_with_hint(
        workers: usize,
        n: usize,
        mut hint: impl FnMut(Time) -> Option<Time>,
    ) -> Vec<(Vec<Time>, u64)> {
        let mut nodes: Vec<Probe> = (0..n)
            .map(|_| Probe {
                horizons: Vec::new(),
                inbox: 0,
            })
            .collect();
        let cfg = EpochConfig {
            lookahead: Duration::from_us(100),
            workers,
        };
        let mut round = 0u64;
        run_epochs(
            &mut nodes,
            Time::ZERO,
            Time::from_us(450),
            &cfg,
            &mut |nodes, at| {
                round += 1;
                // Every node learns the barrier instant and the round.
                for n in nodes.iter_mut() {
                    n.inbox += at.as_ns() + round;
                }
                hint(at)
            },
        );
        nodes.into_iter().map(|n| (n.horizons, n.inbox)).collect()
    }

    #[test]
    fn epochs_truncate_at_horizon() {
        let out = run(1, 2);
        let expect: Vec<Time> = [100u64, 200, 300, 400, 450]
            .iter()
            .map(|&us| Time::from_us(us))
            .collect();
        assert_eq!(out[0].0, expect);
        assert_eq!(out[1].0, expect);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let base = run(1, 7);
        for workers in [2, 4, 16] {
            assert_eq!(run(workers, 7), base, "workers={workers}");
        }
    }

    /// An agenda that lists node `i` in the epochs `k` with
    /// `k % (i + 1) == 0`, and an exchange that hands every node the
    /// barrier instant.
    struct Sparse {
        epoch: usize,
        due: Vec<usize>,
    }

    impl EpochExchange<Probe> for Sparse {
        fn exchange(&mut self, nodes: &mut [&mut Probe], at: Time) -> Option<Time> {
            for n in nodes.iter_mut() {
                n.inbox += at.as_ns();
            }
            None
        }

        fn due(&mut self, nodes: &[&mut Probe], _end: Time) -> Option<&[usize]> {
            let k = self.epoch;
            self.epoch += 1;
            self.due.clear();
            self.due
                .extend((0..nodes.len()).filter(|&i| k.is_multiple_of(i + 1)));
            Some(&self.due)
        }
    }

    #[test]
    fn due_lists_pick_the_nodes_each_epoch_advances() {
        let run = |workers: usize| {
            let mut nodes: Vec<Probe> = (0..5)
                .map(|_| Probe {
                    horizons: Vec::new(),
                    inbox: 0,
                })
                .collect();
            let cfg = EpochConfig {
                lookahead: Duration::from_us(100),
                workers,
            };
            let mut sparse = Sparse {
                epoch: 0,
                due: Vec::new(),
            };
            let stats = run_epochs_reusing(
                &mut nodes,
                Time::ZERO,
                Time::from_us(1000),
                &cfg,
                &mut sparse,
                &mut EpochScratch::default(),
            );
            assert_eq!(stats.barriers, 10);
            nodes
                .into_iter()
                .map(|n| (n.horizons, n.inbox))
                .collect::<Vec<_>>()
        };
        let base = run(1);
        for (i, (horizons, inbox)) in base.iter().enumerate() {
            let expect: Vec<Time> = (0..10u64)
                .filter(|k| k % (i as u64 + 1) == 0)
                .map(|k| Time::from_us(100 * (k + 1)))
                .collect();
            assert_eq!(horizons, &expect, "node {i}");
            // The exchange still reaches every node at every barrier.
            assert_eq!(*inbox, (1..=10u64).map(|k| k * 100_000).sum::<u64>());
        }
        for workers in [2, 3, 8] {
            assert_eq!(run(workers), base, "workers={workers}");
        }
    }

    #[test]
    fn exchange_hint_stretches_epochs_and_clamps_at_horizon() {
        // Every exchange proposes a barrier two windows out; the final
        // proposal (500µs) must clamp to the 450µs horizon.
        let hint = |at: Time| Some(at + Duration::from_us(200));
        let out = run_with_hint(1, 3, hint);
        let expect: Vec<Time> = [100u64, 300, 450]
            .iter()
            .map(|&us| Time::from_us(us))
            .collect();
        for (horizons, _) in &out {
            assert_eq!(horizons, &expect);
        }
        // Parity: stretched runs are worker-count invariant too.
        for workers in [2, 3] {
            assert_eq!(run_with_hint(workers, 3, hint), out, "workers={workers}");
        }
    }

    #[test]
    fn stats_count_barriers() {
        let mut nodes = vec![Probe {
            horizons: Vec::new(),
            inbox: 0,
        }];
        let cfg = EpochConfig {
            lookahead: Duration::from_us(100),
            workers: 1,
        };
        let stats = run_epochs(
            &mut nodes,
            Time::ZERO,
            Time::from_us(450),
            &cfg,
            &mut |_, _| None,
        );
        assert_eq!(stats.barriers, 5);
        let stretched = run_epochs(
            &mut nodes,
            Time::from_us(450),
            Time::from_us(900),
            &cfg,
            &mut |_, at| Some(at + Duration::from_us(1000)),
        );
        // First epoch ends at 550, the stretched proposal clamps at
        // the horizon: two barriers total.
        assert_eq!(stretched.barriers, 2);
    }

    #[test]
    #[should_panic(expected = "non-advancing barrier")]
    fn non_advancing_hint_panics() {
        let mut nodes = vec![Probe {
            horizons: Vec::new(),
            inbox: 0,
        }];
        let cfg = EpochConfig {
            lookahead: Duration::from_us(100),
            workers: 1,
        };
        run_epochs(
            &mut nodes,
            Time::ZERO,
            Time::from_ms(1),
            &cfg,
            &mut |_, at| Some(at),
        );
    }

    #[test]
    fn empty_and_degenerate_ranges_are_noops() {
        let mut nodes: Vec<Probe> = Vec::new();
        let cfg = EpochConfig {
            lookahead: Duration::from_us(1),
            workers: 4,
        };
        run_epochs(
            &mut nodes,
            Time::ZERO,
            Time::from_ms(1),
            &cfg,
            &mut |_, _| None,
        );
        let mut one = vec![Probe {
            horizons: Vec::new(),
            inbox: 0,
        }];
        run_epochs(
            &mut one,
            Time::from_ms(2),
            Time::from_ms(1),
            &cfg,
            &mut |_, _| None,
        );
        assert!(one[0].horizons.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero lookahead")]
    fn zero_lookahead_panics() {
        let mut nodes = vec![Probe {
            horizons: Vec::new(),
            inbox: 0,
        }];
        let cfg = EpochConfig {
            lookahead: Duration::ZERO,
            workers: 1,
        };
        run_epochs(
            &mut nodes,
            Time::ZERO,
            Time::from_ms(1),
            &cfg,
            &mut |_, _| None,
        );
    }

    /// Drives a barrier through `epochs` fused crossings exactly the
    /// way `run_epochs` does, counting follower work items. Any lost
    /// wakeup deadlocks (the scope never joins); any double release
    /// breaks the count.
    fn drive_barrier(parties: usize, spin: u32, epochs: u64) -> u64 {
        let barrier = HybridBarrier::new(parties, spin);
        let total = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 1..parties {
                let barrier = &barrier;
                let total = &total;
                s.spawn(move || {
                    let mut gen = 0u64;
                    loop {
                        barrier.follower_wait(gen);
                        gen += 1;
                        if gen > epochs {
                            break;
                        }
                        total.fetch_add(1, Ordering::Relaxed);
                        barrier.follower_arrive();
                    }
                });
            }
            for _ in 0..epochs {
                barrier.leader_release();
                barrier.leader_collect();
            }
            barrier.leader_release(); // shutdown generation
        });
        total.load(Ordering::Relaxed)
    }

    #[test]
    fn hybrid_barrier_stress_no_lost_wakeups() {
        // A spin budget far below a park-free crossing forces the
        // park/wake path thousands of times; 10k crossings must all
        // complete with every follower seen at every one.
        let epochs = 10_000;
        assert_eq!(drive_barrier(4, 64, epochs), 3 * epochs);
    }

    #[test]
    fn hybrid_barrier_oversubscribed_parks_correctly() {
        // Far more parties than any test runner has cores, with a
        // zero spin budget: every wait parks, every release must wake
        // parked threads, in both directions (followers and leader).
        let epochs = 200;
        assert_eq!(drive_barrier(16, 0, epochs), 15 * epochs);
    }

    #[test]
    fn hybrid_barrier_wakes_follower_parked_long_before_release() {
        let barrier = HybridBarrier::new(2, 0);
        let woke = AtomicBool::new(false);
        std::thread::scope(|s| {
            let b = &barrier;
            let woke = &woke;
            s.spawn(move || {
                b.follower_wait(0);
                woke.store(true, Ordering::SeqCst);
                b.follower_arrive();
            });
            // Long enough that the follower is definitely parked, not
            // mid-spin, when the release happens.
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(!woke.load(Ordering::SeqCst), "follower ran early");
            barrier.leader_release();
            barrier.leader_collect();
            assert!(woke.load(Ordering::SeqCst));
            barrier.leader_release(); // shutdown
        });
    }

    #[test]
    fn hybrid_barrier_wakes_leader_parked_on_late_arrival() {
        let barrier = HybridBarrier::new(2, 0);
        std::thread::scope(|s| {
            let b = &barrier;
            s.spawn(move || {
                b.follower_wait(0);
                // Arrive long after the leader parked in collect.
                std::thread::sleep(std::time::Duration::from_millis(30));
                b.follower_arrive();
                b.follower_wait(1); // shutdown generation
            });
            barrier.leader_release();
            barrier.leader_collect();
            barrier.leader_release(); // shutdown
        });
    }
}
