//! Two-level (hierarchical) conservative-lookahead execution.
//!
//! [`crate::run_epochs`] advances a flat set of nodes under one shared
//! lookahead window. A *bridged* topology — several bus segments joined
//! by store-and-forward gateways — has two very different interaction
//! latencies: nodes on one segment interact within one bus-frame time,
//! but traffic can only cross a gateway after its forwarding latency.
//! That gap is exploitable lookahead: each segment's sub-executive may
//! run an entire *inter-segment* epoch (one gateway latency) of its own
//! fine-grained *intra-segment* epochs without observing any input from
//! another segment.
//!
//! [`run_two_level`] is that composition: the outer engine is
//! [`run_epochs`] over [`EpochGroup`]s (one per segment), advancing
//! every group in every outer epoch; each group's `advance_group` runs
//! its own serial inner epoch loop, and the outer exchange moves frames
//! between groups at inter-segment barriers. The determinism argument
//! stacks: inner loops are serial per group and touch only group-local
//! state, groups share nothing between outer barriers, and the outer
//! exchange is serial in group order — so the result is bit-for-bit
//! identical for any outer worker count.
//!
//! Both levels inherit [`run_epochs`]'s synchronization machinery
//! wholesale: outer workers cross the hybrid spin-then-park barrier
//! once per inter-segment epoch (the fused leader/follower crossing),
//! and each segment's inner loop batches provably-quiet grid points
//! through its own bus's adaptive next-barrier proposals.
//!
//! The outer exchange may return next-barrier proposals of its own —
//! the same contract as [`run_epochs`]: `Some(t)` schedules the next
//! *inter-group* barrier at `t` (clamped to the horizon) instead of
//! one fixed lookahead out, letting a topology executive batch outer
//! barriers across windows where every group is provably idle and no
//! inter-group transfer comes due. Soundness is the caller's burden,
//! exactly as at the inner level: a proposal asserts that no group
//! needs an exchange before `t`. In a gateway topology that means the
//! proposal must never overshoot the earliest instant any forwarding
//! buffer releases a frame — equivalently, the outer cadence (fixed
//! or stretched) must respect the cheapest *surviving* forwarding
//! path, since a re-route can only shift traffic onto paths at least
//! as cheap as the global latency minimum the cadence is derived
//! from. Proposals change which barrier instants exist, not what any
//! group computes between them, so determinism across outer worker
//! counts is preserved verbatim.
//!
//! [`run_epochs`]: crate::run_epochs

use crate::cluster::{
    run_epochs_reusing, words_as_refs, EpochConfig, EpochNode, EpochScratch, EpochStats, EveryNode,
};
use crate::time::Time;

/// A self-contained sub-executive (e.g. one bus segment and its nodes)
/// that can advance its own virtual clock to an inter-group barrier
/// without external input. Implementations must be deterministic: the
/// post-state may depend only on the pre-state and the horizon.
pub trait EpochGroup: Send {
    /// Advances the group's local clock to `horizon`, running its own
    /// inner epoch loop, and returns that loop's cost accounting.
    fn advance_group(&mut self, horizon: Time) -> EpochStats;
}

/// Cost accounting of one [`run_two_level`] call, split by level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TwoLevelStats {
    /// The outer (inter-group) engine: barriers are inter-group
    /// exchanges, serial nanoseconds are gateway-transfer time.
    pub outer: EpochStats,
    /// Summed inner (intra-group) loops across every group and epoch.
    pub inner: EpochStats,
}

impl TwoLevelStats {
    /// Accumulates another call's stats (for split runs).
    pub fn merge(&mut self, other: &TwoLevelStats) {
        self.outer.merge(&other.outer);
        self.inner.merge(&other.inner);
    }
}

/// Adapter: lets the outer [`crate::run_epochs`] engine drive a group
/// as a node while collecting the inner loops' stats.
#[derive(Debug)]
struct GroupCell<G> {
    group: G,
    inner: EpochStats,
}

impl<G: EpochGroup> EpochNode for GroupCell<G> {
    fn advance_to(&mut self, horizon: Time) {
        let s = self.group.advance_group(horizon);
        self.inner.merge(&s);
    }
}

/// Reusable buffers of [`run_two_level`], held by a caller that runs
/// many horizons, so that a warmed serial call allocates nothing.
#[derive(Debug)]
pub struct TwoLevelScratch<G> {
    cells: Vec<GroupCell<G>>,
    groups: Vec<usize>,
    outer: EpochScratch,
}

impl<G> Default for TwoLevelScratch<G> {
    fn default() -> Self {
        TwoLevelScratch {
            cells: Vec::new(),
            groups: Vec::new(),
            outer: EpochScratch::default(),
        }
    }
}

/// Advances `groups` from `from` to `horizon` in outer epochs of
/// `cfg.lookahead` (the inter-group latency), running each group's own
/// inner epoch loop in parallel between outer barriers and invoking
/// `exchange` serially at every barrier with in-order access to all
/// groups. Every group advances in every outer epoch. The exchange may
/// return a next-barrier proposal exactly as in [`crate::run_epochs`].
///
/// # Panics
///
/// Panics on a zero outer lookahead or a non-advancing proposal.
pub fn run_two_level<G, X>(
    groups: &mut Vec<G>,
    from: Time,
    horizon: Time,
    cfg: &EpochConfig,
    exchange: &mut X,
    scratch: &mut TwoLevelScratch<G>,
) -> TwoLevelStats
where
    G: EpochGroup,
    X: FnMut(&mut [&mut G], Time) -> Option<Time>,
{
    let TwoLevelScratch {
        cells,
        groups: words,
        outer: outer_scratch,
    } = scratch;
    cells.extend(groups.drain(..).map(|group| GroupCell {
        group,
        inner: EpochStats::default(),
    }));
    let mut adapter = |cells: &mut [&mut GroupCell<G>], at: Time| {
        words.clear();
        words.extend(cells.iter_mut().map(|c| &mut c.group as *mut G as usize));
        // SAFETY: the words address distinct groups behind the
        // exclusive `cells` slice handed to this closure; the re-cast
        // slice dies at the end of the exchange call.
        exchange(unsafe { words_as_refs::<G>(words) }, at)
    };
    let outer = run_epochs_reusing(
        cells,
        from,
        horizon,
        cfg,
        &mut EveryNode(&mut adapter),
        outer_scratch,
    );
    let mut inner = EpochStats::default();
    for cell in cells.drain(..) {
        inner.merge(&cell.inner);
        groups.push(cell.group);
    }
    TwoLevelStats { outer, inner }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    /// A toy group: a serial inner loop over `ticks`-sized steps that
    /// logs every inner boundary, plus an inbox of values handed over
    /// at outer exchanges.
    struct Probe {
        cursor: Time,
        step: Duration,
        boundaries: Vec<Time>,
        inbox: u64,
    }

    impl EpochGroup for Probe {
        fn advance_group(&mut self, horizon: Time) -> EpochStats {
            let mut stats = EpochStats::default();
            while self.cursor < horizon {
                self.cursor = horizon.min(self.cursor + self.step);
                self.boundaries.push(self.cursor);
                stats.barriers += 1;
            }
            stats
        }
    }

    fn run(workers: usize, n: usize) -> Vec<(Vec<Time>, u64)> {
        let mut groups: Vec<Probe> = (0..n)
            .map(|i| Probe {
                cursor: Time::ZERO,
                step: Duration::from_us(10 + i as u64),
                boundaries: Vec::new(),
                inbox: 0,
            })
            .collect();
        let cfg = EpochConfig {
            lookahead: Duration::from_us(100),
            workers,
        };
        let mut round = 0u64;
        let stats = run_two_level(
            &mut groups,
            Time::ZERO,
            Time::from_us(450),
            &cfg,
            &mut |groups, at| {
                round += 1;
                for g in groups.iter_mut() {
                    g.inbox += at.as_ns() + round;
                }
                None
            },
            &mut TwoLevelScratch::default(),
        );
        assert_eq!(stats.outer.barriers, 5);
        assert!(stats.inner.barriers > 0);
        groups
            .into_iter()
            .map(|g| (g.boundaries, g.inbox))
            .collect()
    }

    #[test]
    fn inner_loops_advance_between_outer_barriers() {
        let out = run(1, 2);
        // Group 0 steps 10 µs at a time inside 100 µs outer epochs:
        // every inner boundary lands on a multiple of 10 µs and the
        // last one is the 450 µs horizon.
        assert_eq!(out[0].0.len(), 45);
        assert_eq!(*out[0].0.last().unwrap(), Time::from_us(450));
        // Group 1 (11 µs steps) truncates each inner loop at the outer
        // barrier, so boundaries include every outer barrier instant.
        for k in 1..=4u64 {
            assert!(out[1].0.contains(&Time::from_us(k * 100)));
        }
    }

    #[test]
    fn outer_worker_count_does_not_change_results() {
        let base = run(1, 5);
        for workers in [2, 4] {
            assert_eq!(run(workers, 5), base, "workers={workers}");
        }
    }

    /// Runs with an exchange that stretches the early outer epochs,
    /// returning each group's inner boundaries plus the barrier count.
    fn run_stretched(workers: usize) -> (Vec<Vec<Time>>, u64) {
        let mut groups: Vec<Probe> = (0..3)
            .map(|i| Probe {
                cursor: Time::ZERO,
                step: Duration::from_us(10 + i as u64),
                boundaries: Vec::new(),
                inbox: 0,
            })
            .collect();
        let cfg = EpochConfig {
            lookahead: Duration::from_us(100),
            workers,
        };
        let stats = run_two_level(
            &mut groups,
            Time::ZERO,
            Time::from_us(1000),
            &cfg,
            &mut |groups, at| {
                for g in groups.iter_mut() {
                    g.inbox += 1;
                }
                // "Quiet" until 400 µs: the first exchange proposes
                // the barrier covering that window; later ones keep
                // the fixed cadence.
                (at < Time::from_us(300)).then(|| Time::from_us(400))
            },
            &mut TwoLevelScratch::default(),
        );
        (
            groups.into_iter().map(|g| g.boundaries).collect(),
            stats.outer.barriers,
        )
    }

    #[test]
    fn exchange_proposals_stretch_outer_epochs() {
        let (bounds, barriers) = run_stretched(1);
        // Fixed cadence would cross 10 outer barriers; the stretch
        // from 100 µs straight to 400 µs removes two of them.
        assert_eq!(barriers, 8);
        // Group 1 (11 µs steps) truncates its inner loop at every
        // outer barrier: 400 µs is a boundary, the skipped barriers
        // at 200/300 µs are not.
        assert!(bounds[1].contains(&Time::from_us(400)));
        assert!(!bounds[1].contains(&Time::from_us(200)));
        assert!(!bounds[1].contains(&Time::from_us(300)));
        assert_eq!(*bounds[1].last().unwrap(), Time::from_us(1000));
        // Stretched outer proposals stay worker-count invariant.
        for workers in [2, 4] {
            assert_eq!(run_stretched(workers), (bounds.clone(), barriers));
        }
    }
}
