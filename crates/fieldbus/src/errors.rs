//! CAN-style error signalling and fail-stop gating for the bus
//! executive.
//!
//! Classic CAN contains faulty transmitters with two error counters
//! per controller: the transmit error counter (TEC) jumps by 8 on
//! every transmission the bus flags, the receive error counter (REC)
//! steps by 1 per observed error, and both decay on success. A
//! controller whose counter crosses 127 goes *error-passive*; when the
//! TEC crosses 255 it goes *bus-off* and drops off the wire entirely
//! until it observes 128 × 11 recessive bits of bus idle. This module
//! reproduces that state machine ([`NodeStats`]) plus the fail-stop
//! CPU gate ([`FailStopGate`]) the executive applies per node; the
//! fault *schedule* itself lives in `emeralds-faults`.

use emeralds_core::kernel::NodeFaultSummary;
use emeralds_core::Kernel;
use emeralds_sim::{Duration, DurationHistogram, Time};

/// Error-signalling parameters of the bus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ErrorConfig {
    /// Bits an error frame (flag + delimiter + intermission) occupies
    /// on the wire; CAN's worst case is about 31, typical ~20.
    pub error_frame_bits: u64,
    /// Idle bits a bus-off controller must observe before rejoining:
    /// CAN mandates 128 occurrences of 11 recessive bits.
    pub busoff_recovery_bits: u64,
}

impl Default for ErrorConfig {
    fn default() -> Self {
        ErrorConfig {
            error_frame_bits: 20,
            busoff_recovery_bits: 128 * 11,
        }
    }
}

impl ErrorConfig {
    /// Wire time one error frame consumes.
    pub fn error_time(&self, bitrate_bps: u64) -> Duration {
        Duration::from_ns(self.error_frame_bits * 1_000_000_000 / bitrate_bps)
    }

    /// Bus-off recovery latency at the given bit rate.
    pub fn recovery_time(&self, bitrate_bps: u64) -> Duration {
        Duration::from_ns(self.busoff_recovery_bits * 1_000_000_000 / bitrate_bps)
    }
}

/// CAN controller fault-confinement state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CanErrorState {
    /// Normal operation.
    #[default]
    ErrorActive,
    /// A counter exceeded 127: still on the bus, error signalling
    /// restricted (forensic state only in this model).
    ErrorPassive,
    /// TEC exceeded 255: off the bus until recovery.
    BusOff,
}

/// Per-node NIC statistics and the CAN error state machine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeStats {
    /// Frames this node transmitted cleanly.
    pub tx_frames: u64,
    /// Frames delivered into this node's RX mailbox.
    pub rx_frames: u64,
    /// Frames lost on the RX side (mailbox overflow or node offline).
    pub rx_dropped: u64,
    /// Frames lost on the TX side (harvested or purged while offline).
    pub tx_dropped: u64,
    /// Error frames this node signalled as transmitter.
    pub error_frames: u64,
    /// Automatic retransmissions after a flagged transmission.
    pub retransmissions: u64,
    /// Garbage frames injected while babbling.
    pub babble_frames: u64,
    pub bus_off_events: u64,
    pub bus_off_recoveries: u64,
    /// Transmit / receive error counters (CAN fault confinement).
    pub tec: u32,
    pub rec: u32,
    pub state: CanErrorState,
    /// When the current bus-off window began, if in one.
    pub bus_off_since: Option<Time>,
    /// Bus-off entry → rejoin latency distribution.
    pub recovery_hist: DurationHistogram,
}

impl NodeStats {
    fn update_state(&mut self) {
        if self.state == CanErrorState::BusOff {
            return; // only try_recover leaves bus-off
        }
        self.state = if self.tec > 127 || self.rec > 127 {
            CanErrorState::ErrorPassive
        } else {
            CanErrorState::ErrorActive
        };
    }

    /// A clean transmission completed.
    pub fn on_tx_success(&mut self) {
        self.tx_frames += 1;
        self.tec = self.tec.saturating_sub(1);
        self.update_state();
    }

    /// The bus flagged this node's transmission. Returns `true` when
    /// the TEC jump pushed the node into bus-off.
    pub fn on_tx_error(&mut self, at: Time) -> bool {
        self.error_frames += 1;
        self.tec += 8;
        if self.tec > 255 {
            self.state = CanErrorState::BusOff;
            self.bus_off_events += 1;
            self.bus_off_since = Some(at);
            return true;
        }
        self.update_state();
        false
    }

    /// A frame was received cleanly.
    pub fn on_rx_success(&mut self) {
        self.rx_frames += 1;
        self.rec = self.rec.saturating_sub(1);
        self.update_state();
    }

    /// This node observed an error on the bus as a receiver.
    pub fn on_rx_error(&mut self) {
        self.rec += 1;
        self.update_state();
    }

    /// True while the controller is off the bus.
    pub fn is_bus_off(&self) -> bool {
        self.state == CanErrorState::BusOff
    }

    /// Rejoins the bus if the recovery interval has elapsed. Returns
    /// `true` on the barrier that completes a recovery.
    pub fn try_recover(&mut self, now: Time, recovery: Duration) -> bool {
        let Some(since) = self.bus_off_since else {
            return false;
        };
        if now < since + recovery {
            return false;
        }
        self.tec = 0;
        self.rec = 0;
        self.state = CanErrorState::ErrorActive;
        self.bus_off_since = None;
        self.bus_off_recoveries += 1;
        self.recovery_hist.record(now.since(since));
        true
    }

    /// Snapshot for the metrics rollup.
    pub fn fault_summary(&self) -> NodeFaultSummary {
        NodeFaultSummary {
            error_frames: self.error_frames,
            retransmissions: self.retransmissions,
            babble_frames: self.babble_frames,
            bus_off_events: self.bus_off_events,
            bus_off_recoveries: self.bus_off_recoveries,
            tec: self.tec,
            rec: self.rec,
            bus_off: self.is_bus_off(),
            max_recovery: self.recovery_hist.max(),
            mean_recovery: self.recovery_hist.mean(),
        }
    }
}

/// Applies a node's fail-stop schedule to its kernel: runs the kernel
/// normally up to each outage start, then stalls it through the outage
/// via [`Kernel::stall_for_fault`] (clock jumps forward, timer backlog
/// fires late, misses tagged `Fault`). Windows must be sorted and
/// disjoint — [`emeralds_faults::FaultClock::down_windows`] guarantees
/// that.
#[derive(Clone, Debug)]
pub struct FailStopGate {
    windows: Vec<(Time, Time)>,
    next: usize,
}

impl FailStopGate {
    /// Builds a gate over sorted, disjoint `[start, end)` windows.
    pub fn new(windows: &[(Time, Time)]) -> FailStopGate {
        FailStopGate {
            windows: windows.to_vec(),
            next: 0,
        }
    }

    /// True when no outage the gate has yet to apply starts before
    /// `end`, so [`FailStopGate::drive`] to `end` would be a plain
    /// advance. Conservative: a window already behind the kernel that
    /// the gate has not stepped past yet also answers `false`.
    pub fn quiet_before(&self, end: Time) -> bool {
        self.windows
            .get(self.next)
            .is_none_or(|&(start, _)| start >= end)
    }

    /// Advances the kernel to `horizon` (one epoch), stalling
    /// through any outage that begins before it. The kernel may
    /// overshoot the horizon when an outage extends past it — the
    /// conservative-lookahead engine already tolerates overshoot.
    pub fn drive(&mut self, kernel: &mut Kernel, horizon: Time) {
        loop {
            let Some(&(start, end)) = self.windows.get(self.next) else {
                kernel.advance_to(horizon);
                return;
            };
            if kernel.now() >= end {
                self.next += 1;
                continue;
            }
            if start >= horizon {
                kernel.advance_to(horizon);
                return;
            }
            if kernel.now() < start {
                kernel.advance_to(start);
            }
            kernel.stall_for_fault(end);
            self.next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tec_drives_busoff_and_recovery() {
        let mut s = NodeStats::default();
        let mut at = Time::ZERO;
        let mut entered = false;
        for _ in 0..32 {
            at += Duration::from_us(100);
            if s.on_tx_error(at) {
                entered = true;
                break;
            }
        }
        assert!(entered, "32 consecutive tx errors must reach bus-off");
        assert!(s.is_bus_off());
        assert_eq!(s.bus_off_events, 1);
        let recovery = Duration::from_us(1408);
        assert!(!s.try_recover(at + Duration::from_us(1), recovery));
        assert!(s.try_recover(at + recovery, recovery));
        assert_eq!(s.bus_off_recoveries, 1);
        assert_eq!(s.tec, 0);
        assert_eq!(s.state, CanErrorState::ErrorActive);
        assert_eq!(s.recovery_hist.count(), 1);
        assert!(s.recovery_hist.max() >= recovery);
    }

    #[test]
    fn passive_demotes_back_to_active() {
        let mut s = NodeStats::default();
        for _ in 0..16 {
            s.on_tx_error(Time::ZERO);
        }
        assert_eq!(s.state, CanErrorState::ErrorPassive);
        for _ in 0..16 {
            s.on_tx_success();
        }
        assert_eq!(s.state, CanErrorState::ErrorActive);
    }

    #[test]
    fn rec_saturates_at_zero() {
        let mut s = NodeStats::default();
        s.on_rx_success();
        s.on_rx_success();
        assert_eq!(s.rec, 0);
        s.on_rx_error();
        assert_eq!(s.rec, 1);
    }

    #[test]
    fn error_config_times_match_bitrate() {
        let cfg = ErrorConfig::default();
        assert_eq!(cfg.recovery_time(1_000_000), Duration::from_us(1408));
        assert_eq!(cfg.error_time(1_000_000), Duration::from_us(20));
    }
}
