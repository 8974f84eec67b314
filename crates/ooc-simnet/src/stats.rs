//! Aggregate run statistics.

use crate::time::SimTime;

/// Counters accumulated over a run, independent of the trace level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Messages handed to the network (one per recipient; a broadcast to
    /// `n` processes counts `n`).
    pub messages_sent: u64,
    /// Messages whose *first* copy reached a handler. Extra copies of a
    /// duplicated message are tallied in [`duplicate_deliveries`]
    /// (`RunStats::duplicate_deliveries`) instead, so
    /// [`delivery_ratio`](RunStats::delivery_ratio) can never exceed 1.
    pub messages_delivered: u64,
    /// Messages dropped for any reason.
    pub messages_dropped: u64,
    /// Messages the network chose to duplicate at send time.
    pub messages_duplicated: u64,
    /// Extra (second) copies of duplicated messages that reached a
    /// handler. Kept separate from [`messages_delivered`]
    /// (`RunStats::messages_delivered`) so `delivered / sent` stays a
    /// true ratio.
    pub duplicate_deliveries: u64,
    /// Timer firings delivered to handlers.
    pub timers_fired: u64,
    /// Total handler invocations (start + message + timer + restart).
    pub events_processed: u64,
    /// Number of crash injections that took effect.
    pub crashes: u64,
    /// Number of restarts that took effect.
    pub restarts: u64,
    /// Reliability-layer retransmissions (each also counts as a send).
    pub retransmissions: u64,
    /// Unacked messages evicted from full reliability send buffers.
    pub messages_evicted: u64,
    /// Simulated time at which the run stopped.
    pub end_time: SimTime,
    /// Liveness watchdog verdict: `true` when the run ended with live
    /// undecided processes but nothing in flight, armed, or buffered
    /// that could ever wake them — the run was dead in the water, not
    /// merely out of time. Always `false` when every live process
    /// decided.
    pub stalled: bool,
    /// Time of the last processed event when [`stalled`]
    /// (`RunStats::stalled`) is `true`: the instant progress ceased.
    /// Meaningless (zero) otherwise.
    pub idle_since: SimTime,
}

impl RunStats {
    /// Delivery ratio, `delivered / sent`; `1.0` when nothing was sent.
    ///
    /// Only first copies count toward `delivered`, so the ratio is
    /// bounded by `1.0` even when the network duplicates messages
    /// (extra copies live in
    /// [`duplicate_deliveries`](RunStats::duplicate_deliveries)).
    pub fn delivery_ratio(&self) -> f64 {
        if self.messages_sent == 0 {
            1.0
        } else {
            self.messages_delivered as f64 / self.messages_sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_ratio_handles_zero() {
        assert_eq!(RunStats::default().delivery_ratio(), 1.0);
        let s = RunStats {
            messages_sent: 10,
            messages_delivered: 7,
            ..RunStats::default()
        };
        assert!((s.delivery_ratio() - 0.7).abs() < 1e-12);
    }
}
