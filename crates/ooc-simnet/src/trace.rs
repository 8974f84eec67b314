//! Execution trace capture.
//!
//! Traces are the raw material for the correctness checkers in `ooc-core`:
//! every send, delivery, drop, crash, restart and decision is recorded with
//! its simulated timestamp. Message payloads are stored as `Debug` strings
//! only at [`TraceLevel::Full`] to keep the trace type non-generic.
//!
//! Post-hoc analysis (per-process timelines, drop breakdowns, the
//! decision critical path) lives in [`analyze`], and a whole trace can be
//! exported as JSON Lines via [`Trace::to_jsonl`] for external tooling.

pub mod analyze;

use crate::time::SimTime;
use crate::{Json, ProcessId};

/// How much detail to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Record nothing (counters in [`RunStats`](crate::RunStats) still work).
    Off,
    /// Record events without message payloads.
    #[default]
    Events,
    /// Record events with `Debug`-formatted message payloads.
    Full,
}

/// A single recorded event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A message was handed to the network.
    Send {
        /// Time of the send.
        at: SimTime,
        /// Sender.
        from: ProcessId,
        /// Recipient.
        to: ProcessId,
        /// Payload (`Debug` format), present at [`TraceLevel::Full`].
        payload: Option<String>,
    },
    /// A message reached its recipient's handler.
    Deliver {
        /// Time of the delivery.
        at: SimTime,
        /// Sender.
        from: ProcessId,
        /// Recipient.
        to: ProcessId,
        /// Payload (`Debug` format), present at [`TraceLevel::Full`].
        payload: Option<String>,
    },
    /// A message was dropped (see [`DropReason`] for the taxonomy).
    Drop {
        /// Time of the drop decision.
        at: SimTime,
        /// Sender.
        from: ProcessId,
        /// Intended recipient.
        to: ProcessId,
        /// Why the message was dropped.
        reason: DropReason,
    },
    /// A timer fired.
    TimerFired {
        /// Time of the firing.
        at: SimTime,
        /// Owner of the timer.
        process: ProcessId,
    },
    /// A process crashed.
    Crash {
        /// Time of the crash.
        at: SimTime,
        /// The crashed process.
        process: ProcessId,
    },
    /// A crashed process recovered.
    Restart {
        /// Time of the recovery.
        at: SimTime,
        /// The recovering process.
        process: ProcessId,
    },
    /// A process decided an output value.
    Decide {
        /// Time of the decision.
        at: SimTime,
        /// The deciding process.
        process: ProcessId,
        /// The decision (`Debug` format), present at [`TraceLevel::Full`].
        value: Option<String>,
    },
    /// A record was appended to a process's stable storage.
    Persist {
        /// Time of the write.
        at: SimTime,
        /// The writing process.
        process: ProcessId,
        /// The record key, present at [`TraceLevel::Full`].
        key: Option<String>,
        /// Size of the record value in bytes.
        bytes: u64,
    },
    /// A process synced its storage; the unsynced suffix became durable.
    SyncOk {
        /// Time of the sync.
        at: SimTime,
        /// The syncing process.
        process: ProcessId,
        /// How many records became durable with this sync.
        records: u64,
    },
    /// A crash destroyed stored records under a lossy
    /// [`StoragePolicy`](crate::StoragePolicy).
    SyncLost {
        /// Time of the crash.
        at: SimTime,
        /// The crashed process.
        process: ProcessId,
        /// How many records were lost (a torn record counts as one).
        lost: u64,
    },
    /// A restarting process recovered its surviving storage contents.
    Recover {
        /// Time of the recovery.
        at: SimTime,
        /// The recovering process.
        process: ProcessId,
        /// How many records survived the crash.
        records: u64,
    },
    /// The reliability layer retransmitted an unacked message.
    Retransmit {
        /// Time of the retransmission.
        at: SimTime,
        /// Original sender (owner of the send buffer).
        from: ProcessId,
        /// Recipient.
        to: ProcessId,
        /// Which retransmission attempt this is (1 = first retry).
        attempt: u32,
    },
    /// A sender at buffer capacity evicted its oldest unacked message.
    Evict {
        /// Time of the eviction.
        at: SimTime,
        /// The sender whose buffer was full.
        from: ProcessId,
        /// Recipient of the evicted message.
        to: ProcessId,
        /// Sequence number of the evicted message.
        seq: u64,
    },
    /// The liveness watchdog classified the run's end as stalled: live
    /// undecided processes remained but nothing was in flight, armed, or
    /// buffered that could ever wake them.
    Stalled {
        /// Time the run stopped.
        at: SimTime,
        /// Time of the last processed event — when progress ceased.
        idle_since: SimTime,
    },
}

/// Why a message never reached its recipient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Random loss sampled from the network configuration.
    Loss,
    /// An active partition separated sender and recipient.
    Partition,
    /// The recipient was crashed at delivery time.
    DeadRecipient,
    /// The sender was crashed at send time (late event).
    DeadSender,
    /// An adversary chose to drop the message.
    Adversary,
    /// The recipient had decided and halted before the delivery tick.
    HaltedRecipient,
    /// The reliability layer had already delivered this sequence number;
    /// the redundant copy was suppressed instead of re-invoking the
    /// process.
    DuplicateSuppressed,
}

impl DropReason {
    /// A stable, lowercase `snake_case` label for this reason, used as a
    /// metrics key and in JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::Loss => "loss",
            DropReason::Partition => "partition",
            DropReason::DeadRecipient => "dead_recipient",
            DropReason::DeadSender => "dead_sender",
            DropReason::Adversary => "adversary",
            DropReason::HaltedRecipient => "halted_recipient",
            DropReason::DuplicateSuppressed => "duplicate_suppressed",
        }
    }
}

/// An append-only log of [`TraceEvent`]s.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    level: TraceLevel,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace recording at the given level.
    pub fn new(level: TraceLevel) -> Self {
        Trace {
            level,
            events: Vec::new(),
        }
    }

    /// The recording level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Appends an event (no-op at [`TraceLevel::Off`]).
    pub fn push(&mut self, event: TraceEvent) {
        if self.level != TraceLevel::Off {
            self.events.push(event);
        }
    }

    /// Reserves capacity for at least `additional` further events.
    ///
    /// No-op at [`TraceLevel::Off`], where nothing is ever stored. The
    /// engine calls this once per [`Sim::run`](crate::Sim::run) with an
    /// estimate derived from the [`RunLimit`](crate::RunLimit), so the
    /// event loop appends without reallocating mid-run.
    pub fn reserve(&mut self, additional: usize) {
        if self.level != TraceLevel::Off {
            self.events.reserve(additional);
        }
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over decisions as `(process, time, value-debug)` tuples.
    pub fn decisions(&self) -> impl Iterator<Item = (ProcessId, SimTime, Option<&str>)> + '_ {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Decide { at, process, value } => {
                Some((*process, *at, value.as_deref()))
            }
            _ => None,
        })
    }

    /// The time of the last recorded event, if any.
    pub fn end_time(&self) -> Option<SimTime> {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::Send { at, .. }
                | TraceEvent::Deliver { at, .. }
                | TraceEvent::Drop { at, .. }
                | TraceEvent::TimerFired { at, .. }
                | TraceEvent::Crash { at, .. }
                | TraceEvent::Restart { at, .. }
                | TraceEvent::Decide { at, .. }
                | TraceEvent::Persist { at, .. }
                | TraceEvent::SyncOk { at, .. }
                | TraceEvent::SyncLost { at, .. }
                | TraceEvent::Recover { at, .. }
                | TraceEvent::Retransmit { at, .. }
                | TraceEvent::Evict { at, .. }
                | TraceEvent::Stalled { at, .. } => *at,
            })
            .max()
    }

    /// Counts events matching a predicate.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// Renders the whole trace as JSON Lines: one JSON object per event,
    /// in recording order, each terminated by `\n`.
    ///
    /// Strings are escaped by [`Json`]. The encoding is deterministic:
    /// field order is fixed per event kind, so two identical runs produce
    /// byte-identical exports.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// The engine's internal trace accumulator: a ring buffer that keeps at
/// most `capacity` recent events (unbounded when `capacity` is `None`).
///
/// The engine records into a `TraceRing` and only materializes a plain
/// [`Trace`] when a [`RunOutcome`](crate::RunOutcome) is assembled, so a
/// capacity-bounded run — e.g. a campaign happy path that will never
/// read its trace — pays O(capacity) instead of O(events) for trace
/// storage and materialization. With no capacity set the ring behaves
/// exactly like the old always-growing `Trace` log.
#[derive(Debug, Clone)]
pub struct TraceRing {
    level: TraceLevel,
    capacity: Option<usize>,
    events: std::collections::VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring recording at `level`, keeping every event when
    /// `capacity` is `None` and only the most recent `capacity` events
    /// otherwise (`Some(0)` records nothing but still counts drops).
    pub fn new(level: TraceLevel, capacity: Option<usize>) -> Self {
        TraceRing {
            level,
            capacity,
            events: std::collections::VecDeque::new(),
            dropped: 0,
        }
    }

    /// The recording level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Appends an event, evicting the oldest once the ring is full
    /// (no-op at [`TraceLevel::Off`]).
    ///
    /// Inlined: a ring that keeps nothing (`Off`, or capacity 0, which
    /// only counts the drop) then costs its caller two compares instead
    /// of a call that takes the whole event.
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        if self.level == TraceLevel::Off {
            return;
        }
        if self.capacity == Some(0) {
            self.dropped += 1;
            return;
        }
        self.keep(event);
    }

    /// [`Self::push`] for a ring that keeps events.
    #[inline(never)]
    fn keep(&mut self, event: TraceEvent) {
        if self.capacity == Some(self.events.len()) {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many events were evicted (or refused, at capacity 0) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Reserves capacity for `additional` further events. No-op when the
    /// ring is bounded (its storage is capped) or at [`TraceLevel::Off`].
    pub fn reserve(&mut self, additional: usize) {
        if self.level != TraceLevel::Off && self.capacity.is_none() {
            self.events.reserve(additional);
        }
    }

    /// Materializes the held events, oldest first, as a plain [`Trace`].
    ///
    /// O(len): for a bounded ring that is O(capacity) regardless of how
    /// long the run was; for an unbounded ring it is the same full copy
    /// the engine previously paid for `Trace::clone`.
    pub fn to_trace(&self) -> Trace {
        Trace {
            level: self.level,
            events: self.events.iter().cloned().collect(),
        }
    }
}

/// Renders an optional payload as a JSON fragment (`null` or a string).
fn json_opt(s: &Option<String>) -> String {
    s.clone().map_or(Json::Null, Json::Str).compact()
}

impl TraceEvent {
    /// Renders this event as a single-line JSON object (no trailing
    /// newline). Field order is fixed, making the output deterministic.
    pub fn to_json_line(&self) -> String {
        match self {
            TraceEvent::Send { at, from, to, payload } => format!(
                "{{\"kind\":\"send\",\"at\":{},\"from\":{},\"to\":{},\"payload\":{}}}",
                at.ticks(),
                from.0,
                to.0,
                json_opt(payload)
            ),
            TraceEvent::Deliver { at, from, to, payload } => format!(
                "{{\"kind\":\"deliver\",\"at\":{},\"from\":{},\"to\":{},\"payload\":{}}}",
                at.ticks(),
                from.0,
                to.0,
                json_opt(payload)
            ),
            TraceEvent::Drop { at, from, to, reason } => format!(
                "{{\"kind\":\"drop\",\"at\":{},\"from\":{},\"to\":{},\"reason\":\"{}\"}}",
                at.ticks(),
                from.0,
                to.0,
                reason.name()
            ),
            TraceEvent::TimerFired { at, process } => format!(
                "{{\"kind\":\"timer\",\"at\":{},\"process\":{}}}",
                at.ticks(),
                process.0
            ),
            TraceEvent::Crash { at, process } => format!(
                "{{\"kind\":\"crash\",\"at\":{},\"process\":{}}}",
                at.ticks(),
                process.0
            ),
            TraceEvent::Restart { at, process } => format!(
                "{{\"kind\":\"restart\",\"at\":{},\"process\":{}}}",
                at.ticks(),
                process.0
            ),
            TraceEvent::Decide { at, process, value } => format!(
                "{{\"kind\":\"decide\",\"at\":{},\"process\":{},\"value\":{}}}",
                at.ticks(),
                process.0,
                json_opt(value)
            ),
            TraceEvent::Persist { at, process, key, bytes } => format!(
                "{{\"kind\":\"persist\",\"at\":{},\"process\":{},\"key\":{},\"bytes\":{}}}",
                at.ticks(),
                process.0,
                json_opt(key),
                bytes
            ),
            TraceEvent::SyncOk { at, process, records } => format!(
                "{{\"kind\":\"sync_ok\",\"at\":{},\"process\":{},\"records\":{}}}",
                at.ticks(),
                process.0,
                records
            ),
            TraceEvent::SyncLost { at, process, lost } => format!(
                "{{\"kind\":\"sync_lost\",\"at\":{},\"process\":{},\"lost\":{}}}",
                at.ticks(),
                process.0,
                lost
            ),
            TraceEvent::Recover { at, process, records } => format!(
                "{{\"kind\":\"recover\",\"at\":{},\"process\":{},\"records\":{}}}",
                at.ticks(),
                process.0,
                records
            ),
            TraceEvent::Retransmit { at, from, to, attempt } => format!(
                "{{\"kind\":\"retransmit\",\"at\":{},\"from\":{},\"to\":{},\"attempt\":{}}}",
                at.ticks(),
                from.0,
                to.0,
                attempt
            ),
            TraceEvent::Evict { at, from, to, seq } => format!(
                "{{\"kind\":\"evict\",\"at\":{},\"from\":{},\"to\":{},\"seq\":{}}}",
                at.ticks(),
                from.0,
                to.0,
                seq
            ),
            TraceEvent::Stalled { at, idle_since } => format!(
                "{{\"kind\":\"stalled\",\"at\":{},\"idle_since\":{}}}",
                at.ticks(),
                idle_since.ticks()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_level_records_nothing() {
        let mut t = Trace::new(TraceLevel::Off);
        t.push(TraceEvent::Crash {
            at: SimTime::ZERO,
            process: ProcessId(0),
        });
        assert!(t.is_empty());
    }

    #[test]
    fn decisions_are_extracted() {
        let mut t = Trace::new(TraceLevel::Full);
        t.push(TraceEvent::Decide {
            at: SimTime::from_ticks(3),
            process: ProcessId(1),
            value: Some("42".into()),
        });
        t.push(TraceEvent::TimerFired {
            at: SimTime::from_ticks(4),
            process: ProcessId(0),
        });
        let d: Vec<_> = t.decisions().collect();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, ProcessId(1));
        assert_eq!(d[0].2, Some("42"));
    }

    #[test]
    fn end_time_is_max() {
        let mut t = Trace::new(TraceLevel::Events);
        t.push(TraceEvent::Crash {
            at: SimTime::from_ticks(9),
            process: ProcessId(0),
        });
        t.push(TraceEvent::TimerFired {
            at: SimTime::from_ticks(4),
            process: ProcessId(0),
        });
        assert_eq!(t.end_time(), Some(SimTime::from_ticks(9)));
        assert_eq!(Trace::default().end_time(), None);
    }

    #[test]
    fn jsonl_export_is_deterministic_and_escaped() {
        let mut t = Trace::new(TraceLevel::Full);
        t.push(TraceEvent::Send {
            at: SimTime::from_ticks(1),
            from: ProcessId(0),
            to: ProcessId(1),
            payload: Some("say \"hi\"\n".into()),
        });
        t.push(TraceEvent::Drop {
            at: SimTime::from_ticks(2),
            from: ProcessId(0),
            to: ProcessId(2),
            reason: DropReason::HaltedRecipient,
        });
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"kind\":\"send\",\"at\":1,\"from\":0,\"to\":1,\"payload\":\"say \\\"hi\\\"\\n\"}"
        );
        assert_eq!(
            lines[1],
            "{\"kind\":\"drop\",\"at\":2,\"from\":0,\"to\":2,\"reason\":\"halted_recipient\"}"
        );
        assert_eq!(jsonl, t.to_jsonl(), "export must be deterministic");
    }

    #[test]
    fn drop_reason_names_are_stable() {
        for (r, n) in [
            (DropReason::Loss, "loss"),
            (DropReason::Partition, "partition"),
            (DropReason::DeadRecipient, "dead_recipient"),
            (DropReason::DeadSender, "dead_sender"),
            (DropReason::Adversary, "adversary"),
            (DropReason::HaltedRecipient, "halted_recipient"),
            (DropReason::DuplicateSuppressed, "duplicate_suppressed"),
        ] {
            assert_eq!(r.name(), n);
        }
    }

    #[test]
    fn reliability_events_export_and_end_time() {
        let mut t = Trace::new(TraceLevel::Events);
        t.push(TraceEvent::Retransmit {
            at: SimTime::from_ticks(51),
            from: ProcessId(0),
            to: ProcessId(2),
            attempt: 1,
        });
        t.push(TraceEvent::Evict {
            at: SimTime::from_ticks(52),
            from: ProcessId(0),
            to: ProcessId(1),
            seq: 7,
        });
        t.push(TraceEvent::Stalled {
            at: SimTime::from_ticks(60),
            idle_since: SimTime::from_ticks(53),
        });
        let lines: Vec<String> = t.to_jsonl().lines().map(String::from).collect();
        assert_eq!(
            lines[0],
            "{\"kind\":\"retransmit\",\"at\":51,\"from\":0,\"to\":2,\"attempt\":1}"
        );
        assert_eq!(lines[1], "{\"kind\":\"evict\",\"at\":52,\"from\":0,\"to\":1,\"seq\":7}");
        assert_eq!(lines[2], "{\"kind\":\"stalled\",\"at\":60,\"idle_since\":53}");
        assert_eq!(t.end_time(), Some(SimTime::from_ticks(60)));
    }

    #[test]
    fn storage_events_export_and_end_time() {
        let mut t = Trace::new(TraceLevel::Full);
        t.push(TraceEvent::Persist {
            at: SimTime::from_ticks(1),
            process: ProcessId(0),
            key: Some("hardstate".into()),
            bytes: 17,
        });
        t.push(TraceEvent::SyncOk {
            at: SimTime::from_ticks(2),
            process: ProcessId(0),
            records: 1,
        });
        t.push(TraceEvent::SyncLost {
            at: SimTime::from_ticks(3),
            process: ProcessId(0),
            lost: 2,
        });
        t.push(TraceEvent::Recover {
            at: SimTime::from_ticks(4),
            process: ProcessId(0),
            records: 0,
        });
        let export = t.to_jsonl();
        let lines: Vec<&str> = export.lines().collect();
        assert_eq!(
            lines[0],
            "{\"kind\":\"persist\",\"at\":1,\"process\":0,\"key\":\"hardstate\",\"bytes\":17}"
        );
        assert_eq!(lines[1], "{\"kind\":\"sync_ok\",\"at\":2,\"process\":0,\"records\":1}");
        assert_eq!(lines[2], "{\"kind\":\"sync_lost\",\"at\":3,\"process\":0,\"lost\":2}");
        assert_eq!(lines[3], "{\"kind\":\"recover\",\"at\":4,\"process\":0,\"records\":0}");
        assert_eq!(t.end_time(), Some(SimTime::from_ticks(4)));
    }

    fn timer_at(t: u64) -> TraceEvent {
        TraceEvent::TimerFired {
            at: SimTime::from_ticks(t),
            process: ProcessId(0),
        }
    }

    #[test]
    fn unbounded_ring_keeps_everything() {
        let mut r = TraceRing::new(TraceLevel::Events, None);
        for i in 0..100 {
            r.push(timer_at(i));
        }
        assert_eq!(r.len(), 100);
        assert_eq!(r.dropped(), 0);
        let t = r.to_trace();
        assert_eq!(t.len(), 100);
        assert_eq!(t.events()[0], timer_at(0));
        assert_eq!(t.events()[99], timer_at(99));
    }

    #[test]
    fn bounded_ring_keeps_the_most_recent_events_in_order() {
        let mut r = TraceRing::new(TraceLevel::Events, Some(8));
        for i in 0..100 {
            r.push(timer_at(i));
        }
        assert_eq!(r.len(), 8);
        assert_eq!(r.dropped(), 92);
        let t = r.to_trace();
        let ticks: Vec<u64> = t
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::TimerFired { at, .. } => at.ticks(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ticks, (92..100).collect::<Vec<_>>());
    }

    #[test]
    fn zero_capacity_ring_records_nothing_but_counts() {
        let mut r = TraceRing::new(TraceLevel::Events, Some(0));
        for i in 0..5 {
            r.push(timer_at(i));
        }
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 5);
        assert!(r.to_trace().is_empty());
    }

    #[test]
    fn off_level_ring_records_nothing() {
        let mut r = TraceRing::new(TraceLevel::Off, None);
        r.push(timer_at(1));
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0, "Off level is silent, not 'dropping'");
    }

    #[test]
    fn count_filters() {
        let mut t = Trace::new(TraceLevel::Events);
        for i in 0..5 {
            t.push(TraceEvent::TimerFired {
                at: SimTime::from_ticks(i),
                process: ProcessId(0),
            });
        }
        assert_eq!(t.count(|e| matches!(e, TraceEvent::TimerFired { .. })), 5);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::Crash { .. })), 0);
    }
}
