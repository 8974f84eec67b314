//! Phase-King's adopt-commit object (paper Algorithm 3).
//!
//! ```text
//! AC(v, m):
//!   broadcast ⟨v⟩                      (* exchange 1 *)
//!   v ← 2
//!   for k = 0 to 1:   C(k) ← #received k's;  if C(k) ≥ n − t: v ← k
//!   broadcast ⟨v⟩                      (* exchange 2 *)
//!   for k = 2 downto 0: D(k) ← #received k's; if D(k) > t: v ← k
//!   if v ≠ 2 and D(v) ≥ n − t: return (commit, v)
//!   else:                      return (adopt, v)
//! ```
//!
//! Correctness is paper Lemma 2: after exchange 1 all correct processors
//! hold either `2` or one common value (any two `n − t` quorums intersect
//! in a correct processor when `3t < n`), which yields coherence; `n − t`
//! identical inputs survive both exchanges, which yields validity and
//! convergence.

use ooc_core::confidence::AcOutcome;
use ooc_core::sync_objects::{SyncObjCtx, SyncObject};
use ooc_simnet::ProcessId;

/// The protocol-internal "no majority seen" marker.
pub const NO_MAJORITY: u64 = 2;

/// One phase's adopt-commit object. Three lock-step steps: send exchange 1,
/// tally + send exchange 2, tally + outcome.
#[derive(Debug, Clone)]
pub struct PhaseKingAc {
    n: usize,
    t: usize,
    /// The value computed after exchange 1 (`0`, `1`, or [`NO_MAJORITY`]).
    mid: u64,
}

impl PhaseKingAc {
    /// Creates the object for `n` processors, `t` of them Byzantine.
    ///
    /// # Panics
    /// Panics unless `3t < n` (with `3t ≥ n` two `n − t` quorums need not
    /// intersect in an honest processor and coherence fails).
    pub fn new(n: usize, t: usize) -> Self {
        assert!(3 * t < n, "Phase-King requires 3t < n (got n={n}, t={t})");
        PhaseKingAc {
            n,
            t,
            mid: NO_MAJORITY,
        }
    }
}

/// The largest exchange whose senders [`tally`] marks without allocating.
const STACK_SENDERS: usize = 256;

/// Tallies one value per distinct sender of an `n`-processor exchange:
/// `counts[k]` is the number of senders whose first value in the domain
/// `0..D` is `k`. A Byzantine processor that sends several messages in
/// one exchange is counted once. A value outside the domain is discarded
/// without marking its sender, so a later in-domain value from the same
/// sender still counts. Senders are marked in a bitmap over the `n` ids,
/// kept on the stack for up to [`STACK_SENDERS`] processes; only a larger
/// exchange allocates it.
pub(crate) fn tally<const D: usize>(inbox: &[(ProcessId, u64)], n: usize) -> [usize; D] {
    let mut counts = [0usize; D];
    let mut stack = [0u64; STACK_SENDERS / 64];
    let mut heap = Vec::new();
    let seen: &mut [u64] = if n <= STACK_SENDERS {
        &mut stack
    } else {
        heap.resize(n.div_ceil(64), 0);
        &mut heap
    };
    for &(from, value) in inbox {
        if value < D as u64 {
            let (word, bit) = (from.index() / 64, 1u64 << (from.index() % 64));
            if seen[word] & bit == 0 {
                seen[word] |= bit;
                counts[value as usize] += 1;
            }
        }
    }
    counts
}

impl SyncObject for PhaseKingAc {
    type Value = u64;
    type Msg = u64;
    type Outcome = AcOutcome<u64>;

    fn steps(&self) -> u64 {
        3
    }

    fn step(
        &mut self,
        k: u64,
        input: &u64,
        inbox: &[(ProcessId, u64)],
        ctx: &mut SyncObjCtx<'_, u64>,
    ) -> Option<AcOutcome<u64>> {
        match k {
            0 => {
                // Exchange 1 send.
                ctx.broadcast(*input);
                None
            }
            1 => {
                // Exchange 1 tally; exchange 2 send.
                let c = tally::<2>(inbox, self.n);
                self.mid = NO_MAJORITY;
                for (k, &count) in c.iter().enumerate() {
                    if count >= self.n - self.t {
                        self.mid = k as u64;
                    }
                }
                ctx.broadcast(self.mid);
                None
            }
            2 => {
                // Exchange 2 tally; outcome.
                let d = tally::<3>(inbox, self.n);
                let mut v = self.mid;
                // `for k = 2 downto 0` — the last assignment wins, so the
                // smallest k with D(k) > t prevails.
                for k in (0..=2u64).rev() {
                    if d[k as usize] > self.t {
                        v = k;
                    }
                }
                Some(if v != NO_MAJORITY && d[v as usize] >= self.n - self.t {
                    AcOutcome::commit(v)
                } else {
                    AcOutcome::adopt(v)
                })
            }
            // ooc-lint::allow(protocol/panic, "SyncObject::STEPS pins PhaseKingAc to exactly 3 steps")
            _ => unreachable!("PhaseKingAc has exactly 3 steps"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_simnet::SplitMix64;

    fn ctx<'a>(
        rng: &'a mut SplitMix64,
        outbox: &'a mut Vec<(ProcessId, u64)>,
    ) -> SyncObjCtx<'a, u64> {
        SyncObjCtx::new(ProcessId(0), 7, rng, outbox)
    }

    fn inbox(values: &[u64]) -> Vec<(ProcessId, u64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (ProcessId(i), v))
            .collect()
    }

    #[test]
    #[should_panic(expected = "3t < n")]
    fn resilience_bound_enforced() {
        let _ = PhaseKingAc::new(6, 2);
    }

    #[test]
    fn unanimous_inputs_commit() {
        // n = 7, t = 2, all seven report 1.
        let mut ac = PhaseKingAc::new(7, 2);
        let mut rng = SplitMix64::new(1);
        let mut out = Vec::new();
        assert!(ac.step(0, &1, &[], &mut ctx(&mut rng, &mut out)).is_none());
        assert_eq!(out.len(), 7);
        let mut out2 = Vec::new();
        assert!(ac
            .step(1, &1, &inbox(&[1; 7]), &mut ctx(&mut rng, &mut out2))
            .is_none());
        assert!(out2.iter().all(|&(_, v)| v == 1), "exchange 2 carries 1");
        let mut out3 = Vec::new();
        let o = ac.step(2, &1, &inbox(&[1; 7]), &mut ctx(&mut rng, &mut out3));
        assert_eq!(o, Some(AcOutcome::commit(1)));
        assert!(out3.is_empty(), "final step must not send");
    }

    #[test]
    fn split_inputs_adopt_no_majority() {
        let mut ac = PhaseKingAc::new(7, 2);
        let mut rng = SplitMix64::new(1);
        let mut sink = Vec::new();
        ac.step(0, &0, &[], &mut ctx(&mut rng, &mut sink));
        // 4 zeros, 3 ones: neither reaches n − t = 5.
        ac.step(1, &0, &inbox(&[0, 0, 0, 0, 1, 1, 1]), &mut ctx(&mut rng, &mut sink));
        assert_eq!(ac.mid, NO_MAJORITY);
        // Everyone else also saw no majority.
        let o = ac.step(2, &0, &inbox(&[2; 7]), &mut ctx(&mut rng, &mut sink));
        assert_eq!(o, Some(AcOutcome::adopt(NO_MAJORITY)));
    }

    #[test]
    fn exchange_two_majority_pulls_value() {
        let mut ac = PhaseKingAc::new(7, 2);
        let mut rng = SplitMix64::new(1);
        let mut sink = Vec::new();
        ac.step(0, &0, &[], &mut ctx(&mut rng, &mut sink));
        ac.step(1, &0, &inbox(&[0, 0, 0, 0, 1, 1, 1]), &mut ctx(&mut rng, &mut sink));
        // Five processors report 0 in exchange 2 (> t and ≥ n − t).
        let o = ac.step(2, &0, &inbox(&[0, 0, 0, 0, 0, 2, 2]), &mut ctx(&mut rng, &mut sink));
        assert_eq!(o, Some(AcOutcome::commit(0)));
    }

    #[test]
    fn smallest_k_wins_in_downto_loop() {
        let mut ac = PhaseKingAc::new(7, 2);
        let mut rng = SplitMix64::new(1);
        let mut sink = Vec::new();
        ac.step(0, &0, &[], &mut ctx(&mut rng, &mut sink));
        ac.step(1, &0, &inbox(&[0, 0, 0, 0, 1, 1, 1]), &mut ctx(&mut rng, &mut sink));
        // Both 0 and 1 have > t = 2 backers: 3 each; downto-loop ends on 0.
        let o = ac.step(2, &0, &inbox(&[0, 0, 0, 1, 1, 1, 2]), &mut ctx(&mut rng, &mut sink));
        assert_eq!(o, Some(AcOutcome::adopt(0)));
    }

    #[test]
    fn duplicate_senders_counted_once() {
        let dup = vec![
            (ProcessId(0), 1u64),
            (ProcessId(0), 1),
            (ProcessId(0), 1),
            (ProcessId(1), 0),
        ];
        assert_eq!(tally::<2>(&dup, 7), [1, 1]);
    }

    #[test]
    fn out_of_domain_values_discarded() {
        let junk = vec![(ProcessId(0), 9u64), (ProcessId(1), 1)];
        assert_eq!(tally::<2>(&junk, 7), [0, 1]);
        // A sender's out-of-domain value does not use up its vote: its
        // later in-domain value counts, once.
        let late = vec![(ProcessId(2), 5u64), (ProcessId(2), 0), (ProcessId(2), 1)];
        assert_eq!(tally::<2>(&late, 7), [1, 0]);
    }

    #[test]
    fn large_exchanges_tally_like_small_ones() {
        // Past the stack bitmap's reach the senders are marked on the
        // heap; senders in both the first and the last word count once.
        for n in [STACK_SENDERS, STACK_SENDERS + 1, 3 * STACK_SENDERS + 5] {
            let last = ProcessId(n - 1);
            let inbox = vec![
                (ProcessId(0), 1u64),
                (last, 0),
                (ProcessId(0), 0),
                (last, 1),
                (ProcessId(63), 7),
                (ProcessId(63), 1),
            ];
            assert_eq!(tally::<2>(&inbox, n), [1, 2], "n = {n}");
        }
    }
}
