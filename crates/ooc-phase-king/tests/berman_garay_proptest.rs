//! Property-based sweeps over the Berman-Garay-Perry family: random
//! `(n, t)`, honest inputs, attacks and seeds; Phase-King and Phase-Queen
//! must be violation-free whenever their resilience bounds hold. Each
//! property runs 40 seeded cases through `ooc_core::testkit::cases`.

use ooc_core::testkit::cases;
use ooc_phase_king::{run_phase_king, run_phase_queen, Attack, PhaseKingConfig};
use ooc_simnet::SplitMix64;

const CASES: usize = 40;

/// One of the six attacks, uniformly.
fn attack(rng: &mut SplitMix64) -> Attack {
    [
        Attack::Silent,
        Attack::Fixed(0),
        Attack::Fixed(1),
        Attack::Fixed(2),
        Attack::Equivocate,
        Attack::Random,
    ][rng.below(6) as usize]
}

/// `(n, t)` with `n` in `lo..=13` and `t` in `1..=max((n - 1) / d, 1)`.
fn params(rng: &mut SplitMix64, lo: u64, d: usize) -> (usize, usize) {
    let n = rng.range_inclusive(lo, 13) as usize;
    let t_max = ((n - 1) / d).max(1);
    (n, rng.range_inclusive(1, t_max as u64) as usize)
}

#[test]
fn phase_king_is_violation_free() {
    cases(1, CASES, |rng| {
        let (n, t) = params(rng, 4, 3);
        let attack = attack(rng);
        let seed = rng.below(500);
        let input_bits = rng.next_u64();
        if 3 * t >= n {
            return false;
        }
        let inputs: Vec<u64> = (0..n - t).map(|i| (input_bits >> i) & 1).collect();
        let cfg = PhaseKingConfig::new(n, t).with_attack(attack);
        let run = run_phase_king(&cfg, &inputs, seed);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        true
    });
}

#[test]
fn phase_queen_is_violation_free() {
    cases(2, CASES, |rng| {
        let (n, t) = params(rng, 5, 4);
        let attack = attack(rng);
        let seed = rng.below(500);
        let input_bits = rng.next_u64();
        if 4 * t >= n {
            return false;
        }
        let inputs: Vec<u64> = (0..n - t).map(|i| (input_bits >> i) & 1).collect();
        let run = run_phase_queen(n, t, attack, &inputs, seed);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        true
    });
}

/// Unanimity validity, jointly: whatever the attack, honest unanimity
/// must carry through both algorithms.
#[test]
fn unanimity_is_sticky_for_both() {
    cases(3, CASES, |rng| {
        let attack = attack(rng);
        let v = rng.below(2);
        let seed = rng.below(200);
        let cfg = PhaseKingConfig::new(7, 2).with_attack(attack);
        let king = run_phase_king(&cfg, &[v; 5], seed);
        for p in &king.honest {
            assert_eq!(king.decisions[p.index()], Some(v));
        }
        let queen = run_phase_queen(9, 2, attack, &[v; 7], seed);
        for p in &queen.honest {
            assert_eq!(queen.decisions[p.index()], Some(v));
        }
        true
    });
}
