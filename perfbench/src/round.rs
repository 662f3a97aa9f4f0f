//! What one round of a workload records, and how a run's rounds fold into
//! its reported metrics.
//!
//! A round is one fresh set-up followed by the workload's operations (a
//! training iteration, or a whole fleet soak). Every round of a run does
//! the same work from the same seed, so the simulated outcome and every
//! work counter of operation `i` must repeat exactly from round to round,
//! and from process to process; host times are folded by median so a
//! burst of interference on a shared host moves one sample, not the
//! figure.

use std::collections::BTreeMap;

/// One operation's record.
#[derive(Debug, Clone, Default)]
pub struct Op {
    /// Host seconds the operation took.
    pub host_s: f64,
    /// Training iterations the operation stands for (1 for a training
    /// iteration; the soak's live iterations for a fleet soak).
    pub iterations: f64,
    /// Seed-deterministic outputs: simulated results and work counters.
    /// They must repeat bit for bit in every round.
    pub sim: BTreeMap<&'static str, f64>,
    /// Traced rounds only: host milliseconds spent in single layers during
    /// this operation, and the keys the timed selector resolved.
    pub layer: BTreeMap<&'static str, f64>,
    /// Why the operation failed (a hang, a panic or a failed output check).
    pub failure: Option<String>,
    /// The failure is a known fault of the program that fails this
    /// operation on every seed: it counts as failed but leaves the run
    /// correct.
    pub known_fault: bool,
}

/// One round's record.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Whether the layer spans were recorded.
    pub traced: bool,
    /// Whether the round panicked; its operations carry no results.
    pub panicked: bool,
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host milliseconds of each set-up layer, one sample per repetition.
    pub setup_layer_ms: BTreeMap<&'static str, Vec<f64>>,
    /// The round's operations, in order.
    pub ops: Vec<Op>,
}

/// The median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Exact equality of two fingerprints, bit for bit (NaN-safe).
fn same(a: &BTreeMap<&'static str, f64>, b: &BTreeMap<&'static str, f64>) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

/// A digest of one operation's simulated values and work counters, bit
/// for bit.
pub fn fingerprint(op: &Op) -> u64 {
    op.sim
        .values()
        .fold(0, |h, v| c4_netsim::mix64(h ^ v.to_bits()))
}

/// Fails every operation whose simulated values differ from the same
/// operation of the first round, or whose fingerprint differs from
/// `earlier`, the fingerprints an earlier process recorded at the same
/// seed. Returns `(attempted, failed)`.
pub fn judge(rounds: &mut [Round], earlier: Option<&[u64]>) -> (u64, u64) {
    let reference: Vec<BTreeMap<&'static str, f64>> = rounds
        .first()
        .map(|r| r.ops.iter().map(|o| o.sim.clone()).collect())
        .unwrap_or_default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for round in rounds.iter_mut() {
        for (i, op) in round.ops.iter_mut().enumerate() {
            attempted += 1;
            let drift = match reference.get(i) {
                Some(want) if !same(want, &op.sim) => Some(format!(
                    "operation {i} is not deterministic: {:?} vs {:?}",
                    op.sim, want
                )),
                _ => match earlier {
                    Some(e) if e.get(i) != Some(&fingerprint(op)) => Some(format!(
                        "operation {i} differs from an earlier process at this seed"
                    )),
                    _ => None,
                },
            };
            if let Some(d) = drift {
                op.failure = Some(match op.failure.take() {
                    Some(f) => format!("{f}; {d}"),
                    None => d,
                });
                op.known_fault = false;
            }
            if op.failure.is_some() {
                failed += 1;
            }
        }
    }
    (attempted, failed)
}

/// Iterations per host second over `rounds`: per operation slot, the
/// median host time across rounds; the rate is the slots' iterations over
/// the sum of their medians.
pub fn iters_per_s<'a>(rounds: impl Iterator<Item = &'a Round> + Clone) -> f64 {
    let slots = rounds.clone().map(|r| r.ops.len()).min().unwrap_or(0);
    let (mut iters, mut secs) = (0.0, 0.0);
    for i in 0..slots {
        let times: Vec<f64> = rounds.clone().map(|r| r.ops[i].host_s).collect();
        secs += median(&times);
        iters += rounds.clone().next().map_or(0.0, |r| r.ops[i].iterations);
    }
    if secs > 0.0 {
        iters / secs
    } else {
        0.0
    }
}

/// The per-operation mean of simulated value `name` over one round.
pub fn sim_mean(round: &Round, name: &str) -> f64 {
    let n = round.ops.len().max(1) as f64;
    round
        .ops
        .iter()
        .map(|o| o.sim.get(name).copied().unwrap_or(0.0))
        .sum::<f64>()
        / n
}

/// Per-operation value of traced layer entry `name`: per traced round,
/// the entry's mean over the round's operations; the median across traced
/// rounds.
pub fn layer_per_op(rounds: &[Round], name: &str) -> f64 {
    let per_round: Vec<f64> = rounds
        .iter()
        .filter(|r| r.traced && !r.ops.is_empty())
        .map(|r| {
            r.ops
                .iter()
                .map(|o| o.layer.get(name).copied().unwrap_or(0.0))
                .sum::<f64>()
                / r.ops.len() as f64
        })
        .collect();
    median(&per_round)
}

/// Median host milliseconds of set-up layer `name` over every repetition.
pub fn setup_layer_ms(rounds: &[Round], name: &str) -> f64 {
    let samples: Vec<f64> = rounds
        .iter()
        .filter_map(|r| r.setup_layer_ms.get(name))
        .flatten()
        .copied()
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(host_s: f64, sim: f64) -> Op {
        let mut o = Op {
            host_s,
            iterations: 1.0,
            ..Op::default()
        };
        o.sim.insert("x", sim);
        o
    }

    #[test]
    fn median_of_even_and_odd_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn a_drifting_fingerprint_fails_its_operation() {
        let mut rounds = vec![
            Round {
                ops: vec![op(1.0, 5.0), op(1.0, 6.0)],
                ..Round::default()
            },
            Round {
                ops: vec![op(1.0, 5.0), op(1.0, 6.000001)],
                ..Round::default()
            },
        ];
        assert_eq!(judge(&mut rounds, None), (4, 1));
        assert!(rounds[1].ops[1].failure.is_some());
        assert!(rounds[1].ops[0].failure.is_none());
    }

    #[test]
    fn drift_from_an_earlier_process_fails_every_copy() {
        let round = Round {
            ops: vec![op(1.0, 5.0), op(1.0, 6.0)],
            ..Round::default()
        };
        let earlier = [fingerprint(&round.ops[0]), fingerprint(&op(1.0, 7.0))];
        let mut rounds = vec![round.clone(), round];
        assert_eq!(judge(&mut rounds, Some(&earlier)), (4, 2));
        assert!(rounds.iter().all(|r| r.ops[0].failure.is_none()));
        assert!(rounds.iter().all(|r| r.ops[1].failure.is_some()));
    }

    #[test]
    fn drift_turns_a_known_fault_into_an_unknown_one() {
        let mut known = op(1.0, 6.0);
        known.failure = Some("known".into());
        known.known_fault = true;
        let mut drifted = op(1.0, 6.5);
        drifted.failure = Some("known".into());
        drifted.known_fault = true;
        let mut rounds = vec![
            Round {
                ops: vec![known.clone()],
                ..Round::default()
            },
            Round {
                ops: vec![drifted],
                ..Round::default()
            },
        ];
        assert_eq!(judge(&mut rounds, None), (2, 2));
        assert!(rounds[0].ops[0].known_fault);
        assert!(!rounds[1].ops[0].known_fault);
    }

    #[test]
    fn rate_uses_per_slot_medians() {
        let rounds = [
            Round {
                ops: vec![op(1.0, 0.0), op(3.0, 0.0)],
                ..Round::default()
            },
            Round {
                ops: vec![op(1.0, 0.0), op(3.0, 0.0)],
                ..Round::default()
            },
            Round {
                ops: vec![op(9.0, 0.0), op(3.0, 0.0)],
                ..Round::default()
            },
        ];
        // Slot medians 1 s and 3 s: two iterations in four seconds.
        assert_eq!(iters_per_s(rounds.iter()), 0.5);
    }
}
