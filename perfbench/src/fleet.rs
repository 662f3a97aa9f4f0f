//! `fleet-soak-512`: one simulated week of a 512-GPU fleet with job churn,
//! crashes, degradations and link flaps, every fault driven through
//! detect → isolate → replace → restart.

use std::time::Instant;

use c4::scenarios::fleet::matched_operation;
use c4_fleet::{FleetConfig, FleetController};
use c4_simcore::ParallelPolicy;
use c4_trainsim::simulate_operation;

use crate::checks::{check_soak, overcharged_jobs};
use crate::round::{Op, Round};

/// Soaks per round, on seeds `seed, seed+1, …`: fault schedules differ
/// from seed to seed, and so does a soak's host cost, so each round
/// averages over several.
pub const SOAKS: usize = 4;
/// Controller set-ups per soak.
const SETUPS: usize = 8;

/// Runs one round: [`SOAKS`] soaks, each after [`SETUPS`] controller
/// set-ups of which the last is run.
pub fn round(seed: u64, traced: bool) -> Round {
    let mut round = Round {
        traced,
        ..Round::default()
    };
    for k in 0..SOAKS as u64 {
        let op = soak(seed.wrapping_add(k), traced, &mut round);
        round.ops.push(op);
    }
    round
}

fn soak(seed: u64, traced: bool, round: &mut Round) -> Op {
    let cfg = FleetConfig {
        parallel: ParallelPolicy::SERIAL,
        ..FleetConfig::soak_512(seed)
    };
    let mut setup = || {
        let t = Instant::now();
        let controller = FleetController::new(cfg.clone());
        round.setup_s.push(t.elapsed().as_secs_f64());
        controller
    };
    // Only the last set-up is kept; earlier ones are dropped before the
    // next starts, so peak memory holds one.
    for _ in 1..SETUPS {
        drop(setup());
    }
    let controller = setup();
    let t = Instant::now();
    let report = controller.run();
    let host_s = t.elapsed().as_secs_f64();

    let mut op = Op {
        host_s,
        iterations: report.live_iterations as f64,
        ..Op::default()
    };
    if traced {
        op.layer.insert("fleet.soak_ms", host_s * 1e3);
    }
    let (productive_s, iterations) = report.jobs.iter().fold((0.0, 0u64), |(p, n), j| {
        (
            p + j.accounting.productive.as_secs_f64(),
            n + j.accounting.iterations,
        )
    });
    let sim = &mut op.sim;
    sim.insert("sim_iter_ms", productive_s * 1e3 / iterations.max(1) as f64);
    sim.insert("fleet.goodput_h", productive_s / 3600.0);
    sim.insert(
        "fleet.recovery_s",
        report.mean_ettr().map_or(0.0, |d| d.as_secs_f64()),
    );
    for (name, v) in [
        ("fleet.rounds", report.rounds),
        ("fleet.live_iterations", report.live_iterations),
        ("fleet.recoveries", report.total_recoveries()),
        ("fleet.replacements", report.replacements),
        ("fleet.dp_shrinks", report.dp_shrinks),
        ("c4d.detections", report.detections),
        ("c4d.isolations", report.isolations),
        ("faults.applied", report.faults.total()),
        ("faults.skipped", report.faults.skipped),
        ("collectives.plan_hits", report.cache_hits),
        ("collectives.plan_misses", report.cache_misses),
        ("collectives.rebased_drops", report.cache_rebased_drops),
        ("fleet.overcharged_jobs", overcharged_jobs(&report)),
    ] {
        sim.insert(name, v as f64);
    }
    let model = simulate_operation(&matched_operation(&cfg), cfg.seed);
    if let Err(faults) = check_soak(&report, &model) {
        op.known_fault = faults.iter().all(|f| f.is_known());
        let what: Vec<String> = faults.iter().map(|f| f.to_string()).collect();
        op.failure = Some(what.join("; "));
    }
    op
}
