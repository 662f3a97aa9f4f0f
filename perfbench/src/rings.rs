//! `rings-16k-twotier`: eight interleaved 1 GiB allreduce ring jobs on a
//! 16384-GPU railed pod at 2:1, C4P paths with rate observation between
//! iterations, DCQCN noise plus CNP, and the two-tier spine solver.

use std::time::Instant;

use c4::scenarios::benchmark_request;
use c4_collectives::{run_concurrent_cached, CollectiveRequest, Communicator, PlanCache};
use c4_netsim::{mix64, CnpModel, DrainConfig, SolveMode};
use c4_simcore::{DetRng, ParallelPolicy};
use c4_topology::{ClosConfig, GpuId, NodeId, Topology};
use c4_traffic::{C4pConfig, C4pMaster};

use crate::checks::check_rings;
use crate::round::{Op, Round};
use crate::timed::TimedSelector;
use crate::{ms, solver_counters};

/// Nodes of the pod (8 GPUs each).
const NODES: usize = 2048;
/// Concurrent jobs.
const JOBS: usize = 8;
/// Set-up repetitions per round.
const SETUPS: usize = 3;
/// Training iterations per round.
pub const ITERS: usize = 3;

/// Eight equal jobs interleaved across the leaf groups of a `nodes`-node
/// pod: job `i` takes nodes `i, i+8, i+16, …`, ordered so consecutive ring
/// nodes sit in different groups and every ring boundary crosses the
/// spine. `nodes / 8` must be at most 8 or a multiple of 8.
pub fn build_jobs(topo: &Topology, nodes: usize) -> Vec<Communicator> {
    let per_job = nodes / JOBS;
    (0..JOBS)
        .map(|i| {
            let devices: Vec<GpuId> = (0..per_job)
                .map(|k| {
                    if per_job <= 8 {
                        k
                    } else {
                        (k % 8) * (per_job / 8) + k / 8
                    }
                })
                .map(|s| NodeId::from_index(i + JOBS * s))
                .flat_map(|n| topo.node(n).gpus.clone())
                .collect();
            Communicator::new(1 + i as u64, devices, topo).expect("interleaved job places")
        })
        .collect()
}

struct Setup {
    topo: Topology,
    master: C4pMaster,
    jobs: Vec<Communicator>,
}

fn setup(clos: &ClosConfig, round: &mut Round) -> Setup {
    let t0 = Instant::now();
    let topo = Topology::build(clos);
    let t1 = Instant::now();
    let master = C4pMaster::new(&topo, C4pConfig::default()).with_parallel(ParallelPolicy::SERIAL);
    let t2 = Instant::now();
    let jobs = build_jobs(&topo, NODES);
    let t3 = Instant::now();
    round.setup_s.push((t3 - t0).as_secs_f64());
    for (name, span) in [
        ("topology.build_ms", t1 - t0),
        ("c4p.catalog_ms", t2 - t1),
        ("trainsim.place_ms", t3 - t2),
    ] {
        round.setup_layer_ms.entry(name).or_default().push(ms(span));
    }
    Setup { topo, master, jobs }
}

/// Runs one round: [`SETUPS`] set-ups, then [`ITERS`] iterations on the
/// last one, C4P observing every job's QP rates after each iteration.
pub fn round(seed: u64, traced: bool) -> Round {
    let clos = ClosConfig::pod_grouped_railed(NODES, 8);
    let mut round = Round {
        traced,
        ..Round::default()
    };
    // Only the last set-up is kept; earlier ones are dropped before the
    // next starts, so peak memory holds one.
    for _ in 1..SETUPS {
        drop(setup(&clos, &mut round));
    }
    let Setup {
        topo,
        mut master,
        jobs,
    } = setup(&clos, &mut round);
    let drain = DrainConfig {
        rate_noise: 0.10,
        cnp: Some(CnpModel::paper_default()),
        parallel: ParallelPolicy::SERIAL,
        solve_mode: SolveMode::TwoTier { epsilon: 0.01 },
        ..DrainConfig::default()
    };
    let mut rng = DetRng::seed_from(mix64(seed ^ 0x2116));
    let mut cache = PlanCache::new();
    for it in 0..ITERS {
        let requests: Vec<CollectiveRequest<'_>> = jobs
            .iter()
            .map(|c| benchmark_request(c, it as u64, drain.clone()))
            .collect();
        let (hits, misses, build_ms) = (cache.hits(), cache.misses(), cache.build_wall_ms());
        let mut op = Op {
            iterations: 1.0,
            ..Op::default()
        };
        let t = Instant::now();
        let results = if traced {
            let mut sel = TimedSelector::new(&mut master);
            let r = run_concurrent_cached(
                &topo,
                &requests,
                &mut sel,
                None,
                &mut rng,
                None,
                Some(&mut cache),
            );
            op.layer.insert("c4p.select_ms", ms(sel.busy));
            op.layer.insert("c4p.select_keys", sel.keys as f64);
            r
        } else {
            run_concurrent_cached(
                &topo,
                &requests,
                &mut master,
                None,
                &mut rng,
                None,
                Some(&mut cache),
            )
        };
        let t_observe = Instant::now();
        for r in &results {
            master.observe(&r.qp_outcomes);
        }
        let observe = t_observe.elapsed();
        op.host_s = t.elapsed().as_secs_f64();
        let plan_ms = cache.build_wall_ms() - build_ms;
        if traced {
            op.layer.insert("collectives.plan_build_ms", plan_ms);
            op.layer.insert("c4p.observe_ms", ms(observe));
            op.layer.insert("trainsim.iter_ms", op.host_s * 1e3);
            op.layer
                .insert("netsim.drain_ms", op.host_s * 1e3 - plan_ms - ms(observe));
        }
        op.sim
            .insert("collectives.plan_hits", (cache.hits() - hits) as f64);
        op.sim
            .insert("collectives.plan_misses", (cache.misses() - misses) as f64);
        let sim_s = results
            .iter()
            .map(|r| r.duration().map_or(f64::INFINITY, |d| d.as_secs_f64()))
            .fold(0.0, f64::max);
        op.sim.insert("sim_iter_ms", sim_s * 1e3);
        // One shared drain: every result carries the same drain report.
        let report = &results[0].report;
        op.sim
            .insert("netsim.congested_flows", report.congested_flows as f64);
        solver_counters(&mut op, &report.solver);
        // BF16 elements: two bytes each.
        let message = requests[0].count as f64 * 2.0;
        match check_rings(&results, jobs[0].nranks(), message, &clos) {
            Ok(busbw) => {
                op.sim.insert("trainsim.dp_busbw_gbps", busbw);
            }
            Err(e) => op.failure = Some(e),
        }
        round.ops.push(op);
    }
    round
}
