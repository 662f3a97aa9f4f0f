//! `moe-512-exact`: a TP8/PP8/EP8 MoE hybrid job on a 512-GPU railed pod,
//! C4P paths, DCQCN noise plus CNP, a rotating 4× hot expert and the exact
//! incremental solver.

use std::time::Instant;

use c4_collectives::EpSkew;
use c4_netsim::{mix64, CnpModel, DrainConfig, SolveMode};
use c4_simcore::{DetRng, ParallelPolicy};
use c4_telemetry::CollKind;
use c4_topology::{ClosConfig, NodeId, Topology};
use c4_traffic::{C4pConfig, C4pMaster};
use c4_trainsim::{HybridJob, HybridSpec};

use crate::checks::check_moe;
use crate::round::{Op, Round};
use crate::timed::TimedSelector;
use crate::{ms, solver_counters};

/// Nodes of the pod (8 GPUs each).
const NODES: usize = 64;
/// Pipeline stages.
const PP: usize = 8;
/// Hot-expert byte skew.
const HOT_FACTOR: f64 = 4.0;
/// Set-up repetitions per round (a set-up is well under a millisecond).
const SETUPS: usize = 64;
/// Training iterations per round: a cold one that builds every plan, then
/// warm ones served from the plan cache.
pub const ITERS: usize = 2;

/// Stage-major node order: stage `s` owns nodes `s, s+PP, s+2·PP, …`, so
/// adjacent stages sit on adjacent node ids and every DP/EP ring crosses
/// the spine.
fn stage_major_nodes() -> Vec<NodeId> {
    (0..PP)
        .flat_map(|s| (0..NODES / PP).map(move |k| NodeId::from_index(s + PP * k)))
        .collect()
}

struct Setup {
    topo: Topology,
    master: C4pMaster,
    job: HybridJob,
}

fn setup(clos: &ClosConfig, round: &mut Round) -> Setup {
    let t0 = Instant::now();
    let topo = Topology::build(clos);
    let t1 = Instant::now();
    let master = C4pMaster::new(&topo, C4pConfig::default()).with_parallel(ParallelPolicy::SERIAL);
    let t2 = Instant::now();
    let mut job = HybridJob::new(&topo, HybridSpec::moe(8, PP, 8), stage_major_nodes(), 1)
        .expect("TP8/PP8/EP8 places on 64 nodes");
    job.drain = DrainConfig {
        rate_noise: 0.10,
        cnp: Some(CnpModel::paper_default()),
        parallel: ParallelPolicy::SERIAL,
        solve_mode: SolveMode::Exact,
        ..DrainConfig::default()
    };
    let t3 = Instant::now();
    round.setup_s.push((t3 - t0).as_secs_f64());
    for (name, span) in [
        ("topology.build_ms", t1 - t0),
        ("c4p.catalog_ms", t2 - t1),
        ("trainsim.place_ms", t3 - t2),
    ] {
        round.setup_layer_ms.entry(name).or_default().push(ms(span));
    }
    Setup { topo, master, job }
}

/// Runs one round: [`SETUPS`] set-ups, then [`ITERS`] iterations on the
/// last one.
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
        mut job,
    } = setup(&clos, &mut round);
    let spec = job.spec().clone();
    let mut rng = DetRng::seed_from(mix64(seed ^ 0x4D0E));
    let offset = rng.index(spec.ep);
    for it in 0..ITERS {
        let hot = (offset + it) % spec.ep;
        job.set_ep_skew(EpSkew::hot(hot as u32, HOT_FACTOR));
        let (hits, misses, build_ms) = {
            let c = job.plan_cache();
            (c.hits(), c.misses(), c.build_wall_ms())
        };
        let mut op = Op {
            iterations: 1.0,
            ..Op::default()
        };
        let t = Instant::now();
        let r = if traced {
            let mut sel = TimedSelector::new(&mut master);
            let r = job.run_iteration(&topo, &mut sel, None, &mut rng);
            op.layer.insert("c4p.select_ms", ms(sel.busy));
            op.layer.insert("c4p.select_keys", sel.keys as f64);
            r
        } else {
            job.run_iteration(&topo, &mut master, None, &mut rng)
        };
        op.host_s = t.elapsed().as_secs_f64();
        let c = job.plan_cache();
        let plan_ms = c.build_wall_ms() - build_ms;
        if traced {
            op.layer.insert("collectives.plan_build_ms", plan_ms);
            op.layer.insert("trainsim.iter_ms", op.host_s * 1e3);
            op.layer
                .insert("netsim.drain_ms", op.host_s * 1e3 - plan_ms);
        }
        op.sim
            .insert("collectives.plan_hits", (c.hits() - hits) as f64);
        op.sim
            .insert("collectives.plan_misses", (c.misses() - misses) as f64);
        op.sim.insert("sim_iter_ms", r.total.as_secs_f64() * 1e3);
        let busbw = |k| r.phase(k).and_then(|p| p.busbw_mean_gbps).unwrap_or(0.0);
        op.sim
            .insert("trainsim.ep_busbw_gbps", busbw(CollKind::AllToAll));
        op.sim
            .insert("trainsim.dp_busbw_gbps", busbw(CollKind::AllReduce));
        solver_counters(&mut op, &r.solver);
        op.failure = check_moe(&r, &spec, NODES / PP, hot, HOT_FACTOR, &clos).err();
        round.ops.push(op);
    }
    round
}
