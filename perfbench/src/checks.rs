//! Output checks. Each expected value is computed here from the workload's
//! definition (message sizes, the hot-expert rule, link rates read off the
//! `ClosConfig`) or is a property the method must have; none is copied
//! from an earlier run's output.

use std::collections::BTreeMap;

use c4_collectives::CollectiveResult;
use c4_fleet::FleetReport;
use c4_telemetry::CollKind;
use c4_topology::ClosConfig;
use c4_trainsim::{HybridIterationReport, HybridSpec, OperationReport};

/// Relative slack for comparing a simulated rate or time with its analytic
/// limit: simulated instants are whole nanoseconds, which moves a
/// millisecond-scale phase's rate by up to ~1e-6.
const REL: f64 = 1e-6;

/// Bytes per BF16 element.
const BF16: f64 = 2.0;

/// Line rate of one GPU's NIC in Gbps: a dual-port NIC, both ports bonded.
pub fn nic_line_gbps(clos: &ClosConfig) -> f64 {
    2.0 * clos.port_gbps
}

/// Bytes destination `dst` of an `r`-rank all-to-all receives when every
/// source sends `msg` bytes split over the other ranks by weight, the hot
/// rank weighing `factor` and every other rank 1.
pub fn alltoall_recv_bytes(msg: f64, r: usize, hot: usize, factor: f64, dst: usize) -> f64 {
    let weight = |d: usize| if d == hot { factor } else { 1.0 };
    (0..r)
        .filter(|&s| s != dst)
        .map(|s| {
            let total: f64 = (0..r).filter(|&d| d != s).map(weight).sum();
            msg * weight(dst) / total
        })
        .sum()
}

/// Lower bound on one MoE iteration's simulated seconds: each phase takes
/// at least its busiest GPU's bytes over that GPU's fastest link, and the
/// phases run back to back.
///
/// * TP all-gather: `(tp−1)/tp · S` per GPU over NVLink.
/// * PP send/recv: `S` per rail stream over the NIC.
/// * EP all-to-all: the hot expert's received bytes over its NIC.
/// * DP allreduce: `2(n−1)/n · S` per rail stream over the NIC, with `n`
///   nodes per stage.
pub fn moe_min_iteration_s(
    spec: &HybridSpec,
    nodes_per_stage: usize,
    hot: usize,
    factor: f64,
    clos: &ClosConfig,
) -> f64 {
    let line = nic_line_gbps(clos) * 1e9 / 8.0;
    let nvlink = clos.nvlink_gbps * 1e9 / 8.0;
    let tp = spec.tp as f64;
    let n = nodes_per_stage as f64;
    let tp_s = spec.tp_elems as f64 * BF16 * (tp - 1.0) / tp / nvlink;
    let pp_s = spec.pp_elems as f64 * BF16 / line;
    let ep_s = alltoall_recv_bytes(spec.ep_elems as f64 * BF16, spec.ep, hot, factor, hot) / line;
    let dp_s = spec.dp_elems as f64 * BF16 * 2.0 * (n - 1.0) / n / line;
    tp_s + pp_s + ep_s + dp_s
}

/// Checks one MoE iteration: every phase completed, TP bus bandwidth is
/// within NVLink's rate and DP bus bandwidth within the NIC line rate,
/// every EP rank received its skewed share of every source's message, and
/// the iteration took no less than the analytic minimum.
pub fn check_moe(
    r: &HybridIterationReport,
    spec: &HybridSpec,
    nodes_per_stage: usize,
    hot: usize,
    factor: f64,
    clos: &ClosConfig,
) -> Result<(), String> {
    if r.hung {
        return Err("iteration hung".into());
    }
    let kinds = [
        CollKind::AllGather,
        CollKind::SendRecv,
        CollKind::AllToAll,
        CollKind::AllReduce,
    ];
    for kind in kinds {
        match r.phase(kind) {
            Some(p) if !p.hung && p.busbw_mean_gbps.is_some_and(|b| b > 0.0) => {}
            _ => return Err(format!("{kind} phase did not complete")),
        }
    }
    let busbw = |k| r.phase(k).and_then(|p| p.busbw_mean_gbps).unwrap_or(0.0);
    let tp = busbw(CollKind::AllGather);
    if tp > clos.nvlink_gbps * (1.0 + REL) {
        return Err(format!(
            "TP busbw {tp} Gbps exceeds NVLink {}",
            clos.nvlink_gbps
        ));
    }
    let dp = busbw(CollKind::AllReduce);
    if dp > nic_line_gbps(clos) * (1.0 + REL) {
        return Err(format!(
            "DP busbw {dp} Gbps exceeds the NIC line rate {}",
            nic_line_gbps(clos)
        ));
    }
    let msg = spec.ep_elems as f64 * BF16;
    for (g, recv) in r.ep_recv_bytes.iter().enumerate() {
        if recv.len() != spec.ep {
            return Err(format!("EP group {g} has {} ranks", recv.len()));
        }
        for (dst, &got) in recv.iter().enumerate() {
            let want = alltoall_recv_bytes(msg, spec.ep, hot, factor, dst);
            // Each pair's share rounds to whole bytes.
            if (got as f64 - want).abs() > spec.ep as f64 {
                return Err(format!(
                    "EP group {g} rank {dst} received {got} B, expected {want:.0} B"
                ));
            }
        }
    }
    let min_s = moe_min_iteration_s(spec, nodes_per_stage, hot, factor, clos);
    let sim_s = r.total.as_secs_f64();
    if sim_s < min_s * (1.0 - REL) {
        return Err(format!(
            "iteration took {sim_s} s, below the analytic minimum {min_s} s"
        ));
    }
    Ok(())
}

/// Bus-bandwidth ceiling of ring traffic whose every boundary crosses the
/// spine: the NIC line rate, cut by the leaf's uplink:downlink capacity
/// ratio, and never above NVLink (the intra-node ring hops).
pub fn spine_share_ceiling_gbps(clos: &ClosConfig) -> f64 {
    let share = (clos.uplink_gbps_per_leaf() / clos.downlink_gbps_per_leaf()).min(1.0);
    (nic_line_gbps(clos) * share).min(clos.nvlink_gbps)
}

/// C4P's ring bus bandwidth must reach at least this share of the spine
/// ceiling: DCQCN rate noise and CNP back-off cost some of it, but a
/// balanced allocation leaves no spine link oversubscribed.
pub const RING_MIN_SHARE: f64 = 0.75;

/// Checks one iteration of concurrent allreduce rings: every flow
/// completed, every ring edge carried `2(n−1)/n · S` bytes (an NVLink hop
/// as one flow, a rail stream split over its QPs), and the mean bus
/// bandwidth lies between [`RING_MIN_SHARE`] of the spine ceiling and the
/// ceiling. Returns the mean bus bandwidth.
pub fn check_rings(
    results: &[CollectiveResult],
    nranks: usize,
    message_bytes: f64,
    clos: &ClosConfig,
) -> Result<f64, String> {
    let n = nranks as f64;
    let edge = 2.0 * (n - 1.0) / n * message_bytes;
    let mut busbw = 0.0;
    for res in results {
        if res.hung() {
            return Err(format!("job {} hung", res.comm));
        }
        let all = res.intra_outcomes.iter().chain(&res.qp_outcomes);
        if let Some(o) = all.clone().find(|o| !o.completed()) {
            return Err(format!(
                "job {} flow {:?} did not complete",
                res.comm, o.key
            ));
        }
        for o in &res.intra_outcomes {
            if (o.bytes.as_bytes() as f64 - edge).abs() > 1.0 {
                return Err(format!(
                    "job {} NVLink hop carried {} B, expected {edge:.0} B",
                    res.comm,
                    o.bytes.as_bytes()
                ));
            }
        }
        let mut streams: BTreeMap<(usize, usize, u16), (f64, usize)> = BTreeMap::new();
        for o in &res.qp_outcomes {
            let k = (o.key.src_gpu.index(), o.key.dst_gpu.index(), o.key.channel);
            let s = streams.entry(k).or_default();
            s.0 += o.bytes.as_bytes() as f64;
            s.1 += 1;
        }
        if streams.is_empty() {
            return Err(format!("job {} has no rail streams", res.comm));
        }
        for ((src, dst, _), (bytes, qps)) in &streams {
            if (bytes - edge).abs() > *qps as f64 {
                return Err(format!(
                    "job {} stream {src}->{dst} carried {bytes} B, expected {edge:.0} B",
                    res.comm
                ));
            }
        }
        busbw += res.busbw_gbps().unwrap_or(0.0);
    }
    let mean = busbw / results.len().max(1) as f64;
    let ceiling = spine_share_ceiling_gbps(clos);
    if mean > ceiling * (1.0 + REL) || mean < RING_MIN_SHARE * ceiling {
        return Err(format!(
            "mean busbw {mean} Gbps outside [{}, {ceiling}]",
            RING_MIN_SHARE * ceiling
        ));
    }
    Ok(mean)
}

/// Largest relative gap allowed between the soak's mean downtime per
/// recovery and the closed-form model's mean downtime per crash.
pub const RECONCILE_TOLERANCE: f64 = 0.5;

/// A property a fleet soak broke.
#[derive(Debug, Clone, PartialEq)]
pub enum SoakFault {
    /// This many cached plans route through a down link.
    StalePlanRoutes(u64),
    /// Mean downtime per recovery over the model's mean per crash, outside
    /// `1 ± RECONCILE_TOLERANCE`.
    Reconciliation(f64),
    /// This many jobs were charged more productive time plus downtime than
    /// they were alive.
    Overcharged(u64),
}

impl SoakFault {
    /// Whether this is the fleet controller's known accounting fault: its
    /// soaks overcharge at least one job on every seed tried, so it fails
    /// every soak alike and is counted without making the run incorrect.
    pub fn is_known(&self) -> bool {
        matches!(self, SoakFault::Overcharged(_))
    }
}

impl std::fmt::Display for SoakFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoakFault::StalePlanRoutes(n) => write!(f, "{n} cached plans route through down links"),
            SoakFault::Reconciliation(r) => write!(
                f,
                "downtime per recovery is {r} times the closed-form model's"
            ),
            SoakFault::Overcharged(n) => write!(
                f,
                "{n} jobs charged more productive time plus downtime than they were alive"
            ),
        }
    }
}

/// Checks one fleet soak and returns every property it broke: no cached
/// plan routes through a down link; the mean downtime per recovery agrees
/// with the matched closed-form operation model within
/// [`RECONCILE_TOLERANCE`] (vacuous when either side saw no event); and no
/// job is charged more productive time plus downtime than it was alive.
pub fn check_soak(report: &FleetReport, model: &OperationReport) -> Result<(), Vec<SoakFault>> {
    let mut faults = Vec::new();
    if report.stale_plan_routes != 0 {
        faults.push(SoakFault::StalePlanRoutes(report.stale_plan_routes));
    }
    let rec = report.reconcile(model);
    if !rec.per_event_within(RECONCILE_TOLERANCE) {
        faults.push(SoakFault::Reconciliation(
            rec.per_event_ratio().unwrap_or(f64::NAN),
        ));
    }
    let over = overcharged_jobs(report);
    if over != 0 {
        faults.push(SoakFault::Overcharged(over));
    }
    if faults.is_empty() {
        Ok(())
    } else {
        Err(faults)
    }
}

/// Jobs charged more productive time plus downtime than they were alive.
/// A job cannot be productive and down at once, so this must be 0.
pub fn overcharged_jobs(report: &FleetReport) -> u64 {
    report
        .jobs
        .iter()
        .filter(|j| {
            let a = &j.accounting;
            a.productive + a.downtime > a.wall(report.ended)
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    //! Each check passes on a real (scaled-down) result and rejects the
    //! same result with one property broken.

    use super::*;
    use c4::scenarios::{benchmark_request, fleet::matched_operation};
    use c4_collectives::{run_concurrent_cached, EpSkew, PlanCache};
    use c4_fleet::{FleetConfig, FleetController};
    use c4_netsim::{CnpModel, DrainConfig};
    use c4_simcore::{ByteSize, DetRng, ParallelPolicy, SimDuration};
    use c4_topology::{NodeId, Topology};
    use c4_traffic::{C4pConfig, C4pMaster};
    use c4_trainsim::{simulate_operation, HybridJob};

    fn noisy_drain() -> DrainConfig {
        DrainConfig {
            rate_noise: 0.10,
            cnp: Some(CnpModel::paper_default()),
            parallel: ParallelPolicy::SERIAL,
            ..DrainConfig::default()
        }
    }

    /// A 256-GPU TP8/PP2/EP8 iteration with 64× smaller messages.
    fn moe_iteration() -> (HybridIterationReport, HybridSpec, ClosConfig) {
        let clos = ClosConfig::pod_grouped_railed(32, 8);
        let topo = Topology::build(&clos);
        let mut spec = HybridSpec::moe(8, 2, 8);
        spec.tp_elems /= 64;
        spec.pp_elems /= 64;
        spec.dp_elems /= 64;
        spec.ep_elems /= 64;
        let nodes = (0..2)
            .flat_map(|s| (0..16).map(move |k| NodeId::from_index(s + 2 * k)))
            .collect();
        let mut job = HybridJob::new(&topo, spec.clone(), nodes, 1).expect("shape places");
        job.drain = noisy_drain();
        job.set_ep_skew(EpSkew::hot(3, 4.0));
        let mut master = C4pMaster::new(&topo, C4pConfig::default());
        let r = job.run_iteration(&topo, &mut master, None, &mut DetRng::seed_from(5));
        (r, spec, clos)
    }

    #[test]
    fn moe_check_rejects_each_broken_property() {
        let (r, spec, clos) = moe_iteration();
        let check = |r: &HybridIterationReport| check_moe(r, &spec, 16, 3, 4.0, &clos);
        assert_eq!(check(&r), Ok(()));

        let mut bad = r.clone();
        bad.hung = true;
        assert!(check(&bad).is_err(), "hang");

        let mut bad = r.clone();
        bad.phases.retain(|p| p.kind != CollKind::SendRecv);
        assert!(check(&bad).is_err(), "missing phase");

        let set_busbw = |kind, gbps| {
            let mut bad = r.clone();
            for p in bad.phases.iter_mut().filter(|p| p.kind == kind) {
                p.busbw_mean_gbps = Some(gbps);
            }
            bad
        };
        let tp_over = set_busbw(CollKind::AllGather, clos.nvlink_gbps * 1.01);
        assert!(check(&tp_over).is_err(), "TP above NVLink");
        let dp_over = set_busbw(CollKind::AllReduce, nic_line_gbps(&clos) * 1.01);
        assert!(check(&dp_over).is_err(), "DP above line rate");

        let mut bad = r.clone();
        bad.ep_recv_bytes[0][3] -= 1000;
        assert!(check(&bad).is_err(), "EP share");

        let mut bad = r.clone();
        let min = moe_min_iteration_s(&spec, 16, 3, 4.0, &clos);
        bad.total = SimDuration::from_secs_f64(min * 0.9);
        assert!(check(&bad).is_err(), "faster than the analytic minimum");
    }

    #[test]
    fn hot_expert_receives_its_weighted_share() {
        // 8 ranks, hot weight 4: each source sends 4/10 of its message to
        // the hot rank (7 sources), and a cold rank gets 1/10 from the 6
        // sources whose other ranks include the hot one plus 1/7 from it.
        let hot = alltoall_recv_bytes(1.0, 8, 3, 4.0, 3);
        assert!((hot - 7.0 * 0.4).abs() < 1e-12);
        let cold = alltoall_recv_bytes(1.0, 8, 3, 4.0, 0);
        assert!((cold - (6.0 * 0.1 + 1.0 / 7.0)).abs() < 1e-12);
        // Every source's message is delivered in full.
        let total: f64 = (0..8).map(|d| alltoall_recv_bytes(1.0, 8, 3, 4.0, d)).sum();
        assert!((total - 8.0).abs() < 1e-12);
    }

    /// One iteration of the eight interleaved rings on 512 GPUs with 16×
    /// smaller messages.
    fn ring_iteration() -> (Vec<CollectiveResult>, usize, f64, ClosConfig) {
        let clos = ClosConfig::pod_grouped_railed(64, 8);
        let topo = Topology::build(&clos);
        let jobs = crate::rings::build_jobs(&topo, 64);
        let mut master = C4pMaster::new(&topo, C4pConfig::default());
        let reqs: Vec<_> = jobs
            .iter()
            .map(|c| {
                let mut r = benchmark_request(c, 0, noisy_drain());
                r.count /= 16;
                r
            })
            .collect();
        let message = reqs[0].count as f64 * BF16;
        let mut cache = PlanCache::new();
        let mut rng = DetRng::seed_from(9);
        let results = run_concurrent_cached(
            &topo,
            &reqs,
            &mut master,
            None,
            &mut rng,
            None,
            Some(&mut cache),
        );
        (results, jobs[0].nranks(), message, clos)
    }

    #[test]
    fn ring_check_rejects_each_broken_property() {
        let (results, n, message, clos) = ring_iteration();
        let check = |r: &[CollectiveResult]| check_rings(r, n, message, &clos);
        let busbw = check(&results).expect("healthy rings pass");
        assert!(busbw <= spine_share_ceiling_gbps(&clos));

        let mut bad = results.clone();
        bad[2].qp_outcomes[0].finish = None;
        assert!(check(&bad).is_err(), "incomplete flow");

        let mut bad = results.clone();
        bad[1].intra_outcomes[0].bytes =
            ByteSize::from_bytes(bad[1].intra_outcomes[0].bytes.as_bytes() + 64);
        assert!(check(&bad).is_err(), "short NVLink hop");

        let mut bad = results.clone();
        bad[0].qp_outcomes[0].bytes =
            ByteSize::from_bytes(bad[0].qp_outcomes[0].bytes.as_bytes() + 64);
        assert!(check(&bad).is_err(), "rail stream bytes");

        let stretch = |k: f64| {
            let mut bad = results.clone();
            for r in &mut bad {
                let d = r.duration().expect("completed").as_secs_f64();
                r.finished = Some(r.started + SimDuration::from_secs_f64(d * k));
            }
            bad
        };
        assert!(check(&stretch(0.5)).is_err(), "busbw above the ceiling");
        assert!(check(&stretch(2.0)).is_err(), "busbw below the floor");
    }

    #[test]
    fn soak_checks_reject_each_broken_property() {
        let cfg = FleetConfig {
            parallel: ParallelPolicy::SERIAL,
            ..FleetConfig::smoke(3)
        };
        let mut report = FleetController::new(cfg.clone()).run();
        // The controller overcharges some jobs (the fault this check
        // exists for), so the healthy baseline first caps each job's
        // charges at the time it was alive.
        let ended = report.ended;
        for a in report.jobs.iter_mut().map(|j| &mut j.accounting) {
            let wall = a.wall(ended);
            a.productive = a.productive.min(wall);
            a.downtime = a.downtime.min(wall.saturating_sub(a.productive));
        }
        let model = simulate_operation(&matched_operation(&cfg), cfg.seed);
        assert!(report.total_recoveries() > 0 && !model.crashes.is_empty());
        assert_eq!(check_soak(&report, &model), Ok(()));

        let mut bad = report.clone();
        bad.stale_plan_routes = 1;
        assert_eq!(
            check_soak(&bad, &model),
            Err(vec![SoakFault::StalePlanRoutes(1)])
        );

        let mut slow = model.clone();
        for c in &mut slow.crashes {
            c.reinit = c.reinit * 10.0;
        }
        match check_soak(&report, &slow) {
            Err(f) => assert!(matches!(f[..], [SoakFault::Reconciliation(_)])),
            Ok(()) => panic!("reconciliation passed against a 10× slower model"),
        }

        let mut bad = report.clone();
        let ended = bad.ended;
        let a = &mut bad.jobs[0].accounting;
        a.downtime = a.wall(ended).saturating_sub(a.productive) + SimDuration::from_secs_f64(1.0);
        let faults = check_soak(&bad, &model).expect_err("overcharged job");
        assert_eq!(faults, vec![SoakFault::Overcharged(1)]);
        assert!(faults[0].is_known());
    }
}
