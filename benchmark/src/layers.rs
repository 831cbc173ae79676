//! The per-crate ledger of a traced run.
//!
//! Child calls are invisible from outside a crate, so each layer is
//! measured by a *replica*: the harness calls the constituent public
//! functions itself, in the order the parent uses them, each under a
//! span. The probes are the same whatever workload the run measures
//! (only `trace_overhead_ratio` is the workload's own), so one metric
//! name means one thing in every traced run.

use crate::json::{self, Metric};
use crate::serve;
use crate::sim::{self, SimOut};
use crate::spec;
use crate::stats;
use crate::trace::{Kind, Span, Tracer, NO_PARENT};
use crate::workload::{Plan, Workload, THREADS};
use sc_dataset::population::PopulationModel;
use sc_emu::churn::{mix64, ue_unit};
use sc_emu::ext_chaos;
use sc_geo::cells::CellGrid;
use sc_netsim::chaos::FailureTimeline;
use sc_netsim::des::EventQueue;
use sc_netsim::failure::LossProcess;
use sc_netsim::isl::{IslConfig, IslNetwork};
use sc_netsim::sim::{ProcedureSim, SimConfig, SimStep};
use sc_obs::Recorder;
use sc_orbit::{
    ConstellationConfig, CoverageModel, GroundStationSet, IdealPropagator, IndexedSnapshot, SatId,
};
use spacecore::recovery::RecoveryPlan;
use spacecore::shard::{cell_index, CellLedger, ShardMap};
use spacecore::solutions::SolutionKind;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Shared state of the probes: the ledger's tracer, the span they all
/// hang under, the values found so far, and operations that failed a
/// self-check.
struct Ledger<'p> {
    plan: &'p Plan,
    tr: Tracer,
    root: u32,
    values: BTreeMap<&'static str, f64>,
    failed: u64,
}

impl Ledger<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Total time under `kind`, divided by `n` operations, ns.
    fn per_op_ns(&self, kind: Kind, n: usize) -> f64 {
        self.tr.total_ns(kind) as f64 / n as f64
    }

    /// `n` in a full run, `quick` in a smoke run.
    fn sized(&self, n: usize, quick: usize) -> usize {
        if self.plan.quick {
            quick
        } else {
            n
        }
    }
}

/// sc-dataset, sc-geo, `spacecore::shard`: the placement loop at the
/// head of both soaks, phase by phase over the same population.
fn placement(l: &mut Ledger) {
    let n = l.sized(1_000_000, 20_000);
    let grid = CellGrid::new(53f64.to_radians(), 72, 22);
    let shard_map = ShardMap::new(grid.cell_count(), l.sized(64, 8));
    let pop = PopulationModel::world_bank_like();
    let seed = l.plan.seed;

    let open = l.tr.open(Kind::PlacementReplica, l.root, 0, true);
    let me = open.id();
    let points =
        l.tr.span(Kind::SampleUes, me, 0, || pop.sample_ues(n, seed));
    let cells: Vec<_> = l.tr.span(Kind::CellOfPoint, me, 0, || {
        points.iter().map(|p| grid.cell_of_point(p)).collect()
    });
    let index: Vec<usize> = l.tr.span(Kind::CellIndex, me, 0, || {
        cells.iter().map(|c| cell_index(&grid, *c)).collect()
    });
    let regions: Vec<_> = l.tr.span(Kind::RegionOf, me, 0, || {
        points.iter().map(|p| pop.region_of(p)).collect()
    });
    let per_shard = l.tr.span(Kind::ShardOf, me, 0, || {
        let mut count = vec![0u64; shard_map.shards()];
        for i in &index {
            count[shard_map.shard_of(*i)] += 1;
        }
        count
    });
    black_box(regions);
    let total_ns = l.tr.close(open);

    l.put("dataset.sample_ues_ns", l.per_op_ns(Kind::SampleUes, n));
    l.put("dataset.region_of_ns", l.per_op_ns(Kind::RegionOf, n));
    l.put("geo.cell_of_point_ns", l.per_op_ns(Kind::CellOfPoint, n));
    l.put("geo.cell_index_ns", l.per_op_ns(Kind::CellIndex, n));
    l.put("emu.placement_replica_ms", total_ns as f64 / 1e6);
    let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
    l.put(
        "spacecore.shard_imbalance",
        max * per_shard.len() as f64 / n as f64,
    );
}

/// sc-emu and sc-obs: each simulator at 1 and 2 threads, and the soak
/// once more with telemetry on.
fn engines(l: &mut Ledger) {
    fn run(
        l: &mut Ledger,
        kind: Kind,
        w: Workload,
        threads: usize,
        obs: &Recorder,
    ) -> (SimOut, f64) {
        let open = l.tr.open(kind, l.root, threads as u32, true);
        let out = sim::run_once(w, threads, obs, l.plan);
        let ns = l.tr.close(open);
        (out, ns as f64 / 1e9)
    }
    /// Wall seconds at 1 thread and at 2; the outputs must agree.
    fn speedup(l: &mut Ledger, kind: Kind, w: Workload) -> (f64, f64) {
        let off = Recorder::disabled();
        let (serial, wall_1t) = run(l, kind, w, 1, &off);
        let (parallel, wall_2t) = run(l, kind, w, THREADS, &off);
        if serial.json != parallel.json {
            l.failed += parallel.ops;
        }
        (wall_1t, wall_2t)
    }

    let (soak_1t, soak_2t) = speedup(l, Kind::Soak, Workload::Soak);
    l.put("emu.soak_wall_1t_ms", soak_1t * 1e3);
    l.put("emu.soak_speedup_2t", soak_1t / soak_2t);
    l.put(
        "emu.placement_share",
        l.values["emu.placement_replica_ms"] / (soak_1t * 1e3),
    );
    let (a, b) = speedup(l, Kind::ChaosSoak, Workload::ChaosSoak);
    l.put("emu.chaos_soak_speedup_2t", a / b);
    let (a, b) = speedup(l, Kind::ChaosSweep, Workload::ChaosSweep);
    l.put("emu.chaos_sweep_speedup_2t", a / b);

    let on = Recorder::new();
    let (_, soak_obs) = run(l, Kind::Soak, Workload::Soak, THREADS, &on);
    l.put("obs.soak_overhead_ratio", soak_obs / soak_2t);
    let snap = on.snapshot();
    l.put("obs.events_dropped", snap.events_dropped as f64);
    l.put("obs.spans_dropped", snap.spans_dropped as f64);
    l.put("obs.series_dropped", snap.series.dropped() as f64);
    let doc =
        l.tr.span(Kind::ObsSnapshot, l.root, 0, || snap.to_json("soak"));
    black_box(doc);
    l.put(
        "obs.snapshot_json_ms",
        l.tr.total_ns(Kind::ObsSnapshot) as f64 / 1e6,
    );

    let calls = l.sized(200, 20);
    for i in 0..calls {
        let items: Vec<u64> = (0..64).collect();
        let out = l.tr.span(Kind::ParallelMap, l.root, i as u32, || {
            sc_emu::engine::parallel_map_with(THREADS, items, mix64)
        });
        black_box(out);
    }
    l.put(
        "emu.parallel_map_overhead_us",
        l.per_op_ns(Kind::ParallelMap, calls) / 1e3,
    );
}

/// sc-obs: the cost of one recorded sample of each kind.
fn telemetry(l: &mut Ledger) {
    let n = l.sized(1_000_000, 50_000);
    let rec = Recorder::new();
    l.tr.span(Kind::ObsCounter, l.root, 0, || {
        for _ in 0..n {
            rec.inc("scbench.counter", 1);
        }
    });
    l.tr.span(Kind::ObsHist, l.root, 0, || {
        for i in 0..n {
            rec.observe("scbench.hist", (i % 4096) as f64);
        }
    });
    l.tr.span(Kind::ObsSeries, l.root, 0, || {
        for i in 0..n {
            rec.series_inc("scbench.series", (i % 150) as f64, 1);
        }
    });
    black_box(rec.snapshot());
    l.put("obs.counter_inc_ns", l.per_op_ns(Kind::ObsCounter, n));
    l.put("obs.hist_observe_ns", l.per_op_ns(Kind::ObsHist, n));
    l.put("obs.series_add_ns", l.per_op_ns(Kind::ObsSeries, n));
}

/// sc-netsim DES: schedule and `drain_until` in 1 s batches, with
/// follow-ups at least one batch ahead, as the soaks drive it.
fn des(l: &mut Ledger) {
    let live = l.sized(200_000, 10_000) as u64;
    let horizon_s = 30.0;
    let seed = l.plan.seed;
    let processed = l.tr.span(Kind::DesEvents, l.root, 0, || {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..live {
            q.schedule(ue_unit(seed, i as u32, 0), i as u32);
        }
        let mut batch = Vec::new();
        let mut processed = 0u64;
        let mut t = 1.0;
        while t <= horizon_s {
            processed += q.drain_until(t, &mut batch) as u64;
            for ev in batch.drain(..) {
                let delay = 1.0 + 9.0 * ue_unit(seed, ev.event, processed as u32);
                q.schedule(ev.time + delay, ev.event);
            }
            t += 1.0;
        }
        processed
    });
    l.put(
        "netsim.des_event_ns",
        l.per_op_ns(Kind::DesEvents, processed as usize),
    );
}

/// `spacecore::shard::CellLedger`: one connect or release.
fn cell_ledger(l: &mut Ledger) {
    let n = l.sized(1_000_000, 50_000);
    let cells = 1584;
    l.tr.span(Kind::LedgerOp, l.root, 0, || {
        let mut ledger = CellLedger::new(cells, 0.0, 150.0);
        for i in 0..n / 2 {
            let cell = (mix64(i as u64) % cells as u64) as usize;
            let now = 150.0 * i as f64 / n as f64;
            ledger.connect(cell, now);
            ledger.release(cell, now + 1e-3);
        }
        ledger.finish();
        black_box(ledger.busy_us());
    });
    l.put("spacecore.ledger_op_ns", l.per_op_ns(Kind::LedgerOp, n));
}

/// The exchange of a recovery plan as network legs, as `ext_chaos`
/// lays it out: local plans stay on the new serving satellite,
/// home-routed ones alternate between it and the gateway.
fn recovery_steps(plan: &RecoveryPlan, serving: usize, gateway: usize) -> Vec<SimStep> {
    (0..plan.messages)
        .map(|i| {
            let (from, to) = match (plan.local, i % 2) {
                (true, _) => (serving, serving),
                (false, 0) => (serving, gateway),
                (false, _) => (gateway, serving),
            };
            SimStep {
                label: "m",
                from,
                to,
            }
        })
        .collect()
}

/// sc-orbit and sc-netsim: what `ext_chaos::run_with` does before and
/// inside one cell — snapshot, ISL graph, failure timeline, routing
/// around it, and the local and home-routed recovery replays.
fn sweep(l: &mut Ledger) {
    let cfg = ConstellationConfig::starlink();
    let prop = IdealPropagator::new(cfg);
    let stations = GroundStationSet::starlink_like();
    let seed = l.plan.seed;
    let off = Recorder::disabled();

    let open = l.tr.open(Kind::SweepReplica, l.root, 0, true);
    let me = open.id();
    let snapshot = l.tr.span(Kind::SnapshotBuild, me, 0, || {
        IndexedSnapshot::build(&prop, 0.0)
    });
    let coverage = CoverageModel::new(&prop);
    let lookups = l.sized(20_000, 2_000);
    let points = PopulationModel::world_bank_like().sample_ues(lookups, seed);
    let served = l.tr.span(Kind::ServingLookup, me, 0, || {
        points
            .iter()
            .filter(|p| coverage.serving_from_indexed(&snapshot, p).is_some())
            .count()
    });
    black_box(served);
    let net = l.tr.span(Kind::IslBuild, me, 0, || {
        IslNetwork::build(&prop, &stations, 0.0, IslConfig::default())
    });

    let old_serving = net.sat_node(SatId::new(10, 5));
    let serving = net.sat_node(SatId::new(10, 6));
    let gateway = net.ground_node(0);
    let local = recovery_steps(
        &RecoveryPlan::for_solution(SolutionKind::SpaceCore),
        serving,
        gateway,
    );
    let home = recovery_steps(
        &RecoveryPlan::for_solution(SolutionKind::FiveGNtn),
        serving,
        gateway,
    );
    let sim_cfg = SimConfig {
        rto_ms: 400.0,
        max_attempts: 8,
        backoff_factor: 2.0,
        rto_cap_ms: 3_200.0,
        retry_on_partition: true,
        total_deadline_ms: ext_chaos::DEADLINE_MS,
        loss_per_hop: true,
        ..SimConfig::default()
    };
    let counts = Recorder::new();
    let runs = ext_chaos::RUNS as u32;
    for run in 0..runs {
        let timeline = l.tr.span(Kind::TimelineBuild, me, run, || {
            FailureTimeline::random_crashes(
                net.num_sats(),
                0.05,
                5_000.0,
                Some(500.0),
                seed ^ (run as u64 * 7 + 1),
            )
            .without_node(serving)
            .crash(0.0, old_serving)
            .loss_burst(0.0, 1_500.0, 0.35)
            .with_seed(seed ^ run as u64)
        });
        let mut cursor = timeline.cursor();
        cursor.advance_to(2_500.0, &off);
        let path = l.tr.span(Kind::PathAvoiding, me, run, || {
            net.graph().shortest_path_avoiding(
                serving,
                gateway,
                |n| cursor.is_dead(n),
                |a, b| cursor.link_down(a, b),
            )
        });
        black_box(path);
        for (kind, steps) in [(Kind::ProcsimLocal, &local), (Kind::ProcsimHome, &home)] {
            let sim = ProcedureSim::with_timeline(net.graph(), &timeline, sim_cfg.clone())
                .with_recorder(counts.clone());
            let mut loss = LossProcess::new(0.005, seed ^ (run as u64 * 13 + 1));
            let outcome = l.tr.span(kind, me, run, || sim.run(steps, &mut loss));
            black_box(outcome);
        }
    }
    l.tr.close(open);

    let n = runs as usize;
    l.put(
        "orbit.snapshot_build_ms",
        l.tr.total_ns(Kind::SnapshotBuild) as f64 / 1e6,
    );
    l.put(
        "orbit.serving_lookup_ns",
        l.per_op_ns(Kind::ServingLookup, lookups),
    );
    l.put(
        "netsim.isl_build_ms",
        l.tr.total_ns(Kind::IslBuild) as f64 / 1e6,
    );
    l.put(
        "netsim.timeline_build_us",
        l.per_op_ns(Kind::TimelineBuild, n) / 1e3,
    );
    l.put(
        "netsim.path_avoiding_us",
        l.per_op_ns(Kind::PathAvoiding, n) / 1e3,
    );
    l.put(
        "netsim.procsim_local_us",
        l.per_op_ns(Kind::ProcsimLocal, n) / 1e3,
    );
    l.put(
        "netsim.procsim_home_us",
        l.per_op_ns(Kind::ProcsimHome, n) / 1e3,
    );
    let snap = counts.snapshot();
    l.put(
        "netsim.sim_transmissions",
        snap.counter("netsim.sim.transmissions") as f64,
    );
    l.put(
        "netsim.sim_retransmissions",
        snap.counter("netsim.sim.retransmissions") as f64,
    );
}

/// Mean duration of the stored `kind` spans that have children, and
/// the mean of their children's summed durations, ns.
fn parent_and_children_ns(spans: &[Span], kind: Kind) -> (f64, f64) {
    let mut children_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let (mut n, mut parents, mut children) = (0u64, 0u64, 0u64);
    for (s, c) in spans.iter().zip(&children_ns) {
        if s.kind == kind && *c > 0 {
            n += 1;
            parents += s.end_ns - s.start_ns;
            children += c;
        }
    }
    (parents as f64 / n as f64, children as f64 / n as f64)
}

/// spacecore, sc-crypto, sc-fiveg: one traced `serve-mixed`
/// repetition, with the seeded 1 % of visits decomposed into replica
/// child spans, and the one-satellite scaling pair.
fn serve_pass(l: &mut Ledger) {
    let sizes = serve::Sizes::of(l.plan.quick);
    let (fleet, mut ues) = serve::setup(l.plan.seed, &sizes);
    let epoch = l.tr.epoch();
    let mut clients = serve::split_clients(&fleet, &mut ues, THREADS, l.plan.seed, true, epoch);
    serve::run_rep(&mut clients, 0, sizes.visits, false);
    for c in clients.iter_mut() {
        c.lat_ns.clear();
    }
    let (attempts0, local0) = clients
        .iter()
        .fold((0, 0), |(a, b), c| (a + c.attempts, b + c.local));
    serve::run_rep(&mut clients, 1, sizes.visits, true);

    let mut lat: Vec<u32> = Vec::new();
    let mut pass = Tracer::new(epoch, 1 << 16);
    let (mut attempts, mut local) = (0u64, 0u64);
    for mut c in clients {
        l.failed += c.failed;
        attempts += c.attempts;
        local += c.local;
        lat.append(&mut c.lat_ns);
        pass.absorb(c.tracer);
    }
    l.put(
        "spacecore.local_share",
        (local - local0) as f64 / (attempts - attempts0) as f64,
    );
    l.put(
        "spacecore.lat_p999_us",
        stats::percentile(&mut lat, 0.999).map_or(f64::NAN, |ns| ns as f64 / 1e3),
    );

    for (name, kind) in [
        ("spacecore.establish_ns", Kind::Establish),
        ("spacecore.handover_ns", Kind::Handover),
        ("spacecore.release_ns", Kind::Release),
        ("spacecore.rollback_ns", Kind::Rollback),
        ("spacecore.register_ue_ns", Kind::RegisterUe),
        ("spacecore.refresh_state_ns", Kind::RefreshState),
        ("spacecore.cell_crossing_ns", Kind::CellCrossing),
        ("crypto.local_access_ns", Kind::LocalAccess),
        ("crypto.sts_complete_ns", Kind::StsComplete),
        ("crypto.encrypt_state_ns", Kind::EncryptState),
        ("crypto.provision_ue_ns", Kind::ProvisionUe),
        ("fiveg.procedure_build_ns", Kind::ProcedureBuild),
    ] {
        l.put(name, pass.mean_ns(kind));
    }
    l.put(
        "crypto.wire_codec_ns",
        pass.mean_ns(Kind::WireEncode) + pass.mean_ns(Kind::WireDecode),
    );
    l.put(
        "fiveg.nas_codec_ns",
        pass.mean_ns(Kind::NasBuild)
            + pass.mean_ns(Kind::NasEncode)
            + pass.mean_ns(Kind::NasDecode),
    );
    l.put(
        "fiveg.state_codec_ns",
        pass.mean_ns(Kind::StateEncode) + pass.mean_ns(Kind::StateDecode),
    );
    let (parent_ns, children_ns) = parent_and_children_ns(pass.spans(), Kind::Establish);
    l.put("spacecore.establish_self_ns", parent_ns - children_ns);
    l.put("spacecore.establish_replica_share", children_ns / parent_ns);
    l.put(
        "spacecore.establishments",
        pass.count(Kind::Establish) as f64,
    );
    l.put("spacecore.rollbacks", pass.count(Kind::Rollback) as f64);
    l.put("spacecore.handovers", pass.count(Kind::Handover) as f64);
    l.put("spacecore.releases", pass.count(Kind::Release) as f64);
    let home_updates = pass.count(Kind::RegisterUe)
        + pass.count(Kind::RefreshState)
        + pass.count(Kind::CellCrossing);
    l.put("spacecore.home_updates", home_updates as f64);
    l.tr.absorb(pass);

    // One satellite, 1 client then 2: what its two mutexes cost.
    let visits = sizes.visits / 2;
    let mut rate = |n: usize| -> f64 {
        let mut clients = serve::split_clients(&fleet, &mut ues, n, l.plan.seed, false, epoch);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for c in clients.iter_mut() {
                s.spawn(move || c.run_one_satellite(visits));
            }
        });
        let wall_s = t0.elapsed().as_secs_f64();
        l.failed += clients.iter().map(|c| c.failed).sum::<u64>();
        clients.iter().map(|c| c.ops).sum::<u64>() as f64 / wall_s
    };
    let one = rate(1);
    let two = rate(2);
    l.put("spacecore.one_sat_scaling_2c", two / one);
}

/// Runs every probe, writes the span file, and returns the per-layer
/// metrics in table order with the number of failed self-checks.
pub fn ledger(
    w: Workload,
    plan: &Plan,
    workload_spans: Tracer,
    trace_overhead_ratio: f64,
) -> (Vec<Metric>, u64) {
    let epoch = workload_spans.epoch();
    let mut tr = Tracer::new(epoch, 1 << 16);
    let open = tr.open(Kind::Ledger, NO_PARENT, 0, true);
    let mut l = Ledger {
        plan,
        root: open.id(),
        tr,
        values: BTreeMap::new(),
        failed: 0,
    };
    l.put("trace_overhead_ratio", trace_overhead_ratio);
    placement(&mut l);
    engines(&mut l);
    telemetry(&mut l);
    des(&mut l);
    cell_ledger(&mut l);
    sweep(&mut l);
    serve_pass(&mut l);
    l.tr.close(open);

    let Ledger {
        tr,
        mut values,
        mut failed,
        ..
    } = l;
    // The file: the workload's own spans first, then the ledger's.
    let mut file = Tracer::new(epoch, 1 << 17);
    file.absorb(workload_spans);
    file.absorb(tr);
    let mut put = |name, value| values.insert(name, value);
    put("harness.spans_kept", file.spans().len() as f64);
    put("harness.spans_dropped", file.dropped() as f64);
    let dir = format!("{}/out", env!("CARGO_MANIFEST_DIR"));
    let path = format!("{dir}/trace-{}.json", w.name());
    let doc = json::trace_file(w.name(), plan.seed, file.spans(), file.dropped());
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => println!(
            "  note: spans written to benchmark/out/trace-{}.json",
            w.name()
        ),
        Err(e) => {
            println!("  FAIL: cannot write {path}: {e}");
            failed += 1;
        }
    }

    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: values.get(m.name).copied().unwrap_or(f64::NAN),
            unit: m.unit,
        })
        .collect();
    (metrics, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_parent_minus_children() {
        let span = |kind, start_ns, end_ns, parent| Span {
            kind,
            start_ns,
            end_ns,
            parent,
            unit: 0,
        };
        let spans = [
            span(Kind::Establish, 0, 100, NO_PARENT),
            span(Kind::LocalAccess, 100, 160, 0),
            span(Kind::StsComplete, 160, 180, 0),
            // No children: not part of the decomposition.
            span(Kind::Establish, 200, 900, NO_PARENT),
            span(Kind::Establish, 1000, 1200, NO_PARENT),
            span(Kind::StateDecode, 1200, 1300, 4),
        ];
        assert_eq!(
            parent_and_children_ns(&spans, Kind::Establish),
            (150.0, 90.0)
        );
    }

    #[test]
    fn recovery_legs_follow_the_plan() {
        let local = recovery_steps(&RecoveryPlan::for_solution(SolutionKind::SpaceCore), 7, 9);
        assert_eq!(local.len(), 4);
        assert!(local.iter().all(|s| s.from == 7 && s.to == 7));
        let home = recovery_steps(&RecoveryPlan::for_solution(SolutionKind::FiveGNtn), 7, 9);
        assert_eq!(home.len(), 13);
        assert_eq!(
            (home[0].from, home[0].to, home[1].from, home[1].to),
            (7, 9, 9, 7)
        );
    }
}
