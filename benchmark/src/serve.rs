//! The two executed-path workloads: `serve` and `serve-mixed`.
//!
//! Closed loop, 2 clients, in-process calls — nothing crosses a link
//! or loopback. Each client owns half the UEs and sends its next
//! request only when the previous one returned. A visit is two timed
//! operations (what they are depends on the visit's kind, see
//! [`VisitKind`]) followed by an untimed release that leaves the
//! satellites empty for the next visit.

use crate::gen::{self, Fnv, Shape, Visit, VisitKind};
use crate::stats;
use crate::trace::{Kind, Tracer, NO_PARENT};
use crate::workload::{timed, Measured, Plan, Rep, Workload, THREADS};
use sc_crypto::policy::{attr_set, AccessTree};
use sc_crypto::statecrypt::{satellite_local_access, ue_complete_exchange, SatCredentials};
use sc_dataset::population::PopulationModel;
use sc_fiveg::arena::MessageArena;
use sc_fiveg::messages::{Procedure, ProcedureKind};
use sc_fiveg::nas::{self, IeTag, NasMessage};
use sc_fiveg::state::SessionState;
use sc_geo::cells::CellGrid;
use sc_geo::sphere::GeoPoint;
use sc_orbit::SatId;
use spacecore::home::{HomeConfig, HomeNetwork};
use spacecore::satellite::{LocalPathFailure, SessionOutcome, SpaceCoreSatellite};
use spacecore::uestate::UeDevice;
use std::time::Instant;

/// Provisioned, authorized satellites.
const SATS: u16 = 8;

/// Input sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub ues: usize,
    /// Visits per client per repetition (two timed operations each).
    pub visits: u32,
}

impl Sizes {
    pub fn of(quick: bool) -> Self {
        if quick {
            Self {
                ues: 2_000,
                visits: 5_000,
            }
        } else {
            Self {
                ues: 50_000,
                visits: 100_000,
            }
        }
    }

    pub fn ops_per_rep(&self) -> u64 {
        2 * self.visits as u64 * THREADS as u64
    }
}

/// Everything the clients share. All of it is reached through `&`:
/// the home and the satellites synchronise internally.
pub struct Fleet {
    pub home: HomeNetwork,
    grid: CellGrid,
    sats: Vec<SpaceCoreSatellite>,
    /// The same credentials the satellites hold (provisioning is a pure
    /// function of the id), for the replica decomposition.
    creds: Vec<SatCredentials>,
    /// Lacks the `authorized` attribute: every establishment rolls back.
    rogue: SpaceCoreSatellite,
    pub points: Vec<GeoPoint>,
    /// Messages of the legacy C2 a rollback is billed.
    c2_messages: u32,
}

/// Input generation: sample positions, register every UE at the home,
/// provision the satellites.
pub fn setup(seed: u64, sizes: &Sizes) -> (Fleet, Vec<UeDevice>) {
    let points = PopulationModel::world_bank_like().sample_ues(sizes.ues, seed);
    let home = HomeNetwork::new(HomeConfig::default());
    let ues = points
        .iter()
        .enumerate()
        .map(|(i, p)| home.register_ue(i as u64 + 1, p))
        .collect();
    let ids: Vec<SatId> = (0..SATS).map(|i| SatId::new(i, 2 * i + 1)).collect();
    let fleet = Fleet {
        grid: home.cell_grid(),
        sats: ids
            .iter()
            .map(|id| SpaceCoreSatellite::provision(&home, *id))
            .collect(),
        creds: ids.iter().map(|id| home.provision_satellite(*id)).collect(),
        rogue: SpaceCoreSatellite::provision_with_attrs(
            &home,
            SatId::new(70, 20),
            &["role:satellite"],
        ),
        c2_messages: Procedure::build(ProcedureKind::SessionEstablishment).message_count() as u32,
        points,
        home,
    };
    (fleet, ues)
}

/// Outcome classes, as digested and as checked.
const LOCAL: u8 = 1;
const ROLLBACK: u8 = 2;
const ERR: u8 = 3;
const HOME_OK: u8 = 4;

fn class_of(o: &SessionOutcome) -> (u8, u32) {
    (if o.local { LOCAL } else { ROLLBACK }, o.signaling_messages)
}

fn class_of_handover(r: &Result<SessionOutcome, LocalPathFailure>) -> (u8, u32) {
    r.as_ref().map_or((ERR, 0), class_of)
}

/// One closed-loop client. Its counters run across repetitions.
pub struct Client<'f> {
    id: u32,
    fleet: &'f Fleet,
    ues: &'f mut [UeDevice],
    shape: Shape,
    seed: u64,
    /// Visits so far; drives the simulated clock and fresh MSINs.
    clock: u64,
    pub ops: u64,
    pub failed: u64,
    /// Establishments and handovers attempted, and how many were local.
    pub attempts: u64,
    pub local: u64,
    /// Latency of every timed operation since the last drain, ns.
    pub lat_ns: Vec<u32>,
    pub digest: Fnv,
    arena: MessageArena,
    pub tracer: Tracer,
}

impl<'f> Client<'f> {
    fn new(
        id: u32,
        fleet: &'f Fleet,
        ues: &'f mut [UeDevice],
        seed: u64,
        mixed: bool,
        epoch: Instant,
    ) -> Self {
        let shape = Shape {
            ues_per_client: ues.len(),
            sats: fleet.sats.len(),
            positions: fleet.points.len(),
            mixed,
        };
        Self {
            id,
            fleet,
            ues,
            shape,
            seed,
            clock: 0,
            ops: 0,
            failed: 0,
            attempts: 0,
            local: 0,
            lat_ns: Vec::new(),
            digest: Fnv::default(),
            arena: MessageArena::new(),
            // Room for one repetition's decomposed visits.
            tracer: Tracer::new(epoch, 1 << 15),
        }
    }

    fn run(&mut self, rep: u32, visits: u32, traced: bool) {
        for i in 0..visits {
            let v = gen::visit(self.seed, self.id, rep, i, &self.shape);
            // Unique per visit across both clients.
            let unit = (rep * visits + i) * THREADS as u32 + self.id;
            self.visit(v, unit, traced);
        }
    }

    /// `visits` local establishments, each released at once, all on
    /// satellite 0: the load that contends for one satellite's locks.
    pub fn run_one_satellite(&mut self, visits: u32) {
        let f = self.fleet;
        let sat = &f.sats[0];
        for i in 0..visits {
            let v = gen::visit(self.seed, self.id, u32::MAX, i, &self.shape);
            let ue = &mut self.ues[v.ue];
            self.clock += 1;
            let o = sat.establish_session(&f.home, ue, 10.0 + self.clock as f64 * 1e-4);
            let released = sat.release(ue.supi);
            self.ops += 1;
            self.failed += !(o.local && released) as u64;
        }
    }

    /// Wraps one top-level call in a span when the repetition is traced.
    /// Returns the call's result and the id of the stored span.
    fn call<R>(
        tracer: &mut Tracer,
        traced: bool,
        kind: Kind,
        unit: u32,
        keep: bool,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        if !traced {
            return (f(), NO_PARENT);
        }
        let open = tracer.open(kind, NO_PARENT, unit, keep);
        let id = open.id();
        let r = f();
        tracer.close(open);
        (r, id)
    }

    fn visit(&mut self, v: Visit, unit: u32, traced: bool) {
        let f = self.fleet;
        let home = &f.home;
        let tr = &mut self.tracer;
        let ue = &mut self.ues[v.ue];
        let sat_a = &f.sats[v.sat_a];
        let keep = traced && v.sampled;
        self.clock += 1;
        // Simulated seconds; far below the 3600 s replica TTL.
        let now = 10.0 + self.clock as f64 * 1e-4;
        let local4 = (LOCAL, 4);
        let rollback = (ROLLBACK, f.c2_messages);

        // (class, messages) observed for the two operations, and whether
        // everything else about them matched.
        let (got1, got2, want1, want2);
        let mut ok = true;
        // Spans the replica decomposition hangs under.
        let (mut est_span, mut reg_span, mut rb_span) = (NO_PARENT, NO_PARENT, NO_PARENT);

        let t0 = Instant::now();
        let t1;
        match v.kind {
            VisitKind::Local => {
                let (o, id) = Self::call(tr, traced, Kind::Establish, unit, keep, || {
                    sat_a.establish_session(home, ue, now)
                });
                est_span = id;
                t1 = Instant::now();
                let sat_b = &f.sats[v.sat_b];
                let (h, _) = Self::call(tr, traced, Kind::Handover, unit, keep, || {
                    sat_b.handover_in(home, ue, now)
                });
                let (released, _) = Self::call(tr, traced, Kind::Release, unit, keep, || {
                    sat_a.release(ue.supi)
                });
                (got1, want1) = (class_of(&o), local4);
                (got2, want2) = (class_of_handover(&h), (LOCAL, 3));
                ok &= released && o.home_round_trips == 0;
                self.attempts += 2;
                self.local += o.local as u64 + h.is_ok_and(|o| o.local) as u64;
            }
            VisitKind::Expired => {
                let late = ue.replica.expires_at + 1.0;
                let (o, id) = Self::call(tr, traced, Kind::Rollback, unit, keep, || {
                    sat_a.establish_session(home, ue, late)
                });
                rb_span = id;
                t1 = Instant::now();
                let (installed, _) = Self::call(tr, traced, Kind::RefreshState, unit, keep, || {
                    let (session, replica) = home.refresh_state(ue, late);
                    ue.install_update(session, replica)
                });
                (got1, want1) = (class_of(&o), rollback);
                (got2, want2) = (
                    (if installed.is_ok() { HOME_OK } else { ERR }, 0),
                    (HOME_OK, 0),
                );
                ok &= o.home_round_trips == 3 && o.session_key.is_none();
                self.attempts += 1;
                self.local += o.local as u64;
            }
            VisitKind::Crossing => {
                let (o, id) = Self::call(tr, traced, Kind::Establish, unit, keep, || {
                    sat_a.establish_session(home, ue, now)
                });
                est_span = id;
                t1 = Instant::now();
                let target = f.points[v.pos];
                let (installed, _) = Self::call(tr, traced, Kind::CellCrossing, unit, keep, || {
                    ue.move_to(&f.grid, target);
                    let replica = home.handle_cell_crossing(ue);
                    ue.install_update(ue.session.clone(), replica)
                });
                (got1, want1) = (class_of(&o), local4);
                (got2, want2) = (
                    (if installed.is_ok() { HOME_OK } else { ERR }, 0),
                    (HOME_OK, 0),
                );
                ok &= ue.address.ue_cell == f.grid.cell_of_point(&target);
                self.attempts += 1;
                self.local += o.local as u64;
            }
            VisitKind::Fresh => {
                // MSINs above the registered population, unique per client.
                let msin = (1 + self.id as u64) * 1_000_000_000 + self.clock;
                let position = f.points[v.pos];
                let (fresh, id) = Self::call(tr, traced, Kind::RegisterUe, unit, keep, || {
                    home.register_ue(msin, &position)
                });
                reg_span = id;
                *ue = fresh;
                t1 = Instant::now();
                let (o, id) = Self::call(tr, traced, Kind::Establish, unit, keep, || {
                    sat_a.establish_session(home, ue, now)
                });
                est_span = id;
                let registered = if ue.replica.version == 1 {
                    HOME_OK
                } else {
                    ERR
                };
                (got1, want1) = ((registered, 0), (HOME_OK, 0));
                (got2, want2) = (class_of(&o), local4);
                self.attempts += 1;
                self.local += o.local as u64;
            }
            VisitKind::Unauthorized => {
                let (r, id) = Self::call(tr, traced, Kind::Rollback, unit, keep, || {
                    f.rogue.establish_session(home, ue, now)
                });
                rb_span = id;
                t1 = Instant::now();
                let (o, id) = Self::call(tr, traced, Kind::Establish, unit, keep, || {
                    sat_a.establish_session(home, ue, now)
                });
                est_span = id;
                (got1, want1) = (class_of(&r), rollback);
                (got2, want2) = (class_of(&o), local4);
                ok &= r.home_round_trips == 3;
                self.attempts += 2;
                self.local += r.local as u64 + o.local as u64;
            }
        }
        let t2 = Instant::now();
        self.lat_ns.push((t1 - t0).as_nanos() as u32);
        self.lat_ns.push((t2 - t1).as_nanos() as u32);

        if keep {
            if est_span != NO_PARENT {
                ok &= replica_establish(tr, est_span, unit, f, v.sat_a, ue, now, &mut self.arena);
            }
            if reg_span != NO_PARENT {
                ok &= replica_register(tr, reg_span, unit, f, ue);
            }
            if rb_span != NO_PARENT {
                let c2 = tr.span(Kind::ProcedureBuild, rb_span, unit, || {
                    Procedure::build(ProcedureKind::SessionEstablishment)
                });
                ok &= c2.message_count() as u32 == f.c2_messages;
            }
        }

        // Untimed: the session this visit left behind is released, so
        // the satellites hold only what is in flight.
        let holder = match v.kind {
            VisitKind::Local => Some(&f.sats[v.sat_b]),
            VisitKind::Expired => None,
            _ => Some(sat_a),
        };
        if let Some(sat) = holder {
            let (released, _) = Self::call(tr, traced, Kind::Release, unit, keep, || {
                sat.release(ue.supi)
            });
            ok &= released;
        }

        self.ops += 2;
        self.failed += (got1 != want1) as u64 + (got2 != want2 || !ok) as u64;
        self.digest
            .write(&[v.kind as u8, got1.0, got1.1 as u8, got2.0, got2.1 as u8]);
    }
}

/// The calls `try_local_establishment` makes, in its order, each under
/// a child span of the establishment that just ran. The parent's self
/// time is its duration minus these.
#[allow(clippy::too_many_arguments)]
pub fn replica_establish(
    tr: &mut Tracer,
    parent: u32,
    unit: u32,
    f: &Fleet,
    sat: usize,
    ue: &mut UeDevice,
    now: f64,
    arena: &mut MessageArena,
) -> bool {
    let creds = &f.creds[sat];
    let ue_sts = tr.span(Kind::StsBegin, parent, unit, || {
        ue.begin_key_exchange(f.home.dh_params())
    });
    let x = ue_sts.public_value();
    let bytes = tr.span(Kind::WireEncode, parent, unit, || {
        sc_crypto::wire::encode_state(ue.piggyback())
    });
    let request = tr.span(Kind::NasBuild, parent, unit, || {
        nas::piggybacked_session_request(bytes, x)
    });
    arena.reset();
    let buf = tr.span(Kind::NasEncode, parent, unit, || arena.encode_nas(&request));
    let Ok(parsed) = tr.span(Kind::NasDecode, parent, unit, || {
        NasMessage::decode(arena.bytes(buf))
    }) else {
        return false;
    };
    let Some(ie) = parsed.ie(IeTag::StateReplica) else {
        return false;
    };
    let Ok(replica) = tr.span(Kind::WireDecode, parent, unit, || {
        sc_crypto::wire::decode_state(ie)
    }) else {
        return false;
    };
    let id = creds.cert.subject;
    let sat_id = f.sats[sat].id;
    let eph = sc_crypto::field::keyed_hash(
        (sat_id.plane as u64) << 32 | sat_id.slot as u64,
        &now.to_bits().to_le_bytes(),
    );
    let Ok(out) = tr.span(Kind::LocalAccess, parent, unit, || {
        satellite_local_access(creds, f.home.crypto(), &replica, x, eph, now)
    }) else {
        return false;
    };
    let key = tr.span(Kind::StsComplete, parent, unit, || {
        ue_complete_exchange(
            f.home.cert_verify_key(),
            &ue_sts,
            &creds.cert,
            id,
            out.y_public,
            out.transcript_sig,
        )
    });
    let state = tr.span(Kind::StateDecode, parent, unit, || {
        SessionState::decode(&out.state)
    });
    key == Ok(out.session_key) && state.as_ref() == Some(&ue.session)
}

/// The home-side work of `register_ue`: encode the session, encrypt
/// and sign it under the UE's policy, issue the UE's key.
fn replica_register(tr: &mut Tracer, parent: u32, unit: u32, f: &Fleet, ue: &UeDevice) -> bool {
    let supi_attr = format!("supi:{}", ue.supi.0);
    let policy = AccessTree::Or(vec![
        f.home.config().satellite_policy.clone(),
        AccessTree::And(vec![
            AccessTree::leaf("role:ue"),
            AccessTree::leaf(supi_attr.clone()),
        ]),
    ]);
    let plain = tr.span(Kind::StateEncode, parent, unit, || ue.session.encode());
    let enc = tr.span(Kind::EncryptState, parent, unit, || {
        f.home.crypto().encrypt_state(
            &plain,
            &policy,
            1,
            f.home.config().state_ttl_s,
            ue.supi.0 ^ (1 << 32),
        )
    });
    let key = tr.span(Kind::ProvisionUe, parent, unit, || {
        f.home
            .crypto()
            .provision_ue(&attr_set(&["role:ue", &supi_attr]))
    });
    std::hint::black_box(key);
    enc.home_sig == ue.replica.home_sig
}

/// Both clients run `visits` visits of repetition `rep`, concurrently.
pub fn run_rep(clients: &mut [Client], rep: u32, visits: u32, traced: bool) {
    std::thread::scope(|s| {
        for c in clients.iter_mut() {
            s.spawn(move || c.run(rep, visits, traced));
        }
    });
}

/// Splits the UEs between `n` clients.
pub fn split_clients<'f>(
    fleet: &'f Fleet,
    ues: &'f mut [UeDevice],
    n: usize,
    seed: u64,
    mixed: bool,
    epoch: Instant,
) -> Vec<Client<'f>> {
    let per = ues.len().div_ceil(n);
    ues.chunks_mut(per)
        .enumerate()
        .map(|(id, chunk)| Client::new(id as u32, fleet, chunk, seed, mixed, epoch))
        .collect()
}

fn totals(clients: &[Client]) -> (u64, u64) {
    (
        clients.iter().map(|c| c.ops).sum(),
        clients.iter().map(|c| c.failed).sum(),
    )
}

pub fn measure(w: Workload, plan: &Plan) -> Measured {
    let mixed = w == Workload::ServeMixed;
    let sizes = Sizes::of(plan.quick);

    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..plan.setups(9) {
        // The previous fleet is freed first, outside the timing.
        drop(built.take());
        let (b, wall_s, _) = timed(|| setup(plan.seed, &sizes));
        setup_s.push(wall_s);
        built = Some(b);
    }
    let (fleet, mut ues) = built.expect("at least one set-up runs");
    let epoch = Instant::now();
    let mut clients = split_clients(&fleet, &mut ues, THREADS, plan.seed, mixed, epoch);

    let rep_of = |clients: &mut [Client], rep: u32, traced: bool| -> Rep {
        for c in clients.iter_mut() {
            c.lat_ns.reserve(2 * sizes.visits as usize);
        }
        let (ops0, failed0) = totals(clients);
        let ((), wall_s, cpu_s) = timed(|| run_rep(clients, rep, sizes.visits, traced));
        let (ops1, failed1) = totals(clients);
        Rep {
            wall_s,
            cpu_s,
            ops: ops1 - ops0,
            failed: failed1 - failed0,
        }
    };

    // Warm-up, discarded: fills the arenas and the allocator's pools.
    let warm = rep_of(&mut clients, 0, false);
    let mut notes = Vec::new();
    if warm.failed > 0 {
        notes.push(format!(
            "FAIL: {} operations of the warm-up mismatched",
            warm.failed
        ));
    }
    for c in clients.iter_mut() {
        c.lat_ns.clear();
    }
    let mut pooled: Vec<u32> = Vec::new();
    let (mut lat_p50_us, mut lat_p99_us) = (Vec::new(), Vec::new());
    let mut lat_samples = 0u64;

    let mut reps = Vec::new();
    let mut traced_reps = Vec::new();
    let mut digest = 0u64;
    let mut rep_no = 0u32;
    let started = Instant::now();
    while plan.wants_more(started, reps.len()) {
        rep_no += 1;
        reps.push(rep_of(&mut clients, rep_no, false));
        // Percentiles per repetition, both clients pooled: a slow
        // stretch of the box then moves one repetition's reading, not
        // the tail of the whole run.
        pooled.clear();
        for c in clients.iter_mut() {
            pooled.append(&mut c.lat_ns);
        }
        lat_samples += pooled.len() as u64;
        for (q, per_rep) in [(0.5, &mut lat_p50_us), (0.99, &mut lat_p99_us)] {
            if let Some(ns) = stats::percentile(&mut pooled, q) {
                per_rep.push(ns as f64 / 1e3);
            }
        }
        if reps.len() == 1 {
            // Warm-up plus first repetition: independent of how many
            // more the time budget allows.
            let mut h = Fnv::default();
            for c in &clients {
                h.write(&c.digest.finish().to_le_bytes());
            }
            digest = h.finish();
        }
        if plan.traced {
            rep_no += 1;
            traced_reps.push(rep_of(&mut clients, rep_no, true));
            for c in clients.iter_mut() {
                c.lat_ns.clear();
            }
        }
    }

    let (attempts, local): (u64, u64) = clients
        .iter()
        .fold((0, 0), |(a, l), c| (a + c.attempts, l + c.local));
    notes.push(format!(
        "closed loop, {THREADS} clients, {} UEs, {} satellites, {} operations per repetition, local share {:.4}",
        sizes.ues,
        SATS,
        sizes.ops_per_rep(),
        local as f64 / attempts as f64
    ));
    notes.push(format!(
        "generator digest {:#018x} over the first 10000 visits of client 0",
        gen::sequence_digest(plan.seed, &clients[0].shape, 10_000)
    ));
    let tracer = plan.traced.then(|| {
        let mut all = Tracer::new(epoch, 1 << 16);
        for c in clients {
            all.absorb(c.tracer);
        }
        all
    });

    Measured {
        setup_s,
        reps,
        traced_reps,
        lat_p50_us,
        lat_p99_us,
        lat_samples,
        digest,
        notes,
        tracer,
    }
}
