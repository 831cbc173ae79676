//! The five evaluated systems (§6.1): SpaceCore and its four baselines.
//!
//! * **5G NTN** — the legacy baseline: satellites are regenerative radio
//!   only (Fig. 6a); every core interaction crosses to the ground.
//! * **SkyCore** — proactive state replication: *all* users' security
//!   contexts and policies are pre-stored on the satellite and
//!   synchronized between satellites by broadcast (originally for UAVs).
//! * **Baoyun** — the first real 5G core in LEO (Fig. 6c): AMF + SMF +
//!   UPF on the satellite, AUSF/UDM/PCF at the home.
//! * **DPCM** — device-side state replicas accelerate the legacy
//!   procedures, but service areas stay logical (satellite-bound).
//! * **SpaceCore** — this paper.
//!
//! Every quantity the evaluation figures need is exposed per solution:
//! per-satellite and per-ground-station signaling rates (Fig. 20,
//! Table 4), signaling latency and satellite CPU vs. load (Fig. 17),
//! state leakage under hijack and man-in-the-middle (Fig. 19), and IP
//! stability under satellite handover (Fig. 21).
//!
//! ## Calibration notes (DESIGN.md §3)
//!
//! Message counts come from the Figure 9 step tables (`sc-fiveg`);
//! multi-hop ISL relay amplification and the lower-layer radio factor
//! come from the constellation geometry and the Table 2 captures. The
//! low-load latency intercepts are calibrated to the prototype numbers
//! the paper reports in §6.2 ("reduces 1,008 ms (7.33×) … compared to
//! the legacy 5G NTN, Baoyun, DPCM, and SkyCore").

use sc_dataset::workload::WorkloadParams;
use sc_fiveg::cpu::{HardwareProfile, NfCostTable};
use sc_fiveg::messages::{Procedure, ProcedureKind};
use sc_fiveg::nf::SplitOption;
use sc_orbit::ConstellationConfig;

/// Which solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolutionKind {
    SpaceCore,
    FiveGNtn,
    SkyCore,
    Baoyun,
    Dpcm,
}

impl SolutionKind {
    /// All five, in the paper's legend order.
    pub const ALL: [SolutionKind; 5] = [
        SolutionKind::SpaceCore,
        SolutionKind::FiveGNtn,
        SolutionKind::SkyCore,
        SolutionKind::Dpcm,
        SolutionKind::Baoyun,
    ];

    /// The four baselines.
    pub const BASELINES: [SolutionKind; 4] = [
        SolutionKind::FiveGNtn,
        SolutionKind::SkyCore,
        SolutionKind::Dpcm,
        SolutionKind::Baoyun,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SolutionKind::SpaceCore => "SpaceCore",
            SolutionKind::FiveGNtn => "5G NTN",
            SolutionKind::SkyCore => "SkyCore",
            SolutionKind::Baoyun => "Baoyun",
            SolutionKind::Dpcm => "DPCM",
        }
    }

    /// The function split each solution runs in space.
    pub fn split_option(self) -> SplitOption {
        match self {
            SolutionKind::SpaceCore => SplitOption::SpaceCore,
            SolutionKind::FiveGNtn => SplitOption::RadioOnly,
            SolutionKind::SkyCore => SplitOption::AllFunctions,
            SolutionKind::Baoyun | SolutionKind::Dpcm => SplitOption::SessionMobility,
        }
    }

    /// Does the UE's IP address survive a satellite handover?
    /// (Fig. 21: "for SkyCore, Baoyun, and DPCM, the mobility
    /// registrations will update the UE's logical IP addresses and thus
    /// terminate TCP connections and ping. 5G NTN avoids this by binding
    /// the logical IP address to the remote home core".)
    pub fn ip_stable_under_satellite_handover(self) -> bool {
        matches!(self, SolutionKind::SpaceCore | SolutionKind::FiveGNtn)
    }

    /// Does satellite mobility trigger mobility registrations?
    /// SpaceCore eliminates them with geospatial service areas (§4.3).
    pub fn mobility_regs_on_satellite_sweep(self) -> bool {
        !matches!(self, SolutionKind::SpaceCore)
    }
}

/// A solution bound to a constellation + workload context.
#[derive(Debug, Clone)]
pub struct Solution {
    pub kind: SolutionKind,
    constellation: ConstellationConfig,
    params: WorkloadParams,
    /// Mean ISL hop count from a satellite to its serving ground
    /// station (relay amplification for boundary-crossing messages).
    avg_isl_hops: f64,
    /// Lower-layer radio expansion on legacy per-procedure UE-facing
    /// messages (from the Table 2 captures). SpaceCore's piggybacking
    /// collapses this to ~1 (§5: signaling piggyback).
    radio_overhead: f64,
}

/// One-way satellite→home delay, ms (multi-hop ISL + feeder link).
const RTT_HOME_MS: f64 = 130.0;

impl Solution {
    pub fn new(kind: SolutionKind, constellation: ConstellationConfig) -> Self {
        let params = WorkloadParams::for_constellation(&constellation);
        // Mean hops to a gateway scale with grid dimensions; the paper
        // notes worst cases up to 48 hops for Starlink.
        let avg_isl_hops =
            (constellation.planes as f64 + constellation.sats_per_plane as f64) / 6.0;
        let radio_overhead = match kind {
            SolutionKind::SpaceCore => 1.0,
            // Bent-feeder designs re-run RRC/MM transactions over the
            // long space-ground path; the Table 2 satellite captures are
            // dominated by exactly this lower-layer chatter.
            SolutionKind::FiveGNtn => 10.0,
            _ => 3.0,
        };
        Self {
            kind,
            constellation,
            params,
            avg_isl_hops,
            radio_overhead,
        }
    }

    pub fn constellation(&self) -> &ConstellationConfig {
        &self.constellation
    }

    pub fn workload(&self) -> &WorkloadParams {
        &self.params
    }

    // ------------------------------------------------------------------
    // Per-procedure message accounting
    // ------------------------------------------------------------------

    /// Per-run satellite message load for one procedure: locally
    /// processed messages (radio-expanded) plus the ISL relay legs of
    /// every boundary crossing.
    pub fn sat_msgs_per_procedure(&self, kind: ProcedureKind) -> f64 {
        match (self.kind, kind) {
            // SpaceCore's localized procedures (Fig. 16).
            (SolutionKind::SpaceCore, ProcedureKind::SessionEstablishment) => {
                Procedure::build(ProcedureKind::LocalEstablishment).message_count() as f64
            }
            (SolutionKind::SpaceCore, ProcedureKind::Handover) => {
                Procedure::build(ProcedureKind::ReplicaHandover).message_count() as f64
            }
            (SolutionKind::SpaceCore, ProcedureKind::MobilityRegistration) => 0.0,
            (SolutionKind::SpaceCore, ProcedureKind::Paging) => 2.0,
            (SolutionKind::SpaceCore, ProcedureKind::InitialRegistration) => {
                // Legacy C1 through the home: radio legs + relays.
                self.legacy_sat_msgs(ProcedureKind::InitialRegistration)
            }
            // SkyCore localizes everything but adds neighbor sync.
            (SolutionKind::SkyCore, k) => {
                self.legacy_sat_msgs(k) + SKYCORE_SYNC_FANOUT
            }
            // DPCM accelerates latency with device-side replicas but
            // pays extra replica-maintenance signaling (why Table 4
            // shows DPCM *above* Baoyun: 49.3× vs 40.3×).
            (SolutionKind::Dpcm, k) => 1.2 * self.legacy_sat_msgs(k),
            _ => self.legacy_sat_msgs(kind),
        }
    }

    /// Legacy per-run satellite load, decomposed as: over-the-air
    /// UE-facing messages (× the radio overhead factor), satellite-local
    /// NF messages, and ISL relay legs for boundary crossings.
    fn legacy_sat_msgs(&self, kind: ProcedureKind) -> f64 {
        let p = Procedure::build(kind);
        let split = self.kind.split_option().split();
        let air = p
            .steps
            .iter()
            .filter(|s| {
                s.from == sc_fiveg::messages::Entity::Ue || s.to == sc_fiveg::messages::Entity::Ue
            })
            .count() as f64;
        let sat_total = p.satellite_messages(&split) as f64;
        let non_air_sat = (sat_total - air).max(0.0);
        let relayed = p.ground_messages(&split) as f64 * self.avg_isl_hops;
        air * self.radio_overhead + non_air_sat + relayed
    }

    /// Per-run ground-station message load.
    pub fn ground_msgs_per_procedure(&self, kind: ProcedureKind) -> f64 {
        match (self.kind, kind) {
            (SolutionKind::SpaceCore, ProcedureKind::SessionEstablishment)
            | (SolutionKind::SpaceCore, ProcedureKind::Handover)
            | (SolutionKind::SpaceCore, ProcedureKind::MobilityRegistration)
            | (SolutionKind::SpaceCore, ProcedureKind::Paging) => 0.0,
            (SolutionKind::SkyCore, _) => 0.0, // pre-stored states
            (SolutionKind::Dpcm, k) => {
                let p = Procedure::build(k);
                0.6 * p.ground_messages(&self.kind.split_option().split()) as f64
            }
            (_, k) => {
                let p = Procedure::build(k);
                p.ground_messages(&self.kind.split_option().split()) as f64
            }
        }
    }

    /// Session-state items migrated between infrastructure nodes per run
    /// (what a man-in-the-middle on ISLs can capture, Fig. 19b).
    pub fn state_migrations_per_procedure(&self, kind: ProcedureKind) -> f64 {
        let p = Procedure::build(kind);
        match (self.kind, kind) {
            // SpaceCore: states move UE↔satellite only, encrypted; no
            // infrastructure-side migration on ISLs.
            (SolutionKind::SpaceCore, ProcedureKind::InitialRegistration) => {
                p.state_tx_crossing(&self.kind.split_option().split()) as f64
            }
            (SolutionKind::SpaceCore, _) => 0.0,
            // SkyCore: proactive replication ships states to neighbors.
            (SolutionKind::SkyCore, _) => SKYCORE_SYNC_FANOUT * 2.0,
            (SolutionKind::Dpcm, k) => {
                0.6 * Procedure::build(k)
                    .state_tx_crossing(&self.kind.split_option().split())
                    as f64
            }
            (_, k) => Procedure::build(k)
                .state_tx_crossing(&self.kind.split_option().split())
                as f64,
        }
    }

    // ------------------------------------------------------------------
    // Aggregate per-satellite / per-ground-station rates (Fig. 20)
    // ------------------------------------------------------------------

    /// Per-satellite signaling rate (msg/s) for `capacity` served users:
    /// session establishments + satellite-sweep handovers + (where the
    /// design triggers them) mobility registrations.
    pub fn sat_msgs_per_s(&self, capacity: u32) -> f64 {
        let sessions = capacity as f64 / self.params.session_interarrival_s;
        let sweeps = capacity as f64 / self.params.transit_s;
        let active_sweeps = sweeps * self.params.active_fraction;

        let mut rate = sessions
            * (self.sat_msgs_per_procedure(ProcedureKind::SessionEstablishment)
                + self.params.downlink_fraction
                    * self.sat_msgs_per_procedure(ProcedureKind::Paging))
            + active_sweeps * self.sat_msgs_per_procedure(ProcedureKind::Handover);
        if self.kind.mobility_regs_on_satellite_sweep() {
            rate += sweeps * self.sat_msgs_per_procedure(ProcedureKind::MobilityRegistration);
        }
        rate
    }

    /// Per-ground-station signaling rate (msg/s): the boundary-crossing
    /// load of all satellites, concentrated on the gateway fleet.
    pub fn ground_msgs_per_s(&self, capacity: u32, total_stations: usize) -> f64 {
        let sessions = capacity as f64 / self.params.session_interarrival_s;
        let sweeps = capacity as f64 / self.params.transit_s;
        let active_sweeps = sweeps * self.params.active_fraction;

        let mut per_sat = sessions
            * (self.ground_msgs_per_procedure(ProcedureKind::SessionEstablishment)
                + self.params.downlink_fraction
                    * self.ground_msgs_per_procedure(ProcedureKind::Paging))
            + active_sweeps * self.ground_msgs_per_procedure(ProcedureKind::Handover);
        if self.kind.mobility_regs_on_satellite_sweep() {
            per_sat +=
                sweeps * self.ground_msgs_per_procedure(ProcedureKind::MobilityRegistration);
        }
        per_sat * self.constellation.total_sats() as f64 / total_stations.max(1) as f64
    }

    /// Per-satellite state-migration rate (items/s).
    pub fn state_tx_per_s(&self, capacity: u32) -> f64 {
        let sessions = capacity as f64 / self.params.session_interarrival_s;
        let sweeps = capacity as f64 / self.params.transit_s;
        let active_sweeps = sweeps * self.params.active_fraction;
        let mut rate = sessions
            * self.state_migrations_per_procedure(ProcedureKind::SessionEstablishment)
            + active_sweeps * self.state_migrations_per_procedure(ProcedureKind::Handover);
        if self.kind.mobility_regs_on_satellite_sweep() {
            rate +=
                sweeps * self.state_migrations_per_procedure(ProcedureKind::MobilityRegistration);
        }
        rate
    }

    // ------------------------------------------------------------------
    // Latency & CPU (Fig. 17)
    // ------------------------------------------------------------------

    /// Home round-trips a procedure needs under this solution.
    pub fn home_round_trips(&self, kind: ProcedureKind) -> f64 {
        use ProcedureKind::*;
        use SolutionKind::*;
        match (self.kind, kind) {
            // Initial registration: SkyCore pre-stored → zero;
            // SpaceCore/5G NTN legacy through home; Baoyun/DPCM split
            // their control functions and ping-pong with the home.
            (SkyCore, InitialRegistration) => 0.0,
            (SpaceCore, InitialRegistration) | (FiveGNtn, InitialRegistration) => 3.0,
            (Baoyun, InitialRegistration) => 5.0,
            (Dpcm, InitialRegistration) => 4.0,

            // Session establishment (Fig. 17b).
            (SpaceCore, SessionEstablishment) => 0.0,
            (SkyCore, SessionEstablishment) => 0.0,
            (Dpcm, SessionEstablishment) => 0.5, // one-way state confirm
            (FiveGNtn, SessionEstablishment) => 3.5,
            (Baoyun, SessionEstablishment) => 5.0,

            // Mobility registration (Fig. 17c). SpaceCore: eliminated.
            (SpaceCore, MobilityRegistration) => 0.0,
            (SkyCore, MobilityRegistration) => 0.5,
            (Dpcm, MobilityRegistration) => 1.5,
            (FiveGNtn, MobilityRegistration) => 3.0,
            (Baoyun, MobilityRegistration) => 2.5,

            (SpaceCore, Handover) => 0.0,
            (_, Handover) => 1.0,
            (SpaceCore, Paging) => 0.0,
            (_, Paging) => 1.0,

            // SpaceCore's Fig. 16 exchanges never leave the satellite.
            (_, LocalEstablishment | ReplicaHandover | RrcRelease) => 0.0,
        }
    }

    /// Fixed local-crypto latency, ms: SpaceCore pays ABE decryption at
    /// session establishment (Fig. 18a shows ~tens of ms).
    pub fn local_crypto_ms(&self, kind: ProcedureKind) -> f64 {
        match (self.kind, kind) {
            (SolutionKind::SpaceCore, ProcedureKind::SessionEstablishment)
            | (SolutionKind::SpaceCore, ProcedureKind::Handover) => 45.0,
            _ => 0.0,
        }
    }

    /// Fixed software-path latency per run, ms — the prototype-measured
    /// constant each stack pays regardless of load: SkyCore's heavy
    /// in-orbit state store, Baoyun's full 5G stack on the Pi, DPCM's
    /// device-state verification. Calibrated to the Fig. 17 low-load
    /// intercepts.
    pub fn software_path_ms(&self, kind: ProcedureKind) -> f64 {
        if kind == ProcedureKind::Paging {
            return 0.0;
        }
        match self.kind {
            SolutionKind::SkyCore => 450.0,
            SolutionKind::Baoyun => 300.0,
            SolutionKind::Dpcm => 100.0,
            SolutionKind::FiveGNtn | SolutionKind::SpaceCore => 0.0,
        }
    }

    /// Satellite-side service time per run of `kind`, ms (drives both
    /// CPU% and the queueing knee).
    pub fn satellite_service_ms(&self, kind: ProcedureKind, hw: HardwareProfile) -> f64 {
        let table = NfCostTable::new(hw);
        let split = self.kind.split_option().split();
        let p = Procedure::build(kind);
        let mut ms = table.satellite_ms_per_procedure(&p, &split);
        match self.kind {
            // SkyCore pre-computes everything: registration is a local
            // store lookup, not an AKA run — that is how it wins
            // Fig. 17a despite running on the Pi. Other procedures pay
            // its heavy in-orbit store.
            SolutionKind::SkyCore => {
                if kind == ProcedureKind::InitialRegistration {
                    ms = 1.2 / hw.speedup();
                } else {
                    ms += 2.0 / hw.speedup();
                }
            }
            // SpaceCore's proxy: decrypt + install (cheap; ABE cost is
            // accounted separately as fixed latency, its CPU share is
            // included here).
            SolutionKind::SpaceCore => {
                if matches!(
                    kind,
                    ProcedureKind::SessionEstablishment | ProcedureKind::Handover
                ) {
                    ms += 0.6 / hw.speedup();
                }
                if matches!(kind, ProcedureKind::MobilityRegistration) {
                    ms = 0.0; // eliminated entirely
                }
            }
            _ => {}
        }
        ms
    }

    /// Signaling delay (seconds) for one run of `kind` at an offered
    /// rate of `rate_per_s` procedures/s on hardware `hw` (Fig. 17 x/y).
    pub fn signaling_delay_s(
        &self,
        kind: ProcedureKind,
        rate_per_s: f64,
        hw: HardwareProfile,
    ) -> f64 {
        if self.kind == SolutionKind::SpaceCore && kind == ProcedureKind::MobilityRegistration {
            return 0.0; // procedure does not occur (Fig. 17c)
        }
        let home = self.home_round_trips(kind) * 2.0 * RTT_HOME_MS / 1000.0;
        let crypto = self.local_crypto_ms(kind) / 1000.0;
        let service_ms = self.satellite_service_ms(kind, hw);
        let queueing = if service_ms > 0.0 {
            sc_netsim::queueing::MM1Model::from_service_time(service_ms / 1000.0, 10.0)
                .sojourn_s(rate_per_s)
        } else {
            0.0
        };
        // Base radio transaction (RRC setup + first hop).
        let radio = 0.08;
        home + crypto + queueing + radio + self.software_path_ms(kind) / 1000.0
    }

    /// Satellite CPU% at `rate_per_s` procedures/s (Fig. 17 right column).
    pub fn satellite_cpu_percent(
        &self,
        kind: ProcedureKind,
        rate_per_s: f64,
        hw: HardwareProfile,
    ) -> f64 {
        let ms = self.satellite_service_ms(kind, hw);
        (rate_per_s * ms / 1000.0 * 100.0).min(100.0)
    }

    // ------------------------------------------------------------------
    // Attack leakage (Fig. 19)
    // ------------------------------------------------------------------

    /// Cumulative states leaked after `minutes` of a satellite hijack
    /// (Fig. 19a). `capacity` is the satellite's user capacity;
    /// `subscribers` the operator's total base (SkyCore pre-stores all
    /// of them).
    pub fn hijack_leakage(&self, minutes: f64, capacity: u32, subscribers: u64) -> f64 {
        let active = capacity as f64 * self.params.active_fraction;
        match self.kind {
            // Stateless: only currently-active sessions' keys, constant.
            SolutionKind::SpaceCore => active,
            // Everything pre-stored leaks immediately.
            SolutionKind::SkyCore => subscribers as f64 * 2.0, // AV + policy per user
            // Stateful serving cores accumulate contexts as users transit.
            SolutionKind::Baoyun | SolutionKind::Dpcm => {
                let per_transit = capacity as f64;
                active + per_transit * (minutes * 60.0 / self.params.transit_s)
            }
            // Radio-only: radio contexts of transiting users.
            SolutionKind::FiveGNtn => {
                let per_transit = capacity as f64 * self.params.active_fraction;
                active + per_transit * (minutes * 60.0 / self.params.transit_s)
            }
        }
    }

    /// States per second a passive man-in-the-middle on ISLs captures
    /// when backhaul encryption is off (Fig. 19b): exactly the
    /// state-migration rate over inter-node links.
    pub fn mitm_leakage_per_s(&self, capacity: u32) -> f64 {
        match self.kind {
            // Local, ABE-protected: nothing readable in flight.
            SolutionKind::SpaceCore => 0.0,
            _ => self.state_tx_per_s(capacity),
        }
    }
}

/// SkyCore's proactive neighbor-synchronization fan-out (4 ISL
/// neighbors).
const SKYCORE_SYNC_FANOUT: f64 = 4.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn all_solutions() -> Vec<Solution> {
        SolutionKind::ALL
            .iter()
            .map(|k| Solution::new(*k, ConstellationConfig::starlink()))
            .collect()
    }

    #[test]
    fn table4_shape_spacecore_wins_big() {
        // Table 4, Starlink @ 30K: SpaceCore reduces satellite signaling
        // 122.2× vs 5G NTN, 17.5× vs SkyCore, 40.3× vs Baoyun, 49.3× vs
        // DPCM. Shape requirements: ≥ 10× against every baseline, and
        // 5G NTN worst / SkyCore best-of-baselines ordering.
        let cap = 30_000;
        let sc = Solution::new(SolutionKind::SpaceCore, ConstellationConfig::starlink())
            .sat_msgs_per_s(cap);
        let mut ratios = std::collections::HashMap::new();
        for k in SolutionKind::BASELINES {
            let r = Solution::new(k, ConstellationConfig::starlink()).sat_msgs_per_s(cap) / sc;
            ratios.insert(k, r);
        }
        // sc-audit: allow(unordered, reason = "order-insensitive range assertions over every ratio")
        for (k, r) in &ratios {
            assert!(*r > 8.0, "{k:?} ratio {r}");
            assert!(*r < 500.0, "{k:?} ratio {r}");
        }
        assert!(
            ratios[&SolutionKind::FiveGNtn] > ratios[&SolutionKind::SkyCore],
            "5G NTN must be the worst: {ratios:?}"
        );
    }

    #[test]
    fn spacecore_has_no_ground_station_load() {
        let s = Solution::new(SolutionKind::SpaceCore, ConstellationConfig::starlink());
        assert_eq!(s.ground_msgs_per_s(30_000, 30), 0.0);
        // Baselines that fetch from the ground have massive GS load.
        let ntn = Solution::new(SolutionKind::FiveGNtn, ConstellationConfig::starlink());
        assert!(ntn.ground_msgs_per_s(30_000, 30) > 1e4);
    }

    #[test]
    fn fig17c_mobility_registration_eliminated() {
        let s = Solution::new(SolutionKind::SpaceCore, ConstellationConfig::starlink());
        for rate in [100.0, 300.0, 500.0] {
            assert_eq!(
                s.signaling_delay_s(
                    ProcedureKind::MobilityRegistration,
                    rate,
                    HardwareProfile::RaspberryPi4
                ),
                0.0
            );
            assert_eq!(
                s.satellite_cpu_percent(
                    ProcedureKind::MobilityRegistration,
                    rate,
                    HardwareProfile::RaspberryPi4
                ),
                0.0
            );
        }
        // Baselines pay real delay that grows with load.
        let b = Solution::new(SolutionKind::Baoyun, ConstellationConfig::starlink());
        let low = b.signaling_delay_s(
            ProcedureKind::MobilityRegistration,
            50.0,
            HardwareProfile::RaspberryPi4,
        );
        let high = b.signaling_delay_s(
            ProcedureKind::MobilityRegistration,
            500.0,
            HardwareProfile::RaspberryPi4,
        );
        assert!(low > 0.1);
        assert!(high > low);
    }

    #[test]
    fn fig17b_session_latency_ordering() {
        // Fig. 17b at low load: SpaceCore < DPCM < SkyCore < 5G NTN <
        // Baoyun.
        let rate = 50.0;
        let hw = HardwareProfile::RaspberryPi4;
        let d = |k| {
            Solution::new(k, ConstellationConfig::starlink()).signaling_delay_s(
                ProcedureKind::SessionEstablishment,
                rate,
                hw,
            )
        };
        let sc = d(SolutionKind::SpaceCore);
        let dpcm = d(SolutionKind::Dpcm);
        let sky = d(SolutionKind::SkyCore);
        let ntn = d(SolutionKind::FiveGNtn);
        let baoyun = d(SolutionKind::Baoyun);
        assert!(sc < dpcm, "sc {sc} dpcm {dpcm}");
        assert!(dpcm < ntn, "dpcm {dpcm} ntn {ntn}");
        assert!(ntn < baoyun, "ntn {ntn} baoyun {baoyun}");
        assert!(sc < sky, "sc {sc} sky {sky}");
        // Headline: ~7× reduction vs 5G NTN, ~11× vs Baoyun.
        assert!(ntn / sc > 3.0, "ntn/sc {}", ntn / sc);
        assert!(baoyun / sc > 5.0, "baoyun/sc {}", baoyun / sc);
    }

    #[test]
    fn fig17a_initial_registration_ordering() {
        // SkyCore lowest (pre-stored); Baoyun & DPCM highest.
        let rate = 50.0;
        let hw = HardwareProfile::RaspberryPi4;
        let d = |k| {
            Solution::new(k, ConstellationConfig::starlink()).signaling_delay_s(
                ProcedureKind::InitialRegistration,
                rate,
                hw,
            )
        };
        assert!(d(SolutionKind::SkyCore) < d(SolutionKind::SpaceCore));
        assert!(d(SolutionKind::SpaceCore) <= d(SolutionKind::FiveGNtn) + 0.2);
        assert!(d(SolutionKind::Baoyun) > d(SolutionKind::SpaceCore));
        assert!(d(SolutionKind::Dpcm) > d(SolutionKind::SpaceCore));
    }

    #[test]
    fn fig19a_hijack_leakage_shape() {
        // SkyCore leaks its whole pre-stored base immediately; stateful
        // cores accumulate; SpaceCore stays flat at the active set.
        let subs = 10_000_000u64;
        let cap = 30_000;
        let leak = |k: SolutionKind, min: f64| {
            Solution::new(k, ConstellationConfig::starlink()).hijack_leakage(min, cap, subs)
        };
        // Flat for SpaceCore.
        assert_eq!(
            leak(SolutionKind::SpaceCore, 1.0),
            leak(SolutionKind::SpaceCore, 100.0)
        );
        // Bounded by the active set.
        assert!(leak(SolutionKind::SpaceCore, 100.0) < cap as f64);
        // SkyCore catastrophic from t=0.
        assert!(leak(SolutionKind::SkyCore, 1.0) > subs as f64);
        // Baoyun grows with time.
        assert!(leak(SolutionKind::Baoyun, 100.0) > 10.0 * leak(SolutionKind::Baoyun, 1.0));
        // At 100 min, every baseline leaks orders of magnitude more.
        for k in SolutionKind::BASELINES {
            assert!(
                leak(k, 100.0) > 20.0 * leak(SolutionKind::SpaceCore, 100.0),
                "{k:?}"
            );
        }
    }

    #[test]
    fn fig19b_mitm_leakage() {
        let cap = 30_000;
        let sc = Solution::new(SolutionKind::SpaceCore, ConstellationConfig::starlink());
        assert_eq!(sc.mitm_leakage_per_s(cap), 0.0);
        for k in SolutionKind::BASELINES {
            let s = Solution::new(k, ConstellationConfig::starlink());
            assert!(s.mitm_leakage_per_s(cap) > 10.0, "{k:?}");
        }
    }

    #[test]
    fn fig21_ip_stability() {
        assert!(SolutionKind::SpaceCore.ip_stable_under_satellite_handover());
        assert!(SolutionKind::FiveGNtn.ip_stable_under_satellite_handover());
        for k in [SolutionKind::SkyCore, SolutionKind::Baoyun, SolutionKind::Dpcm] {
            assert!(!k.ip_stable_under_satellite_handover(), "{k:?}");
        }
    }

    #[test]
    fn rates_scale_linearly_with_capacity() {
        for s in all_solutions() {
            let r1 = s.sat_msgs_per_s(10_000);
            let r3 = s.sat_msgs_per_s(30_000);
            assert!((r3 / r1 - 3.0).abs() < 1e-9, "{:?}", s.kind);
        }
    }

    #[test]
    fn reduction_holds_across_constellations() {
        // Table 4's other rows: the reduction holds for Kuiper, OneWeb,
        // Iridium too (different magnitudes, same direction).
        for cfg in ConstellationConfig::all_presets() {
            let sc = Solution::new(SolutionKind::SpaceCore, cfg.clone()).sat_msgs_per_s(10_000);
            for k in SolutionKind::BASELINES {
                let b = Solution::new(k, cfg.clone()).sat_msgs_per_s(10_000);
                assert!(b / sc > 4.0, "{} {:?}: {}", cfg.name, k, b / sc);
            }
        }
    }
}
