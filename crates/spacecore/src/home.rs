//! The terrestrial home network (§4.2 initial registration, §4.4
//! home-controlled state updates, §4.5 space-terrestrial integration).
//!
//! The home is a legacy 5G core plus three SpaceCore extensions:
//!
//! 1. geospatial IP allocation by cell (Fig. 15c),
//! 2. policy-based UE state encryption (ABE) and signing, and
//! 3. exclusive authority over state updates: the home is "the only
//!    entity that can update all states except S2 and S5".

use crate::uestate::UeDevice;
use parking_lot::Mutex;
use sc_crypto::policy::{attr_set, AccessTree};
use sc_crypto::statecrypt::{EncryptedUeState, HomeCrypto, SatCredentials};
use sc_fiveg::ids::{PlmnId, Supi};
use sc_fiveg::state::SessionState;
use sc_geo::addr::{GeoAddress, SuffixAllocator};
use sc_geo::cells::CellGrid;
use sc_geo::sphere::GeoPoint;
use sc_orbit::{ConstellationConfig, SatId};

/// Home-network configuration.
#[derive(Debug, Clone)]
pub struct HomeConfig {
    /// The operator's PLMN.
    pub plmn: PlmnId,
    /// The constellation shell the operator leases/owns (defines the
    /// geospatial grid).
    pub constellation: ConstellationConfig,
    /// TTL on delegated UE states, seconds (Appendix B replay defence).
    pub state_ttl_s: f64,
    /// Access policy for serving satellites. The per-UE policy is this
    /// OR the UE's own SUPI attribute.
    pub satellite_policy: AccessTree,
    /// Deterministic crypto seed.
    pub seed: u64,
}

impl Default for HomeConfig {
    fn default() -> Self {
        Self {
            plmn: PlmnId::new(460, 1),
            constellation: ConstellationConfig::starlink(),
            state_ttl_s: 3600.0,
            satellite_policy: AccessTree::all_of(&["role:satellite", "authorized"]),
            seed: 0x5face,
        }
    }
}

/// The terrestrial home network.
#[derive(Debug)]
pub struct HomeNetwork {
    cfg: HomeConfig,
    crypto: HomeCrypto,
    grid: CellGrid,
    alloc: Mutex<SuffixAllocator>,
    /// A B-tree: it grows a node at a time as UEs register, where a hash
    /// table doubles — rehashing every entry under the lock, and stepping
    /// the process's peak memory (by 17 MB past 458 752 entries) at a
    /// population set by how long the home has been running.
    // sc-audit: allow(state-flow, reason = "ground-home replica version counters — the terrestrial freshness anchor for UE-carried state (Algorithm 1); never launched")
    versions: Mutex<std::collections::BTreeMap<Supi, u32>>,
}

impl HomeNetwork {
    pub fn new(cfg: HomeConfig) -> Self {
        let crypto = HomeCrypto::setup(cfg.seed);
        let grid = cfg.constellation.cell_grid();
        Self {
            cfg,
            crypto,
            grid,
            alloc: Mutex::new(SuffixAllocator::new()),
            versions: Mutex::new(std::collections::BTreeMap::new()),
        }
    }

    /// The home's configuration.
    pub fn config(&self) -> &HomeConfig {
        &self.cfg
    }

    /// The geospatial cell grid anchored to the shell.
    pub fn cell_grid(&self) -> CellGrid {
        self.grid.clone()
    }

    /// DH group parameters embedded in delegated states.
    pub fn dh_params(&self) -> sc_crypto::dh::DhParams {
        self.crypto.dh_params()
    }

    /// Certificate-verification key carried by UEs.
    pub fn cert_verify_key(&self) -> u64 {
        self.crypto.cert_verify_key()
    }

    /// The home crypto authority (needed by satellite agents for
    /// envelope verification).
    pub fn crypto(&self) -> &HomeCrypto {
        &self.crypto
    }

    /// Home cell of the operator's core (where the grid places the
    /// first ground-station site; informational, used in addresses).
    fn home_cell(&self) -> sc_geo::cells::CellId {
        // Anchor the home at Beijing (the paper's testbed home).
        self.grid.cell_of_point(&GeoPoint::from_degrees(39.9, 116.4))
    }

    /// The per-UE access tree: the satellite policy OR the UE itself.
    fn ue_policy(&self, supi: Supi) -> AccessTree {
        AccessTree::Or(vec![
            self.cfg.satellite_policy.clone(),
            AccessTree::And(vec![
                AccessTree::leaf("role:ue"),
                AccessTree::leaf(format!("supi:{}", supi.0)),
            ]),
        ])
    }

    /// C1 — initial registration (Fig. 9a, run through the home as in
    /// legacy 5G), followed by SpaceCore's state delegation: allocate the
    /// geospatial address, encrypt the session state under the access
    /// policy, and hand the replica to the device.
    pub fn register_ue(&self, msin: u64, position: &GeoPoint) -> UeDevice {
        let supi = Supi::new(self.cfg.plmn, msin);
        let ue_cell = self.grid.cell_of_point(position);
        let suffix = self.alloc.lock().allocate(ue_cell);
        let address = GeoAddress::new(self.cfg.plmn.pack(), self.home_cell(), ue_cell, suffix);

        let mut session = SessionState::sample(msin);
        session.location.cell = ue_cell;
        session.location.geo = Some(address);
        session.location.ip = address.encode();

        let version = 1u32;
        self.versions.lock().insert(supi, version);
        // Registration issues at t = 0.
        let replica = self.encrypt_for(&session, supi, version, self.cfg.state_ttl_s);
        let creds = self
            .crypto
            .provision_ue(&attr_set(&["role:ue", &format!("supi:{}", supi.0)]));
        UeDevice::new(supi, *position, address, session, replica, creds)
    }

    /// Encrypt `session` as `supi`'s replica `version`, fresh until
    /// `expires_at`: `state_ttl_s` after its issue time when the caller
    /// has a clock, else the expiry of the replica it replaces — a
    /// re-issue without a clock never extends freshness.
    fn encrypt_for(
        &self,
        session: &SessionState,
        supi: Supi,
        version: u32,
        expires_at: f64,
    ) -> EncryptedUeState {
        let policy = self.ue_policy(supi);
        self.crypto.encrypt_state(
            &session.encode(),
            &policy,
            version,
            expires_at,
            supi.0 ^ (version as u64) << 32,
        )
    }

    /// Provision a satellite before launch (Algorithm 2 line 3).
    pub fn provision_satellite(&self, sat: SatId) -> SatCredentials {
        let identity = (sat.plane as u64) << 16 | sat.slot as u64;
        self.crypto
            .provision_satellite(identity, &attr_set(&["role:satellite", "authorized"]))
    }

    /// Provision a satellite with *custom* attributes (used to model
    /// unauthorized or revoked satellites in tests and the Fig. 19
    /// experiments).
    pub fn provision_satellite_with_attrs(
        &self,
        sat: SatId,
        attrs: &[&str],
    ) -> SatCredentials {
        let identity = (sat.plane as u64) << 16 | sat.slot as u64;
        self.crypto.provision_satellite(identity, &attr_set(attrs))
    }

    /// §4.4 — home-controlled state update: bump the version, re-encrypt,
    /// re-sign. Returns the new plaintext + replica to push to the UE,
    /// fresh for `state_ttl_s` from `now`.
    pub fn refresh_state(&self, ue: &UeDevice, now: f64) -> (SessionState, EncryptedUeState) {
        let mut versions = self.versions.lock();
        let v = versions.entry(ue.supi).or_insert(1);
        *v += 1;
        let replica = self.encrypt_for(&ue.session, ue.supi, *v, now + self.cfg.state_ttl_s);
        (ue.session.clone(), replica)
    }

    /// §4.4 — apply a usage report from a serving satellite and, if the
    /// quota boundary was crossed, emit an updated (possibly throttled)
    /// state, as fresh as the replica it replaces. Only the home may
    /// update S3/S4.
    pub fn apply_usage_report(
        &self,
        ue: &mut UeDevice,
        bytes_used: u64,
    ) -> Option<EncryptedUeState> {
        let was_over = ue.session.billing.over_quota();
        ue.session.billing.used_bytes += bytes_used;
        let now_over = ue.session.billing.over_quota();
        if was_over == now_over {
            return None;
        }
        // Quota crossed: throttle via a state update.
        ue.session.qos.ambr_kbps = ue.session.billing.post_quota_kbps;
        let mut versions = self.versions.lock();
        let v = versions.entry(ue.supi).or_insert(1);
        *v += 1;
        let replica = self.encrypt_for(&ue.session, ue.supi, *v, ue.replica.expires_at);
        Some(replica)
    }

    /// §4.3 — UE crossed into a new geospatial cell: re-allocate the
    /// address (standard C4 through the home) and refresh the state, as
    /// fresh as the replica it replaces.
    pub fn handle_cell_crossing(&self, ue: &mut UeDevice) -> EncryptedUeState {
        let new_cell = self.grid.cell_of_point(&ue.position);
        let suffix = self.alloc.lock().allocate(new_cell);
        ue.address = ue.address.with_ue_cell(new_cell, suffix);
        ue.session.location.cell = new_cell;
        ue.session.location.geo = Some(ue.address);
        ue.session.location.ip = ue.address.encode();
        let mut versions = self.versions.lock();
        let v = versions.entry(ue.supi).or_insert(1);
        *v += 1;
        self.encrypt_for(&ue.session, ue.supi, *v, ue.replica.expires_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn home() -> HomeNetwork {
        HomeNetwork::new(HomeConfig::default())
    }

    #[test]
    fn registration_allocates_geospatial_address() {
        let h = home();
        let p = GeoPoint::from_degrees(31.2, 121.5); // Shanghai
        let ue = h.register_ue(7, &p);
        let expect_cell = h.cell_grid().cell_of_point(&p);
        assert_eq!(ue.address.ue_cell, expect_cell);
        assert_eq!(ue.session.location.geo, Some(ue.address));
        assert_eq!(ue.session.location.ip, ue.address.encode());
    }

    #[test]
    fn suffixes_unique_within_cell() {
        let h = home();
        let p = GeoPoint::from_degrees(31.2, 121.5);
        let a = h.register_ue(1, &p);
        let b = h.register_ue(2, &p);
        assert_eq!(a.address.ue_cell, b.address.ue_cell);
        assert_ne!(a.address.suffix, b.address.suffix);
    }

    #[test]
    fn replica_decryptable_by_owner_ue() {
        let h = home();
        let ue = h.register_ue(9, &GeoPoint::from_degrees(40.0, -100.0));
        let plain =
            sc_crypto::abe::AbeSystem::decrypt(&ue.replica.ciphertext, &ue.credentials.sk)
                .expect("UE can decrypt its own replica");
        let decoded = SessionState::decode(&plain).expect("valid codec");
        assert_eq!(decoded, ue.session);
    }

    #[test]
    fn replica_decryptable_by_authorized_satellite_only() {
        let h = home();
        let ue = h.register_ue(10, &GeoPoint::from_degrees(40.0, -100.0));
        let good = h.provision_satellite(SatId::new(1, 1));
        assert!(sc_crypto::abe::AbeSystem::decrypt(&ue.replica.ciphertext, &good.sk).is_ok());
        let bad = h.provision_satellite_with_attrs(SatId::new(2, 2), &["role:satellite"]);
        assert!(sc_crypto::abe::AbeSystem::decrypt(&ue.replica.ciphertext, &bad.sk).is_err());
    }

    #[test]
    fn usage_report_triggers_throttle_exactly_once() {
        let h = home();
        let mut ue = h.register_ue(11, &GeoPoint::from_degrees(10.0, 10.0));
        let quota = ue.session.billing.quota_bytes;
        assert!(h.apply_usage_report(&mut ue, quota / 2).is_none());
        let update = h.apply_usage_report(&mut ue, quota).expect("quota crossed");
        assert!(update.version > ue.replica.version);
        assert_eq!(ue.session.qos.ambr_kbps, ue.session.billing.post_quota_kbps);
        // Further usage past quota: no more updates.
        assert!(h.apply_usage_report(&mut ue, 1000).is_none());
    }

    #[test]
    fn cell_crossing_reallocates_address() {
        let h = home();
        let mut ue = h.register_ue(12, &GeoPoint::from_degrees(40.0, 116.0));
        let old_addr = ue.address;
        let crossed = ue.move_to(&h.cell_grid(), GeoPoint::from_degrees(-30.0, 20.0));
        assert!(crossed);
        let replica = h.handle_cell_crossing(&mut ue);
        assert_ne!(ue.address.ue_cell, old_addr.ue_cell);
        assert_eq!(ue.address.plmn, old_addr.plmn);
        assert!(replica.version >= 2);
        ue.install_update(ue.session.clone(), replica).unwrap();
    }

    #[test]
    fn versions_monotone_per_ue() {
        let h = home();
        let ue = h.register_ue(13, &GeoPoint::from_degrees(0.0, 0.0));
        let (_, r1) = h.refresh_state(&ue, 0.0);
        let (_, r2) = h.refresh_state(&ue, 1.0);
        assert!(r2.version > r1.version);
        assert!(r1.version > ue.replica.version);
    }
}
