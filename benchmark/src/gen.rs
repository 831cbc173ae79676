//! Seeded input generation for the two serve workloads, and the
//! FNV-1a digest that lets two commits compare outputs exactly.
//!
//! Every draw is a pure hash of `(seed, client, repetition, visit)`,
//! so a visit's inputs do not depend on which thread runs it or on how
//! many repetitions the time budget allows.

use sc_emu::churn::mix64;

/// What a visit does. Every visit has exactly two timed operations
/// (see `serve.rs`); the kind decides which calls they are and what
/// outcome the harness expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisitKind {
    /// Local establishment, then handover to a second satellite.
    Local,
    /// The replica's TTL has passed: rollback, then a home refresh.
    Expired,
    /// Local establishment, then the UE crosses into another cell.
    Crossing,
    /// A fresh registration replaces the UE, then a local establishment.
    Fresh,
    /// An unauthorized satellite is tried first: rollback, then local.
    Unauthorized,
}

/// Cumulative shares of the `serve-mixed` traffic, per mille.
const MIX_PER_MILLE: [(u64, VisitKind); 5] = [
    (700, VisitKind::Local),
    (800, VisitKind::Expired),
    (880, VisitKind::Crossing),
    (950, VisitKind::Fresh),
    (1000, VisitKind::Unauthorized),
];

/// One in this many visits is decomposed into replica child spans when
/// the run is traced.
const SAMPLE_ONE_IN: u64 = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visit {
    /// Index into the client's own slice of UEs.
    pub ue: usize,
    /// Serving satellite, and the handover target (never equal).
    pub sat_a: usize,
    pub sat_b: usize,
    /// Index into the sampled positions (crossing target, fresh UE).
    pub pos: usize,
    pub kind: VisitKind,
    /// Whether a traced run decomposes this visit.
    pub sampled: bool,
}

/// Sizes the generator draws indices from.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub ues_per_client: usize,
    pub sats: usize,
    pub positions: usize,
    pub mixed: bool,
}

pub fn visit(seed: u64, client: u32, rep: u32, i: u32, shape: &Shape) -> Visit {
    let key = mix64(seed ^ mix64(((client as u64) << 56) ^ ((rep as u64) << 32) ^ i as u64));
    let draw = |n: u64| mix64(key.wrapping_add(n));
    let sat_a = (draw(1) % shape.sats as u64) as usize;
    let step = 1 + (draw(2) % (shape.sats as u64 - 1)) as usize;
    let kind = if shape.mixed {
        let m = draw(4) % 1000;
        MIX_PER_MILLE
            .iter()
            .find(|(upto, _)| m < *upto)
            .expect("shares end at 1000")
            .1
    } else {
        VisitKind::Local
    };
    Visit {
        ue: (draw(0) % shape.ues_per_client as u64) as usize,
        sat_a,
        sat_b: (sat_a + step) % shape.sats,
        pos: (draw(3) % shape.positions as u64) as usize,
        kind,
        sampled: draw(5) % SAMPLE_ONE_IN == 0,
    }
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

/// Digest of the first `n` visits' kinds and targets for one client
/// and repetition: the generator's fingerprint.
pub fn sequence_digest(seed: u64, shape: &Shape, n: u32) -> u64 {
    let mut h = Fnv::default();
    for i in 0..n {
        let v = visit(seed, 0, 1, i, shape);
        h.write(&[v.kind as u8, v.sat_a as u8, v.sat_b as u8]);
        h.write(&(v.ue as u32).to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        ues_per_client: 25_000,
        sats: 8,
        positions: 50_000,
        mixed: true,
    };

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let a = sequence_digest(7, &SHAPE, 10_000);
        assert_eq!(a, sequence_digest(7, &SHAPE, 10_000));
        assert_ne!(a, sequence_digest(8, &SHAPE, 10_000));
        let plain = Shape {
            mixed: false,
            ..SHAPE
        };
        assert_ne!(a, sequence_digest(7, &plain, 10_000));
    }

    #[test]
    fn visits_stay_in_range_and_handover_changes_satellite() {
        for i in 0..20_000 {
            let v = visit(3, 1, 2, i, &SHAPE);
            assert!(v.ue < SHAPE.ues_per_client && v.pos < SHAPE.positions);
            assert!(v.sat_a < SHAPE.sats && v.sat_b < SHAPE.sats);
            assert_ne!(v.sat_a, v.sat_b);
        }
    }

    #[test]
    fn mix_shares_match_the_stated_traffic() {
        let n = 200_000u32;
        let mut counts = [0u32; 5];
        let mut sampled = 0u32;
        for i in 0..n {
            let v = visit(11, 0, 1, i, &SHAPE);
            counts[v.kind as usize] += 1;
            sampled += v.sampled as u32;
        }
        let share = |k: VisitKind| counts[k as usize] as f64 / n as f64;
        assert!((share(VisitKind::Local) - 0.70).abs() < 0.01);
        assert!((share(VisitKind::Expired) - 0.10).abs() < 0.01);
        assert!((share(VisitKind::Crossing) - 0.08).abs() < 0.01);
        assert!((share(VisitKind::Fresh) - 0.07).abs() < 0.01);
        assert!((share(VisitKind::Unauthorized) - 0.05).abs() < 0.01);
        assert!((sampled as f64 / n as f64 - 0.01).abs() < 0.002);
        let plain = Shape {
            mixed: false,
            ..SHAPE
        };
        assert!((0..1000).all(|i| visit(11, 0, 1, i, &plain).kind == VisitKind::Local));
    }
}
