//! Crash-recovery semantics per solution (§3.3, Fig. 13).
//!
//! The failure the paper's §3.3 demonstrates: the *serving* satellite
//! dies mid-session (decay, Fig. 13a, or destruction). What happens next
//! depends entirely on where the session state lives:
//!
//! * **SpaceCore** — the state is self-carried by the UE (encrypted,
//!   home-signed replica), so the next visible satellite re-establishes
//!   the session *locally* with the exchange of Fig. 16a
//!   (`ProcedureKind::LocalEstablishment`). The geospatial IP address
//!   survives because it was never bound to the dead satellite.
//! * **5G NTN** — the radio context dies with the satellite, but the
//!   core state is home-anchored: the UE redoes the full home-routed
//!   session establishment (the Fig. 9b C2 table, multiple home
//!   round-trips) across the fragile ISL fabric. The IP survives *if*
//!   that long exchange completes within the service deadline.
//! * **SkyCore** — states are pre-replicated to neighbors, so the new
//!   satellite re-installs locally — but the UE's logical IP was bound
//!   to the dead satellite's in-orbit core (Fig. 21): connections break
//!   regardless of how fast re-installation is.
//! * **Baoyun / DPCM** — serving-core state is satellite-resident and
//!   gone; the UE must redo the home-routed registration *and* its IP
//!   changes (logical service areas). Sessions never survive.
//!
//! [`RecoveryPlan`] exposes these per-solution semantics for the
//! `ext_chaos` experiment, which replays the recovery exchange over the
//! chaos-injected constellation and scores session survival. For the
//! million-UE chaos soak (`ext_chaosload`), `shard::ProcedureCosts`
//! bills each re-establishment from the same step tables and
//! [`RetryBudget`] paces the correlated re-registration storm a
//! satellite crash triggers.

use crate::satellite::LEGACY_C2_HOME_ROUND_TRIPS;
use crate::solutions::SolutionKind;
use sc_fiveg::messages::{Procedure, ProcedureKind};

/// How a solution recovers a session after its serving satellite crashes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPlan {
    /// Can the UE's IP address (and hence its transport sessions)
    /// survive at all, assuming the recovery exchange completes?
    /// False when the address was bound to the dead satellite (Fig. 21).
    pub ip_survives: bool,
    /// Recovery is served locally at the new satellite (no home
    /// round-trip on the critical path).
    pub local: bool,
    /// Signaling messages of the recovery exchange.
    pub messages: u32,
    /// Round-trips to the terrestrial home on the critical path.
    pub home_round_trips: u32,
    /// Time for the UE/network to detect the serving-satellite loss and
    /// start recovery, ms. Stateless re-establishment begins as soon as
    /// the UE syncs to the next visible satellite; stateful designs wait
    /// out radio-link-failure timers and core-side context teardown.
    pub detection_delay_ms: f64,
}

impl RecoveryPlan {
    /// The recovery semantics of `kind` (see module docs for rationale).
    pub fn for_solution(kind: SolutionKind) -> Self {
        let messages = |k| Procedure::build(k).message_count() as u32;
        match kind {
            SolutionKind::SpaceCore => Self {
                ip_survives: true,
                local: true,
                messages: messages(ProcedureKind::LocalEstablishment),
                home_round_trips: 0,
                detection_delay_ms: 200.0,
            },
            SolutionKind::FiveGNtn => Self {
                ip_survives: true, // home-anchored address (Fig. 21)
                local: false,
                messages: messages(ProcedureKind::SessionEstablishment), // full C2 re-run
                home_round_trips: LEGACY_C2_HOME_ROUND_TRIPS,
                detection_delay_ms: 1_000.0,
            },
            SolutionKind::SkyCore => Self {
                ip_survives: false, // address died with the in-orbit core
                local: true,        // pre-replicated contexts
                messages: 6,
                home_round_trips: 0,
                detection_delay_ms: 1_000.0,
            },
            SolutionKind::Baoyun => Self {
                ip_survives: false,
                local: false,
                messages: messages(ProcedureKind::SessionEstablishment),
                home_round_trips: 5,
                detection_delay_ms: 1_000.0,
            },
            SolutionKind::Dpcm => Self {
                ip_survives: false, // logical service areas (Fig. 21)
                local: false,
                messages: 10, // device replica shortens, home still decides
                home_round_trips: 2,
                detection_delay_ms: 600.0,
            },
        }
    }

    /// Can a session survive this crash at all? The recovery exchange
    /// still has to complete in time; this is the necessary condition.
    pub fn can_survive(&self) -> bool {
        self.ip_survives
    }
}

/// Retry-budget policy for the correlated re-registration storm after a
/// satellite crash: a per-cell token bucket plus jittered exponential
/// backoff, expressed so that admission decisions are **stateless** —
/// a pure function of the crash instant, the UE's hash, and the attempt
/// number.
///
/// A classic first-come-first-served bucket would make admission order
/// (and therefore results) depend on the order in which UEs reach the
/// bucket; instead each affected UE hashes into one of `tokens` refill
/// slots, so the bucket drains at `1/token_interval_s` tokens per second
/// per cell without any UE observing another.
#[derive(Debug, Clone, Copy)]
pub struct RetryBudget {
    /// Loss-detection delay before the first token is claimable, s.
    /// Kept at one batch window (≥ the engines' `MIN_DELAY_S`) so the
    /// paced retries honor the drain-batching contract; the plan-level
    /// 200 ms detection is quantized up to it.
    pub detect_s: f64,
    /// Bucket refill: one token per interval per cell, s.
    pub token_interval_s: f64,
    /// Bucket depth: hash-slots a cell's storm spreads over.
    pub tokens: u32,
    /// Attempts before the budget is exhausted and the session is
    /// declared lost.
    pub max_attempts: u32,
    /// First backoff step, s (grows by `backoff_factor` per retry).
    pub backoff_base_s: f64,
    pub backoff_factor: f64,
    /// Backoff ceiling, s.
    pub backoff_cap_s: f64,
}

impl RetryBudget {
    /// The defaults the chaos soak runs with: 10 admissions/s/cell
    /// spread over 128 slots, six attempts, 1.5 s → 6 s backoff.
    pub fn paper_defaults() -> Self {
        Self {
            detect_s: 1.0,
            token_interval_s: 0.1,
            tokens: 128,
            max_attempts: 6,
            backoff_base_s: 1.5,
            backoff_factor: 2.0,
            backoff_cap_s: 6.0,
        }
    }

    /// The refill slot a UE hash claims — stateless admission.
    pub fn slot(&self, hash: u64) -> u32 {
        (hash % self.tokens.max(1) as u64) as u32
    }

    /// Offset from the crash instant to the UE's first paced attempt:
    /// detection, then the claimed slot's refill time, jittered within
    /// the slot (`jitter` ∈ [0, 1)) so attempts do not align on slot
    /// boundaries.
    pub fn first_attempt_s(&self, slot: u32, jitter: f64) -> f64 {
        self.detect_s + (slot as f64 + jitter) * self.token_interval_s
    }

    /// Paced delay for a *barred* fresh admission: while a cell is
    /// overloaded the satellite broadcasts access-class barring, and
    /// new-session requests re-enter the bucket on a half-rate lane —
    /// recovery traffic keeps priority for the full token rate.
    pub fn admission_attempt_s(&self, slot: u32, jitter: f64) -> f64 {
        self.detect_s + (slot as f64 + jitter) * self.token_interval_s * 2.0
    }

    /// Jittered exponential backoff before retry `retry` (1-based):
    /// `base · factor^(retry−1)` capped, scaled by ±25% jitter.
    pub fn backoff_s(&self, retry: u32, jitter: f64) -> f64 {
        let exp = self.backoff_factor.powi(retry.saturating_sub(1).min(16) as i32);
        (self.backoff_base_s * exp).min(self.backoff_cap_s) * (0.75 + 0.5 * jitter)
    }

    /// Worst-case pacing spread: time for the bucket to admit every
    /// slot once.
    pub fn spread_s(&self) -> f64 {
        self.detect_s + self.tokens as f64 * self.token_interval_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_spacecore_recovers_locally_with_a_stable_ip() {
        let sc = RecoveryPlan::for_solution(SolutionKind::SpaceCore);
        assert!(sc.ip_survives && sc.local);
        assert_eq!(sc.home_round_trips, 0);
        for k in SolutionKind::BASELINES {
            let p = RecoveryPlan::for_solution(k);
            assert!(
                !(p.ip_survives && p.local),
                "{k:?} must not match SpaceCore's local+stable recovery"
            );
        }
    }

    #[test]
    fn survival_matches_fig21_ip_stability() {
        // A session can only survive a serving-satellite crash if the
        // address survives a serving-satellite *change* — same Fig. 21
        // property the handover experiment checks.
        for k in SolutionKind::ALL {
            assert_eq!(
                RecoveryPlan::for_solution(k).can_survive(),
                k.ip_stable_under_satellite_handover(),
                "{k:?}"
            );
        }
    }

    #[test]
    fn spacecore_recovery_is_cheapest_and_fastest_to_start() {
        let sc = RecoveryPlan::for_solution(SolutionKind::SpaceCore);
        assert_eq!(sc.messages, 4, "Fig. 16a message count");
        for k in SolutionKind::BASELINES {
            let p = RecoveryPlan::for_solution(k);
            assert!(sc.messages < p.messages, "{k:?}");
            assert!(sc.detection_delay_ms < p.detection_delay_ms, "{k:?}");
        }
    }

    #[test]
    fn recovery_costs_mirror_the_plans() {
        // The chaos soak bills re-establishments from `ProcedureCosts`;
        // those counts must be the ones the plans replay.
        let c = crate::shard::ProcedureCosts::paper();
        let plan = |k| RecoveryPlan::for_solution(k).messages;
        assert_eq!(c.local_establishment, 4, "Fig. 16a local re-establishment");
        assert_eq!(c.legacy_establishment, 13, "full C2 re-run");
        assert_eq!(c.local_establishment, plan(SolutionKind::SpaceCore));
        assert_eq!(c.legacy_establishment, plan(SolutionKind::FiveGNtn));
        assert!(c.recovery_probe < c.local_establishment);
    }

    #[test]
    fn retry_budget_slots_pace_and_backoff_grows() {
        let b = RetryBudget::paper_defaults();
        // Slots cover [0, tokens) and pace at one per interval.
        for h in [0u64, 1, 127, 128, 12_345_678, u64::MAX] {
            assert!(b.slot(h) < b.tokens);
        }
        assert!(b.first_attempt_s(0, 0.0) >= b.detect_s);
        let gap = b.first_attempt_s(1, 0.5) - b.first_attempt_s(0, 0.5);
        assert!((gap - b.token_interval_s).abs() < 1e-12);
        assert!(b.first_attempt_s(b.tokens - 1, 0.999) <= b.spread_s());
        // Backoff: monotone up to the cap, jitter within ±25%.
        let mut prev = 0.0;
        for retry in 1..=b.max_attempts {
            let s = b.backoff_s(retry, 0.5);
            assert!(s >= prev);
            assert!(s <= b.backoff_cap_s * 1.25 + 1e-12);
            prev = s;
        }
        assert!(b.backoff_s(1, 0.0) >= 0.75 * b.backoff_base_s);
        // Huge retry counts saturate instead of overflowing the exponent.
        assert_eq!(b.backoff_s(1_000, 0.5), b.backoff_s(17, 0.5));
    }

    #[test]
    fn home_routed_plans_pay_round_trips() {
        // sc-audit: allow(unordered, reason = "per-plan assertions are independent of iteration order")
        for k in SolutionKind::ALL {
            let p = RecoveryPlan::for_solution(k);
            if p.local {
                assert_eq!(p.home_round_trips, 0, "{k:?}");
            } else {
                assert!(p.home_round_trips >= 2, "{k:?}");
            }
        }
    }
}
