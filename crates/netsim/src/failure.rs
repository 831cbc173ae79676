//! Failure and attack injection (§3.3, Figures 13 and 19).
//!
//! * [`LossProcess`] — Bernoulli i.i.d. signaling loss,
//! * [`GilbertElliott`] — two-state bursty frame-error process matching
//!   the Tiantong radio-link failure bursts of Figure 13b,
//! * [`AttackInjector`] — hijacked-satellite and man-in-the-middle tap
//!   markers of the Figure 19 threat model. No experiment reads them
//!   (Figure 19's leakage is `spacecore`'s analytic
//!   `Solution::hijack_leakage`); the root `tests/resilience.rs` checks
//!   that taps compose with real routes.
//!
//! Dead satellites (the Fig. 13a decay regime as much as mid-run
//! crashes) are [`crate::chaos::FailureTimeline`]'s business.
//!
//! All processes are deterministic given their seed (xorshift-based), so
//! failure experiments replay identically.

use std::collections::HashSet;

/// Deterministic xorshift64* RNG used by all failure processes.
#[derive(Debug, Clone)]
pub struct Xorshift64 {
    state: u64,
}

impl Xorshift64 {
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed.max(1),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform integer in [0, n).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// I.i.d. Bernoulli loss.
#[derive(Debug, Clone)]
pub struct LossProcess {
    p_loss: f64,
    rng: Xorshift64,
}

impl LossProcess {
    pub fn new(p_loss: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_loss));
        Self {
            p_loss,
            rng: Xorshift64::new(seed),
        }
    }

    /// Is the next transmission lost?
    pub fn lost(&mut self) -> bool {
        self.rng.chance(self.p_loss)
    }

    /// Configured loss probability.
    pub fn p_loss(&self) -> f64 {
        self.p_loss
    }
}

/// Gilbert–Elliott bursty loss: a good state with low loss and a bad
/// state with high loss, with geometric sojourns — the structure of the
/// frame-error bursts in Figure 13b.
#[derive(Debug, Clone)]
pub struct GilbertElliott {
    /// P(good → bad) per transmission.
    pub p_gb: f64,
    /// P(bad → good) per transmission.
    pub p_bg: f64,
    /// Loss probability in the good state.
    pub loss_good: f64,
    /// Loss probability in the bad state.
    pub loss_bad: f64,
    in_bad: bool,
    rng: Xorshift64,
}

impl GilbertElliott {
    pub fn new(p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64, seed: u64) -> Self {
        for p in [p_gb, p_bg, loss_good, loss_bad] {
            assert!((0.0..=1.0).contains(&p));
        }
        Self {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
            in_bad: false,
            rng: Xorshift64::new(seed),
        }
    }

    /// A profile fit to the Figure 13b trace: mostly clean with bursts
    /// reaching tens of percent frame error.
    pub fn tiantong_profile(seed: u64) -> Self {
        Self::new(0.005, 0.08, 0.002, 0.35, seed)
    }

    /// Advance one transmission; returns whether it was lost.
    pub fn lost(&mut self) -> bool {
        // State transition first, then loss draw in the new state.
        if self.in_bad {
            if self.rng.chance(self.p_bg) {
                self.in_bad = false;
            }
        } else if self.rng.chance(self.p_gb) {
            self.in_bad = true;
        }
        let p = if self.in_bad {
            self.loss_bad
        } else {
            self.loss_good
        };
        self.rng.chance(p)
    }

    /// Long-run loss rate implied by the chain's stationary distribution.
    pub fn stationary_loss(&self) -> f64 {
        let pi_bad = self.p_gb / (self.p_gb + self.p_bg);
        pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good
    }
}

/// Hijacked-satellite and tapped-link markers of the Figure 19 threat
/// model. The Figure 19 experiment (`sc-emu`'s `fig19`) does not use
/// them — it reads `spacecore`'s analytic `Solution::hijack_leakage` —
/// and their one caller outside this module's tests is the root
/// `tests/resilience.rs`, which taps a hop of a real route and routes
/// around it.
#[derive(Debug, Clone, Default)]
pub struct AttackInjector {
    hijacked: HashSet<usize>,
    /// Links with a passive listener, stored as (min, max) node pairs.
    tapped_links: HashSet<(usize, usize)>,
}

impl AttackInjector {
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark a satellite as hijacked: everything it stores or serves is
    /// readable by the adversary.
    pub fn hijack(&mut self, sat_node: usize) {
        self.hijacked.insert(sat_node);
    }

    pub fn is_hijacked(&self, node: usize) -> bool {
        self.hijacked.contains(&node)
    }

    pub fn hijacked_count(&self) -> usize {
        self.hijacked.len()
    }

    /// Tap a link for passive listening (man-in-the-middle without
    /// IPsec, Fig. 19b).
    pub fn tap_link(&mut self, a: usize, b: usize) {
        self.tapped_links.insert((a.min(b), a.max(b)));
    }

    pub fn is_tapped(&self, a: usize, b: usize) -> bool {
        self.tapped_links.contains(&(a.min(b), a.max(b)))
    }

    /// Does any hop of this path traverse a tapped link?
    pub fn path_tapped(&self, path: &[usize]) -> bool {
        path.windows(2).any(|w| self.is_tapped(w[0], w[1]))
    }

    /// Does any node of this path pass through a hijacked satellite?
    pub fn path_hijacked(&self, path: &[usize]) -> bool {
        path.iter().any(|n| self.is_hijacked(*n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_rate_converges() {
        let mut lp = LossProcess::new(0.1, 7);
        let n = 100_000;
        let losses = (0..n).filter(|_| lp.lost()).count();
        let rate = losses as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "{rate}");
    }

    #[test]
    fn zero_and_one_probability() {
        let mut never = LossProcess::new(0.0, 1);
        assert!((0..1000).all(|_| !never.lost()));
        let mut always = LossProcess::new(1.0, 1);
        assert!((0..1000).all(|_| always.lost()));
    }

    #[test]
    fn gilbert_elliott_bursty() {
        let mut ge = GilbertElliott::tiantong_profile(42);
        let n = 200_000;
        let mut losses = 0;
        let mut burst_transitions = 0;
        let mut prev_lost = false;
        let mut consecutive_after_loss = 0;
        for _ in 0..n {
            let l = ge.lost();
            if l {
                losses += 1;
                if prev_lost {
                    consecutive_after_loss += 1;
                }
            }
            if l != prev_lost {
                burst_transitions += 1;
            }
            prev_lost = l;
        }
        let rate = losses as f64 / n as f64;
        // Long-run rate near the stationary value.
        let expect = ge.stationary_loss();
        assert!((rate - expect).abs() < 0.01, "rate {rate} expect {expect}");
        // Burstiness: P(loss | previous loss) well above the marginal rate.
        let p_cond = consecutive_after_loss as f64 / losses as f64;
        assert!(p_cond > 2.0 * rate, "p_cond {p_cond} rate {rate}");
        assert!(burst_transitions > 0);
    }

    #[test]
    fn stationary_loss_formula() {
        let ge = GilbertElliott::new(0.01, 0.09, 0.0, 1.0, 1);
        assert!((ge.stationary_loss() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn attack_markers() {
        let mut atk = AttackInjector::new();
        atk.hijack(3);
        atk.tap_link(7, 2);
        assert!(atk.is_hijacked(3));
        assert!(!atk.is_hijacked(4));
        assert!(atk.is_tapped(2, 7)); // order-insensitive
        assert!(atk.path_tapped(&[1, 2, 7, 9]));
        assert!(!atk.path_tapped(&[1, 2, 9]));
        assert!(atk.path_hijacked(&[0, 3, 5]));
        assert!(!atk.path_hijacked(&[0, 5]));
        assert_eq!(atk.hijacked_count(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut ge = GilbertElliott::tiantong_profile(seed);
            (0..1000).map(|_| ge.lost()).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
