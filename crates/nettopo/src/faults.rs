//! Scheduled fault plans: scripted outages, brownouts and loss episodes.
//!
//! The paper measures a *healthy* content-distribution platform; this
//! module supplies the machinery to measure an unhealthy one. A
//! [`FaultPlan`] is a seed-independent, fully scripted schedule of fault
//! windows over the entities of a service scenario — front-end servers,
//! back-end sites and individual paths — expressed in **scenario indices**
//! (the position of an FE or BE in the placement lists), not simulator
//! node ids. The service layer translates the plan into packet-level
//! mechanics (`tcpsim::LinkFault`, connection aborts) and control-plane
//! behaviour (health-aware DNS, failover) when the simulation is built.
//!
//! All windows are half-open `[start, end)`. An empty plan is the
//! default and must leave every simulation trajectory byte-identical to
//! a build without the fault subsystem at all.

use simcore::time::SimTime;

/// Parameters of a Gilbert–Elliott burst-loss episode.
///
/// The chain advances once per matching packet: in the *good* state a
/// packet may flip the chain to *bad* with probability `p_enter`; in the
/// *bad* state it may flip back with probability `p_exit`; packets
/// observed in the bad state are dropped with probability `bad_loss`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstLossParams {
    /// Probability of entering the bad (bursty) state, per packet.
    pub p_enter: f64,
    /// Probability of leaving the bad state, per packet.
    pub p_exit: f64,
    /// Drop probability while in the bad state.
    pub bad_loss: f64,
}

impl BurstLossParams {
    /// A moderately bursty episode: short bad runs with heavy in-burst
    /// loss — the classic access-network interference signature.
    pub fn moderate() -> BurstLossParams {
        BurstLossParams {
            p_enter: 0.02,
            p_exit: 0.25,
            bad_loss: 0.5,
        }
    }

    /// Advances the Gilbert–Elliott chain one packet and reports whether
    /// that packet is dropped. `bad` is the chain state (false = good);
    /// the RNG draw order (exit-or-enter first, then the in-bad loss
    /// coin) matches the packet-level implementation in `tcpsim`, so the
    /// reference semantics are testable here without a simulator.
    pub fn advance(&self, bad: &mut bool, rng: &mut simcore::rng::Rng) -> bool {
        if *bad {
            if rng.chance(self.p_exit) {
                *bad = false;
            }
        } else if rng.chance(self.p_enter) {
            *bad = true;
        }
        *bad && rng.chance(self.bad_loss)
    }
}

/// What fails during a [`FaultWindow`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// A front-end server is completely unreachable: its node blackholes
    /// all traffic and health-aware DNS steers new queries away once the
    /// previous answer's TTL expires.
    FeOutage {
        /// Scenario index of the front-end.
        fe: usize,
    },
    /// A front-end is degraded but alive: request processing is slowed by
    /// `slowdown` (> 1.0). DNS keeps mapping clients to it.
    FeBrownout {
        /// Scenario index of the front-end.
        fe: usize,
        /// Multiplier applied to FE processing delays (must be >= 1.0).
        slowdown: f64,
    },
    /// A back-end site is down: its node blackholes all traffic, so
    /// front-ends fail over to their next-nearest live site.
    BeOutage {
        /// Scenario index of the back-end site.
        be: usize,
    },
    /// The persistent FE↔BE connections between one front-end and one
    /// back-end are dropped at the window start (the window length is
    /// irrelevant): pooled connections are aborted and the next fetch
    /// pays a cold reconnect.
    ConnDrop {
        /// Scenario index of the front-end.
        fe: usize,
        /// Scenario index of the back-end site.
        be: usize,
    },
    /// A Gilbert–Elliott burst-loss episode on one client's access path
    /// to a front-end.
    ClientBurstLoss {
        /// Scenario index of the client (vantage point).
        client: usize,
        /// Scenario index of the front-end.
        fe: usize,
        /// Episode parameters.
        params: BurstLossParams,
    },
    /// A front-end loses serving capacity without slowing individual
    /// requests: the concurrency knee of the service's load model is
    /// scaled by `factor` (in (0, 1]) while the window is active — e.g.
    /// half the worker pool crashes. Only meaningful when the service
    /// config enables a load model; inert otherwise.
    FeCapacityDip {
        /// Scenario index of the front-end.
        fe: usize,
        /// Multiplier on the FE's load-model capacity (0 < factor <= 1).
        factor: f64,
    },
}

/// One scheduled fault: a [`FaultKind`] active over `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultWindow {
    /// What fails.
    pub kind: FaultKind,
    /// When the fault begins (inclusive).
    pub start: SimTime,
    /// When the fault ends (exclusive).
    pub end: SimTime,
}

impl FaultWindow {
    /// True if the window is active at `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// A scripted schedule of fault windows for one scenario run.
///
/// The plan is deliberately *not* randomized: reproducing a failure
/// episode exactly — same outage, same second — is what makes the
/// recovery behaviour assertable in tests and experiments. Randomness
/// only enters through burst-loss episodes, which draw from the
/// simulator's dedicated fault RNG stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan: no faults, byte-identical trajectories.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// True if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// All scheduled windows, in insertion order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    fn push(mut self, kind: FaultKind, start: SimTime, end: SimTime) -> FaultPlan {
        assert!(start <= end, "fault window must not end before it starts");
        self.windows.push(FaultWindow { kind, start, end });
        self
    }

    /// Schedules a complete outage of front-end `fe` over `[start, end)`.
    pub fn fe_outage(self, fe: usize, start: SimTime, end: SimTime) -> FaultPlan {
        self.push(FaultKind::FeOutage { fe }, start, end)
    }

    /// Schedules a brownout of front-end `fe`: processing slowed by
    /// `slowdown` (>= 1.0) over `[start, end)`.
    pub fn fe_brownout(self, fe: usize, start: SimTime, end: SimTime, slowdown: f64) -> FaultPlan {
        assert!(slowdown >= 1.0, "a brownout slows processing down");
        self.push(FaultKind::FeBrownout { fe, slowdown }, start, end)
    }

    /// Schedules a complete outage of back-end site `be` over
    /// `[start, end)`.
    pub fn be_outage(self, be: usize, start: SimTime, end: SimTime) -> FaultPlan {
        self.push(FaultKind::BeOutage { be }, start, end)
    }

    /// Drops the persistent connections between front-end `fe` and
    /// back-end `be` at time `at`.
    pub fn conn_drop(self, fe: usize, be: usize, at: SimTime) -> FaultPlan {
        self.push(FaultKind::ConnDrop { fe, be }, at, at)
    }

    /// Schedules a burst-loss episode on client `client`'s path to
    /// front-end `fe` over `[start, end)`.
    pub fn client_burst_loss(
        self,
        client: usize,
        fe: usize,
        start: SimTime,
        end: SimTime,
        params: BurstLossParams,
    ) -> FaultPlan {
        self.push(
            FaultKind::ClientBurstLoss { client, fe, params },
            start,
            end,
        )
    }

    /// True if front-end `fe` is in a full-outage window at `t`.
    pub fn fe_down(&self, fe: usize, t: SimTime) -> bool {
        self.windows
            .iter()
            .any(|w| matches!(w.kind, FaultKind::FeOutage { fe: f } if f == fe) && w.active_at(t))
    }

    /// True if back-end site `be` is in an outage window at `t`.
    pub fn be_down(&self, be: usize, t: SimTime) -> bool {
        self.windows
            .iter()
            .any(|w| matches!(w.kind, FaultKind::BeOutage { be: b } if b == be) && w.active_at(t))
    }

    /// Schedules a capacity dip of front-end `fe`: its load-model
    /// concurrency knee is scaled by `factor` over `[start, end)`.
    pub fn fe_capacity_dip(
        self,
        fe: usize,
        start: SimTime,
        end: SimTime,
        factor: f64,
    ) -> FaultPlan {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "a capacity dip removes capacity: factor must be in (0, 1]"
        );
        self.push(FaultKind::FeCapacityDip { fe, factor }, start, end)
    }

    /// Combined load-model capacity factor of front-end `fe` at `t`: the
    /// product of all active capacity-dip windows (1.0 when healthy).
    pub fn fe_capacity_factor(&self, fe: usize, t: SimTime) -> f64 {
        self.windows
            .iter()
            .filter_map(|w| match w.kind {
                FaultKind::FeCapacityDip { fe: f, factor } if f == fe && w.active_at(t) => {
                    Some(factor)
                }
                _ => None,
            })
            .product::<f64>()
            .min(1.0)
    }

    /// Combined processing slowdown of front-end `fe` at `t`: the product
    /// of all active brownout windows (1.0 when healthy).
    pub fn fe_slowdown(&self, fe: usize, t: SimTime) -> f64 {
        self.windows
            .iter()
            .filter_map(|w| match w.kind {
                FaultKind::FeBrownout { fe: f, slowdown } if f == fe && w.active_at(t) => {
                    Some(slowdown)
                }
                _ => None,
            })
            .product::<f64>()
            .max(1.0)
    }

    /// True if *any* window (of any kind) ever targets front-end `fe` with
    /// a full outage — used to decide whether DNS must bother with health
    /// checks at all.
    pub fn has_fe_outages(&self) -> bool {
        self.windows
            .iter()
            .any(|w| matches!(w.kind, FaultKind::FeOutage { .. }))
    }

    /// True if any window ever targets a back-end site with an outage.
    pub fn has_be_outages(&self) -> bool {
        self.windows
            .iter()
            .any(|w| matches!(w.kind, FaultKind::BeOutage { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn empty_plan_reports_everything_healthy() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(!plan.fe_down(0, t(10)));
        assert!(!plan.be_down(0, t(10)));
        assert_eq!(plan.fe_slowdown(0, t(10)), 1.0);
        assert!(!plan.has_fe_outages());
        assert!(!plan.has_be_outages());
    }

    #[test]
    fn windows_are_half_open() {
        let plan = FaultPlan::new().fe_outage(3, t(10), t(20));
        assert!(!plan.fe_down(3, t(9)));
        assert!(plan.fe_down(3, t(10)));
        assert!(plan.fe_down(3, t(19)));
        assert!(!plan.fe_down(3, t(20)));
        // A different FE is unaffected.
        assert!(!plan.fe_down(2, t(15)));
    }

    #[test]
    fn brownout_slowdowns_compose_multiplicatively() {
        let plan = FaultPlan::new()
            .fe_brownout(1, t(0), t(100), 2.0)
            .fe_brownout(1, t(50), t(100), 3.0);
        assert_eq!(plan.fe_slowdown(1, t(10)), 2.0);
        assert_eq!(plan.fe_slowdown(1, t(60)), 6.0);
        assert_eq!(plan.fe_slowdown(1, t(200)), 1.0);
        assert_eq!(plan.fe_slowdown(0, t(60)), 1.0);
    }

    #[test]
    fn outage_presence_flags() {
        let plan = FaultPlan::new().be_outage(0, t(5), t(6));
        assert!(!plan.has_fe_outages());
        assert!(plan.has_be_outages());
        let plan = plan.fe_outage(1, t(7), t(8));
        assert!(plan.has_fe_outages());
    }

    #[test]
    fn conn_drop_is_a_point_event() {
        let plan = FaultPlan::new().conn_drop(2, 1, t(30));
        let w = plan.windows()[0];
        assert_eq!(w.start, w.end);
        assert!(matches!(w.kind, FaultKind::ConnDrop { fe: 2, be: 1 }));
    }

    #[test]
    #[should_panic(expected = "must not end before")]
    fn reversed_window_panics() {
        let _ = FaultPlan::new().fe_outage(0, t(10), t(5));
    }

    #[test]
    fn capacity_dips_compose_and_default_healthy() {
        let plan = FaultPlan::new()
            .fe_capacity_dip(2, t(10), t(20), 0.5)
            .fe_capacity_dip(2, t(15), t(25), 0.5);
        assert_eq!(plan.fe_capacity_factor(2, t(5)), 1.0);
        assert_eq!(plan.fe_capacity_factor(2, t(12)), 0.5);
        assert_eq!(plan.fe_capacity_factor(2, t(17)), 0.25);
        assert_eq!(plan.fe_capacity_factor(2, t(22)), 0.5);
        assert_eq!(plan.fe_capacity_factor(2, t(30)), 1.0);
        // A different FE is unaffected; a dip is not an outage/brownout.
        assert_eq!(plan.fe_capacity_factor(0, t(12)), 1.0);
        assert!(!plan.fe_down(2, t(12)));
        assert_eq!(plan.fe_slowdown(2, t(12)), 1.0);
    }

    #[test]
    #[should_panic(expected = "factor must be in")]
    fn capacity_dip_rejects_gain() {
        let _ = FaultPlan::new().fe_capacity_dip(0, t(0), t(1), 1.5);
    }

    // ---- Gilbert–Elliott edge coverage ------------------------------
    //
    // The chain itself runs packet-by-packet inside tcpsim; these tests
    // pin the *reference semantics* of `BurstLossParams::advance` at its
    // degenerate corners, where an off-by-one in the draw order would be
    // invisible to the integration tests.

    use simcore::rng::Rng;

    /// Drives `advance` for `n` packets and returns the drop pattern.
    fn drive(params: BurstLossParams, seed: u64, n: usize) -> Vec<bool> {
        let mut rng = Rng::from_seed_and_name(seed, "nettopo/ge-test");
        let mut bad = false;
        (0..n).map(|_| params.advance(&mut bad, &mut rng)).collect()
    }

    #[test]
    fn ge_never_enters_bad_state_at_p_enter_zero() {
        let p = BurstLossParams {
            p_enter: 0.0,
            p_exit: 0.5,
            bad_loss: 1.0,
        };
        assert!(drive(p, 1, 10_000).iter().all(|&d| !d));
    }

    #[test]
    fn ge_absorbs_into_bad_state_at_p_enter_one_p_exit_zero() {
        // Enters bad on the first packet and never leaves; with
        // bad_loss = 1 every packet from the first onward is dropped.
        let p = BurstLossParams {
            p_enter: 1.0,
            p_exit: 0.0,
            bad_loss: 1.0,
        };
        assert!(drive(p, 2, 10_000).iter().all(|&d| d));
        // bad_loss = 0: permanently bad yet lossless — the state machine
        // and the loss coin are independent draws.
        let p0 = BurstLossParams { bad_loss: 0.0, ..p };
        assert!(drive(p0, 3, 10_000).iter().all(|&d| !d));
    }

    #[test]
    fn ge_exit_packet_is_never_dropped_at_p_exit_one() {
        // p_exit = 1 means the chain leaves bad on the very packet after
        // entering: no packet can ever be observed in the bad state, so
        // nothing drops even with bad_loss = 1.
        let p = BurstLossParams {
            p_enter: 1.0,
            p_exit: 1.0,
            bad_loss: 1.0,
        };
        let drops = drive(p, 4, 10_000);
        // Odd packets enter bad (and drop), even packets exit first.
        let dropped = drops.iter().filter(|&&d| d).count();
        assert_eq!(dropped, 5_000, "enter/exit must alternate exactly");
    }

    #[test]
    fn ge_mean_burst_length_tracks_inverse_p_exit() {
        // With bad_loss = 1 every bad-state packet drops, so maximal
        // runs of consecutive drops are exactly the bad-state bursts.
        // Burst length is geometric with mean 1/p_exit.
        let p = BurstLossParams {
            p_enter: 0.05,
            p_exit: 0.25,
            bad_loss: 1.0,
        };
        let drops = drive(p, 5, 200_000);
        let mut bursts = Vec::new();
        let mut run = 0usize;
        for &d in &drops {
            if d {
                run += 1;
            } else if run > 0 {
                bursts.push(run);
                run = 0;
            }
        }
        if run > 0 {
            bursts.push(run);
        }
        assert!(bursts.len() > 1_000, "need many bursts for a stable mean");
        let mean = bursts.iter().sum::<usize>() as f64 / bursts.len() as f64;
        assert!(
            (mean - 4.0).abs() < 0.3,
            "mean burst length {mean} vs 1/p_exit = 4"
        );
    }

    #[test]
    fn ge_is_deterministic_and_chunking_invariant() {
        // Same seed, same params → identical drop pattern; and driving
        // the chain in arbitrary chunks (as sharded campaign workers do
        // with their per-world fault streams) changes nothing, because
        // the state lives entirely in (bad, rng).
        let p = BurstLossParams::moderate();
        let a = drive(p, 42, 5_000);
        let b = drive(p, 42, 5_000);
        assert_eq!(a, b);
        let mut rng = Rng::from_seed_and_name(42, "nettopo/ge-test");
        let mut bad = false;
        let mut chunked = Vec::new();
        for chunk in [1usize, 7, 500, 1492, 3000] {
            for _ in 0..chunk {
                chunked.push(p.advance(&mut bad, &mut rng));
            }
        }
        assert_eq!(chunked, a);
        // Distinct seeds decorrelate the episodes.
        let c = drive(p, 43, 5_000);
        assert_ne!(a, c);
    }
}
