//! Fault-plan installation and fault-aware control state: health-aware
//! DNS resolution, BE failover ranking, connection drops, and the
//! per-FE circuit breakers over BE fetch failures.

use super::*;
use crate::mapping::ResolveCtx;

impl ServiceWorld {
    /// The FE in-flight count at which load-aware mapping treats an FE
    /// as saturated: the load model's FE capacity, or the default
    /// model's when none is configured.
    fn fe_knee(&self) -> u32 {
        self.cfg.load_model.unwrap_or_default().fe_capacity
    }

    /// Resolves a client's FE through the configured mapping strategy.
    /// With the default `NearestLive` strategy this is exactly the
    /// historical health-aware DNS resolution (static nearest mapping
    /// without outages in the plan — no cache reads or writes),
    /// preserving byte-identical trajectories. `None` means every FE the
    /// strategy could return is dead: the caller fails the query with a
    /// typed [`QueryOutcome::NoLiveFe`].
    pub(super) fn resolve_fe(&mut self, now: SimTime, client: usize) -> Option<usize> {
        let outages_possible = self.cfg.faults.has_fe_outages();
        let ranked = if self.mapper.wants_ranked(outages_possible) {
            self.ranked_fes(client)
        } else {
            Vec::new()
        };
        let knee = self.fe_knee();
        let mut ctx = ResolveCtx {
            now,
            client,
            default_fe: self.default_fe(client),
            ranked: &ranked,
            client_pt: self.clients[client].pt,
            faults: &self.cfg.faults,
            outages_possible,
            fe_inflight: &self.fe_inflight,
            knee,
            metrics: &mut self.metrics,
        };
        self.mapper.resolve(&mut ctx)
    }

    /// Runs the strategy's re-mapping epoch: hands it the current per-FE
    /// in-flight snapshot and re-arms the epoch timer while queries are
    /// still in flight (an idle world lets the timer lapse so the sim
    /// quiesces; the next query start re-arms it).
    pub(super) fn act_mapping_epoch(&mut self, net: &mut Net) {
        let now = net.now();
        let knee = self.fe_knee();
        let mut ctx = crate::mapping::EpochCtx {
            now,
            fe_inflight: &self.fe_inflight,
            knee,
            metrics: &mut self.metrics,
        };
        self.mapper.on_epoch(&mut ctx);
        match self.mapper.epoch() {
            Some(period) if !self.queries.is_empty() => {
                self.push_action(net, period, Action::MappingEpoch);
            }
            _ => self.epoch_armed = false,
        }
    }

    /// Arms the strategy's re-mapping epoch timer if the strategy has
    /// one and it is not already scheduled. Called at query start, so
    /// epoch timers exist exactly when work is (or was recently) in
    /// flight.
    pub(super) fn arm_mapping_epoch(&mut self, net: &mut Net) {
        if self.epoch_armed {
            return;
        }
        if let Some(period) = self.mapper.epoch() {
            self.epoch_armed = true;
            self.push_action(net, period, Action::MappingEpoch);
        }
    }

    /// The BE an FE should fetch from at `now`: its nearest site, or the
    /// next-nearest live one when the primary is in an outage window.
    pub(super) fn live_be_for(&mut self, fe: usize, now: SimTime) -> usize {
        let primary = self.be_of_fe[fe];
        if !self.cfg.faults.has_be_outages() || !self.cfg.faults.be_down(primary, now) {
            return primary;
        }
        let chosen = self
            .ranked_bes(fe)
            .into_iter()
            .find(|&b| !self.cfg.faults.be_down(b, now))
            .unwrap_or(primary);
        if chosen != primary {
            self.metrics.inc("cdnsim.be_failovers");
        }
        chosen
    }

    /// Installs the configuration's fault plan into the simulator:
    /// packet-level episodes become `tcpsim` link faults, and
    /// control-plane episodes (outage starts, connection drops) are
    /// scheduled as world actions. Call once after building the sim,
    /// before scheduling queries. A no-op for an empty plan — no link
    /// faults, no timers, no RNG stream touched.
    pub fn install_faults(&mut self, net: &mut Net) {
        if self.cfg.faults.is_empty() {
            return;
        }
        let windows: Vec<FaultWindow> = self.cfg.faults.windows().to_vec();
        for (idx, w) in windows.iter().enumerate() {
            match w.kind {
                FaultKind::FeOutage { fe } => {
                    net.add_link_fault(LinkFault::node_outage(Self::fe_node(fe), w.start, w.end));
                    self.push_action_at(net, w.start, Action::FaultStart { window: idx });
                }
                FaultKind::BeOutage { be } => {
                    net.add_link_fault(LinkFault::node_outage(Self::be_node(be), w.start, w.end));
                    self.push_action_at(net, w.start, Action::FaultStart { window: idx });
                }
                FaultKind::ConnDrop { .. } => {
                    self.push_action_at(net, w.start, Action::FaultStart { window: idx });
                }
                FaultKind::ClientBurstLoss { client, fe, params } => {
                    net.add_link_fault(LinkFault::burst_loss(
                        Self::client_node(client),
                        Self::fe_node(fe),
                        w.start,
                        w.end,
                        params,
                    ));
                }
                // Brownouts and capacity dips act on FE service times,
                // consulted at serve time; nothing to install up front.
                FaultKind::FeBrownout { .. } => {}
                FaultKind::FeCapacityDip { .. } => {}
            }
        }
    }

    /// Aborts every FE↔BE connection — pooled, warming or mid-fetch —
    /// whose (fe, be) pair matches, so a dead site does not leave
    /// endpoints retransmitting into a blackhole forever. Pooled and
    /// warming connections are released; stalled queries keep theirs
    /// until their fetch deadline (if configured) fails them over.
    /// Connections are aborted in pool-key, then `ConnId`, order.
    pub(super) fn drop_fe_be_conns(&mut self, net: &mut Net, hit: impl Fn(usize, usize) -> bool) {
        for (&(f, b), v) in self.free_pool.iter_mut() {
            if hit(f, b) {
                for c in v.drain(..) {
                    net.abort(c);
                    net.release(c);
                }
            }
        }
        let mut warm: Vec<ConnId> = self
            .conn_info
            .iter()
            .filter_map(|(c, i)| match i.leg {
                Leg::Warmup { fe, be } if hit(fe, be) => Some(*c),
                _ => None,
            })
            .collect();
        warm.sort_unstable();
        for c in warm {
            net.abort(c);
            self.conn_info.remove(&c);
            self.warmup_progress.remove(&c);
            net.release(c);
        }
        // An open fetch leg is a fetch still waiting for its response.
        let mut stalled: Vec<ConnId> = self
            .queries
            .values()
            .flat_map(|q| q.legs.iter().map(move |leg| (q.fe, leg)))
            .filter_map(|(fe, leg)| match (fe, leg.conn) {
                (Some(f), Some(c)) if hit(f, leg.be) => Some(c),
                _ => None,
            })
            .collect();
        stalled.sort_unstable();
        for c in stalled {
            net.abort(c);
        }
    }

    pub(super) fn act_fault_start(&mut self, net: &mut Net, window: usize) {
        let w = self.cfg.faults.windows()[window];
        match w.kind {
            FaultKind::FeOutage { fe } => self.drop_fe_be_conns(net, |f, _| f == fe),
            FaultKind::BeOutage { be } => self.drop_fe_be_conns(net, |_, b| b == be),
            FaultKind::ConnDrop { fe, be } => self.drop_fe_be_conns(net, |f, b| f == fe && b == be),
            _ => {}
        }
    }

    /// Whether FE `fe`'s circuit breaker admits a BE fetch at `now`.
    /// Closed: yes. Open: only once the cooldown has elapsed, which
    /// flips to half-open and admits exactly one trial fetch. Half-open:
    /// no (a trial is already outstanding).
    pub(super) fn breaker_admits(&mut self, fe: usize, now: SimTime) -> bool {
        let policy = match self.cfg.overload.breaker {
            Some(p) => p,
            None => return true,
        };
        let b = &mut self.breakers[fe];
        match b.phase {
            BreakerPhase::Closed => true,
            BreakerPhase::Open => {
                if now.saturating_since(b.opened_at) >= policy.cooldown {
                    b.phase = BreakerPhase::HalfOpen;
                    true
                } else {
                    false
                }
            }
            BreakerPhase::HalfOpen => false,
        }
    }

    /// Records a BE fetch failure at FE `fe` (a fetch deadline fired).
    /// Opens the breaker at the failure threshold, or immediately when a
    /// half-open trial fails.
    pub(super) fn breaker_record_failure(&mut self, fe: usize, now: SimTime) {
        let policy = match self.cfg.overload.breaker {
            Some(p) => p,
            None => return,
        };
        let b = &mut self.breakers[fe];
        b.fails += 1;
        let trip = b.phase == BreakerPhase::HalfOpen || b.fails >= policy.failure_threshold;
        if trip && b.phase != BreakerPhase::Open {
            b.phase = BreakerPhase::Open;
            b.opened_at = now;
            b.fails = 0;
            self.metrics.inc("cdnsim.breaker_opens");
        } else if trip {
            b.opened_at = now;
            b.fails = 0;
        }
    }

    /// Records a successful BE fetch at FE `fe`: closes the breaker and
    /// clears the failure streak.
    pub(super) fn breaker_record_success(&mut self, fe: usize) {
        if self.cfg.overload.breaker.is_none() {
            return;
        }
        let b = &mut self.breakers[fe];
        b.phase = BreakerPhase::Closed;
        b.fails = 0;
    }
}
