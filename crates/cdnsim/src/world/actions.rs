//! Timer-driven dispatch: the [`Action`] state machine and the
//! [`tcpsim::App`] callbacks that drive a query through its lifecycle
//! (FE serve, fetch legs and their BE replies, direct reply, failover
//! and hedge timers).

use super::*;

/// Sends `plan` from the server end of `conn`, down a client connection
/// or up a fetch leg: the static portion first when `static_too` (it did
/// not burst from the FE cache), then the dynamic portion.
fn send_response(net: &mut Net, conn: ConnId, plan: &ResponsePlan, static_too: bool) {
    if static_too {
        net.send(
            conn,
            End::B,
            plan.static_bytes,
            Marker::Static,
            plan.static_content,
        );
    }
    net.send(
        conn,
        End::B,
        plan.dynamic_bytes,
        Marker::Dynamic,
        plan.dynamic_content,
    );
}

impl ServiceWorld {
    /// Arms a timer that runs `action` after `delay`. The action is
    /// parked in a slot of the `actions` slab whose index is the timer
    /// token; the slot is freed when the timer fires, so the slab holds
    /// only the actions currently armed.
    pub(super) fn push_action(&mut self, net: &mut Net, delay: SimDuration, action: Action) {
        let slot = match self.free_actions.pop() {
            Some(slot) => {
                self.actions[slot] = Some(action);
                slot
            }
            None => {
                self.actions.push(Some(action));
                self.actions.len() - 1
            }
        };
        net.set_timer(delay, slot as u64);
    }

    pub(super) fn push_action_at(&mut self, net: &mut Net, at: SimTime, action: Action) {
        let delay = at.saturating_since(net.now());
        self.push_action(net, delay, action);
    }

    /// Opens fetch leg `slot` of `qid` to BE site `be`: checks out a
    /// pooled FE↔BE connection (a cold one when the pool is empty),
    /// takes the BE's in-flight slot and sends the query up.
    fn open_leg(&mut self, net: &mut Net, qid: u64, slot: usize, fe: usize, be: usize) {
        let conn = self.checkout_be_conn(net, fe, be, qid, Leg::Fetch(slot));
        self.be_inflight[be] += 1;
        if self.overload_active() {
            self.metrics
                .set_gauge("cdnsim.be_inflight_hiwater", self.be_inflight[be] as f64);
        }
        let Some(q) = self.queries.get_mut(&qid) else {
            return;
        };
        q.legs[slot].open(be, conn);
        net.send(conn, End::A, q.req.bytes, Marker::Request, q.req.content);
    }

    /// Arms fetch attempt `attempt`'s deadline and hedge timers, in
    /// that order.
    fn arm_fetch_timers(&mut self, net: &mut Net, qid: u64, attempt: u32) {
        if let Some(d) = self.cfg.fe_fetch_deadline {
            self.push_action(net, d, Action::FetchDeadline { qid, attempt });
        }
        if let Some(h) = self.cfg.overload.hedge {
            self.push_action(net, h.after, Action::HedgeFire { qid, attempt });
        }
    }

    /// Cancels fetch leg `slot` of `qid` if it is open: aborts and
    /// releases its connection and frees its BE's in-flight slot.
    fn cancel_leg(&mut self, net: &mut Net, qid: u64, slot: usize) {
        let Some(leg) = self.queries.get_mut(&qid).map(|q| &mut q.legs[slot]) else {
            return;
        };
        if let Some(conn) = leg.conn.take() {
            let be = leg.be;
            self.drop_leg_conn(net, conn, be);
        }
    }

    /// Aborts and releases a fetch leg's connection and frees the
    /// in-flight slot it held at BE site `be`.
    pub(super) fn drop_leg_conn(&mut self, net: &mut Net, conn: ConnId, be: usize) {
        net.abort(conn);
        self.conn_info.remove(&conn);
        net.release(conn);
        self.be_inflight[be] = self.be_inflight[be].saturating_sub(1);
    }

    /// Stores a complete BE response in the FE's result cache, then
    /// serves it down the client connection: the static portion (unless
    /// it already burst from the FE cache), the dynamic portion, FIN.
    fn serve_fetched(&mut self, net: &mut Net, fe: usize, qid: u64, plan: ResponsePlan) {
        let (client_conn, kw_id) = {
            let q = &self.queries[&qid];
            (q.client_conn, q.keyword)
        };
        if self.fes[fe].caches_results() {
            let out = self.fes[fe].store_result(kw_id, plan.clone(), net.now());
            if out.evicted > 0 {
                self.metrics
                    .add("cdnsim.fe_result_cache_evictions", out.evicted);
            }
        }
        send_response(net, client_conn, &plan, !self.cfg.cache_static);
        net.close(client_conn, End::B);
    }

    /// Runs a query through BE site `be`'s handler, with the processing
    /// time stretched by the BE's queue under the load model. A world
    /// without split TCP opens no fetch leg, so its BE queues stay empty
    /// and the time is never stretched.
    fn be_process(&mut self, qid: u64, be: usize) -> (SimDuration, ResponsePlan) {
        let (kw_id, followup, client) = {
            let q = &self.queries[&qid];
            (q.keyword, q.instant_followup, q.client)
        };
        let kw = self.corpus.get(kw_id);
        let region = Some(self.clients[client].region);
        let result = self.bes[be].1.handle_query(&kw, followup, region);
        let mut proc = result.proc_time;
        if let Some(model) = self.cfg.load_model {
            let slow = model.be_slowdown(self.be_inflight[be]);
            if slow > 1.0 {
                proc = SimDuration::from_millis_f64(proc.as_millis_f64() * slow);
            }
        }
        (proc, result.plan)
    }

    /// The request fully arrived at the server end of the client leg:
    /// admission control, then the FE service interval (load- and
    /// brownout-stretched) before the serve instant, or — without split
    /// TCP — the BE's processing before its direct reply.
    pub(super) fn handle_request_arrived(&mut self, net: &mut Net, qid: u64) {
        let (fe, be) = {
            let q = &self.queries[&qid];
            (q.fe, q.be)
        };
        if !self.cfg.split_tcp {
            let (proc, plan) = self.be_process(qid, be);
            let q = self.queries.get_mut(&qid).unwrap();
            q.proc_ms = proc.as_millis_f64();
            q.plan = Some(plan);
            self.push_action(net, proc, Action::BeDirectReply { qid });
            return;
        }
        let fe = fe.expect("split mode has an FE");
        // Admission control: above the watermark the request is answered
        // with the shed stub before consuming any FE capacity. The
        // client's FIN handling decides between a retry and a terminal
        // `Shed` outcome.
        if let Some(adm) = self.cfg.overload.admission {
            if self.fe_inflight[fe] >= adm.watermark {
                self.metrics.inc("cdnsim.shed_queries");
                let static_content = self.cfg.composer.static_content;
                let q = self.queries.get_mut(&qid).unwrap();
                q.shed = true;
                // Nothing real was served; record a placeholder static
                // portion (ResponsePlan requires non-empty portions).
                q.plan = Some(ResponsePlan::new(
                    1,
                    static_content,
                    SHED_STUB_BYTES,
                    SHED_CONTENT_ID,
                ));
                let client_conn = q.client_conn;
                net.send(
                    client_conn,
                    End::B,
                    SHED_STUB_BYTES,
                    Marker::Error,
                    SHED_CONTENT_ID,
                );
                net.close(client_conn, End::B);
                return;
            }
        }
        self.fe_inflight[fe] += 1;
        self.queries.get_mut(&qid).unwrap().fe_counted = true;
        if self.overload_active() {
            self.metrics
                .set_gauge("cdnsim.fe_inflight_hiwater", self.fe_inflight[fe] as f64);
        }
        let mut overhead = self.fes[fe].request_overhead_at(net.now());
        // Brownout windows stretch FE processing.
        let slow = self.cfg.faults.fe_slowdown(fe, net.now());
        if slow > 1.0 {
            overhead = SimDuration::from_millis_f64(overhead.as_millis_f64() * slow);
        }
        // Concurrency-dependent queueing delay (the load model's
        // M/M/1-style curve), with capacity-dip fault windows scaling
        // the knee.
        if let Some(model) = self.cfg.load_model {
            let factor = self.cfg.faults.fe_capacity_factor(fe, net.now());
            let qslow = model.fe_slowdown(self.fe_inflight[fe], factor);
            if qslow > 1.0 {
                overhead = SimDuration::from_millis_f64(overhead.as_millis_f64() * qslow);
            }
        }
        self.queries.get_mut(&qid).unwrap().fe_overhead_ms = overhead.as_millis_f64();
        self.push_action(net, overhead, Action::FeServe { qid });
    }

    /// The FE's serve instant: burst the cached static portion, answer
    /// from the result cache or fast-fail through an open breaker, and
    /// otherwise forward the query to the BE.
    pub(super) fn act_fe_serve(&mut self, net: &mut Net, qid: u64) {
        // Stale timer: the client's deadline can fire before a
        // load-stretched FE service interval elapses, abandoning the
        // query while this action is still pending.
        let (fe, be, kw_id, client_conn) = match self.queries.get(&qid) {
            Some(q) => (q.fe.unwrap(), q.be, q.keyword, q.client_conn),
            None => return,
        };
        // (a) Burst the static portion from the FE's cache: the paper's
        // FEs always hold it, so every static burst is a hit. In the
        // no-cache ablation the static bytes ride the BE response.
        if self.cfg.cache_static {
            self.metrics.inc("cdnsim.fe_static_cache_hits");
            let content = self.cfg.composer.static_content;
            let bytes = self.cfg.composer.static_bytes;
            net.send(client_conn, End::B, bytes, Marker::Static, content);
        }
        // Hypothetical FE result cache.
        if self.fes[fe].caches_results() {
            if let Some(plan) = self.fes[fe].lookup_result(kw_id, net.now()) {
                self.metrics.inc("cdnsim.fe_result_cache_hits");
                send_response(net, client_conn, &plan, !self.cfg.cache_static);
                net.close(client_conn, End::B);
                let q = self.queries.get_mut(&qid).unwrap();
                q.plan = Some(plan);
                q.proc_ms = 0.0;
                return;
            }
            self.metrics.inc("cdnsim.fe_result_cache_misses");
        }
        // Circuit breaker: while open, fetches fast-fail straight to the
        // degraded response instead of hammering a struggling back-end.
        if !self.breaker_admits(fe, net.now()) {
            self.metrics.inc("cdnsim.breaker_fastfails");
            self.degrade_query(net, qid);
            return;
        }
        // (b) Forward the query over a persistent BE connection.
        self.open_leg(net, qid, PRIMARY, fe, be);
        if let Some(q) = self.queries.get_mut(&qid) {
            q.fetch_start = Some(net.now());
        }
        self.arm_fetch_timers(net, qid, 0);
    }

    /// Fetch leg `slot`'s BE finished processing: stream its response
    /// to the FE, unless the query has since failed over, degraded or
    /// completed, or the leg was cancelled.
    pub(super) fn act_be_reply(&mut self, net: &mut Net, qid: u64, attempt: u32, slot: usize) {
        let Some(q) = self.queries.get(&qid) else {
            return;
        };
        if q.fetch_attempts != attempt || q.degraded || q.fetch_done.is_some() {
            return;
        }
        let leg = &q.legs[slot];
        if let (Some(conn), Some(plan)) = (leg.conn, &leg.plan) {
            send_response(net, conn, plan, !self.cfg.cache_static);
        }
    }

    /// No split TCP: the BE replies straight down the client connection,
    /// unless the client deadline abandoned the query while the BE was
    /// still processing it.
    pub(super) fn act_be_direct_reply(&mut self, net: &mut Net, qid: u64) {
        let Some(q) = self.queries.get(&qid) else {
            return;
        };
        let plan = q.plan.as_ref().expect("direct reply plan");
        send_response(net, q.client_conn, plan, true);
        net.close(q.client_conn, End::B);
    }

    /// Fetch leg `slot`'s response is complete at the FE: the leg wins.
    /// Its BE ground truth becomes the query's; then release its BE
    /// slot, cancel the other leg, feed the breaker, return the winner's
    /// connection to the pool, refill the FE caches and serve the
    /// client.
    fn complete_leg(&mut self, net: &mut Net, qid: u64, slot: usize) {
        let Some((fe, be)) = self
            .queries
            .get(&qid)
            .and_then(|q| Some((q.fe?, q.legs[slot].be)))
        else {
            return;
        };
        let rtt = self.fe_be_rtt_ms(fe, be);
        let dist = self.fe_be_distance_miles(fe, be);
        let Some(q) = self.queries.get_mut(&qid) else {
            return;
        };
        let leg = &mut q.legs[slot];
        let (Some(plan), Some(conn)) = (leg.plan.clone(), leg.conn) else {
            return;
        };
        leg.conn = None;
        q.fetch_done = Some(net.now());
        q.be = be;
        q.plan = Some(plan.clone());
        q.proc_ms = leg.proc_ms;
        q.rtt_fe_be_ms = rtt;
        q.dist_fe_be_miles = dist;
        if slot == HEDGE {
            self.metrics.inc("cdnsim.hedge_wins");
        }
        self.be_inflight[be] = self.be_inflight[be].saturating_sub(1);
        self.cancel_leg(net, qid, 1 - slot);
        self.breaker_record_success(fe);
        self.return_be_conn(conn, fe, be);
        self.serve_fetched(net, fe, qid, plan);
    }

    /// FE fetch deadline fired: the BE response for fetch attempt
    /// `attempt` has not fully arrived. Abort the stalled attempt, feed
    /// the breaker, and fail over to the next live BE site on a
    /// (possibly cold) connection, or degrade the response when no live
    /// site remains.
    pub(super) fn act_fetch_deadline(&mut self, net: &mut Net, qid: u64, attempt: u32) {
        let (fe, cur_be) = {
            let Some(q) = self.queries.get(&qid) else {
                return;
            };
            // Completed, degraded or already failed over: stale timer.
            if q.fetch_done.is_some() || q.degraded || q.fetch_attempts != attempt {
                return;
            }
            let Some(fe) = q.fe else {
                return;
            };
            (fe, q.legs[PRIMARY].be)
        };
        // The fetch attempt failed: cancel both its legs and feed the
        // FE's circuit breaker.
        self.cancel_leg(net, qid, PRIMARY);
        self.cancel_leg(net, qid, HEDGE);
        self.breaker_record_failure(fe, net.now());
        let now = net.now();
        let next_be = self
            .ranked_bes(fe)
            .into_iter()
            .find(|&b| b != cur_be && !self.cfg.faults.be_down(b, now));
        let next_be = match next_be {
            // One failover per site at most: once every site has been
            // given a deadline's worth of time, serve what we have.
            Some(b) if (attempt as usize) < self.bes.len().saturating_sub(1) => b,
            _ => {
                self.degrade_query(net, qid);
                return;
            }
        };
        let rtt = self.fe_be_rtt_ms(fe, next_be);
        let dist = self.fe_be_distance_miles(fe, next_be);
        self.metrics.inc("cdnsim.fetch_failovers");
        let Some(q) = self.queries.get_mut(&qid) else {
            return;
        };
        q.be = next_be;
        q.fetch_attempts += 1;
        q.rtt_fe_be_ms = rtt;
        q.dist_fe_be_miles = dist;
        // A failover keeps the query's original `fetch_start` stamp
        // (fetch latency spans all attempts).
        self.open_leg(net, qid, PRIMARY, fe, next_be);
        self.arm_fetch_timers(net, qid, attempt + 1);
    }

    /// Hedge timer fired with the primary fetch still outstanding:
    /// duplicate the query to the next-nearest live BE site. First
    /// response wins; the loser is cancelled.
    pub(super) fn act_hedge_fire(&mut self, net: &mut Net, qid: u64, attempt: u32) {
        let (fe, cur_be) = {
            let Some(q) = self.queries.get(&qid) else {
                return;
            };
            // Completed, degraded, failed over, or already hedged: the
            // timer is stale (hedges are per fetch attempt).
            if q.fetch_done.is_some()
                || q.degraded
                || q.shed
                || q.fetch_attempts != attempt
                || q.legs[HEDGE].conn.is_some()
                || q.legs[PRIMARY].conn.is_none()
            {
                return;
            }
            let Some(fe) = q.fe else {
                return;
            };
            (fe, q.legs[PRIMARY].be)
        };
        let now = net.now();
        let Some(hedge_be) = self
            .ranked_bes(fe)
            .into_iter()
            .find(|&b| b != cur_be && !self.cfg.faults.be_down(b, now))
        else {
            return; // nowhere to hedge to
        };
        self.metrics.inc("cdnsim.hedges_launched");
        self.open_leg(net, qid, HEDGE, fe, hedge_be);
    }
}

impl App for ServiceWorld {
    fn on_established(&mut self, net: &mut Net, conn: ConnId, end: End) {
        let info = match self.conn_info.get(&conn) {
            Some(i) => *i,
            None => return,
        };
        if info.leg == Leg::Client && end == End::A {
            if let Some(q) = self.queries.get(&info.qid) {
                net.send(conn, End::A, q.req.bytes, Marker::Request, q.req.content);
            }
        }
    }

    fn on_data(&mut self, net: &mut Net, conn: ConnId, end: End, bytes: u64) {
        let info = match self.conn_info.get(&conn) {
            Some(i) => *i,
            None => return,
        };
        match info.leg {
            Leg::Warmup { fe, be } => {
                let entry = self.warmup_progress.entry(conn).or_insert((0, 0));
                match end {
                    End::B => {
                        entry.0 += bytes;
                        if entry.0 >= WARMUP_REQ_BYTES {
                            net.send(conn, End::B, WARMUP_RESP_BYTES, Marker::Other, 0);
                        }
                    }
                    End::A => {
                        entry.1 += bytes;
                        if entry.1 >= WARMUP_RESP_BYTES {
                            self.warmup_progress.remove(&conn);
                            self.return_be_conn(conn, fe, be);
                        }
                    }
                }
            }
            Leg::Client => {
                // The client's response completes with its FIN (see
                // `on_fin`); only the server side tracks bytes.
                if end == End::A {
                    return;
                }
                let qid = info.qid;
                let Some(q) = self.queries.get_mut(&qid) else {
                    return;
                };
                // Server side of the client leg (FE, or BE when split TCP
                // is off): request bytes.
                q.request_bytes += bytes;
                if q.request_handled || q.request_bytes < q.req.bytes {
                    return;
                }
                q.request_handled = true;
                self.handle_request_arrived(net, qid);
            }
            Leg::Fetch(slot) => {
                let qid = info.qid;
                let Some(q) = self.queries.get_mut(&qid) else {
                    return;
                };
                let leg = &mut q.legs[slot];
                match end {
                    End::B => {
                        // The leg's BE receiving the query.
                        leg.query_bytes += bytes;
                        if leg.handled || leg.query_bytes < q.req.bytes {
                            return;
                        }
                        leg.handled = true;
                        let (be, attempt) = (leg.be, q.fetch_attempts);
                        let (proc, plan) = self.be_process(qid, be);
                        if let Some(q) = self.queries.get_mut(&qid) {
                            q.legs[slot].proc_ms = proc.as_millis_f64();
                            q.legs[slot].plan = Some(plan);
                        }
                        self.push_action(net, proc, Action::BeReply { qid, attempt, slot });
                    }
                    End::A => {
                        // The FE receiving the leg's response; the first
                        // complete response wins.
                        leg.resp_bytes += bytes;
                        let expected = match &leg.plan {
                            Some(p) => {
                                p.dynamic_bytes
                                    + if self.cfg.cache_static {
                                        0
                                    } else {
                                        p.static_bytes
                                    }
                            }
                            None => u64::MAX,
                        };
                        if q.fetch_done.is_none() && leg.resp_bytes >= expected {
                            self.complete_leg(net, qid, slot);
                        }
                    }
                }
            }
        }
    }

    fn on_fin(&mut self, net: &mut Net, conn: ConnId, end: End) {
        let info = match self.conn_info.get(&conn) {
            Some(i) => *i,
            None => return,
        };
        if info.leg == Leg::Client && end == End::A {
            self.finish_query(net, info.qid);
        }
    }

    fn on_timer(&mut self, net: &mut Net, token: u64) {
        if token == book::START_WAKE {
            self.act_start_wake(net);
            return;
        }
        let slot = token as usize;
        let action = self.actions[slot]
            .take()
            .expect("an action timer fires exactly once");
        self.free_actions.push(slot);
        match action {
            Action::StartRetry { spec, attempt } => self.start_query(net, spec, attempt),
            Action::FeServe { qid } => self.act_fe_serve(net, qid),
            Action::BeReply { qid, attempt, slot } => self.act_be_reply(net, qid, attempt, slot),
            Action::BeDirectReply { qid } => self.act_be_direct_reply(net, qid),
            Action::ClientDeadline { qid } => self.act_client_deadline(net, qid),
            Action::FetchDeadline { qid, attempt } => self.act_fetch_deadline(net, qid, attempt),
            Action::HedgeFire { qid, attempt } => self.act_hedge_fire(net, qid, attempt),
            Action::FaultStart { window } => self.act_fault_start(net, window),
            Action::MappingEpoch => self.act_mapping_epoch(net),
        }
    }
}
