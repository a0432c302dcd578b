//! Timer-driven dispatch: the [`Action`] state machine and the
//! [`tcpsim::App`] callbacks that drive a query through its lifecycle
//! (FE serve, BE reply, direct reply, failover and hedge timers).

use super::*;

/// Sends a BE's response up the FE↔BE connection: the static portion
/// first when it rides the BE response (static cache off or missed),
/// then the dynamic portion.
fn send_be_response(net: &mut Net, conn: ConnId, plan: &ResponsePlan, static_too: bool) {
    if static_too {
        net.send(
            conn,
            End::B,
            plan.static_bytes,
            Marker::BeResponse,
            plan.static_content,
        );
    }
    plan.send_as_be_response(net, conn, End::B);
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

    /// Takes BE site `be`'s in-flight slot for a fetch leg.
    fn acquire_be_slot(&mut self, be: usize) {
        self.be_inflight[be] += 1;
        if self.overload_active() {
            self.metrics
                .set_gauge("cdnsim.be_inflight_hiwater", self.be_inflight[be] as f64);
        }
    }

    /// Sends the query up `conn` as fetch attempt `attempt`, then arms
    /// that attempt's fetch-deadline and hedge timers, in that order.
    fn send_fetch(&mut self, net: &mut Net, qid: u64, conn: ConnId, attempt: u32) {
        self.queries[&qid].req.send_as_be_query(net, conn, End::A);
        if let Some(d) = self.cfg.fe_fetch_deadline {
            self.push_action(net, d, Action::FetchDeadline { qid, attempt });
        }
        if let Some(h) = self.cfg.overload.hedge {
            self.push_action(net, h.after, Action::HedgeFire { qid, attempt });
        }
    }

    /// Refills the FE caches from a complete BE response, then serves
    /// it down the client connection: the static portion (unless it
    /// already burst from the FE cache), the dynamic portion, FIN.
    fn serve_fetched(&mut self, net: &mut Net, fe: usize, qid: u64, plan: ResponsePlan) {
        let (client_conn, kw_id, static_from_cache) = {
            let q = &self.queries[&qid];
            (q.client_conn, q.keyword, q.static_from_cache)
        };
        // Refill the static cache after a miss-path fetch (only reachable
        // with a bounded static cache).
        if self.cfg.cache_static && !static_from_cache {
            self.fes[fe].fill_static(plan.static_content, plan.static_bytes, net.now());
            self.metrics.inc("cdnsim.fe_static_cache_fills");
        }
        if self.fes[fe].caches_results() {
            let out = self.fes[fe].store_result(kw_id, plan.clone(), net.now());
            if out.evicted > 0 {
                self.metrics
                    .add("cdnsim.fe_result_cache_evictions", out.evicted);
            }
        }
        if !static_from_cache {
            plan.send_static(net, client_conn, End::B);
        }
        plan.send_dynamic(net, client_conn, End::B);
        net.close(client_conn, End::B);
    }

    /// Runs a forwarded query through BE site `be`'s handler, with the
    /// processing time stretched by the BE's queue under the load
    /// model.
    fn be_process(&mut self, qid: u64, be: usize) -> (SimDuration, ResponsePlan) {
        let (kw_id, followup, client) = {
            let q = &self.queries[&qid];
            (q.keyword, q.instant_followup, q.client)
        };
        let kw = self.corpus.get(kw_id).clone();
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
        let (fe, be, kw_id, followup, client) = {
            let q = &self.queries[&qid];
            (q.fe, q.be, q.keyword, q.instant_followup, q.client)
        };
        if !self.cfg.split_tcp {
            let kw = self.corpus.get(kw_id).clone();
            let region = Some(self.clients[client].region);
            let result = self.bes[be].1.handle_query(&kw, followup, region);
            let q = self.queries.get_mut(&qid).unwrap();
            q.proc_ms = result.proc_time.as_millis_f64();
            q.plan = Some(result.plan);
            self.push_action(net, result.proc_time, Action::BeDirectReply { qid });
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
        // (a) Burst the static portion when it is resident in the FE's
        // static cache. With the default unbounded prewarmed cache this
        // always hits; a bounded cache can miss, in which case the
        // static bytes ride the BE response and the cache is refilled
        // when that response completes.
        let mut static_hit = false;
        if self.cfg.cache_static {
            let content = self.cfg.composer.static_content;
            if self.fes[fe].static_cached(content, net.now()) {
                static_hit = true;
                self.metrics.inc("cdnsim.fe_static_cache_hits");
                let bytes = self.cfg.composer.static_bytes;
                net.send(client_conn, End::B, bytes, Marker::Static, content);
            } else {
                self.metrics.inc("cdnsim.fe_static_cache_misses");
            }
        }
        self.queries.get_mut(&qid).unwrap().static_from_cache = static_hit;
        // Hypothetical FE result cache.
        if self.fes[fe].caches_results() {
            if let Some(plan) = self.fes[fe].lookup_result(kw_id, net.now()) {
                self.metrics.inc("cdnsim.fe_result_cache_hits");
                if !static_hit {
                    plan.send_static(net, client_conn, End::B);
                }
                plan.send_dynamic(net, client_conn, End::B);
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
        let be_conn = self.checkout_be_conn(net, fe, be, qid, Leg::Be);
        self.acquire_be_slot(be);
        let q = self.queries.get_mut(&qid).unwrap();
        q.be_conn = Some(be_conn);
        q.be_counted = Some(be);
        q.fetch_start = Some(net.now());
        self.send_fetch(net, qid, be_conn, 0);
    }

    /// The primary BE finished processing: stream its response to the
    /// FE, unless the query has since failed over, degraded or gone.
    pub(super) fn act_be_reply(&mut self, net: &mut Net, qid: u64, attempt: u32) {
        let Some(q) = self.queries.get(&qid) else {
            return;
        };
        // A reply from a BE the query has since failed away from (or a
        // degraded query) is stale — drop it.
        if q.fetch_attempts != attempt || q.degraded {
            return;
        }
        if let (Some(conn), Some(plan)) = (q.be_conn, &q.plan) {
            send_be_response(net, conn, plan, !q.static_from_cache);
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
        plan.send_static(net, q.client_conn, End::B);
        plan.send_dynamic(net, q.client_conn, End::B);
        net.close(q.client_conn, End::B);
    }

    /// The primary fetch completed at the FE: release the BE slot,
    /// cancel the losing hedge leg, feed the breaker, return the pooled
    /// connection, then refill the FE caches and serve the client.
    pub(super) fn handle_be_response_complete(&mut self, net: &mut Net, qid: u64) {
        let (fe, be, be_conn, plan, counted) = {
            let q = self.queries.get_mut(&qid).unwrap();
            q.fetch_done = Some(net.now());
            (
                q.fe.unwrap(),
                q.be,
                q.be_conn.take().unwrap(),
                q.plan.clone().unwrap(),
                q.be_counted.take(),
            )
        };
        if let Some(b) = counted {
            self.be_inflight[b] = self.be_inflight[b].saturating_sub(1);
        }
        // The primary won the race: cancel any outstanding hedge.
        self.cancel_hedge(net, qid);
        self.breaker_record_success(fe);
        self.return_be_conn(be_conn, fe, be);
        self.serve_fetched(net, fe, qid, plan);
    }

    /// FE fetch deadline fired: the BE response for fetch attempt
    /// `attempt` has not fully arrived. Abort the stalled attempt, feed
    /// the breaker, and fail over to the next live BE site on a
    /// (possibly cold) connection, or degrade the response when no live
    /// site remains.
    pub(super) fn act_fetch_deadline(&mut self, net: &mut Net, qid: u64, attempt: u32) {
        let (fe, cur_be, stalled_conn) = {
            let Some(q) = self.queries.get(&qid) else {
                return;
            };
            // Completed, degraded or already failed over: stale timer.
            if q.resp_handled || q.degraded || q.fetch_attempts != attempt {
                return;
            }
            let Some(fe) = q.fe else {
                return;
            };
            (fe, q.be, q.be_conn)
        };
        if let Some(conn) = stalled_conn {
            net.abort(conn);
            self.conn_info.remove(&conn);
        }
        // The fetch attempt failed: release its BE slot, cancel its
        // hedge leg, and feed the FE's circuit breaker.
        if let Some(b) = self.queries.get_mut(&qid).and_then(|q| q.be_counted.take()) {
            self.be_inflight[b] = self.be_inflight[b].saturating_sub(1);
        }
        self.cancel_hedge(net, qid);
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
        {
            let q = self.queries.get_mut(&qid).unwrap();
            q.be = next_be;
            q.fetch_attempts += 1;
            q.be_handled = false;
            q.plan = None;
            q.srv_progress = RecvProgress::new();
            q.resp_progress = RecvProgress::new();
            q.rtt_fe_be_ms = rtt;
            q.dist_fe_be_miles = dist;
        }
        // A failover keeps the query's original `fetch_start` stamp
        // (fetch latency spans all attempts).
        let conn = self.checkout_be_conn(net, fe, next_be, qid, Leg::Be);
        self.acquire_be_slot(next_be);
        let q = self.queries.get_mut(&qid).unwrap();
        q.be_conn = Some(conn);
        q.be_counted = Some(next_be);
        self.send_fetch(net, qid, conn, attempt + 1);
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
            if q.resp_handled
                || q.degraded
                || q.shed
                || q.fetch_attempts != attempt
                || q.hedge_conn.is_some()
                || q.be_conn.is_none()
            {
                return;
            }
            let Some(fe) = q.fe else {
                return;
            };
            (fe, q.be)
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
        let conn = self.checkout_be_conn(net, fe, hedge_be, qid, Leg::Hedge);
        self.acquire_be_slot(hedge_be);
        let q = self.queries.get_mut(&qid).unwrap();
        q.hedge_conn = Some(conn);
        q.hedge_be = Some(hedge_be);
        q.hedge_counted = Some(hedge_be);
        q.req.send_as_be_query(net, conn, End::A);
    }

    /// The hedge BE finished processing: stream its response to the FE
    /// (mirror of [`Self::act_be_reply`] for the hedge leg).
    pub(super) fn act_hedge_reply(&mut self, net: &mut Net, qid: u64, attempt: u32) {
        let Some(q) = self.queries.get(&qid) else {
            return;
        };
        if q.fetch_attempts != attempt || q.degraded || q.resp_handled {
            return;
        }
        if let (Some(conn), Some(plan)) = (q.hedge_conn, &q.hedge_plan) {
            send_be_response(net, conn, plan, !q.static_from_cache);
        }
    }

    /// The hedge response arrived at the FE before the primary: the
    /// hedge wins. Adopt its result as the query's ground truth, cancel
    /// the primary fetch, then refill the FE caches and serve the
    /// client.
    pub(super) fn hedge_response_complete(&mut self, net: &mut Net, qid: u64) {
        let (fe, hedge_be, hedge_conn, plan, counted, primary_conn, primary_counted) = {
            let q = self.queries.get_mut(&qid).unwrap();
            q.fetch_done = Some(net.now());
            (
                q.fe.unwrap(),
                q.hedge_be.take().unwrap(),
                q.hedge_conn.take().unwrap(),
                q.hedge_plan.take().unwrap(),
                q.hedge_counted.take(),
                q.be_conn.take(),
                q.be_counted.take(),
            )
        };
        self.metrics.inc("cdnsim.hedge_wins");
        if let Some(b) = counted {
            self.be_inflight[b] = self.be_inflight[b].saturating_sub(1);
        }
        // Cancel the losing primary leg.
        if let Some(c) = primary_conn {
            net.abort(c);
            self.conn_info.remove(&c);
        }
        if let Some(b) = primary_counted {
            self.be_inflight[b] = self.be_inflight[b].saturating_sub(1);
        }
        self.breaker_record_success(fe);
        self.return_be_conn(hedge_conn, fe, hedge_be);
        let rtt = self.fe_be_rtt_ms(fe, hedge_be);
        let dist = self.fe_be_distance_miles(fe, hedge_be);
        {
            let q = self.queries.get_mut(&qid).unwrap();
            q.be = hedge_be;
            q.proc_ms = q.hedge_proc_ms;
            q.plan = Some(plan.clone());
            q.rtt_fe_be_ms = rtt;
            q.dist_fe_be_miles = dist;
        }
        self.serve_fetched(net, fe, qid, plan);
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
                q.req.send(net, conn, End::A);
            }
        }
    }

    fn on_data(&mut self, net: &mut Net, conn: ConnId, end: End, spans: &[DeliveredSpan]) {
        let info = match self.conn_info.get(&conn) {
            Some(i) => *i,
            None => return,
        };
        match info.leg {
            Leg::Warmup { fe, be } => {
                let entry = self.warmup_progress.entry(conn).or_insert((0, 0));
                let bytes: u64 = spans.iter().map(|s| s.len as u64).sum();
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
                let qid = info.qid;
                match end {
                    End::B => {
                        // Server side of the client leg (FE, or BE when
                        // split TCP is off): request bytes.
                        let ready = {
                            let q = match self.queries.get_mut(&qid) {
                                Some(q) => q,
                                None => return,
                            };
                            q.srv_progress.absorb(spans);
                            let done = q.srv_progress.complete(Marker::Request, q.req.bytes);
                            if done && !q.request_handled {
                                q.request_handled = true;
                                true
                            } else {
                                false
                            }
                        };
                        if ready {
                            self.handle_request_arrived(net, qid);
                        }
                    }
                    End::A => {
                        // Client receiving the response; completion is
                        // signalled by the FIN.
                        if let Some(q) = self.queries.get_mut(&qid) {
                            q.resp_progress.absorb(spans);
                        }
                    }
                }
            }
            Leg::Be => {
                let qid = info.qid;
                match end {
                    End::B => {
                        // BE receiving the forwarded query.
                        let ready = {
                            let q = match self.queries.get_mut(&qid) {
                                Some(q) => q,
                                None => return,
                            };
                            q.srv_progress.absorb(spans);
                            let done = q.srv_progress.complete(Marker::BeQuery, q.req.bytes);
                            if done && !q.be_handled {
                                q.be_handled = true;
                                true
                            } else {
                                false
                            }
                        };
                        if ready {
                            let be = self.queries[&qid].be;
                            let (proc, plan) = self.be_process(qid, be);
                            let q = self.queries.get_mut(&qid).unwrap();
                            q.proc_ms = proc.as_millis_f64();
                            q.plan = Some(plan);
                            let attempt = q.fetch_attempts;
                            self.push_action(net, proc, Action::BeReply { qid, attempt });
                        }
                    }
                    End::A => {
                        // FE receiving the BE response.
                        let ready = {
                            let q = match self.queries.get_mut(&qid) {
                                Some(q) => q,
                                None => return,
                            };
                            q.resp_progress.absorb(spans);
                            let expected = match &q.plan {
                                Some(p) => {
                                    p.dynamic_bytes
                                        + if q.static_from_cache {
                                            0
                                        } else {
                                            p.static_bytes
                                        }
                                }
                                None => u64::MAX,
                            };
                            let done = q.resp_progress.complete(Marker::BeResponse, expected);
                            if done && !q.resp_handled {
                                q.resp_handled = true;
                                true
                            } else {
                                false
                            }
                        };
                        if ready {
                            self.handle_be_response_complete(net, qid);
                        }
                    }
                }
            }
            Leg::Hedge => {
                let qid = info.qid;
                match end {
                    End::B => {
                        // Hedge BE receiving the duplicated query.
                        let ready = {
                            let q = match self.queries.get_mut(&qid) {
                                Some(q) => q,
                                None => return,
                            };
                            q.hedge_srv_progress.absorb(spans);
                            let done = q.hedge_srv_progress.complete(Marker::BeQuery, q.req.bytes);
                            if done && !q.hedge_be_handled {
                                q.hedge_be_handled = true;
                                true
                            } else {
                                false
                            }
                        };
                        // The hedge may have been cancelled before its
                        // BE saw the query.
                        let hedge_be = if ready {
                            self.queries[&qid].hedge_be
                        } else {
                            None
                        };
                        if let Some(be) = hedge_be {
                            let (proc, plan) = self.be_process(qid, be);
                            let q = self.queries.get_mut(&qid).unwrap();
                            q.hedge_proc_ms = proc.as_millis_f64();
                            q.hedge_plan = Some(plan);
                            let attempt = q.fetch_attempts;
                            self.push_action(net, proc, Action::HedgeReply { qid, attempt });
                        }
                    }
                    End::A => {
                        // FE receiving the hedge BE response; first
                        // complete response (primary or hedge) wins.
                        let ready = {
                            let q = match self.queries.get_mut(&qid) {
                                Some(q) => q,
                                None => return,
                            };
                            q.hedge_resp_progress.absorb(spans);
                            let expected = match &q.hedge_plan {
                                Some(p) => {
                                    p.dynamic_bytes
                                        + if q.static_from_cache {
                                            0
                                        } else {
                                            p.static_bytes
                                        }
                                }
                                None => u64::MAX,
                            };
                            let done = q.hedge_resp_progress.complete(Marker::BeResponse, expected);
                            if done && !q.resp_handled {
                                q.resp_handled = true;
                                true
                            } else {
                                false
                            }
                        };
                        if ready {
                            self.hedge_response_complete(net, qid);
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
        let slot = token as usize;
        let action = self.actions[slot]
            .take()
            .expect("an action timer fires exactly once");
        self.free_actions.push(slot);
        match action {
            Action::Start(spec) => self.start_query(net, spec, 0),
            Action::StartRetry { spec, attempt } => self.start_query(net, spec, attempt),
            Action::FeServe { qid } => self.act_fe_serve(net, qid),
            Action::BeReply { qid, attempt } => self.act_be_reply(net, qid, attempt),
            Action::BeDirectReply { qid } => self.act_be_direct_reply(net, qid),
            Action::ClientDeadline { qid } => self.act_client_deadline(net, qid),
            Action::FetchDeadline { qid, attempt } => self.act_fetch_deadline(net, qid, attempt),
            Action::HedgeFire { qid, attempt } => self.act_hedge_fire(net, qid, attempt),
            Action::HedgeReply { qid, attempt } => self.act_hedge_reply(net, qid, attempt),
            Action::FaultStart { window } => self.act_fault_start(net, window),
            Action::MappingEpoch => self.act_mapping_epoch(net),
        }
    }
}
