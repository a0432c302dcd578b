//! Per-query lifecycle state transitions: start/retry, connection
//! pooling and prewarm, the degraded stub, deadline abandonment and
//! completion records.

use super::*;
use crate::service::RetryPolicy;

impl ServiceWorld {
    /// Pre-warms `n` persistent FE↔BE connections for a pair: opens them
    /// and runs a filler exchange so their congestion windows are grown
    /// before the first measured query (split TCP's warm-connection
    /// premise).
    pub fn prewarm(&mut self, net: &mut Net, fe: usize, be: usize, n: usize) {
        for _ in 0..n {
            let conn = self.open_be_conn(net, fe, be, 0);
            self.conn_info.insert(
                conn,
                ConnInfo {
                    qid: 0,
                    leg: Leg::Warmup { fe, be },
                },
            );
            self.warmup_progress.insert(conn, (0, 0));
            net.send(conn, End::A, WARMUP_REQ_BYTES, Marker::Other, 0);
        }
    }

    pub(super) fn open_be_conn(
        &mut self,
        net: &mut Net,
        fe: usize,
        be: usize,
        session: u64,
    ) -> ConnId {
        let path = PathModel::between(
            &self.fes[fe].site.pt,
            &self.bes[be].0.pt,
            &self.cfg.febe_profile,
        );
        net.open(
            Self::fe_node(fe),
            Self::be_node(be),
            Self::to_params(&path),
            self.cfg.fe_be_tcp.clone().persistent(),
            self.cfg.be_tcp.clone().persistent(),
            session,
        )
    }

    /// Checks out a pooled FE↔BE connection for `qid`'s `leg`,
    /// opening a cold one when the pool is empty.
    pub(super) fn checkout_be_conn(
        &mut self,
        net: &mut Net,
        fe: usize,
        be: usize,
        qid: u64,
        leg: Leg,
    ) -> ConnId {
        // Skip (and release) pooled connections a fault has aborted
        // since check-in.
        let conn = self.free_pool.get_mut(&(fe, be)).and_then(|v| {
            while let Some(c) = v.pop() {
                if !net.is_aborted(c) {
                    return Some(c);
                }
                net.release(c);
            }
            None
        });
        let conn = conn.unwrap_or_else(|| self.open_be_conn(net, fe, be, qid));
        self.conn_info.insert(conn, ConnInfo { qid, leg });
        conn
    }

    pub(super) fn return_be_conn(&mut self, conn: ConnId, fe: usize, be: usize) {
        self.conn_info.remove(&conn);
        self.free_pool.entry((fe, be)).or_default().push(conn);
    }

    /// The start book's wake popped at its earliest entry's reserved
    /// `(now, seq)`: takes that start and begins its query. A series
    /// member first files its successor at `(now + spacing, seq + 1)`,
    /// still ahead of the clock.
    pub(super) fn act_start_wake(&mut self, net: &mut Net) {
        let spec = match self.book.pop(net) {
            (_, Start::Query(packed)) => packed.unpack(),
            (seq, Start::Series(mut cursor)) => {
                let spec = cursor.spec();
                if cursor.member + 1 < cursor.series.count {
                    cursor.member += 1;
                    let at = net.now() + cursor.series.spacing;
                    self.book.insert(net, at, seq + 1, Start::Series(cursor));
                }
                spec
            }
        };
        self.start_query(net, spec, 0);
    }

    /// Starts attempt `attempt` of a query: resolves FE/BE, opens the
    /// client connection, registers the query and arms its client
    /// deadline. When the mapping strategy finds no live FE, a terminal
    /// [`QueryOutcome::NoLiveFe`] record is pushed instead, before any
    /// connection is opened or RNG stream touched: the attempt is not
    /// driven (or retried — there is nowhere to send it).
    pub(super) fn start_query(&mut self, net: &mut Net, spec: QuerySpec, attempt: u32) {
        // Epoch-driven strategies get their re-mapping timer (re)armed
        // here: epochs exist exactly when work is in flight.
        self.arm_mapping_epoch(net);
        let qid = self.next_qid;
        self.next_qid += 1;
        let kw = self.corpus.get(spec.keyword);
        let class = kw.class;
        let req = RequestSpec::for_query_len(kw.chars, 500_000_000_000 + qid);
        let now = net.now();
        let (fe, be, server_pt, rtt_fe_be_ms, dist_fe_be): (
            Option<usize>,
            usize,
            GeoPoint,
            f64,
            f64,
        ) = if self.cfg.split_tcp {
            let fe = match spec.fixed_fe {
                Some(f) => Some(f),
                None => self.resolve_fe(now, spec.client),
            };
            let fe = match fe {
                Some(f) => f,
                None => {
                    // Every FE the strategy could return is dead: fail
                    // fast and typed, before any connection or RNG
                    // draw, instead of spinning until the deadline.
                    self.metrics.inc("cdnsim.no_live_fe");
                    self.completed.push(CompletedQuery {
                        qid,
                        client: spec.client,
                        fe: None,
                        be: 0,
                        keyword: spec.keyword,
                        class,
                        t_start: now,
                        t_done: now,
                        plan: ResponsePlan::new(1, 0, 1, httpsim::CONTENT_ID_STATIC_BASE),
                        proc_ms: 0.0,
                        fe_overhead_ms: 0.0,
                        fetch_start: None,
                        fetch_done: None,
                        rtt_client_fe_ms: 0.0,
                        rtt_fe_be_ms: 0.0,
                        dist_fe_be_miles: 0.0,
                        trace: Capture::default(),
                        traced: false,
                        outcome: QueryOutcome::NoLiveFe {
                            attempts: attempt + 1,
                        },
                    });
                    return;
                }
            };
            let be = self.live_be_for(fe, now);
            (
                Some(fe),
                be,
                self.fes[fe].site.pt,
                self.fe_be_rtt_ms(fe, be),
                self.fe_be_distance_miles(fe, be),
            )
        } else {
            // No split TCP: straight to the nearest BE.
            let be =
                nettopo::geo::nearest(&self.clients[spec.client].pt, &self.cfg.be_sites, |s| s.pt)
                    .unwrap()
                    .0;
            (None, be, self.bes[be].0.pt, 0.0, 0.0)
        };
        let path = self.client_path(spec.client, &server_pt);
        let rtt_client = path.nominal_rtt_ms();
        let client_node = Self::client_node(spec.client);
        let server_node = match fe {
            Some(f) => Self::fe_node(f),
            None => Self::be_node(be),
        };
        let conn = net.open_captured(
            client_node,
            server_node,
            Self::to_params(&path),
            self.cfg.client_tcp.clone(),
            self.cfg.fe_client_tcp.clone(),
            qid,
        );
        self.conn_info.insert(
            conn,
            ConnInfo {
                qid,
                leg: Leg::Client,
            },
        );
        self.queries.insert(
            qid,
            QueryState {
                client: spec.client,
                fe,
                be,
                keyword: spec.keyword,
                class,
                instant_followup: spec.instant_followup,
                fixed_fe: spec.fixed_fe,
                attempt,
                fetch_attempts: 0,
                degraded: false,
                t_start: net.now(),
                client_conn: conn,
                req,
                plan: None,
                proc_ms: 0.0,
                fe_overhead_ms: 0.0,
                fetch_start: None,
                fetch_done: None,
                rtt_client_fe_ms: rtt_client,
                rtt_fe_be_ms,
                dist_fe_be_miles: dist_fe_be,
                srv_progress: RecvProgress::new(),
                request_handled: false,
                static_from_cache: false,
                shed: false,
                fe_counted: false,
                legs: Default::default(),
            },
        );
        if let Some(deadline) = self.cfg.client_retry.as_ref().map(|p| p.deadline) {
            self.push_action(net, deadline, Action::ClientDeadline { qid });
        }
    }

    /// Spends one retry token from `client`'s bucket (lazy refill).
    /// Always true when no budget is configured; when the bucket is dry
    /// the retry is suppressed and the exhaustion counter ticks.
    pub(super) fn try_spend_retry_token(&mut self, client: usize, now: SimTime) -> bool {
        let budget = match self.cfg.overload.retry_budget {
            Some(b) => b,
            None => return true,
        };
        let entry = self
            .retry_tokens
            .entry(client)
            .or_insert((budget.max_tokens, now));
        let dt_secs = now.saturating_since(entry.1).as_millis_f64() / 1_000.0;
        entry.0 = (entry.0 + dt_secs * budget.refill_per_sec).min(budget.max_tokens);
        entry.1 = now;
        if entry.0 >= 1.0 {
            entry.0 -= 1.0;
            true
        } else {
            self.metrics.inc("cdnsim.retry_budget_exhausted");
            false
        }
    }

    /// Graceful degradation: no back-end is reachable in time, so the FE
    /// closes the response with an error stub in place of the dynamic
    /// portion. The client still gets the cached static bytes (already
    /// burst at serve time when caching is on).
    pub(super) fn degrade_query(&mut self, net: &mut Net, qid: u64) {
        self.metrics.inc("cdnsim.degraded_serves");
        let static_bytes = if self.queries[&qid].static_from_cache {
            self.cfg.composer.static_bytes
        } else {
            // Static rides the BE response in the no-cache ablation (or
            // missed a bounded static cache), so nothing reached the
            // client; record a 1-byte placeholder (ResponsePlan requires
            // non-empty portions).
            1
        };
        let static_content = self.cfg.composer.static_content;
        let q = self.queries.get_mut(&qid).unwrap();
        q.degraded = true;
        q.plan = Some(ResponsePlan::new(
            static_bytes,
            static_content,
            DEGRADED_STUB_BYTES,
            DEGRADED_CONTENT_ID,
        ));
        net.send(
            q.client_conn,
            End::B,
            DEGRADED_STUB_BYTES,
            Marker::Error,
            DEGRADED_CONTENT_ID,
        );
        net.close(q.client_conn, End::B);
    }

    /// Client deadline fired with the query still in flight: abandon the
    /// attempt (aborting and releasing its connections, discarding its
    /// capture unless it is the final attempt) and either schedule a
    /// retry or record a timed-out query.
    pub(super) fn act_client_deadline(&mut self, net: &mut Net, qid: u64) {
        let Some(mut q) = self.queries.remove(&qid) else {
            return; // completed before the deadline
        };
        self.release_attempt(net, &mut q);
        net.abort(q.client_conn);
        self.conn_info.remove(&q.client_conn);
        let trace = net.release(q.client_conn);
        let policy = self
            .cfg
            .client_retry
            .clone()
            .expect("deadline only armed when a retry policy is set");
        if self.try_retry(net, &q, &policy) {
            return;
        }
        // Retry count or budget exhausted: surface the failure with the
        // truncated trace of the final attempt so the measurement
        // pipeline can exercise its skip-and-count path.
        let outcome = QueryOutcome::TimedOut {
            attempts: q.attempt + 1,
        };
        self.record(qid, q, net.now(), trace, outcome);
    }

    /// The client consumed the response FIN: close out the attempt and
    /// either retry a shed response or record the completion.
    pub(super) fn finish_query(&mut self, net: &mut Net, qid: u64) {
        let Some(mut q) = self.queries.remove(&qid) else {
            return; // abandoned earlier
        };
        self.conn_info.remove(&q.client_conn);
        // Orderly close from the client side too.
        net.close(q.client_conn, End::A);
        // Shed queries never took a slot; served and degraded queries
        // closed their fetch legs before the response went out.
        self.release_attempt(net, &mut q);
        let trace = net.release(q.client_conn);
        // A shed response is a fast rejection: the client retries it
        // like a deadline miss (same backoff machinery, same budget)
        // when attempts remain.
        if q.shed {
            if let Some(policy) = self.cfg.client_retry.clone() {
                if self.try_retry(net, &q, &policy) {
                    return;
                }
            }
        }
        let outcome = if q.shed {
            QueryOutcome::Shed {
                attempts: q.attempt + 1,
            }
        } else if q.degraded {
            QueryOutcome::Degraded
        } else if q.attempt > 0 {
            QueryOutcome::Retried(q.attempt)
        } else {
            QueryOutcome::Ok
        };
        self.record(qid, q, net.now(), trace, outcome);
    }

    /// Releases what an ended attempt still holds: its open fetch legs,
    /// primary first, and its FE in-flight slot.
    fn release_attempt(&mut self, net: &mut Net, q: &mut QueryState) {
        for leg in &mut q.legs {
            if let Some(conn) = leg.conn.take() {
                self.drop_leg_conn(net, conn, leg.be);
            }
        }
        if q.fe_counted {
            if let Some(fe) = q.fe {
                self.fe_inflight[fe] = self.fe_inflight[fe].saturating_sub(1);
            }
        }
    }

    /// Schedules the next attempt of an abandoned or shed query when the
    /// retry count and the client's token budget allow it. The backoff
    /// is exponential with jitter from the dedicated retry stream, drawn
    /// only here so fault-free runs never touch it. Returns whether a
    /// retry was scheduled.
    fn try_retry(&mut self, net: &mut Net, q: &QueryState, policy: &RetryPolicy) -> bool {
        if q.attempt >= policy.max_retries || !self.try_spend_retry_token(q.client, net.now()) {
            return false;
        }
        let u = self.retry_rng.next_f64();
        let factor = (1u64 << q.attempt.min(16)) as f64 * (1.0 + policy.jitter * u);
        let backoff = SimDuration::from_millis_f64(policy.base_backoff.as_millis_f64() * factor);
        let spec = QuerySpec {
            client: q.client,
            keyword: q.keyword,
            fixed_fe: q.fixed_fe,
            instant_followup: q.instant_followup,
        };
        let attempt = q.attempt + 1;
        self.push_action(net, backoff, Action::StartRetry { spec, attempt });
        true
    }

    /// Pushes the completion record of an ended attempt, with its
    /// client-side capture.
    fn record(
        &mut self,
        qid: u64,
        q: QueryState,
        t_done: SimTime,
        trace: Option<Capture>,
        outcome: QueryOutcome,
    ) {
        // A query that started a fetch and ended before any leg
        // completed (a timeout, or a degrade after the fetch deadline)
        // reports its primary leg's plan, unless it served the stub,
        // and its primary's BE time.
        let [primary, _] = q.legs;
        let (plan, proc_ms) = match (q.fetch_start, q.fetch_done) {
            (Some(_), None) => (q.plan.or(primary.plan), primary.proc_ms),
            _ => (q.plan, q.proc_ms),
        };
        self.completed.push(CompletedQuery {
            qid,
            client: q.client,
            fe: q.fe,
            be: q.be,
            keyword: q.keyword,
            class: q.class,
            t_start: q.t_start,
            t_done,
            // A missing plan means the attempt never got a response.
            plan: plan
                .unwrap_or_else(|| ResponsePlan::new(1, 0, 1, httpsim::CONTENT_ID_STATIC_BASE)),
            proc_ms,
            fe_overhead_ms: q.fe_overhead_ms,
            fetch_start: q.fetch_start,
            fetch_done: q.fetch_done,
            rtt_client_fe_ms: q.rtt_client_fe_ms,
            rtt_fe_be_ms: q.rtt_fe_be_ms,
            dist_fe_be_miles: q.dist_fe_be_miles,
            traced: trace.is_some(),
            trace: trace.unwrap_or_default(),
            outcome,
        });
    }
}
