use super::*;
use nettopo::vantage::{planetlab_like, VantageConfig};
use tcpsim::Sim;

fn small_world(cfg: ServiceConfig) -> Sim<ServiceWorld> {
    let vantages = planetlab_like(
        cfg.seed,
        &VantageConfig {
            count: 20,
            ..VantageConfig::default()
        },
    );
    let corpus = KeywordCorpus::generate(cfg.seed, 200, 0.5);
    let world = ServiceWorld::new(cfg, vantages.into(), Arc::new(corpus));
    Sim::new(7, world)
}

/// The FE↔BE connections pooled for `(fe, be)`, in checkout order.
fn pooled(sim: &mut Sim<ServiceWorld>, fe: usize, be: usize) -> Vec<ConnId> {
    sim.with(|w, _| w.free_pool.get(&(fe, be)).cloned().unwrap_or_default())
}

/// Runs one query from client 0 (pinned to `fixed_fe`, if any),
/// starting `delay_ms` from now, to completion.
fn run_query(sim: &mut Sim<ServiceWorld>, fixed_fe: Option<usize>, keyword: u64, delay_ms: u64) {
    sim.with(|w, net| {
        w.schedule_query(
            net,
            SimDuration::from_millis(delay_ms),
            QuerySpec {
                client: 0,
                keyword,
                fixed_fe,
                instant_followup: false,
            },
        );
    });
    sim.run();
}

fn run_one_query(cfg: ServiceConfig) -> CompletedQuery {
    let mut sim = small_world(cfg);
    run_query(&mut sim, None, 3, 1);
    let mut done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 1);
    done.pop().unwrap()
}

#[test]
fn google_like_query_completes_with_ground_truth() {
    let cq = run_one_query(ServiceConfig::google_like(1));
    assert!(cq.fe.is_some());
    assert!(cq.proc_ms > 1.0, "proc {}", cq.proc_ms);
    assert!(cq.fe_overhead_ms > 0.0);
    assert!(cq.true_fetch_ms().unwrap() > cq.proc_ms);
    assert!(cq.overall_ms() > 0.0);
    assert!(!cq.trace.is_empty());
    assert_eq!(cq.plan.static_content, 1);
}

#[test]
fn bing_like_query_completes() {
    let cq = run_one_query(ServiceConfig::bing_like(1));
    assert!(cq.proc_ms > 10.0);
    assert_eq!(cq.plan.static_content, 2);
    // Store-and-forward: fetch includes the response transfer.
    let fetch = cq.true_fetch_ms().unwrap();
    assert!(fetch >= cq.proc_ms + cq.rtt_fe_be_ms);
}

#[test]
fn client_receives_exactly_the_planned_bytes() {
    let cq = run_one_query(ServiceConfig::google_like(2));
    // Client-side received data bytes from the trace.
    let client_node = ServiceWorld::client_node(0);
    let mut stat = 0u64;
    let mut dynamic = 0u64;
    for ev in &cq.trace {
        if ev.node == client_node && ev.dir == tcpsim::PktDir::Rx {
            for m in &ev.meta {
                match m.marker {
                    Marker::Static => stat += m.len as u64,
                    Marker::Dynamic => dynamic += m.len as u64,
                    _ => {}
                }
            }
        }
    }
    assert_eq!(stat, cq.plan.static_bytes);
    assert_eq!(dynamic, cq.plan.dynamic_bytes);
}

#[test]
fn pool_reuses_connections_across_queries() {
    let mut sim = small_world(ServiceConfig::google_like(3));
    let fe = sim.with(|w, _| w.default_fe(0));
    let be = sim.with(|w, _| w.be_of_fe(fe));
    // The first query opens the pair's only BE connection cold; the
    // sequential queries after it must check that same connection out
    // and return it, never opening another.
    run_query(&mut sim, Some(fe), 0, 1);
    let first = pooled(&mut sim, fe, be);
    assert_eq!(first.len(), 1, "one query, one pooled conn");
    for i in 1..3 {
        run_query(&mut sim, Some(fe), i, 2_000);
        assert_eq!(
            pooled(&mut sim, fe, be),
            first,
            "query {i} reopened the BE conn"
        );
    }
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 3);
    assert!(done.iter().all(|cq| cq.be == be && cq.fetch_done.is_some()));
}

#[test]
fn prewarm_grows_the_pool() {
    let mut sim = small_world(ServiceConfig::google_like(4));
    let fe = sim.with(|w, _| w.default_fe(0));
    let be = sim.with(|w, _| w.be_of_fe(fe));
    sim.with(|w, net| w.prewarm(net, fe, be, 2));
    sim.run();
    let warm = pooled(&mut sim, fe, be);
    assert_eq!(warm.len(), 2);
    // A subsequent query fetches over a warm conn: it checks one of the
    // two out and returns it, opening none.
    run_query(&mut sim, Some(fe), 1, 1);
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 1);
    assert!(done[0].fetch_done.is_some());
    assert_eq!(pooled(&mut sim, fe, be), warm);
}

#[test]
fn no_split_tcp_goes_straight_to_the_be() {
    let mut sim = small_world(ServiceConfig::google_like(5).without_split_tcp());
    run_query(&mut sim, None, 3, 1);
    let cq = sim.with(|w, _| w.drain_completed()).pop().unwrap();
    assert!(cq.fe.is_none());
    assert!(cq.fetch_start.is_none());
    assert!(cq.proc_ms > 0.0);
    // The client's peer is its nearest BE: the record names it, and its
    // nominal RTT is that of the client↔BE path.
    let (nearest_be, be_rtt) = sim.with(|w, _| {
        let pt = w.clients[0].pt;
        let be = nettopo::geo::nearest(&pt, &w.cfg.be_sites, |s| s.pt)
            .unwrap()
            .0;
        (be, w.client_path(0, &w.bes[be].0.pt).nominal_rtt_ms())
    });
    assert_eq!(cq.be, nearest_be);
    assert_eq!(cq.rtt_client_fe_ms, be_rtt);
    // The captured handshake took at least that round trip.
    let client_node = ServiceWorld::client_node(0);
    let first = |dir: tcpsim::PktDir, kind: tcpsim::PktKind| {
        cq.trace
            .iter()
            .find(|e| e.node == client_node && e.dir == dir && e.kind == kind)
            .map(|e| e.t)
            .unwrap()
    };
    let handshake = first(tcpsim::PktDir::Rx, tcpsim::PktKind::SynAck)
        .saturating_since(first(tcpsim::PktDir::Tx, tcpsim::PktKind::Syn))
        .as_millis_f64();
    assert!(
        handshake >= be_rtt,
        "handshake {handshake}ms < BE RTT {be_rtt}ms"
    );
}

#[test]
fn static_cache_off_delays_static_delivery() {
    // With the cache on, static bytes reach the client well before
    // dynamic ones at small RTT; with it off they arrive only after
    // the fetch — compare first-static-arrival times.
    let first_static_ms = |cfg: ServiceConfig| -> f64 {
        let mut sim = small_world(cfg);
        sim.with(|w, net| {
            w.schedule_query(
                net,
                SimDuration::from_millis(1),
                QuerySpec {
                    client: 0,
                    keyword: 3,
                    fixed_fe: None,
                    instant_followup: false,
                },
            );
        });
        sim.run();
        let done = sim.with(|w, _| w.drain_completed());
        let cq = &done[0];
        let client_node = ServiceWorld::client_node(0);
        let t0 = cq.t_start;
        cq.trace
            .iter()
            .find(|e| {
                e.node == client_node
                    && e.dir == tcpsim::PktDir::Rx
                    && e.meta.iter().any(|m| m.marker == Marker::Static)
            })
            .map(|e| e.t.saturating_since(t0).as_millis_f64())
            .unwrap()
    };
    let with_cache = first_static_ms(ServiceConfig::bing_like(6));
    let without = first_static_ms(ServiceConfig::bing_like(6).without_static_cache());
    assert!(
        without > with_cache + 50.0,
        "cache on: {with_cache}ms, off: {without}ms"
    );
}

#[test]
fn fe_result_cache_skips_the_fetch_on_repeat() {
    let mut sim = small_world(ServiceConfig::google_like(8).with_fe_result_cache());
    let fe = sim.with(|w, _| w.default_fe(0));
    for i in 0..2 {
        sim.with(|w, net| {
            w.schedule_query(
                net,
                SimDuration::from_millis(1 + i * 3_000),
                QuerySpec {
                    client: 0,
                    keyword: 5, // same keyword twice
                    fixed_fe: Some(fe),
                    instant_followup: false,
                },
            );
        });
    }
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 2);
    assert!(done[0].true_fetch_ms().is_some(), "first query fetches");
    assert!(
        done[1].true_fetch_ms().is_none(),
        "second query must hit the FE cache"
    );
    assert_eq!(done[1].proc_ms, 0.0);
}

#[test]
fn dataset_b_fixed_fe_overrides_dns() {
    let mut sim = small_world(ServiceConfig::google_like(9));
    let far_fe = sim.with(|w, _| {
        // Pick an FE that is NOT client 0's default.
        let def = w.default_fe(0);
        (0..w.fe_count()).find(|&f| f != def).unwrap()
    });
    sim.with(|w, net| {
        w.schedule_query(
            net,
            SimDuration::from_millis(1),
            QuerySpec {
                client: 0,
                keyword: 1,
                fixed_fe: Some(far_fe),
                instant_followup: false,
            },
        );
    });
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done[0].fe, Some(far_fe));
}

#[test]
fn clean_query_outcome_is_ok() {
    let cq = run_one_query(ServiceConfig::google_like(1));
    assert_eq!(cq.outcome, QueryOutcome::Ok);
}

#[test]
fn empty_fault_plan_is_byte_identical() {
    // Attaching an empty FaultPlan (and installing it) must not
    // perturb a single packet relative to the plain configuration.
    let run = |with_plan: bool| -> CompletedQuery {
        let mut cfg = ServiceConfig::google_like(11);
        if with_plan {
            cfg = cfg.with_faults(nettopo::FaultPlan::default());
        }
        let mut sim = small_world(cfg);
        if with_plan {
            sim.with(|w, net| w.install_faults(net));
        }
        sim.with(|w, net| {
            w.schedule_query(
                net,
                SimDuration::from_millis(1),
                QuerySpec {
                    client: 0,
                    keyword: 3,
                    fixed_fe: None,
                    instant_followup: false,
                },
            );
        });
        sim.run();
        sim.with(|w, _| w.drain_completed()).pop().unwrap()
    };
    let plain = run(false);
    let faulted = run(true);
    assert_eq!(plain.t_done, faulted.t_done);
    assert!(!plain.trace.is_empty());
    assert_eq!(plain.trace, faulted.trace);
    // The BE leg is not captured; its ground-truth instants pin it.
    assert!(plain.fetch_done.is_some());
    assert_eq!(plain.fetch_start, faulted.fetch_start);
    assert_eq!(plain.fetch_done, faulted.fetch_done);
    assert_eq!(faulted.outcome, QueryOutcome::Ok);
}

#[test]
fn degraded_when_every_be_site_is_down() {
    let mut plan = nettopo::FaultPlan::default();
    for be in 0..64 {
        plan = plan.be_outage(be, SimTime::ZERO, SimTime::from_millis(60_000));
    }
    let cfg = ServiceConfig::google_like(12)
        .with_faults(plan)
        .with_fe_fetch_deadline(SimDuration::from_millis(1_000));
    let mut sim = small_world(cfg);
    sim.with(|w, net| {
        w.install_faults(net);
        w.schedule_query(
            net,
            SimDuration::from_millis(1),
            QuerySpec {
                client: 0,
                keyword: 3,
                fixed_fe: None,
                instant_followup: false,
            },
        );
    });
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 1);
    let cq = &done[0];
    assert_eq!(cq.outcome, QueryOutcome::Degraded);
    // The degraded response carries the error stub, not real results.
    assert_eq!(cq.plan.dynamic_bytes, DEGRADED_STUB_BYTES);
    assert_eq!(cq.plan.dynamic_content, DEGRADED_CONTENT_ID);
    // The client actually received error-marked bytes.
    let client_node = ServiceWorld::client_node(0);
    let err_bytes: u64 = cq
        .trace
        .iter()
        .filter(|e| e.node == client_node && e.dir == tcpsim::PktDir::Rx)
        .flat_map(|e| e.meta)
        .filter(|m| m.marker == Marker::Error)
        .map(|m| m.len as u64)
        .sum();
    assert_eq!(err_bytes, DEGRADED_STUB_BYTES);
    assert_eq!(sim.with(|w, _| w.in_flight()), 0);
}

#[test]
fn be_outage_steers_fetch_to_live_site() {
    // Learn the primary BE, then knock it out for the whole run: the
    // FE must route the fetch to another live site and still answer.
    let (fe, primary_be, _) = fe_and_bes(13);
    let plan = nettopo::FaultPlan::default().be_outage(
        primary_be,
        SimTime::ZERO,
        SimTime::from_millis(60_000),
    );
    let cfg = ServiceConfig::google_like(13)
        .with_faults(plan)
        .with_fe_fetch_deadline(SimDuration::from_millis(1_000));
    let mut sim = small_world(cfg);
    pinned_query(&mut sim, fe);
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].outcome, QueryOutcome::Ok);
    assert_ne!(done[0].be, primary_be, "fetch must avoid the dead site");
}

#[test]
fn fe_outage_retries_until_recovery() {
    // All FEs dark for the first 5 s; the client's deadline/backoff
    // loop must carry the query past the outage and then succeed.
    let mut plan = nettopo::FaultPlan::default();
    for fe in 0..512 {
        plan = plan.fe_outage(fe, SimTime::ZERO, SimTime::from_millis(5_000));
    }
    let cfg = ServiceConfig::google_like(14)
        .with_faults(plan)
        .with_client_retry(crate::service::RetryPolicy {
            deadline: SimDuration::from_millis(2_000),
            max_retries: 3,
            base_backoff: SimDuration::from_millis(500),
            jitter: 0.3,
        });
    let mut sim = small_world(cfg);
    sim.with(|w, net| {
        w.install_faults(net);
        w.schedule_query(
            net,
            SimDuration::from_millis(1),
            QuerySpec {
                client: 0,
                keyword: 3,
                fixed_fe: None,
                instant_followup: false,
            },
        );
    });
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 1);
    match done[0].outcome {
        QueryOutcome::Retried(n) => assert!(n >= 1, "retry count {n}"),
        other => panic!("expected Retried, got {other:?}"),
    }
    assert!(
        done[0].t_done >= SimTime::from_millis(5_000),
        "success only after the outage lifts"
    );
    assert_eq!(sim.with(|w, _| w.in_flight()), 0);
}

#[test]
fn fe_outage_outlasting_retry_budget_times_out() {
    let mut plan = nettopo::FaultPlan::default();
    for fe in 0..512 {
        plan = plan.fe_outage(fe, SimTime::ZERO, SimTime::from_millis(60_000));
    }
    let cfg = ServiceConfig::google_like(15)
        .with_faults(plan)
        .with_client_retry(crate::service::RetryPolicy {
            deadline: SimDuration::from_millis(1_000),
            max_retries: 1,
            base_backoff: SimDuration::from_millis(200),
            jitter: 0.3,
        });
    let mut sim = small_world(cfg);
    sim.with(|w, net| {
        w.install_faults(net);
        w.schedule_query(
            net,
            SimDuration::from_millis(1),
            QuerySpec {
                client: 0,
                keyword: 3,
                fixed_fe: None,
                instant_followup: false,
            },
        );
    });
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].outcome, QueryOutcome::TimedOut { attempts: 2 });
    assert_eq!(sim.with(|w, _| w.in_flight()), 0);
}

#[test]
fn conn_drop_forces_cold_reconnect() {
    // A persistent-connection drop empties the FE's pool; the next
    // query must open a fresh (cold) BE connection — a ConnId the warm
    // pool never held.
    let run = |drop_conns: bool| -> (CompletedQuery, Vec<ConnId>, Vec<ConnId>) {
        let mut probe = small_world(ServiceConfig::google_like(16));
        let (fe, be) = probe.with(|w, _| {
            let fe = w.default_fe(0);
            (fe, w.be_of_fe(fe))
        });
        let mut cfg = ServiceConfig::google_like(16);
        if drop_conns {
            cfg = cfg.with_faults(nettopo::FaultPlan::default().conn_drop(
                fe,
                be,
                SimTime::from_millis(500),
            ));
        }
        let mut sim = small_world(cfg);
        let prewarmed = sim.with(|w, net| {
            w.install_faults(net);
            w.prewarm(net, fe, be, 1);
            w.conn_info.keys().copied().collect::<Vec<_>>()
        });
        sim.run(); // warm the pool
        run_query(&mut sim, Some(fe), 3, 1_000);
        let after = pooled(&mut sim, fe, be);
        let cq = sim.with(|w, _| w.drain_completed()).pop().unwrap();
        (cq, prewarmed, after)
    };
    let (warm, warm_conns, warm_after) = run(false);
    let (cold, cold_conns, cold_after) = run(true);
    assert_eq!(warm_conns.len(), 1);
    assert_eq!(warm_after, warm_conns, "control run must reuse the pool");
    assert_eq!(cold_conns.len(), 1);
    assert_eq!(cold_after.len(), 1);
    assert_ne!(
        cold_after, cold_conns,
        "dropped pool must force a fresh connection"
    );
    // Cold handshake + slow start make the fetch strictly slower.
    assert!(cold.true_fetch_ms().unwrap() > warm.true_fetch_ms().unwrap());
}

#[test]
fn many_concurrent_clients_all_complete() {
    let mut sim = small_world(ServiceConfig::bing_like(10));
    for c in 0..20 {
        sim.with(|w, net| {
            w.schedule_query(
                net,
                SimDuration::from_millis(1 + (c as u64 * 13) % 500),
                QuerySpec {
                    client: c,
                    keyword: c as u64,
                    fixed_fe: None,
                    instant_followup: false,
                },
            );
        });
    }
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 20);
    assert_eq!(sim.with(|w, _| w.in_flight()), 0);
}

#[test]
fn action_slab_holds_only_the_timers_armed_at_once() {
    // Queries run one after another, each arming at most five timers
    // over its life (start, client deadline, FE serve, fetch deadline,
    // BE reply). Fired timers must give their slots back, so the slab
    // stays that small however many queries the world serves.
    let cfg = ServiceConfig::google_like(12)
        .with_fe_fetch_deadline(SimDuration::from_millis(5_000))
        .with_client_retry(crate::service::RetryPolicy {
            deadline: SimDuration::from_millis(10_000),
            max_retries: 1,
            base_backoff: SimDuration::from_millis(100),
            jitter: 0.0,
        });
    let mut sim = small_world(cfg);
    let queries = 150;
    for i in 0..queries {
        sim.with(|w, net| {
            w.schedule_query(
                net,
                SimDuration::from_millis(1),
                QuerySpec {
                    client: i % 20,
                    keyword: i as u64,
                    fixed_fe: None,
                    instant_followup: false,
                },
            );
        });
        sim.run();
    }
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), queries);
    sim.with(|w, _| {
        assert!(
            (1..=5).contains(&w.actions.len()),
            "{} action slots for {queries} sequential queries",
            w.actions.len()
        );
        assert!(
            w.actions.iter().all(Option::is_none),
            "a fired action is still held"
        );
        assert_eq!(w.free_actions.len(), w.actions.len());
    });
}

/// Runs two clients' queries, `count` each, either as two series or as
/// the same queries scheduled one by one, with a third client's eager
/// queries at the same instants; returns the completions by qid.
fn series_or_eager(series: bool, spacing: SimDuration) -> Vec<CompletedQuery> {
    let mut sim = small_world(ServiceConfig::google_like(3));
    let count = 5;
    // 250 is past the 200-keyword corpus: it wraps to 50.
    let keywords = vec![4, 7, 250];
    sim.with(|w, net| {
        for client in 0..2 {
            let first = SimDuration::from_millis(5 + client as u64);
            if series {
                let s = QuerySeries {
                    client,
                    fixed_fe: None,
                    keywords: keywords.clone(),
                    first,
                    spacing,
                    count,
                };
                w.schedule_series(net, s);
            } else {
                for r in 0..count {
                    let spec = QuerySpec {
                        client,
                        keyword: keywords[r as usize % keywords.len()],
                        fixed_fe: None,
                        instant_followup: false,
                    };
                    w.schedule_query(net, first + spacing * r, spec);
                }
            }
        }
        for r in 0..3 {
            let spec = QuerySpec {
                client: 2,
                keyword: 1,
                fixed_fe: None,
                instant_followup: false,
            };
            w.schedule_query(net, SimDuration::from_millis(5) + spacing * r, spec);
        }
    });
    sim.run();
    let mut done = sim.with(|w, _| w.drain_completed());
    done.sort_by_key(|q| q.qid);
    done
}

#[test]
fn a_series_starts_its_queries_where_eager_schedules_would() {
    // Overlapping queries (700 ms apart) and simultaneous ones (0 ms):
    // every query must get the same qid, start, finish and packets.
    for spacing in [SimDuration::from_millis(700), SimDuration::ZERO] {
        let eager = series_or_eager(false, spacing);
        let series = series_or_eager(true, spacing);
        assert_eq!(eager.len(), 13);
        assert_eq!(series.len(), eager.len());
        for (a, b) in eager.iter().zip(&series) {
            assert_eq!(
                (a.qid, a.client, a.keyword, a.t_start, a.t_done),
                (b.qid, b.client, b.keyword, b.t_start, b.t_done),
                "spacing {spacing:?}"
            );
            assert!(a.trace == b.trace, "qid {} trace differs", a.qid);
        }
        assert!(series.iter().any(|q| q.keyword == 50));
    }
}

#[test]
fn a_series_keeps_one_start_queued() {
    // 20 spaced queries from one client: the eager schedule queues all
    // 20 starts at once, the series only the next one.
    let mut sim = small_world(ServiceConfig::google_like(4));
    sim.with(|w, net| {
        let s = QuerySeries {
            client: 0,
            fixed_fe: None,
            keywords: vec![3],
            first: SimDuration::from_millis(1),
            spacing: SimDuration::from_secs(5),
            count: 20,
        };
        w.schedule_series(net, s);
    });
    assert_eq!(sim.net().pending_events(), 1);
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 20);
    assert!(done.iter().all(|q| q.keyword == 3));
    sim.with(|w, _| assert!(w.actions.len() <= 5, "{} action slots", w.actions.len()));
}

#[test]
fn the_start_book_starts_queries_in_reserved_time_seq_order() {
    let mut sim = small_world(ServiceConfig::google_like(5));
    let ms = SimDuration::from_millis;
    let query = |client| QuerySpec {
        client,
        keyword: 3,
        fixed_fe: None,
        instant_followup: false,
    };
    sim.with(|w, net| {
        // Sequence numbers are taken in call order: client 0 gets s,
        // client 1 s+1, ..., the series s+4..s+6, client 5 s+7.
        w.schedule_query(net, ms(10), query(0));
        w.schedule_query(net, ms(30), query(1)); // out of time order
        w.schedule_query(net, ms(20), query(2));
        w.schedule_query(net, ms(10), query(3)); // ties client 0
        let series = QuerySeries {
            client: 4,
            fixed_fe: None,
            keywords: vec![3],
            first: ms(10),
            spacing: ms(10),
            count: 3,
        };
        w.schedule_series(net, series); // a member at 10, 20 and 30 ms
        w.schedule_query(net, ms(20), query(5));
    });
    // Six filed starts, none earlier than the first: one queued wake.
    assert_eq!(sim.with(|w, _| w.book.hiwater()), 6);
    assert_eq!(sim.net().pending_events(), 1);
    // An insert before the earliest queues its own wake; the displaced
    // earliest keeps the one it has.
    sim.with(|w, net| w.schedule_query(net, ms(5), query(6)));
    assert_eq!(sim.net().pending_events(), 2);
    sim.run();
    let mut done = sim.with(|w, _| w.drain_completed());
    done.sort_by_key(|q| q.qid);
    let order: Vec<(u64, usize, SimTime)> =
        done.iter().map(|q| (q.qid, q.client, q.t_start)).collect();
    let at = SimTime::from_millis;
    // By (at, seq): 5 ms client 6; 10 ms clients 0 (s), 3 (s+3) and the
    // series (s+4); 20 ms client 2 (s+2), the series (s+5) and client 5
    // (s+7); 30 ms client 1 (s+1) and the series (s+6).
    assert_eq!(
        order,
        [
            (1, 6, at(5)),
            (2, 0, at(10)),
            (3, 3, at(10)),
            (4, 4, at(10)),
            (5, 2, at(20)),
            (6, 4, at(20)),
            (7, 5, at(20)),
            (8, 1, at(30)),
            (9, 4, at(30)),
        ]
    );
    sim.with(|w, _| assert_eq!(w.book.hiwater(), 7));
}

#[test]
fn an_out_of_range_keyword_wraps_at_schedule_time() {
    // 250 is past the 200-keyword corpus: it wraps to 50, the rule
    // series and Datasets A and B already follow.
    let mut sim = small_world(ServiceConfig::google_like(6));
    run_query(&mut sim, None, 250, 1);
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].keyword, 50);
    assert_eq!(done[0].outcome, QueryOutcome::Ok);
}

/// Schedules `n` clients at t = 1 ms, all pinned to client 0's
/// default FE, and runs to completion.
fn run_burst(cfg: ServiceConfig, n: usize) -> (Vec<CompletedQuery>, Sim<ServiceWorld>) {
    let mut sim = small_world(cfg);
    let fe = sim.with(|w, _| w.default_fe(0));
    for c in 0..n {
        sim.with(|w, net| {
            w.schedule_query(
                net,
                SimDuration::from_millis(1),
                QuerySpec {
                    client: c,
                    keyword: c as u64,
                    fixed_fe: Some(fe),
                    instant_followup: false,
                },
            );
        });
    }
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    (done, sim)
}

#[test]
fn admission_watermark_sheds_excess_load() {
    // Watermark 1 on a burst of 8 simultaneous queries at one FE:
    // whoever arrives while another query is in flight is answered
    // with the shed stub immediately (no retry policy configured).
    let cfg = ServiceConfig::google_like(21).with_admission_control(1);
    let (done, mut sim) = run_burst(cfg, 8);
    assert_eq!(done.len(), 8);
    let shed: Vec<_> = done
        .iter()
        .filter(|cq| matches!(cq.outcome, QueryOutcome::Shed { .. }))
        .collect();
    assert!(!shed.is_empty(), "burst of 8 over watermark 1 must shed");
    for cq in &shed {
        assert_eq!(cq.outcome, QueryOutcome::Shed { attempts: 1 });
        assert_eq!(cq.plan.dynamic_bytes, SHED_STUB_BYTES);
        assert!(!cq.outcome.served());
    }
    assert!(done.iter().any(|cq| cq.outcome == QueryOutcome::Ok));
    let shed_metric = sim.with(|w, _| w.metrics().counter("cdnsim.shed_queries"));
    assert_eq!(shed_metric, Some(shed.len() as u64));
    // Every slot was released.
    assert_eq!(sim.with(|w, _| w.in_flight()), 0);
    let fe = sim.with(|w, _| w.default_fe(0));
    assert_eq!(sim.with(|w, _| w.fe_inflight(fe)), 0);
}

#[test]
fn shed_queries_retry_under_policy_and_stop_on_empty_budget() {
    // With a retry policy, shed queries come back after backoff and
    // eventually land under the watermark.
    let retry = crate::service::RetryPolicy {
        deadline: SimDuration::from_millis(30_000),
        max_retries: 5,
        base_backoff: SimDuration::from_millis(300),
        jitter: 0.3,
    };
    let cfg = ServiceConfig::google_like(22)
        .with_admission_control(1)
        .with_client_retry(retry.clone());
    let (done, _) = run_burst(cfg, 6);
    assert_eq!(done.len(), 6);
    assert!(
        done.iter().all(|cq| cq.outcome.served()),
        "retries must drain the shed burst: {:?}",
        done.iter().map(|cq| cq.outcome).collect::<Vec<_>>()
    );
    assert!(done
        .iter()
        .any(|cq| matches!(cq.outcome, QueryOutcome::Retried(_))));

    // Same burst with a zero retry budget: the shed replies are
    // terminal even though the retry policy would allow 5 attempts.
    let cfg = ServiceConfig::google_like(22)
        .with_admission_control(1)
        .with_client_retry(retry)
        .with_retry_budget(crate::service::RetryBudget {
            max_tokens: 0.0,
            refill_per_sec: 0.0,
        });
    let (done, mut sim) = run_burst(cfg, 6);
    assert_eq!(done.len(), 6);
    for cq in &done {
        assert!(
            matches!(
                cq.outcome,
                QueryOutcome::Ok | QueryOutcome::Shed { attempts: 1 }
            ),
            "zero budget forbids retries: {:?}",
            cq.outcome
        );
    }
    let exhausted = sim.with(|w, _| w.metrics().counter("cdnsim.retry_budget_exhausted"));
    assert!(exhausted.unwrap_or(0) > 0);
}

#[test]
fn retry_budget_caps_deadline_retries() {
    // The fe_outage_outlasting_retry_budget_times_out scenario, but
    // the budget (1 token, no refill) runs out before the retry
    // policy (3 retries) does: exactly 2 attempts are made.
    let mut plan = nettopo::FaultPlan::default();
    for fe in 0..512 {
        plan = plan.fe_outage(fe, SimTime::ZERO, SimTime::from_millis(120_000));
    }
    let cfg = ServiceConfig::google_like(23)
        .with_faults(plan)
        .with_client_retry(crate::service::RetryPolicy {
            deadline: SimDuration::from_millis(1_000),
            max_retries: 3,
            base_backoff: SimDuration::from_millis(200),
            jitter: 0.3,
        })
        .with_retry_budget(crate::service::RetryBudget {
            max_tokens: 1.0,
            refill_per_sec: 0.0,
        });
    let mut sim = small_world(cfg);
    sim.with(|w, net| {
        w.install_faults(net);
        w.schedule_query(
            net,
            SimDuration::from_millis(1),
            QuerySpec {
                client: 0,
                keyword: 3,
                fixed_fe: None,
                instant_followup: false,
            },
        );
    });
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].outcome, QueryOutcome::TimedOut { attempts: 2 });
    assert_eq!(
        sim.with(|w, _| w.metrics().counter("cdnsim.retry_budget_exhausted")),
        Some(1)
    );
}

#[test]
fn hedged_fetch_wins_when_primary_be_stalls() {
    // The default BE goes dark at 2 ms — after the query (started at
    // 1 ms) was routed to it, so routing cannot steer away. The
    // primary fetch stalls forever; the hedge fires 5 ms in and
    // serves from the next-nearest live site. First response wins.
    let (fe, be, _) = fe_and_bes(24);
    let cfg = ServiceConfig::google_like(24)
        .with_faults(nettopo::FaultPlan::default().be_outage(
            be,
            SimTime::from_millis(2),
            SimTime::from_millis(60_000),
        ))
        .with_hedged_fetches(SimDuration::from_millis(5));
    let mut sim = small_world(cfg);
    pinned_query(&mut sim, fe);
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 1);
    let cq = &done[0];
    assert_eq!(cq.outcome, QueryOutcome::Ok);
    assert_ne!(cq.be, be, "the hedge BE must have served the response");
    assert!(cq.proc_ms > 0.0);
    assert_eq!(count(&mut sim, "cdnsim.hedge_wins"), 1);
    assert_nothing_held(&mut sim);
}

#[test]
fn breaker_opens_then_fast_fails_later_fetches() {
    // Every BE dark, 500 ms fetch deadline, breaker trips after one
    // failure with a long cooldown. Query 1 pays the deadline and
    // degrades; query 2 (1 s later) fast-fails straight to the
    // degraded response without ever starting a fetch.
    let mut plan = nettopo::FaultPlan::default();
    for be in 0..64 {
        plan = plan.be_outage(be, SimTime::ZERO, SimTime::from_millis(60_000));
    }
    let cfg = ServiceConfig::google_like(25)
        .with_faults(plan)
        .with_fe_fetch_deadline(SimDuration::from_millis(500))
        .with_circuit_breaker(crate::service::BreakerPolicy {
            failure_threshold: 1,
            cooldown: SimDuration::from_millis(30_000),
        });
    let mut sim = small_world(cfg);
    let fe = sim.with(|w, _| w.default_fe(0));
    sim.with(|w, net| {
        w.install_faults(net);
        for (client, at) in [(0usize, 1u64), (1, 1_000)] {
            w.schedule_query(
                net,
                SimDuration::from_millis(at),
                QuerySpec {
                    client,
                    keyword: client as u64,
                    fixed_fe: Some(fe),
                    instant_followup: false,
                },
            );
        }
    });
    sim.run();
    let mut done = sim.with(|w, _| w.drain_completed());
    done.sort_by_key(|cq| cq.client);
    assert_eq!(done.len(), 2);
    assert!(done.iter().all(|cq| cq.outcome == QueryOutcome::Degraded));
    assert!(done[0].fetch_start.is_some(), "query 1 attempted a fetch");
    assert!(done[1].fetch_start.is_none(), "query 2 must fast-fail");
    assert_eq!(
        sim.with(|w, _| w.metrics().counter("cdnsim.breaker_opens")),
        Some(1)
    );
    assert_eq!(
        sim.with(|w, _| w.metrics().counter("cdnsim.breaker_fastfails")),
        Some(1)
    );
}

#[test]
fn load_model_stretches_fe_overhead_under_concurrency() {
    let model = crate::service::LoadModel {
        fe_capacity: 2,
        be_capacity: 64,
        max_slowdown: 20.0,
    };
    // Alone, the load model is inert: a lone query sees slowdown 1.
    let plain = run_one_query(ServiceConfig::google_like(26));
    let modeled = run_one_query(ServiceConfig::google_like(26).with_load_model(model));
    assert_eq!(plain.fe_overhead_ms, modeled.fe_overhead_ms);
    assert_eq!(plain.t_done, modeled.t_done);

    // Under a concurrent burst the modeled FE queues: its worst
    // per-query overhead must exceed the load-oblivious one.
    let (base, _) = run_burst(ServiceConfig::google_like(26), 8);
    let (loaded, _) = run_burst(ServiceConfig::google_like(26).with_load_model(model), 8);
    let worst = |v: &[CompletedQuery]| {
        v.iter()
            .map(|cq| cq.fe_overhead_ms)
            .fold(0.0f64, |a, b| a.max(b))
    };
    assert!(
        worst(&loaded) > worst(&base) * 1.5,
        "loaded {} vs base {}",
        worst(&loaded),
        worst(&base)
    );
}

#[test]
fn inert_overload_policies_do_not_change_a_run() {
    // Policies that never trigger (huge watermark, hedge delay
    // longer than the run, closed breaker, untouched budget) must
    // leave the packet trace and timings byte-identical.
    let plain = run_one_query(ServiceConfig::google_like(27));
    let guarded = run_one_query(
        ServiceConfig::google_like(27)
            .with_admission_control(10_000)
            .with_retry_budget(crate::service::RetryBudget::default())
            .with_hedged_fetches(SimDuration::from_millis(3_600_000))
            .with_circuit_breaker(crate::service::BreakerPolicy::default()),
    );
    assert_eq!(plain.outcome, guarded.outcome);
    assert_eq!(plain.t_done, guarded.t_done);
    assert_eq!(plain.proc_ms, guarded.proc_ms);
    assert_eq!(plain.fe_overhead_ms, guarded.fe_overhead_ms);
    assert!(!plain.trace.is_empty());
    assert_eq!(plain.trace, guarded.trace);
    // The BE leg is not captured; its ground-truth instants pin it.
    assert!(plain.fetch_done.is_some());
    assert_eq!(plain.fetch_start, guarded.fetch_start);
    assert_eq!(plain.fetch_done, guarded.fetch_done);
}

/// Client 0's default FE, that FE's nearest BE, and the next-nearest
/// BE, where a hedge or a failover from the nearest one goes.
fn fe_and_bes(seed: u64) -> (usize, usize, usize) {
    let mut probe = small_world(ServiceConfig::google_like(seed));
    probe.with(|w, _| {
        let fe = w.default_fe(0);
        let be = w.be_of_fe(fe);
        let next = w.ranked_bes(fe).into_iter().find(|&b| b != be).unwrap();
        (fe, be, next)
    })
}

/// A service counter, reading 0 when it was never touched.
fn count(sim: &mut Sim<ServiceWorld>, name: &str) -> u64 {
    sim.with(|w, _| w.metrics().counter(name).unwrap_or(0))
}

/// Asserts that no query, connection record or in-flight slot is left.
fn assert_nothing_held(sim: &mut Sim<ServiceWorld>) {
    sim.with(|w, _| {
        assert_eq!(w.in_flight(), 0);
        assert!(w.conn_info.is_empty(), "{} conn records", w.conn_info.len());
        for fe in 0..w.fe_count() {
            assert_eq!(w.fe_inflight(fe), 0, "FE {fe} slot leaked");
        }
        for be in 0..w.cfg.be_sites.len() {
            assert_eq!(w.be_inflight(be), 0, "BE {be} slot leaked");
        }
    });
}

/// Installs the world's fault plan and schedules one query from client
/// 0, pinned to `fe`, at 1 ms.
fn pinned_query(sim: &mut Sim<ServiceWorld>, fe: usize) {
    sim.with(|w, net| {
        w.install_faults(net);
        w.schedule_query(
            net,
            SimDuration::from_millis(1),
            QuerySpec {
                client: 0,
                keyword: 3,
                fixed_fe: Some(fe),
                instant_followup: false,
            },
        );
    });
}

#[test]
fn primary_win_cancels_the_hedge_in_flight() {
    // No fault; the hedge fires 1 ms into the fetch, on a cold
    // connection to the farther site, and loses the race.
    let seed = 28;
    let (fe, be, hedge_be) = fe_and_bes(seed);
    let run = |cfg: ServiceConfig| {
        let mut sim = small_world(cfg);
        pinned_query(&mut sim, fe);
        sim.run();
        let cq = sim.with(|w, _| w.drain_completed()).pop().unwrap();
        (cq, sim)
    };
    let (plain, _) = run(ServiceConfig::google_like(seed));
    let (cq, mut sim) =
        run(ServiceConfig::google_like(seed).with_hedged_fetches(SimDuration::from_millis(1)));
    assert_eq!(count(&mut sim, "cdnsim.hedges_launched"), 1);
    assert_eq!(count(&mut sim, "cdnsim.hedge_wins"), 0);
    assert_eq!(cq.outcome, QueryOutcome::Ok);
    // The record carries the primary's BE ground truth: what the same
    // query reports without a hedge.
    assert_eq!(plain.be, be);
    assert_eq!(cq.be, be);
    assert_eq!(cq.plan, plain.plan);
    assert_eq!(cq.proc_ms, plain.proc_ms);
    assert_eq!(cq.rtt_fe_be_ms, plain.rtt_fe_be_ms);
    assert_eq!(cq.dist_fe_be_miles, plain.dist_fe_be_miles);
    assert_eq!(cq.fetch_done, plain.fetch_done);
    // Connections open in order: the client's (0), the primary fetch's
    // (1), the hedge's (2). The primary goes back to the pool; the
    // hedge is aborted and not pooled.
    let (primary, hedge) = (ConnId(1), ConnId(2));
    assert_eq!(pooled(&mut sim, fe, be), [primary]);
    assert!(pooled(&mut sim, fe, hedge_be).is_empty());
    assert!(sim.net().is_aborted(hedge));
    assert!(!sim.net().is_aborted(primary));
    assert_nothing_held(&mut sim);
    // The hedge was released too: its slot and the client's are free,
    // so two fresh connections fit without growing the slab.
    sim.with(|w, net| w.prewarm(net, fe, hedge_be, 2));
    sim.run();
    let slots = sim.net().take_metrics().gauge("tcpsim.conn_slots_hiwater");
    assert_eq!(slots.map(|(_, max)| max), Some(3.0));
}

#[test]
fn fetch_deadline_failover_cancels_an_outstanding_hedge() {
    // The nearest BE goes dark at 2 ms, after the query was routed to
    // it, so the primary fetch stalls. The hedge fires 395 ms in and
    // is still connecting when the 400 ms fetch deadline fails the
    // attempt over: the failover cancels the hedge and refetches from
    // the same next-nearest site on a fresh connection.
    let seed = 24;
    let (fe, be, next) = fe_and_bes(seed);
    let cfg = ServiceConfig::google_like(seed)
        .with_faults(nettopo::FaultPlan::default().be_outage(
            be,
            SimTime::from_millis(2),
            SimTime::from_millis(60_000),
        ))
        .with_fe_fetch_deadline(SimDuration::from_millis(400))
        .with_hedged_fetches(SimDuration::from_millis(395));
    let mut sim = small_world(cfg);
    pinned_query(&mut sim, fe);
    sim.run();
    let cq = sim.with(|w, _| w.drain_completed()).pop().unwrap();
    assert_eq!(cq.outcome, QueryOutcome::Ok);
    assert_eq!(count(&mut sim, "cdnsim.hedges_launched"), 1);
    assert_eq!(count(&mut sim, "cdnsim.hedge_wins"), 0);
    assert_eq!(count(&mut sim, "cdnsim.fetch_failovers"), 1);
    assert_eq!(cq.be, next);
    assert!(cq.proc_ms > 0.0);
    let next_rtt = sim.with(|w, _| w.fe_be_rtt_ms(fe, next));
    assert_eq!(cq.rtt_fe_be_ms, next_rtt);
    // The client's connection is 0, the stalled primary 1, the hedge
    // 2, the failover's 3; only the failover's is pooled.
    let conns = [ConnId(1), ConnId(2), ConnId(3)];
    assert!(sim.net().is_aborted(conns[0]));
    assert!(sim.net().is_aborted(conns[1]));
    assert_eq!(pooled(&mut sim, fe, next), [conns[2]]);
    assert!(pooled(&mut sim, fe, be).is_empty());
    assert_nothing_held(&mut sim);
}

#[test]
fn client_deadline_with_both_legs_open_reports_the_primary() {
    // The client gives up 0.5 ms before the primary response is in:
    // both BEs have processed the query by then, and both legs are
    // open. The timed-out record reports the primary's plan and BE
    // time, not the hedge's.
    let seed = 31;
    let (fe, be, hedge_be) = fe_and_bes(seed);
    let retry = |deadline| crate::service::RetryPolicy {
        deadline,
        max_retries: 0,
        base_backoff: SimDuration::from_millis(100),
        jitter: 0.0,
    };
    let base = ServiceConfig::google_like(seed);
    let mut probe = small_world(
        base.clone()
            .with_client_retry(retry(SimDuration::from_secs(60))),
    );
    pinned_query(&mut probe, fe);
    probe.run();
    let plain = probe.with(|w, _| w.drain_completed()).pop().unwrap();
    assert_eq!(plain.be, be);
    let deadline =
        plain.fetch_done.unwrap().saturating_since(plain.t_start) - SimDuration::from_micros(500);
    let cfg = base
        .with_client_retry(retry(deadline))
        .with_hedged_fetches(SimDuration::from_millis(1));
    let mut sim = small_world(cfg);
    pinned_query(&mut sim, fe);
    sim.run_until(plain.t_start + deadline - SimDuration::from_micros(1));
    sim.with(|w, _| {
        assert_eq!(w.bes[be].1.queries_served(), 1);
        assert_eq!(w.bes[hedge_be].1.queries_served(), 1);
        assert_eq!((w.be_inflight(be), w.be_inflight(hedge_be)), (1, 1));
    });
    sim.run();
    let cq = sim.with(|w, _| w.drain_completed()).pop().unwrap();
    assert_eq!(cq.outcome, QueryOutcome::TimedOut { attempts: 1 });
    assert_eq!(count(&mut sim, "cdnsim.hedge_wins"), 0);
    assert_eq!(cq.be, be);
    assert_eq!(cq.plan, plain.plan);
    assert_eq!(cq.proc_ms, plain.proc_ms);
    assert_eq!(cq.fetch_done, None);
    assert_nothing_held(&mut sim);
}

/// FNV-1a over every field of every record (its `Debug` rendering,
/// the capture included), in the order given.
fn digest(done: &[CompletedQuery]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in done.iter().flat_map(|cq| format!("{cq:?}").into_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Forty queries 40 ms apart, half of them pinned to one FE whose
/// nearest BE is dark for 2.2 s and whose next-nearest one is dark for
/// half a second inside that, under hedging, fetch deadlines, a
/// circuit breaker and client deadlines with one retry.
fn hedge_failover_world() -> (Vec<CompletedQuery>, Sim<ServiceWorld>) {
    let seed = 36;
    let (fe, be, next) = fe_and_bes(seed);
    let ms = SimDuration::from_millis;
    let at = SimTime::from_millis;
    let plan = nettopo::FaultPlan::default()
        .be_outage(be, at(300), at(2_500))
        .be_outage(next, at(1_200), at(1_700));
    let cfg = ServiceConfig::google_like(seed)
        .with_faults(plan)
        .with_fe_fetch_deadline(ms(200))
        .with_hedged_fetches(ms(130))
        .with_client_retry(crate::service::RetryPolicy {
            deadline: ms(450),
            max_retries: 1,
            base_backoff: ms(100),
            jitter: 0.3,
        })
        .with_circuit_breaker(crate::service::BreakerPolicy {
            failure_threshold: 3,
            cooldown: ms(400),
        });
    let mut sim = small_world(cfg);
    sim.with(|w, net| {
        w.install_faults(net);
        for i in 0..40u64 {
            let spec = QuerySpec {
                client: i as usize % 20,
                keyword: i,
                fixed_fe: (i % 2 == 0).then_some(fe),
                instant_followup: false,
            };
            w.schedule_query(net, ms(1 + 40 * i), spec);
        }
    });
    sim.run();
    let mut done = sim.with(|w, _| w.drain_completed());
    done.sort_by_key(|cq| cq.qid);
    (done, sim)
}

#[test]
fn hedged_failover_world_matches_its_digest() {
    // Every way a fetch leg ends, in one world: hedges that lose to
    // the primary or to a failover, one that wins, client deadlines
    // mid-fetch and breaker fast-fails. The digest pins every field of
    // every record, captures included, so a change to what a leg does
    // at any of these ends, or to the order it does it in, moves it.
    let (done, mut sim) = hedge_failover_world();
    let outcomes = |f: fn(&QueryOutcome) -> bool| done.iter().filter(|cq| f(&cq.outcome)).count();
    assert_eq!(outcomes(|o| *o == QueryOutcome::Ok), 34);
    assert_eq!(outcomes(|o| matches!(o, QueryOutcome::Retried(1))), 2);
    assert_eq!(outcomes(|o| *o == QueryOutcome::Degraded), 3);
    assert_eq!(
        outcomes(|o| *o == QueryOutcome::TimedOut { attempts: 2 }),
        1
    );
    for (name, n) in [
        ("cdnsim.hedges_launched", 12),
        ("cdnsim.hedge_wins", 1),
        ("cdnsim.fetch_failovers", 9),
        ("cdnsim.breaker_fastfails", 3),
    ] {
        assert_eq!(count(&mut sim, name), n, "{name}");
    }
    assert_eq!(format!("{:016x}", digest(&done)), "88cc795d7f8fe475");
    assert_nothing_held(&mut sim);
}
