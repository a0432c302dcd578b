//! Property-based tests on the simulator core and the analysis
//! primitives.

use nettopo::PathModel;
use proptest::prelude::*;
use simcore::rng::Rng;
use stats::quantile::{median, quantile, Summary};
use stats::{gap_clusters, moving_median, BoxSummary, Ecdf};
use tcpsim::{App, ConnId, End, Marker, Net, NodeId, PktDir, PktKind, Sim, TcpOptions};

// ---------- TCP transfer properties ----------

struct Transfer {
    request: u64,
    response: u64,
    client_got: u64,
    server_got: u64,
    /// Most request bytes one arrival delivered at the server: more than
    /// one MSS means a segment overtook its predecessor.
    server_max_delivery: u64,
    done: bool,
}

impl App for Transfer {
    fn on_established(&mut self, net: &mut Net, conn: ConnId, end: End) {
        if end == End::A {
            net.send(conn, End::A, self.request, Marker::Request, 1);
        }
    }
    fn on_data(&mut self, net: &mut Net, conn: ConnId, end: End, bytes: u64) {
        match end {
            End::B => {
                self.server_got += bytes;
                self.server_max_delivery = self.server_max_delivery.max(bytes);
                if self.server_got == self.request {
                    net.send(conn, End::B, self.response, Marker::Static, 2);
                    net.close(conn, End::B);
                }
            }
            End::A => self.client_got += bytes,
        }
    }
    fn on_fin(&mut self, net: &mut Net, conn: ConnId, end: End) {
        if end == End::A {
            self.done = true;
            net.close(conn, End::A);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every byte of every transfer arrives exactly once, in order, for
    /// any RTT, loss rate, transfer size and initial window: the
    /// applications are handed exactly the bytes sent, and the data the
    /// client received on the wire covers the whole response. A receiver
    /// that skipped a gap would still count the response's length, but
    /// it acknowledges past the gap, so the missing bytes are never sent
    /// again and the wire shows the hole.
    #[test]
    fn tcp_delivers_every_byte_exactly_once(
        seed in 0u64..5_000,
        rtt_ms in 1.0f64..300.0,
        loss in 0.0f64..0.12,
        request in 100u64..3_000,
        response in 1_000u64..120_000,
        iw in 1u32..12,
    ) {
        let app = Transfer {
            request,
            response,
            client_got: 0,
            server_got: 0,
            server_max_delivery: 0,
            done: false,
        };
        let mut sim = Sim::new(seed, app);
        let cid = sim.net().open_captured(
            NodeId(1),
            NodeId(2),
            PathModel::lossy(rtt_ms, loss),
            TcpOptions::default(),
            TcpOptions::default().with_initial_window(iw),
            1,
        );
        sim.run();
        let capture = sim.net().release(cid).unwrap();
        let app = sim.into_app();
        prop_assert_eq!(app.server_got, request);
        prop_assert_eq!(app.client_got, response);
        prop_assert!(app.done, "client must see the FIN");
        // The received data ranges cover [0, response) with no hole
        // (a retransmission may overlap what already arrived).
        let mut ranges: Vec<(u64, u64)> = capture
            .iter()
            .filter(|e| e.dir == PktDir::Rx && e.kind == PktKind::Data)
            .map(|e| (e.seq, e.seq + e.len as u64))
            .collect();
        ranges.sort_unstable();
        let mut covered = 0u64;
        for (from, to) in ranges {
            prop_assert!(from <= covered, "bytes [{}, {}) never arrived", covered, from);
            covered = covered.max(to);
        }
        prop_assert_eq!(covered, response);
    }

    /// Links are FIFO: despite per-packet jitter, arrivals never reorder
    /// in either direction. The request is as large as the response, so
    /// both directions carry multi-segment flights. Client side (from its
    /// capture): Rx timestamps are non-decreasing and, the path being
    /// clean, data seq numbers strictly increase. Server side: every
    /// request segment is delivered on its own arrival — one that
    /// overtook its predecessor would be held back and delivered together
    /// with it, more than one MSS at once.
    #[test]
    fn links_deliver_fifo_under_jitter(
        seed in 0u64..2_000,
        rtt_ms in 1.0f64..150.0,
        response in 5_000u64..80_000,
    ) {
        use simcore::dist::Dist;
        let mut sim = Sim::new(seed, Transfer {
            request: response,
            response,
            client_got: 0,
            server_got: 0,
            server_max_delivery: 0,
            done: false,
        });
        let path = PathModel {
            base_owd_ms: rtt_ms / 2.0,
            // Heavy jitter relative to serialization gaps.
            jitter_ms: Dist::TruncatedBelow {
                lo: 0.0,
                inner: Box::new(Dist::Exponential { mean: 1.0 }),
            },
            loss: 0.0,
            bw_mbps: 1_000.0,
            distance_miles: 0.0,
        };
        let opts = TcpOptions::default();
        let cid = sim.net().open_captured(
            NodeId(1),
            NodeId(2),
            path,
            opts,
            opts,
            1,
        );
        sim.run();
        let trace = sim.net().release(cid).unwrap();
        prop_assert!(trace.iter().all(|e| e.node == NodeId(1)));
        let mut last = None;
        for ev in trace.iter().filter(|e| e.dir == tcpsim::PktDir::Rx) {
            if let Some(prev) = last {
                prop_assert!(ev.t >= prev, "Rx reordered at the client");
            }
            last = Some(ev.t);
        }
        let mut prev_seq = None;
        for ev in trace.iter().filter(|e| {
            e.dir == tcpsim::PktDir::Rx && e.kind == tcpsim::PktKind::Data
        }) {
            if let Some(p) = prev_seq {
                prop_assert!(ev.seq > p, "data seq went backwards: {} after {p}", ev.seq);
            }
            prev_seq = Some(ev.seq);
        }
        let app = sim.into_app();
        prop_assert_eq!(app.server_got, response);
        prop_assert!(
            app.server_max_delivery <= tcpsim::opts::MSS as u64,
            "request segments reordered: {} B delivered at once",
            app.server_max_delivery
        );
    }

    /// The simulation is replay-deterministic for any parameters.
    #[test]
    fn tcp_transfer_is_deterministic(
        seed in 0u64..1_000,
        rtt_ms in 1.0f64..200.0,
        loss in 0.0f64..0.08,
        response in 1_000u64..50_000,
    ) {
        let run = || {
            let mut sim = Sim::new(seed, Transfer {
                request: 500,
                response,
                client_got: 0,
                server_got: 0,
                server_max_delivery: 0,
                done: false,
            });
            sim.net().open(
                NodeId(1),
                NodeId(2),
                PathModel::lossy(rtt_ms, loss),
                TcpOptions::default(),
                TcpOptions::default(),
                1,
            );
            sim.run();
            sim.net().now()
        };
        prop_assert_eq!(run(), run());
    }
}

// ---------- sender chunk-map lookup properties ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `meta_for_range` with its resume cursor and ACK-driven pruning
    /// returns exactly the spans a naive rescan of the full chunk map
    /// would, for any chunk layout and any query pattern — including the
    /// out-of-order `from` offsets retransmissions produce, and queries
    /// interleaved with ACK advances that prune the map underneath the
    /// cursor.
    #[test]
    fn meta_for_range_cursor_matches_naive_rescan(
        chunk_lens in prop::collection::vec(1u64..2500, 1..24),
        ops in prop::collection::vec(
            (0.0f64..1.0, 1u32..3000, 0u8..2),
            1..60,
        ),
    ) {
        use simcore::time::SimTime;
        use tcpsim::endpoint::Endpoint;
        use tcpsim::MetaSpan;

        let markers = [Marker::Static, Marker::Dynamic, Marker::Request];
        let mut ep = Endpoint::new(TcpOptions::default());
        // The immutable reference layout: (start, end, marker, content).
        let mut layout = Vec::new();
        let mut off = 0u64;
        for (i, &len) in chunk_lens.iter().enumerate() {
            let marker = markers[i % markers.len()];
            ep.push_chunk(len, marker, i as u64);
            layout.push((off, off + len, marker, i as u64));
            off += len;
        }
        let total = off;
        // Pretend everything has been transmitted so arbitrary ACKs up
        // to `total` are plausible.
        ep.snd_nxt = total;

        let naive = |from: u64, len: u32| -> Vec<MetaSpan> {
            let to = from + len as u64;
            layout
                .iter()
                .filter(|&&(s, e, _, _)| e > from && s < to)
                .map(|&(s, e, marker, content)| {
                    let lo = from.max(s);
                    let hi = to.min(e);
                    MetaSpan { offset: lo, len: (hi - lo) as u32, marker, content }
                })
                .collect()
        };

        let mut una = 0u64;
        for (frac, qlen, advance) in ops {
            let advance = advance == 1;
            if una >= total {
                break;
            }
            // Queries land anywhere in the un-ACKed window, in any
            // order — a retransmission is a query far below snd_nxt.
            let from = una + ((total - una - 1) as f64 * frac) as u64;
            let len = (qlen as u64).min(total - from).max(1) as u32;
            let got = ep.meta_for_range(from, len);
            let want = naive(from, len);
            prop_assert_eq!(got.as_slice(), want.as_slice(),
                "from={} len={} una={}", from, len, una);
            prop_assert_eq!(
                got.iter().map(|m| m.len as u64).sum::<u64>(),
                len as u64,
                "spans must tile the queried range exactly"
            );
            if advance && from > una {
                // Cumulative ACK up to `from`: prunes chunks wholly
                // below it; later queries stay at or above the frontier.
                ep.on_ack(from, u64::MAX, SimTime::ZERO, false);
                prop_assert_eq!(ep.snd_una, from);
                una = from;
            }
        }
        // Pruning must never discard a chunk the window can still touch.
        prop_assert!(ep.chunks_base <= una.max(1));
    }
}

// ---------- statistics properties ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Quantiles are monotone in q and bounded by the data range.
    #[test]
    fn quantiles_monotone_and_bounded(
        mut xs in prop::collection::vec(-1e6f64..1e6, 1..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo_q, hi_q) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, lo_q).unwrap();
        let b = quantile(&xs, hi_q).unwrap();
        prop_assert!(a <= b + 1e-9);
        xs.sort_by(|p, q| p.partial_cmp(q).unwrap());
        prop_assert!(a >= xs[0] - 1e-9);
        prop_assert!(b <= xs[xs.len() - 1] + 1e-9);
    }

    /// The moving median stays within the window's min/max.
    #[test]
    fn moving_median_bounded_by_window(
        xs in prop::collection::vec(-1e3f64..1e3, 1..100),
        window in 1usize..20,
    ) {
        let mm = moving_median(&xs, window);
        prop_assert_eq!(mm.len(), xs.len());
        for (i, &v) in mm.iter().enumerate() {
            let start = i.saturating_sub(window - 1);
            let w = &xs[start..=i];
            let lo = w.iter().cloned().fold(f64::MAX, f64::min);
            let hi = w.iter().cloned().fold(f64::MIN, f64::max);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    /// ECDF is a valid CDF: monotone, 0 below min, 1 at max.
    #[test]
    fn ecdf_is_a_cdf(xs in prop::collection::vec(-1e4f64..1e4, 1..300)) {
        let e = Ecdf::new(&xs);
        let lo = xs.iter().cloned().fold(f64::MAX, f64::min);
        let hi = xs.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert_eq!(e.fraction_le(lo - 1.0), 0.0);
        prop_assert_eq!(e.fraction_le(hi), 1.0);
        let mut prev = 0.0;
        for i in 0..=20 {
            let x = lo + (hi - lo) * i as f64 / 20.0;
            let f = e.fraction_le(x);
            prop_assert!(f >= prev - 1e-12);
            prev = f;
        }
    }

    /// Box summaries order their landmarks and classify outliers
    /// consistently.
    #[test]
    fn box_summary_invariants(xs in prop::collection::vec(-1e4f64..1e4, 1..200)) {
        let b = BoxSummary::of(&xs).unwrap();
        prop_assert!(b.whisker_lo <= b.q1 + 1e-9);
        prop_assert!(b.q1 <= b.median + 1e-9);
        prop_assert!(b.median <= b.q3 + 1e-9);
        prop_assert!(b.q3 <= b.whisker_hi + 1e-9);
        prop_assert_eq!(
            b.outliers.len() + xs.iter().filter(|&&x| x >= b.whisker_lo && x <= b.whisker_hi).count(),
            xs.len()
        );
    }

    /// Gap clustering partitions the input and respects the gap.
    #[test]
    fn gap_clusters_partition(
        mut ts in prop::collection::vec(0.0f64..1e4, 1..200),
        gap in 0.1f64..500.0,
    ) {
        ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let clusters = gap_clusters(&ts, gap);
        // Partition property.
        let mut covered = 0usize;
        for c in &clusters {
            prop_assert_eq!(c.start_idx, covered);
            covered = c.end_idx;
            // Within a cluster, consecutive gaps ≤ gap.
            for w in ts[c.start_idx..c.end_idx].windows(2) {
                prop_assert!(w[1] - w[0] <= gap + 1e-9);
            }
        }
        prop_assert_eq!(covered, ts.len());
        // Between clusters, the gap is exceeded.
        for pair in clusters.windows(2) {
            prop_assert!(pair[1].t_first - pair[0].t_last > gap);
        }
    }

    /// Summary and median agree.
    #[test]
    fn summary_median_consistent(xs in prop::collection::vec(-1e4f64..1e4, 1..200)) {
        let s = Summary::of(&xs).unwrap();
        prop_assert_eq!(s.median, median(&xs).unwrap());
        prop_assert!(s.min <= s.median && s.median <= s.max);
    }

    /// PRNG streams: same name = same stream, different names diverge.
    #[test]
    fn rng_streams_stable(seed in 0u64..u64::MAX, name in "[a-z]{1,12}") {
        let mut a = Rng::from_seed_and_name(seed, &name);
        let mut b = Rng::from_seed_and_name(seed, &name);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::from_seed_and_name(seed, &format!("{name}x"));
        let mut a2 = Rng::from_seed_and_name(seed, &name);
        let same = (0..16).filter(|_| a2.next_u64() == c.next_u64()).count();
        prop_assert!(same < 4);
    }
}

// ---------- streaming reducer properties ----------
//
// The streaming result pipeline (DESIGN.md §8) rests on the claim that
// the online reducers in `stats::streaming` agree with the batch
// `stats::quantile` functions, for any input and for any sharding of
// that input merged back in descriptor order. These properties pin it.

/// Splits `xs` into contiguous shards at arbitrary cut points (the way
/// the campaign runner partitions work), folds each shard into its own
/// accumulator via `push`, then merges left-to-right (descriptor order)
/// via `merge`.
fn fold_sharded<A>(
    xs: &[f64],
    cuts: &[usize],
    mut make: impl FnMut() -> A,
    mut push: impl FnMut(&mut A, f64),
    mut merge: impl FnMut(&mut A, &A),
) -> A {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (xs.len() + 1)).collect();
    bounds.push(0);
    bounds.push(xs.len());
    bounds.sort_unstable();
    let mut merged = make();
    for w in bounds.windows(2) {
        let mut shard = make();
        for &x in &xs[w[0]..w[1]] {
            push(&mut shard, x);
        }
        merge(&mut merged, &shard);
    }
    merged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Welford agrees with the two-pass batch mean/variance for any
    /// input and any shard split (Chan's combine is order-robust up to
    /// floating-point noise, which the tolerance absorbs).
    #[test]
    fn welford_matches_batch_under_sharding(
        xs in prop::collection::vec(-1e4f64..1e4, 1..200),
        cuts in prop::collection::vec(0usize..200, 0..6),
    ) {
        use stats::Welford;
        let w = fold_sharded(
            &xs,
            &cuts,
            Welford::new,
            |a, x| a.push(x),
            |a, b| a.merge(b),
        );
        prop_assert_eq!(w.count(), xs.len() as u64);
        let m = stats::quantile::mean(&xs).unwrap();
        let v = stats::quantile::variance(&xs).unwrap();
        // Relative-plus-absolute tolerance: catastrophic cancellation in
        // the *batch* two-pass variance is the larger error source.
        let scale = xs.iter().fold(1.0f64, |s, x| s.max(x.abs()));
        prop_assert!((w.mean().unwrap() - m).abs() <= 1e-9 * scale + 1e-9);
        prop_assert!((w.variance().unwrap() - v).abs() <= 1e-7 * scale * scale + 1e-9);
        prop_assert_eq!(w.min().unwrap(), xs.iter().cloned().fold(f64::MAX, f64::min));
        prop_assert_eq!(w.max().unwrap(), xs.iter().cloned().fold(f64::MIN, f64::max));
    }

    /// An exact quantile accumulator sharded arbitrarily and merged in
    /// order reproduces the batch quantile *exactly* (same multiset,
    /// same `quantile_sorted` interpolation — bit-identical result),
    /// and its retained sample is the input in arrival order.
    #[test]
    fn exact_quantiles_match_batch_under_sharding(
        xs in prop::collection::vec(-1e4f64..1e4, 1..200),
        cuts in prop::collection::vec(0usize..200, 0..6),
        q in 0.0f64..1.0,
    ) {
        use stats::QuantileAcc;
        let acc = fold_sharded(
            &xs,
            &cuts,
            QuantileAcc::exact,
            |a, x| a.push(x),
            |a, b| a.merge(b),
        );
        prop_assert!(acc.is_exact());
        prop_assert_eq!(acc.count(), xs.len() as u64);
        // In-order merge of contiguous shards reconstructs arrival order.
        prop_assert_eq!(acc.values().unwrap(), xs.clone());
        let got = acc.quantile(q).unwrap();
        let want = quantile(&xs, q).unwrap();
        prop_assert_eq!(got.to_bits(), want.to_bits(),
            "exact accumulator must be bit-identical to batch: {got} vs {want}");
        prop_assert_eq!(
            acc.median().unwrap().to_bits(),
            median(&xs).unwrap().to_bits()
        );
    }

    /// A capped (sketch-mode) accumulator still yields quantiles inside
    /// the data range and monotone in q — the contract figures rely on
    /// when they opt out of exactness.
    #[test]
    fn capped_quantiles_bounded_and_monotone(
        xs in prop::collection::vec(-1e4f64..1e4, 1..400),
        cuts in prop::collection::vec(0usize..400, 0..6),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        use stats::QuantileAcc;
        let acc = fold_sharded(
            &xs,
            &cuts,
            || QuantileAcc::with_cap(32),
            |a, x| a.push(x),
            |a, b| a.merge(b),
        );
        prop_assert_eq!(acc.count(), xs.len() as u64);
        let (lo_q, hi_q) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = acc.quantile(lo_q).unwrap();
        let b = acc.quantile(hi_q).unwrap();
        prop_assert!(a <= b + 1e-9);
        let lo = xs.iter().cloned().fold(f64::MAX, f64::min);
        let hi = xs.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(a >= lo - 1e-9 && b <= hi + 1e-9);
    }
}

// ---------- campaign seed-derivation and accounting properties ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per-run seed derivation is a pure function of (root, label):
    /// the same descriptor always gets the same stream, and distinct
    /// labels never collide in practice.
    #[test]
    fn stream_seeds_stable_and_collision_free(
        root in 0u64..u64::MAX,
        names in prop::collection::vec("[a-z0-9/_-]{1,24}", 2..24),
    ) {
        use simcore::rng::stream_seed;
        let mut distinct = names.clone();
        distinct.sort();
        distinct.dedup();
        let seeds: Vec<u64> = distinct.iter().map(|n| stream_seed(root, n)).collect();
        // Same input → same output.
        for (n, &s) in distinct.iter().zip(&seeds) {
            prop_assert_eq!(stream_seed(root, n), s);
        }
        // Distinct names → distinct seeds (a 64-bit collision among a
        // couple dozen names would indicate a broken mix, not luck).
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), seeds.len(), "seed collision among {:?}", distinct);
        // A run's seed is independent of what else is in the campaign:
        // re-deriving from any subset gives the same value per name.
        if let Some(first) = distinct.first() {
            prop_assert_eq!(stream_seed(root, first), seeds[0]);
        }
    }

    /// Campaign accounting: every scheduled query is accounted for —
    /// processed rows plus skipped sessions equal the outcome total,
    /// and the outcome total equals what the design scheduled.
    #[test]
    fn campaign_tally_accounts_for_every_query(
        seed in 0u64..1_000,
        repeats in 1u64..3,
    ) {
        use emulator::dataset_a::{DatasetA, KeywordPolicy};
        use emulator::{Campaign, CollectSink, Design, Scenario};
        use simcore::time::SimDuration;

        let scenario = Scenario::with_size(seed, 6, 120);
        let n_clients = scenario.vantages.len();
        let mut c = Campaign::new(scenario);
        c.push(
            "tally",
            cdnsim::ServiceConfig::google_like(seed),
            Design::DatasetA(DatasetA {
                repeats,
                spacing: SimDuration::from_secs(6),
                keywords: KeywordPolicy::Fixed(0),
            }),
        );
        let report = c.execute_stream_with_threads(&|_| CollectSink::new(), 2);
        let run = report.get("tally").unwrap();
        let t = run.tally;
        let scheduled = n_clients * repeats as usize;
        prop_assert_eq!(t.total(), scheduled, "tally {:?}", t);
        prop_assert_eq!(run.output.queries.len() + t.skipped, t.total(), "tally {:?}", t);
        prop_assert_eq!(t.ok + t.degraded + t.retried + t.timed_out + t.shed, t.total());
    }

    /// Panic freedom over `QuerySpec`: a few queries with arbitrary
    /// client, keyword, fixed FE and delay, far out of range included,
    /// run to quiescence, and each ends in exactly one outcome.
    #[test]
    fn arbitrary_query_specs_run_to_quiescence(
        seed in 0u64..1_000,
        bing in 0u8..2,
        queries in prop::collection::vec(
            (
                (0u8..3, 0u64..=u64::MAX),
                (0u8..3, 0u64..=u64::MAX),
                (0u8..4, 0u64..=u64::MAX),
                (0u8..3, 0u64..=u64::MAX),
            ),
            1..5,
        ),
    ) {
        use emulator::sink::observe_outcome;
        use emulator::Scenario;
        use simcore::time::SimDuration;

        let scenario = Scenario::with_size(seed, 6, 120);
        let cfg = match bing {
            0 => cdnsim::ServiceConfig::google_like(seed),
            _ => cdnsim::ServiceConfig::bing_like(seed),
        };
        let mut sim = scenario.build_sim(cfg);
        for &(client, keyword, fixed_fe, delay) in &queries {
            let spec = cdnsim::QuerySpec {
                client: edge_value(client, 64) as usize,
                keyword: edge_value(keyword, 64),
                fixed_fe: (fixed_fe.0 < 3).then(|| edge_value(fixed_fe, 64) as usize),
                instant_followup: false,
            };
            let delay = SimDuration::from_nanos(edge_value(delay, 60_000_000_000));
            sim.with(|w, net| w.schedule_query(net, delay, spec));
        }
        sim.run();
        let mut tally = inference::SessionTally::default();
        for cq in sim.with(|w, _| w.drain_completed()) {
            observe_outcome(&mut tally, cq.outcome);
        }
        prop_assert_eq!(tally.total(), queries.len(), "tally {:?}", tally);
        prop_assert_eq!(sim.with(|w, _| w.in_flight()), 0);
    }
}

/// A value below `small`, within 3 of `u64::MAX`, or anywhere in `u64`,
/// as `shape` is 0, 1 or another value.
fn edge_value((shape, raw): (u8, u64), small: u64) -> u64 {
    match shape {
        0 => raw % small,
        1 => u64::MAX - raw % 4,
        _ => raw,
    }
}

// ---------- inference properties ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The model identity and threshold behaviour hold for any
    /// parameters.
    #[test]
    fn model_prediction_invariants(
        c in 0.0f64..100.0,
        k in 0.1f64..4.0,
        fetch in 1.0f64..1_000.0,
        rtt in 0.0f64..500.0,
    ) {
        let m = fecdn::prelude::ModelPrediction {
            c_ms: c,
            k_rounds: k,
            t_fetch_ms: fetch,
        };
        // Tdynamic = max of the two regimes.
        prop_assert!(m.t_dynamic_ms(rtt) >= m.t_static_ms(rtt) - 1e-9);
        prop_assert!(m.t_dynamic_ms(rtt) >= fetch - 1e-9);
        prop_assert!(m.identity_holds(rtt, 1e-6));
        // Beyond the threshold, Tdelta is zero.
        if let Some(thr) = m.rtt_threshold_ms() {
            prop_assert!(m.t_delta_ms(thr + 1.0) == 0.0);
            prop_assert!(m.t_delta_ms((thr - 1.0).max(0.0)) >= 0.0);
        }
    }

    /// Fetch bounds: lower ≤ upper always; intersection is contained in
    /// every input bracket.
    #[test]
    fn fetch_bounds_intersection_contained(
        brackets in prop::collection::vec((0.0f64..500.0, 0.0f64..500.0), 1..20),
    ) {
        let bs: Vec<fecdn::prelude::FetchBounds> = brackets
            .iter()
            .map(|&(a, b)| fecdn::prelude::FetchBounds {
                lower_ms: a.min(b),
                upper_ms: a.max(b),
            })
            .collect();
        if let Some(joint) = fecdn::prelude::FetchBounds::intersect_all(&bs) {
            prop_assert!(joint.lower_ms <= joint.upper_ms);
            for b in &bs {
                prop_assert!(joint.lower_ms >= b.lower_ms - 1e-9);
                prop_assert!(joint.upper_ms <= b.upper_ms + 1e-9);
            }
        }
    }
}
