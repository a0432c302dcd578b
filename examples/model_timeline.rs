//! The paper's Fig. 2 made concrete: run one query, dump the client's
//! packet trace tcpdump-style, and annotate the model's landmarks
//! (tb, t1, t2, t3, t4, t5, te) on it.
//!
//! ```sh
//! cargo run --release --example model_timeline
//! ```

use capture::dump;
use fecdn::prelude::*;

fn main() {
    let scenario = Scenario::small(42);
    let mut sim = scenario.bing_sim();
    sim.with(|w, net| {
        let fe = w.default_fe(0);
        let be = w.be_of_fe(fe);
        w.prewarm(net, fe, be, 2);
        w.schedule_query(
            net,
            SimDuration::from_millis(3_000),
            QuerySpec {
                client: 0,
                keyword: 1,
                fixed_fe: Some(fe),
                instant_followup: false,
            },
        );
    });
    let cq = run_stream_fed(
        &mut sim,
        &Classifier::ByMarker,
        CollectSink::with_raw(true),
        None,
    )
    .output
    .raw
    .pop()
    .expect("query completed");
    let client = ServiceWorld::client_node(cq.client);
    let tl = Timeline::extract(&cq.trace, client, &Classifier::ByMarker).unwrap();

    println!("=== client-side packet trace (tcpdump analogue) ===");
    print!("{}", dump::render_client_view(&cq.trace, client).unwrap());

    let rel = |t: SimTime| t.saturating_since(tl.tb).as_millis_f64();
    println!();
    println!("=== the Fig. 2 model landmarks (ms since the SYN) ===");
    println!("tb  = {:>9.3}  first SYN sent", 0.0);
    println!("t1  = {:>9.3}  HTTP GET sent", rel(tl.t1));
    println!("t2  = {:>9.3}  first ACK of the GET received", rel(tl.t2));
    println!("t3  = {:>9.3}  first static-content packet", rel(tl.t3));
    println!("t4  = {:>9.3}  last static-content packet", rel(tl.t4));
    println!("t5  = {:>9.3}  first dynamic-content packet", rel(tl.t5));
    println!("te  = {:>9.3}  last packet of the response", rel(tl.te));
    println!();
    println!("RTT (handshake)        = {:>9.3} ms", tl.rtt_ms);
    println!("Tstatic  := t4 − t2    = {:>9.3} ms", tl.t_static_ms());
    println!("Tdynamic := t5 − t2    = {:>9.3} ms", tl.t_dynamic_ms());
    println!("Tdelta   := t5 − t4    = {:>9.3} ms", tl.t_delta_ms());
    println!();
    println!(
        "Eq. (1):  Tdelta ({:.1}) ≤ Tfetch (true: {:.1}) ≤ Tdynamic ({:.1})",
        tl.t_delta_ms(),
        cq.true_fetch_ms().unwrap_or(f64::NAN),
        tl.t_dynamic_ms()
    );
}
