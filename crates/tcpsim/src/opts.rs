//! Per-endpoint TCP configuration.

use simcore::time::SimDuration;

/// Congestion-control algorithm of an endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CongAlgo {
    /// Classic Reno/NewReno: AIMD with β = 1/2, +1 MSS per RTT in
    /// congestion avoidance. The analytical baseline all of the paper's
    /// window arithmetic assumes.
    Reno,
    /// CUBIC (Ha, Rhee & Xu): β = 0.7, cubic window growth around the
    /// last loss point — the Linux default since 2.6.19, so what the
    /// 2011 PlanetLab nodes and production front-ends actually ran. The
    /// `abl_cubic` bench compares the two under loss.
    Cubic,
}

/// Tunable TCP parameters of one endpoint.
///
/// Defaults model a 2011-era Linux stack (the PlanetLab nodes and
/// production front-ends of the study): MSS 1460, initial window of 4
/// segments, 200 ms minimum RTO, 1 s initial RTO. Every endpoint delays
/// its ACKs (ack every second segment or on timeout).
#[derive(Clone, Debug)]
pub struct TcpOptions {
    /// Maximum segment size in bytes.
    pub mss: u32,
    /// Initial congestion window, in segments (RFC 3390 allowed up to 4;
    /// Google's IW10 experiments came later — the ablation benches sweep
    /// this).
    pub initial_window_segs: u32,
    /// Receive window advertised to the peer, in bytes.
    pub rwnd: u64,
    /// Delayed-ACK timeout.
    pub delack_timeout: SimDuration,
    /// Lower bound on the retransmission timeout.
    pub min_rto: SimDuration,
    /// RTO before any RTT sample exists (RFC 6298: 1 s).
    pub initial_rto: SimDuration,
    /// Upper bound on the RTO after backoff.
    pub max_rto: SimDuration,
    /// Collapse the congestion window back to the initial window after an
    /// idle period of one RTO (RFC 2861). Disabled on persistent
    /// split-TCP connections — keeping this off *is* the warm-connection
    /// advantage the paper attributes to FE↔BE links.
    pub idle_reset: bool,
    /// Appropriate Byte Counting limit `L`, in segments: slow-start cwnd
    /// growth per ACK is capped at `L · mss` bytes (RFC 3465 recommends
    /// L = 2 with delayed ACKs).
    pub abc_limit_segs: u32,
    /// Congestion-control algorithm.
    pub cong: CongAlgo,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            mss: 1460,
            initial_window_segs: 4,
            rwnd: 256 * 1024,
            delack_timeout: SimDuration::from_millis(40),
            min_rto: SimDuration::from_millis(200),
            initial_rto: SimDuration::from_secs(1),
            max_rto: SimDuration::from_secs(60),
            idle_reset: false,
            abc_limit_segs: 2,
            cong: CongAlgo::Reno,
        }
    }
}

impl TcpOptions {
    /// Initial congestion window in bytes.
    pub fn initial_cwnd(&self) -> f64 {
        (self.initial_window_segs * self.mss) as f64
    }

    /// Options for a server endpoint with a given initial window — the
    /// knob the `abl_iw_sweep` bench turns.
    pub fn with_initial_window(mut self, segs: u32) -> TcpOptions {
        self.initial_window_segs = segs;
        self
    }

    /// Marks the endpoint as living on a persistent (pre-warmed)
    /// connection: no slow-start-after-idle.
    pub fn persistent(mut self) -> TcpOptions {
        self.idle_reset = false;
        self
    }

    /// Enables slow-start-after-idle (for the split-TCP ablation where
    /// the FE↔BE connection is *not* kept warm).
    pub fn with_idle_reset(mut self) -> TcpOptions {
        self.idle_reset = true;
        self
    }

    /// Selects the congestion-control algorithm.
    pub fn with_cong(mut self, cong: CongAlgo) -> TcpOptions {
        self.cong = cong;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_2011_linux_like() {
        let o = TcpOptions::default();
        assert_eq!(o.mss, 1460);
        assert_eq!(o.initial_window_segs, 4);
        assert_eq!(o.initial_cwnd(), 5840.0);
        assert_eq!(o.delack_timeout, SimDuration::from_millis(40));
        assert_eq!(o.min_rto, SimDuration::from_millis(200));
        assert_eq!(o.initial_rto, SimDuration::from_secs(1));
        assert!(!o.idle_reset);
    }

    #[test]
    fn builders() {
        let o = TcpOptions::default().with_initial_window(10);
        assert_eq!(o.initial_cwnd(), 14600.0);
        assert!(TcpOptions::default().with_idle_reset().idle_reset);
        assert!(
            !TcpOptions::default()
                .with_idle_reset()
                .persistent()
                .idle_reset
        );
    }
}
