//! Per-endpoint TCP configuration.
//!
//! Defaults model a 2011-era Linux stack (the PlanetLab nodes and
//! production front-ends of the study). [`TcpOptions`] holds the
//! settings an experiment varies; the rest of the stack is fixed by the
//! constants below.

use simcore::time::SimDuration;

/// Maximum segment size in bytes.
pub const MSS: u32 = 1460;
/// Delayed-ACK timeout (every endpoint acks every second segment or on
/// this timeout).
pub const DELACK_TIMEOUT: SimDuration = SimDuration::from_millis(40);
/// Lower bound on the retransmission timeout.
pub const MIN_RTO: SimDuration = SimDuration::from_millis(200);
/// RTO before any RTT sample exists (RFC 6298: 1 s).
pub const INITIAL_RTO: SimDuration = SimDuration::from_secs(1);
/// Upper bound on the RTO after backoff.
pub const MAX_RTO: SimDuration = SimDuration::from_secs(60);
/// Appropriate Byte Counting limit `L`, in segments: slow-start cwnd
/// growth per ACK is capped at `L · MSS` bytes (RFC 3465 recommends
/// L = 2 with delayed ACKs).
pub const ABC_LIMIT_SEGS: u32 = 2;

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

/// The TCP settings of one endpoint that experiments vary.
///
/// Defaults: an initial window of 4 segments, a 256 KiB receive window
/// and Reno. Connections never reset their window after idling, which
/// keeps the persistent FE↔BE connections warm: the split-TCP advantage
/// the paper attributes to FE↔BE links.
#[derive(Clone, Copy, Debug)]
pub struct TcpOptions {
    /// Initial congestion window, in segments (RFC 3390 allowed up to 4;
    /// Google's IW10 experiments came later — the `abl_iw` bench sweeps
    /// this).
    pub initial_window_segs: u32,
    /// Receive window advertised to the peer, in bytes.
    pub rwnd: u64,
    /// Congestion-control algorithm.
    pub cong: CongAlgo,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            initial_window_segs: 4,
            rwnd: 256 * 1024,
            cong: CongAlgo::Reno,
        }
    }
}

impl TcpOptions {
    /// Initial congestion window in bytes.
    pub fn initial_cwnd(&self) -> f64 {
        (self.initial_window_segs * MSS) as f64
    }

    /// Options for a server endpoint with a given initial window — the
    /// knob the `abl_iw` bench turns.
    pub fn with_initial_window(mut self, segs: u32) -> TcpOptions {
        self.initial_window_segs = segs;
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
        assert_eq!(MSS, 1460);
        assert_eq!(o.initial_window_segs, 4);
        assert_eq!(o.initial_cwnd(), 5840.0);
        assert_eq!(o.cong, CongAlgo::Reno);
        assert_eq!(DELACK_TIMEOUT, SimDuration::from_millis(40));
        assert_eq!(MIN_RTO, SimDuration::from_millis(200));
        assert_eq!(INITIAL_RTO, SimDuration::from_secs(1));
    }

    #[test]
    fn builders() {
        let o = TcpOptions::default().with_initial_window(10);
        assert_eq!(o.initial_cwnd(), 14600.0);
        assert_eq!(
            TcpOptions::default().with_cong(CongAlgo::Cubic).cong,
            CongAlgo::Cubic
        );
    }
}
