//! # tcpsim — a packet-level TCP simulator
//!
//! The paper's inference model is *about* TCP mechanics: the front-end
//! server's congestion window paces the static-content burst across RTT
//! rounds, split TCP keeps the FE↔BE leg's window warm, and the interplay
//! of the two produces the measurable `Tstatic` / `Tdynamic` / `Tdelta`
//! signatures. This crate implements those mechanics at packet
//! granularity:
//!
//! * three-way handshake (with SYN retransmission),
//! * slow start and congestion avoidance (Reno or CUBIC, with
//!   Appropriate Byte Counting, RFC 3465),
//! * fast retransmit / fast recovery (NewReno-style partial-ACK handling),
//! * retransmission timeout with Karn's algorithm and exponential backoff
//!   (RFC 6298),
//! * delayed ACKs (ack-every-second-segment with a timeout, immediate ACK
//!   on PSH and on out-of-order arrivals),
//! * configurable initial window, receive window and congestion control
//!   ([`TcpOptions`]); MSS, delayed-ACK and RTO bounds are fixed
//!   constants in [`opts`],
//! * no slow-start-after-idle: an idle connection keeps its grown
//!   window, so the persistent FE↔BE connections stay warm, which is
//!   precisely the "warm connection" benefit of split TCP,
//! * per-path delay/jitter/loss/bandwidth from the path model of the
//!   network geography crate, [`nettopo::PathModel`], which every
//!   connection is opened over,
//! * scheduled link and node faults ([`LinkFault`]): outages, and
//!   burst-loss episodes that run `nettopo`'s Gilbert–Elliott chain
//!   ([`nettopo::BurstLossParams::advance`]) packet by packet,
//! * client-vantage packet capture with application-layer *markers*
//!   (request / static / dynamic ...), the simulator's analogue of the
//!   paper's tcpdump with payloads at the measuring client: a
//!   connection opened with [`Net::open_captured`] records its opener's
//!   packets, one opened with [`Net::open`] records nothing.
//!
//! The simulation is deterministic: all randomness (jitter, loss) comes
//! from per-connection streams derived from the experiment seed.
//!
//! ## Architecture
//!
//! [`Sim`] owns a [`Net`] (connections, event queue, captures) and the
//! user's [`App`] (the application state machine: clients, front-end
//! servers, back-end data centers live there). The event loop pops one
//! event, updates TCP state, and queues application callbacks which are
//! delivered with `&mut Net` so the app can immediately send, open
//! connections or set timers.
//!
//! Each fact leaves the crate one way. An application learns how many
//! bytes arrived in order ([`App::on_data`]); what they were (their
//! [`Marker`]s and content ids) is read only from a capture. Loss
//! recovery (retransmitted segments, fast retransmits, RTO window
//! resets) is counted only in the run's telemetry registry
//! ([`Net::metrics`]), summed over every connection.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cubic;
pub mod endpoint;
pub mod net;
pub mod opts;
pub mod segment;
pub mod trace;

pub use endpoint::TcpState;
pub use net::{App, ConnId, End, FaultTarget, LinkFault, LinkFaultKind, Net, NodeId, Sim};
pub use opts::{CongAlgo, TcpOptions};
pub use segment::{Marker, MetaSpan, PktKind, Segment, SpanVec};
pub use trace::{Capture, PktDir, PktEvent};
