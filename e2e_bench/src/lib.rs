//! End-to-end campaign benchmark for the front-end CDN simulator.
//!
//! Each workload runs a [`emulator::Campaign`] through
//! `Campaign::execute_stream`, gates the output for correctness and
//! reduces it to end-to-end metrics (host time and memory, plus the
//! simulated latency the modelled CDN produces). A separate traced run
//! re-drives the same campaign layer by layer from outside the simulator
//! crates and splits its wall time across the layers. See README.md.

#![forbid(unsafe_code)]

pub mod manifest;
pub mod measure;
pub mod sink;
pub mod traced;
pub mod workload;
