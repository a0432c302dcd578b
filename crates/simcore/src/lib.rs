//! # simcore — deterministic discrete-event simulation core
//!
//! Foundation for the `fecdn` packet-level network simulator. Provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time. All
//!   simulation state advances only through the event queue, never through
//!   wall-clock reads, so every run is exactly reproducible.
//! * [`EventQueue`] — a hierarchical timing-wheel event queue with stable
//!   FIFO ordering for simultaneous events (ties are broken by insertion
//!   sequence, never by payload contents); [`HeapQueue`] keeps the
//!   original binary-heap engine as the equivalence-suite reference.
//! * [`rng`] — a small, self-contained xoshiro256++ PRNG with *named
//!   streams*: every stochastic component derives its own independent
//!   stream from the experiment seed, so adding a component never perturbs
//!   the draws seen by any other component.
//! * [`dist`] — the probability distributions used by the latency, loss,
//!   load and processing-time models (constant, exponential, normal,
//!   log-normal, two-component mixture, lower truncation), and the Zipf
//!   popularity models.
//! * [`hash`] — a fixed, seedless multiply-rotate hasher and the
//!   `HashMap` alias every simulator map is keyed through, so iteration
//!   order never depends on a per-process seed.
//! * [`SmallVec`] — a hand-rolled inline-first small-vector; the packet
//!   hot path uses it to carry content spans without heap allocation.
//! * [`telemetry`] — deterministic counters/gauges/histograms (virtual
//!   durations included) and wall-time spans ([`MetricsRegistry`]);
//!   registries start enabled and switch per registry at runtime.
//!
//! The crate is `std`-only and single-threaded by design (its only
//! dependency is the workspace's own `stats` crate, which backs the
//! telemetry histograms): reproducibility of packet traces is a core
//! requirement of the measurement-reproduction study this workspace
//! implements.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod dist;
pub mod hash;
pub mod queue;
pub mod rng;
pub mod smallvec;
pub mod telemetry;
pub mod time;

pub use dist::Dist;
pub use queue::{EventQueue, HeapQueue};
pub use rng::Rng;
pub use smallvec::SmallVec;
pub use telemetry::{MetricsRegistry, METRICS_TSV_HEADER};
pub use time::{SimDuration, SimTime};
