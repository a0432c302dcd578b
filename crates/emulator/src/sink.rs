//! Streaming result sinks: the fold side of the campaign pipeline.
//!
//! A [`QuerySink`] consumes each [`ProcessedQuery`] the moment the
//! runner extracts it. `finish()` reduces the sink to its run-level
//! output; the campaign merges run outputs in **descriptor order**,
//! which is the whole determinism contract: per-run completion order is
//! already deterministic (sharding never splits a world), so any sink
//! that folds deterministically yields byte-identical campaign output
//! at any thread count.
//!
//! Raw [`CompletedQuery`] records — with their packet traces, the
//! dominant memory cost — are only retained when a sink opts in via
//! [`QuerySink::wants_raw`]; they are handed over **by value**, so
//! opting in moves the trace instead of cloning it and opting out never
//! materializes a copy at all. Wrap any sink in [`RetainRaw`] when a
//! harness genuinely needs traces (Fig. 4's packet-cluster views,
//! alternative-classifier scoring).

use crate::runner::ProcessedQuery;
use cdnsim::{CompletedQuery, QueryOutcome};
use inference::SessionTally;

/// Folds one ground-truth outcome into a tally (the single definition
/// of the outcome→counter mapping; the runner and campaign previously
/// each had their own copy of this match).
pub fn observe_outcome(tally: &mut SessionTally, outcome: QueryOutcome) {
    match outcome {
        QueryOutcome::Ok => tally.ok += 1,
        QueryOutcome::Degraded => tally.degraded += 1,
        QueryOutcome::Retried(_) => tally.retried += 1,
        QueryOutcome::TimedOut { .. } => tally.timed_out += 1,
        QueryOutcome::Shed { .. } => tally.shed += 1,
        QueryOutcome::NoLiveFe { .. } => tally.no_live_fe += 1,
    }
}

/// A per-run streaming reducer over processed queries.
///
/// The runner calls, per completed query: [`on_raw`] (only when
/// [`wants_raw`] is true, with the owned record) after [`on_query`]'s
/// input was extracted but before it is delivered — i.e. a sink
/// observes `on_raw` then `on_query` for each query, in completion
/// order. [`finish`] runs on the worker thread once the run is
/// quiescent.
///
/// [`on_raw`]: QuerySink::on_raw
/// [`on_query`]: QuerySink::on_query
/// [`wants_raw`]: QuerySink::wants_raw
/// [`finish`]: QuerySink::finish
pub trait QuerySink {
    /// The run-level reduction this sink produces.
    type Output;

    /// Opt-in to raw completion handoff. Default off: the runner then
    /// drops each trace as soon as the timeline is extracted and no
    /// clone is ever made.
    fn wants_raw(&self) -> bool {
        false
    }

    /// Folds one processed query (timeline successfully extracted).
    fn on_query(&mut self, pq: &ProcessedQuery);

    /// Receives the owned raw completion — packet trace included — when
    /// [`wants_raw`](QuerySink::wants_raw) returned true. Called for
    /// every completion, including ones whose timeline extraction
    /// failed (so classifier scorers see the failures too).
    fn on_raw(&mut self, _cq: CompletedQuery) {}

    /// Estimated bytes this sink currently retains. The runner samples
    /// it per drain chunk to report each run's peak; reducers should
    /// sum their buffers, `O(1)`-state sinks can keep the default.
    fn retained_bytes(&self) -> usize {
        0
    }

    /// Reduces to the run-level output.
    fn finish(self) -> Self::Output;
}

/// Buffers every processed query (and, when built
/// [`with_raw`](CollectSink::with_raw), every raw completion). For
/// harnesses that genuinely need full query lists — the canonical
/// campaign TSV ([`StreamReport::to_tsv`](crate::StreamReport::to_tsv)),
/// per-session grouping over a handful of queries — on the same
/// pipeline as every other sink.
#[derive(Debug, Default)]
pub struct CollectSink {
    queries: Vec<ProcessedQuery>,
    raw: Option<Vec<CompletedQuery>>,
}

/// What a [`CollectSink`] reduces to.
#[derive(Debug, Default)]
pub struct Collected {
    /// Processed queries in completion order.
    pub queries: Vec<ProcessedQuery>,
    /// Raw completions (empty unless raw retention was requested).
    pub raw: Vec<CompletedQuery>,
}

impl CollectSink {
    /// A sink buffering processed queries only.
    pub fn new() -> CollectSink {
        CollectSink {
            queries: Vec::new(),
            raw: None,
        }
    }

    /// A sink that additionally retains raw completions when `retain`
    /// is set. Campaign sink factories see each run's descriptor, so
    /// they can choose per run (e.g. `|d| CollectSink::with_raw(d.label
    /// == "custom")`).
    pub fn with_raw(retain: bool) -> CollectSink {
        CollectSink {
            queries: Vec::new(),
            raw: retain.then(Vec::new),
        }
    }
}

impl QuerySink for CollectSink {
    type Output = Collected;

    fn wants_raw(&self) -> bool {
        self.raw.is_some()
    }

    fn on_query(&mut self, pq: &ProcessedQuery) {
        self.queries.push(pq.clone());
    }

    fn on_raw(&mut self, cq: CompletedQuery) {
        if let Some(raw) = &mut self.raw {
            raw.push(cq);
        }
    }

    fn retained_bytes(&self) -> usize {
        let raw: usize = self
            .raw
            .iter()
            .flatten()
            .map(|cq| cq.retained_bytes())
            .sum();
        self.queries.capacity() * std::mem::size_of::<ProcessedQuery>() + raw
    }

    fn finish(self) -> Collected {
        Collected {
            queries: self.queries,
            raw: self.raw.unwrap_or_default(),
        }
    }
}

/// Wraps any sink and additionally retains every raw completion. The
/// explicit opt-in for harnesses that need packet traces.
#[derive(Debug)]
pub struct RetainRaw<S> {
    inner: S,
    raw: Vec<CompletedQuery>,
}

impl<S> RetainRaw<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> RetainRaw<S> {
        RetainRaw {
            inner,
            raw: Vec::new(),
        }
    }
}

impl<S: QuerySink> QuerySink for RetainRaw<S> {
    type Output = (S::Output, Vec<CompletedQuery>);

    fn wants_raw(&self) -> bool {
        true
    }

    fn on_query(&mut self, pq: &ProcessedQuery) {
        self.inner.on_query(pq);
    }

    fn on_raw(&mut self, cq: CompletedQuery) {
        self.raw.push(cq);
    }

    fn retained_bytes(&self) -> usize {
        self.inner.retained_bytes() + self.raw.iter().map(|cq| cq.retained_bytes()).sum::<usize>()
    }

    fn finish(self) -> (S::Output, Vec<CompletedQuery>) {
        (self.inner.finish(), self.raw)
    }
}

/// A sink from a state value and a fold closure — the one-liner way to
/// build custom reducers in figure harnesses:
///
/// ```
/// # use emulator::sink::{FoldSink, QuerySink};
/// let mut sink = FoldSink::new(0u64, |n, _pq| *n += 1);
/// # let _ = &mut sink;
/// ```
#[derive(Debug)]
pub struct FoldSink<T, F> {
    state: T,
    fold: F,
}

impl<T, F: FnMut(&mut T, &ProcessedQuery)> FoldSink<T, F> {
    /// A sink folding `fold` over `state`.
    pub fn new(state: T, fold: F) -> FoldSink<T, F> {
        FoldSink { state, fold }
    }
}

impl<T, F: FnMut(&mut T, &ProcessedQuery)> QuerySink for FoldSink<T, F> {
    type Output = T;

    fn on_query(&mut self, pq: &ProcessedQuery) {
        (self.fold)(&mut self.state, pq);
    }

    fn finish(self) -> T {
        self.state
    }
}
