//! A timing [`PathSelector`] wrapper: the c4p layer's span, recorded from
//! outside the program around every call the collective engine makes into
//! the selector.

use std::time::{Duration, Instant};

use c4_netsim::{FlowKey, PathChoice, PathSelector};
use c4_topology::Topology;

/// Forwards every call to `inner`, adding up the host time spent in
/// `select`/`select_batch` and the keys they resolved. Decisions, cache
/// tokens and byte-split weights are the inner selector's, so a traced run
/// simulates exactly what an untraced one does.
pub struct TimedSelector<'a, S: PathSelector + ?Sized> {
    inner: &'a mut S,
    /// Host time spent selecting.
    pub busy: Duration,
    /// Keys selected.
    pub keys: u64,
}

impl<'a, S: PathSelector + ?Sized> TimedSelector<'a, S> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: &'a mut S) -> Self {
        TimedSelector {
            inner,
            busy: Duration::ZERO,
            keys: 0,
        }
    }
}

impl<S: PathSelector + ?Sized> PathSelector for TimedSelector<'_, S> {
    fn select(&mut self, topo: &Topology, key: &FlowKey) -> PathChoice {
        let t = Instant::now();
        let choice = self.inner.select(topo, key);
        self.busy += t.elapsed();
        self.keys += 1;
        choice
    }

    fn select_batch(&mut self, topo: &Topology, keys: &[FlowKey]) -> Vec<PathChoice> {
        let t = Instant::now();
        let choices = self.inner.select_batch(topo, keys);
        self.busy += t.elapsed();
        self.keys += keys.len() as u64;
        choices
    }

    fn byte_split_weight(&self, key: &FlowKey) -> f64 {
        self.inner.byte_split_weight(key)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn cache_token(&self) -> Option<u64> {
        self.inner.cache_token()
    }
}
