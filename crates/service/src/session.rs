//! Progressive sessions: LS-P's streaming story made service-shaped.
//!
//! A session is a mutex around an [`ic_core::ProgressiveSearch`] that
//! owns its share of the graph. `NEXT` pulls on the caller's thread, and
//! the iterator's peel state persists between calls, so pulling the next
//! community only pays for the additional prefix it uncovers. The lock
//! serializes concurrent pulls on one session; closing a session drops
//! it, and a pull in flight holds its own reference and finishes first.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use ic_core::{Community, ProgressiveSearch, TopKQuery};
use ic_graph::WeightedGraph;

use crate::error::ServiceError;
use crate::sync::lock_or_poison;

/// Handle to one progressive session.
#[derive(Debug)]
pub struct Session {
    /// Name of the graph the session streams from.
    pub graph: String,
    /// The session's cohesiveness threshold.
    pub gamma: u32,
    /// The exact instance the stream runs over — communities yielded by
    /// this session live in *its* rank space, which may outlive the name's
    /// registry entry if the graph is re-registered mid-session.
    graph_instance: Arc<WeightedGraph>,
    /// The stream; `None` once a pull panicked, which ends the session.
    stream: Mutex<Option<std::iter::Peekable<ProgressiveSearch<Arc<WeightedGraph>>>>>,
}

impl Session {
    /// Opens a session streaming the influential γ-communities of `graph`
    /// in decreasing influence order.
    pub fn open(name: &str, graph: Arc<WeightedGraph>, gamma: u32) -> Result<Self, ServiceError> {
        // validated centrally, like every query the service runs
        let query = TopKQuery::new(gamma);
        query
            .validate()
            .map_err(|e| ServiceError::InvalidQuery(e.to_string()))?;
        let search = ProgressiveSearch::with_delta(Arc::clone(&graph), gamma, query.delta_value());
        Ok(Session {
            graph: name.to_string(),
            gamma,
            graph_instance: graph,
            stream: Mutex::new(Some(search.peekable())),
        })
    }

    /// The graph instance this session streams from. Use it (not a
    /// registry lookup by name) to translate yielded members to external
    /// ids.
    pub fn graph_instance(&self) -> Arc<WeightedGraph> {
        Arc::clone(&self.graph_instance)
    }

    /// Pulls up to `n` further communities on the caller's thread. The
    /// flag is `true` when the stream is exhausted — derived from the
    /// session iterator, so a zero-`n` probe reports it truthfully.
    ///
    /// The pull runs under `catch_unwind` with the stream taken out of its
    /// slot, which gets it back only if the pull returns: a panic answers
    /// [`ServiceError::WorkerGone`] now and on every later pull, and the
    /// slot never holds a half-advanced iterator.
    pub fn next_batch(&self, n: usize) -> Result<(Vec<Community>, bool), ServiceError> {
        let mut slot = lock_or_poison(&self.stream);
        let mut stream = slot.take().ok_or(ServiceError::WorkerGone)?;
        // AssertUnwindSafe: a panic drops the stream, the only state the
        // closure touches.
        let pulled = catch_unwind(AssertUnwindSafe(move || {
            let batch: Vec<Community> = stream.by_ref().take(n).collect();
            // `done` comes from the iterator itself, never from batch
            // emptiness (a NEXT with n=0 yields an empty batch on a live
            // stream). A short batch already proves exhaustion; a full
            // one needs a one-community peek — work the next NEXT would
            // do anyway.
            let done = batch.len() < n || stream.peek().is_none();
            (stream, batch, done)
        }));
        let (stream, batch, done) = pulled.map_err(|_| ServiceError::WorkerGone)?;
        *slot = Some(stream);
        Ok((batch, done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_graph::paper::figure3;

    #[test]
    fn streams_across_calls_in_order() {
        let g = Arc::new(figure3());
        let reference = TopKQuery::new(3).k(100).run(&g).unwrap().communities;
        let session = Session::open("fig3", g.clone(), 3).unwrap();
        let mut streamed = Vec::new();
        loop {
            let (batch, done) = session.next_batch(2).unwrap();
            streamed.extend(batch);
            if done {
                break;
            }
        }
        assert_eq!(streamed.len(), reference.len());
        for (a, b) in streamed.iter().zip(&reference) {
            assert_eq!(a.keynode, b.keynode);
            assert_eq!(a.members, b.members);
        }
        // exhausted stream keeps returning empty, done batches
        let (batch, done) = session.next_batch(3).unwrap();
        assert!(batch.is_empty());
        assert!(done);
    }

    #[test]
    fn zero_gamma_rejected() {
        assert!(Session::open("g", Arc::new(figure3()), 0).is_err());
    }

    #[test]
    fn zero_n_probes_done_without_consuming() {
        let session = Session::open("g", Arc::new(figure3()), 3).unwrap();
        let (batch, done) = session.next_batch(0).unwrap();
        assert!(batch.is_empty());
        assert!(!done, "a live stream must not report exhaustion on n=0");
        let (batch, done) = session.next_batch(1).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(!done, "figure 3 has more than one 3-community");
        // drain; the final short batch reports done
        let (_, done) = session.next_batch(10_000).unwrap();
        assert!(done);
        let (batch, done) = session.next_batch(0).unwrap();
        assert!(batch.is_empty());
        assert!(done, "an exhausted stream reports done on n=0 too");
    }

    #[test]
    fn done_flag_tracks_the_iterator_exactly() {
        let g = Arc::new(figure3());
        let total = TopKQuery::new(3)
            .k(usize::MAX / 4)
            .run(&g)
            .unwrap()
            .communities
            .len();
        let session = Session::open("fig3", g, 3).unwrap();
        let mut pulled = 0usize;
        loop {
            let (batch, done) = session.next_batch(1).unwrap();
            pulled += batch.len();
            // done must flip exactly when the last community is delivered
            assert_eq!(done, pulled == total, "after {pulled} of {total}");
            if done {
                break;
            }
        }
    }

    #[test]
    fn graph_instance_is_the_opened_one() {
        let g = Arc::new(figure3());
        let session = Session::open("g", g.clone(), 3).unwrap();
        assert!(Arc::ptr_eq(&g, &session.graph_instance()));
    }
}
