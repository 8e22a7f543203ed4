//! Transparent batching of concurrent single-source BFS queries.
//!
//! A resident daemon sees many users' traversal queries against the same
//! graph; running them one at a time sweeps the identical adjacency once
//! per source. The [`Coalescer`] is an admission-window collector: the
//! first eligible query to arrive for a graph becomes the batch *leader*,
//! holds the window open for a configurable few milliseconds, then runs
//! one multi-source BFS ([`gapbs_ref::ms_bfs`]) over every source that
//! joined. *Followers* park on the batch and wake with their own depth
//! column.
//!
//! Coalescing is invisible on the wire: each member still gets one
//! response line with the same result fields and the same canonical
//! fingerprint a solo run produces, because fingerprints hash canonical
//! depth arrays and MS-BFS depths are bit-identical to single-source
//! depths (a pure function of graph and source). What changes is the
//! aggregate cost — one sweep per level for the whole batch — and the
//! `batch_queries` / `batch_width` lifecycle counters.
//!
//! Synchronization: the pending-batch map and each batch's member state
//! are mutex-protected, always locked map-then-batch. The leader removes
//! the batch from the map *before* closing it, so a query can never join
//! a batch whose source list has already been read. Members hold their
//! own admission permits while parked, so a batch is never wider than
//! the gate's `max_active`.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use gapbs_graph::gen::GraphSpec;
use gapbs_graph::types::NodeId;

use crate::protocol::ProtoError;

/// Per-source output of a coalesced batch: the canonical depth array the
/// response fields and fingerprint derive from.
pub(crate) type MemberDepths = Arc<Vec<u32>>;

#[derive(Debug, Default)]
struct BatchState {
    /// Source per member, in join order (member index = position).
    sources: Vec<NodeId>,
    /// Set when the leader has read the source list; no more joins.
    closed: bool,
    /// Depth column per member, published by the leader.
    output: Option<Result<Vec<MemberDepths>, ProtoError>>,
}

/// One pending or executing batch; members rendezvous here.
#[derive(Debug, Default)]
pub(crate) struct PendingBatch {
    state: Mutex<BatchState>,
    cond: Condvar,
}

impl PendingBatch {
    /// Leader: hands every parked member its result (or the shared
    /// error) and wakes them.
    pub(crate) fn publish(&self, output: Result<Vec<MemberDepths>, ProtoError>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.output = Some(output);
        self.cond.notify_all();
    }

    /// Follower: parks until the leader publishes, then returns this
    /// member's depth column.
    pub(crate) fn wait(&self, member: usize) -> Result<MemberDepths, ProtoError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(output) = &state.output {
                return match output {
                    Ok(columns) => Ok(Arc::clone(&columns[member])),
                    Err(err) => Err(err.clone()),
                };
            }
            state = self.cond.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// How a query entered a batch.
pub(crate) enum Joined {
    /// First member: owns the window and the MS-BFS execution.
    Leader(Arc<PendingBatch>),
    /// Subsequent member at the given index; waits for the leader.
    Follower(Arc<PendingBatch>, usize),
}

/// The admission-window collector; see the module docs.
#[derive(Debug)]
pub(crate) struct Coalescer {
    window: Duration,
    pending: Mutex<HashMap<GraphSpec, Arc<PendingBatch>>>,
}

impl Coalescer {
    /// Collector holding each batch's window open for `window`.
    pub(crate) fn new(window: Duration) -> Coalescer {
        Coalescer {
            window,
            pending: Mutex::new(HashMap::new()),
        }
    }

    /// How long a leader holds the window open.
    pub(crate) fn window(&self) -> Duration {
        self.window
    }

    /// Joins (or opens) the pending batch for `graph`. The caller must
    /// have validated `source` against the graph's vertex range.
    pub(crate) fn join(&self, graph: GraphSpec, source: NodeId) -> Joined {
        let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(batch) = pending.get(&graph) {
            let mut state = batch.state.lock().unwrap_or_else(|e| e.into_inner());
            if !state.closed {
                state.sources.push(source);
                let member = state.sources.len() - 1;
                drop(state);
                return Joined::Follower(Arc::clone(batch), member);
            }
        }
        let batch = Arc::new(PendingBatch::default());
        batch
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .sources
            .push(source);
        pending.insert(graph, Arc::clone(&batch));
        Joined::Leader(batch)
    }

    /// Leader, after the window: unregisters the batch and returns its
    /// member sources (index = member). No query can join past this.
    pub(crate) fn close(&self, graph: GraphSpec, batch: &Arc<PendingBatch>) -> Vec<NodeId> {
        let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        if pending
            .get(&graph)
            .is_some_and(|current| Arc::ptr_eq(current, batch))
        {
            pending.remove(&graph);
        }
        let mut state = batch.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        state.sources.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ErrorCode;

    #[test]
    fn members_accumulate_until_close_then_a_new_batch_opens() {
        let c = Coalescer::new(Duration::from_millis(5));
        let Joined::Leader(batch) = c.join(GraphSpec::Kron, 3) else {
            panic!("first join leads");
        };
        let Joined::Follower(_, member) = c.join(GraphSpec::Kron, 9) else {
            panic!("second join follows");
        };
        assert_eq!(member, 1);
        // A different graph opens its own batch.
        assert!(matches!(c.join(GraphSpec::Road, 0), Joined::Leader(_)));
        let sources = c.close(GraphSpec::Kron, &batch);
        assert_eq!(sources, vec![3, 9]);
        // Post-close arrivals lead a fresh batch.
        assert!(matches!(c.join(GraphSpec::Kron, 4), Joined::Leader(_)));
    }

    #[test]
    fn followers_wake_with_their_own_column() {
        let c = Coalescer::new(Duration::from_millis(5));
        let Joined::Leader(batch) = c.join(GraphSpec::Kron, 1) else {
            panic!("leader");
        };
        let Joined::Follower(handle, member) = c.join(GraphSpec::Kron, 2) else {
            panic!("follower");
        };
        let waiter = std::thread::spawn(move || handle.wait(member));
        let sources = c.close(GraphSpec::Kron, &batch);
        let columns: Vec<MemberDepths> = sources.iter().map(|&s| Arc::new(vec![s])).collect();
        batch.publish(Ok(columns));
        assert_eq!(*waiter.join().unwrap().unwrap(), vec![2]);
    }

    #[test]
    fn leader_errors_propagate_to_followers() {
        let c = Coalescer::new(Duration::ZERO);
        let Joined::Leader(batch) = c.join(GraphSpec::Kron, 1) else {
            panic!("leader");
        };
        let Joined::Follower(handle, member) = c.join(GraphSpec::Kron, 2) else {
            panic!("follower");
        };
        c.close(GraphSpec::Kron, &batch);
        batch.publish(Err(ProtoError::new(ErrorCode::Internal, "boom")));
        assert_eq!(handle.wait(member).unwrap_err().code, ErrorCode::Internal);
    }
}
