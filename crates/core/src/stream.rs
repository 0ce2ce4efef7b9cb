//! Pull-based pattern streams: consume a mining run as an [`Iterator`].
//!
//! [`PatternStream`] is the pull counterpart of the push-based
//! [`PatternSink`](crate::sink::PatternSink): instead of handing the engine
//! a callback, callers pull one [`MinedPattern`] at a time and compose with
//! ordinary iterator adapters. Dropping the stream abandons the rest of the
//! search, so `take(n)`, `find`, or an early `break` cancel mining without
//! writing a sink.
//!
//! For the configurations the engine can emit incrementally — `All` and
//! `Closed` without gap constraints, and constrained `All`, under
//! sequential execution — the stream steps the engine's own walk (see
//! [`crate::batch`]), which pauses after every emission, so it does only as
//! much search as has been pulled. The remaining configurations (ranked,
//! maximal, closed-constrained, parallel execution) require a global pass;
//! those are materialized on stream creation and then iterated. In every
//! case the yielded sequence is identical to
//! [`MiningOutcome::patterns`](crate::MiningOutcome).
//!
//! ```
//! use seqdb::SequenceDatabase;
//! use rgs_core::{Miner, Mode};
//!
//! let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
//! let session = Miner::new(&db).min_sup(2).mode(Mode::All).session();
//!
//! // Lazy pull: only as much DFS runs as the adapter consumes.
//! let first_three: Vec<String> = session
//!     .stream()
//!     .take(3)
//!     .map(|mp| mp.pattern.render(db.catalog()))
//!     .collect();
//! assert_eq!(first_three.len(), 3);
//! assert_eq!(first_three, {
//!     let full = session.run();
//!     full.patterns[..3]
//!         .iter()
//!         .map(|mp| mp.pattern.render(db.catalog()))
//!         .collect::<Vec<_>>()
//! });
//! ```

use std::iter::FusedIterator;

use crate::batch::PullWalk;
use crate::engine::{DbHandle, MiningSession};
use crate::prepared::PreparedParts;
use crate::result::MinedPattern;

/// A pull-based iterator over the patterns of one mining run, in engine
/// emission order. Created by [`MiningSession::stream`].
pub struct PatternStream<'a> {
    state: StreamState<'a>,
    emitted: usize,
    truncated: bool,
    done: bool,
}

enum StreamState<'a> {
    /// The engine's walk, advanced one emission per pull. The walk holds no
    /// borrow of the database: every step binds it to the session's
    /// database afresh, with a raw database's parts prepared once, here.
    Lazy {
        db: DbHandle<'a>,
        parts: Option<Box<PreparedParts>>,
        walk: Box<PullWalk>,
    },
    /// Materialized result for configurations that need a global pass.
    Buffered(std::vec::IntoIter<MinedPattern>),
}

impl<'a> PatternStream<'a> {
    pub(crate) fn new(session: &'a MiningSession<'a>) -> Self {
        let db = session.db.clone();
        let mut parts = None;
        let walk = db.with_view(&mut parts, |prepared| {
            PullWalk::new(prepared, session.request())
        });
        let (state, truncated) = match walk {
            Some(walk) => (
                StreamState::Lazy {
                    db,
                    parts,
                    walk: Box::new(walk),
                },
                false,
            ),
            None => {
                let outcome = session.run();
                (
                    StreamState::Buffered(outcome.patterns.into_iter()),
                    outcome.truncated,
                )
            }
        };
        PatternStream {
            state,
            emitted: 0,
            truncated,
            done: false,
        }
    }

    /// How many patterns the stream has yielded so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// `true` when the stream stopped because `max_patterns` was reached
    /// (for materialized configurations: whether the underlying run was
    /// truncated).
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

impl Iterator for PatternStream<'_> {
    type Item = MinedPattern;

    fn next(&mut self) -> Option<MinedPattern> {
        if self.done {
            return None;
        }
        let mined = match &mut self.state {
            StreamState::Lazy { db, parts, walk } => {
                let mined = db.with_view(parts, |prepared| walk.next(prepared));
                self.truncated = walk.truncated();
                self.done = self.truncated;
                mined
            }
            StreamState::Buffered(iter) => iter.next(),
        };
        match mined {
            Some(_) => self.emitted += 1,
            None => self.done = true,
        }
        mined
    }
}

impl FusedIterator for PatternStream<'_> {}

impl std::fmt::Debug for PatternStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatternStream")
            .field("emitted", &self.emitted)
            .field("truncated", &self.truncated)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}
