//! Error type shared by every service layer.

use std::fmt;

/// Anything that can go wrong serving a request. The TCP front-end maps
/// each variant to a one-line `ERR` reply; library users match on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Query or command referenced a graph name that is not registered.
    UnknownGraph(String),
    /// `NEXT`/`CLOSE` referenced a session id that does not exist (never
    /// opened, or already closed).
    UnknownSession(u64),
    /// Degenerate or malformed query parameters (γ = 0, k = 0, bad mode).
    InvalidQuery(String),
    /// A graph failed to load or generate.
    GraphLoad(String),
    /// A dynamic update was rejected (unknown vertex, duplicate edge,
    /// non-finite weight, …); the graph state is unchanged.
    Update(String),
    /// A storage-backend operation failed or was requested of a backend
    /// that cannot serve it (e.g. dynamic updates on a file-backed
    /// store, or an I/O error while streaming a `.icsr` file).
    Storage(String),
    /// The durability layer (WAL append, manifest write, recovery
    /// replay) failed; the in-memory state is still consistent but is no
    /// longer guaranteed to survive a restart.
    Persistence(String),
    /// The query's search panicked (caught and counted in
    /// `worker_panics`), or a session's stream panicked (which ends that
    /// session).
    WorkerGone,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownGraph(name) => write!(f, "unknown graph {name:?}"),
            ServiceError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServiceError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            ServiceError::GraphLoad(msg) => write!(f, "graph load failed: {msg}"),
            ServiceError::Update(msg) => write!(f, "update rejected: {msg}"),
            ServiceError::Storage(msg) => write!(f, "storage error: {msg}"),
            ServiceError::Persistence(msg) => write!(f, "persistence error: {msg}"),
            ServiceError::WorkerGone => write!(f, "the search panicked while serving the request"),
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ServiceError::UnknownGraph("g".into())
            .to_string()
            .contains("\"g\""));
        assert!(ServiceError::UnknownSession(7).to_string().contains('7'));
        assert!(ServiceError::InvalidQuery("k = 0".into())
            .to_string()
            .contains("k = 0"));
    }
}
