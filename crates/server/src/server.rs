//! The daemon: bind, accept, shed load at the edge, serve from the pool.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::config::ServerConfig;
use crate::conn;
use crate::pool::WorkPool;
use crate::state::ServerState;
use aesz_repro::metrics::protocol::Response;
use aesz_repro::SharedRegistry;
use std::io::Write;

/// A bound (not yet running) daemon. [`Server::run`] blocks the calling
/// thread in the accept loop; take a [`ServerHandle`] first to stop it from
/// another thread.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    pool: Arc<WorkPool>,
    /// `workers + queue_cap`: at this many connections in service the
    /// acceptor answers `Busy` instead of queueing.
    cap: usize,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Bind the listener and build the shared state: a default registry
    /// (all seven codecs) with the configured sidecar directory attached,
    /// and a pool of `workers` threads that admits `queue_cap` more
    /// connections to wait for a worker.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let registry = SharedRegistry::with_defaults();
        if let Some(dir) = &config.model_dir {
            registry.add_sidecar_dir(dir.clone());
        }
        let pool = Arc::new(WorkPool::new(config.workers));
        let cap = pool.workers().saturating_add(config.queue_cap);
        let state = Arc::new(ServerState::new(config, registry));
        state.set_pool(Arc::clone(&pool));
        Ok(Server {
            listener,
            state,
            pool,
            cap,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (registry + counters) — lets an embedder pre-train
    /// models or read stats without a socket round-trip.
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// A handle that can stop [`Server::run`] from another thread.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.local_addr()?,
            stop: Arc::clone(&self.stop),
        })
    }

    /// Accept and serve until [`ServerHandle::shutdown`]. Blocks the
    /// calling thread.
    pub fn run(self) -> std::io::Result<()> {
        for incoming in self.listener.incoming() {
            if self.stop.load(Ordering::Acquire) {
                return Ok(());
            }
            let stream = match incoming {
                Ok(stream) => stream,
                Err(_) => {
                    // Accept can fail persistently (EMFILE once fds are
                    // exhausted); back off briefly instead of spinning the
                    // acceptor at 100% CPU until the condition clears.
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    continue;
                }
            };
            self.accept(stream);
        }
        Ok(())
    }

    /// Admit or reject one fresh connection. Rejection is cheap and typed:
    /// a `Busy` response carrying the queue depth, then close — the peer
    /// knows to back off, and the daemon buffers nothing.
    fn accept(&self, stream: TcpStream) {
        // Each connection is one pool job, so the pool's pending count is
        // the number of connections in service; a panicking job leaves it.
        if self.pool.pending() >= self.cap {
            self.state.connection_rejected();
            self.state.count_busy();
            busy_reject(stream, self.state.queue_depth());
            return;
        }
        self.state.connection_opened();
        let state = Arc::clone(&self.state);
        // The job learns which worker runs it: the key into the per-worker
        // codec cache.
        self.pool.execute(Box::new(move |worker| {
            conn::serve_connection(stream, &state, Some(worker));
            state.connection_closed();
        }));
    }
}

/// Best-effort `Busy` + close; the peer may already be gone, which is fine.
fn busy_reject(mut stream: TcpStream, queue_depth: u64) {
    let bytes = Response::Busy { queue_depth }.encode();
    let _ = stream.write_all(&bytes);
    let _ = stream.flush();
}

/// Stops a running [`Server`] from another thread.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the accept loop to exit: sets the stop flag, then opens (and
    /// immediately drops) one connection to unblock the blocking accept.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
    }
}
