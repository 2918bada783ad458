//! Daemon configuration: bind address, concurrency, and resource caps.

use std::path::PathBuf;
use std::time::Duration;

/// Everything `aesz serve` can be told. Every cap has a deliberate default
/// so a bare `ServerConfig::default()` is already safe to expose to
/// untrusted peers.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks a free one).
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Connections allowed to wait behind busy workers: with
    /// `workers + queue_cap` connections in service (queued + running),
    /// the acceptor answers `Busy`.
    pub queue_cap: usize,
    /// Largest request body accepted, in bytes — checked against the
    /// declared length *before* any body byte is read.
    pub max_request_bytes: u64,
    /// Largest raw-field element count accepted (compress/train inputs and
    /// decompress outputs alike).
    pub max_field_elems: usize,
    /// Sidecar directory of `.aesm` models: attached to the model store,
    /// where each decode naming one of them finds it, scanned by
    /// `ListModels`, and where freshly trained models are saved.
    pub model_dir: Option<PathBuf>,
    /// Per-connection socket read timeout, so an idle or stalled peer
    /// cannot pin a worker forever.
    pub read_timeout: Duration,
    /// Largest `epochs` training knob accepted from the wire. The read
    /// timeout bounds a peer's I/O but not the CPU a `Train` request buys,
    /// so every training knob is capped before any work starts.
    pub max_train_epochs: u32,
    /// Largest `block` (edge length) training knob accepted from the wire.
    pub max_train_block: u32,
    /// Largest `latent` (dimension) training knob accepted from the wire.
    pub max_train_latent: u32,
    /// Largest `max_blocks` (block budget) training knob accepted from the
    /// wire.
    pub max_train_blocks: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(2),
            queue_cap: 16,
            max_request_bytes: 256 << 20,
            max_field_elems: 1 << 27,
            model_dir: None,
            read_timeout: Duration::from_secs(30),
            // Comfortably above the codec defaults (6 epochs, 32-block,
            // 16-latent, 256-block budget) while keeping the compute one
            // request can buy bounded.
            max_train_epochs: 128,
            max_train_block: 128,
            max_train_latent: 256,
            max_train_blocks: 8192,
        }
    }
}
