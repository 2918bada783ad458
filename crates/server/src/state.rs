//! Shared daemon state: the hot-model registry and the stats counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::config::ServerConfig;
use aesz_repro::metrics::protocol::{ServerStats, CODEC_SLOTS};
use aesz_repro::{
    CodecId, Compressor, DecompressError, ErrorBound, Field, ModelId, SharedRegistry,
};
use rayon::pool::{WorkPool, WorkerLocal};

/// One worker thread's resident codec forks, one slot per codec
/// (`ServerStats::codec_slot`). Each entry remembers the embedded-model id
/// the fork was taken at, so staleness is a cheap id comparison against the
/// registry ([`SharedRegistry::registered_codec_state`]): stateless codecs
/// report `None` forever (the fork never invalidates), while a `Train`
/// re-registering a learned codec changes the id and forces a re-fork.
///
/// A resident fork is more than warm weights: the AE codecs carry their
/// inference scratch (`aesz_nn::NnScratch` plus batch/latent staging
/// buffers) inside the fork. Forks clone *cold* — each worker's fork warms
/// its own buffers on first use and then serves every subsequent request on
/// that worker allocation-free, which is exactly the residency this cache
/// exists to provide.
pub(crate) struct CodecCache {
    entries: Vec<Option<CacheEntry>>,
}

/// The embedded-model id a fork was taken at, plus the fork itself.
type CacheEntry = (Option<ModelId>, Box<dyn Compressor>);

impl Default for CodecCache {
    fn default() -> Self {
        CodecCache {
            entries: (0..CODEC_SLOTS).map(|_| None).collect(),
        }
    }
}

/// Everything the connection handlers share: the registry of resident
/// models, the configuration caps, and lock-free stats counters. One
/// instance lives behind an `Arc` for the daemon's lifetime.
pub struct ServerState {
    /// Hot codec registry (models trained over the wire stay registered
    /// here).
    pub registry: SharedRegistry,
    /// The caps and knobs the daemon was started with.
    pub config: ServerConfig,
    started: Instant,
    pool: OnceLock<Arc<WorkPool>>,
    /// Per-worker codec forks, sized to the pool when it is attached.
    worker_codecs: OnceLock<WorkerLocal<CodecCache>>,
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    busy: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    conns_active: AtomicU64,
    conns_total: AtomicU64,
    /// Learned frames served by the registered model, summed over every
    /// decode's resolver as it finishes.
    model_hits: AtomicU64,
    /// Trained models those decodes built from the store or an archive.
    model_resolutions: AtomicU64,
    compress_by_codec: [AtomicU64; CODEC_SLOTS],
    decompress_by_codec: [AtomicU64; CODEC_SLOTS],
}

impl ServerState {
    /// Fresh state around `registry`, started "now".
    pub fn new(config: ServerConfig, registry: SharedRegistry) -> Self {
        ServerState {
            registry,
            config,
            started: Instant::now(),
            pool: OnceLock::new(),
            worker_codecs: OnceLock::new(),
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            conns_active: AtomicU64::new(0),
            conns_total: AtomicU64::new(0),
            model_hits: AtomicU64::new(0),
            model_resolutions: AtomicU64::new(0),
            compress_by_codec: std::array::from_fn(|_| AtomicU64::new(0)),
            decompress_by_codec: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Attach the worker pool (once, by the server during bind) so queue
    /// depth can be reported, and size the per-worker codec caches to it.
    pub(crate) fn set_pool(&self, pool: Arc<WorkPool>) {
        let _ = self.worker_codecs.set(WorkerLocal::new(pool.workers()));
        let _ = self.pool.set(pool);
    }

    /// Compress `field`, preferring the executing worker's resident codec
    /// fork over the registry's fork-per-call path. A cached fork is used
    /// only while it is *current* — the registered instance still reports
    /// the embedded-model id the fork was taken at — so results are
    /// indistinguishable from a fresh fork (compression is deterministic in
    /// the model and input; see `tests/registry_concurrency.rs`). Without a
    /// worker identity (no pool attached, direct calls) this falls back to
    /// [`SharedRegistry::compress`].
    pub(crate) fn compress_cached(
        &self,
        worker: Option<usize>,
        codec: CodecId,
        field: &Field,
        bound: ErrorBound,
    ) -> Result<Vec<u8>, DecompressError> {
        let (Some(locals), Some(worker)) = (self.worker_codecs.get(), worker) else {
            return self.registry.compress(codec, field, bound);
        };
        let Some(mut cache) = locals.get(worker) else {
            return self.registry.compress(codec, field, bound);
        };
        let Some(current) = self.registry.registered_codec_state(codec) else {
            return Err(DecompressError::UnknownCodec(codec as u8));
        };
        let slot = ServerStats::codec_slot(codec);
        if let Some(Some((forked_at, instance))) = cache.entries.get_mut(slot) {
            if *forked_at == current && instance.codec_id() == codec {
                return SharedRegistry::compress_on(instance.as_mut(), field, bound);
            }
        }
        let mut fresh = self
            .registry
            .fork(codec)
            .ok_or(DecompressError::UnknownCodec(codec as u8))?;
        let result = SharedRegistry::compress_on(fresh.as_mut(), field, bound);
        if let Some(entry) = cache.entries.get_mut(slot) {
            *entry = Some((current, fresh));
        }
        result
    }

    /// Connections queued behind busy workers right now.
    pub fn queue_depth(&self) -> u64 {
        self.pool
            .get()
            .map(|p| p.pending().saturating_sub(p.workers()) as u64)
            .unwrap_or(0)
    }

    /// Connections currently in service (accepted, not yet closed).
    pub fn active_connections(&self) -> u64 {
        self.conns_active.load(Ordering::Relaxed)
    }

    /// Milliseconds since the daemon started.
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    pub(crate) fn count_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_ok(&self) {
        self.ok.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_busy(&self) {
        self.busy.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn count_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn connection_opened(&self) {
        self.conns_total.fetch_add(1, Ordering::Relaxed);
        self.conns_active.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was counted ([`ServerState::connection_opened`]) and is
    /// now done.
    pub(crate) fn connection_closed(&self) {
        self.conns_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// A connection was rejected at the edge (never entered service).
    pub(crate) fn connection_rejected(&self) {
        self.conns_total.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_compress(&self, codec: CodecId) {
        if let Some(slot) = self.compress_by_codec.get(ServerStats::codec_slot(codec)) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn count_decompress(&self, codec: CodecId) {
        if let Some(slot) = self.decompress_by_codec.get(ServerStats::codec_slot(codec)) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fold the counters of a finished streaming decode into the totals.
    pub(crate) fn count_stream_models(&self, hits: u64, resolutions: u64) {
        self.model_hits.fetch_add(hits, Ordering::Relaxed);
        self.model_resolutions
            .fetch_add(resolutions, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot of every counter (individually atomic;
    /// relative skew across counters is fine for monitoring).
    pub fn snapshot(&self) -> ServerStats {
        let mut stats = ServerStats {
            uptime_ms: self.uptime_ms(),
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            busy_rejections: self.busy.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            queue_depth: self.queue_depth(),
            connections_active: self.conns_active.load(Ordering::Relaxed),
            connections_total: self.conns_total.load(Ordering::Relaxed),
            model_cache_hits: self.model_hits.load(Ordering::Relaxed),
            model_resolutions: self.model_resolutions.load(Ordering::Relaxed),
            models_resident: self.registry.models_resident() as u64,
            ..ServerStats::default()
        };
        for (out, slot) in stats
            .compress_by_codec
            .iter_mut()
            .zip(self.compress_by_codec.iter())
        {
            *out = slot.load(Ordering::Relaxed);
        }
        for (out, slot) in stats
            .decompress_by_codec
            .iter_mut()
            .zip(self.decompress_by_codec.iter())
        {
            *out = slot.load(Ordering::Relaxed);
        }
        stats
    }
}
