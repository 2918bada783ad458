//! Codec registry and cross-codec dispatch.
//!
//! Every stream produced through the [`Compressor`] trait carries the
//! self-describing container frame of [`aesz_metrics::container`], so bytes
//! of unknown provenance can be routed to the right decoder by codec id.
//! [`Registry`] owns one instance per codec and [`Registry::decompress_any`]
//! performs that dispatch — the entry point a service front-end calls on
//! untrusted traffic.
//!
//! The learned codecs (AE-SZ, AE-A, AE-B) need the *same trained model* the
//! encoder used. Their streams carry that model's content-addressed
//! [`ModelId`], and the registry is backed by a [`ModelStore`] (in-memory
//! registrations, sidecar `.aesm` files) that the one
//! [`ModelResolver`](crate::resolve::ModelResolver) policy searches. No
//! decode, this module's included, changes what is registered.

use crate::model_store::ModelStore;
use crate::resolve::decompress_frame;
use aesz_metrics::{CodecId, Compressor, DecompressError, EmbeddedModel, ModelId};
use aesz_tensor::Field;

/// One decoder/encoder per codec id, dispatchable by container frame, backed
/// by a [`ModelStore`] of trained models.
pub struct Registry {
    entries: Vec<Box<dyn Compressor>>,
    store: ModelStore,
}

impl Registry {
    /// An empty registry; populate it with [`Registry::register`].
    pub fn empty() -> Self {
        Registry {
            entries: Vec::new(),
            store: ModelStore::new(),
        }
    }

    /// A registry holding all seven compressors of the paper's evaluation.
    ///
    /// The five traditional codecs are fully functional immediately. The
    /// learned codecs (AE-SZ, AE-A, AE-B) start as fresh untrained
    /// instances: they encode/decode their *own* streams consistently, but a
    /// foreign learned stream names its trained model by id and is refused
    /// with [`DecompressError::MissingModel`] until that model is available
    /// — registered directly ([`Registry::register`] with a trained
    /// instance), added to the backing [`ModelStore`]
    /// ([`Registry::model_store_mut`], sidecar `.aesm` files), or embedded
    /// in the archive being decoded ([`crate::archive::decompress`]).
    /// Pre-model (id-less) AE-SZ streams fall back to geometry checks and
    /// decode with whatever model is registered.
    pub fn with_defaults() -> Self {
        use aesz_baselines::{AeA, AeB, Sz2, SzAuto, SzInterp, Zfp};
        use aesz_core::{AeSz, AeSzConfig};
        use aesz_nn::models::conv_ae::{AeConfig, ConvAutoencoder};

        let config = AeSzConfig::default_2d();
        let model = ConvAutoencoder::new(AeConfig {
            spatial_rank: 2,
            block_size: config.block_size,
            latent_dim: 8,
            channels: vec![8, 16],
            variational: false,
            seed: 0,
        });
        let mut registry = Registry::empty();
        registry.register(Box::new(AeSz::new(model, config)));
        registry.register(Box::new(Sz2::new()));
        registry.register(Box::new(Zfp::new()));
        registry.register(Box::new(SzAuto::new()));
        registry.register(Box::new(SzInterp::new()));
        registry.register(Box::new(AeA::new(0)));
        registry.register(Box::new(AeB::new(0)));
        registry
    }

    /// Register a compressor, replacing any previous entry with the same
    /// codec id (so trained models can shadow the defaults).
    pub fn register(&mut self, compressor: Box<dyn Compressor>) {
        let id = compressor.codec_id();
        self.entries.retain(|c| c.codec_id() != id);
        self.entries.push(compressor);
    }

    /// The codec ids currently registered, in registration order.
    pub fn codec_ids(&self) -> Vec<CodecId> {
        self.entries.iter().map(|c| c.codec_id()).collect()
    }

    /// Shared access to the compressor registered for `id`.
    pub fn get(&self, id: CodecId) -> Option<&(dyn Compressor + 'static)> {
        self.entries
            .iter()
            .find(|c| c.codec_id() == id)
            .map(|c| c.as_ref())
    }

    /// Mutable access to the compressor registered for `id`.
    pub fn get_mut(&mut self, id: CodecId) -> Option<&mut (dyn Compressor + 'static)> {
        self.entries
            .iter_mut()
            .find(|c| c.codec_id() == id)
            .map(|c| c.as_mut())
    }

    /// An independent deep copy of the compressor registered for `id`
    /// ([`Compressor::fork`]) — how the archive layer obtains one instance
    /// per in-flight chunk without sharing `&mut` state across threads.
    pub fn fork(&self, id: CodecId) -> Option<Box<dyn Compressor>> {
        self.get(id).map(|c| c.fork())
    }

    /// The backing model store.
    pub fn model_store(&self) -> &ModelStore {
        &self.store
    }

    /// Mutable access to the backing model store — where trained models are
    /// inserted ([`ModelStore::insert_frame`]) and sidecar directories
    /// attached ([`ModelStore::add_sidecar_dir`]) so decodes can resolve
    /// foreign learned streams.
    pub fn model_store_mut(&mut self) -> &mut ModelStore {
        &mut self.store
    }

    /// Decode a framed stream from *any* registered codec
    /// ([`decompress_frame`] over this registry), returning the
    /// reconstruction and which codec produced it.
    ///
    /// # Errors
    ///
    /// As [`decompress_frame`]: unresolvable models as
    /// [`DecompressError::MissingModel`], other codec failures wrapped in
    /// [`DecompressError::CodecFailed`].
    pub fn decompress_any(&self, bytes: &[u8]) -> Result<(Field, CodecId), DecompressError> {
        decompress_frame(self, bytes)
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_defaults()
    }
}

/// The read-only registry surface decode-time model resolution needs,
/// abstracted so a lock-guarded registry can scope each acquisition to one
/// call.
///
/// [`ModelResolver`](crate::resolve::ModelResolver) runs against
/// `&dyn RegistryAccess` — inside a
/// [`StreamFieldDecoder`](crate::stream::StreamFieldDecoder) whose caller
/// blocks on transport reads between polls. For a plain [`Registry`] the
/// methods are direct calls; for [`SharedRegistry`] each takes the read
/// lock for just that call — so a
/// slow or hostile byte source can never hold the lock across I/O, and a
/// writer waiting behind it can never wedge every other reader (std's
/// `RwLock` queues new readers behind a blocked writer).
pub trait RegistryAccess {
    /// An independent instance of the compressor registered for `id`
    /// (see [`Registry::fork`]).
    fn fork_codec(&self, id: CodecId) -> Option<Box<dyn Compressor>>;
    /// The trained-model id embedded in the instance registered for
    /// `codec`, if any.
    fn registered_model_id(&self, codec: CodecId) -> Option<ModelId>;
    /// Verified model lookup in the backing store (memory, then sidecars).
    fn lookup_model(&self, id: ModelId) -> Option<EmbeddedModel>;
}

impl RegistryAccess for Registry {
    fn fork_codec(&self, id: CodecId) -> Option<Box<dyn Compressor>> {
        self.fork(id)
    }

    fn registered_model_id(&self, codec: CodecId) -> Option<ModelId> {
        self.get(codec).and_then(|c| c.embedded_model_id())
    }

    fn lookup_model(&self, id: ModelId) -> Option<EmbeddedModel> {
        self.model_store().lookup(id)
    }
}

impl RegistryAccess for SharedRegistry {
    fn fork_codec(&self, id: CodecId) -> Option<Box<dyn Compressor>> {
        self.read().fork(id)
    }

    fn registered_model_id(&self, codec: CodecId) -> Option<ModelId> {
        self.read().registered_model_id(codec)
    }

    fn lookup_model(&self, id: ModelId) -> Option<EmbeddedModel> {
        self.read().model_store().lookup(id)
    }
}

/// A thread-safe registry for long-running services: a [`Registry`] behind
/// an `RwLock`.
///
/// Decoders reach it through [`RegistryAccess`], which takes the *read*
/// lock for one fork or store lookup at a time and decodes outside it, so
/// concurrent requests never serialize on the lock; only registrations and
/// store insertions take the write lock.
///
/// Lock poisoning is tolerated (`unwrap_or_else(PoisonError::into_inner)`):
/// a panicking thread elsewhere must not wedge the daemon, and the registry
/// holds no invariants that a partial mutation could break — `register`
/// swaps whole entries.
pub struct SharedRegistry {
    inner: std::sync::RwLock<Registry>,
}

impl SharedRegistry {
    /// Wrap an existing registry.
    pub fn new(registry: Registry) -> Self {
        SharedRegistry {
            inner: std::sync::RwLock::new(registry),
        }
    }

    /// A shared default registry of all seven codecs.
    pub fn with_defaults() -> Self {
        SharedRegistry::new(Registry::with_defaults())
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Registry> {
        self.inner.read().unwrap_or_else(|p| p.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Registry> {
        self.inner.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Run `f` with shared access to the registry.
    pub fn with_read<T>(&self, f: impl FnOnce(&Registry) -> T) -> T {
        f(&self.read())
    }

    /// Run `f` with exclusive access to the registry.
    pub fn with_write<T>(&self, f: impl FnOnce(&mut Registry) -> T) -> T {
        f(&mut self.write())
    }

    /// Register a compressor (see [`Registry::register`]).
    pub fn register(&self, compressor: Box<dyn Compressor>) {
        self.write().register(compressor);
    }

    /// Insert a serialized model frame into the backing store.
    pub fn insert_model_frame(
        &self,
        frame: &[u8],
    ) -> Result<ModelId, crate::model_store::ModelStoreError> {
        self.write().model_store_mut().insert_frame(frame)
    }

    /// Attach a sidecar directory to the backing store.
    pub fn add_sidecar_dir(&self, dir: impl Into<std::path::PathBuf>) {
        self.write().model_store_mut().add_sidecar_dir(dir);
    }

    /// Fork an independent instance of the compressor registered for `id`.
    pub fn fork(&self, id: CodecId) -> Option<Box<dyn Compressor>> {
        self.read().fork(id)
    }

    /// Compress `field` with the codec registered for `id`, on a private
    /// fork so concurrent compressions never contend past the read lock.
    pub fn compress(
        &self,
        id: CodecId,
        field: &Field,
        bound: aesz_metrics::ErrorBound,
    ) -> Result<Vec<u8>, DecompressError> {
        let mut instance = self
            .fork(id)
            .ok_or(DecompressError::UnknownCodec(id as u8))?;
        Self::compress_on(instance.as_mut(), field, bound)
    }

    /// Compress `field` on a caller-owned codec instance with the same
    /// error mapping as [`SharedRegistry::compress`] — the entry point for
    /// callers that keep long-lived forks (e.g. the server's per-worker
    /// codec cache) instead of forking per call.
    pub fn compress_on(
        instance: &mut dyn Compressor,
        field: &Field,
        bound: aesz_metrics::ErrorBound,
    ) -> Result<Vec<u8>, DecompressError> {
        instance
            .compress(field, bound)
            .map_err(|e| DecompressError::Unsupported(compress_error_reason(e)))
    }

    /// What is registered for `id` right now: `None` when the codec is
    /// unregistered, `Some(embedded_model_id)` otherwise — so `Some(None)`
    /// means a registered stateless codec. Long-lived forks compare this
    /// against the id they were forked at to learn whether they are stale
    /// (a `Train` re-registering a learned codec changes the id).
    pub fn registered_codec_state(&self, id: CodecId) -> Option<Option<ModelId>> {
        self.read().get(id).map(|c| c.embedded_model_id())
    }

    /// Models currently resident in the backing store.
    pub fn models_resident(&self) -> usize {
        self.read().model_store().ids().len()
    }
}

fn compress_error_reason(e: aesz_metrics::CompressError) -> &'static str {
    match e {
        aesz_metrics::CompressError::InvalidBound(what)
        | aesz_metrics::CompressError::UnsupportedField(what)
        | aesz_metrics::CompressError::Untrained(what) => what,
    }
}

/// Decode a framed stream from any known codec with a shared, lazily built
/// default registry (constructing the default AE models is not free, so the
/// registry is reused per thread across calls). A service that needs trained
/// AE models should hold its own [`Registry`] and call
/// [`Registry::decompress_any`] instead.
pub fn decompress_any(bytes: &[u8]) -> Result<(Field, CodecId), DecompressError> {
    thread_local! {
        static DEFAULT: Registry = Registry::with_defaults();
    }
    DEFAULT.with(|r| r.decompress_any(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aesz_datagen::Application;
    use aesz_metrics::ErrorBound;
    use aesz_tensor::Dims;

    #[test]
    fn defaults_cover_all_seven_codecs() {
        let registry = Registry::with_defaults();
        let ids = registry.codec_ids();
        for id in CodecId::all() {
            assert!(ids.contains(&id), "{id} missing from the default registry");
        }
        assert_eq!(ids.len(), 7);
    }

    #[test]
    fn decompress_any_dispatches_by_frame() {
        let field = Application::CesmCldhgh.generate(Dims::d2(32, 32), 3);
        let mut registry = Registry::with_defaults();
        let bytes = registry
            .get_mut(CodecId::SzInterp)
            .unwrap()
            .compress(&field, ErrorBound::rel(1e-3))
            .unwrap();
        let (recon, id) = registry.decompress_any(&bytes).unwrap();
        assert_eq!(id, CodecId::SzInterp);
        assert_eq!(recon.dims(), field.dims());
        // The free function decodes traditional codecs too.
        let (recon2, id2) = decompress_any(&bytes).unwrap();
        assert_eq!(id2, CodecId::SzInterp);
        assert_eq!(recon2.as_slice(), recon.as_slice());
    }

    #[test]
    fn unregistered_codecs_are_reported() {
        let field = Application::CesmCldhgh.generate(Dims::d2(16, 16), 1);
        let mut registry = Registry::with_defaults();
        let bytes = registry
            .get_mut(CodecId::Sz2)
            .unwrap()
            .compress(&field, ErrorBound::rel(1e-2))
            .unwrap();
        let mut sparse = Registry::empty();
        sparse.register(Box::new(aesz_baselines::Zfp::new()));
        assert!(matches!(
            sparse.decompress_any(&bytes),
            Err(DecompressError::UnknownCodec(2))
        ));
        assert!(matches!(
            sparse.decompress_any(b"garbage!"),
            Err(DecompressError::BadMagic)
        ));
    }

    #[test]
    fn register_replaces_by_codec_id() {
        let mut registry = Registry::empty();
        registry.register(Box::new(aesz_baselines::Sz2 { block_size: 8 }));
        registry.register(Box::new(aesz_baselines::Sz2 { block_size: 4 }));
        assert_eq!(registry.codec_ids(), vec![CodecId::Sz2]);
    }

    #[test]
    fn codec_failures_name_the_failing_codec() {
        let field = Application::CesmCldhgh.generate(Dims::d2(16, 16), 4);
        let mut registry = Registry::with_defaults();
        let bytes = registry
            .get_mut(CodecId::Sz2)
            .unwrap()
            .compress(&field, ErrorBound::rel(1e-2))
            .unwrap();
        // Truncate the payload but keep the frame intact by rewriting the
        // declared length, so the failure comes from SZ2's own parser.
        let cut = bytes.len() - 10;
        let mut evil = bytes[..cut].to_vec();
        let payload_len = (cut - aesz_metrics::container::FRAME_LEN) as u64;
        evil[6..14].copy_from_slice(&payload_len.to_le_bytes());
        match registry.decompress_any(&evil) {
            Err(DecompressError::CodecFailed { codec, error }) => {
                assert_eq!(codec, CodecId::Sz2);
                assert!(!matches!(*error, DecompressError::CodecFailed { .. }));
            }
            other => panic!("expected CodecFailed, got {other:?}"),
        }
    }

    #[test]
    fn store_resolution_never_evicts_the_registered_model() {
        use aesz_core::training::{train_swae_for_field, TrainingOptions};
        use aesz_core::AeSz;

        let field = Application::CesmCldhgh.generate(Dims::d2(32, 32), 21);
        let train = |seed: u64| {
            let opts = TrainingOptions {
                block_size: 8,
                latent_dim: 4,
                channels: vec![4],
                epochs: 1,
                max_blocks: 8,
                seed,
                ..TrainingOptions::default_for_rank(2)
            };
            let mut t = AeSz::from_model(train_swae_for_field(std::slice::from_ref(&field), &opts));
            t.set_policy(aesz_core::PredictorPolicy::AeOnly);
            t
        };
        let mut a = train(1);
        let mut b = train(2);
        let stream_a = a.compress(&field, ErrorBound::rel(1e-2)).unwrap();
        let stream_b = b.compress(&field, ErrorBound::rel(1e-2)).unwrap();
        let ref_a = a.decompress(&stream_a).unwrap();
        let a_id = a.model_id();

        // Model A is *directly registered* (never inserted into the store);
        // model B only exists in the store.
        let mut registry = Registry::with_defaults();
        registry.register(Box::new(a));
        registry
            .model_store_mut()
            .insert_frame(&Compressor::embedded_model(&b).unwrap().frame)
            .unwrap();
        let (got_a, _) = registry.decompress_any(&stream_a).expect("registered A");
        assert_eq!(got_a.as_slice(), ref_a.as_slice());
        // Resolving B from the store builds it for that decode alone: A
        // stays registered, so stream A stays decodable.
        registry.decompress_any(&stream_b).expect("resolved B");
        assert_eq!(
            registry.get(CodecId::AeSz).unwrap().embedded_model_id(),
            Some(a_id),
            "A is still the registered model after B decodes"
        );
        let (again_a, _) = registry
            .decompress_any(&stream_a)
            .expect("A must survive B's resolution");
        assert_eq!(again_a.as_slice(), ref_a.as_slice());
    }

    #[test]
    fn decoding_never_changes_the_registry() {
        use crate::resolve::decompress_frame;

        let field = Application::CesmCldhgh.generate(Dims::d2(32, 32), 5);
        let mut trained = aesz_baselines::AeA::new(4);
        trained.train(std::slice::from_ref(&field), 1, 6);
        let model = Compressor::embedded_model(&trained).expect("trained AE-A");
        let stream = trained.compress(&field, ErrorBound::rel(1e-2)).unwrap();
        let reference = trained.decompress(&stream).unwrap();

        // The store holds the model; the registered AE-A is the untrained
        // default, which no decode may replace.
        let mut registry = Registry::with_defaults();
        let before = registry.get(CodecId::AeA).unwrap().embedded_model_id();
        registry
            .model_store_mut()
            .insert_frame(&model.frame)
            .unwrap();
        let shared = SharedRegistry::new(Registry::with_defaults());
        shared.insert_model_frame(&model.frame).unwrap();
        for _ in 0..2 {
            let (recon, _) = registry.decompress_any(&stream).expect("store model");
            assert_eq!(recon.as_slice(), reference.as_slice());
            let (recon, _) = decompress_frame(&shared, &stream).expect("store model");
            assert_eq!(recon.as_slice(), reference.as_slice());
        }
        assert_ne!(before, Some(model.id));
        assert_eq!(
            registry.get(CodecId::AeA).unwrap().embedded_model_id(),
            before
        );
        assert_eq!(
            shared.registered_codec_state(CodecId::AeA),
            Some(before),
            "the shared registry's instance is unchanged too"
        );
    }

    #[test]
    fn a_store_model_its_codec_cannot_load_is_reported_missing() {
        // The store checks a frame's hash, not that its codec can load the
        // payload. A frame naming such a model misses as on every archive
        // and stream path: the registered instance reports it missing.
        let model = EmbeddedModel::new(CodecId::AeA, b"not really a model");
        let frame = aesz_metrics::container::write_frame(CodecId::AeA, model.id.as_bytes());
        let mut registry = Registry::with_defaults();
        registry.model_store_mut().insert(model.clone());
        assert!(matches!(
            registry.decompress_any(&frame),
            Err(DecompressError::MissingModel { codec: CodecId::AeA, model_id })
                if model_id == model.id
        ));
    }

    #[test]
    fn missing_models_resolve_lazily_from_the_store() {
        use aesz_core::training::{train_swae_for_field, TrainingOptions};
        use aesz_core::AeSz;

        let field = Application::CesmCldhgh.generate(Dims::d2(32, 32), 8);
        let opts = TrainingOptions {
            block_size: 8,
            latent_dim: 4,
            channels: vec![4],
            epochs: 2,
            max_blocks: 16,
            seed: 14,
            ..TrainingOptions::default_for_rank(2)
        };
        let mut trained =
            AeSz::from_model(train_swae_for_field(std::slice::from_ref(&field), &opts));
        // Force every block through the autoencoder so the stream is
        // guaranteed to need the model (Adaptive could route everything to
        // Lorenzo on an easy field and dodge the resolution path).
        trained.set_policy(aesz_core::PredictorPolicy::AeOnly);
        let bytes = trained.compress(&field, ErrorBound::rel(1e-2)).unwrap();
        assert_eq!(trained.last_report().ae_blocks, 16, "all blocks AE-coded");
        let reference = trained.decompress(&bytes).unwrap();
        let model = Compressor::embedded_model(&trained).expect("AE-SZ carries its model");

        // A fresh default registry that never saw the trainer refuses with
        // the dedicated missing-model error…
        let mut fresh = Registry::with_defaults();
        assert!(matches!(
            fresh.decompress_any(&bytes),
            Err(DecompressError::MissingModel { codec: CodecId::AeSz, model_id })
                if model_id == model.id
        ));
        // …until the model enters the store, after which the same call
        // resolves it from there and decodes bit-identically.
        fresh
            .model_store_mut()
            .insert_frame(&model.frame)
            .expect("valid frame");
        let (recon, id) = fresh.decompress_any(&bytes).expect("resolved");
        assert_eq!(id, CodecId::AeSz);
        assert_eq!(recon.as_slice(), reference.as_slice());
        // Nothing was registered: a second decode resolves from the store
        // again and still succeeds.
        let (again, _) = fresh.decompress_any(&bytes).expect("resolved again");
        assert_eq!(again.as_slice(), reference.as_slice());
    }
}
