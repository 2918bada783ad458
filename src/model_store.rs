//! The content-addressed model store behind the codec
//! [`Registry`](crate::registry::Registry).
//!
//! The paper's central design keeps the trained autoencoder *separate* from
//! the compressed data so one network serves every snapshot of an
//! application (Fig. 2). That split needs an artifact pipeline: somewhere to
//! put a trained model ("ship"), and a way for a decoder that never saw the
//! trainer to find it again ("resolve"). [`ModelStore`] is that pipeline:
//!
//! * **in-memory registration** — [`ModelStore::insert`] /
//!   [`ModelStore::insert_frame`] hold `AESM` frames keyed by [`ModelId`];
//! * **sidecar files** — [`ModelStore::add_sidecar_dir`] points at
//!   directories of `<model-id-hex>.aesm` files
//!   ([`ModelStore::save_sidecar`] writes them), looked up lazily on miss.
//!
//! An archive's embedded model section never enters the store: the decode
//! paths offer it to their per-session
//! [`ModelResolver`](crate::resolve::ModelResolver), which builds an
//! embedded model on first use and asks the store only for models the
//! archive does not carry.
//!
//! Every byte entering the store is verified: the frame must parse and the
//! payload must hash to the id it is filed under, so a corrupted or renamed
//! model file is rejected instead of silently decoding garbage. The store
//! only finds frames ([`ModelStore::lookup`], which caches nothing); the
//! [`ModelResolver`](crate::resolve::ModelResolver) turns one into a
//! trained compressor ([`build_compressor`]) for the decode that names it.
//! [`train_compressor`] is the other end of the lifecycle: the one training
//! dispatch behind `aesz train`, `aesz compress --train` and the daemon.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use aesz_baselines::{AeA, AeB};
use aesz_core::training::{train_swae_for_field, TrainingOptions};
use aesz_core::AeSz;
use aesz_metrics::container::read_model_frame;
use aesz_metrics::{CodecId, Compressor, DecompressError, EmbeddedModel, ModelId};
use aesz_nn::serialize::{load_model, ModelError};
use aesz_tensor::Field;

/// Why a model file or frame could not enter the store.
#[derive(Debug)]
pub enum ModelStoreError {
    /// Reading a sidecar file failed.
    Io(std::io::Error),
    /// The bytes are not a valid `AESM` frame.
    Frame(DecompressError),
    /// The file name promises a different id than the payload hashes to.
    IdMismatch {
        /// Id the file name (or caller) claimed.
        claimed: ModelId,
        /// Id the payload actually hashes to.
        actual: ModelId,
    },
}

impl From<std::io::Error> for ModelStoreError {
    fn from(e: std::io::Error) -> Self {
        ModelStoreError::Io(e)
    }
}

impl From<DecompressError> for ModelStoreError {
    fn from(e: DecompressError) -> Self {
        ModelStoreError::Frame(e)
    }
}

impl std::fmt::Display for ModelStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelStoreError::Io(e) => write!(f, "model store I/O failed: {e}"),
            ModelStoreError::Frame(e) => write!(f, "invalid model frame: {e}"),
            ModelStoreError::IdMismatch { claimed, actual } => write!(
                f,
                "model file claims id {claimed} but its payload hashes to {actual}"
            ),
        }
    }
}

impl std::error::Error for ModelStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelStoreError::Io(e) => Some(e),
            ModelStoreError::Frame(e) => Some(e),
            ModelStoreError::IdMismatch { .. } => None,
        }
    }
}

/// One `*.aesm` file found by [`ModelStore::scan_sidecar_dir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SidecarEntry {
    /// File name inside the scanned directory.
    pub file_name: String,
    /// The payload's content hash when the frame parses, otherwise the id
    /// the file name claims (when it is valid hex). `None` for files that
    /// neither parse nor carry an id-shaped name.
    pub id: Option<ModelId>,
    /// Codec the frame names, when it parses.
    pub codec: Option<CodecId>,
    /// Serialized parameter bytes (the `AESM` payload length; 0 when the
    /// frame does not parse).
    pub param_bytes: u64,
    /// Whether the frame parses *and* its payload hashes to the id the
    /// file name claims — only verified files will resolve via
    /// [`ModelStore::lookup`].
    pub verified: bool,
}

/// Content-addressed storage of serialized trained models (`AESM` frames),
/// resolvable from memory or sidecar directories.
#[derive(Default)]
pub struct ModelStore {
    models: HashMap<ModelId, EmbeddedModel>,
    sidecar_dirs: Vec<PathBuf>,
}

impl ModelStore {
    /// An empty store with no sidecar directories.
    pub fn new() -> Self {
        ModelStore::default()
    }

    /// Register a verified model, returning its id. Re-inserting the same
    /// content is a no-op (content addressing makes it idempotent).
    pub fn insert(&mut self, model: EmbeddedModel) -> ModelId {
        let id = model.id;
        self.models.insert(id, model);
        id
    }

    /// Parse, verify and register a raw `AESM` frame.
    pub fn insert_frame(&mut self, frame: &[u8]) -> Result<ModelId, ModelStoreError> {
        let (model, _) = EmbeddedModel::from_frame(frame)?;
        Ok(self.insert(model))
    }

    /// Load, verify and register a sidecar model file (any path — the file
    /// name does not have to be the id).
    pub fn insert_file(&mut self, path: &Path) -> Result<ModelId, ModelStoreError> {
        let bytes = std::fs::read(path)?;
        self.insert_frame(&bytes)
    }

    /// Add a directory that is searched for `<model-id-hex>.aesm` files when
    /// an id misses the in-memory map. Directories are searched in the order
    /// they were added; files are verified before use.
    pub fn add_sidecar_dir(&mut self, dir: impl Into<PathBuf>) {
        self.sidecar_dirs.push(dir.into());
    }

    /// The canonical sidecar path of a model inside `dir`.
    pub fn sidecar_path(dir: &Path, id: ModelId) -> PathBuf {
        dir.join(format!("{id}.aesm"))
    }

    /// Write a model to its canonical sidecar path inside `dir`, returning
    /// that path — the "ship" half of train → ship → resolve.
    pub fn save_sidecar(dir: &Path, model: &EmbeddedModel) -> std::io::Result<PathBuf> {
        let path = Self::sidecar_path(dir, model.id);
        std::fs::write(&path, &model.frame)?;
        Ok(path)
    }

    /// Ids currently resident in memory (sidecar files are not enumerated).
    pub fn ids(&self) -> Vec<ModelId> {
        let mut ids: Vec<ModelId> = self.models.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Non-caching lookup: the in-memory map first, then each sidecar
    /// directory's `<id>.aesm`. Sidecar hits are verified (frame parse +
    /// payload hash); a file whose content does not hash to its name is
    /// ignored (a later directory may hold the real one). Returns an owned
    /// copy so read-only holders (e.g. the archive decode path behind
    /// `&Registry`) can resolve without mutating the store.
    pub fn lookup(&self, id: ModelId) -> Option<EmbeddedModel> {
        if let Some(m) = self.models.get(&id) {
            return Some(m.clone());
        }
        for dir in &self.sidecar_dirs {
            let path = Self::sidecar_path(dir, id);
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            let Ok((model, _)) = EmbeddedModel::from_frame(&bytes) else {
                continue;
            };
            if model.id == id {
                return Some(model);
            }
        }
        None
    }

    /// Inventory a sidecar directory without registering anything: every
    /// `*.aesm` file, whether it parses, and whether its payload hashes to
    /// the id its file name claims — the `aesz models` listing and the
    /// daemon's `ListModels` answer. Entries are sorted by file name for
    /// deterministic output. Unreadable or corrupt files become unverified
    /// entries rather than errors, so one bad file cannot hide the rest.
    pub fn scan_sidecar_dir(dir: &Path) -> std::io::Result<Vec<SidecarEntry>> {
        let mut names: Vec<String> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.ends_with(".aesm"))
            .collect();
        names.sort();
        let mut entries = Vec::new();
        for name in names {
            let claimed = name.strip_suffix(".aesm").and_then(ModelId::from_hex);
            let entry = match std::fs::read(dir.join(&name)) {
                Ok(bytes) => match EmbeddedModel::from_frame(&bytes) {
                    Ok((model, codec)) => SidecarEntry {
                        verified: claimed == Some(model.id),
                        id: Some(model.id),
                        codec: Some(codec),
                        param_bytes: model.payload().len() as u64,
                        file_name: name,
                    },
                    Err(_) => SidecarEntry {
                        file_name: name,
                        id: claimed,
                        codec: None,
                        param_bytes: 0,
                        verified: false,
                    },
                },
                Err(_) => SidecarEntry {
                    file_name: name,
                    id: claimed,
                    codec: None,
                    param_bytes: 0,
                    verified: false,
                },
            };
            entries.push(entry);
        }
        Ok(entries)
    }
}

/// Turn a verified model frame into a trained compressor instance for the
/// codec the frame names. Fails on codecs that carry no model and on
/// payloads the codec's loader rejects.
pub fn build_compressor(model: &EmbeddedModel) -> Result<Box<dyn Compressor>, DecompressError> {
    let (codec, payload) = read_model_frame(&model.frame)?;
    match codec {
        CodecId::AeSz => {
            let net = load_model(payload).map_err(model_error_to_decompress)?;
            Ok(Box::new(AeSz::from_model(net)))
        }
        CodecId::AeA => {
            let ae = AeA::from_model_bytes(payload).map_err(model_error_to_decompress)?;
            Ok(Box::new(ae))
        }
        CodecId::AeB => {
            let ae = AeB::from_model_bytes(payload).map_err(model_error_to_decompress)?;
            Ok(Box::new(ae))
        }
        _ => Err(DecompressError::Unsupported(
            "model frame names a codec that takes no model",
        )),
    }
}

/// Training knobs for [`train_compressor`]; `None` keeps the codec's
/// default. AE-A and AE-B read only `epochs` (default 3) and `seed`.
#[derive(Debug, Clone, Default)]
pub struct TrainSettings {
    /// Passes over the training blocks.
    pub epochs: Option<usize>,
    /// AE-SZ block edge.
    pub block: Option<usize>,
    /// AE-SZ latent size.
    pub latent: Option<usize>,
    /// AE-SZ encoder channel widths.
    pub channels: Option<Vec<usize>>,
    /// AE-SZ cap on sampled training blocks.
    pub max_blocks: Option<usize>,
    /// Initialisation and sampling seed.
    pub seed: u64,
}

/// Train a learned codec on `field` (the paper's offline stage), returning
/// its content-addressed model and the trained compressor. Errors are
/// user-facing texts: a field of the wrong rank, or a codec that takes no
/// model.
pub fn train_compressor(
    codec: CodecId,
    field: &Field,
    settings: &TrainSettings,
) -> Result<(EmbeddedModel, Box<dyn Compressor>), String> {
    let fields = std::slice::from_ref(field);
    let epochs = settings.epochs.unwrap_or(3);
    let built: Box<dyn Compressor> = match codec {
        CodecId::AeSz => {
            let rank = field.dims().rank();
            if rank < 2 {
                return Err("aesz training needs a 2D or 3D field".into());
            }
            let mut opts = TrainingOptions::default_for_rank(rank);
            opts.epochs = settings.epochs.unwrap_or(opts.epochs);
            opts.block_size = settings.block.unwrap_or(opts.block_size);
            opts.latent_dim = settings.latent.unwrap_or(opts.latent_dim);
            opts.max_blocks = settings.max_blocks.unwrap_or(opts.max_blocks);
            if let Some(channels) = &settings.channels {
                opts.channels = channels.clone();
            }
            opts.seed = settings.seed;
            Box::new(AeSz::from_model(train_swae_for_field(fields, &opts)))
        }
        CodecId::AeA => {
            let mut ae = AeA::new(settings.seed);
            ae.train(fields, epochs, settings.seed);
            Box::new(ae)
        }
        CodecId::AeB if field.dims().rank() != 3 => {
            return Err("aeb training needs a 3D field".into());
        }
        CodecId::AeB => {
            let mut ae = AeB::new(settings.seed);
            ae.train(fields, epochs, settings.seed);
            Box::new(ae)
        }
        other => {
            return Err(format!(
                "codec {} takes no model; only aesz, aea and aeb train",
                other.name()
            ))
        }
    };
    let model = built
        .embedded_model()
        .ok_or("trained codec produced no model")?;
    Ok((model, built))
}

fn model_error_to_decompress(e: ModelError) -> DecompressError {
    match e {
        ModelError::BadMagic => DecompressError::InvalidHeader("model payload magic"),
        ModelError::Truncated => DecompressError::Truncated("model payload"),
        ModelError::InvalidConfig(what) => DecompressError::InvalidHeader(what),
        ModelError::ParamMismatch { .. } => {
            DecompressError::Inconsistent("model parameter count mismatch")
        }
        ModelError::TrailingBytes => {
            DecompressError::Inconsistent("trailing bytes after model parameters")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aesz_core::training::{train_swae_for_field, TrainingOptions};
    use aesz_datagen::Application;
    use aesz_metrics::ErrorBound;
    use aesz_nn::serialize::save_model;
    use aesz_tensor::Dims;

    fn tiny_trained_aesz() -> AeSz {
        let field = Application::CesmCldhgh.generate(Dims::d2(24, 24), 1);
        let opts = TrainingOptions {
            block_size: 8,
            latent_dim: 4,
            channels: vec![4],
            epochs: 1,
            max_blocks: 6,
            seed: 9,
            ..TrainingOptions::default_for_rank(2)
        };
        AeSz::from_model(train_swae_for_field(std::slice::from_ref(&field), &opts))
    }

    #[test]
    fn memory_and_sidecar_resolution_build_the_same_compressor() {
        let aesz = tiny_trained_aesz();
        let model = Compressor::embedded_model(&aesz).expect("AE-SZ always has a model");
        assert_eq!(model.id, aesz.model_id());

        // In-memory path.
        let mut store = ModelStore::new();
        assert!(store.lookup(model.id).is_none());
        let id = store.insert_frame(&model.frame).expect("valid frame");
        assert_eq!(id, model.id);
        assert_eq!(store.ids(), vec![id]);
        let found = store.lookup(id).expect("resolves");
        assert_eq!(found.codec(), CodecId::AeSz);
        let built = build_compressor(&found).expect("builds");
        assert_eq!(built.codec_id(), CodecId::AeSz);

        // Sidecar path, from a store that never saw the frame in memory.
        let dir = std::env::temp_dir().join(format!("aesz_store_test_{id}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = ModelStore::save_sidecar(&dir, &model).unwrap();
        assert_eq!(path, ModelStore::sidecar_path(&dir, id));
        let mut fresh = ModelStore::new();
        fresh.add_sidecar_dir(&dir);
        let found2 = fresh.lookup(id).expect("sidecar resolves");
        assert_eq!(found2.codec(), CodecId::AeSz);
        let built2 = build_compressor(&found2).expect("sidecar model builds");
        assert_eq!(built2.codec_id(), CodecId::AeSz);

        // Both builds decode a stream from the original trainer identically.
        let field = Application::CesmCldhgh.generate(Dims::d2(24, 24), 2);
        let mut aesz = aesz;
        let bytes = aesz.compress(&field, ErrorBound::rel(1e-2)).unwrap();
        let mut built = built;
        let mut built2 = built2;
        let a = built.decompress(&bytes).expect("memory-built decodes");
        let b = built2.decompress(&bytes).expect("sidecar-built decodes");
        assert_eq!(a.as_slice(), b.as_slice());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_ids_and_corrupt_files_are_rejected() {
        let store = ModelStore::new();
        let id = ModelId::of(b"never stored");
        assert!(store.lookup(id).is_none());

        // A sidecar whose bytes do not hash to its file name is ignored.
        let dir = std::env::temp_dir().join("aesz_store_test_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let model = EmbeddedModel::new(CodecId::AeA, b"not really a model");
        let mut frame = model.frame.clone();
        let last = frame.len() - 1;
        frame[last] ^= 1; // breaks the hash
        std::fs::write(ModelStore::sidecar_path(&dir, model.id), &frame).unwrap();
        let mut store = ModelStore::new();
        store.add_sidecar_dir(&dir);
        assert!(store.lookup(model.id).is_none());
        std::fs::remove_dir_all(&dir).ok();

        // Garbage frames cannot enter the store at all.
        assert!(matches!(
            ModelStore::new().insert_frame(b"garbage"),
            Err(ModelStoreError::Frame(_))
        ));

        // A structurally valid frame whose payload the codec rejects fails
        // at build time, not silently.
        let bogus = EmbeddedModel::new(CodecId::AeA, b"not really a model");
        let mut store = ModelStore::new();
        let id = store.insert(bogus);
        let found = store.lookup(id).expect("stored frames are found");
        assert!(build_compressor(&found).is_err());

        // Model frames for model-free codecs are refused.
        let sz2 = EmbeddedModel::new(CodecId::Sz2, b"whatever");
        assert!(matches!(
            build_compressor(&sz2),
            Err(DecompressError::Unsupported(_))
        ));
    }

    #[test]
    fn geometry_is_validated_per_codec_at_build_time() {
        // A perfectly valid conv model, but framed as AE-B with the wrong
        // geometry: build must fail rather than construct a broken AE-B.
        let aesz = tiny_trained_aesz();
        let wrong = EmbeddedModel::new(CodecId::AeB, &save_model(aesz.model()));
        assert!(build_compressor(&wrong).is_err());
    }
}
