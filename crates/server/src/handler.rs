//! Request → response logic, independent of the socket framing.
//!
//! [`handle_buffered`] serves every fully-read request body;
//! [`handle_decompress_stream`] is the one `Decompress` path: `conn` feeds it
//! socket slabs straight through [`StreamFieldDecoder`] so the compressed
//! input is never resident whole, and [`handle_buffered`] feeds it a body it
//! already holds, so a frame or an archive decodes the same either way.
//! Training goes through the library's one dispatch
//! ([`train_compressor`]), so a remote `Train` and `aesz train` build the
//! same model bit for bit.

use std::io::Read;

use crate::state::ServerState;
use aesz_repro::archive::ArchiveReadError;
use aesz_repro::metrics::protocol::{ErrorCode, ModelEntry, Request, Response, TrainKnobs};
use aesz_repro::model_store::{train_compressor, TrainSettings};
use aesz_repro::{CodecId, DecompressError, Field, ModelStore, StreamFieldDecoder};

/// Map a decode/dispatch failure onto the wire error code.
pub fn error_code_for(e: &DecompressError) -> ErrorCode {
    match e {
        DecompressError::Unsupported(what) if what.contains("cap") => ErrorCode::TooLarge,
        DecompressError::Unsupported(_) | DecompressError::UnknownCodec(_) => {
            ErrorCode::Unsupported
        }
        DecompressError::MissingModel { .. } | DecompressError::CodecFailed { .. } => {
            ErrorCode::DecompressFailed
        }
        _ => ErrorCode::Malformed,
    }
}

fn error(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

/// Serve one fully-buffered request body of type `msg`. `worker` is the
/// pool worker executing the connection (keys the per-worker codec cache);
/// `None` falls back to fork-per-call compression.
pub fn handle_buffered(
    state: &ServerState,
    worker: Option<usize>,
    msg: aesz_repro::metrics::protocol::MsgType,
    body: &[u8],
) -> Response {
    let request = match Request::decode_body(msg, body, state.config.max_field_elems) {
        Ok(r) => r,
        Err(e) => return error(error_code_for(&e), e.to_string()),
    };
    match request {
        Request::Compress {
            codec,
            bound,
            field,
        } => match state.compress_cached(worker, codec, &field, bound) {
            Ok(stream) => {
                state.count_compress(codec);
                Response::CompressOk { stream }
            }
            Err(e) => error(ErrorCode::CompressFailed, e.to_string()),
        },
        Request::Decompress { bytes } => handle_decompress_stream(state, &mut bytes.as_slice()),
        Request::Train {
            codec,
            knobs,
            field,
        } => train(state, codec, knobs, &field),
        Request::Health => Response::HealthOk {
            uptime_ms: state.uptime_ms(),
            queue_depth: state.queue_depth(),
        },
        Request::Stats => Response::StatsOk(state.snapshot()),
        Request::ListModels => list_models(state),
    }
}

/// Serve a `Decompress` body directly from the socket through the
/// library's stream-to-field loop ([`StreamFieldDecoder::read_field`]), so
/// per-connection residency is one slab, one window of archive chunks
/// (decoded in parallel) and the decoder's own bounded buffer — never the
/// whole compressed body. A single frame decodes as soon as it completes.
///
/// No registry lock is held across the socket reads: the decoder accesses
/// the shared registry through [`aesz_repro::RegistryAccess`], which scopes
/// each read-lock acquisition to a single fork/lookup inside `poll`. A peer
/// trickling its body therefore cannot pin the lock while a `Train`
/// request's write blocks — which would otherwise queue every new reader
/// behind it and stall all workers.
pub fn handle_decompress_stream(state: &ServerState, input: &mut dyn Read) -> Response {
    let mut decoder = StreamFieldDecoder::new(&state.registry);
    let decoded = decoder.read_field(input, state.config.max_field_elems);
    state.count_stream_models(
        decoder.registry_model_hits(),
        decoder.resolved_models() as u64,
    );
    match decoded {
        Ok(field) => {
            // A single frame names its codec in the parsed frame head; an
            // archive is not attributed to one codec.
            if let Some(codec) = decoder.frame_codec() {
                state.count_decompress(codec);
            }
            Response::DecompressOk { field }
        }
        Err(ArchiveReadError::Io(e)) => {
            error(ErrorCode::Internal, format!("body read failed: {e}"))
        }
        Err(ArchiveReadError::Archive(e) | ArchiveReadError::Chunk { error: e, .. }) => {
            error(error_code_for(&e), e.to_string())
        }
    }
}

/// Reject wire-supplied training knobs above the server's configured
/// maxima. Knobs are a compute budget handed to untrusted peers — the
/// socket read timeout bounds their I/O but not the CPU a `Train` request
/// spends — so each one is checked before any training work starts.
fn check_train_knobs(knobs: &TrainKnobs, state: &ServerState) -> Result<(), (ErrorCode, String)> {
    let config = &state.config;
    let caps = [
        ("epochs", knobs.epochs, config.max_train_epochs),
        ("block", knobs.block, config.max_train_block),
        ("latent", knobs.latent, config.max_train_latent),
        ("max_blocks", knobs.max_blocks, config.max_train_blocks),
    ];
    for (name, got, cap) in caps {
        if got > cap {
            return Err((
                ErrorCode::TooLarge,
                format!("training knob {name}={got} exceeds the server cap of {cap}"),
            ));
        }
    }
    Ok(())
}

/// Train a learned codec, make the model resident (registry + store +
/// optional sidecar), and hand the serialized frame back.
fn train(state: &ServerState, codec: CodecId, knobs: TrainKnobs, field: &Field) -> Response {
    if let Err((code, msg)) = check_train_knobs(&knobs, state) {
        return error(code, msg);
    }
    // Zero means "codec default" on the wire.
    let knob = |v: u32| usize::try_from(v).ok().filter(|&v| v != 0);
    let settings = TrainSettings {
        epochs: knob(knobs.epochs),
        block: knob(knobs.block),
        latent: knob(knobs.latent),
        channels: None,
        max_blocks: knob(knobs.max_blocks),
        seed: knobs.seed,
    };
    let (model, built) = match train_compressor(codec, field, &settings) {
        Ok(trained) => trained,
        Err(msg) => return error(ErrorCode::Unsupported, msg),
    };
    // Resident immediately: later decompress requests hit the registered
    // instance without a store round-trip.
    state.registry.with_write(|r| {
        r.model_store_mut().insert(model.clone());
        r.register(built);
    });
    if let Some(dir) = &state.config.model_dir {
        let _ = std::fs::create_dir_all(dir);
        let _ = ModelStore::save_sidecar(dir, &model);
    }
    Response::TrainOk {
        id: model.id,
        frame: model.frame.clone(),
    }
}

/// Inventory: models resident in the store (verified by construction) plus
/// anything sitting in the configured sidecar directory.
fn list_models(state: &ServerState) -> Response {
    let mut entries: Vec<ModelEntry> = Vec::new();
    state.registry.with_read(|r| {
        for id in r.model_store().ids() {
            if let Some(m) = r.model_store().lookup(id) {
                entries.push(ModelEntry {
                    id,
                    codec: Some(m.codec()),
                    verified: true,
                    param_bytes: m.payload().len() as u64,
                });
            }
        }
    });
    if let Some(dir) = &state.config.model_dir {
        if let Ok(scan) = ModelStore::scan_sidecar_dir(dir) {
            for s in scan {
                let Some(id) = s.id else { continue };
                if entries.iter().any(|e| e.id == id) {
                    continue;
                }
                entries.push(ModelEntry {
                    id,
                    codec: s.codec,
                    verified: s.verified,
                    param_bytes: s.param_bytes,
                });
            }
        }
    }
    Response::ModelList { entries }
}
