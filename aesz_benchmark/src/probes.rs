//! The per-layer probes of a traced run.
//!
//! Each probe calls one layer's public functions on the workload's own data
//! — a leading slab of its input field (at most `Scale::probe_elems`
//! values), its trained model, its codec, and the compressed bytes its ops
//! produce — inside spans named after the metrics of `BENCHMARK.json`. The
//! library itself is not instrumented: where a codec's internals are not
//! reachable, the probe replays the codec's stage sequence through the same
//! public calls (SZ2.1's block loop below). Every workload runs every probe,
//! so each per-layer metric exists for each workload; on a workload whose
//! own ops skip a layer, the probe still measures that layer on the
//! workload's data (an untrained default-geometry AE-SZ model stands in for
//! a model the workload does not have).

use std::hint::black_box;

use aesz_repro::codec::{
    huffman_decode_capped, huffman_encode, zlite_compress, zlite_decompress_capped,
};
use aesz_repro::core::{AeSzConfig, LatentCodec};
use aesz_repro::metrics::protocol::{
    decode_request, Limits, MsgType, Request, Response, HEADER_LEN,
};
use aesz_repro::metrics::StreamDecoder;
use aesz_repro::nn::{AeConfig, ConvAutoencoder, NnScratch, Shape};
use aesz_repro::predictors::regression::{self, RegressionCoeffs};
use aesz_repro::predictors::{lorenzo, Quantizer, DEFAULT_QUANT_BINS};
use aesz_repro::tensor::{BlockSpec, Tensor};
use aesz_repro::{
    AeSz, CodecId, Compressor, ErrorBound, Field, PredictorPolicy, Registry, SharedRegistry,
};
use aesz_server::handler::handle_buffered;
use aesz_server::{ServerConfig, ServerState};

use crate::trace::Tracer;
use crate::workloads::leading_slab;

/// Batch AE-SZ feeds its networks with (its parallel inference batch).
pub const AESZ_BATCH: usize = 1024;
/// Batch AE-B feeds its network with.
pub const AEB_BATCH: usize = 16;
/// Blocks per batch of the per-layer NN breakdown and the training step
/// (the AE codecs' mini-batch size).
const LAYER_BATCH: usize = 16;
/// Repetitions of each layer in the per-layer breakdown.
const LAYER_REPS: u32 = 3;
/// Block edge of SZ2.1's predictor selection.
const SZ2_BLOCK: usize = 8;
/// Pipe-sized packets the stream parser is fed.
const PACKET: usize = 64 * 1024;

/// What a workload hands its probes.
pub struct ProbeSetup<'a> {
    /// The workload's input; the probes use its leading slab.
    pub field: &'a Field,
    /// Compressed bytes the workload's ops produce (a frame or an archive).
    pub output: &'a [u8],
    /// The workload's codec, registered (trained where learned) in
    /// `registry`.
    pub codec: CodecId,
    pub registry: Registry,
    /// The workload's network and the batch its codec feeds it with.
    pub nn_model: ConvAutoencoder,
    pub nn_batch: usize,
    /// AE-SZ as the workload has it (trained), or a default-geometry one.
    pub aesz: AeSz,
    pub bound: ErrorBound,
    pub probe_elems: usize,
}

/// A registry with the defaults plus forks of `codecs` (trained instances
/// shadow the untrained defaults).
pub fn registry_with(codecs: &[&dyn Compressor]) -> Registry {
    let mut registry = Registry::with_defaults();
    for c in codecs {
        registry.register(c.fork());
    }
    registry
}

/// An untrained AE-SZ of the default geometry for `rank` (weights do not
/// change inference cost).
pub fn default_aesz(rank: usize) -> AeSz {
    if rank == 3 {
        AeSz::new(
            ConvAutoencoder::new(AeConfig::default_3d()),
            AeSzConfig::default_3d(),
        )
    } else {
        AeSz::new(
            ConvAutoencoder::new(AeConfig::default_2d()),
            AeSzConfig::default_2d(),
        )
    }
}

/// Prepared probe state; everything here is built once, untimed.
pub struct Probes {
    slab: Field,
    output: Vec<u8>,
    codec: CodecId,
    bound: ErrorBound,
    abs_eb: f64,
    registry: Registry,
    state: ServerState,
    /// SZ2.1 replay: the slab's block-8 specs and values, per-block fits.
    sz2_blocks: Vec<(BlockSpec, Vec<f32>)>,
    coeffs: Vec<RegressionCoeffs>,
    /// NN probe: the model, its batch, the normalised blocks of the slab.
    model: ConvAutoencoder,
    batch: usize,
    nn_specs: Vec<BlockSpec>,
    nn_input: Vec<f32>,
    scratch: NnScratch,
    /// Multiply-accumulates of one block through encoder plus decoder.
    macs_per_block: f64,
    /// A copy of the model for the training step (its caches churn).
    train_model: ConvAutoencoder,
    aesz: AeSz,
    lorenzo_only: AeSz,
    request: Request,
    request_body: Vec<u8>,
}

impl Probes {
    pub fn new(setup: ProbeSetup<'_>) -> Probes {
        let slab = leading_slab(setup.field, setup.probe_elems);
        let (lo, hi) = slab.min_max();
        let range = hi - lo;
        let bs = setup.nn_model.config().block_size;
        let nn_specs: Vec<BlockSpec> = slab.blocks(bs).collect();
        let nn_input: Vec<f32> = nn_specs
            .iter()
            .flat_map(|spec| slab.extract_block(spec).data)
            .map(|v| {
                if range > 0.0 {
                    2.0 * (v - lo) / range - 1.0
                } else {
                    0.0
                }
            })
            .collect();
        let sz2_blocks: Vec<(BlockSpec, Vec<f32>)> = slab
            .blocks(SZ2_BLOCK)
            .map(|spec| {
                let values = slab.read_block_valid(&spec);
                (spec, values)
            })
            .collect();
        let mut lorenzo_only = setup.aesz.clone();
        lorenzo_only.set_policy(PredictorPolicy::LorenzoOnly);
        let request = Request::Compress {
            codec: setup.codec,
            bound: setup.bound,
            field: slab.clone(),
        };
        let request_body = request.encode()[HEADER_LEN..].to_vec();
        let server_registry = registry_with(&[setup
            .registry
            .get(setup.codec)
            .expect("the workload's codec is registered")]);
        Probes {
            abs_eb: setup.bound.resolve(&slab),
            coeffs: vec![RegressionCoeffs::default(); sz2_blocks.len()],
            macs_per_block: macs_per_block(&setup.nn_model),
            train_model: setup.nn_model.clone(),
            output: setup.output.to_vec(),
            codec: setup.codec,
            bound: setup.bound,
            registry: setup.registry,
            state: ServerState::new(
                ServerConfig::default(),
                SharedRegistry::new(server_registry),
            ),
            sz2_blocks,
            model: setup.nn_model,
            batch: setup.nn_batch,
            nn_specs,
            nn_input,
            scratch: NnScratch::new(),
            aesz: setup.aesz,
            lorenzo_only,
            request,
            request_body,
            slab,
        }
    }

    /// One probe iteration over every layer.
    pub fn run(&mut self, tr: &mut Tracer) -> Result<(), String> {
        tr.next_op();
        group(tr, "probe.tensor", |tr| {
            self.tensor(tr);
            Ok(())
        })?;
        group(tr, "probe.sz2_replay", |tr| self.sz2_replay(tr))?;
        let latents = group(tr, "probe.nn", |tr| self.nn(tr))?;
        group(tr, "probe.core", |tr| self.core(tr, &latents))?;
        group(tr, "probe.wire", |tr| self.wire(tr))?;
        group(tr, "probe.server", |tr| self.server(tr))
    }

    fn tensor(&self, tr: &mut Tracer) {
        tr.span("tensor.block_extract_ms", || {
            for spec in &self.nn_specs {
                black_box(self.slab.extract_block(spec));
            }
        });
    }

    /// SZ2.1's per-block loop (`Sz2::compress_payload` / `decompress_payload`)
    /// stage by stage: predictor selection, quantization, Huffman, zlite, and
    /// back.
    fn sz2_replay(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let quantizer = Quantizer::new(self.abs_eb, DEFAULT_QUANT_BINS);
        let n = self.slab.len();
        let blocks = &self.sz2_blocks;
        let coeffs = &mut self.coeffs;
        let use_regression: Vec<bool> = tr.span("predictors.select_ms", || {
            blocks
                .iter()
                .zip(coeffs.iter_mut())
                .map(|((spec, valid), fit)| {
                    let lorenzo_loss = lorenzo::l1_loss(valid, &spec.size);
                    regression::fit_into(valid, &spec.size, fit);
                    let reg_loss = regression::l1_loss_with(fit, valid, &spec.size);
                    reg_loss < lorenzo_loss && spec.valid_len() > spec.size.len() + 1
                })
                .collect()
        });
        let coeffs = &self.coeffs;
        let (codes, unpredictable) = tr.span("predictors.quantize_ms", || {
            let (mut codes, mut unpredictable) = (Vec::with_capacity(n), Vec::new());
            let (mut c, mut u, mut r) = (Vec::new(), Vec::new(), Vec::new());
            for (((spec, valid), fit), &reg) in blocks.iter().zip(coeffs).zip(&use_regression) {
                if reg {
                    regression::compress_with_coeffs_into(
                        fit, valid, &spec.size, &quantizer, &mut c, &mut u, &mut r,
                    );
                } else {
                    lorenzo::compress_into(valid, &spec.size, &quantizer, &mut c, &mut u, &mut r);
                }
                codes.extend_from_slice(&c);
                unpredictable.extend_from_slice(&u);
            }
            (codes, unpredictable)
        });
        let huff = tr.span("codec.huffman_encode_ms", || huffman_encode(&codes));
        let packed = tr.span("codec.zlite_compress_ms", || zlite_compress(&huff));
        let unpacked = tr.span("codec.zlite_decompress_ms", || {
            zlite_decompress_capped(&packed, huff.len())
        });
        let decoded = tr.span("codec.huffman_decode_ms", || {
            unpacked
                .as_deref()
                .and_then(|h| huffman_decode_capped(h, n))
        });
        if unpacked.as_ref() != Some(&huff) || decoded.as_ref() != Some(&codes) {
            return Err("SZ2.1 replay: Huffman + zlite did not round-trip".into());
        }
        let recon = tr.span("predictors.reconstruct_ms", || {
            let mut recon = Vec::with_capacity(n);
            let (mut at_code, mut at_escape, mut out) = (0usize, 0usize, Vec::new());
            for (((spec, _), fit), &reg) in blocks.iter().zip(coeffs).zip(&use_regression) {
                let block_codes = &codes[at_code..at_code + spec.valid_len()];
                let escapes = block_codes.iter().filter(|&&c| c == 0).count();
                let block_escapes = &unpredictable[at_escape..at_escape + escapes];
                at_code += block_codes.len();
                at_escape += escapes;
                if reg {
                    regression::decompress_into(
                        fit,
                        block_codes,
                        block_escapes,
                        &spec.size,
                        &quantizer,
                        &mut out,
                    );
                } else {
                    lorenzo::decompress_into(
                        block_codes,
                        block_escapes,
                        &spec.size,
                        &quantizer,
                        &mut out,
                    );
                }
                recon.extend_from_slice(&out);
            }
            recon
        });
        let original = blocks.iter().flat_map(|(_, v)| v.iter());
        if original
            .zip(&recon)
            .any(|(&a, &b)| (f64::from(a) - f64::from(b)).abs() > self.abs_eb * 1.0001)
        {
            return Err("SZ2.1 replay: reconstruction exceeds the bound".into());
        }
        tr.count(
            "predictors.escape_frac",
            unpredictable.len() as f64 / n as f64,
        );
        tr.count("codec.bits_per_code", 8.0 * huff.len() as f64 / n as f64);
        tr.count("codec.zlite_gain", huff.len() as f64 / packed.len() as f64);
        Ok(())
    }

    /// Encoder and decoder over every block of the slab, the per-layer-kind
    /// breakdown on one mini-batch, and one training step. Returns the
    /// latents.
    fn nn(&mut self, tr: &mut Tracer) -> Result<Vec<f32>, String> {
        let cfg = self.model.config().clone();
        let (block_len, latent_dim) = (cfg.block_len(), cfg.latent_dim);
        let n_blocks = self.nn_specs.len();
        let (model, input, batch, scratch) =
            (&self.model, &self.nn_input, self.batch, &mut self.scratch);
        let mut out = Vec::new();
        let (latents, enc_s) = tr.timed("nn.encode_ms", || {
            let mut latents = Vec::with_capacity(n_blocks * latent_dim);
            for chunk in input.chunks(batch * block_len) {
                model.encode_blocks_into(chunk, chunk.len() / block_len, &mut out, scratch)?;
                latents.extend_from_slice(&out);
            }
            Ok::<_, aesz_repro::nn::NnError>(latents)
        });
        let latents = latents.map_err(|e| e.to_string())?;
        let (decoded, dec_s) = tr.timed("nn.decode_ms", || {
            let mut decoded = Vec::with_capacity(n_blocks * block_len);
            for chunk in latents.chunks(batch * latent_dim) {
                model.decode_latents_into(chunk, chunk.len() / latent_dim, &mut out, scratch)?;
                decoded.extend_from_slice(&out);
            }
            Ok::<_, aesz_repro::nn::NnError>(decoded)
        });
        let decoded = decoded.map_err(|e| e.to_string())?;
        if decoded.len() != input.len() || !decoded.iter().all(|v| v.is_finite()) {
            return Err("NN probe: decoder output is malformed".into());
        }
        tr.count(
            "nn.gmac_per_s",
            self.macs_per_block * n_blocks as f64 / (enc_s + dec_s) / 1e9,
        );

        // Per-layer breakdown on one mini-batch through warm scratch.
        let k = n_blocks.min(LAYER_BATCH);
        let stacks = [
            (
                model.encoder_layers(),
                &input[..k * block_len],
                Shape::new(&model.input_shape(k)),
            ),
            (
                model.decoder_layers(),
                &latents[..k * latent_dim],
                Shape::new(&[k, latent_dim]),
            ),
        ];
        for (stack, stack_input, mut shape) in stacks {
            let mut cur = stack_input.to_vec();
            for layer in stack.layers() {
                let name = match layer.name() {
                    "ConvNd" => "nn.layer.conv_ms",
                    "GDN" | "iGDN" => "nn.layer.gdn_ms",
                    "Dense" => "nn.layer.dense_ms",
                    "Upsample" => "nn.layer.upsample_ms",
                    _ => "nn.layer.other_ms",
                };
                let warm = layer.infer_into(&cur, shape, &mut out, scratch);
                warm.map_err(|e| e.to_string())?;
                let next = tr.reps(name, LAYER_REPS, || {
                    let mut next = Ok(shape);
                    for _ in 0..LAYER_REPS {
                        next = layer.infer_into(&cur, shape, &mut out, scratch);
                    }
                    next
                });
                shape = next.map_err(|e| e.to_string())?;
                std::mem::swap(&mut cur, &mut out);
            }
        }

        // One training step (forward, then backward through decoder and
        // encoder) on the same mini-batch.
        let train = &mut self.train_model;
        let x = Tensor::from_vec(&train.input_shape(k), input[..k * block_len].to_vec())
            .map_err(|e| e.to_string())?;
        let recon = tr.span("nn.train_forward_ms", || {
            let z = train.encode(&x);
            train.decode(&z)
        });
        let grad = recon
            .sub(&x)
            .map_err(|e| e.to_string())?
            .scale(2.0 / recon.len() as f32);
        tr.span("nn.train_backward_ms", || {
            let grad_latent = train.decoder_backward(&grad);
            black_box(train.encoder_backward(&grad_latent));
        });
        Ok(latents)
    }

    /// AE-SZ on the slab — adaptive, single-threaded, and Lorenzo-only — and
    /// its latent codec on the NN probe's latents.
    fn core(&mut self, tr: &mut Tracer, latents: &[f32]) -> Result<(), String> {
        let (slab, bound) = (&self.slab, self.bound);
        let aesz = &mut self.aesz;
        let (stream, report) = tr
            .span("core.compress_ms", || {
                aesz.compress_with_report(slab, bound)
            })
            .map_err(|e| e.to_string())?;
        let (serial, _) = tr
            .span("core.serial_compress_ms", || {
                aesz.compress_with_report_serial(slab, bound)
            })
            .map_err(|e| e.to_string())?;
        if serial != stream {
            return Err("AE-SZ serial and parallel streams differ".into());
        }
        let lorenzo_only = &mut self.lorenzo_only;
        tr.span("core.lorenzo_only_compress_ms", || {
            lorenzo_only.compress_with_report(slab, bound)
        })
        .map_err(|e| e.to_string())?;
        // AE-SZ's latent bound: a fraction of the normalised-domain bound.
        let latent_dim = self.model.config().latent_dim;
        let (lo, hi) = slab.min_max();
        let rel_eb = bound.to_range_rel(lo, hi).value();
        let latent_eb = AeSzConfig::default().latent_eb_fraction * 2.0 * rel_eb;
        tr.span("core.latent_codec_ms", || {
            let codec = LatentCodec::new(latent_eb);
            let indices: Vec<i64> = latents
                .chunks(latent_dim)
                .flat_map(|z| codec.quantize(z))
                .collect();
            black_box(codec.encode(&indices, latent_dim));
        });
        tr.count("core.ae_block_frac", report.ae_fraction());
        tr.count("core.latent_bytes", report.latent_bytes as f64);
        tr.count("core.codes_bytes", report.codes_bytes as f64);
        tr.count(
            "core.unpredictable_bytes",
            report.unpredictable_bytes as f64,
        );
        Ok(())
    }

    /// The wire formats: the push parser over the workload's compressed
    /// bytes, and the AESP request codec.
    fn wire(&self, tr: &mut Tracer) -> Result<(), String> {
        let output = &self.output;
        let peak = tr.span("metrics.stream_parse_ms", || {
            let mut parser = StreamDecoder::new();
            for packet in output.chunks(PACKET) {
                parser.feed(packet);
                while parser.poll()?.is_some() {}
            }
            parser.finish();
            while parser.poll()?.is_some() {}
            Ok::<_, aesz_repro::DecompressError>((parser.is_done(), parser.peak_buffered()))
        });
        match peak {
            Ok((true, peak)) => tr.count("metrics.stream_peak_buffered_bytes", peak as f64),
            Ok((false, _)) => return Err("stream parser did not reach the end".into()),
            Err(e) => return Err(format!("stream parser: {e}")),
        }
        let request = &self.request;
        let message = tr.span("metrics.request_encode_ms", || request.encode());
        let decoded = tr.span("metrics.request_decode_ms", || {
            decode_request(&message, &Limits::default())
        });
        match decoded {
            Ok((Request::Compress { field, .. }, used))
                if used == message.len() && field.as_slice() == self.slab.as_slice() =>
            {
                Ok(())
            }
            _ => Err("AESP request did not round-trip".into()),
        }
    }

    /// Registry forks, and the daemon's request handler without a socket
    /// against the bare codec call it wraps.
    fn server(&self, tr: &mut Tracer) -> Result<(), String> {
        const FORKS: u32 = 16;
        let (registry, codec) = (&self.registry, self.codec);
        tr.reps("registry.fork_ms", FORKS, || {
            for _ in 0..FORKS {
                black_box(registry.fork(codec));
            }
        });
        let (state, body) = (&self.state, &self.request_body);
        let stream = match tr.span("server.handler_compress_ms", || {
            handle_buffered(state, None, MsgType::Compress, body)
        }) {
            Response::CompressOk { stream } => stream,
            other => return Err(format!("handler compress answered {:?}", other.msg_type())),
        };
        match tr.span("server.handler_decompress_ms", || {
            handle_buffered(state, None, MsgType::Decompress, &stream)
        }) {
            Response::DecompressOk { field } if field.dims() == self.slab.dims() => {}
            other => {
                return Err(format!(
                    "handler decompress answered {:?}",
                    other.msg_type()
                ))
            }
        }
        let (slab, bound) = (&self.slab, self.bound);
        let direct = tr.span("server.codec_compress_ms", || {
            registry.fork(codec).map(|mut c| c.compress(slab, bound))
        });
        match direct {
            Some(Ok(bytes)) if bytes == stream => Ok(()),
            _ => Err("handler and direct compress disagree".into()),
        }
    }
}

/// Run `f` inside a grouping span (its self time is the probe's own glue).
fn group<T>(
    tr: &mut Tracer,
    name: &str,
    f: impl FnOnce(&mut Tracer) -> Result<T, String>,
) -> Result<T, String> {
    tr.enter(name);
    let out = f(tr);
    tr.exit();
    out
}

/// Multiply-accumulates of one block through `model`, computed (not
/// measured) from each layer's parameter count and output shape: a layer
/// with `p` parameters producing `c` channels of `s` positions does `p·s`
/// MACs (convolutions, GDN, and dense layers alike; bias terms included).
fn macs_per_block(model: &ConvAutoencoder) -> f64 {
    let cfg = model.config();
    let mut scratch = NnScratch::new();
    let mut total = 0.0;
    let stacks = [
        (
            model.encoder_layers(),
            cfg.block_len(),
            Shape::new(&model.input_shape(1)),
        ),
        (
            model.decoder_layers(),
            cfg.latent_dim,
            Shape::new(&[1, cfg.latent_dim]),
        ),
    ];
    for (stack, len, mut shape) in stacks {
        let mut cur = vec![0.0f32; len];
        let mut out = Vec::new();
        for layer in stack.layers() {
            shape = layer
                .infer_into(&cur, shape, &mut out, &mut scratch)
                .expect("one block fits the model");
            let positions = shape.len() / shape.dims().get(1).copied().unwrap_or(1).max(1);
            total += (layer.num_params() * positions) as f64;
            std::mem::swap(&mut cur, &mut out);
        }
    }
    total
}
