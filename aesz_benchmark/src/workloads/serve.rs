//! `serve`: an in-process daemon on loopback under two closed-loop
//! `RemoteClient` connections (one per core), each alternating Compress
//! (ZFP and SZ2.1 in turn) and Decompress requests on small CESM fields.
//! Every reply is checked byte for byte against the local `Registry` path.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use aesz_repro::datagen::Application;
use aesz_repro::metrics::protocol::{Request, Response};
use aesz_repro::{CodecId, ErrorBound, Field, Registry};
use aesz_server::{RemoteClient, Server, ServerConfig, ServerHandle, ServerState};

use super::{check_bound, psnr, rotated, same_bits, Measured, Quality, Scale, Workload};
use crate::probes::{default_aesz, ProbeSetup, Probes, AESZ_BATCH};
use crate::trace::Tracer;

const CODECS: [CodecId; 2] = [CodecId::Zfp, CodecId::Sz2];
/// Client connections and server workers: the core count of the 2-core
/// reference machine, fixed so runs on other machines offer the same load.
const CONNECTIONS: usize = 2;

/// Datagen snapshot of the first served field.
const SERVE_SNAPSHOT: u64 = 100;

pub struct ServeBench {
    addr: String,
    handle: ServerHandle,
    runner: Option<JoinHandle<std::io::Result<()>>>,
    state: Arc<ServerState>,
    fields: Vec<Field>,
    /// Per field, per codec of `CODECS`: the local stream and its decode.
    refs: Vec<[(Vec<u8>, Field); 2]>,
    bound: ErrorBound,
    probe_elems: usize,
    probes: Option<Probes>,
}

impl ServeBench {
    pub fn new(seed: u64, scale: &Scale) -> ServeBench {
        let bound = ErrorBound::rel(1e-3);
        let fields: Vec<Field> = (0..scale.serve_fields)
            .map(|i| {
                let field =
                    Application::CesmCldhgh.generate(scale.serve, SERVE_SNAPSHOT + i as u64);
                rotated(&field, seed, 3 + i as u64)
            })
            .collect();
        let registry = Registry::with_defaults();
        let refs = fields
            .iter()
            .map(|field| {
                CODECS.map(|id| {
                    let mut codec = registry.fork(id).expect("default codecs are registered");
                    let stream = codec.compress(field, bound).expect("local compress");
                    let recon = codec.decompress(&stream).expect("local decompress");
                    (stream, recon)
                })
            })
            .collect();
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: CONNECTIONS,
            ..ServerConfig::default()
        })
        .expect("bind a loopback port");
        let handle = server.handle().expect("bound address");
        let state = server.state();
        let runner = std::thread::spawn(move || server.run());
        ServeBench {
            addr: handle.addr().to_string(),
            handle,
            runner: Some(runner),
            state,
            fields,
            refs,
            bound,
            probe_elems: scale.probe_elems,
            probes: None,
        }
    }

    /// One closed-loop client: Compress then Decompress per round until
    /// both `min_rounds` rounds and `seconds` have passed.
    fn client(&self, conn: usize, seconds: f64, min_rounds: usize) -> Result<Measured, String> {
        let mut m = Measured::default();
        let mut client: Option<RemoteClient> = None;
        let start = Instant::now();
        let mut round = 0;
        while round < min_rounds || start.elapsed().as_secs_f64() < seconds {
            let (f, k) = ((conn + round) % self.fields.len(), round % CODECS.len());
            let request = Request::Compress {
                codec: CODECS[k],
                bound: self.bound,
                field: self.fields[f].clone(),
            };
            match self.call(&mut client, &request, &mut m, false) {
                Some(Response::CompressOk { stream }) if stream == self.refs[f][k].0 => {}
                Some(_) => {
                    return Err(format!(
                        "serve: remote {:?} stream differs from the local one",
                        CODECS[k]
                    ));
                }
                None => {}
            }
            let g = (f + 1) % self.fields.len();
            let request = Request::Decompress {
                bytes: self.refs[g][k].0.clone(),
            };
            match self.call(&mut client, &request, &mut m, true) {
                Some(Response::DecompressOk { field }) if same_bits(&field, &self.refs[g][k].1) => {
                }
                Some(_) => return Err("serve: remote decode differs from the local one".into()),
                None => {}
            }
            round += 1;
        }
        Ok(m)
    }

    /// Send one request, timing it on success. Transport errors, `Busy` and
    /// `Error` replies count as failed ops and drop the connection (the
    /// server closes it after those replies).
    fn call(
        &self,
        client: &mut Option<RemoteClient>,
        request: &Request,
        m: &mut Measured,
        decompress: bool,
    ) -> Option<Response> {
        m.attempted += 1;
        if client.is_none() {
            *client = RemoteClient::connect(&self.addr)
                .map_err(|e| eprintln!("serve: connect failed: {e}"))
                .ok();
        }
        let Some(c) = client.as_mut() else {
            m.failed += 1;
            return None;
        };
        let t0 = Instant::now();
        let reply = c.request(request);
        let dt = t0.elapsed().as_secs_f64();
        match reply {
            Ok(r @ (Response::CompressOk { .. } | Response::DecompressOk { .. })) => {
                if decompress {
                    m.decompress_s.push(dt);
                } else {
                    m.compress_s.push(dt);
                }
                Some(r)
            }
            Ok(r) => {
                eprintln!("serve: request refused with {:?}", r.msg_type());
                m.failed += 1;
                *client = None;
                None
            }
            Err(e) => {
                eprintln!("serve: request failed: {e}");
                m.failed += 1;
                *client = None;
                None
            }
        }
    }
}

impl Workload for ServeBench {
    fn warm_up(&mut self) -> Result<Quality, String> {
        let (mut raw, mut packed, mut psnr_sum) = (0usize, 0usize, 0.0);
        for (field, refs) in self.fields.iter().zip(&self.refs) {
            for (stream, recon) in refs {
                check_bound("serve", field, recon, self.bound.resolve(field))?;
                raw += field.len() * 4;
                packed += stream.len();
                psnr_sum += psnr(field, recon);
            }
        }
        // Each connection sends every codec once, so the workers' resident
        // codec forks are warm before timing.
        for conn in 0..CONNECTIONS {
            let m = self.client(conn, 0.0, CODECS.len())?;
            if m.failed > 0 {
                return Err("serve: warm-up requests failed".into());
            }
        }
        Ok(Quality {
            ratio: raw as f64 / packed as f64,
            psnr_db: psnr_sum / (self.fields.len() * CODECS.len()) as f64,
        })
    }

    fn measure(&mut self, seconds: f64, min_rounds: usize) -> Result<Measured, String> {
        let this = &*self;
        let start = Instant::now();
        let results: Vec<Result<Measured, String>> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CONNECTIONS)
                .map(|conn| s.spawn(move || this.client(conn, seconds, min_rounds)))
                .collect();
            clients
                .into_iter()
                .map(|c| {
                    c.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        let mut total = Measured {
            wall_s: start.elapsed().as_secs_f64(),
            ..Measured::default()
        };
        for m in results {
            let m = m?;
            total.compress_s.extend(m.compress_s);
            total.decompress_s.extend(m.decompress_s);
            total.attempted += m.attempted;
            total.failed += m.failed;
        }
        let stats = self.state.snapshot();
        if stats.errors > 0 || stats.busy_rejections > 0 {
            eprintln!(
                "serve: server counted {} errors, {} busy rejections",
                stats.errors, stats.busy_rejections
            );
        }
        Ok(total)
    }

    fn probe(&mut self, tr: &mut Tracer) -> Result<(), String> {
        if self.probes.is_none() {
            let aesz = default_aesz(self.fields[0].dims().rank());
            self.probes = Some(Probes::new(ProbeSetup {
                field: &self.fields[0],
                output: &self.refs[0][0].0,
                codec: CODECS[0],
                registry: Registry::with_defaults(),
                nn_model: aesz.model().clone(),
                nn_batch: AESZ_BATCH,
                aesz,
                bound: self.bound,
                probe_elems: self.probe_elems,
            }));
        }
        self.probes.as_mut().expect("built above").run(tr)
    }
}

impl Drop for ServeBench {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(runner) = self.runner.take() {
            if let Ok(Err(e)) = runner.join() {
                eprintln!("serve: accept loop ended with {e}");
            }
        }
    }
}
