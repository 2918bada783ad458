//! Blocking `AESP` client over a `TcpStream` — what `aesz remote` (and the
//! tests) speak to the daemon.
//!
//! The client side parses server bytes with the same hostile-input
//! discipline as the server parses client bytes: the declared response
//! length is capped before allocation and every malformed byte surfaces as
//! a typed [`ClientError`], never a panic — a compromised or confused
//! server cannot take the client down with it.

use std::io::{Read, Write};
use std::net::TcpStream;

use aesz_repro::metrics::protocol::{Limits, MsgHeader, Request, Response};
use aesz_repro::DecompressError;

/// Why a remote request failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (connect, send, or receive).
    Io(std::io::Error),
    /// The server's bytes violated the protocol.
    Protocol(DecompressError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol violation from server: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Protocol(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One connection to an `aesz serve` daemon. Requests are sequential
/// (send, then read the matching response); the connection stays usable
/// after success responses and is consumed by `Error`/`Busy` (the server
/// closes its end).
pub struct RemoteClient {
    stream: TcpStream,
    limits: Limits,
}

impl RemoteClient {
    /// Connect to `addr` (`host:port`) with default response limits.
    pub fn connect(addr: &str) -> std::io::Result<RemoteClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(RemoteClient {
            stream,
            limits: Limits::default(),
        })
    }

    /// Send one request and read its response.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let bytes = request.encode();
        self.stream.write_all(&bytes)?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        let mut header = [0u8; aesz_repro::metrics::protocol::HEADER_LEN];
        self.stream.read_exact(&mut header)?;
        let parsed = MsgHeader::parse(&header).map_err(ClientError::Protocol)?;
        if parsed.msg.is_request() {
            return Err(ClientError::Protocol(DecompressError::InvalidHeader(
                "request type where a response was expected",
            )));
        }
        if parsed.body_len > self.limits.max_body {
            // Capped before allocation, mirroring the server side.
            return Err(ClientError::Protocol(DecompressError::Unsupported(
                "response body exceeds the client limit",
            )));
        }
        let mut body = Vec::new();
        let got = Read::take(&mut self.stream, parsed.body_len).read_to_end(&mut body)?;
        if (got as u64) != parsed.body_len {
            return Err(ClientError::Protocol(DecompressError::Truncated(
                "response body",
            )));
        }
        Response::decode_body(parsed.msg, &body, self.limits.max_elems)
            .map_err(ClientError::Protocol)
    }
}
