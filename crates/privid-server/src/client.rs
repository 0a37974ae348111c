//! The blocking client for the wire protocol.
//!
//! One TCP connection, strictly request → response. Remote failures come
//! back as [`ClientError::Remote`] carrying the stable error code, the
//! server-computed retryability bit and the rendered message — enough for a
//! caller (or the differential harness) to distinguish a quota refusal
//! (code 8, nothing debited) from a budget refusal (code 7) from a parse
//! error without ever seeing the server's internals.

use crate::net::{read_frame, write_frame, FrameError, ReadFrame};
use privid_core::QueryResult;
use privid_wire::{RemoteError, Request, Response, SceneKind, WalkerSpec, WireError, WirePoll, MAX_PAYLOAD};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(io::Error),
    /// The server's bytes failed to decode.
    Wire(WireError),
    /// The server processed the request and refused it.
    Remote(RemoteError),
    /// The server answered with a well-formed response of the wrong kind.
    UnexpectedResponse(&'static str),
    /// The server closed the connection mid-conversation.
    ConnectionClosed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Remote(e) => write!(f, "{e}"),
            ClientError::UnexpectedResponse(what) => write!(f, "unexpected response kind, wanted {what}"),
            ClientError::ConnectionClosed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Wire(e) => ClientError::Wire(e),
        }
    }
}

impl ClientError {
    /// The remote error code, if this is a remote refusal.
    pub fn remote_code(&self) -> Option<u16> {
        match self {
            ClientError::Remote(e) => Some(e.code),
            _ => None,
        }
    }
}

/// A connected, authenticated client.
#[derive(Debug)]
pub struct PrividClient {
    stream: TcpStream,
    /// Never raised; the client has no server-side shutdown flag to honour.
    local_flag: AtomicBool,
    /// The tenant the server authenticated us as.
    tenant: String,
}

impl PrividClient {
    /// Connect and authenticate. Fails with the server's typed refusal on a
    /// bad token.
    pub fn connect(addr: &str, token: &str) -> Result<PrividClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client =
            PrividClient { stream, local_flag: AtomicBool::new(false), tenant: String::new() };
        match client.call(&Request::Hello { token })? {
            Response::HelloOk { tenant } => {
                client.tenant = tenant;
                Ok(client)
            }
            other => Err(unexpected(other, "HelloOk")),
        }
    }

    /// The tenant this connection authenticated as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// One request → response round trip.
    fn call(&mut self, request: &Request<'_>) -> Result<Response, ClientError> {
        let mut frame = Vec::new();
        request.encode(&mut frame)?;
        write_frame(&mut self.stream, &frame)?;
        match read_frame(&mut self.stream, &self.local_flag, MAX_PAYLOAD)? {
            ReadFrame::Frame(op, payload) => {
                let response = Response::decode(op, &payload)?;
                if let Response::Error(e) = response {
                    return Err(ClientError::Remote(e));
                }
                Ok(response)
            }
            ReadFrame::Eof | ReadFrame::Shutdown => Err(ClientError::ConnectionClosed),
        }
    }

    /// Register a deterministic synthetic camera (owner plane).
    #[allow(clippy::too_many_arguments)]
    pub fn register_camera(
        &mut self,
        name: &str,
        kind: SceneKind,
        duration_secs: f64,
        seed: u64,
        rho_secs: f64,
        k: u32,
        epsilon: f64,
    ) -> Result<(), ClientError> {
        match self.call(&Request::RegisterCamera { name, kind, duration_secs, seed, rho_secs, k, epsilon })? {
            Response::Done => Ok(()),
            other => Err(unexpected(other, "Done")),
        }
    }

    /// Register a live camera (owner plane).
    #[allow(clippy::too_many_arguments)]
    pub fn register_live_camera(
        &mut self,
        name: &str,
        fps: f64,
        width: u32,
        height: u32,
        rho_secs: f64,
        k: u32,
        epsilon: f64,
    ) -> Result<(), ClientError> {
        match self.call(&Request::RegisterLiveCamera { name, fps, width, height, rho_secs, k, epsilon })? {
            Response::Done => Ok(()),
            other => Err(unexpected(other, "Done")),
        }
    }

    /// Append footage to a live camera (owner plane). Returns the new live
    /// edge and how many standing windows fired.
    pub fn append_frames(
        &mut self,
        camera: &str,
        duration_secs: f64,
        walkers: Vec<WalkerSpec>,
    ) -> Result<(f64, u64), ClientError> {
        match self.call(&Request::AppendFrames { camera, duration_secs, walkers })? {
            Response::AppendOk { live_edge_secs, standing_fired } => Ok((live_edge_secs, standing_fired)),
            other => Err(unexpected(other, "AppendOk")),
        }
    }

    /// Submit a one-shot query. The releases come back **bit-for-bit** equal
    /// to what the same `(seed, text)` produces in-process.
    pub fn submit_query(&mut self, seed: u64, text: &str) -> Result<QueryResult, ClientError> {
        match self.call(&Request::SubmitQuery { seed, text })? {
            Response::QueryOk(result) => Ok(result),
            other => Err(unexpected(other, "QueryOk")),
        }
    }

    /// Register a standing query; returns windows fired on registration.
    pub fn register_standing(&mut self, name: &str, base_seed: u64, text: &str) -> Result<u64, ClientError> {
        match self.call(&Request::RegisterStanding { name, base_seed, text })? {
            Response::StandingOk { fired } => Ok(fired),
            other => Err(unexpected(other, "StandingOk")),
        }
    }

    /// Poll a standing query's firings past `cursor`.
    pub fn poll_standing(&mut self, name: &str, cursor: u64) -> Result<WirePoll, ClientError> {
        match self.call(&Request::PollStanding { name, cursor })? {
            Response::PollOk(poll) => Ok(poll),
            other => Err(unexpected(other, "PollOk")),
        }
    }

    /// Long-poll: block server-side until a firing past `cursor` exists or
    /// `max_wait_ms` elapses. The server clamps the wait to its own ceiling
    /// (30 s — see PROTOCOL.md); to wait longer, re-issue with the same
    /// cursor when an empty poll returns.
    pub fn stream_firings(&mut self, name: &str, cursor: u64, max_wait_ms: u32) -> Result<WirePoll, ClientError> {
        match self.call(&Request::StreamFirings { name, cursor, max_wait_ms })? {
            Response::PollOk(poll) => Ok(poll),
            other => Err(unexpected(other, "PollOk")),
        }
    }

    /// A camera's minimum remaining ε at a timestamp (`None`: unknown camera
    /// or instant outside its recording).
    pub fn remaining_budget(&mut self, camera: &str, at_secs: f64) -> Result<Option<f64>, ClientError> {
        match self.call(&Request::RemainingBudget { camera, at_secs })? {
            Response::BudgetOk { remaining } => Ok(remaining),
            other => Err(unexpected(other, "BudgetOk")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self, nonce: u64) -> Result<(), ClientError> {
        match self.call(&Request::Ping { nonce })? {
            Response::Pong { nonce: echoed } if echoed == nonce => Ok(()),
            Response::Pong { .. } => Err(ClientError::UnexpectedResponse("matching Pong nonce")),
            other => Err(unexpected(other, "Pong")),
        }
    }
}

fn unexpected(response: Response, wanted: &'static str) -> ClientError {
    // The Error variant was already routed to ClientError::Remote in call().
    debug_assert!(!matches!(response, Response::Error(_)));
    ClientError::UnexpectedResponse(wanted)
}
