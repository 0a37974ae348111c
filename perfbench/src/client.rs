//! The timed-phase connection: the real [`PrividClient`] in untraced runs,
//! and in traced runs a client that makes the same four calls
//! `PrividClient::call` makes (`Request::encode`, `net::write_frame`,
//! `net::read_frame`, `Response::decode`) with a span around each.

use crate::trace::{Span, Tracer, NONE};
use privid::server::net::{read_frame, write_frame, ReadFrame};
use privid::server::{ClientError, PrividClient};
use privid::wire::{Request, Response, WalkerSpec, WirePoll, HEADER_LEN, MAX_PAYLOAD};
use privid::QueryResult;
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// One connection of the timed phase.
pub enum Client {
    /// The library client, untouched.
    Plain(PrividClient),
    /// The span-recording client.
    Traced(TracedClient),
}

impl Client {
    /// Connect and authenticate; traced when a tracer is given.
    pub fn connect(
        addr: &str,
        token: &str,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Client, ClientError> {
        match tracer {
            None => PrividClient::connect(addr, token).map(Client::Plain),
            Some(tracer) => {
                TracedClient::connect(addr, token, Arc::clone(tracer)).map(Client::Traced)
            }
        }
    }

    /// `SubmitQuery`.
    pub fn submit_query(&mut self, seed: u64, text: &str) -> Result<QueryResult, ClientError> {
        match self {
            Client::Plain(c) => c.submit_query(seed, text),
            Client::Traced(c) => match c.call("rpc.query", &Request::SubmitQuery { seed, text })? {
                Response::QueryOk(result) => Ok(result),
                _ => Err(ClientError::UnexpectedResponse("QueryOk")),
            },
        }
    }

    /// `AppendFrames`: the new live edge and how many standing windows fired.
    pub fn append_frames(
        &mut self,
        camera: &str,
        duration_secs: f64,
        walkers: Vec<WalkerSpec>,
    ) -> Result<(f64, u64), ClientError> {
        match self {
            Client::Plain(c) => c.append_frames(camera, duration_secs, walkers),
            Client::Traced(c) => match c.call(
                "rpc.append",
                &Request::AppendFrames {
                    camera,
                    duration_secs,
                    walkers,
                },
            )? {
                Response::AppendOk {
                    live_edge_secs,
                    standing_fired,
                } => Ok((live_edge_secs, standing_fired)),
                _ => Err(ClientError::UnexpectedResponse("AppendOk")),
            },
        }
    }

    /// `StreamFirings` (long poll).
    pub fn stream_firings(
        &mut self,
        name: &str,
        cursor: u64,
        max_wait_ms: u32,
    ) -> Result<WirePoll, ClientError> {
        match self {
            Client::Plain(c) => c.stream_firings(name, cursor, max_wait_ms),
            Client::Traced(c) => match c.call(
                "rpc.poll",
                &Request::StreamFirings {
                    name,
                    cursor,
                    max_wait_ms,
                },
            )? {
                Response::PollOk(poll) => Ok(poll),
                _ => Err(ClientError::UnexpectedResponse("PollOk")),
            },
        }
    }

    /// The spans this connection recorded (empty when untraced).
    pub fn into_spans(self) -> Vec<Span> {
        match self {
            Client::Plain(_) => Vec::new(),
            Client::Traced(c) => c.spans,
        }
    }
}

/// A blocking client that records `rpc.*` request spans with `wire.encode`,
/// `wire.write`, `wire.read` and `wire.decode` children.
pub struct TracedClient {
    stream: TcpStream,
    /// Never raised, as in `PrividClient`: `read_frame` keeps waiting
    /// through socket timeouts until a frame arrives.
    flag: AtomicBool,
    tracer: Arc<Tracer>,
    spans: Vec<Span>,
}

impl TracedClient {
    /// Connect and authenticate, as `PrividClient::connect` does.
    pub fn connect(
        addr: &str,
        token: &str,
        tracer: Arc<Tracer>,
    ) -> Result<TracedClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(100)))?;
        let mut client = TracedClient {
            stream,
            flag: AtomicBool::new(false),
            tracer,
            spans: Vec::new(),
        };
        match client.call("rpc.hello", &Request::Hello { token })? {
            Response::HelloOk { .. } => Ok(client),
            _ => Err(ClientError::UnexpectedResponse("HelloOk")),
        }
    }

    fn child(&mut self, name: &'static str, parent: usize, start: u64, bytes: u64) -> u64 {
        let end = self.tracer.now();
        let request = self.spans[parent].request;
        self.spans.push(Span {
            name,
            start,
            end,
            parent: parent as u64,
            request,
            bytes,
        });
        end
    }

    /// One round trip, spanned.
    fn call(&mut self, rpc: &'static str, request: &Request<'_>) -> Result<Response, ClientError> {
        let root = self.spans.len();
        let t0 = self.tracer.now();
        let id = self.tracer.next_request();
        self.spans.push(Span {
            name: rpc,
            start: t0,
            end: t0,
            parent: NONE,
            request: id,
            bytes: 0,
        });

        let mut frame = Vec::new();
        request.encode(&mut frame)?;
        let t1 = self.child("wire.encode", root, t0, frame.len() as u64);
        write_frame(&mut self.stream, &frame)?;
        let t2 = self.child("wire.write", root, t1, frame.len() as u64);
        let read = read_frame(&mut self.stream, &self.flag, MAX_PAYLOAD)?;
        let ReadFrame::Frame(op, payload) = read else {
            return Err(ClientError::ConnectionClosed);
        };
        let t3 = self.child("wire.read", root, t2, (HEADER_LEN + payload.len()) as u64);
        let response = Response::decode(op, &payload)?;
        let t4 = self.child("wire.decode", root, t3, 0);
        self.spans[root].end = t4;
        match response {
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Ok(other),
        }
    }
}
