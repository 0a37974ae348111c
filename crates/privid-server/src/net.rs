//! Blocking frame I/O over a `TcpStream`.
//!
//! `privid-wire` is sans-IO; this module is the thin blocking driver the
//! threaded server and client share. Reads block until bytes arrive. A
//! server shutting down reaches a connection idle mid-read by shutting down
//! the socket's read side: the blocked read returns end-of-file, and because
//! the shutdown flag is raised first, the read reports
//! [`ReadFrame::Shutdown`] rather than the peer closing. A read timeout set
//! by the caller is tolerated: a timed-out read is retried.

use privid_wire::{decode_header, WireError, HEADER_LEN};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The socket failed.
    Io(io::Error),
    /// The bytes failed to frame (bad magic, bad version, oversized length).
    /// The stream is no longer self-synchronizing; the connection must close.
    Wire(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::Wire(e) => write!(f, "framing error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// Outcome of a frame read.
#[derive(Debug)]
pub enum ReadFrame {
    /// A complete frame: opcode and payload.
    Frame(u8, Vec<u8>),
    /// The peer closed cleanly between frames.
    Eof,
    /// The shutdown flag was raised while waiting.
    Shutdown,
}

/// Fill `buf` completely, tolerating read timeouts. Returns `false` when the
/// peer closed before the first byte (clean EOF) — mid-buffer EOF is an
/// `UnexpectedEof` error. When `shutdown` is raised before a read or by the
/// time one returns end-of-file, returns an `Interrupted` error the caller
/// maps to [`ReadFrame::Shutdown`].
fn read_full(stream: &mut TcpStream, buf: &mut [u8], shutdown: &AtomicBool) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        if shutdown.load(Ordering::Relaxed) {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "server shutting down"));
        }
        let Some(rest) = buf.get_mut(filled..) else {
            return Ok(true);
        };
        match stream.read(rest) {
            Ok(0) => {
                // A server raises the flag before it shuts the read side
                // down, and the socket shutdown that ends this read is
                // ordered after that store by the kernel's socket lock.
                if shutdown.load(Ordering::Relaxed) {
                    return Err(io::Error::new(io::ErrorKind::Interrupted, "server shutting down"));
                }
                if filled == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-frame"));
            }
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read one complete frame: header, validation, payload.
///
/// `max_payload` tightens (never loosens) the protocol's own frame cap for
/// this read — the server passes a few-KiB limit until a connection has
/// authenticated, so an anonymous peer cannot make one length prefix size a
/// 16 MiB allocation. Pass [`privid_wire::MAX_PAYLOAD`] for the full cap.
pub fn read_frame(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
    max_payload: u32,
) -> Result<ReadFrame, FrameError> {
    let mut raw = [0u8; HEADER_LEN];
    match read_full(stream, &mut raw, shutdown) {
        Ok(true) => {}
        Ok(false) => return Ok(ReadFrame::Eof),
        Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(ReadFrame::Shutdown),
        Err(e) => return Err(e.into()),
    }
    let header = decode_header(&raw)?;
    if header.len > max_payload {
        return Err(WireError::FrameTooLarge { len: header.len, max: max_payload }.into());
    }
    let mut payload = vec![0u8; header.len as usize];
    match read_full(stream, &mut payload, shutdown) {
        Ok(true) => Ok(ReadFrame::Frame(header.opcode, payload)),
        Ok(false) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-frame").into()),
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(ReadFrame::Shutdown),
        Err(e) => Err(e.into()),
    }
}

/// Write one already-encoded frame.
pub fn write_frame(stream: &mut TcpStream, frame: &[u8]) -> io::Result<()> {
    stream.write_all(frame)?;
    stream.flush()
}
