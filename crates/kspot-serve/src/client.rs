//! A small blocking client for the KSpot wire protocol — used by the integration
//! tests, the benchmark's wire driver, and anyone scripting against a
//! [`crate::WireServer`].

use crate::proto::{
    decode_response, encode_request, extract_frame, ProtoError, Request, Response,
    DEFAULT_MAX_FRAME_BYTES,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A client-side protocol failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// The server sent bytes that do not decode as a response frame.
    Proto(ProtoError),
    /// The server closed the connection mid-exchange.
    Closed,
    /// The server answered with a frame the operation did not expect.
    Unexpected(Response),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Unexpected(resp) => write!(f, "unexpected response {resp:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// Everything one [`WireClient::poll`] returned: the answers plus the terminating
/// `Flushed` bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct PollOutcome {
    /// The `Answer` frames, in delivery order.
    pub answers: Vec<Response>,
    /// Answers delivered by this poll.
    pub delivered: u32,
    /// Results the server still holds (poll again to drain).
    pub pending: u32,
    /// Session status byte (see [`crate::proto::STATUS_ACTIVE`]).
    pub status: u8,
}

/// A blocking connection to a [`crate::WireServer`].
pub struct WireClient {
    stream: TcpStream,
    inbuf: Vec<u8>,
    /// How much of the front of `inbuf` earlier frames already consumed.
    consumed: usize,
    /// The `Welcome` frame received on connect.
    welcome: Response,
}

impl WireClient {
    /// Connects, applies a read timeout, and consumes the `Welcome` frame.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let mut client = Self { stream, inbuf: Vec::new(), consumed: 0, welcome: Response::Bye };
        let welcome = client.read_response()?;
        match welcome {
            Response::Welcome { .. } => {
                client.welcome = welcome;
                Ok(client)
            }
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// The `Welcome` frame received on connect.
    pub fn welcome(&self) -> &Response {
        &self.welcome
    }

    /// Sends one request frame.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        let frame = encode_request(req)?;
        self.stream.write_all(&frame)?;
        Ok(())
    }

    /// Reads the next response frame (blocking, honouring the read timeout).
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        loop {
            if let Some(body) =
                extract_frame(&self.inbuf, &mut self.consumed, DEFAULT_MAX_FRAME_BYTES)?
            {
                return Ok(decode_response(body)?);
            }
            // Every complete frame is handed out: drop them in one move per read, so
            // draining an N-frame reply is not N shifts of the buffer.
            self.inbuf.drain(..self.consumed);
            self.consumed = 0;
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ClientError::Closed);
            }
            self.inbuf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Sends a request and reads exactly one response.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.read_response()
    }

    /// Declares this connection's tenant (fire-and-forget; `Hello` has no reply).
    pub fn hello(&mut self, tenant: &str) -> Result<(), ClientError> {
        self.send(&Request::Hello { tenant: tenant.to_string() })
    }

    /// Registers a query; any non-`Registered` reply is returned as-is for the
    /// caller to classify (rejected / unavailable / error).
    pub fn register(&mut self, deployment: u32, sql: &str) -> Result<Response, ClientError> {
        self.call(&Request::Register { deployment, sql: sql.to_string() })
    }

    /// Polls a session, collecting `Answer` frames until the terminating `Flushed`.
    /// A rejection or error frame surfaces as [`ClientError::Unexpected`].
    pub fn poll(&mut self, session: u64, max: u32) -> Result<PollOutcome, ClientError> {
        self.send(&Request::Poll { session, max })?;
        let mut answers = Vec::new();
        loop {
            match self.read_response()? {
                answer @ Response::Answer { .. } => answers.push(answer),
                Response::Flushed { delivered, pending, status, .. } => {
                    return Ok(PollOutcome { answers, delivered, pending, status });
                }
                other => return Err(ClientError::Unexpected(other)),
            }
        }
    }

    /// Cancels a session; any reply other than `Cancelled` is passed through.
    pub fn cancel(&mut self, session: u64) -> Result<Response, ClientError> {
        self.call(&Request::Cancel { session })
    }

    /// Advances every healthy deployment; returns the `Advanced` bookkeeping frame.
    pub fn advance(&mut self, epochs: u32) -> Result<Response, ClientError> {
        self.call(&Request::Advance { epochs })
    }

    /// Polite close: sends `Bye` and waits for the server's `Bye`.
    pub fn bye(mut self) -> Result<(), ClientError> {
        match self.call(&Request::Bye)? {
            Response::Bye => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }
}
