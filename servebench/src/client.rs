//! The load generator's client side: closed-loop connections speaking
//! the server's framing (`polap_cli::proto`) directly, timing each
//! request from writing its frame to reading the reply.

use crate::script::{Class, Req, Stream};
use olap_server::{FollowerState, STATUS_OK, STATUS_QUIT};
use polap_cli::proto::{read_response, write_request};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// One served request.
#[derive(Debug, Clone)]
pub struct Served {
    pub conn: usize,
    /// First request of a fresh server session.
    pub fresh: bool,
    pub req: Req,
    /// Index into [`ClientOut::replies`].
    pub reply: usize,
    pub status: u8,
    /// Seconds since the run's epoch at which the request frame was
    /// written, and its client-side round trip in milliseconds.
    pub start_s: f64,
    pub ms: f64,
    /// Follower position read just before sending and just after the
    /// reply (ingest-follow only).
    pub pos: Option<(u64, u64)>,
}

/// Everything one client thread saw.
#[derive(Debug, Default)]
pub struct ClientOut {
    pub served: Vec<Served>,
    /// Distinct reply texts, deduplicated (replies repeat heavily).
    pub replies: Vec<String>,
}

struct Conn(TcpStream);

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let mut s = TcpStream::connect(addr)?;
        match read_response(&mut s)? {
            Some((STATUS_OK, _)) => Ok(Conn(s)),
            other => Err(io::Error::other(format!("not admitted: {other:?}"))),
        }
    }

    fn request(&mut self, line: &str) -> io::Result<(u8, String)> {
        write_request(&mut self.0, line)?;
        read_response(&mut self.0)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server hung up"))
    }

    fn quit(mut self) -> io::Result<()> {
        match self.request(".quit")? {
            (STATUS_QUIT, _) => Ok(()),
            (s, t) => Err(io::Error::other(format!("quit answered {s}: {t}"))),
        }
    }
}

/// Runs one closed-loop connection until `until`: each request is sent
/// only after the previous reply arrived. Episodes flagged
/// `fresh_session` open a new connection first.
pub fn closed_loop(
    conn: usize,
    addr: SocketAddr,
    mut stream: Stream,
    epoch: Instant,
    until: Instant,
    follower: Option<Arc<FollowerState>>,
) -> io::Result<ClientOut> {
    let mut out = ClientOut::default();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut session: Option<Conn> = None;
    'run: loop {
        let episode = stream.next_episode();
        let mut fresh = false;
        if episode.fresh_session || session.is_none() {
            if let Some(s) = session.take() {
                s.quit()?;
            }
            session = Some(Conn::open(addr)?);
            fresh = true;
        }
        let s = session.as_mut().expect("connected above");
        for req in episode.reqs {
            if Instant::now() >= until {
                break 'run;
            }
            let p0 = follower.as_ref().map(|f| f.position());
            let t0 = Instant::now();
            let (status, text) = s.request(&req.line)?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let pos = follower.as_ref().map(|f| (p0.unwrap_or(0), f.position()));
            let next = index.len();
            let reply = *index.entry(text).or_insert(next);
            out.served.push(Served {
                conn,
                fresh: std::mem::take(&mut fresh),
                req,
                reply,
                status,
                start_s: t0.duration_since(epoch).as_secs_f64(),
                ms,
                pos,
            });
        }
    }
    if let Some(s) = session.take() {
        s.quit()?;
    }
    let mut replies = vec![String::new(); index.len()];
    for (text, i) in index {
        replies[i] = text;
    }
    out.replies = replies;
    Ok(out)
}

/// Median round trip of a no-op verb (`.budget`) over `n` requests on
/// one fresh connection: the framing and dispatch floor under every
/// latency.
pub fn roundtrip_floor_ms(addr: SocketAddr, n: usize) -> io::Result<Vec<f64>> {
    let mut c = Conn::open(addr)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        let (status, _) = c.request(".budget")?;
        v.push(t0.elapsed().as_secs_f64() * 1e3);
        if status != STATUS_OK {
            return Err(io::Error::other("no-op verb refused"));
        }
    }
    c.quit()?;
    Ok(v)
}

/// Whether a served reply counts as failed regardless of the oracle:
/// an error frame, or an engine error/usage message.
pub fn is_error_reply(status: u8, text: &str) -> bool {
    status != STATUS_OK || text.starts_with("error") || text.starts_with("usage:")
}

/// Sorts class latencies out of served requests inside a window.
pub fn latencies(served: &[&Served], class: Class, from_s: f64, to_s: f64) -> Vec<f64> {
    served
        .iter()
        .filter(|s| s.req.class == class && s.start_s >= from_s && s.start_s + s.ms / 1e3 <= to_s)
        .map(|s| s.ms)
        .collect()
}
