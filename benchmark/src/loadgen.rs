//! The network load generator: one thread, an epoll loop over a few
//! pipelined connections, closed or open loop.
//!
//! * **Closed loop** keeps a fixed number of requests in flight per
//!   connection and sends the next only when a reply arrives; latency is
//!   send → reply.
//! * **Open loop** sends on a precomputed schedule whatever the server
//!   does; latency is **due time** → reply, so a stall is charged to every
//!   request that was due during it, and how late the generator itself ran
//!   is recorded per request.
//!
//! Every reply is checked bit for bit against the expected output of its
//! input. Replies on one connection arrive in request order, so a reply
//! that skips ids means the skipped requests were lost.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use minimio::{Events, Interest, Poll, Token};

use crate::measure::{bitwise_eq, flip_one_bit, Fault, Recorder, Window, FAULT_AT_OP};
use crate::sut::{self, Frame, FrameDecoder, Tensor};
use crate::trace::{SpanId, Tracer};
use crate::workloads::DRAIN_GRACE_MS;

const READ_CHUNK: usize = 64 << 10;

/// When requests are sent.
#[derive(Debug, Clone)]
pub enum Pacing {
    /// Keep `pipeline` requests in flight on every connection, until the
    /// window closes or `max_requests` have been sent.
    Closed {
        /// In-flight requests per connection.
        pipeline: usize,
        /// Stop offering load after this many requests.
        max_requests: u64,
    },
    /// Send request `i` at `offsets_ns[i]` after the phase starts.
    Open {
        /// Nondecreasing due times, ns from phase start.
        offsets_ns: Vec<u64>,
    },
}

/// What is sent and what must come back.
#[derive(Debug, Clone)]
pub struct Load {
    /// Encoded request per input item (correlation id patched per send).
    pub frames: Vec<Vec<u8>>,
    /// Alternative encoding (the guaranteed class) used for every
    /// `alt_every`-th request; empty when unused.
    pub alt_frames: Vec<Vec<u8>>,
    /// Use `alt_frames` for request `i` when `i % alt_every == 0`.
    pub alt_every: usize,
    /// Expected output per input item.
    pub expected: Vec<Tensor<f32>>,
}

struct Pending {
    id: u64,
    reference: Instant,
    input: usize,
}

/// One client connection: nonblocking stream, incremental decoder, write
/// buffer, and the in-flight requests oldest first.
pub struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    wbuf: Vec<u8>,
    wpos: usize,
    inflight: VecDeque<Pending>,
    next_id: u64,
    wants_write: bool,
}

impl Conn {
    /// Connect to `addr` (nonblocking, `TCP_NODELAY`).
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            decoder: FrameDecoder::new(),
            wbuf: Vec::new(),
            wpos: 0,
            inflight: VecDeque::new(),
            next_id: 1,
            wants_write: false,
        })
    }

    fn enqueue(&mut self, template: &[u8], reference: Instant, input: usize) {
        let id = self.next_id;
        self.next_id += 1;
        let at = self.wbuf.len();
        self.wbuf.extend_from_slice(template);
        sut::patch_frame_id(&mut self.wbuf[at..], id);
        self.inflight.push_back(Pending {
            id,
            reference,
            input,
        });
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }

    /// Pull everything readable into the decoder; `Ok(false)` on EOF.
    fn fill(&mut self, chunk: &mut [u8]) -> io::Result<bool> {
        loop {
            match self.stream.read(chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => self.decoder.extend(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Per-phase state threaded through reply handling.
struct Phase<'a> {
    rec: Recorder,
    load: &'a Load,
    fault: &'a mut Option<Fault>,
    replies: u64,
    tracer: &'a mut Tracer,
    parent: SpanId,
}

impl Phase<'_> {
    fn on_frame(&mut self, conn: &mut Conn, frame: Frame) {
        let end = Instant::now();
        self.replies += 1;
        let fire = self.replies == FAULT_AT_OP;
        if fire && *self.fault == Some(Fault::DropReply) {
            *self.fault = None;
            return;
        }
        let id = frame.id();
        // in-order replies: anything older than `id` still pending was lost
        while conn.inflight.front().is_some_and(|p| p.id < id) {
            conn.inflight.pop_front();
            self.rec.fail(1);
        }
        let Some(pending) = conn.inflight.pop_front().filter(|p| p.id == id) else {
            // a duplicate or an answer to nothing we asked
            self.rec.fail(1);
            return;
        };
        let good = match frame {
            Frame::InferOk { mut output, .. } => {
                if fire && *self.fault == Some(Fault::FlipBit) {
                    *self.fault = None;
                    flip_one_bit(&mut output);
                }
                bitwise_eq(&output, &self.load.expected[pending.input])
            }
            _ => false,
        };
        if good {
            self.rec.ok(pending.reference, end, 1);
            self.tracer
                .span("request", pending.reference, end, self.parent, id);
        } else {
            self.rec.fail(1);
        }
    }
}

/// Drive `conns` for `window` and return the phase's raw samples. In the
/// open loop the phase ends when the schedule is exhausted and every reply
/// is in; in the closed loop, when the window has passed and the pipeline
/// has drained. Replies still missing [`DRAIN_GRACE_MS`] after that are
/// counted lost.
pub fn drive(
    conns: &mut [Conn],
    load: &Load,
    pacing: &Pacing,
    window: Duration,
    fault: &mut Option<Fault>,
    tracer: &mut Tracer,
    parent: SpanId,
) -> io::Result<Window> {
    let poll = Poll::new()?;
    for (i, conn) in conns.iter_mut().enumerate() {
        poll.register(&conn.stream, Token(i), Interest::READABLE)?;
        conn.wants_write = false;
    }
    let mut events = Events::with_capacity(16);
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut phase = Phase {
        rec: Recorder::start(window),
        load,
        fault,
        replies: 0,
        tracer,
        parent,
    };
    let t0 = phase.rec.t0();
    let t_end = phase.rec.t_end();
    let mut next = 0usize;
    let mut drain_until: Option<Instant> = None;

    loop {
        let now = Instant::now();
        phase.rec.tick(now);

        let generating = match pacing {
            Pacing::Closed {
                pipeline,
                max_requests,
            } => {
                let more = |next: usize| now < t_end && (next as u64) < *max_requests;
                if more(next) {
                    for conn in conns.iter_mut() {
                        while conn.inflight.len() < *pipeline && more(next) {
                            let (input, frame) = pick(load, next);
                            conn.enqueue(frame, Instant::now(), input);
                            phase.rec.attempt();
                            next += 1;
                        }
                    }
                }
                more(next)
            }
            Pacing::Open { offsets_ns } => {
                while next < offsets_ns.len() {
                    let due = t0 + Duration::from_nanos(offsets_ns[next]);
                    if due > now {
                        break;
                    }
                    let (input, frame) = pick(load, next);
                    conns[next % conns.len()].enqueue(frame, due, input);
                    phase.rec.attempt();
                    phase
                        .rec
                        .lateness(Instant::now().saturating_duration_since(due));
                    next += 1;
                }
                next < offsets_ns.len()
            }
        };

        for (i, conn) in conns.iter_mut().enumerate() {
            conn.flush()?;
            let wants_write = conn.wpos < conn.wbuf.len();
            if wants_write != conn.wants_write {
                let interest = if wants_write {
                    Interest::READABLE.add(Interest::WRITABLE)
                } else {
                    Interest::READABLE
                };
                poll.reregister(&conn.stream, Token(i), interest)?;
                conn.wants_write = wants_write;
            }
        }

        let outstanding: usize = conns.iter().map(|c| c.inflight.len()).sum();
        if !generating {
            if outstanding == 0 {
                break;
            }
            let deadline = *drain_until.get_or_insert(now + Duration::from_millis(DRAIN_GRACE_MS));
            if now >= deadline {
                phase.rec.fail(outstanding as u64);
                for conn in conns.iter_mut() {
                    conn.inflight.clear();
                }
                break;
            }
        }

        let timeout = match pacing {
            Pacing::Open { offsets_ns } if generating => {
                let due = t0 + Duration::from_nanos(offsets_ns[next]);
                due.saturating_duration_since(Instant::now())
            }
            _ => Duration::from_millis(50),
        };
        // epoll sleeps in whole milliseconds: sleep the whole ones, then
        // poll without blocking until the due time, so sends are not late
        let timeout = if timeout < Duration::from_millis(1) {
            std::hint::spin_loop();
            Duration::ZERO
        } else {
            Duration::from_millis(timeout.as_millis() as u64)
        };
        poll.wait(&mut events, Some(timeout))?;
        for ev in events.iter() {
            let Token(i) = ev.token();
            let conn = &mut conns[i];
            if ev.is_readable() || ev.is_error() {
                let open = conn.fill(&mut chunk)?;
                while let Some(frame) = conn.decoder.next()? {
                    phase.on_frame(conn, frame);
                }
                if !open {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed a benchmark connection",
                    ));
                }
            }
        }
    }

    for conn in conns.iter() {
        poll.deregister(&conn.stream)?;
    }
    Ok(phase.rec.finish())
}

/// The input index and encoded frame of request number `request`.
fn pick(load: &Load, request: usize) -> (usize, &[u8]) {
    let input = request % load.frames.len();
    let alt = !load.alt_frames.is_empty() && request.is_multiple_of(load.alt_every);
    let frames = if alt { &load.alt_frames } else { &load.frames };
    (input, &frames[input])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::{read_frame, uniform_items, uniform_offsets, write_frame, Shape4};
    use crate::trace::NO_PARENT;
    use std::net::TcpListener;

    const STALL: Duration = Duration::from_millis(200);
    const STALL_AFTER: u64 = 100;
    const RATE_RPS: u64 = 1_000;
    const REQUESTS: usize = 600;

    /// Echo server answering every request with `reply`, which stops
    /// reading for [`STALL`] after [`STALL_AFTER`] requests.
    fn stalling_server(listener: TcpListener, reply: Tensor<f32>) {
        let (stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = io::BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut served = 0u64;
        while let Ok(Some(frame)) = read_frame(&mut reader) {
            served += 1;
            if served == STALL_AFTER {
                std::thread::sleep(STALL);
            }
            let ok = Frame::InferOk {
                id: frame.id(),
                output: reply.clone(),
            };
            if write_frame(&mut writer, &ok).is_err() {
                break;
            }
        }
    }

    /// No coordinated omission: the generator keeps to its schedule while
    /// the server stalls, and every request that was due during the stall
    /// carries the wait in its latency, because latency runs from due time.
    #[test]
    fn open_loop_charges_a_stall_to_the_requests_due_during_it() {
        let x = uniform_items(Shape4::new(1, 1, 2, 2), 1, 1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reply = x.clone();
        let server = std::thread::spawn(move || stalling_server(listener, reply));

        let load = Load {
            frames: vec![sut::encode_infer("m", &x, None).unwrap()],
            alt_frames: Vec::new(),
            alt_every: 1,
            expected: vec![x],
        };
        let pacing = Pacing::Open {
            offsets_ns: uniform_offsets(9, RATE_RPS, REQUESTS),
        };
        let mut conns = vec![Conn::connect(addr).unwrap()];
        let window = Duration::from_millis(1000 * REQUESTS as u64 / RATE_RPS);
        let w = drive(
            &mut conns,
            &load,
            &pacing,
            window,
            &mut None,
            &mut Tracer::new(false),
            NO_PARENT,
        )
        .unwrap();
        drop(conns);
        server.join().unwrap();

        assert_eq!((w.attempted, w.failed), (REQUESTS as u64, 0));
        // the generator did not wait for the server: sends stayed on time
        assert!(w.lateness_p99_us() < 20_000.0, "{}", w.lateness_p99_us());
        // ~200 requests were due during the 200 ms stall; their mean wait is
        // half of it, so well over a hundred sit above a quarter of the stall
        let whole = w.whole();
        let slow = whole.count_over(STALL.as_nanos() as u64 / 4);
        assert!(slow >= 100, "only {slow} requests saw the stall");
        assert!(
            whole.quantile_ns(0.99) >= 150e6,
            "{}",
            whole.quantile_ns(0.99)
        );
        // and the first hundred, due before it, did not
        assert!(
            whole.quantile_ns(0.10) < 50e6,
            "{}",
            whole.quantile_ns(0.10)
        );
    }

    #[test]
    fn a_dropped_reply_and_a_flipped_bit_are_counted_as_failures() {
        for fault in [Fault::DropReply, Fault::FlipBit] {
            let x = uniform_items(Shape4::new(1, 1, 2, 2), 1, 1);
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let reply = x.clone();
            let server = std::thread::spawn(move || stalling_server(listener, reply));
            let load = Load {
                frames: vec![sut::encode_infer("m", &x, None).unwrap()],
                alt_frames: Vec::new(),
                alt_every: 1,
                expected: vec![x],
            };
            let mut conns = vec![Conn::connect(addr).unwrap()];
            let mut armed = Some(fault);
            let w = drive(
                &mut conns,
                &load,
                &Pacing::Closed {
                    pipeline: 4,
                    max_requests: u64::MAX,
                },
                Duration::from_millis(50),
                &mut armed,
                &mut Tracer::new(false),
                NO_PARENT,
            )
            .unwrap();
            drop(conns);
            server.join().unwrap();
            assert_eq!(armed, None, "{fault:?} never fired");
            assert_eq!(w.failed, 1, "{fault:?}");
            assert_eq!(w.attempted, w.samples() + 1, "{fault:?}");
        }
    }
}
