//! Host-speed reference.
//!
//! The cores this benchmark runs on are shared with other tenants, whose
//! load moves their speed by a third or more within minutes: two sets
//! of ten runs of the same code differ by more than any bound a
//! wall-clock figure could use. So every timed stretch of a workload is
//! bracketed by a short reference task written here, in the benchmark's
//! own code and calling nothing of the program's, and each time is
//! scaled by how much faster or slower than its nominal time the
//! reference ran around it. The end-to-end times a run reports are
//! therefore times at the reference's nominal host speed; the raw
//! figures are printed beside them.
//!
//! Two references, one per kind of work:
//! - [`Reference::Cpu`]: a Lévy-flight kernel (SplitMix64 draws, a
//!   power-law jump length, a lattice move and a target test) on 2
//!   threads, like the sweep's runner threads.
//! - [`Reference::Loopback`]: round trips of a small message over one
//!   loopback TCP connection between 2 threads, the echo side running a
//!   slice of the same kernel per message, like a request to a node.
//!
//! Neither depends on a seed or on the program, so a change to the
//! program cannot move them.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::loadgen::SplitMix;

/// Chunks of [`CHUNK_JUMPS`] jumps in one [`Reference::Cpu`]
/// measurement. Its 2 threads take chunks as they finish, as the
/// sweep's runner threads take trials, so a thread the host preempts
/// delays the measurement by at most a chunk.
const CPU_CHUNKS: u64 = 64;
const CHUNK_JUMPS: u64 = 12_500;
/// Round trips in one [`Reference::Loopback`] measurement.
const ROUND_TRIPS: usize = 400;
/// Kernel jumps the echo side runs per round trip.
const ECHO_JUMPS: u64 = 1_000;
/// Bytes per message each way.
const MESSAGE: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    Cpu,
    Loopback,
}

impl Reference {
    /// One measurement's nominal time: the median on a calm 2-core
    /// Xeon host. It sets only the scale of the reported figures.
    fn nominal_s(self) -> f64 {
        match self {
            Reference::Cpu => 0.0160,
            Reference::Loopback => 0.0230,
        }
    }
}

/// Lévy flight on Z² from the origin with tail exponent 2.5: returns a
/// value that depends on every draw, so no jump can be optimised away.
fn kernel(seed: u64, jumps: u64) -> u64 {
    let mut rng = SplitMix::new(seed);
    let (mut x, mut y, mut near) = (0i64, 0i64, 0u64);
    for _ in 0..jumps {
        let z = rng.next_u64();
        let u = ((z >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        let len = u.powf(-1.0 / 1.5).min(1e6) as i64;
        match z & 3 {
            0 => x += len,
            1 => x -= len,
            2 => y += len,
            _ => y -= len,
        }
        near += u64::from(x.abs() + y.abs() <= 64);
    }
    near ^ (x as u64) ^ ((y as u64) << 1)
}

/// A measured reference. Bracket each timed stretch with
/// [`HostRef::latest`] before and [`HostRef::measure`] after, and divide
/// its time by [`HostRef::between`] the two.
pub struct HostRef {
    kind: Reference,
    /// The connected pair [`Reference::Loopback`] exchanges over.
    pair: Option<(TcpStream, TcpStream)>,
    /// Every measurement's factor, in order.
    pub factors: Vec<f64>,
    /// The last factor, while it still describes the present.
    last: Option<f64>,
}

impl HostRef {
    pub fn new(kind: Reference) -> std::io::Result<HostRef> {
        let pair = match kind {
            Reference::Cpu => None,
            Reference::Loopback => {
                let listener = TcpListener::bind("127.0.0.1:0")?;
                let client = TcpStream::connect(listener.local_addr()?)?;
                let (server, _) = listener.accept()?;
                client.set_nodelay(true)?;
                server.set_nodelay(true)?;
                Some((client, server))
            }
        };
        Ok(HostRef {
            kind,
            pair,
            factors: Vec::new(),
            last: None,
        })
    }

    fn once(&mut self) -> f64 {
        let start = Instant::now();
        match &mut self.pair {
            None => {
                let next = AtomicU64::new(0);
                std::thread::scope(|scope| {
                    for _ in 0..2 {
                        scope.spawn(|| loop {
                            let chunk = next.fetch_add(1, Ordering::Relaxed);
                            if chunk >= CPU_CHUNKS {
                                break;
                            }
                            black_box(kernel(chunk, CHUNK_JUMPS));
                        });
                    }
                })
            }
            Some((client, server)) => std::thread::scope(|scope| {
                scope.spawn(|| {
                    let mut buf = [0u8; MESSAGE];
                    for i in 0..ROUND_TRIPS {
                        server.read_exact(&mut buf).expect("reference echo read");
                        buf[0] = black_box(kernel(i as u64, ECHO_JUMPS)) as u8;
                        server.write_all(&buf).expect("reference echo write");
                    }
                });
                let mut buf = [7u8; MESSAGE];
                for _ in 0..ROUND_TRIPS {
                    client.write_all(&buf).expect("reference write");
                    client.read_exact(&mut buf).expect("reference read");
                }
            }),
        }
        start.elapsed().as_secs_f64()
    }

    /// Measures the reference now; returns how many times slower than
    /// nominal the host ran it (above 1 is slower).
    pub fn measure(&mut self) -> f64 {
        let f = self.once() / self.kind.nominal_s();
        self.factors.push(f);
        self.last = Some(f);
        f
    }

    /// The factor measured just before, or a fresh one after a gap.
    pub fn latest(&mut self) -> f64 {
        match self.last {
            Some(f) => f,
            None => self.measure(),
        }
    }

    /// Marks the last measurement stale: work the reference did not
    /// bracket ran since.
    pub fn gap(&mut self) {
        self.last = None;
    }

    /// The factor for a stretch between two measurements: their mean.
    pub fn between(before: f64, after: f64) -> f64 {
        (before + after) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_seed_dependent() {
        assert_eq!(kernel(1, 10_000), kernel(1, 10_000));
        assert_ne!(kernel(1, 10_000), kernel(2, 10_000));
    }

    #[test]
    fn both_references_measure_a_positive_factor() {
        for kind in [Reference::Cpu, Reference::Loopback] {
            let mut r = HostRef::new(kind).expect("reference set-up");
            let f = r.measure();
            assert!(f.is_finite() && f > 0.0, "{kind:?}: {f}");
            assert_eq!(r.factors.len(), 1);
        }
    }
}
