//! In-memory spans for the traced run, written out as a tab-separated dump
//! when the run ends and read back to compute per-layer times.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer; the program itself carries no tracing.

use std::io::{BufRead, Write};
use std::path::Path;
use std::time::Instant;

/// Loopback `Batch` call (root span, one per batch a tenant sends).
pub const LOOPBACK_BATCH: &str = "server.loopback.batch";
/// Loopback `Kill` call preceding a killed batch.
pub const LOOPBACK_KILL: &str = "server.loopback.kill";
/// One pass of the in-process ladder over the batch pool (parent of the
/// rung spans below).
pub const LADDER_PASS: &str = "ladder.pass";
/// `ShardedLru::access_shared` replay of every processor's sequence.
pub const CACHE: &str = "cache";
/// Policy construction.
pub const CORE: &str = "core";
/// Policy construction plus `run_engine_sharded`.
pub const ENGINE: &str = "sched.engine";
/// `Supervisor::run_controlled` with a `MemStore`.
pub const SUPERVISOR: &str = "sched.supervisor";
/// `TenantSession::run_batch`.
pub const TENANT: &str = "server.tenant";
/// `Frame::encode_payload` + `frame_wire`, both directions.
pub const ENCODE: &str = "server.protocol.encode";
/// `parse_wire` + `Frame::decode_payload`, both directions.
pub const DECODE: &str = "server.protocol.decode";

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The span that caused this one (`0`: none).
    pub parent: u64,
    /// Layer boundary name (one of this module's constants).
    pub name: String,
    /// Tenant index.
    pub tenant: u32,
    /// Batch sequence number (`u64::MAX` for pass spans).
    pub batch: u64,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans for one thread; ids are `base + n`.
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    /// Spans recorded so far.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose ids start above `base`, timing against `epoch`.
    pub fn new(epoch: Instant, base: u64) -> Recorder {
        Recorder {
            epoch,
            next_id: base,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves the id of a span that will close later (so children can
    /// name it as their parent).
    pub fn open(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Records a finished span under an id from [`Recorder::open`].
    #[allow(clippy::too_many_arguments)]
    pub fn close(
        &mut self,
        id: u64,
        name: &str,
        parent: u64,
        tenant: u32,
        batch: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            tenant,
            batch,
            start_ns,
            end_ns,
        });
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &str,
        parent: u64,
        tenant: u32,
        batch: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.open();
        self.close(id, name, parent, tenant, batch, start_ns, end_ns);
        id
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: u64,
        tenant: u32,
        batch: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, parent, tenant, batch, start, end);
        out
    }
}

const HEADER: &str = "id\tparent\tname\ttenant\tbatch\tstart_ns\tend_ns";

/// Writes `spans` as a tab-separated dump with a header line.
pub fn write_dump(mut w: impl Write, spans: &[Span]) -> std::io::Result<()> {
    writeln!(w, "{HEADER}")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.tenant, s.batch, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Reads a dump written by [`write_dump`].
pub fn read_dump(r: impl BufRead) -> Result<Vec<Span>, String> {
    let mut lines = r.lines();
    match lines.next() {
        Some(Ok(h)) if h == HEADER => {}
        _ => return Err("missing span dump header".into()),
    }
    let mut spans = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("malformed span on line {}", i + 2);
        if f.len() != 7 {
            return Err(bad());
        }
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
        spans.push(Span {
            id: num(f[0])?,
            parent: num(f[1])?,
            name: f[2].to_string(),
            tenant: f[3].parse().map_err(|_| bad())?,
            batch: num(f[4])?,
            start_ns: num(f[5])?,
            end_ns: num(f[6])?,
        });
    }
    Ok(spans)
}

/// Writes the dump to `path` and reads it back: the per-layer figures are
/// computed from what the file holds.
pub fn dump_and_reload(path: &Path, spans: &[Span]) -> Result<Vec<Span>, String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    write_dump(
        std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?),
        spans,
    )
    .map_err(io)?;
    let file = std::fs::File::open(path).map_err(io)?;
    read_dump(std::io::BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_round_trips() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch, 1000);
        let pass = r.push(LADDER_PASS, 0, 0, u64::MAX, 5, 90);
        r.push(CACHE, pass, 0, 3, 10, 20);
        r.time(TENANT, pass, 1, 4, || ());
        let mut buf = Vec::new();
        write_dump(&mut buf, &r.spans).unwrap();
        let back = read_dump(&buf[..]).unwrap();
        assert_eq!(back, r.spans);
        assert!(read_dump(&b"id\tparent\n"[..]).is_err());
        let mut short = buf.clone();
        short.extend_from_slice(b"7\t0\tcache\t0\n");
        assert!(read_dump(&short[..]).is_err());
        assert_eq!(back[1].parent, pass);
        assert_eq!(back[1].dur_ns(), 10);
    }
}
