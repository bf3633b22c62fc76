//! Warm-state checkpointing: capture a mid-run [`crate::Machine`] (or
//! [`crate::MultiMachine`]) into a [`Snapshot`] and fork new runs from it
//! without re-simulating warmup.
//!
//! A sweep re-runs every (workload, input) pair under several system
//! variants; each variant re-simulates an identical warmup phase. A
//! [`Snapshot`] captures the *complete* architectural and micro-
//! architectural state at a chosen warm cycle — clock, CoW memory pages
//! (`Arc`-shared, never deep-copied), the out-of-order window and its
//! completion state, cache tags, MSHRs, DRAM bank/queue/bus state, the
//! observability collector, the runtime validator, and every
//! prefetcher's learned tables — so a forked run is **bit-identical** to
//! the cold run it replaces. `bench::difftest` proves that equivalence
//! over randomized (workload, config, system) triples.
//!
//! # Wire format
//!
//! [`Snapshot::to_bytes`] produces a versioned, CRC-framed binary image:
//!
//! ```text
//! magic     8 bytes  b"ECDPSNAP"
//! version   u32 LE   container version (SNAPSHOT_VERSION)
//! schema    u32 LE   payload schema (SNAPSHOT_SCHEMA)
//! length    u64 LE   payload length in bytes
//! payload   length bytes
//! crc32     u32 LE   CRC-32 (IEEE) of the payload
//! ```
//!
//! All integers are little-endian; variable-length fields are length-
//! prefixed. [`Snapshot::from_bytes`] rejects bad magic, unknown
//! versions/schemas, truncation and CRC mismatches with a structured
//! [`SnapshotError`] — callers degrade gracefully to a cold run instead
//! of panicking (see `bench`'s sweep fallback path).

use crate::config::MachineConfig;
use crate::prefetcher::Aggressiveness;
use crate::stats::{LatencyStats, PrefetcherStats, RunStats};
use sim_mem::SimMemory;

/// Leading magic of every serialized snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ECDPSNAP";

/// Container version: bumped when the framing itself changes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Payload schema version: bumped when any serialized structure changes.
pub const SNAPSHOT_SCHEMA: u32 = 1;

/// A structured snapshot decode/validation failure.
///
/// Never a panic: every malformed input maps to one of these variants so
/// harnesses can fall back to cold simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The container version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The payload schema does not match [`SNAPSHOT_SCHEMA`].
    SchemaMismatch {
        /// Schema this build writes and reads.
        expected: u32,
        /// Schema found in the file.
        found: u32,
    },
    /// The payload checksum does not match the stored CRC-32.
    CrcMismatch,
    /// The input ended before the expected structure was complete.
    Truncated,
    /// A decoded value was structurally invalid (bad enum tag, length
    /// mismatch against the machine configuration, trailing bytes, ...).
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::SchemaMismatch { expected, found } => {
                write!(f, "snapshot schema {found} != expected {expected}")
            }
            SnapshotError::CrcMismatch => write!(f, "snapshot payload CRC mismatch"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3 polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a fingerprint of a machine configuration's `Debug` rendering.
///
/// Stored in every snapshot and checked at fork time: forking under a
/// different configuration would silently desynchronize the restored
/// micro-architectural state from the model, so it is rejected instead.
pub fn config_fingerprint(config: &MachineConfig) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in format!("{config:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Little-endian byte sink used by every `save_state` implementation.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i16`, little-endian.
    pub fn i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i32`, little-endian.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Appends an aggressiveness level as its Table 2 index.
    pub fn aggressiveness(&mut self, level: Aggressiveness) {
        self.u8(level.index() as u8);
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over snapshot bytes used by every `load_state` implementation.
///
/// Every read is bounds-checked and returns [`SnapshotError::Truncated`]
/// past the end — malformed snapshots never panic.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0 or 1 is malformed.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Malformed(format!("bool byte {b}"))),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i16`.
    pub fn i16(&mut self) -> Result<i16, SnapshotError> {
        Ok(self.u16()? as i16)
    }

    /// Reads a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, SnapshotError> {
        Ok(self.u32()? as i32)
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(self.u64()? as i64)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length as `usize`, guarding against absurd prefixes.
    pub fn len_prefix(&mut self) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        // A length prefix can never legitimately exceed the bytes left;
        // catching it here turns bit flips into Truncated, not OOM.
        if n > remaining.max(1 << 32) {
            return Err(SnapshotError::Truncated);
        }
        usize::try_from(n).map_err(|_| SnapshotError::Truncated)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.len_prefix()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let raw = self.bytes()?;
        String::from_utf8(raw).map_err(|_| SnapshotError::Malformed("non-UTF-8 string".into()))
    }

    /// Reads an aggressiveness level from its Table 2 index.
    pub fn aggressiveness(&mut self) -> Result<Aggressiveness, SnapshotError> {
        let idx = self.u8()? as usize;
        Aggressiveness::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| SnapshotError::Malformed(format!("aggressiveness index {idx}")))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the reader was fully consumed (trailing bytes are malformed).
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Malformed(format!(
                "{} trailing bytes",
                self.remaining()
            )))
        }
    }
}

/// Saved state of one registered prefetcher: display name (validated at
/// fork time), current aggressiveness level, and its opaque learned-table
/// blob from [`crate::Prefetcher::save_state`].
#[derive(Debug, Clone)]
pub(crate) struct PrefetcherState {
    pub(crate) name: String,
    pub(crate) level: Aggressiveness,
    pub(crate) data: Vec<u8>,
}

/// Saved state of one simulated core.
#[derive(Debug, Clone)]
pub(crate) struct CoreState {
    /// Warmed memory image. A CoW clone behind an `Arc`: pages stay
    /// `Arc`-shared with the running machine, and cloning the snapshot
    /// itself (e.g. arming a fork) is a reference-count bump instead of
    /// a copy of the full page table.
    pub(crate) mem: std::sync::Arc<SimMemory>,
    /// Serialized `CoreSim` micro-architectural state (window, completion
    /// wheel, caches, MSHRs, queues, counters, stats, obs, validator).
    pub(crate) core: Vec<u8>,
    pub(crate) prefetchers: Vec<PrefetcherState>,
    pub(crate) throttle: PrefetcherState,
}

/// A complete warm-state checkpoint of a machine mid-run.
///
/// Produced by [`crate::Machine::take_snapshot`] (after a run with
/// [`crate::Machine::set_warm_checkpoint`]) and consumed by
/// [`crate::Machine::fork_from`]. Cloning is cheap where it matters:
/// memory pages are `Arc`-shared CoW.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) cycle: u64,
    pub(crate) config_fp: u64,
    pub(crate) cores: Vec<CoreState>,
    pub(crate) dram: Vec<u8>,
    /// Multicore only: per-core finished-run stats captured so far.
    pub(crate) finished: Vec<Option<RunStats>>,
    /// Multicore only: per-core bus-transfer baseline at last (re)start.
    pub(crate) bus_at_start: Vec<u64>,
}

impl Snapshot {
    /// Simulated cycle at which the state was captured.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of cores captured (1 for [`crate::Machine`] snapshots).
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Configuration fingerprint recorded at capture time.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fp
    }

    /// The memory ops of core `core` that, at the capture cycle, waited
    /// on an address producer whose completion was still unknown (a load
    /// waiting on a fill, or an op not yet issued), in program order.
    ///
    /// The snapshot carries no dependences, so a fork re-parks these
    /// consumers from `trace` on its first cycle; this restores a scratch
    /// core the same way and reports what it parked. `config` and `trace`
    /// must be the ones the snapshot was captured with.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Malformed`] if `core` is out of range or
    /// the core state does not restore against `config` and `trace`.
    pub fn parked_ops(
        &self,
        core: usize,
        config: &MachineConfig,
        trace: &crate::Trace,
    ) -> Result<Vec<u32>, SnapshotError> {
        Ok(self.restored_core(core, config, trace)?.parked())
    }

    /// The memory ops of core `core` that, at the capture cycle, were
    /// ready to issue but whose block was not in the L1, in program order.
    ///
    /// Once a cycle's L2 port is spent the issue pass refuses these ops,
    /// and passes over the ones an earlier lookup marked as L1 misses.
    /// Marks are not captured: a fork starts with none and looks each op
    /// up again. Arguments are as for [`Snapshot::parked_ops`].
    ///
    /// # Errors
    ///
    /// As for [`Snapshot::parked_ops`].
    pub fn l1_missing_ops(
        &self,
        core: usize,
        config: &MachineConfig,
        trace: &crate::Trace,
    ) -> Result<Vec<u32>, SnapshotError> {
        Ok(self
            .restored_core(core, config, trace)?
            .ready_l1_misses(&mut crate::ResidentOps(&trace.ops)))
    }

    /// The memory ops of core `core` that, at the capture cycle (before
    /// its DRAM completions), were ready to issue but would be refused a
    /// miss slot: their block missed the L1 and the L2, no MSHR held it,
    /// and the MSHRs or the DRAM request buffer were full, in program
    /// order.
    ///
    /// The issue pass passes over the ones it has been refused, until a
    /// DRAM completion or an L2 fill. Marks are not captured: a fork
    /// starts with none and looks each op up again. Arguments are as for
    /// [`Snapshot::parked_ops`].
    ///
    /// # Errors
    ///
    /// As for [`Snapshot::parked_ops`], or if the DRAM state does not
    /// restore against `config`.
    pub fn refused_ops(
        &self,
        core: usize,
        config: &MachineConfig,
        trace: &crate::Trace,
    ) -> Result<Vec<u32>, SnapshotError> {
        let sim = self.restored_core(core, config, trace)?;
        let mut dram = crate::dram::Dram::new(config.dram.clone(), self.cores.len() as u32);
        dram.restore_state(&self.dram)?;
        Ok(sim.ready_refused(&mut crate::ResidentOps(&trace.ops), &dram))
    }

    /// A scratch core restored from core `core`'s state, its issue queue
    /// rebuilt from `trace` as a fork's first cycle does.
    fn restored_core(
        &self,
        core: usize,
        config: &MachineConfig,
        trace: &crate::Trace,
    ) -> Result<crate::engine::CoreSim, SnapshotError> {
        let cs = self
            .cores
            .get(core)
            .ok_or_else(|| SnapshotError::Malformed(format!("no core {core} in the snapshot")))?;
        let mut sim = crate::engine::CoreSim::new(
            core as u8,
            std::sync::Arc::new(config.clone()),
            &SimMemory::new(),
            trace.ops.len(),
            cs.prefetchers.len(),
            true,
        );
        sim.restore_rebuilt(cs, &mut crate::ResidentOps(&trace.ops), self.cycle)?;
        Ok(sim)
    }

    /// Serializes into the framed wire format described in the module docs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(self.cycle);
        w.u64(self.config_fp);
        w.u32(self.cores.len() as u32);
        for core in &self.cores {
            write_memory(&mut w, &core.mem);
            w.bytes(&core.core);
            w.u32(core.prefetchers.len() as u32);
            for p in &core.prefetchers {
                w.str(&p.name);
                w.aggressiveness(p.level);
                w.bytes(&p.data);
            }
            w.str(&core.throttle.name);
            w.aggressiveness(core.throttle.level);
            w.bytes(&core.throttle.data);
        }
        w.bytes(&self.dram);
        w.u32(self.finished.len() as u32);
        for f in &self.finished {
            match f {
                None => w.bool(false),
                Some(stats) => {
                    w.bool(true);
                    write_run_stats(&mut w, stats);
                }
            }
        }
        w.u32(self.bus_at_start.len() as u32);
        for &b in &self.bus_at_start {
            w.u64(b);
        }
        let payload = w.into_bytes();

        let mut out = Vec::with_capacity(payload.len() + 28);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&SNAPSHOT_SCHEMA.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let crc = crc32(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and validates a framed snapshot image.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on bad magic, an unknown version or
    /// schema, truncation, a CRC mismatch, or a malformed payload —
    /// callers are expected to fall back to cold simulation.
    pub fn from_bytes(data: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapReader::new(data);
        let magic = r.take(8)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let schema = r.u32()?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(SnapshotError::SchemaMismatch {
                expected: SNAPSHOT_SCHEMA,
                found: schema,
            });
        }
        let payload_len = r.len_prefix()?;
        let payload = r.take(payload_len)?;
        let stored_crc = r.u32()?;
        r.finish()?;
        if crc32(payload) != stored_crc {
            return Err(SnapshotError::CrcMismatch);
        }

        let mut p = SnapReader::new(payload);
        let cycle = p.u64()?;
        let config_fp = p.u64()?;
        let num_cores = p.u32()? as usize;
        if num_cores == 0 || num_cores > 1024 {
            return Err(SnapshotError::Malformed(format!("{num_cores} cores")));
        }
        let mut cores = Vec::with_capacity(num_cores);
        for _ in 0..num_cores {
            let mem = std::sync::Arc::new(read_memory(&mut p)?);
            let core = p.bytes()?;
            let num_pf = p.u32()? as usize;
            if num_pf > 256 {
                return Err(SnapshotError::Malformed(format!("{num_pf} prefetchers")));
            }
            let mut prefetchers = Vec::with_capacity(num_pf);
            for _ in 0..num_pf {
                prefetchers.push(PrefetcherState {
                    name: p.str()?,
                    level: p.aggressiveness()?,
                    data: p.bytes()?,
                });
            }
            let throttle = PrefetcherState {
                name: p.str()?,
                level: p.aggressiveness()?,
                data: p.bytes()?,
            };
            cores.push(CoreState {
                mem,
                core,
                prefetchers,
                throttle,
            });
        }
        let dram = p.bytes()?;
        let num_finished = p.u32()? as usize;
        if num_finished > 1024 {
            return Err(SnapshotError::Malformed(format!(
                "{num_finished} finished entries"
            )));
        }
        let mut finished = Vec::with_capacity(num_finished);
        for _ in 0..num_finished {
            finished.push(if p.bool()? {
                Some(read_run_stats(&mut p)?)
            } else {
                None
            });
        }
        let num_bus = p.u32()? as usize;
        if num_bus > 1024 {
            return Err(SnapshotError::Malformed(format!("{num_bus} bus baselines")));
        }
        let mut bus_at_start = Vec::with_capacity(num_bus);
        for _ in 0..num_bus {
            bus_at_start.push(p.u64()?);
        }
        p.finish()?;
        Ok(Snapshot {
            cycle,
            config_fp,
            cores,
            dram,
            finished,
            bus_at_start,
        })
    }
}

fn write_memory(w: &mut SnapWriter, mem: &SimMemory) {
    let indices = mem.resident_page_indices();
    w.u32(indices.len() as u32);
    for idx in indices {
        w.u32(idx);
        // Unwrap-free by construction: the index came from the resident set.
        if let Some(page) = mem.page_bytes(idx) {
            w.bytes(page);
        } else {
            w.bytes(&[]);
        }
    }
}

fn read_memory(r: &mut SnapReader<'_>) -> Result<SimMemory, SnapshotError> {
    let count = r.u32()? as usize;
    let mut mem = SimMemory::new();
    for _ in 0..count {
        let idx = r.u32()?;
        let data = r.bytes()?;
        if data.len() != sim_mem::memory::PAGE_BYTES {
            return Err(SnapshotError::Malformed(format!(
                "page {idx} has {} bytes",
                data.len()
            )));
        }
        if !mem.install_page(idx, &data) {
            return Err(SnapshotError::Malformed(format!("page index {idx}")));
        }
    }
    Ok(mem)
}

/// Serializes a [`RunStats`] field-by-field (exact, including latency
/// aggregates and per-prefetcher outcome counters).
pub(crate) fn write_run_stats(w: &mut SnapWriter, s: &RunStats) {
    w.u64(s.cycles);
    w.u64(s.retired_instructions);
    w.u64(s.l2_demand_accesses);
    w.u64(s.l2_demand_misses);
    w.u64(s.l2_lds_misses);
    w.u64(s.l2_merged_into_prefetch);
    w.u64(s.l1_hits);
    w.u64(s.l1_misses);
    w.u64(s.bus_transfers);
    w.u64(s.bus_busy_cycles);
    w.u64(s.writebacks);
    w.u64(s.dram_row_hits);
    w.u64(s.dram_row_conflicts);
    w.u64(s.intervals);
    w.u64(s.useful_prefetch_wait_cycles);
    write_latency(w, &s.demand_service);
    write_latency(w, &s.prefetch_service);
    w.u32(s.prefetchers.len() as u32);
    for p in &s.prefetchers {
        w.str(&p.name);
        w.u64(p.issued);
        w.u64(p.used);
        w.u64(p.late);
        w.u64(p.pollution);
        w.u64(p.unused_evicted);
    }
}

/// Inverse of [`write_run_stats`].
pub(crate) fn read_run_stats(r: &mut SnapReader<'_>) -> Result<RunStats, SnapshotError> {
    let mut s = RunStats {
        cycles: r.u64()?,
        retired_instructions: r.u64()?,
        l2_demand_accesses: r.u64()?,
        l2_demand_misses: r.u64()?,
        l2_lds_misses: r.u64()?,
        l2_merged_into_prefetch: r.u64()?,
        l1_hits: r.u64()?,
        l1_misses: r.u64()?,
        bus_transfers: r.u64()?,
        bus_busy_cycles: r.u64()?,
        writebacks: r.u64()?,
        dram_row_hits: r.u64()?,
        dram_row_conflicts: r.u64()?,
        intervals: r.u64()?,
        useful_prefetch_wait_cycles: r.u64()?,
        ..RunStats::default()
    };
    s.demand_service = read_latency(r)?;
    s.prefetch_service = read_latency(r)?;
    let n = r.u32()? as usize;
    if n > 256 {
        return Err(SnapshotError::Malformed(format!("{n} prefetcher stats")));
    }
    for _ in 0..n {
        s.prefetchers.push(PrefetcherStats {
            name: r.str()?,
            issued: r.u64()?,
            used: r.u64()?,
            late: r.u64()?,
            pollution: r.u64()?,
            unused_evicted: r.u64()?,
        });
    }
    Ok(s)
}

fn write_latency(w: &mut SnapWriter, l: &LatencyStats) {
    w.u64(l.count);
    w.u64(l.total_cycles);
    w.u64(l.max_cycles);
}

fn read_latency(r: &mut SnapReader<'_>) -> Result<LatencyStats, SnapshotError> {
    Ok(LatencyStats {
        count: r.u64()?,
        total_cycles: r.u64()?,
        max_cycles: r.u64()?,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn tiny_snapshot() -> Snapshot {
        let mut mem = SimMemory::new();
        mem.write_u32(0x4000_0000, 0xdead_beef);
        mem.write_u32(0x5000_0008, 42);
        Snapshot {
            cycle: 12_345,
            config_fp: config_fingerprint(&MachineConfig::default()),
            cores: vec![CoreState {
                mem: std::sync::Arc::new(mem),
                core: vec![1, 2, 3, 4, 5],
                prefetchers: vec![
                    PrefetcherState {
                        name: "stream".into(),
                        level: Aggressiveness::Conservative,
                        data: vec![9, 9],
                    },
                    PrefetcherState {
                        name: "cdp".into(),
                        level: Aggressiveness::Aggressive,
                        data: vec![],
                    },
                ],
                throttle: PrefetcherState {
                    name: "coordinated".into(),
                    level: Aggressiveness::Aggressive,
                    data: vec![7],
                },
            }],
            dram: vec![0xAA, 0xBB],
            finished: vec![None, Some(RunStats::default())],
            bus_at_start: vec![3, 4],
        }
    }

    #[test]
    fn round_trips_through_bytes() {
        let snap = tiny_snapshot();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.cycle, snap.cycle);
        assert_eq!(back.config_fp, snap.config_fp);
        assert_eq!(back.cores.len(), 1);
        assert_eq!(back.cores[0].core, snap.cores[0].core);
        assert_eq!(back.cores[0].prefetchers.len(), 2);
        assert_eq!(back.cores[0].prefetchers[0].name, "stream");
        assert_eq!(
            back.cores[0].prefetchers[0].level,
            Aggressiveness::Conservative
        );
        assert_eq!(back.cores[0].throttle.name, "coordinated");
        assert_eq!(back.dram, snap.dram);
        assert_eq!(back.finished, snap.finished);
        assert_eq!(back.bus_at_start, snap.bus_at_start);
        assert_eq!(back.cores[0].mem.read_u32(0x4000_0000), 0xdead_beef);
        assert_eq!(back.cores[0].mem.read_u32(0x5000_0008), 42);
        // Re-encoding the decoded snapshot is byte-stable.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = tiny_snapshot().to_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = tiny_snapshot().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn schema_skew_is_rejected() {
        let mut bytes = tiny_snapshot().to_bytes();
        bytes[12..16].copy_from_slice(&(SNAPSHOT_SCHEMA + 1).to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotError::SchemaMismatch {
                expected: SNAPSHOT_SCHEMA,
                found: SNAPSHOT_SCHEMA + 1,
            }
        );
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let bytes = tiny_snapshot().to_bytes();
        // Every strict prefix must fail cleanly (never panic).
        for n in 0..bytes.len() {
            assert!(
                Snapshot::from_bytes(&bytes[..n]).is_err(),
                "prefix of {n} bytes decoded"
            );
        }
    }

    #[test]
    fn payload_bit_flip_fails_crc() {
        let snap = tiny_snapshot();
        let bytes = snap.to_bytes();
        // Flip one bit in every payload byte position; each must be caught
        // by the CRC (or, rarely, rejected as malformed downstream —
        // but the frame check runs first, so CRC it is).
        for pos in (28..bytes.len() - 4).step_by(97) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            assert_eq!(
                Snapshot::from_bytes(&corrupt).unwrap_err(),
                SnapshotError::CrcMismatch,
                "flip at {pos}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = tiny_snapshot().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotError::Malformed(_)
        ));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn writer_reader_primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.bool(true);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i16(-5);
        w.i32(-6);
        w.i64(-7);
        w.f64(0.1 + 0.2);
        w.bytes(&[1, 2, 3]);
        w.str("héllo");
        w.aggressiveness(Aggressiveness::Moderate);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i16().unwrap(), -5);
        assert_eq!(r.i32().unwrap(), -6);
        assert_eq!(r.i64().unwrap(), -7);
        assert_eq!(r.f64().unwrap(), 0.1 + 0.2);
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.aggressiveness().unwrap(), Aggressiveness::Moderate);
        r.finish().unwrap();
        assert!(r.u8().is_err());
    }

    #[test]
    fn run_stats_round_trip() {
        let stats = RunStats {
            cycles: 100,
            retired_instructions: 200,
            l2_demand_misses: 30,
            prefetchers: vec![PrefetcherStats {
                name: "stream".into(),
                issued: 10,
                used: 4,
                late: 1,
                pollution: 2,
                unused_evicted: 3,
            }],
            ..RunStats::default()
        };
        let mut w = SnapWriter::new();
        write_run_stats(&mut w, &stats);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(read_run_stats(&mut r).unwrap(), stats);
        r.finish().unwrap();
    }

    #[test]
    fn config_fingerprint_is_sensitive() {
        let a = MachineConfig::default();
        let mut b = MachineConfig::default();
        b.core.window_size += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        assert_eq!(config_fingerprint(&a), config_fingerprint(&a));
    }
}
