//! Chunk-level encoding of [`DynInst`] runs.
//!
//! A chunk is an independently decodable run of up to
//! [`DEFAULT_CHUNK_INSTS`] records. Each record is encoded against a
//! small predictor context that resets at the chunk boundary, so a
//! reader can seek to any chunk via the index without decoding its
//! predecessors:
//!
//! * `seq` — zigzag varint delta against the previous record's `seq + 1`
//!   (0 for the dense streams the emulator produces).
//! * `pc` — zigzag varint delta against the previous record's successor
//!   PC (fall-through or branch target), i.e. 0 whenever control flow
//!   goes where the previous record said it would.
//! * `mem_addr` — zigzag varint delta against the previous memory
//!   address in the chunk (strided accesses stay short).
//! * `branch.fallthrough` — delta against `pc + 1`; `branch.next_pc` —
//!   delta against `fallthrough` (0 for every not-taken branch).
//! * `result`/`hoist` — plain varints, elided when zero.
//! * registers — one byte each, present-flagged.
//!
//! Two leading flag bytes carry the instruction kind, operand presence
//! and zero-elision flags. The emulator's committed stream encodes to
//! roughly 5–7 bytes per instruction.

use arvi_isa::{BranchInfo, DynInst, InstKind, Reg, NUM_LOGICAL_REGS};

use crate::codec::{read_varint, unzigzag, write_varint, zigzag, DecodeError};
use crate::TraceError;

/// Default chunk capacity in instructions. 4096 records keep the decode
/// buffer around 256 KB while amortizing per-chunk seek/checksum costs.
pub const DEFAULT_CHUNK_INSTS: usize = 4096;

const KINDS: [InstKind; 9] = [
    InstKind::IntAlu,
    InstKind::IntMul,
    InstKind::IntDiv,
    InstKind::Load,
    InstKind::Store,
    InstKind::Branch,
    InstKind::Jump,
    InstKind::JumpReg,
    InstKind::Halt,
];

fn kind_code(kind: InstKind) -> u8 {
    KINDS
        .iter()
        .position(|&k| k == kind)
        .expect("every InstKind has a code") as u8
}

// flags0 layout.
const F0_KIND_MASK: u8 = 0x0F;
const F0_SRC0: u8 = 1 << 4;
const F0_SRC1: u8 = 1 << 5;
const F0_DEST: u8 = 1 << 6;
const F0_BRANCH: u8 = 1 << 7;

// flags1 layout. The three delta-presence bits make the common cases
// (dense seq, control flow going where the previous record said,
// fall-through == pc + 1) cost zero payload bytes *and* zero varint
// decodes.
const F1_RESULT: u8 = 1 << 0;
const F1_MEM: u8 = 1 << 1;
const F1_HOIST: u8 = 1 << 2;
const F1_TAKEN: u8 = 1 << 3;
const F1_COND: u8 = 1 << 4;
const F1_SEQ_DELTA: u8 = 1 << 5;
const F1_PC_DELTA: u8 = 1 << 6;
const F1_FALLTHROUGH_DELTA: u8 = 1 << 7;

/// The per-chunk predictor context; resets at every chunk boundary.
struct Ctx {
    /// Expected `seq` of the next record.
    next_seq: u64,
    /// Expected `pc` of the next record (successor of the previous one).
    next_pc: i64,
    /// Previous memory address seen in the chunk.
    prev_mem: u64,
    /// Previous non-zero result value seen in the chunk.
    prev_result: u64,
}

impl Ctx {
    fn new(first_seq: u64) -> Ctx {
        Ctx {
            next_seq: first_seq,
            next_pc: 0,
            prev_mem: 0,
            prev_result: 0,
        }
    }

    fn advance(&mut self, d: &DynInst) {
        self.next_seq = d.seq.wrapping_add(1);
        self.next_pc = match d.branch {
            Some(b) => b.next_pc as i64,
            None => d.pc as i64 + 1,
        };
        if d.mem_addr != 0 {
            self.prev_mem = d.mem_addr;
        }
        if d.result != 0 {
            self.prev_result = d.result;
        }
    }
}

/// Encodes `insts` (one chunk's worth) into `out`. The first record's
/// `seq` must be supplied to the decoder out of band (the chunk index
/// stores it).
pub fn encode_chunk(insts: &[DynInst], out: &mut Vec<u8>) {
    let first_seq = insts.first().map_or(0, |d| d.seq);
    let mut ctx = Ctx::new(first_seq);
    for d in insts {
        let mut flags0 = kind_code(d.kind);
        if d.srcs[0].is_some() {
            flags0 |= F0_SRC0;
        }
        if d.srcs[1].is_some() {
            flags0 |= F0_SRC1;
        }
        if d.dest.is_some() {
            flags0 |= F0_DEST;
        }
        if d.branch.is_some() {
            flags0 |= F0_BRANCH;
        }
        let mut flags1 = 0u8;
        if d.result != 0 {
            flags1 |= F1_RESULT;
        }
        if d.mem_addr != 0 {
            flags1 |= F1_MEM;
        }
        if d.hoist != 0 {
            flags1 |= F1_HOIST;
        }
        if d.seq != ctx.next_seq {
            flags1 |= F1_SEQ_DELTA;
        }
        if d.pc as i64 != ctx.next_pc {
            flags1 |= F1_PC_DELTA;
        }
        if let Some(b) = d.branch {
            if b.taken {
                flags1 |= F1_TAKEN;
            }
            if b.conditional {
                flags1 |= F1_COND;
            }
            if b.fallthrough as i64 != d.pc as i64 + 1 {
                flags1 |= F1_FALLTHROUGH_DELTA;
            }
        }
        out.push(flags0);
        out.push(flags1);

        if flags1 & F1_SEQ_DELTA != 0 {
            write_varint(out, zigzag(d.seq.wrapping_sub(ctx.next_seq) as i64));
        }
        if flags1 & F1_PC_DELTA != 0 {
            write_varint(out, zigzag(d.pc as i64 - ctx.next_pc));
        }
        for src in d.srcs.into_iter().flatten() {
            out.push(src.index() as u8);
        }
        if let Some(dest) = d.dest {
            out.push(dest.index() as u8);
        }
        if d.result != 0 {
            write_varint(out, zigzag(d.result.wrapping_sub(ctx.prev_result) as i64));
        }
        if d.mem_addr != 0 {
            write_varint(out, zigzag(d.mem_addr.wrapping_sub(ctx.prev_mem) as i64));
        }
        if d.hoist != 0 {
            write_varint(out, d.hoist as u64);
        }
        if let Some(b) = d.branch {
            if flags1 & F1_FALLTHROUGH_DELTA != 0 {
                write_varint(out, zigzag(b.fallthrough as i64 - (d.pc as i64 + 1)));
            }
            write_varint(out, zigzag(b.next_pc as i64 - b.fallthrough as i64));
        }
        ctx.advance(d);
    }
}

fn read_reg(buf: &[u8], pos: &mut usize) -> Result<Reg, DecodeError> {
    let &byte = buf.get(*pos).ok_or(DecodeError::Truncated)?;
    *pos += 1;
    if (byte as usize) >= NUM_LOGICAL_REGS {
        return Err(DecodeError::Corrupt("register id out of range"));
    }
    Ok(Reg::new(byte))
}

fn read_pc_delta(buf: &[u8], pos: &mut usize, base: i64) -> Result<u32, DecodeError> {
    pc_u32(base + unzigzag(read_varint(buf, pos)?))
}

fn pc_u32(pc: i64) -> Result<u32, DecodeError> {
    u32::try_from(pc).map_err(|_| DecodeError::Corrupt("program counter out of u32 range"))
}

/// Decodes a chunk previously produced by [`encode_chunk`], appending
/// `count` records to `out` (which the caller usually clears first; its
/// capacity is reused across chunks). `first_seq` comes from the chunk
/// index. The record loop reports failures as a [`DecodeError`],
/// converted to a [`TraceError`] only here.
pub fn decode_chunk(
    buf: &[u8],
    count: usize,
    first_seq: u64,
    out: &mut Vec<DynInst>,
) -> Result<(), TraceError> {
    Ok(decode_records(buf, count, first_seq, out)?)
}

fn decode_records(
    buf: &[u8],
    count: usize,
    first_seq: u64,
    out: &mut Vec<DynInst>,
) -> Result<(), DecodeError> {
    let mut ctx = Ctx::new(first_seq);
    let mut pos = 0usize;
    for _ in 0..count {
        let &flags0 = buf.get(pos).ok_or(DecodeError::Truncated)?;
        let &flags1 = buf.get(pos + 1).ok_or(DecodeError::Truncated)?;
        pos += 2;
        let kind = *KINDS
            .get((flags0 & F0_KIND_MASK) as usize)
            .ok_or(DecodeError::Corrupt("unknown instruction kind"))?;

        let seq = if flags1 & F1_SEQ_DELTA != 0 {
            ctx.next_seq
                .wrapping_add(unzigzag(read_varint(buf, &mut pos)?) as u64)
        } else {
            ctx.next_seq
        };
        let pc = if flags1 & F1_PC_DELTA != 0 {
            read_pc_delta(buf, &mut pos, ctx.next_pc)?
        } else {
            pc_u32(ctx.next_pc)?
        };
        let src0 = if flags0 & F0_SRC0 != 0 {
            Some(read_reg(buf, &mut pos)?)
        } else {
            None
        };
        let src1 = if flags0 & F0_SRC1 != 0 {
            Some(read_reg(buf, &mut pos)?)
        } else {
            None
        };
        let srcs = [src0, src1];
        let dest = if flags0 & F0_DEST != 0 {
            Some(read_reg(buf, &mut pos)?)
        } else {
            None
        };
        let result = if flags1 & F1_RESULT != 0 {
            ctx.prev_result
                .wrapping_add(unzigzag(read_varint(buf, &mut pos)?) as u64)
        } else {
            0
        };
        let mem_addr = if flags1 & F1_MEM != 0 {
            ctx.prev_mem
                .wrapping_add(unzigzag(read_varint(buf, &mut pos)?) as u64)
        } else {
            0
        };
        let hoist = if flags1 & F1_HOIST != 0 {
            u32::try_from(read_varint(buf, &mut pos)?)
                .map_err(|_| DecodeError::Corrupt("hoist distance out of u32 range"))?
        } else {
            0
        };
        let branch = if flags0 & F0_BRANCH != 0 {
            let fallthrough = if flags1 & F1_FALLTHROUGH_DELTA != 0 {
                read_pc_delta(buf, &mut pos, pc as i64 + 1)?
            } else {
                pc_u32(pc as i64 + 1)?
            };
            let next_pc = read_pc_delta(buf, &mut pos, fallthrough as i64)?;
            Some(BranchInfo {
                taken: flags1 & F1_TAKEN != 0,
                next_pc,
                fallthrough,
                conditional: flags1 & F1_COND != 0,
            })
        } else {
            None
        };

        let d = DynInst {
            seq,
            pc,
            kind,
            srcs,
            dest,
            result,
            mem_addr,
            branch,
            hoist,
        };
        ctx.advance(&d);
        out.push(d);
    }
    if pos != buf.len() {
        return Err(DecodeError::Corrupt("trailing bytes after chunk payload"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvi_isa::Emulator;
    use arvi_workloads::Benchmark;

    #[test]
    fn kind_codes_are_dense_and_stable() {
        for (i, &k) in KINDS.iter().enumerate() {
            assert_eq!(kind_code(k) as usize, i);
        }
    }

    #[test]
    fn emulator_stream_round_trips() {
        let insts: Vec<DynInst> = Emulator::new(Benchmark::M88ksim.program(7))
            .take(3_000)
            .collect();
        let mut buf = Vec::new();
        encode_chunk(&insts, &mut buf);
        let mut back = Vec::new();
        decode_chunk(&buf, insts.len(), insts[0].seq, &mut back).unwrap();
        assert_eq!(insts, back);
        // The whole point of the delta encoding: well under the 56-byte
        // in-memory footprint per record.
        assert!(
            buf.len() < insts.len() * 10,
            "{} bytes for {} insts",
            buf.len(),
            insts.len()
        );
    }

    #[test]
    fn empty_chunk_round_trips() {
        let mut buf = Vec::new();
        encode_chunk(&[], &mut buf);
        assert!(buf.is_empty());
        let mut back = Vec::new();
        decode_chunk(&buf, 0, 0, &mut back).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn truncated_payload_rejected() {
        let insts: Vec<DynInst> = Emulator::new(Benchmark::Li.program(1)).take(50).collect();
        let mut buf = Vec::new();
        encode_chunk(&insts, &mut buf);
        let mut back = Vec::new();
        assert!(decode_chunk(&buf[..buf.len() - 1], insts.len(), insts[0].seq, &mut back).is_err());
        back.clear();
        // Trailing garbage is also a structural error.
        let mut padded = buf.clone();
        padded.push(0);
        assert!(decode_chunk(&padded, insts.len(), insts[0].seq, &mut back).is_err());
    }

    #[test]
    fn bad_register_id_rejected() {
        let d = DynInst {
            seq: 0,
            pc: 0,
            kind: InstKind::IntAlu,
            srcs: [Some(Reg::new(31)), None],
            dest: None,
            result: 0,
            mem_addr: 0,
            branch: None,
            hoist: 0,
        };
        let mut buf = Vec::new();
        encode_chunk(&[d], &mut buf);
        // The register byte is the last one; forge an out-of-range id.
        *buf.last_mut().unwrap() = 200;
        let mut back = Vec::new();
        let err = decode_chunk(&buf, 1, 0, &mut back).unwrap_err();
        assert!(err.to_string().contains("register"), "{err}");
    }
}
