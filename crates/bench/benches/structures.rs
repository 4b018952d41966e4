//! Microbenchmarks of the paper's hardware structures: DDT maintenance,
//! RSE extraction, BVIT access and the baseline predictors.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use arvi_core::{
    ArviConfig, ArviPredictor, Bvit, BvitConfig, ChainMask, CurrentValues, Ddt, DdtConfig, LeafSet,
    PhysReg, RenamedOp, Tracker, TrackerConfig,
};
use arvi_predict::{DirectionPredictor, GskewConfig, TwoBcGskew};

fn paper_tracker() -> TrackerConfig {
    TrackerConfig {
        ddt: DdtConfig {
            slots: 256,
            phys_regs: 320,
        },
        track_dependents: false,
    }
}

fn bench_ddt(c: &mut Criterion) {
    let mut g = c.benchmark_group("ddt");
    g.bench_function("insert_commit_steady_state", |b| {
        // The source was written 279 inserts earlier, outside the
        // 256-entry window: its row is dead and never read, so this
        // times the insert/commit bookkeeping alone.
        let mut ddt = Ddt::new(DdtConfig {
            slots: 256,
            phys_regs: 320,
        });
        let mut i = 0u16;
        b.iter(|| {
            if ddt.is_full() {
                ddt.commit_oldest();
            }
            let dest = PhysReg(32 + (i % 280));
            let src = PhysReg(32 + ((i + 1) % 280));
            ddt.insert(black_box(Some(dest)), black_box([Some(src), None]));
            i = i.wrapping_add(1);
        });
    });
    g.bench_function("insert_commit_recent_sources", |b| {
        // The machine's common case: both sources were written 1 and
        // 1-8 inserts earlier, so both rows are live and read.
        let mut ddt = Ddt::new(DdtConfig {
            slots: 256,
            phys_regs: 320,
        });
        let reg = |k: u32| PhysReg(32 + (k % 280) as u16);
        let mut i = 0u32;
        b.iter(|| {
            if ddt.is_full() {
                ddt.commit_oldest();
            }
            let srcs = [Some(reg(i + 279)), Some(reg(i + 279 - i % 8))];
            ddt.insert(black_box(Some(reg(i))), black_box(srcs));
            i = (i + 1) % 280;
        });
    });
    g.bench_function("chain_read_deep", |b| {
        let mut ddt = Ddt::new(DdtConfig {
            slots: 256,
            phys_regs: 320,
        });
        // Build a 200-deep dependence chain.
        let mut prev = PhysReg(32);
        ddt.insert(Some(prev), [None, None]);
        for i in 1..200u16 {
            let d = PhysReg(32 + i);
            ddt.insert(Some(d), [Some(prev), None]);
            prev = d;
        }
        b.iter(|| black_box(ddt.chain(&[prev])).len());
    });
    g.bench_function("chain_into_read_deep", |b| {
        // The zero-allocation variant of chain_read_deep: same read, the
        // result mask is reused across iterations.
        let mut ddt = Ddt::new(DdtConfig {
            slots: 256,
            phys_regs: 320,
        });
        let mut prev = PhysReg(32);
        ddt.insert(Some(prev), [None, None]);
        for i in 1..200u16 {
            let d = PhysReg(32 + i);
            ddt.insert(Some(d), [Some(prev), None]);
            prev = d;
        }
        let mut mask = ChainMask::zeroed(256);
        b.iter(|| {
            ddt.chain_into(&[prev], &mut mask);
            black_box(mask.len())
        });
    });
    g.finish();
}

fn bench_rse(c: &mut Criterion) {
    let mut g = c.benchmark_group("rse");
    g.bench_function("leaf_set_extraction", |b| {
        let mut t = Tracker::new(paper_tracker());
        let mut prev = PhysReg(32);
        t.insert(&RenamedOp::load(prev, Some(PhysReg(1))));
        for i in 1..120u16 {
            let d = PhysReg(32 + i);
            if i % 5 == 0 {
                t.insert(&RenamedOp::load(d, Some(prev)));
            } else {
                t.insert(&RenamedOp::alu(d, [Some(prev), Some(PhysReg(2 + i % 8))]));
            }
            prev = d;
        }
        b.iter(|| black_box(t.leaf_set([Some(prev), None])).regs.len());
    });
    g.bench_function("leaf_set_into_extraction", |b| {
        // The scratch-reusing variant the ARVI predictor uses per branch.
        let mut t = Tracker::new(paper_tracker());
        let mut prev = PhysReg(32);
        t.insert(&RenamedOp::load(prev, Some(PhysReg(1))));
        for i in 1..120u16 {
            let d = PhysReg(32 + i);
            if i % 5 == 0 {
                t.insert(&RenamedOp::load(d, Some(prev)));
            } else {
                t.insert(&RenamedOp::alu(d, [Some(prev), Some(PhysReg(2 + i % 8))]));
            }
            prev = d;
        }
        let mut out = LeafSet::default();
        b.iter(|| {
            t.leaf_set_into([Some(prev), None], &mut out);
            black_box(out.regs.len())
        });
    });
    g.finish();
}

fn bench_bvit(c: &mut Criterion) {
    let mut g = c.benchmark_group("bvit");
    let mut bvit = Bvit::new(BvitConfig::default());
    for i in 0..4096usize {
        bvit.update(i, (i % 8) as u8, (i % 32) as u8, i % 3 == 0, true);
    }
    g.bench_function("lookup", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 97) & 0xFFF;
            black_box(bvit.lookup(i, (i % 8) as u8, (i % 32) as u8))
        });
    });
    g.bench_function("update", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 193) & 0xFFF;
            bvit.update(i, (i % 8) as u8, (i % 32) as u8, i.is_multiple_of(2), true);
        });
    });
    g.finish();
}

fn bench_arvi_predict(c: &mut Criterion) {
    let mut g = c.benchmark_group("arvi");
    g.bench_function("full_prediction", |b| {
        let mut arvi = ArviPredictor::new(ArviConfig::paper(paper_tracker()));
        let mut prev = PhysReg(32);
        arvi.writeback(PhysReg(2), 42);
        arvi.rename(
            &RenamedOp::load(prev, Some(PhysReg(1))),
            Some(arvi_isa::Reg::new(8)),
        );
        for i in 1..64u16 {
            let d = PhysReg(32 + i);
            arvi.rename(
                &RenamedOp::alu(d, [Some(prev), Some(PhysReg(2))]),
                Some(arvi_isa::Reg::new((8 + i % 16) as u8)),
            );
            arvi.writeback(d, i as u64 * 3);
            prev = d;
        }
        b.iter(|| black_box(arvi.predict(0x400, [Some(prev), None], &CurrentValues)).index);
    });
    g.finish();
}

fn bench_predictors(c: &mut Criterion) {
    let mut g = c.benchmark_group("predictors");
    g.bench_function("gskew_predict_update", |b| {
        let mut p = TwoBcGskew::new(GskewConfig::level1());
        let mut pc = 0u64;
        b.iter(|| {
            pc = pc.wrapping_add(52).wrapping_mul(11) & 0xFFFF;
            let d = p.predict(pc);
            p.spec_push(d.taken);
            p.update(pc, &d, !d.taken);
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_ddt, bench_rse, bench_bvit, bench_arvi_predict, bench_predictors
}
criterion_main!(benches);
