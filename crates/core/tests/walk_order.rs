//! Golden fingerprints of the cyclic walk's order.
//!
//! Every scan artifact — CSV order, checkpoint positions, shard splits —
//! follows from the sequence of group elements `Cycle` visits. These
//! constants pin the first 2¹⁶ outputs of the three walk entry points
//! (`ShardIter::fill_raw`, `ShardIter::fill`, `Cycle::iter`) for spaces on
//! both sides of the 2⁶⁴ prime boundary, so a change to the step
//! arithmetic that alters a single element fails here before it reaches
//! a scan golden.

use xmap::cyclic::Cycle;
use xmap_state::Fingerprint;

/// Outputs fingerprinted per entry point.
const TAKE: usize = 1 << 16;

/// The scanner's chunk size; `fill` runs at an odd size so a chunk
/// boundary never lines up with it.
const RAW_CHUNK: usize = 256;
const FILL_CHUNK: usize = 97;

/// `(len, seed, shard, shards, fill_raw, fill, iter)`. The raw
/// fingerprint also folds in the walk position after the last output.
#[rustfmt::skip]
const GOLDEN: [(u64, u64, u64, u64, u64, u64, u64); 8] = [
    (1_000, 42, 0, 1, 0xe37c_bb6b_e8e3_df13, 0x73f8_dcd4_e359_01dd, 0x73f8_dcd4_e359_01dd),
    (1 << 16, 7, 1, 3, 0x30e0_6726_61b2_b4fd, 0xa60f_633d_3487_d2e4, 0xdd69_1876_0601_c4e5),
    (1 << 18, 7, 0, 2, 0x476b_8d35_310d_3997, 0xb4fb_793f_4184_6792, 0x94df_57a1_66ab_39e5),
    (1 << 18, 11, 1, 2, 0x2b7b_4dd7_bb56_f3f4, 0x1fa0_b4d4_c599_ca1a, 0xf2f2_d1ac_0384_ee2f),
    (1 << 32, 5, 0, 1, 0xc09b_a084_b0d2_22bd, 0x20a2_a221_63ef_069f, 0x20a2_a221_63ef_069f),
    (1 << 32, 0x5eed, 3, 4, 0xe0b1_157c_c10d_4ae0, 0x0a8c_a928_7396_4536, 0x0a80_fc70_a6f5_b1de),
    (u64::MAX, 11, 0, 1, 0xee62_cade_76e6_d56c, 0x7b10_3af0_7688_89f9, 0x7b10_3af0_7688_89f9),
    (u64::MAX, 0x5eed, 2, 5, 0x981f_8179_fcfa_c5a7, 0x6e19_3a46_7cf3_2151, 0x2372_338f_81ec_bdfd),
];

/// Folds the first `TAKE` outputs of a batched walk into `fp`, asking
/// `fill` for `chunk` at a time.
fn fold_chunks(fp: &mut Fingerprint, chunk: usize, mut fill: impl FnMut(&mut [u64]) -> usize) {
    let mut buf = vec![0u64; chunk];
    let mut taken = 0;
    while taken < TAKE {
        let n = fill(&mut buf[..chunk.min(TAKE - taken)]);
        if n == 0 {
            break;
        }
        for &i in &buf[..n] {
            fp.push_u64(i);
        }
        taken += n;
    }
}

fn fingerprints(len: u64, seed: u64, shard: u64, shards: u64) -> (u64, u64, u64) {
    let cycle = Cycle::new(len, seed);

    let mut raw = Fingerprint::new();
    let mut it = cycle.iter_shard(shard, shards);
    fold_chunks(&mut raw, RAW_CHUNK, |buf| it.fill_raw(buf));
    let (current, remaining) = it.position();
    raw.push_u128(current).push_u128(remaining);

    let mut fill = Fingerprint::new();
    let mut it = cycle.iter_shard(shard, shards);
    fold_chunks(&mut fill, FILL_CHUNK, |buf| it.fill(buf));

    let mut iter = Fingerprint::new();
    for i in cycle.iter().take(TAKE) {
        iter.push_u64(i);
    }
    (raw.finish(), fill.finish(), iter.finish())
}

#[test]
fn walk_order_matches_golden_fingerprints() {
    let mut mismatches = Vec::new();
    for (len, seed, shard, shards, raw, fill, iter) in GOLDEN {
        let got = fingerprints(len, seed, shard, shards);
        if got != (raw, fill, iter) {
            mismatches.push(format!(
                "({len}, {seed}, {shard}, {shards}, {:#018x}, {:#018x}, {:#018x})",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "walk order moved:\n{}",
        mismatches.join("\n")
    );
}

/// The two large cases sit on either side of the 2⁶⁴ boundary: the first
/// prime modulus fits in 64 bits, the second does not.
#[test]
fn golden_cases_straddle_the_u64_prime_boundary() {
    assert_eq!(Cycle::new(1 << 32, 5).prime(), 4_294_967_311);
    let prime = Cycle::new(u64::MAX, 11).prime();
    assert_eq!(prime, 18_446_744_073_709_551_629);
    assert!(prime > 1 << 64);
}
