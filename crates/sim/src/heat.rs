//! Update-temperature classes for the simulator's write streams.
//!
//! Heat is an exponentially-decaying write counter in Q16 fixed point:
//! each write adds [`ONE`], and elapsed time halves it once per
//! half-life. Integer-only — no floats, no wall clock — so the same
//! operation sequence always yields the same routing. This is Lomet &
//! Luo's write-time temperature separation, which the simulator measures
//! against the paper's single log head.

/// One write's worth of heat (Q16 fixed point: 1.0).
pub const ONE: u32 = 1 << 16;

/// Heat at or above this is "hot": roughly three writes within the last
/// half-life.
pub const HOT: u32 = 3 * ONE;

/// Heat at or above this (but below [`HOT`]) is "warm": about one recent
/// write.
pub const WARM: u32 = ONE;

/// The counter `q`, last touched `elapsed` ticks ago, decayed to now.
/// `half_life` must be non-zero.
#[inline]
pub fn decayed(q: u32, elapsed: u64, half_life: u64) -> u32 {
    let halvings = elapsed / half_life;
    if halvings >= u32::BITS as u64 {
        0
    } else {
        q >> halvings
    }
}

/// The stream, among `nstreams`, that data of heat `q` routes to: 0 is
/// the hottest, `nstreams - 1` the coldest. Data never seen before has no
/// heat and is cold — a first write carries no evidence of re-writing.
#[inline]
pub fn class(q: u32, nstreams: usize) -> usize {
    if nstreams <= 1 || q >= HOT {
        0
    } else if q >= WARM {
        1.min(nstreams - 1)
    } else {
        nstreams - 1
    }
}
